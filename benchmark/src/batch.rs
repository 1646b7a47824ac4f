//! `batch_fleet`: twenty-four changes on a materialised fleet, assessed in
//! due-minute waves of eight.
//!
//! One operation is one wave: `store.snapshot()`, then for each due change
//! `Funnel::assess_change_with(&snapshot, …)` and `report::render`. The
//! store is read-only, ingest is idle, and sst/detect do most of the work;
//! a change's verdict latency runs from the wave's start, so queueing
//! behind the earlier changes of its wave counts. One client waits for
//! every wave (closed loop); the assessment runs on [`threads`] workers,
//! and the traced run prices the fan-out over [`fanout_threads`].

use crate::fleet::{build_world, service_kinds};
use crate::metrics::{latency_metrics, Metric, Outcome, Verdicts, RESULT_MS, SETUP_S, WORK_PER_S};
use crate::speed::Prober;
use crate::stats::{floor_profile, median, Fnv};
use crate::trace::{LayerFloor, Tracer};
use crate::{
    fanout_threads, threads, timed_setups, traced_passes, untraced_passes, PassTimes, Size,
};
use funnel_core::pipeline::{enumerate_work_units, AssessmentMode, ChangeAssessment};
use funnel_core::{report, DiagConfig, Funnel, FunnelConfig};
use funnel_detect::detector::DetectorRunner;
use funnel_detect::sst_adapter::SstDetector;
use funnel_did::groups::DidAssessor;
use funnel_did::seasonal::SeasonalControl;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::StoreSnapshot;
use funnel_sim::world::World;
use funnel_sim::MetricStore;
use funnel_sst::{FastSst, SstScorer};
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::SoftwareChange;
use funnel_topology::impact::{identify_impact_set, Entity};
use funnel_topology::model::ServiceId;
use std::collections::BTreeMap;
use std::time::Instant;

const MINUTES_PER_DAY: usize = 1440;

/// Everything `batch_fleet` hands the program.
pub struct Inputs {
    pub world: World,
    pub store: MetricStore,
    pub kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    /// The changes by due-minute wave.
    pub waves: Vec<Vec<SoftwareChange>>,
}

impl Inputs {
    fn kinds_of(&self, service: ServiceId) -> Vec<KpiKind> {
        self.kinds.get(&service).cloned().unwrap_or_default()
    }

    fn changes(&self) -> impl Iterator<Item = &SoftwareChange> {
        self.waves.iter().flatten()
    }

    /// Hash of the change log and of every stored value.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv::default();
        for change in self.changes() {
            fnv.bytes(format!("{change:?}").as_bytes());
        }
        fnv.u64(crate::ingest::store_fingerprint(&self.store));
        fnv.finish()
    }
}

/// Full size: `fleet-7k` with two days of history and twenty-four changes
/// on day three, three waves ten minutes apart (a pass short enough that
/// five fit one run). Smoke: `fleet-1k`, one day of history, one wave of
/// four changes.
pub fn generate(seed: u64, size: Size) -> Inputs {
    let (history_days, waves, per_wave, tail) = match size {
        Size::Full => (2, 3, 8, MINUTES_PER_DAY),
        Size::Smoke => (1, 1, 4, 300),
    };
    let first = (history_days * MINUTES_PER_DAY + 200) as u64;
    let change_minutes: Vec<u64> = (0..waves * per_wave)
        .map(|k| first + 10 * (k / per_wave) as u64)
        .collect();
    let world = build_world(
        &size.big_fleet(),
        seed,
        history_days * MINUTES_PER_DAY + tail,
        &change_minutes,
    );
    let store = world.materialize().expect("every key of the world");
    let kinds = service_kinds(&world);
    let waves = world
        .change_log()
        .all()
        .chunks(per_wave)
        .map(<[SoftwareChange]>::to_vec)
        .collect();
    Inputs {
        world,
        store,
        kinds,
        waves,
    }
}

fn funnel(workers: usize, diagnose: bool) -> Funnel {
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    if diagnose {
        config.diagnose = DiagConfig::on();
    }
    Funnel::new(config)
}

/// What one wave produced and how long its parts took.
struct Wave {
    wall_s: f64,
    /// Per change, its own time: assess + render, for the first change of
    /// the wave the snapshot too.
    own_ms: Vec<f64>,
    /// The probe before the wave and the one after each change.
    probes: Vec<f64>,
    assessments: Vec<ChangeAssessment>,
    reports: Vec<String>,
}

impl Wave {
    fn items(&self) -> u64 {
        self.assessments.iter().map(|a| a.items.len() as u64).sum()
    }
}

fn run_wave(inp: &Inputs, funnel: &Funnel, wave: usize, prober: &Prober, tr: &mut Tracer) -> Wave {
    let changes = &inp.waves[wave];
    let op = wave as u64;
    let mut own_ms = Vec::with_capacity(changes.len());
    let mut probes = vec![prober.probe()];
    let mut assessments = Vec::with_capacity(changes.len());
    let mut reports = Vec::with_capacity(changes.len());
    let mut t0 = Instant::now();
    let op_span = tr.begin("op.wave", op);
    let s = tr.begin("store.snapshot", op);
    let snapshot = inp.store.snapshot();
    tr.end(s);
    for change in changes {
        let s = tr.begin("core.assess", op);
        let assessment = funnel
            .assess_change_with(&snapshot, inp.world.topology(), change, &|svc| {
                inp.kinds_of(svc)
            })
            .expect("every impact-set series is in the store");
        tr.end(s);
        let s = tr.begin("core.render", op);
        let text = report::render(inp.world.topology(), &assessment);
        tr.end(s);
        own_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        probes.push(prober.probe());
        t0 = Instant::now();
        assessments.push(assessment);
        reports.push(text);
    }
    tr.end(op_span);
    Wave {
        wall_s: own_ms.iter().sum::<f64>() / 1e3,
        own_ms,
        probes,
        assessments,
        reports,
    }
}

/// What a change's output is compared by: its items in `Debug` form and
/// the rendered report.
fn output_hash(assessment: &ChangeAssessment, report: &str) -> u64 {
    Fnv::default()
        .bytes(format!("{:?}", assessment.items).as_bytes())
        .bytes(report.as_bytes())
        .finish()
}

/// The reference outputs: every change assessed by one worker straight
/// from the `World` (no store, no snapshot), the changes spread over the
/// harness's own threads.
fn reference(inp: &Inputs) -> BTreeMap<u32, u64> {
    let changes: Vec<&SoftwareChange> = inp.changes().collect();
    let serial = funnel(1, false);
    let lanes = fanout_threads().min(changes.len()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (changes, serial) = (&changes, &serial);
                scope.spawn(move || {
                    changes
                        .iter()
                        .skip(lane)
                        .step_by(lanes)
                        .map(|change| {
                            let assessment = serial
                                .assess_change(&inp.world, change.id)
                                .expect("reference assessment");
                            let text = report::render(inp.world.topology(), &assessment);
                            (change.id.0, output_hash(&assessment, &text))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Every wave once, in due order.
struct Pass {
    wall_s: f64,
    waves: Vec<Wave>,
    /// The waves' probes end to end: the probe after a wave's last change
    /// is the one before the next wave's first.
    probes: Vec<f64>,
}

impl PassTimes for Pass {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Per wave, the time to its first verdict (the snapshot included),
    /// then each later change's own assess + render time.
    fn ops_ms(&self) -> Vec<f64> {
        self.waves
            .iter()
            .flat_map(|wave| wave.own_ms.iter().copied())
            .collect()
    }

    fn probes(&self) -> &[f64] {
        &self.probes
    }
}

impl Pass {
    fn items(&self) -> u64 {
        self.waves.iter().map(Wave::items).sum()
    }
}

fn run_pass(inp: &Inputs, funnel: &Funnel, prober: &Prober, tr: &mut Tracer) -> Pass {
    let waves: Vec<Wave> = (0..inp.waves.len())
        .map(|w| run_wave(inp, funnel, w, prober, tr))
        .collect();
    let mut probes = Vec::new();
    for wave in &waves {
        // Two probes meet between waves; the later one is nearer the op.
        probes.pop();
        probes.extend(&wave.probes);
    }
    Pass {
        wall_s: waves.iter().map(|w| w.wall_s).sum(),
        waves,
        probes,
    }
}

/// Verdict latencies from a floor profile of [`Pass::ops_ms`]: within each
/// wave a change waits for the snapshot and for the changes before it.
fn verdict_latencies(inp: &Inputs, floor_ms: &[f64]) -> Vec<Vec<f64>> {
    let mut ops = floor_ms.iter();
    inp.waves
        .iter()
        .map(|wave| {
            let mut at = 0.0;
            ops.by_ref()
                .take(wave.len())
                .map(|own| {
                    at += own;
                    at
                })
                .collect()
        })
        .collect()
}

/// Runs `batch_fleet`.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let workers = threads();
    let prober = Prober::new(workers);
    let (inp, setup_s) = timed_setups(trace, &prober, || generate(seed, size));
    let mut metrics = vec![Metric::new(
        SETUP_S,
        setup_s,
        "world + materialised store, median of the set-ups at reference speed",
    )];
    let mut verdicts = Verdicts::default();
    let expected = reference(&inp);
    let check_wave = |wave: &Wave, verdicts: &mut Verdicts, what: &str| {
        for (assessment, text) in wave.assessments.iter().zip(&wave.reports) {
            let got = output_hash(assessment, text);
            let want = expected.get(&assessment.change.0).copied();
            verdicts.check(Some(got) == want, 1, || {
                format!(
                    "{what}: change {} items {got:016x}, reference {want:016x?}",
                    assessment.change.0
                )
            });
        }
    };

    let measured = funnel(workers, false);
    // Warm-up: one wave, untimed (the first snapshot faults the store in).
    run_wave(&inp, &measured, 0, &prober, &mut Tracer::new(false));

    let mut run = |tracer: &mut Tracer, what: &str| {
        let pass = run_pass(&inp, &measured, &prober, tracer);
        for wave in &pass.waves {
            check_wave(wave, &mut verdicts, what);
        }
        pass
    };
    if trace {
        let passes = traced_passes(seconds, &mut run);
        let overhead = passes.overhead();
        let (layers, traced, tracer) = (passes.layers, passes.last, passes.tracer);
        let items = traced.items();
        let detections = traced
            .waves
            .iter()
            .flat_map(|w| &w.assessments)
            .flat_map(|a| &a.items)
            .filter(|i| i.detection.is_some())
            .count();
        let sample = &traced.waves[0];
        let changes = inp.changes().count() as f64;
        let assess_ns = layers.total_ns("core.assess");

        // The first wave on one worker (the base of the self share) and
        // on every core, alternated, twice each: the fan-out's speed-up.
        let serial = funnel(1, false);
        let fanout = fanout_threads();
        let parallel = funnel(fanout, false);
        let mut serial_layers = LayerFloor::default();
        let (mut serial_wave0_ms, mut parallel_wave0_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let mut tracer = Tracer::new(true);
            let one = run_wave(&inp, &serial, 0, &prober, &mut tracer);
            check_wave(&one, &mut verdicts, "one-worker wave");
            serial_layers.absorb(&tracer);
            serial_wave0_ms = serial_wave0_ms.min(one.wall_s * 1e3);
            let all = run_wave(&inp, &parallel, 0, &prober, &mut Tracer::new(false));
            check_wave(&all, &mut verdicts, "fan-out wave");
            parallel_wave0_ms = parallel_wave0_ms.min(all.wall_s * 1e3);
        }
        let snapshot = inp.store.snapshot();
        let kernel = kernels(&inp, sample, &snapshot, &serial);
        let serial_assess_s = serial_layers.total_ns("core.assess") / 1e9;
        let modelled_s = sample.items() as f64 * kernel.windows_per_item * kernel.sst_ns / 1e9
            + sample
                .assessments
                .iter()
                .flat_map(|a| &a.items)
                .filter(|i| i.did.is_some())
                .map(|i| match i.mode {
                    AssessmentMode::DarkLaunchControl => kernel.did_dark_us,
                    AssessmentMode::SeasonalHistory => kernel.did_seasonal_us,
                })
                .sum::<f64>()
                / 1e6;

        // The opt-in diagnosis stage over the first wave.
        let diagnosing = funnel(1, true);
        let t0 = Instant::now();
        for (change, assessment) in inp.waves[0].iter().zip(&sample.assessments) {
            std::hint::black_box(diagnosing.diagnose(
                &snapshot,
                inp.world.topology(),
                change,
                assessment,
            ));
        }
        let diag_ms = t0.elapsed().as_secs_f64() * 1e3 / inp.waves[0].len() as f64;

        let t0 = Instant::now();
        for change in inp.changes() {
            let set = identify_impact_set(inp.world.topology(), change).expect("known targets");
            std::hint::black_box(enumerate_work_units(&set, change, &|svc| inp.kinds_of(svc)));
        }
        let impact_us = t0.elapsed().as_secs_f64() * 1e6 / changes;

        let waves = inp.waves.len();
        metrics.extend([
            Metric::new(
                "store.snapshot.ms",
                layers.total_ns("store.snapshot") / 1e6 / waves as f64,
                format!("mean of {waves} waves"),
            ),
            Metric::new("topology.impact_set.us_per_change", impact_us, "standalone"),
            Metric::new(
                "core.assess.ms_per_change",
                assess_ns / 1e6 / changes,
                format!("{changes} changes at {workers} workers"),
            ),
            Metric::new(
                "core.assess.us_per_item",
                assess_ns / 1e3 / items as f64,
                format!("{items} items at {workers} workers"),
            ),
            Metric::new(
                "sst.score_window.ns",
                kernel.sst_ns,
                format!("{} windows, standalone", kernel.windows),
            ),
            Metric::new(
                "sst.windows_per_item",
                kernel.windows_per_item,
                "34-bin windows of the assessment span",
            ),
            Metric::new(
                "detect.run.us_per_item",
                kernel.detect_us,
                format!("{} items, standalone", kernel.items),
            ),
            Metric::new("did.dark.us", kernel.did_dark_us, "assess_masked, standalone"),
            Metric::new(
                "did.seasonal.us",
                kernel.did_seasonal_us,
                "SeasonalControl::assess, standalone",
            ),
            Metric::new("did.invocations", detections as f64, "items with a detection"),
            Metric::new(
                "core.self.share",
                1.0 - modelled_s / serial_assess_s,
                format!(
                    "base: core.assess of the first wave on one worker, {serial_assess_s:.3} s, of which {modelled_s:.3} s modelled as sst + did"
                ),
            ),
            Metric::new(
                "core.parallel.speedup",
                serial_wave0_ms / parallel_wave0_ms,
                format!(
                    "first wave: {parallel_wave0_ms:.1} ms at {fanout} workers vs {serial_wave0_ms:.1} ms at 1"
                ),
            ),
            Metric::new(
                "core.render.us_per_change",
                layers.total_ns("core.render") / 1e3 / changes,
                "",
            ),
            Metric::new("diag.ms_per_change", diag_ms, "first wave, diagnose enabled"),
            overhead,
            Metric::new(
                "obs.layer_time_share",
                tracer.layer_time_share(),
                "last traced pass: time in layer spans ÷ time in the operation spans around them",
            ),
            Metric::new("obs.spans", tracer.spans().len() as f64, ""),
        ]);
        tracer
            .write_json(&crate::out_dir().join("trace-batch_fleet.json"))
            .expect("write trace");
    } else {
        let passes = untraced_passes(seconds, &mut run);
        let items = passes.last.items();
        let latencies = verdict_latencies(&inp, &floor_profile(&passes.ms));
        let wave_ms: Vec<f64> = latencies.iter().filter_map(|w| w.last().copied()).collect();
        let pass_s = wave_ms.iter().sum::<f64>() / 1e3;
        metrics.push(Metric::new(
            WORK_PER_S,
            items as f64 / pass_s,
            format!(
                "items_per_s: {items} items in {pass_s:.3} s, each change's {}, {workers} workers",
                passes.describe()
            ),
        ));
        metrics.extend(latency_metrics(
            &latencies.concat(),
            passes.ms.len(),
            "verdict",
        ));
        metrics.push(Metric::new(
            RESULT_MS,
            median(&wave_ms),
            format!(
                "wave_ms (snapshot + its verdicts): median of {} waves",
                wave_ms.len()
            ),
        ));
    }
    Outcome {
        workload: "batch_fleet",
        seed,
        inputs: inp.fingerprint(),
        verdicts,
        metrics,
    }
}

/// Kernel prices on inputs sampled from the first wave.
struct Kernels {
    sst_ns: f64,
    windows: u64,
    windows_per_item: f64,
    detect_us: f64,
    items: u64,
    did_dark_us: f64,
    did_seasonal_us: f64,
}

fn kernels(inp: &Inputs, wave: &Wave, snapshot: &StoreSnapshot, funnel: &Funnel) -> Kernels {
    let config = funnel.config();
    let w = config.sst.window_len();
    let scorer = FastSst::new(config.sst.clone());
    let runner = DetectorRunner::new(
        SstDetector::fast(scorer.clone()),
        config.sst_threshold,
        config.persistence_minutes,
    );
    // Every eleventh item of the wave (a step that shares no factor with
    // the 4 server and 3 instance kinds, so every kind is drawn: a window's
    // cost depends on its data), over the span `assess_item` scores:
    // [T0 − 2W, T0 + assessment_minutes + 1).
    let spans: Vec<TimeSeries> = inp.waves[0]
        .iter()
        .zip(&wave.assessments)
        .flat_map(|(change, assessment)| {
            let from = change.minute - 2 * w as u64;
            let to = change.minute + config.assessment_minutes + 1;
            assessment.items.iter().step_by(11).filter_map(move |item| {
                let series = snapshot.get(&item.key)?;
                Some(TimeSeries::new(from, series.slice(from, to).to_vec()))
            })
        })
        .collect();
    // Three alternated rounds of each, the median kept: one round is
    // short enough for a scheduling hiccup to move it.
    let windows: u64 = spans.iter().map(|s| (s.len() + 1 - w) as u64).sum();
    let mut sst_ns = Vec::new();
    let mut detect_us = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for span in &spans {
            for window in span.values().windows(w) {
                std::hint::black_box(scorer.score_window(window));
            }
        }
        sst_ns.push(t0.elapsed().as_nanos() as f64 / windows.max(1) as f64);
        let t0 = Instant::now();
        for span in &spans {
            std::hint::black_box(runner.run(span));
        }
        detect_us.push(t0.elapsed().as_secs_f64() * 1e6 / spans.len().max(1) as f64);
    }
    let (sst_ns, detect_us) = (median(&sst_ns), median(&detect_us));

    // DiD on the response-delay KPI the effect-carrying changes shift:
    // a dark launch against its control instances, a full launch against
    // its own history.
    let assessor = DidAssessor::new(config.did.clone());
    let delay = KpiKind::PageViewResponseDelay;
    let rounds = 50;
    let mut did_dark_us = 0.0;
    let mut did_seasonal_us = 0.0;
    for (change, assessment) in inp.waves[0].iter().zip(&wave.assessments) {
        let set = &assessment.impact_set;
        let fetch = |entity: Entity| snapshot.get(&KpiKey::new(entity, delay));
        if set.has_control_group() && did_dark_us == 0.0 {
            let treated: Vec<TimeSeries> = set
                .tinstances
                .iter()
                .take(1)
                .filter_map(|&i| fetch(Entity::Instance(i)))
                .collect();
            let control: Vec<TimeSeries> = set
                .cinstances
                .iter()
                .filter_map(|&i| fetch(Entity::Instance(i)))
                .collect();
            let treated: Vec<_> = treated.iter().map(|s| (s, None)).collect();
            let control: Vec<_> = control.iter().map(|s| (s, None)).collect();
            let t0 = Instant::now();
            for _ in 0..rounds {
                let _ =
                    std::hint::black_box(assessor.assess_masked(&treated, &control, change.minute));
            }
            did_dark_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(rounds);
        } else if !set.has_control_group() && did_seasonal_us == 0.0 {
            let Some(series) = fetch(Entity::Service(change.service)) else {
                continue;
            };
            let control = SeasonalControl::new(config.history_days);
            let t0 = Instant::now();
            for _ in 0..rounds {
                let _ = std::hint::black_box(control.assess(&assessor, &series, change.minute));
            }
            did_seasonal_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(rounds);
        }
    }
    Kernels {
        sst_ns,
        windows,
        windows_per_item: (2 * w as u64 + config.assessment_minutes + 1 - w as u64 + 1) as f64,
        detect_us,
        items: spans.len() as u64,
        did_dark_us,
        did_seasonal_us,
    }
}
