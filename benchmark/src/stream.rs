//! `stream_live`: a live feed offered minute by minute to the streaming
//! engine, ten changes tracked as they deploy.
//!
//! One operation is one tick: offer the minute's batch, then
//! `StreamEngine::tick(minute)`. The store and collector are bypassed;
//! the rings, the incremental SST monitors and the tick scheduler do the
//! work, and a change completes on the tick that closes its assessment
//! window. One percent of the measurements arrive five minutes late and
//! take the ring backfill path. There is no tick budget, so nothing sheds.
//! One client waits for every tick (closed loop); scoring and completion
//! run on [`threads`] workers, and the traced run prices the fan-out over
//! [`fanout_threads`].

use crate::fleet::{build_world, service_kinds, FLEET_1K};
use crate::metrics::{latency_metrics, Metric, Outcome, Verdicts, RESULT_MS, SETUP_S, WORK_PER_S};
use crate::speed::Prober;
use crate::stats::{floor_profile, median, Fnv};
use crate::trace::Tracer;
use crate::{
    fanout_threads, threads, timed_setups, traced_passes, untraced_passes, PassTimes, Size,
};
use funnel_core::stream::StreamAssessment;
use funnel_core::{Funnel, FunnelConfig, StreamConfig, StreamEngine, StreamStats};
use funnel_sim::kpi::KpiKind;
use funnel_sim::wire::key_to_bytes;
use funnel_sim::world::World;
use funnel_sim::{LiveFeed, MetricStore};
use funnel_sst::{FastSst, StreamingSst};
use funnel_timeseries::ring::RingSeries;
use funnel_topology::change::SoftwareChange;
use funnel_topology::model::ServiceId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Permille of measurements that arrive late, and by how many minutes.
const LATE_PERMILLE: u64 = 10;
const LATE_MINUTES: u64 = 5;
/// The first change deploys here: the detector's look-back (2 × 34) fits.
const FIRST_CHANGE: u64 = 70;
/// Minutes the one-worker comparison run covers (before any completion).
fn speedup_minutes(size: Size) -> u64 {
    match size {
        Size::Full => 100,
        Size::Smoke => 40,
    }
}

/// Everything `stream_live` hands the program.
pub struct Inputs {
    pub world: World,
    pub feed: LiveFeed,
    pub kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    pub minutes: u64,
    pub fingerprint: u64,
}

/// Full size: `fleet-1k`, 170 minutes, ten changes four minutes apart (a
/// pass short enough that several fit one run). Smoke: 136 minutes, two
/// changes.
pub fn generate(seed: u64, size: Size) -> Inputs {
    let (minutes, changes) = match size {
        Size::Full => (170, 10),
        Size::Smoke => (136, 2),
    };
    let change_minutes: Vec<u64> = (0..changes).map(|k| FIRST_CHANGE + 4 * k).collect();
    let world = build_world(&FLEET_1K, seed, minutes as usize, &change_minutes);
    let store = world.materialize().expect("every key of the world");
    let feed = LiveFeed::from_store(&store).with_late(seed, LATE_PERMILLE, LATE_MINUTES);
    let mut fnv = Fnv::default();
    for change in world.change_log().all() {
        fnv.bytes(format!("{change:?}").as_bytes());
    }
    for (arrival, batch) in feed.arrivals() {
        fnv.u64(arrival).u64(batch.len() as u64);
        for m in batch {
            fnv.bytes(&key_to_bytes(m.key)).u64(m.minute).f64(m.value);
        }
    }
    Inputs {
        kinds: service_kinds(&world),
        world,
        feed,
        minutes,
        fingerprint: fnv.finish(),
    }
}

fn configs(inp: &Inputs, workers: usize) -> (FunnelConfig, StreamConfig) {
    let mut funnel = FunnelConfig::paper_default();
    funnel.assess.workers = workers;
    let mut stream = StreamConfig::paired_with(&funnel);
    stream.ring_capacity = StreamConfig::capacity_for(&funnel, inp.minutes);
    stream.workers = workers;
    (funnel, stream)
}

/// One tick as observed from outside.
struct Tick {
    ms: f64,
    folds: u64,
    detections: usize,
    completed: Vec<StreamAssessment>,
}

/// One run of the feed through a fresh engine.
struct Pass {
    wall_s: f64,
    ticks: Vec<Tick>,
    /// The probe before each tick and the one after the last.
    probes: Vec<f64>,
    measurements: u64,
    stats: StreamStats,
    window_bytes: usize,
}

impl Pass {
    fn folds(&self) -> u64 {
        self.ticks.iter().map(|t| t.folds).sum()
    }
}

impl PassTimes for Pass {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Every tick.
    fn ops_ms(&self) -> Vec<f64> {
        self.ticks.iter().map(|t| t.ms).collect()
    }

    fn probes(&self) -> &[f64] {
        &self.probes
    }
}

/// Offers and ticks every arrival minute up to `until` (exclusive).
fn run_pass(inp: &Inputs, workers: usize, until: u64, prober: &Prober, tr: &mut Tracer) -> Pass {
    let (funnel, stream) = configs(inp, workers);
    let mut engine = StreamEngine::new(funnel, stream, inp.kinds.clone());
    let mut pending: Vec<&SoftwareChange> = inp.world.change_log().all().iter().collect();
    let mut ticks = Vec::new();
    let mut probes = Vec::new();
    let mut measurements = 0u64;
    let started = Instant::now();
    for (minute, batch) in inp.feed.arrivals().take_while(|(m, _)| *m < until) {
        // A change is tracked from the minute it deploys.
        while pending.first().is_some_and(|c| c.minute <= minute) {
            engine
                .track_change(inp.world.topology(), pending.remove(0).clone())
                .expect("known targets");
        }
        probes.push(prober.probe());
        let t0 = Instant::now();
        let op_span = tr.begin("op.tick", minute);
        let s = tr.begin("stream.offer", minute);
        for &m in batch {
            engine.offer(m);
        }
        tr.end(s);
        let s = tr.begin("stream.tick", minute);
        let report = engine.tick(minute);
        tr.end(s);
        if !report.completed.is_empty() {
            tr.rename(s, "stream.tick.completing");
        }
        tr.end(op_span);
        measurements += batch.len() as u64;
        ticks.push(Tick {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            folds: report.folds,
            detections: report.detections.len(),
            completed: report.completed,
        });
    }
    probes.push(prober.probe());
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        ticks,
        probes,
        measurements,
        stats: engine.stats(),
        window_bytes: engine.window_bytes(),
    }
}

fn items_hash(items: &[funnel_core::ItemAssessment]) -> u64 {
    Fnv::default()
        .bytes(format!("{items:?}").as_bytes())
        .finish()
}

/// The reference: the feed replayed into a store with the engine's own
/// routing (a measurement for a minute already ticked is a backfill), and
/// at each change's due minute the batch pipeline on one worker over a
/// snapshot of that store. Returns the items hash per change.
fn reference(inp: &Inputs) -> BTreeMap<u32, u64> {
    let (config, _) = configs(inp, 1);
    let due_after = config.assessment_minutes;
    let batch = Funnel::new(config);
    let store = MetricStore::new();
    let mut expected = BTreeMap::new();
    for (arrival, measurements) in inp.feed.arrivals() {
        for m in measurements {
            if m.minute < arrival {
                store.backfill(m.key, m.minute, m.value);
            } else {
                store.append(m.key, m.minute, m.value);
            }
        }
        for change in inp.world.change_log().all() {
            if change.minute + due_after == arrival {
                let assessment = batch
                    .assess_change_with(&store.snapshot(), inp.world.topology(), change, &|svc| {
                        inp.kinds.get(&svc).cloned().unwrap_or_default()
                    })
                    .expect("reference assessment");
                expected.insert(change.id.0, items_hash(&assessment.items));
            }
        }
    }
    expected
}

/// Runs `stream_live`.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let workers = threads();
    let prober = Prober::new(workers);
    let (inp, setup_s) = timed_setups(trace, &prober, || generate(seed, size));
    let mut metrics = vec![Metric::new(
        SETUP_S,
        setup_s,
        "world + materialised store + late-rewritten feed, median of the set-ups at reference speed",
    )];
    let mut verdicts = Verdicts::default();
    let expected = reference(&inp);
    let changes = inp.world.change_log().len();
    let mut first: Option<Vec<(u64, usize)>> = None;
    let mut check = |pass: &Pass, verdicts: &mut Verdicts, what: &str| {
        // Every tick must fold and detect what the first pass did; every
        // completing tick must deliver the reference's items, unshed.
        let shape: Vec<(u64, usize)> = pass.ticks.iter().map(|t| (t.folds, t.detections)).collect();
        let baseline = first.get_or_insert_with(|| shape.clone());
        let mut completed = 0;
        for (n, tick) in pass.ticks.iter().enumerate() {
            let mut ok = baseline.get(n) == shape.get(n);
            for done in &tick.completed {
                completed += 1;
                ok &= expected.get(&done.change.0) == Some(&items_hash(&done.items))
                    && done.shed.is_empty()
                    && done.stale.is_empty();
            }
            verdicts.check(ok, 1, || {
                format!("{what}: tick {n} differs from its reference")
            });
        }
        verdicts.check(completed == changes && pass.stats.shed == 0, 1, || {
            format!(
                "{what}: {completed} of {changes} changes completed, {} shed",
                pass.stats.shed
            )
        });
    };

    // Warm-up: the first minutes of the feed through a throw-away engine.
    run_pass(&inp, workers, 40, &prober, &mut Tracer::new(false));

    let mut run = |tracer: &mut Tracer, what: &str| {
        let pass = run_pass(&inp, workers, u64::MAX, &prober, tracer);
        check(&pass, &mut verdicts, what);
        pass
    };
    if trace {
        let passes = traced_passes(seconds, &mut run);
        let overhead = passes.overhead();
        let (layers, traced, tracer) = (passes.layers, passes.last, passes.tracer);

        // The head of the feed on one worker and on every core,
        // alternated, twice each: the fan-out's speed-up.
        let fanout = fanout_threads();
        let head = speedup_minutes(size);
        let (mut serial_ms, mut parallel_ms) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            for (workers, ms) in [(1, &mut serial_ms), (fanout, &mut parallel_ms)] {
                ms.push(run_pass(&inp, workers, head, &prober, &mut Tracer::new(false)).ops_ms());
            }
        }
        let serial_ms: f64 = floor_profile(&serial_ms).iter().sum();
        let parallel_ms: f64 = floor_profile(&parallel_ms).iter().sum();
        let head_folds: u64 = traced.ticks[..head as usize].iter().map(|t| t.folds).sum();

        let quiet_folds: u64 = traced
            .ticks
            .iter()
            .filter(|t| t.completed.is_empty())
            .map(|t| t.folds)
            .sum();
        let completions = tracer.count("stream.tick.completing");
        metrics.extend([
            Metric::new(
                "stream.offer.ns_per_measurement",
                layers.total_ns("stream.offer") / traced.measurements as f64,
                format!("{} measurements", traced.measurements),
            ),
            Metric::new(
                "stream.tick.us_per_fold",
                layers.total_ns("stream.tick") / 1e3 / quiet_folds as f64,
                format!("{quiet_folds} folds on ticks that complete no change"),
            ),
            Metric::new(
                "stream.completion.ms",
                layers.total_ns("stream.tick.completing") / 1e6 / completions.max(1) as f64,
                format!("mean of {completions} completing ticks"),
            ),
            Metric::new(
                "stream.parallel.speedup",
                serial_ms / parallel_ms,
                format!(
                    "first {head} minutes, {head_folds} folds: {parallel_ms:.1} ms at {fanout} workers vs {serial_ms:.1} ms at 1"
                ),
            ),
            Metric::new("stream.window_bytes", traced.window_bytes as f64, ""),
            Metric::new("stream.peak_dirty", traced.stats.peak_dirty as f64, ""),
            Metric::new(
                "stream.late_backfilled",
                traced.stats.late_backfilled as f64,
                "",
            ),
            Metric::new("stream.shed", traced.stats.shed as f64, "must be 0"),
            overhead,
            Metric::new(
                "obs.layer_time_share",
                tracer.layer_time_share(),
                "last traced pass: time in layer spans ÷ time in the operation spans around them",
            ),
            Metric::new("obs.spans", tracer.spans().len() as f64, ""),
        ]);
        metrics.extend(kernels(&inp));
        tracer
            .write_json(&crate::out_dir().join("trace-stream_live.json"))
            .expect("write trace");
    } else {
        let passes = untraced_passes(seconds, &mut run);
        let pass = &passes.last;
        let floor = floor_profile(&passes.ms);
        let pass_s = floor.iter().sum::<f64>() / 1e3;
        let (quiet_ms, completion_ms): (Vec<_>, Vec<_>) = pass
            .ticks
            .iter()
            .zip(&floor)
            .partition(|(tick, _)| tick.completed.is_empty());
        let ms =
            |ticks: Vec<(&Tick, &f64)>| ticks.into_iter().map(|(_, ms)| *ms).collect::<Vec<_>>();
        let completion_ms = ms(completion_ms);
        metrics.push(Metric::new(
            WORK_PER_S,
            pass.folds() as f64 / pass_s,
            format!(
                "key_minutes_per_s: {} folds in {pass_s:.3} s, each tick's {}, {workers} workers",
                pass.folds(),
                passes.describe()
            ),
        ));
        metrics.extend(latency_metrics(&ms(quiet_ms), passes.ms.len(), "tick"));
        metrics.push(Metric::new(
            RESULT_MS,
            median(&completion_ms),
            format!(
                "completion_ms (minute arrives → assessment delivered): median of {} completing ticks",
                completion_ms.len()
            ),
        ));
    }
    Outcome {
        workload: "stream_live",
        seed,
        inputs: inp.fingerprint,
        verdicts,
        metrics,
    }
}

/// Kernel rows: the incremental SST fold and the ring writes, each alone,
/// over series of this workload's own world.
fn kernels(inp: &Inputs) -> Vec<Metric> {
    let series: Vec<Vec<f64>> = inp
        .world
        .all_keys()
        .iter()
        .step_by(16)
        .filter_map(|key| inp.world.series(key).ok())
        .map(|s| s.values().to_vec())
        .collect();
    let scorer = FastSst::new(FunnelConfig::paper_default().sst);
    let t0 = Instant::now();
    let mut folds = 0u64;
    for values in &series {
        let mut sst = StreamingSst::new(scorer.clone());
        for &v in values {
            std::hint::black_box(sst.fold(v));
            folds += 1;
        }
    }
    let fold_ns = t0.elapsed().as_nanos() as f64 / folds.max(1) as f64;

    let capacity = inp.minutes as usize;
    let rounds = 20;
    let t0 = Instant::now();
    let mut pushes = 0u64;
    for _ in 0..rounds {
        for values in &series {
            let mut ring = RingSeries::new(capacity);
            for (m, &v) in values.iter().enumerate() {
                std::hint::black_box(ring.push(m as u64, v));
                pushes += 1;
            }
        }
    }
    let push_ns = t0.elapsed().as_nanos() as f64 / pushes.max(1) as f64;

    // Backfill into rings that measured every fifth minute only.
    let mut backfill_ns_total = 0u128;
    let mut backfills = 0u64;
    for _ in 0..rounds {
        for values in &series {
            let mut ring = RingSeries::new(capacity);
            for (m, &v) in values.iter().enumerate().step_by(5) {
                ring.push(m as u64, v);
            }
            let t0 = Instant::now();
            for (m, &v) in values.iter().enumerate() {
                if m % 5 != 0 {
                    std::hint::black_box(ring.backfill(m as u64, v));
                    backfills += 1;
                }
            }
            backfill_ns_total += t0.elapsed().as_nanos();
        }
    }
    vec![
        Metric::new(
            "sst.stream.fold.ns",
            fold_ns,
            format!("{folds} folds, standalone"),
        ),
        Metric::new(
            "timeseries.ring.push.ns",
            push_ns,
            format!("{pushes} pushes, standalone"),
        ),
        Metric::new(
            "timeseries.ring.backfill.ns",
            backfill_ns_total as f64 / backfills.max(1) as f64,
            format!("{backfills} backfills, standalone"),
        ),
    ]
}
