//! `ingest_clean` and `ingest_heal`: agents → wire → collector → WAL →
//! store → checkpoints, then recovery from what was left on disk.
//!
//! The harness plays the agents: it encodes one frame per agent per data
//! minute, decides the arrival order (in order for `ingest_clean`, rewritten
//! by the seeded [`Script`] for `ingest_heal`) and hands the collector one
//! frame at a time, waiting for each to be committed — a closed loop with
//! one client, single-threaded because `Collector::commit` takes `&mut`.

use crate::fleet::{build_world, Fleet, SERVERS_PER_AGENT};
use crate::metrics::{latency_metrics, Metric, Outcome, Verdicts, RESULT_MS, WORK_PER_S};
use crate::speed::{at_reference_speed, Prober};
use crate::stats::{floor_profile, median, permille, Fnv};
use crate::trace::Tracer;
use crate::{scratch_dir, timed_setups, traced_passes, untraced_passes, PassTimes, Size};
use bytes::Bytes;
use funnel_resilience::{recover, DurableHooks, DurableOptions};
use funnel_sim::kpi::{Aggregation, KpiKey, KpiKind};
use funnel_sim::wire::{decode_frame, encode_frame, key_to_bytes, WireRecord};
use funnel_sim::world::World;
use funnel_sim::{Collector, IngestHooks, MetricStore};
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Data minutes between checkpoints (`cadence` = this × agents frames).
const CHECKPOINT_MINUTES: usize = 60;
/// The stream stops this many data minutes after the last checkpoint, so
/// recovery has a WAL tail to replay.
const TAIL_MINUTES: usize = 30;
/// WAL segments roll at this size (the crate's default is sized for tests).
const SEGMENT_LIMIT: u64 = 8 << 20;
/// Reorder horizon of `ingest_heal`: delays stay within it.
const HEAL_HORIZON: u64 = 3;
/// `recover()` calls timed after the measured passes.
const RECOVERIES: usize = 11;

/// What the transport does to one live frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Plain,
    /// Truncated in flight: undecodable, quarantined.
    Corrupt,
    /// Delivered twice in a row.
    Duplicate,
    /// Held back this many minutes (1–3, within the reorder horizon).
    Delay(u64),
}

/// The fault script of `ingest_heal` — a pure function of the seed: 40% of
/// the agents go dark for a quarter of the span and deliver the buffered
/// frames in one burst right after their first live frame (so the burst is
/// behind the agent's own watermark and takes `Ingest::Backfill`); of the
/// frames sent live 0.5% are corrupted, 2% duplicated, 5% delayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub seed: u64,
    pub dark: Vec<bool>,
    pub dark_from: u64,
    pub heal_at: u64,
}

impl Script {
    pub fn new(seed: u64, agents: usize, minutes: usize) -> Self {
        let mut ranked: Vec<(u64, usize)> = (0..agents)
            .map(|a| (permille(seed, 0xDA2C, a as u64, 0), a))
            .collect();
        ranked.sort_unstable();
        let mut dark = vec![false; agents];
        for &(_, a) in ranked.iter().take(agents * 2 / 5) {
            dark[a] = true;
        }
        // The seed picks which agents and frames are hit, never how many
        // or when: run-to-run spread should come from the machine.
        let dark_from = minutes as u64 / 6;
        Self {
            seed,
            dark,
            dark_from,
            heal_at: dark_from + minutes as u64 / 4,
        }
    }

    pub fn is_dark(&self, agent: usize, minute: u64) -> bool {
        self.dark[agent] && (self.dark_from..self.heal_at).contains(&minute)
    }

    pub fn fate(&self, agent: usize, minute: u64) -> Fate {
        // The first frame after a dark span stays plain: it is what moves
        // the agent's watermark past the buffered burst.
        if self.dark[agent] && minute == self.heal_at {
            return Fate::Plain;
        }
        let draw = permille(self.seed, 0xFA7E, agent as u64, minute);
        match draw {
            0..=4 => Fate::Corrupt,
            5..=24 => Fate::Duplicate,
            25..=74 => Fate::Delay(1 + draw % HEAL_HORIZON),
            _ => Fate::Plain,
        }
    }
}

/// How the collector is expected to classify the offered frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    pub live: u64,
    pub backfill: u64,
    pub duplicate: u64,
    pub quarantined: u64,
}

/// Everything one ingest workload hands the program.
pub struct Inputs {
    pub world: World,
    pub agents: usize,
    pub horizon: u64,
    /// Frames by arrival minute, in arrival order within the minute.
    pub arrivals: Vec<Vec<Bytes>>,
    /// Frames and records offered in one pass, corrupted ones included.
    pub frames: u64,
    pub records: u64,
    pub expected: Tallies,
    /// The value of every key at every minute, service aggregates included
    /// (summed in instance order, as the collector does).
    pub truth: BTreeMap<KpiKey, Vec<f64>>,
    pub fingerprint: u64,
    cadence: u64,
}

fn ingest_minutes(size: Size) -> usize {
    match size {
        Size::Full => 6 * CHECKPOINT_MINUTES + TAIL_MINUTES,
        Size::Smoke => CHECKPOINT_MINUTES + TAIL_MINUTES,
    }
}

/// Generates the world, the frames and (for `heal`) the arrival order.
pub fn generate(heal: bool, seed: u64, size: Size) -> Inputs {
    let fleet = size.big_fleet();
    let minutes = ingest_minutes(size);
    let world = build_world(&fleet, seed, minutes, &[]);
    let agents = fleet.agents();
    let truth = truth_values(&world, &fleet, minutes);

    let agent_keys: Vec<Vec<KpiKey>> = (0..agents)
        .map(|a| {
            let servers = a * SERVERS_PER_AGENT..((a + 1) * SERVERS_PER_AGENT).min(fleet.servers());
            servers
                .flat_map(|s| {
                    let server = KpiKind::SERVER_KINDS
                        .map(|kind| KpiKey::new(Entity::Server(ServerId(s as u32)), kind));
                    let instance = KpiKind::INSTANCE_KINDS
                        .map(|kind| KpiKey::new(Entity::Instance(InstanceId(s as u32)), kind));
                    server.into_iter().chain(instance)
                })
                .collect()
        })
        .collect();
    let frame = |agent: usize, minute: u64| {
        let records: Vec<WireRecord> = agent_keys[agent]
            .iter()
            .map(|key| WireRecord {
                key: *key,
                value: truth[key][minute as usize],
            })
            .collect();
        encode_frame(minute, agent as u32, &records)
    };

    let script = heal.then(|| Script::new(seed, agents, minutes));
    let mut arrivals: Vec<Vec<Bytes>> = vec![Vec::new(); minutes];
    // Delayed frames wait here: (release minute, agent, frame).
    let mut held: Vec<(u64, usize, Bytes)> = Vec::new();
    let mut backlog: Vec<Vec<Bytes>> = vec![Vec::new(); agents];
    let mut expected = Tallies::default();
    let last = minutes as u64 - 1;
    for minute in 0..minutes as u64 {
        let now = &mut arrivals[minute as usize];
        for (agent, backlog) in backlog.iter_mut().enumerate() {
            // Delayed frames are released ahead of the agent's live frame,
            // so a frame delayed by the whole horizon still lands before
            // its minute is finalised.
            let mut i = 0;
            while i < held.len() {
                if held[i].1 == agent && held[i].0 <= minute {
                    now.push(held.remove(i).2);
                    expected.live += 1;
                } else {
                    i += 1;
                }
            }
            let raw = frame(agent, minute);
            let Some(script) = &script else {
                now.push(raw);
                expected.live += 1;
                continue;
            };
            if script.is_dark(agent, minute) {
                backlog.push(raw);
                continue;
            }
            match script.fate(agent, minute) {
                // A delay that would outlast the span does not happen.
                Fate::Delay(d) if minute + d <= last => held.push((minute + d, agent, raw)),
                Fate::Plain | Fate::Delay(_) => {
                    now.push(raw);
                    expected.live += 1;
                }
                Fate::Corrupt => {
                    now.push(raw.slice(0..raw.len() - 5));
                    expected.quarantined += 1;
                }
                Fate::Duplicate => {
                    now.push(raw.clone());
                    now.push(raw);
                    expected.live += 1;
                    expected.duplicate += 1;
                }
            }
            for (age, buffered) in backlog.drain(..).enumerate() {
                let buffered_minute = script.dark_from + age as u64;
                if buffered_minute + HEAL_HORIZON < minute {
                    expected.backfill += 1;
                } else {
                    expected.live += 1;
                }
                now.push(buffered);
            }
        }
    }
    assert!(held.is_empty() && backlog.iter().all(Vec::is_empty));

    let mut fnv = Fnv::default();
    if let Some(script) = &script {
        fnv.u64(script.dark_from).u64(script.heal_at);
        for &d in &script.dark {
            fnv.u64(u64::from(d));
        }
    }
    let mut frames = 0u64;
    let mut records = 0u64;
    for batch in &arrivals {
        fnv.u64(batch.len() as u64);
        for raw in batch {
            fnv.bytes(raw);
            frames += 1;
            records += (raw.len().saturating_sub(16) / 14) as u64;
        }
    }
    Inputs {
        world,
        agents,
        horizon: if heal { HEAL_HORIZON } else { 0 },
        arrivals,
        frames,
        records,
        expected,
        truth,
        fingerprint: fnv.finish(),
        cadence: (CHECKPOINT_MINUTES * agents) as u64,
    }
}

/// Every key's series, generated from the world; service aggregates are
/// the harness's own: instance values summed in instance-id order, divided
/// by the instance count for mean-aggregated kinds.
fn truth_values(world: &World, fleet: &Fleet, minutes: usize) -> BTreeMap<KpiKey, Vec<f64>> {
    let mut truth = BTreeMap::new();
    for key in world.all_keys() {
        if !matches!(key.entity, Entity::Service(_)) {
            let series = world.series(&key).expect("key of this world");
            truth.insert(key, series.values().to_vec());
        }
    }
    for s in 0..fleet.services {
        for kind in KpiKind::INSTANCE_KINDS {
            let members: Vec<&Vec<f64>> = (s * fleet.instances..(s + 1) * fleet.instances)
                .map(|i| &truth[&KpiKey::new(Entity::Instance(InstanceId(i as u32)), kind)])
                .collect();
            let values = (0..minutes)
                .map(|m| {
                    let sum: f64 = members.iter().map(|v| v[m]).sum();
                    match kind.aggregation() {
                        Aggregation::Sum => sum,
                        Aggregation::Mean => sum / members.len() as f64,
                    }
                })
                .collect();
            truth.insert(
                KpiKey::new(Entity::Service(ServiceId(s as u32)), kind),
                values,
            );
        }
    }
    truth
}

/// Content hash of a store: every key with its anchor, values and
/// measured-minute bits, in key order.
pub fn store_fingerprint(store: &MetricStore) -> u64 {
    let mut fnv = Fnv::default();
    for (key, series, mask) in store.export_entries() {
        fnv.bytes(&key_to_bytes(key)).u64(series.start());
        for &v in series.values() {
            fnv.f64(v);
        }
        for &bit in mask.bits() {
            fnv.bytes(&[u8::from(bit)]);
        }
    }
    fnv.finish()
}

/// [`store_fingerprint`] of the store a loss-free ingest must produce.
fn truth_fingerprint(truth: &BTreeMap<KpiKey, Vec<f64>>) -> u64 {
    let mut fnv = Fnv::default();
    for (key, values) in truth {
        fnv.bytes(&key_to_bytes(*key)).u64(0);
        for &v in values {
            fnv.f64(v);
        }
        for _ in values {
            fnv.bytes(&[1]);
        }
    }
    fnv.finish()
}

/// One durable ingest of the first `minutes` arrival minutes.
pub struct Pass {
    pub wall_s: f64,
    /// Per arrival minute: first frame handed over → last frame's
    /// `after_commit` returned.
    pub minute_ms: Vec<f64>,
    /// End-of-stream marker + `finish` (pending flush, backfill flush).
    pub finish_ms: f64,
    /// The probe before each data minute, before the end of the stream and
    /// after it.
    pub probes: Vec<f64>,
    pub tallies: Tallies,
    /// [`store_fingerprint`] of the store the pass filled.
    pub store_hash: u64,
    /// Resident-set growth from the first frame to `finish` returning,
    /// the store still alive. Only the first pass of a process grows the
    /// heap; later ones refill what it freed.
    pub rss_growth: f64,
}

impl PassTimes for Pass {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Every data minute, then the end of the stream.
    fn ops_ms(&self) -> Vec<f64> {
        let mut ops = self.minute_ms.clone();
        ops.push(self.finish_ms);
        ops
    }

    fn probes(&self) -> &[f64] {
        &self.probes
    }
}

fn durable_options(inp: &Inputs, dir: &Path) -> DurableOptions {
    let mut options = DurableOptions::at(dir);
    options.cadence = inp.cadence;
    options.segment_limit = SEGMENT_LIMIT;
    options
}

/// Runs classify → WAL → commit → checkpoint seam for every frame, then
/// end-of-stream and `finish`, leaving WAL and checkpoints under `dir`.
/// Whatever an earlier pass left under `dir` is removed first, so every
/// pass starts on the disk and memory state its predecessor started on.
pub fn run_pass(inp: &Inputs, dir: &Path, prober: &Prober, tr: &mut Tracer) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let options = durable_options(inp, dir);
    let store = MetricStore::new();
    let mut hooks = DurableHooks::create(&options).expect("create WAL and checkpoint dirs");
    let mut minute_ms = Vec::with_capacity(inp.arrivals.len());
    let mut probes = Vec::with_capacity(inp.arrivals.len() + 2);
    let finish_ms;
    let rss_before = resident_bytes();
    let started = Instant::now();
    let tallies = {
        let mut collector = Collector::for_world(&inp.world, &store, inp.agents, inp.horizon);
        for (minute, batch) in inp.arrivals.iter().enumerate() {
            let op = minute as u64;
            probes.push(prober.probe());
            let t0 = Instant::now();
            let op_span = tr.begin("op.minute", op);
            for raw in batch {
                let s = tr.begin("collector.classify", op);
                let ingest = collector.classify(raw);
                tr.end(s);
                let accepted = ingest.accepted();
                if accepted {
                    let s = tr.begin("resilience.wal.append", op);
                    hooks.on_accepted_frame(raw).expect("WAL append");
                    tr.end(s);
                }
                let s = tr.begin("collector.commit", op);
                collector.commit(ingest);
                tr.end(s);
                if accepted {
                    let s = tr.begin("resilience.after_commit", op);
                    hooks.after_commit(&collector).expect("checkpoint write");
                    tr.end(s);
                    if hooks.frames().is_multiple_of(inp.cadence) {
                        tr.rename(s, "resilience.checkpoint.write");
                    }
                }
            }
            tr.end(op_span);
            minute_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let op = inp.arrivals.len() as u64;
        probes.push(prober.probe());
        let t0 = Instant::now();
        let op_span = tr.begin("op.end_of_stream", op);
        let s = tr.begin("resilience.end_of_stream", op);
        hooks.on_end_of_stream(&collector).expect("WAL end marker");
        tr.end(s);
        let s = tr.begin("collector.finish", op);
        collector.finish();
        tr.end(s);
        tr.end(op_span);
        finish_ms = t0.elapsed().as_secs_f64() * 1e3;
        probes.push(prober.probe());
        let stats = collector.stats();
        Tallies {
            live: (stats.frames - stats.backfilled_frames) as u64,
            backfill: stats.backfilled_frames as u64,
            duplicate: stats.duplicate_frames as u64,
            quarantined: stats.quarantined_frames as u64,
        }
    };
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        rss_growth: (resident_bytes() - rss_before).max(0.0),
        minute_ms,
        finish_ms,
        probes,
        tallies,
        store_hash: store_fingerprint(&store),
    }
}

fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut largest = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for len in entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
        {
            total += len;
            largest = largest.max(len);
        }
    }
    (total, largest)
}

/// Resident set size in bytes, 0 where `/proc` does not say.
fn resident_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0)
}

/// Runs `ingest_clean` (`heal == false`) or `ingest_heal`.
pub fn run(heal: bool, seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let workload = if heal { "ingest_heal" } else { "ingest_clean" };
    // One client, one thread: the probe runs on the caller's alone.
    let prober = Prober::new(1);
    let (inp, setup_s) = timed_setups(trace, &prober, || generate(heal, seed, size));
    let minutes = inp.arrivals.len();
    let scratch = scratch_dir(workload);
    let mut verdicts = Verdicts::default();
    let mut metrics = vec![Metric::new(
        crate::metrics::SETUP_S,
        setup_s,
        "world + frames + arrival order, median of the set-ups at reference speed",
    )];

    // Every pass runs in the same directory. Warm-up: one whole pass,
    // untimed, so the first timed pass finds the heap and the page cache
    // as the later ones do. It builds the first store of the process (the
    // allocator holds freed memory, so a later one would grow nothing):
    // its resident-set growth is `store.resident_bytes_per_record`.
    let dir = scratch.path().join("pass");
    let warm = run_pass(&inp, &dir, &prober, &mut Tracer::new(false));

    // The store every pass and every recovery must reproduce: for the clean
    // stream the harness's own truth, for the healed one an untimed pass of
    // the same arrivals through `Collector::ingest` + `finish`.
    let expected_store = if heal {
        let store = MetricStore::new();
        let mut collector = Collector::for_world(&inp.world, &store, inp.agents, inp.horizon);
        for raw in inp.arrivals.iter().flatten() {
            collector.ingest(raw);
        }
        collector.finish();
        store_fingerprint(&store)
    } else {
        truth_fingerprint(&inp.truth)
    };
    let check_pass = |pass: &Pass, verdicts: &mut Verdicts, what: &str| {
        let got = pass.store_hash;
        verdicts.check(got == expected_store, inp.frames, || {
            format!("{what}: store {got:016x}, expected {expected_store:016x}")
        });
        verdicts.check(pass.tallies == inp.expected, 1, || {
            format!(
                "{what}: tallies {:?}, expected {:?}",
                pass.tallies, inp.expected
            )
        });
    };

    let mut run = |tracer: &mut Tracer, what: &str| {
        let pass = run_pass(&inp, &dir, &prober, tracer);
        check_pass(&pass, &mut verdicts, what);
        pass
    };
    let mut tracer = Tracer::new(false);
    if trace {
        let passes = traced_passes(seconds, &mut run);
        let overhead = passes.overhead();
        let (layers, traced) = (passes.layers, passes.last);
        tracer = passes.tracer;
        let frames = inp.frames as f64;
        let records = inp.records as f64;
        let accepted = (traced.tallies.live + traced.tallies.backfill) as f64;
        let options = durable_options(&inp, &dir);
        let checkpoints = tracer.count("resilience.checkpoint.write");
        metrics.extend([
            Metric::new(
                "collector.classify.us_per_frame",
                layers.total_ns("collector.classify") / 1e3 / frames,
                format!("{frames} frames"),
            ),
            Metric::new(
                "collector.commit.ns_per_record",
                layers.total_ns("collector.commit") / records,
                format!("{records} records offered"),
            ),
            Metric::new(
                "collector.finish.ms",
                layers.total_ns("collector.finish") / 1e6,
                "pending flush + backfill flush",
            ),
            Metric::new("collector.frames.live", traced.tallies.live as f64, ""),
            Metric::new(
                "collector.frames.backfill",
                traced.tallies.backfill as f64,
                "",
            ),
            Metric::new(
                "collector.frames.duplicate",
                traced.tallies.duplicate as f64,
                "",
            ),
            Metric::new(
                "collector.frames.quarantined",
                traced.tallies.quarantined as f64,
                "",
            ),
            Metric::new(
                "store.resident_bytes_per_record",
                warm.rss_growth / records,
                "RSS growth over the warm-up pass; 0 if an earlier run of this process grew the heap",
            ),
            Metric::new(
                "resilience.wal.append.us_per_frame",
                layers.total_ns("resilience.wal.append") / 1e3 / accepted,
                format!("{accepted} accepted frames"),
            ),
            Metric::new(
                "resilience.wal.bytes",
                dir_bytes(&options.wal_dir).0 as f64,
                "",
            ),
            Metric::new(
                "resilience.checkpoint.write.ms",
                layers.total_ns("resilience.checkpoint.write") / 1e6 / checkpoints.max(1) as f64,
                format!("mean of {checkpoints}"),
            ),
            Metric::new("resilience.checkpoint.count", checkpoints as f64, ""),
            Metric::new(
                "resilience.checkpoint.bytes",
                dir_bytes(&options.checkpoint_dir).1 as f64,
                "newest checkpoint file",
            ),
            overhead,
            Metric::new(
                "obs.layer_time_share",
                tracer.layer_time_share(),
                "last traced pass: time in layer spans ÷ time in the operation spans around them",
            ),
        ]);
        metrics.extend(kernels(&inp));
    } else {
        let passes = untraced_passes(seconds, &mut run);
        let floor = floor_profile(&passes.ms);
        let pass_s = floor.iter().sum::<f64>() / 1e3;
        metrics.push(Metric::new(
            WORK_PER_S,
            inp.records as f64 / pass_s,
            format!(
                "records_per_s: {} records in {pass_s:.3} s, each data minute's {}",
                inp.records,
                passes.describe(),
            ),
        ));
        metrics.extend(latency_metrics(
            &floor[..minutes],
            passes.ms.len(),
            "minute_commit",
        ));
    }

    // Recovery from what the last pass left on disk.
    let options = durable_options(&inp, &dir);
    let mut recover_ms = Vec::new();
    let mut recover_probes = vec![prober.probe()];
    let mut replayed = 0;
    for n in 0..RECOVERIES {
        let t0 = Instant::now();
        let s = tracer.begin("resilience.recover", n as u64);
        let recovered =
            recover(&inp.world, inp.agents, inp.horizon, &options).expect("recover from disk");
        tracer.end(s);
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        recover_probes.push(prober.probe());
        replayed = recovered.frames_replayed;
        let got = store_fingerprint(&recovered.store);
        verdicts.check(got == expected_store && recovered.end_of_stream, 1, || {
            format!("recover {n}: store {got:016x}, expected {expected_store:016x}")
        });
    }
    if trace {
        metrics.push(Metric::new(
            "resilience.recover.ms",
            median(&recover_ms),
            format!("median of {RECOVERIES}"),
        ));
        metrics.push(Metric::new(
            "resilience.recover.frames_replayed",
            replayed as f64,
            "",
        ));
        metrics.push(Metric::new("obs.spans", tracer.spans().len() as f64, ""));
        tracer
            .write_json(&crate::out_dir().join(format!("trace-{workload}.json")))
            .expect("write trace");
    } else {
        metrics.push(Metric::new(
            RESULT_MS,
            median(&at_reference_speed(&recover_ms, &recover_probes)),
            format!(
                "recover_ms: median of {RECOVERIES} at reference speed ({:.1} ms as timed), {replayed} frames replayed",
                median(&recover_ms)
            ),
        ));
    }
    Outcome {
        workload,
        seed,
        inputs: inp.fingerprint,
        verdicts,
        metrics,
    }
}

/// Kernel rows: each layer's inner call timed alone over this workload's
/// own frames and values.
fn kernels(inp: &Inputs) -> Vec<Metric> {
    let frames: Vec<&Bytes> = inp.arrivals.iter().flatten().collect();
    let t0 = Instant::now();
    let mut decoded = 0u64;
    for raw in &frames {
        if let Ok(frame) = decode_frame((*raw).clone()) {
            decoded += std::hint::black_box(frame).records.len() as u64;
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / decoded.max(1) as f64;

    // The append order of a loss-free ingest: minute by minute, key by key.
    let minutes = inp.arrivals.len();
    let store = MetricStore::new();
    let t0 = Instant::now();
    for m in 0..minutes {
        for (key, values) in &inp.truth {
            store.append(*key, m as u64, values[m]);
        }
    }
    let appended = (minutes * inp.truth.len()) as f64;
    let append_ns = t0.elapsed().as_nanos() as f64 / appended;

    // Backfill into the gaps a dark quarter leaves: every key measured at
    // the first and last minute only of the middle half of the span.
    let (lo, hi) = (minutes / 4, minutes * 3 / 4);
    let store = MetricStore::new();
    for (key, values) in &inp.truth {
        store.append(*key, lo as u64, values[lo]);
        store.append(*key, hi as u64, values[hi]);
    }
    let t0 = Instant::now();
    for m in lo + 1..hi {
        for (key, values) in &inp.truth {
            std::hint::black_box(store.backfill(*key, m as u64, values[m]));
        }
    }
    let backfilled = ((hi - lo - 1) * inp.truth.len()).max(1) as f64;
    let backfill_ns = t0.elapsed().as_nanos() as f64 / backfilled;
    vec![
        Metric::new(
            "wire.decode.ns_per_record",
            decode_ns,
            format!("{decoded} records, standalone"),
        ),
        Metric::new(
            "store.append.ns_per_record",
            append_ns,
            format!("{appended} appends into a fresh store"),
        ),
        Metric::new(
            "store.backfill.ns_per_record",
            backfill_ns,
            format!("{backfilled} backfills into a gapped store"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        let a = Script::new(7, 20, 90);
        assert_eq!(a, Script::new(7, 20, 90));
        assert_ne!(a, Script::new(8, 20, 90));
        assert_eq!(a.dark.iter().filter(|d| **d).count(), 8);
        assert!(a.heal_at < 90 && a.dark_from >= 11);
        let fates: Vec<Fate> = (0..90).map(|m| a.fate(3, m)).collect();
        assert_eq!(fates, (0..90).map(|m| a.fate(3, m)).collect::<Vec<_>>());
    }

    #[test]
    fn generated_inputs_repeat_per_seed() {
        let a = generate(true, 7, Size::Smoke);
        let b = generate(true, 7, Size::Smoke);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.fingerprint, generate(true, 8, Size::Smoke).fingerprint);
        assert!(a.expected.backfill > 0 && a.expected.duplicate > 0);
        assert!(a.expected.quarantined > 0);
    }
}
