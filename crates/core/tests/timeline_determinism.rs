//! The windowed telemetry artifacts are deterministic, and the
//! self-monitor that reads them is both sensitive and quiet.
//!
//! * **Byte identity per configuration** — under the `SimClock`, running
//!   the same assessment twice yields byte-identical
//!   `obs_timeline.json` and `trace.json` documents, at every worker
//!   count.
//! * **Worker invariance** — the worker-invariant slice of the timeline
//!   (verdict counters, work-unit totals, control-cache hits and misses,
//!   detect/DiD spans, the detector's change points and screened/scored/
//!   dropped window counts, DiD pool sizes) is byte-identical across 1, 3,
//!   and 8 workers. (The
//!   full document cannot be: `assess.workers` and the per-worker spans
//!   genuinely depend on the pool size.)
//! * **Streaming vs. batch** — the per-window verdict counters agree
//!   between the streaming engine and the batch pipeline on the same
//!   feed: both attribute verdicts to the change's own minute.
//! * **Interleaving invariance** — the collector's per-minute series are
//!   attributed by each frame's own data minute, so the nondeterministic
//!   cross-shard arrival order at the collector cannot move them: two
//!   3-shard replays produce byte-identical documents. (Counts scale
//!   with the shard count itself — each shard sends one frame per
//!   minute — so different shard counts are different workloads.)
//! * **Self-monitoring** — `run_selfmon` over a partitioned replay's own
//!   telemetry flags the ingest collapse near the injected minute (true
//!   positive), while the clean replay stays healthy (zero false
//!   positives).
//!
//! One `#[test]` runs the whole matrix: the recording flag, registry,
//! window cursor, and sim clock are process-global.

use funnel_core::pipeline::Funnel;
use funnel_core::selfmon::run_selfmon;
use funnel_core::{FunnelConfig, StreamConfig, StreamEngine};
use funnel_obs::clock::SimClock;
use funnel_obs::timeline::TimelineReport;
use funnel_obs::trace::chrome_trace_json;
use funnel_sim::agent::replay_with_faults;
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_sim::kpi::KpiKind;
use funnel_sim::live::LiveFeed;
use funnel_sim::store::MetricStore;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sst::SstConfig;
use funnel_topology::change::{ChangeId, ChangeKind};
use std::collections::BTreeMap;

/// Timeline prefixes that must not depend on the worker count: per-window
/// verdicts, work-unit totals and queue depth, the control-cache counters
/// (one shared table per assessment builds each group once at any pool
/// size), the detection and DiD stages (their spans parent on
/// `assess.item` in serial and parallel mode alike; which windows a
/// detector run screens, scores and drops is a function of the item's data
/// alone), and everything from the collector.
const WORKER_INVARIANT: &[&str] = &[
    "collector.",
    "assess.verdict_",
    "assess.control_cache_",
    "assess.work_units_total",
    "assess.work_queue_depth",
    "detect.",
    "did.",
];

fn shifted_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(17, 8));
    let svc = b.add_service("prod.timeline", 6).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        85.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 200, effect, "t")
        .unwrap();
    (b.build(), id)
}

/// Runs one batch assessment with a fresh registry and returns the
/// timeline snapshot (recording stays enabled).
fn assessed_timeline(world: &World, change: ChangeId, workers: usize) -> TimelineReport {
    funnel_obs::reset();
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    Funnel::new(config).assess_change(world, change).unwrap();
    funnel_obs::timeline_snapshot()
}

/// A compact world for the streaming leg (quick SST keeps the replay
/// fast).
fn streamed_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 5,
        start: 0,
        duration: 2880,
    });
    let svc = b.add_service("prod.timeline.stream", 3).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        9.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 1700, effect, "t")
        .unwrap();
    (b.build(), id)
}

fn quick_config() -> FunnelConfig {
    let mut c = FunnelConfig::paper_default();
    c.sst = SstConfig::quick();
    c
}

fn stream_timeline(world: &World, change: ChangeId, feed: &LiveFeed) -> TimelineReport {
    funnel_obs::reset();
    let config = quick_config();
    let mut stream_cfg = StreamConfig::paired_with(&config);
    stream_cfg.ring_capacity = StreamConfig::capacity_for(&config, 2880);
    let kinds: BTreeMap<_, _> = world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect();
    let record = world.change_log().get(change).unwrap().clone();
    let mut engine = StreamEngine::new(config, stream_cfg, kinds);
    engine.track_change(world.topology(), record).unwrap();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        engine.tick(minute);
    }
    funnel_obs::timeline_snapshot()
}

fn batch_feed_timeline(world: &World, change: ChangeId, feed: &LiveFeed) -> TimelineReport {
    funnel_obs::reset();
    let store = MetricStore::new();
    for (_, batch) in feed.arrivals() {
        for m in batch {
            store.append(m.key, m.minute, m.value);
        }
    }
    let record = world.change_log().get(change).unwrap().clone();
    let kinds: BTreeMap<_, _> = world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect();
    Funnel::new(quick_config())
        .assess_change_with(&store.snapshot(), world.topology(), &record, &|svc| {
            kinds.get(&svc).cloned().unwrap_or_default()
        })
        .unwrap();
    funnel_obs::timeline_snapshot()
}

/// A plain fleet world (no change needed — the chaos leg watches the
/// collector, not an assessment).
fn fleet_world() -> World {
    let mut b = WorldBuilder::new(SimConfig::days(11, 2));
    b.add_service("prod.fleet", 4).unwrap();
    b.build()
}

fn replayed_timeline(world: &World, shards: usize, faults: FaultPlan) -> TimelineReport {
    funnel_obs::reset();
    let store = MetricStore::new();
    replay_with_faults(world, &store, shards, faults).unwrap();
    funnel_obs::timeline_snapshot()
}

const PARTITION_START: u64 = 1700;
const PARTITION_MINUTES: u64 = 180;

fn partition_plan() -> FaultPlan {
    FaultPlan::none().with_partition(PartitionWindow {
        scope: PartitionScope::Collector,
        start: PARTITION_START,
        duration: PARTITION_MINUTES,
        heal: HealMode::SilentDrop,
    })
}

#[test]
fn timeline_and_trace_are_deterministic_and_selfmon_sees_faults() {
    // Span durations under the sim clock are a pure function of the code
    // path (all zero here — the clock never advances), which is what makes
    // full-document byte identity possible.
    SimClock::install();
    let (world, change) = shifted_world();

    // ── Recording off: the timeline stays empty and writes cost nothing.
    funnel_obs::disable();
    funnel_obs::reset();
    Funnel::paper_default()
        .assess_change(&world, change)
        .unwrap();
    assert!(
        funnel_obs::timeline_snapshot().is_empty(),
        "disabled recorder must leave the timeline empty"
    );

    // ── Recording on: byte identity per config, invariance across them.
    funnel_obs::enable();
    let mut restricted = Vec::new();
    let mut window_counts = Vec::new();
    for workers in [1usize, 3, 8] {
        let first = assessed_timeline(&world, change, workers);
        let second = assessed_timeline(&world, change, workers);
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "workers={workers}: timeline bytes moved between identical runs"
        );
        assert_eq!(
            chrome_trace_json(&first),
            chrome_trace_json(&second),
            "workers={workers}: trace bytes moved between identical runs"
        );
        assert!(first.records() > 0, "workers={workers}: nothing recorded");
        let slice = first.restrict_to(WORKER_INVARIANT);
        assert!(
            !slice.is_empty(),
            "workers={workers}: invariant slice is empty"
        );
        // Change points (the cursor's window) and DiD pool sizes (the
        // change minute) ride in the slice compared across worker counts.
        assert!(
            !slice
                .counter_series(funnel_obs::names::DETECT_CHANGE_POINTS.as_str())
                .is_empty()
                && slice
                    .histograms
                    .keys()
                    .any(|(name, _)| *name == funnel_obs::names::DID_CONTROL_POOL_SIZE.as_str()),
            "workers={workers}: detect.change_points or did.control_pool_size missing"
        );
        window_counts.push([
            slice.counter_series(funnel_obs::names::DETECT_WINDOWS_SCREENED.as_str()),
            slice.counter_series(funnel_obs::names::DETECT_WINDOWS_SCORED.as_str()),
            slice.counter_series(funnel_obs::names::DETECT_WINDOWS_DROPPED.as_str()),
        ]);
        restricted.push((workers, slice.to_json(), chrome_trace_json(&slice)));
    }
    // The deferred detector's tally, written once per run: present, doing
    // its job (most windows never reach the kernel), equal at 1/3/8.
    let total = |series: &[(u64, u64)]| series.iter().map(|&(_, n)| n).sum::<u64>();
    let [screened, scored, dropped] = window_counts[0].each_ref().map(|s| total(s));
    assert!(
        scored > 0 && screened + dropped > scored,
        "window tally: {screened} screened, {scored} scored, {dropped} dropped"
    );
    assert!(
        window_counts
            .iter()
            .all(|counts| counts == &window_counts[0]),
        "detect.windows.* moved with the worker count: {window_counts:?}"
    );
    for (workers, timeline, trace) in &restricted[1..] {
        assert_eq!(
            &restricted[0].1, timeline,
            "invariant timeline slice diverged between 1 and {workers} workers"
        );
        assert_eq!(
            &restricted[0].2, trace,
            "invariant trace slice diverged between 1 and {workers} workers"
        );
    }

    // ── Streaming vs. batch: both paths put every verdict in the change's
    // own minute window.
    let (stream_world, stream_change) = streamed_world();
    let feed = LiveFeed::from_store(&stream_world.materialize().unwrap());
    let streamed = stream_timeline(&stream_world, stream_change, &feed);
    let batched = batch_feed_timeline(&stream_world, stream_change, &feed);
    let stream_verdicts = streamed.restrict_to(&["assess.verdict_"]);
    assert!(
        !stream_verdicts.is_empty(),
        "streaming run recorded no verdict windows"
    );
    assert_eq!(
        stream_verdicts.to_json(),
        batched.restrict_to(&["assess.verdict_"]).to_json(),
        "streaming and batch verdict timelines diverged"
    );

    // ── Collector replay: frame-minute attribution makes the document
    // immune to the nondeterministic cross-shard arrival interleaving.
    let fleet = fleet_world();
    let clean = replayed_timeline(&fleet, 3, FaultPlan::none());
    let clean_again = replayed_timeline(&fleet, 3, FaultPlan::none());
    let collector_slice = clean.restrict_to(&["collector."]);
    assert!(
        collector_slice.windows() > 100,
        "replay should spread ingest over the whole timeline, got {} windows",
        collector_slice.windows()
    );
    assert_eq!(
        clean.to_json(),
        clean_again.to_json(),
        "collector timeline diverged between identical 3-shard replays"
    );

    // ── FUNNEL watches FUNNEL: the clean replay is healthy, the
    // partitioned replay's ingest collapse is declared near the fault.
    let clean_health = run_selfmon(&clean);
    assert!(
        clean_health.healthy(),
        "false positive on a clean replay: {clean_health:?}"
    );

    let faulted = replayed_timeline(&fleet, 3, partition_plan());
    let faulted_health = run_selfmon(&faulted);
    assert!(
        !faulted_health.healthy(),
        "partition went undetected: {faulted_health:?}"
    );
    let ingest = faulted_health
        .series
        .iter()
        .find(|s| s.name == funnel_obs::names::FRAMES_INGESTED.as_str())
        .unwrap();
    assert!(
        !ingest.alerts.is_empty(),
        "ingest collapse must alert: {faulted_health:?}"
    );
    let alert = &ingest.alerts[0];
    assert!(
        alert.first_exceeded_at >= PARTITION_START.saturating_sub(40)
            && alert.first_exceeded_at <= PARTITION_START + PARTITION_MINUTES + 40,
        "alert should bracket the partition window: {alert:?}"
    );
    // And the verdict is reproducible down to the byte.
    assert_eq!(
        faulted_health.to_json(),
        run_selfmon(&replayed_timeline(&fleet, 3, partition_plan())).to_json(),
        "self-monitor verdict moved between identical faulted replays"
    );

    funnel_obs::disable();
    funnel_obs::reset();
    SimClock::uninstall();
}
