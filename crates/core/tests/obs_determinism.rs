//! Observability is write-only: recording on or off, at any worker count,
//! the assessment bytes never move.
//!
//! This is the obs counterpart of `parallel_determinism.rs` — the whole
//! matrix {obs off, obs on} × {1, 3, 8 workers} must produce one
//! fingerprint (debug form + rendered operator report). A single `#[test]`
//! runs the whole matrix because the recording flag and registry are
//! process-global; splitting it across tests would race under the parallel
//! test runner.

mod poisoned;

use funnel_core::pipeline::{ChangeAssessment, Funnel};
use funnel_core::report::render;
use funnel_core::{FunnelConfig, StreamConfig, StreamEngine};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::KpiKind;
use funnel_sim::live::LiveFeed;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sst::SstConfig;
use funnel_topology::change::{ChangeId, ChangeKind};
use poisoned::Poisoned;

fn shifted_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(17, 8));
    let svc = b.add_service("prod.obs", 6).unwrap();
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

fn fingerprint(world: &World, assessment: &ChangeAssessment) -> String {
    format!("{assessment:?}\n{}", render(world.topology(), assessment))
}

/// How many items came back `Caused` or `NotCaused`.
fn firm_verdicts(assessment: &ChangeAssessment) -> u64 {
    let inconclusive = assessment.inconclusive_items().count();
    (assessment.items.len() - inconclusive) as u64
}

/// The two verdict counters, summed.
fn verdict_counts(report: &funnel_obs::report::ObsReport) -> u64 {
    [
        funnel_obs::names::VERDICT_CAUSED,
        funnel_obs::names::VERDICT_NOT_CAUSED,
    ]
    .iter()
    .map(|name| report.counters.get(name.as_str()).copied().unwrap_or(0))
    .sum()
}

fn assess(world: &World, change: ChangeId, workers: usize) -> ChangeAssessment {
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    Funnel::new(config).assess_change(world, change).unwrap()
}

#[test]
fn recording_never_changes_assessment_bytes() {
    let (world, change) = shifted_world();

    funnel_obs::disable();
    funnel_obs::reset();
    let baseline_assessment = assess(&world, change, 1);
    let items = baseline_assessment.items.len() as u64;
    let firm = firm_verdicts(&baseline_assessment);
    let baseline = fingerprint(&world, &baseline_assessment);
    for workers in [3, 8] {
        assert_eq!(
            baseline,
            fingerprint(&world, &assess(&world, change, workers)),
            "obs off: diverged at {workers} workers"
        );
    }
    let silent = funnel_obs::snapshot();
    assert!(
        silent.counters.is_empty() && silent.spans.is_empty(),
        "disabled recorder must record nothing"
    );

    funnel_obs::enable();
    for workers in [1, 3, 8] {
        funnel_obs::reset();
        assert_eq!(
            baseline,
            fingerprint(&world, &assess(&world, change, workers)),
            "obs on: diverged at {workers} workers"
        );
        // The instrumentation genuinely ran — and its own aggregate is
        // order-insensitive: verdict counters, work-unit totals, and span
        // call counts are the same at every worker count.
        let report = funnel_obs::snapshot();
        assert_eq!(
            verdict_counts(&report),
            firm,
            "obs on ({workers} workers): verdict counters must cover every firm item"
        );
        assert_eq!(
            report.gauges[funnel_obs::names::WORK_UNITS_TOTAL.as_str()],
            items,
            "obs on ({workers} workers): work-unit gauge"
        );
        assert_eq!(
            report.spans[funnel_obs::names::SPAN_ASSESS_ITEM.as_str()].count,
            items,
            "obs on ({workers} workers): item span count"
        );
        // What recording costs is a count before it is a time: the write
        // path runs this many times for this world's 17 work units, at any
        // worker count. A change that moves it changed the telemetry bill
        // (`obs.trace_overhead_pct` in the ledger prices it); re-record on
        // purpose. 73 → 95 (+22) when every write came to name a window:
        // the two writes that had been aggregate-only now count, one
        // `detect.change_points` per detector run (17) and one
        // `did.control_pool_size` per DiD contrast (5).
        assert_eq!(
            (
                items,
                report.counters[funnel_obs::names::TIMELINE_RECORDS.as_str()]
            ),
            (17, 95),
            "obs on ({workers} workers): telemetry writes per assessment"
        );
    }

    // A poisoned unit honours the same invariant: over a source whose one
    // treated-server series panics, the fan-out quarantines that unit, and
    // the delivery it makes is one fingerprint at {off, on} × {1, 3, 8}.
    // The quarantined item is `Inconclusive`, which no counter counts.
    let record = world.change_log().get(change).unwrap();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let source = Poisoned {
        inner: &world,
        key: poisoned::server_key(&baseline_assessment.items),
    };
    let poisoned_run = |workers: usize| {
        let mut config = FunnelConfig::paper_default();
        config.assess.workers = workers;
        let assessment = Funnel::new(config)
            .assess_change_with(&source, world.topology(), record, &kinds)
            .unwrap();
        (fingerprint(&world, &assessment), firm_verdicts(&assessment))
    };

    funnel_obs::disable();
    funnel_obs::reset();
    let poisoned_baseline = poisoned_run(1);
    assert_ne!(baseline, poisoned_baseline.0, "the poison never fired");
    for workers in [3, 8] {
        assert_eq!(
            poisoned_baseline,
            poisoned_run(workers),
            "obs off: poisoned run diverged at {workers} workers"
        );
    }

    funnel_obs::enable();
    for workers in [1, 3, 8] {
        funnel_obs::reset();
        assert_eq!(
            poisoned_baseline,
            poisoned_run(workers),
            "obs on: poisoned run diverged at {workers} workers"
        );
        let report = funnel_obs::snapshot();
        assert_eq!(
            verdict_counts(&report),
            poisoned_baseline.1,
            "obs on ({workers} workers): every firm item counted once, the quarantined one never"
        );
    }

    // The streaming engine closes the matrix: ticking the same feed
    // through `StreamEngine` with recording {off, on} × {1, 3, 8} workers
    // produces one fingerprint of completed assessments and engine stats.
    let (stream_world, stream_change) = streamed_world();
    let feed = LiveFeed::from_store(&stream_world.materialize().unwrap());

    funnel_obs::disable();
    funnel_obs::reset();
    let stream_baseline = stream_fingerprint(&stream_world, stream_change, &feed, 1);
    for workers in [3, 8] {
        assert_eq!(
            stream_baseline,
            stream_fingerprint(&stream_world, stream_change, &feed, workers),
            "obs off: streaming diverged at {workers} workers"
        );
    }

    funnel_obs::enable();
    for workers in [1, 3, 8] {
        funnel_obs::reset();
        assert_eq!(
            stream_baseline,
            stream_fingerprint(&stream_world, stream_change, &feed, workers),
            "obs on: streaming diverged at {workers} workers"
        );
        // Streaming instrumentation genuinely ran, and its aggregate is
        // order-insensitive: the tick span's call count doesn't depend on
        // workers.
        let report = funnel_obs::snapshot();
        assert_eq!(
            report.spans[funnel_obs::names::SPAN_STREAM_TICK.as_str()].count,
            feed.arrivals().count() as u64,
            "obs on ({workers} workers): tick span count"
        );
    }

    funnel_obs::disable();
    funnel_obs::reset();
}

/// A compact shifted world for the streaming leg (quick SST keeps the
/// tick-by-tick replay fast enough to run six times).
fn streamed_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 5,
        start: 0,
        duration: 2880,
    });
    let svc = b.add_service("prod.obs.stream", 3).unwrap();
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

fn stream_fingerprint(world: &World, change: ChangeId, feed: &LiveFeed, workers: usize) -> String {
    let mut config = FunnelConfig::paper_default();
    config.sst = SstConfig::quick();
    config.assess.workers = workers;
    let mut stream_cfg = StreamConfig::paired_with(&config);
    stream_cfg.ring_capacity = StreamConfig::capacity_for(&config, 2880);
    stream_cfg.workers = workers;
    let kinds: std::collections::BTreeMap<_, _> = world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect();
    let record = world.change_log().get(change).unwrap().clone();
    let mut engine = StreamEngine::new(config, stream_cfg, kinds);
    engine.track_change(world.topology(), record).unwrap();
    let mut completed = Vec::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        completed.extend(engine.tick(minute).completed);
    }
    format!("{completed:?}\n{:?}", engine.stats())
}
