//! The streaming engine's headline contracts.
//!
//! * Streaming verdicts are **byte-identical** to the batch pipeline on
//!   every key that was neither shed nor stale, at every worker count.
//! * Late frames heal through the backfill path and still converge on the
//!   batch verdicts — also when they land inside the assessment span, on
//!   windows the live monitors had already decided and remembered for the
//!   completing change to recall (DESIGN.md §5): what a backfill rewrites
//!   is forgotten, and a feed with nothing late is recalled almost whole.
//! * Load shedding is a pure function of the tick and the key — two runs
//!   hand back the same sheds — and every shed work unit completes as
//!   `Inconclusive` flagged `LoadShed` instead of stalling or guessing.
//! * A work key whose feed died more than an hour before its window's end
//!   is listed stale and flagged the same way; one minute inside the
//!   watermark it is assessed, to the batch bytes.
//! * Live declarations are, tick by tick and bit for bit, those of the
//!   frozen eager monitors that scored every window as it completed — on a
//!   feed whose late measurements force re-primes.
//! * Fed from the store the agent → collector path filled, the
//!   engine declares an injected regression live, attributes it, and stays
//!   quiet on a no-op change — with the batch pipeline's bytes both times.

#[path = "../../detect/tests/eager_reference/mod.rs"]
mod eager_reference;

mod eager_monitors;

use funnel_core::quality::QualityIssue;
use funnel_core::stream::{StreamAssessment, StreamDetection};
use funnel_core::{
    AssessmentMode, FunnelConfig, ItemAssessment, StreamConfig, StreamEngine, Verdict,
};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::live::LiveFeed;
use funnel_sim::store::{Measurement, MetricStore};
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sst::{FastSst, SstConfig};
use funnel_topology::change::{ChangeId, ChangeKind};
use funnel_topology::impact::Entity;
use funnel_topology::model::ServiceId;
use std::collections::{BTreeMap, BTreeSet};

const DURATION: u64 = 2880;
const CHANGE_MINUTE: u64 = 1700;

fn test_config(workers: usize) -> FunnelConfig {
    let mut c = FunnelConfig::paper_default();
    c.sst = SstConfig::quick();
    c.assess.workers = workers;
    c
}

fn stream_config(funnel: &FunnelConfig) -> StreamConfig {
    let mut s = StreamConfig::paired_with(funnel);
    s.ring_capacity = StreamConfig::capacity_for(funnel, DURATION);
    s
}

fn shifted_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 5,
        start: 0,
        duration: DURATION as usize,
    });
    let svc = b.add_service("prod.stream", 3).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        9.0,
    );
    let id = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            CHANGE_MINUTE,
            effect,
            "stream equivalence",
        )
        .unwrap();
    (b.build(), id)
}

fn service_kinds(world: &World) -> BTreeMap<ServiceId, Vec<KpiKind>> {
    world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect()
}

/// Replays `feed` into a fresh store — the batch pipeline's input, built
/// from the exact same measurement sequence the engine saw.
fn replay_feed(feed: &LiveFeed) -> MetricStore {
    let store = MetricStore::new();
    for (_, batch) in feed.arrivals() {
        for m in batch {
            store.append(m.key, m.minute, m.value);
        }
    }
    store
}

/// The batch pipeline's items on a store replayed from `feed`, in key order.
fn batch_assess(
    world: &World,
    change: ChangeId,
    feed: &LiveFeed,
    workers: usize,
) -> Vec<ItemAssessment> {
    let record = world.change_log().get(change).unwrap().clone();
    let kinds = service_kinds(world);
    let snapshot = replay_feed(feed).snapshot();
    funnel_core::Funnel::new(test_config(workers))
        .assess_change_with(&snapshot, world.topology(), &record, &|svc| {
            kinds.get(&svc).cloned().unwrap_or_default()
        })
        .unwrap()
        .items
}

fn batch_items(world: &World, change: ChangeId, feed: &LiveFeed, workers: usize) -> String {
    format!("{:?}", batch_assess(world, change, feed, workers))
}

/// [`batch_assess`] at one worker, as `Debug` bytes by key.
fn batch_by_key(world: &World, change: ChangeId, feed: &LiveFeed) -> BTreeMap<KpiKey, String> {
    batch_assess(world, change, feed, 1)
        .into_iter()
        .map(|item| (item.key, format!("{item:?}")))
        .collect()
}

/// What one engine run handed back, tick by tick.
struct Streamed {
    engine: StreamEngine,
    detections: Vec<StreamDetection>,
    /// Every `(tick, key)` the shedding policy dropped, in decision order.
    shed: Vec<(u64, KpiKey)>,
    completed: Vec<StreamAssessment>,
}

fn run_engine(
    world: &World,
    change: ChangeId,
    funnel_cfg: FunnelConfig,
    stream_cfg: StreamConfig,
    feed: &LiveFeed,
) -> (StreamEngine, Vec<StreamAssessment>) {
    let run = run_arrivals(world, change, funnel_cfg, stream_cfg, feed.arrivals());
    (run.engine, run.completed)
}

/// Delivers `arrivals` minute by minute into a fresh engine tracking
/// `change`; returns it with every live detection, shed and completed
/// assessment.
fn run_arrivals<'a>(
    world: &World,
    change: ChangeId,
    funnel_cfg: FunnelConfig,
    stream_cfg: StreamConfig,
    arrivals: impl Iterator<Item = (u64, &'a [Measurement])>,
) -> Streamed {
    let record = world.change_log().get(change).unwrap().clone();
    let mut engine = StreamEngine::new(funnel_cfg, stream_cfg, service_kinds(world));
    engine.track_change(world.topology(), record).unwrap();
    let (mut detections, mut shed, mut completed) = (Vec::new(), Vec::new(), Vec::new());
    for (minute, batch) in arrivals {
        for &m in batch {
            engine.offer(m);
        }
        let report = engine.tick(minute);
        detections.extend(report.detections);
        shed.extend(report.shed.into_iter().map(|key| (minute, key)));
        completed.extend(report.completed);
    }
    Streamed {
        engine,
        detections,
        shed,
        completed,
    }
}

#[test]
fn streaming_matches_batch_at_every_worker_count() {
    let (world, change) = shifted_world();
    let feed = LiveFeed::from_store(&world.materialize().unwrap());
    let reference = batch_items(&world, change, &feed, 1);
    for workers in [1usize, 3, 8] {
        let funnel_cfg = test_config(workers);
        let mut stream_cfg = stream_config(&funnel_cfg);
        stream_cfg.workers = workers;
        let (engine, completed) = run_engine(&world, change, funnel_cfg, stream_cfg, &feed);
        assert_eq!(completed.len(), 1, "workers={workers}");
        let got = completed.first().unwrap();
        assert!(got.shed.is_empty(), "workers={workers}");
        assert!(got.stale.is_empty(), "workers={workers}");
        assert_eq!(
            format!("{:?}", got.items),
            reference,
            "streaming != batch at workers={workers}"
        );
        assert_eq!(engine.stats().shed, 0);
        // The shifted KPI should actually have been caught live.
        assert!(got.detection_latency.is_some(), "workers={workers}");
        assert_eq!(
            batch_items(&world, change, &feed, workers),
            reference,
            "batch itself drifted at workers={workers}"
        );
    }
}

#[test]
fn late_frames_heal_through_backfill() {
    let (world, change) = shifted_world();
    let feed = LiveFeed::from_store(&world.materialize().unwrap());
    let reference = batch_items(&world, change, &feed, 1);

    // Hold back every frame of minutes [200, 260) and deliver each 30
    // minutes late — out of order, but all healed long before the change's
    // assessment window closes.
    let mut arrivals: BTreeMap<u64, Vec<Measurement>> = BTreeMap::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            let when = if (200..260).contains(&m.minute) {
                minute + 30
            } else {
                minute
            };
            arrivals.entry(when).or_default().push(m);
        }
    }

    let funnel_cfg = test_config(1);
    let stream_cfg = stream_config(&funnel_cfg);
    let record = world.change_log().get(change).unwrap().clone();
    let mut engine = StreamEngine::new(funnel_cfg, stream_cfg, service_kinds(&world));
    engine.track_change(world.topology(), record).unwrap();
    let mut completed = Vec::new();
    for (&minute, batch) in &arrivals {
        for &m in batch {
            engine.offer(m);
        }
        completed.extend(engine.tick(minute).completed);
    }

    assert!(
        engine.stats().late_backfilled > 0,
        "the late path never fired"
    );
    assert_eq!(completed.len(), 1);
    let got = completed.first().unwrap();
    assert!(got.shed.is_empty());
    assert_eq!(
        format!("{:?}", got.items),
        reference,
        "backfilled stream diverged from batch"
    );
}

/// The mutation this test exists for: `StreamEngine::offer` not forgetting
/// the outcomes decided at or after a backfilled minute. Every other test
/// of this file passes under it; this one must not. (Forgetting only when
/// the minute is behind the monitor's frontier is the same program: nothing
/// is ever remembered at or past the frontier. Remembering an unretained
/// held window as below needs a ring shallower than batch equality allows,
/// and is caught by `funnel-detect`'s `remembered_outcomes`.)
#[test]
fn late_data_inside_the_assessment_span_streams_to_the_batch_bytes() {
    let (world, change) = shifted_world();
    let feed = LiveFeed::from_store(&world.materialize().unwrap());
    let reference = batch_items(&world, change, &feed, 1);

    let config = test_config(1);
    let width = config.sst.window_len() as u64;
    let span = CHANGE_MINUTE - width - config.warmup_minutes()..CHANGE_MINUTE + 60;
    let due = CHANGE_MINUTE + config.assessment_minutes;
    let work: Vec<KpiKey> = batch_by_key(&world, change, &feed).into_keys().collect();
    let shifted = |key: &KpiKey| {
        key.kind == KpiKind::PageViewResponseDelay && matches!(key.entity, Entity::Instance(_))
    };

    // One work-key measurement in eight inside the span arrives 1–10
    // minutes late, and every other minute of the shifted KPI's first
    // quarter hour after the change: the windows its monitors declare on.
    let mut arrivals: BTreeMap<u64, Vec<Measurement>> = BTreeMap::new();
    let mut late = Vec::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            let draw = funnel_sim::splitmix64(funnel_sim::wire::key_hash(m.key) ^ m.minute);
            let on_the_shift = shifted(&m.key)
                && (CHANGE_MINUTE..CHANGE_MINUTE + 16).contains(&m.minute)
                && m.minute.is_multiple_of(2);
            let delayed = work.binary_search(&m.key).is_ok()
                && span.contains(&m.minute)
                && (draw.is_multiple_of(8) || on_the_shift);
            let when = if delayed {
                (minute + 1 + (draw >> 8) % 10).min(due)
            } else {
                minute
            };
            if when > minute {
                late.push((m.key, m.minute, when));
            }
            arrivals.entry(when).or_default().push(m);
        }
    }
    assert!(late.iter().any(|&(_, minute, when)| when == minute + 1));
    assert!(late.iter().any(|&(_, minute, when)| when == minute + 10));

    let mut reused = Vec::new();
    for workers in [1usize, 2, 3] {
        let funnel_cfg = test_config(workers);
        let mut stream_cfg = stream_config(&funnel_cfg);
        stream_cfg.workers = workers;
        let Streamed {
            engine,
            detections,
            completed,
            ..
        } = run_arrivals(
            &world,
            change,
            funnel_cfg,
            stream_cfg,
            arrivals
                .iter()
                .map(|(&minute, batch)| (minute, batch.as_slice())),
        );
        assert_eq!(engine.stats().late_backfilled, late.len() as u64);
        assert_eq!(completed.len(), 1, "workers={workers}");
        let got = completed.first().unwrap();
        assert!(got.shed.is_empty() && got.stale.is_empty());
        assert_eq!(
            format!("{:?}", got.items),
            reference,
            "late data inside the span: streaming != batch at workers={workers}"
        );
        // A late measurement landed in a window a monitor had already
        // scored as a hit: the window that completed a live declaration
        // holds its minute and was decided before it arrived.
        assert!(
            late.iter()
                .any(|&(key, minute, when)| detections.iter().any(|d| {
                    d.key == key
                        && d.declared_at < when
                        && (minute..minute + width).contains(&d.declared_at)
                })),
            "no late measurement fell inside a declared run: {detections:?}"
        );
        let stats = engine.stats();
        reused.push((stats.completion_answers, stats.completion_reused));
    }
    // What is recalled does not depend on the worker count; some of it was
    // forgotten behind the backfills, most of it was not.
    assert!(
        reused.iter().all(|&counts| counts == reused[0]),
        "{reused:?}"
    );
    let (answers, recalled) = reused[0];
    assert!(recalled < answers && recalled * 2 > answers, "{reused:?}");

    // With nothing late, nine answers in ten and more are recalled.
    let (engine, completed) = run_engine(
        &world,
        change,
        config.clone(),
        stream_config(&config),
        &feed,
    );
    assert_eq!(format!("{:?}", completed.first().unwrap().items), reference);
    let stats = engine.stats();
    assert!(stats.completion_answers > 0);
    assert!(
        stats.completion_reused * 10 >= stats.completion_answers * 9,
        "recalled {} of {} answers",
        stats.completion_reused,
        stats.completion_answers
    );
}

#[test]
fn live_detections_match_the_eager_monitors_tick_by_tick() {
    let (world, change) = shifted_world();
    // 3% of the measurements arrive four minutes late: each lands behind
    // its monitor's frontier and forces a re-prime, often with candidates
    // held unscored.
    let feed = LiveFeed::from_store(&world.materialize().unwrap()).with_late(11, 30, 4);
    let bits = |detections: &[StreamDetection]| -> Vec<(KpiKey, u64, u64, u64)> {
        detections
            .iter()
            .map(|d| {
                (
                    d.key,
                    d.declared_at,
                    d.first_exceeded_at,
                    d.peak_score.to_bits(),
                )
            })
            .collect()
    };
    for (persistence, workers) in [(7, 1), (7, 3), (2, 1), (1, 2)] {
        let mut funnel_cfg = test_config(workers);
        funnel_cfg.persistence_minutes = persistence;
        let mut stream_cfg = stream_config(&funnel_cfg);
        stream_cfg.workers = workers;
        let mut reference = eager_monitors::EagerMonitors::new(
            FastSst::new(funnel_cfg.sst.clone()),
            funnel_cfg.sst_threshold,
            persistence,
            stream_cfg.ring_capacity,
        );
        let record = world.change_log().get(change).unwrap().clone();
        let mut engine = StreamEngine::new(funnel_cfg, stream_cfg, service_kinds(&world));
        engine.track_change(world.topology(), record).unwrap();

        let mut declared = 0;
        for (minute, batch) in feed.arrivals() {
            for &m in batch {
                engine.offer(m);
                reference.offer(m);
            }
            let got = engine.tick(minute).detections;
            assert_eq!(
                bits(&got),
                bits(&reference.tick(minute)),
                "tick {minute}, persistence {persistence}, workers {workers}"
            );
            declared += got.len();
        }
        assert!(declared > 0, "persistence {persistence}: nothing declared");
        assert!(reference.reprimes > 0, "no late measurement re-primed");
        assert!(engine.stats().late_backfilled > 0);
    }
}

#[test]
fn shedding_is_deterministic_and_flagged() {
    let (world, change) = shifted_world();
    let feed = LiveFeed::from_store(&world.materialize().unwrap());

    let run = || {
        let funnel_cfg = test_config(1);
        let mut stream_cfg = stream_config(&funnel_cfg);
        stream_cfg.tick_budget = 10; // far fewer folds than keys per tick
        run_arrivals(&world, change, funnel_cfg, stream_cfg, feed.arrivals())
    };
    let (a, b) = (run(), run());

    assert!(a.engine.stats().shed > 0, "budget never triggered shedding");
    assert_eq!(a.shed.len() as u64, a.engine.stats().shed);
    assert_eq!(
        a.shed, b.shed,
        "two runs must shed the same (tick, key) list"
    );

    assert_eq!(a.completed.len(), 1);
    let got = a.completed.first().unwrap();
    assert!(!got.shed.is_empty(), "no work key was shed in-window");
    for item in &got.items {
        if got.shed.contains(&item.key) {
            assert_eq!(
                item.verdict,
                Verdict::Inconclusive {
                    awaiting_backfill: false
                },
                "{:?}",
                item.key
            );
            assert!(
                item.quality.report.issues.contains(&QualityIssue::LoadShed),
                "{:?}",
                item.key
            );
        }
    }
    // Non-shed, non-stale keys still match the batch items byte-for-byte.
    let batch = batch_by_key(&world, change, &feed);
    let mut survivors = 0;
    for item in &got.items {
        if got.shed.contains(&item.key) || got.stale.contains(&item.key) {
            continue;
        }
        survivors += 1;
        assert_eq!(
            batch.get(&item.key),
            Some(&format!("{item:?}")),
            "surviving key diverged from batch"
        );
    }
    assert!(survivors > 0, "everything was shed — budget too small");
}

/// The staleness watermark of the module's robustness contract: a ring is
/// fresh while `ring.end() + 60 >= to`, `to` the window's exclusive end.
#[test]
fn a_key_silent_past_the_watermark_is_listed_stale_and_one_inside_it_is_assessed() {
    let (world, change) = shifted_world();
    let full = LiveFeed::from_store(&world.materialize().unwrap());
    let to = CHANGE_MINUTE + test_config(1).assessment_minutes + 1;
    // The last minute a key may have spoken and still be fresh.
    let last_fresh = to - 60 - 1;
    let mut instances = batch_by_key(&world, change, &full)
        .into_keys()
        .filter(|key| matches!(key.entity, Entity::Instance(_)));
    let (inside, past) = (instances.next().unwrap(), instances.next().unwrap());

    // Two work keys fall silent one minute apart, on either side of it.
    let truncated = MetricStore::new();
    for (_, batch) in full.arrivals() {
        for m in batch {
            let silent = (m.key == inside && m.minute > last_fresh)
                || (m.key == past && m.minute > last_fresh - 1);
            if !silent {
                truncated.append(m.key, m.minute, m.value);
            }
        }
    }
    let feed = LiveFeed::from_store(&truncated);
    let batch = batch_by_key(&world, change, &feed);

    let mut bytes = Vec::new();
    for workers in [1usize, 2, 3] {
        let funnel_cfg = test_config(workers);
        let mut stream_cfg = stream_config(&funnel_cfg);
        stream_cfg.workers = workers;
        let (_, completed) = run_engine(&world, change, funnel_cfg, stream_cfg, &feed);
        assert_eq!(completed.len(), 1, "workers={workers}");
        let got = completed.first().unwrap();
        assert!(got.shed.is_empty());
        assert_eq!(got.stale, vec![past], "workers={workers}");
        assert_eq!(got.items.len(), batch.len());
        for item in &got.items {
            if item.key == past {
                assert_eq!(
                    item.verdict,
                    Verdict::Inconclusive {
                        awaiting_backfill: false
                    }
                );
                assert_eq!(item.quality.report.issues, vec![QualityIssue::LoadShed]);
            } else {
                // Every other key, the one a minute inside the watermark
                // included, is the batch item on the same truncated feed.
                assert_eq!(
                    batch.get(&item.key),
                    Some(&format!("{item:?}")),
                    "workers={workers}: {:?} diverged from batch",
                    item.key
                );
            }
        }
        bytes.push(format!("{completed:?}"));
    }
    assert!(
        bytes.iter().all(|b| *b == bytes[0]),
        "worker count moved bytes"
    );
}

#[test]
fn overload_stays_bounded_and_makes_progress() {
    let (world, change) = shifted_world();
    let feed = LiveFeed::from_store(&world.materialize().unwrap());
    let funnel_cfg = test_config(1);
    let mut stream_cfg = stream_config(&funnel_cfg);
    let keys = replay_feed(&feed).keys().len();
    stream_cfg.tick_budget = keys as u64; // sized for 1× ingest
    let record = world.change_log().get(change).unwrap().clone();
    let mut engine = StreamEngine::new(funnel_cfg, stream_cfg.clone(), service_kinds(&world));
    engine.track_change(world.topology(), record).unwrap();

    // 10× overload: ten minutes of frames land between consecutive ticks.
    let mut completed = Vec::new();
    let mut pending = 0u64;
    let mut last = 0;
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        pending += 1;
        last = minute;
        if pending == 10 {
            completed.extend(engine.tick(minute).completed);
            pending = 0;
        }
    }
    completed.extend(engine.tick(last).completed);

    let stats = engine.stats();
    assert!(stats.shed > 0, "10x overload never shed");
    assert_eq!(completed.len(), 1, "the change never completed");
    // Resident window memory is exactly the configured bound.
    assert_eq!(
        engine.window_bytes(),
        keys * stream_cfg.ring_capacity * 9,
        "window memory drifted from the accounting bound"
    );
    assert_eq!(stats.peak_window_bytes, engine.window_bytes());
}

/// A 400-minute world whose change dark-launches on 2 of 6 instances at
/// minute 200, with (`delta > 0`) or without a latency regression.
fn live_world(seed: u64, delta: f64) -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig {
        seed,
        start: 0,
        duration: 400,
    });
    let svc = b.add_service("prod.live", 6).unwrap();
    let effect = if delta > 0.0 {
        ChangeEffect::none().with_level_shift(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            delta,
        )
    } else {
        ChangeEffect::none()
    };
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 200, effect, "live")
        .unwrap();
    (b.build(), id)
}

/// The deployed dataflow end to end: agents → wire → collector → store,
/// whose [`LiveFeed`] drives the engine one minute per tick. Returns the
/// completed assessment, every streaming detection, and the batch
/// pipeline's items over the same store.
fn stream_replayed_store(
    world: &World,
    change: ChangeId,
) -> (StreamAssessment, Vec<StreamDetection>, String) {
    let store = MetricStore::new();
    funnel_sim::agent::replay(world, &store, 2).unwrap();
    let feed = LiveFeed::from_store(&store);

    let config = FunnelConfig::paper_default();
    let stream_cfg = StreamConfig::paired_with(&config);
    let record = world.change_log().get(change).unwrap().clone();
    let kinds = service_kinds(world);
    let mut engine = StreamEngine::new(config.clone(), stream_cfg, kinds.clone());
    engine
        .track_change(world.topology(), record.clone())
        .unwrap();
    let mut detections = Vec::new();
    let mut completed = Vec::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        let report = engine.tick(minute);
        detections.extend(report.detections);
        completed.extend(report.completed);
    }
    assert_eq!(completed.len(), 1, "the tracked change completes once");
    assert_eq!(engine.pending_changes(), 0);

    let batch = funnel_core::Funnel::new(config)
        .assess_change_with(&store.snapshot(), world.topology(), &record, &|svc| {
            kinds.get(&svc).cloned().unwrap_or_default()
        })
        .unwrap();
    (
        completed.remove(0),
        detections,
        format!("{:?}", batch.items),
    )
}

#[test]
fn replayed_store_streams_to_the_batch_verdicts() {
    // A real regression: streamed items are the batch items, the treated
    // instances' delay is attributed against the dark-launch control group,
    // and the live monitors declared it while the roll-out was young.
    let (world, change) = live_world(5, 90.0);
    let (got, detections, batch) = stream_replayed_store(&world, change);
    assert!(got.shed.is_empty() && got.stale.is_empty());
    assert_eq!(format!("{:?}", got.items), batch, "streaming != batch");
    let is_instance_delay = |key: &KpiKey| {
        key.kind == KpiKind::PageViewResponseDelay && matches!(key.entity, Entity::Instance(_))
    };
    let attributed: Vec<_> = got
        .items
        .iter()
        .filter(|i| i.verdict == Verdict::Caused && is_instance_delay(&i.key))
        .collect();
    assert!(
        !attributed.is_empty(),
        "latency regression not attributed: {:?}",
        got.items
    );
    for item in &attributed {
        assert_eq!(item.mode, AssessmentMode::DarkLaunchControl);
    }
    assert!(
        detections
            .iter()
            .any(|d| is_instance_delay(&d.key) && (200..=225).contains(&d.declared_at)),
        "no live declaration within 25 minutes of the change: {detections:?}"
    );
    assert!(got.detection_latency.is_some_and(|m| m <= 25));

    // A no-op change: still the batch items, and nothing attributed.
    let (world, change) = live_world(6, 0.0);
    let (got, _, batch) = stream_replayed_store(&world, change);
    assert_eq!(format!("{:?}", got.items), batch, "streaming != batch");
    let caused = got.items.iter().filter(|i| i.verdict.is_caused()).count();
    assert_eq!(
        caused, 0,
        "clean change wrongly attributed: {:?}",
        got.items
    );
}

#[test]
fn the_order_of_a_minutes_offers_moves_no_report() {
    // A late feed puts a key's late minute beside its live one in a batch,
    // and a key first heard mid-stream sorts between two existing keys: the
    // engine's key table meets its cursor, the step back for the same key,
    // the search and the ordered insert. Offered in key order, reversed or
    // shuffled, each minute must give the same reports.
    let (world, change) = shifted_world();
    let feed = LiveFeed::from_store(&world.materialize().unwrap()).with_late(3, 20, 7);
    let mut batches: Vec<(u64, Vec<Measurement>)> =
        feed.arrivals().map(|(m, b)| (m, b.to_vec())).collect();
    let keys: BTreeSet<KpiKey> = batches.iter().flat_map(|(_, b)| b).map(|m| m.key).collect();
    let instance = keys
        .iter()
        .find(|key| matches!(key.entity, Entity::Instance(_)))
        .unwrap()
        .entity;
    let newcomer = KpiKey::new(instance, KpiKind::EffectiveClickCount);
    assert!(!keys.contains(&newcomer));
    assert!(keys.range(..newcomer).next().is_some() && keys.range(newcomer..).next().is_some());
    for (minute, batch) in &mut batches {
        if *minute >= DURATION / 2 {
            let value = 40.0 + (*minute % 7) as f64;
            batch.push(Measurement {
                key: newcomer,
                minute: *minute,
                value,
            });
            batch.sort_by(|a, b| a.key.cmp(&b.key).then(a.minute.cmp(&b.minute)));
        }
    }
    assert!(
        batches
            .iter()
            .any(|(_, b)| b.windows(2).any(|pair| pair[0].key == pair[1].key)),
        "no batch holds a key twice"
    );

    let run = |order: &dyn Fn(u64, &mut [Measurement])| {
        let funnel_cfg = test_config(1);
        let stream_cfg = stream_config(&funnel_cfg);
        let record = world.change_log().get(change).unwrap().clone();
        let mut engine = StreamEngine::new(funnel_cfg, stream_cfg, service_kinds(&world));
        engine.track_change(world.topology(), record).unwrap();
        let mut reports = Vec::new();
        for (minute, batch) in &batches {
            let mut batch = batch.clone();
            order(*minute, &mut batch);
            for m in batch {
                engine.offer(m);
            }
            reports.push(format!("{:?}", engine.tick(*minute)));
        }
        assert_eq!(engine.key_count(), keys.len() + 1);
        (reports, engine.stats())
    };
    let (sorted, stats) = run(&|_, _| {});
    assert_eq!(
        sorted
            .iter()
            .filter(|r| r.contains("StreamAssessment"))
            .count(),
        1,
        "the change completes"
    );
    assert!(stats.late_backfilled > 0);
    let reversed = run(&|_, batch| batch.reverse());
    let shuffled = run(&|minute, batch| {
        // Fisher–Yates, seeded by the minute.
        let mut state = minute;
        for i in (1..batch.len()).rev() {
            state = funnel_sim::splitmix64(state);
            batch.swap(i, (state % (i as u64 + 1)) as usize);
        }
    });
    for (name, (reports, got)) in [("reversed", reversed), ("shuffled", shuffled)] {
        assert_eq!(got, stats, "{name}");
        assert_eq!(reports.len(), sorted.len());
        for (minute, (a, b)) in sorted.iter().zip(&reports).enumerate() {
            assert!(a == b, "{name}: report {minute} differs");
        }
    }
}
