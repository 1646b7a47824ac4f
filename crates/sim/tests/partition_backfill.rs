//! Partition windows, heal modes, and collector backfill, end to end.
//!
//! The invariants under test: a healed buffered partition recovers every
//! dark-span measurement bit-exactly (coverage mask included); silent drop
//! loses the span but stays honest in the mask; the whole flow is
//! deterministic across runs *and* across shard counts for shard-count-
//! invariant scopes; and backfill never double-writes a bin that already
//! holds a real measurement.

use funnel_sim::agent::{replay_prefix, replay_with_faults};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_sim::kpi::KpiKind;
use funnel_sim::store::MetricStore;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_topology::change::ChangeKind;

const DURATION: usize = 240;
const WINDOW: PartitionWindow = PartitionWindow {
    scope: PartitionScope::Collector,
    start: 80,
    duration: 40,
    heal: HealMode::SilentDrop, // overridden per test
};

fn test_world() -> World {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 23,
        start: 0,
        duration: DURATION,
    });
    let svc = b.add_service("prod.web", 3).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewCount,
        EffectScope::TreatedInstances,
        -400.0,
    );
    b.deploy_change(ChangeKind::Upgrade, svc, 1, 150, effect, "pvc drop")
        .unwrap();
    b.build()
}

fn plan(heal: HealMode, scope: PartitionScope) -> FaultPlan {
    FaultPlan::none().with_partition(PartitionWindow {
        heal,
        scope,
        ..WINDOW
    })
}

#[test]
fn buffered_burst_heal_recovers_the_full_span() {
    let world = test_world();
    let store = MetricStore::new();
    let stats = replay_with_faults(
        &world,
        &store,
        3,
        plan(
            HealMode::BufferedBurst { queue: 64 },
            PartitionScope::Collector,
        ),
    )
    .unwrap();
    assert_eq!(stats.partition_lost_frames, 0);
    // Whole-collector burst arrives in minute order before the heal
    // minute's live frame, so it flows through the live path — no frame
    // needs the historical backfill path.
    assert_eq!(stats.backfilled_frames, 0);
    // Every key matches direct generation exactly, with full coverage.
    for key in world.all_keys() {
        let direct = world.series(&key).unwrap();
        let stored = store.get(&key).unwrap_or_else(|| panic!("{key:?} missing"));
        assert_eq!(stored.len(), direct.len(), "{key:?}");
        for (a, b) in stored.values().iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-9, "{key:?}");
        }
        assert_eq!(
            store.coverage(&key, 0, DURATION as u64),
            1.0,
            "{key:?} coverage"
        );
    }
}

#[test]
fn staggered_catch_up_backfills_historic_bins_exactly() {
    let world = test_world();
    let store = MetricStore::new();
    // Zone 1 of 2 dark for 40 minutes; catch-up drains 4 frames/minute, so
    // the backlog takes 10 post-heal minutes to clear while zone 0 keeps
    // reporting — the later chunks land behind the collector's frontier
    // and must ride the backfill path.
    let stats = replay_with_faults(
        &world,
        &store,
        4,
        plan(
            HealMode::StaggeredCatchUp {
                queue: 64,
                per_minute: 4,
            },
            PartitionScope::Zone { zone: 1, zones: 2 },
        ),
    )
    .unwrap();
    assert_eq!(stats.partition_lost_frames, 0);
    assert!(
        stats.backfilled_frames > 0,
        "staggered heal never exercised the backfill path"
    );
    assert!(stats.backfilled_records > 0);
    assert_eq!(stats.backfill_rejected_records, 0);
    // Nor did the collector's plausibility gate refuse a late record.
    assert_eq!(stats.invalid_records, 0);
    // After the catch-up drains, the store is indistinguishable from a
    // clean replay: every bin real, every value exact.
    for key in world.all_keys() {
        let direct = world.series(&key).unwrap();
        let stored = store.get(&key).unwrap_or_else(|| panic!("{key:?} missing"));
        assert_eq!(stored.len(), direct.len(), "{key:?}");
        for (a, b) in stored.values().iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-9, "{key:?}");
        }
        assert_eq!(
            store.coverage(&key, 0, DURATION as u64),
            1.0,
            "{key:?} coverage"
        );
    }
}

#[test]
fn silent_drop_leaves_an_honest_gap() {
    let world = test_world();
    let store = MetricStore::new();
    let stats = replay_with_faults(
        &world,
        &store,
        3,
        plan(HealMode::SilentDrop, PartitionScope::Collector),
    )
    .unwrap();
    assert_eq!(stats.partition_lost_frames, 3 * 40);
    assert_eq!(stats.backfilled_frames, 0);
    for key in world.all_keys() {
        let mask = store
            .mask(&key)
            .unwrap_or_else(|| panic!("{key:?} missing"));
        // The dark span is one contiguous gap, visible as such.
        assert_eq!(mask.gaps_in(0, DURATION as u64), vec![(80, 120)], "{key:?}");
        // The series itself stays dense (forward-filled), never lying with
        // holes downstream code cannot represent.
        let stored = store.get(&key).unwrap();
        assert_eq!(stored.len(), DURATION, "{key:?}");
    }
}

#[test]
fn bounded_queue_evicts_oldest_and_counts_losses() {
    let world = test_world();
    let store = MetricStore::new();
    // Queue holds 10 of the 40 dark minutes: 30 evictions per dark shard.
    let stats = replay_with_faults(
        &world,
        &store,
        2,
        plan(
            HealMode::BufferedBurst { queue: 10 },
            PartitionScope::Shard(1),
        ),
    )
    .unwrap();
    assert_eq!(stats.partition_lost_frames, 30);
    // The surviving tail of the span (its newest 10 minutes) made it back.
    let key = world
        .all_keys()
        .into_iter()
        .find(|k| store.mask(k).is_some_and(|m| !m.gaps_in(0, 240).is_empty()))
        .expect("some key lost coverage");
    let mask = store.mask(&key).unwrap();
    assert_eq!(mask.gaps_in(0, DURATION as u64), vec![(80, 110)]);
}

#[test]
fn unhealed_prefix_shows_open_gap_then_full_replay_heals_it() {
    let world = test_world();
    let plan = plan(
        HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 4,
        },
        PartitionScope::Collector,
    );

    // Cut off mid-partition: the queue never drained.
    let interim = MetricStore::new();
    let stats = replay_prefix(&world, &interim, 3, plan.clone(), 100).unwrap();
    assert_eq!(stats.minutes, 100);
    // Dark from 80, cutoff at 100, still partitioned: queue lost.
    assert_eq!(stats.partition_lost_frames, 3 * 20);
    for key in world.all_keys() {
        if let Some(mask) = interim.mask(&key) {
            assert_eq!(mask.gaps_in(0, 100), vec![(80, 100)], "{key:?}");
        }
    }

    // The same plan replayed to completion heals completely.
    let healed = MetricStore::new();
    replay_with_faults(&world, &healed, 3, plan).unwrap();
    for key in world.all_keys() {
        assert_eq!(
            healed.coverage(&key, 0, DURATION as u64),
            1.0,
            "{key:?} not healed"
        );
    }
}

#[test]
fn healed_replay_is_deterministic_across_shard_counts() {
    // Collector scope darkens every shard regardless of how many there
    // are, so the healed store must be bit-identical for 3 vs 7 shards —
    // the backfill flush order (shard, minute) cannot leak thread or
    // shard-count structure into the data.
    let world = test_world();
    let plan = plan(
        HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 2,
        },
        PartitionScope::Collector,
    );
    let a = MetricStore::new();
    replay_with_faults(&world, &a, 3, plan.clone()).unwrap();
    let b = MetricStore::new();
    replay_with_faults(&world, &b, 7, plan.clone()).unwrap();
    let c = MetricStore::new();
    replay_with_faults(&world, &c, 3, plan).unwrap();
    assert_eq!(a.keys(), b.keys());
    for key in a.keys() {
        assert_eq!(a.get(&key), b.get(&key), "{key:?} series diverged");
        assert_eq!(a.mask(&key), b.mask(&key), "{key:?} mask diverged");
        assert_eq!(a.get(&key), c.get(&key), "{key:?} not reproducible");
        assert_eq!(a.mask(&key), c.mask(&key), "{key:?} not reproducible");
    }
}
