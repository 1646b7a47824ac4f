//! Worker-count determinism of the batch assessment engine.
//!
//! The contract under test: the parallel engine is a latency knob, never a
//! results knob. A full partition-heal story — interim assessment against a
//! degraded store, collector backfill, re-assessment — must produce
//! byte-identical serialized output at 1, 3, and 8 workers, and the
//! deterministic merge must erase any arrival order a scheduler could
//! produce.

use funnel_core::parallel::merge;
use funnel_core::pipeline::{ChangeAssessment, Funnel, ItemAssessment};
use funnel_core::report::render;
use funnel_core::FunnelConfig;
use funnel_sim::agent::{replay_prefix, replay_with_faults};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_sim::kpi::KpiKind;
use funnel_sim::store::MetricStore;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_topology::change::{ChangeId, ChangeKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A dark-launch world where a collector partition darkens the whole fleet
/// across the change minute, healing by staggered catch-up.
fn partitioned_world() -> (World, ChangeId, FaultPlan) {
    let mut b = WorldBuilder::new(SimConfig::days(31, 8));
    let svc = b.add_service("prod.par", 6).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        90.0,
    );
    let minute = 7 * 1440 + 300;
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "t")
        .unwrap();
    let plan = FaultPlan::none().with_partition(PartitionWindow {
        scope: PartitionScope::Collector,
        start: minute - 20,
        duration: 45,
        heal: HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 1,
        },
    });
    (b.build(), id, plan)
}

fn funnel_with(workers: usize) -> Funnel {
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    Funnel::new(config)
}

/// Serializes everything an operator would ever see from an assessment.
fn fingerprint(world: &World, assessment: &ChangeAssessment) -> String {
    format!("{assessment:?}\n{}", render(world.topology(), assessment))
}

/// The full partition-heal story at one worker count, returning the
/// serialized interim report, how many items the re-assessment replaced,
/// and the final report.
fn run_story(world: &World, change: ChangeId, plan: &FaultPlan, workers: usize) -> [String; 3] {
    let record = world.change_log().get(change).unwrap().clone();
    let funnel = funnel_with(workers);
    let kinds = |svc| world.kinds_of_service(svc).to_vec();

    // Interim: cut off mid-partition; repairable items await backfill.
    let interim_store = MetricStore::new();
    replay_prefix(
        world,
        &interim_store,
        3,
        plan.clone(),
        record.minute as usize + 15,
    )
    .unwrap();
    let mut assessment = funnel
        .assess_change_with(&interim_store, world.topology(), &record, &kinds)
        .unwrap();
    let interim_fp = fingerprint(world, &assessment);
    let awaiting = assessment.awaiting_backfill_items().count();
    assert!(awaiting > 0);

    // Heal: full replay backfills the dark span; the re-assessment re-runs
    // every healed window through the same engine.
    let healed_store = MetricStore::new();
    replay_with_faults(world, &healed_store, 3, plan.clone()).unwrap();
    let replaced = funnel
        .reassess(&mut assessment, &healed_store, world.topology(), &record)
        .unwrap();
    assert_eq!(replaced, awaiting);
    assert_eq!(assessment.awaiting_backfill_items().count(), 0);
    [
        interim_fp,
        replaced.to_string(),
        fingerprint(world, &assessment),
    ]
}

#[test]
fn partition_heal_story_is_byte_identical_across_worker_counts() {
    let (world, change, plan) = partitioned_world();
    let serial = run_story(&world, change, &plan, 1);
    for workers in [3, 8] {
        let parallel = run_story(&world, change, &plan, workers);
        for (stage, (a, b)) in ["interim", "replaced", "final"]
            .iter()
            .zip(serial.iter().zip(&parallel))
        {
            assert_eq!(a, b, "{stage} report diverged at {workers} workers");
        }
    }
    // The final story attributes the real impact after the heal.
    let final_fp = &serial[2];
    assert!(
        final_fp.contains("Caused"),
        "post-heal report attributes nothing"
    );
}

/// Fisher–Yates with the workspace's deterministic generator.
fn shuffle(items: &mut [ItemAssessment], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[test]
fn merge_erases_any_arrival_order() {
    let (world, change, plan) = partitioned_world();
    let record = world.change_log().get(change).unwrap().clone();
    let store = MetricStore::new();
    replay_with_faults(&world, &store, 3, plan).unwrap();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let items = funnel_with(1)
        .assess_change_with(&store, world.topology(), &record, &kinds)
        .unwrap()
        .items;
    assert!(items.len() > 10, "fixture too small to stress the merge");
    let expected = format!("{:?}", merge(items.clone()));

    // 50 seeded shuffles stand in for 50 adversarial schedulers: whatever
    // order results arrive in, the merged report must not move a byte.
    for seed in 0..50u64 {
        let mut shuffled = items.clone();
        shuffle(&mut shuffled, &mut StdRng::seed_from_u64(seed));
        let merged = format!("{:?}", merge(shuffled));
        assert_eq!(
            expected, merged,
            "merge depended on arrival order (seed {seed})"
        );
    }
}
