//! A panic in one work unit costs that unit's verdict and nothing else.
//!
//! The fan-out every assessment path shares runs each unit under
//! `catch_unwind`; a unit whose assessment panics is delivered
//! `Inconclusive` with `QualityIssue::Quarantined`. Both tests poison one
//! treated server's series (see `poisoned/mod.rs`) and hold the rest of the
//! delivery to the clean run's bytes at 1, 3 and 8 workers: once through
//! the batch entry, once through `Funnel::reassess`. Without the
//! `catch_unwind` the panic escapes and both fail. A third panics a unit
//! halfway through its detection, after it used its worker's scratch, and
//! holds every later unit on that worker to the clean bytes.

mod poisoned;

use funnel_core::pipeline::{Funnel, ItemAssessment, Verdict};
use funnel_core::quality::QualityIssue;
use funnel_core::{FunnelConfig, KpiSource};
use funnel_detect::outcomes::{Outcome, Outcomes};
use funnel_sim::agent::{replay_prefix, replay_with_faults};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::MetricStore;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_topology::change::{ChangeKind, SoftwareChange};
use poisoned::Poisoned;
use std::borrow::Cow;

const SHARDS: usize = 3;

/// An 8-day world with one impactful upgrade on day 7, and a collector
/// partition across the change minute that heals by staggered catch-up.
fn partitioned_world() -> (World, SoftwareChange, FaultPlan) {
    let mut b = WorldBuilder::new(SimConfig::days(37, 8));
    let svc = b.add_service("prod.quarantine", 6).unwrap();
    let minute = 7 * 1440 + 300;
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        90.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "t")
        .unwrap();
    let world = b.build();
    let record = world.change_log().get(id).unwrap().clone();
    let plan = FaultPlan::none().with_partition(PartitionWindow {
        scope: PartitionScope::Collector,
        start: minute - 20,
        duration: 45,
        heal: HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 1,
        },
    });
    (world, record, plan)
}

fn funnel(workers: usize) -> Funnel {
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    Funnel::new(config)
}

/// `got` is `clean` with exactly `poisoned` quarantined.
fn only_quarantined(clean: &[ItemAssessment], got: &[ItemAssessment], poisoned: KpiKey) {
    assert_eq!(got.len(), clean.len());
    for (got, want) in got.iter().zip(clean) {
        assert_eq!(got.key, want.key);
        if got.key == poisoned {
            assert_eq!(
                got.verdict,
                Verdict::Inconclusive {
                    awaiting_backfill: false
                }
            );
            assert!(!got.verdict.is_caused());
            assert_eq!(got.quality.report.issues, vec![QualityIssue::Quarantined]);
        } else {
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }
}

#[test]
fn a_panicking_unit_costs_its_own_batch_verdict_and_nothing_else() {
    let (world, record, _) = partitioned_world();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let clean = funnel(1)
        .assess_change_with(&world, world.topology(), &record, &kinds)
        .unwrap();
    let source = Poisoned {
        inner: &world,
        key: poisoned::server_key(&clean.items),
    };
    for workers in [1, 3, 8] {
        let got = funnel(workers)
            .assess_change_with(&source, world.topology(), &record, &kinds)
            .unwrap();
        assert_eq!(got.impact_set, clean.impact_set);
        only_quarantined(&clean.items, &got.items, source.key);
    }
}

#[test]
fn a_panicking_unit_leaves_the_reassessment_queue_as_firm() {
    let (world, record, plan) = partitioned_world();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let interim_store = MetricStore::new();
    let open = record.minute as usize + 15;
    replay_prefix(&world, &interim_store, SHARDS, plan.clone(), open).unwrap();
    let interim = funnel(1)
        .assess_change_with(&interim_store, world.topology(), &record, &kinds)
        .unwrap();
    let awaiting = interim.awaiting_backfill_items().count();
    assert!(awaiting > 0);
    let healed = MetricStore::new();
    replay_with_faults(&world, &healed, SHARDS, plan).unwrap();

    let mut clean = interim.clone();
    let replaced = funnel(1).reassess(&mut clean, &healed, world.topology(), &record);
    assert_eq!(replaced, Ok(awaiting), "the heal left an item unready");
    let source = Poisoned {
        inner: &healed,
        key: poisoned::server_key(interim.awaiting_backfill_items()),
    };
    for workers in [1, 3, 8] {
        let mut got = interim.clone();
        let funnel = funnel(workers);
        let replaced = funnel.reassess(&mut got, &source, world.topology(), &record);
        assert_eq!(replaced, Ok(awaiting));
        only_quarantined(&clean.items, &got.items, source.key);
        // Quarantined is firm, as the clean run's upgrade is: a second
        // call has nothing left to re-run.
        let again = funnel.reassess(&mut got, &source, world.topology(), &record);
        assert_eq!(again, Ok(0));
    }
}

/// `inner` with a memory that panics when the detector of `key` recalls
/// its window decided at `minute`: the unit falls over halfway through
/// its detection, after its worker's scratch has walked part of the series.
struct PanicsMidDetection<S> {
    inner: S,
    key: KpiKey,
    minute: MinuteBin,
}

struct PanicsAt(Option<MinuteBin>);

impl Outcomes for PanicsAt {
    fn recall(&self, minute: MinuteBin) -> Outcome {
        assert_ne!(Some(minute), self.0, "poisoned window");
        Outcome::Unknown
    }

    fn record(&mut self, _minute: MinuteBin, _outcome: Outcome) {}
}

impl<S: KpiSource> KpiSource for PanicsMidDetection<S> {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        self.inner.series(key)
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        self.inner.coverage(key, from, to)
    }

    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        self.inner.mask(key)
    }

    fn outcomes(&self, key: &KpiKey) -> impl Outcomes + '_ {
        PanicsAt((*key == self.key).then_some(self.minute))
    }
}

/// A unit that panics in the middle of its detection leaves its worker's
/// scratch fit for the next unit: with one worker every later unit runs on
/// that worker, and each still delivers the clean run's bytes.
#[test]
fn a_unit_that_panics_mid_detection_leaves_its_worker_able() {
    let (world, record, _) = partitioned_world();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let clean = funnel(1)
        .assess_change_with(&world, world.topology(), &record, &kinds)
        .unwrap();
    let source = PanicsMidDetection {
        inner: &world,
        key: poisoned::server_key(&clean.items),
        minute: record.minute + 5,
    };
    assert!(clean
        .items
        .last()
        .is_some_and(|item| item.key != source.key));
    for workers in [1, 3, 8] {
        let got = funnel(workers)
            .assess_change_with(&source, world.topology(), &record, &kinds)
            .unwrap();
        only_quarantined(&clean.items, &got.items, source.key);
    }
}
