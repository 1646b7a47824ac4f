//! Healed-span re-assessment.
//!
//! A network partition leaves assessment windows with one long coverage gap;
//! the pipeline reports those items `Inconclusive { awaiting_backfill: true }`
//! rather than attributing (or clearing) a change on forward-filled data.
//! When the partition heals, the collector backfills the dark span into the
//! metric store — at which point those interim verdicts *can* be firmed up,
//! but only by re-running the assessment over the now-real data.
//!
//! [`Funnel::reassess`] is that step, and it keeps no state: which items
//! still await backfill is read off the assessment, and which windows healed
//! off the source. A process that crashed between the interim assessment and
//! the heal needs only its recovered store: the interim assessment is a pure
//! function of it, and calling [`Funnel::reassess`] on that assessment
//! carries on where the crashed process stopped.

use crate::config::MIN_COVERAGE;
use crate::pipeline::{ChangeAssessment, Funnel, FunnelError};
use crate::source::KpiSource;
use funnel_sim::kpi::KpiKey;
use funnel_topology::change::SoftwareChange;
use funnel_topology::model::Topology;

impl Funnel {
    /// Re-runs every `awaiting_backfill` item of `assessment` whose window
    /// coverage in `source` has reached [`MIN_COVERAGE`] and replaces
    /// those items in place, returning how many it replaced. The re-runs go
    /// through the same fan-out/merge engine as the batch pipeline
    /// ([`Funnel::assess_keys`]), so a large post-heal backlog clears at the
    /// configured worker count. Items below the trigger are left as they
    /// are; a re-run that still reports `awaiting_backfill` (the heal was
    /// partial) is re-run again by the next call. An assessment of another
    /// change than `change` re-runs nothing.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the re-run; `assessment` is left
    /// unchanged in that case.
    pub fn reassess(
        &self,
        assessment: &mut ChangeAssessment,
        source: &(impl KpiSource + Sync),
        topology: &Topology,
        change: &SoftwareChange,
    ) -> Result<usize, FunnelError> {
        funnel_obs::timeline::set_window(change.minute);
        if assessment.change != change.id {
            return Ok(0);
        }
        let healed: Vec<KpiKey> = assessment
            .awaiting_backfill_items()
            .filter(|item| source.coverage(&item.key, item.window.0, item.window.1) >= MIN_COVERAGE)
            .map(|item| item.key)
            .collect();
        if healed.is_empty() {
            return Ok(0);
        }

        // Re-run everything first: an error must not half-replace the items.
        let upgrades = self.assess_keys(source, topology, change, &healed)?;
        let mut replaced = 0;
        for upgrade in upgrades {
            if let Some(slot) = assessment.items.iter_mut().find(|i| i.key == upgrade.key) {
                *slot = upgrade;
                replaced += 1;
            }
        }
        Ok(replaced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_sim::agent::{replay_prefix, replay_with_faults};
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
    use funnel_sim::kpi::KpiKind;
    use funnel_sim::store::MetricStore;
    use funnel_sim::world::{SimConfig, World, WorldBuilder};
    use funnel_timeseries::mask::CoverageMask;
    use funnel_timeseries::series::{MinuteBin, TimeSeries};
    use funnel_topology::change::{ChangeId, ChangeKind};
    use std::borrow::Cow;

    /// A dark-launch world where a partition darkens the treated zone right
    /// across the change minute, healing by staggered catch-up later.
    fn partitioned_world(delta: f64) -> (World, ChangeId, FaultPlan) {
        let mut b = WorldBuilder::new(SimConfig::days(31, 8));
        let svc = b.add_service("prod.part", 6).unwrap();
        let effect = if delta != 0.0 {
            ChangeEffect::none().with_level_shift(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                delta,
            )
        } else {
            ChangeEffect::none()
        };
        let minute = 7 * 1440 + 300;
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "t")
            .unwrap();
        let world = b.build();
        let plan = FaultPlan::none().with_partition(PartitionWindow {
            scope: PartitionScope::Collector,
            start: minute - 20,
            duration: 45,
            heal: HealMode::StaggeredCatchUp {
                queue: 64,
                per_minute: 1,
            },
        });
        (world, id, plan)
    }

    /// The assessment of `change` over the partition still open: the replay
    /// cut off 15 minutes past the change minute.
    fn interim(
        world: &World,
        change: &SoftwareChange,
        plan: &FaultPlan,
    ) -> (MetricStore, ChangeAssessment) {
        let store = MetricStore::new();
        let open = change.minute as usize + 15;
        replay_prefix(world, &store, 3, plan.clone(), open).unwrap();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();
        let assessment = Funnel::paper_default()
            .assess_change_with(&store, world.topology(), change, &kinds)
            .unwrap();
        (store, assessment)
    }

    fn healed(world: &World, plan: FaultPlan) -> MetricStore {
        let store = MetricStore::new();
        replay_with_faults(world, &store, 3, plan).unwrap();
        store
    }

    #[test]
    fn interim_inconclusive_upgrades_after_heal() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();

        // Phase 1: the partition is still open: the treated KPIs sit behind
        // a 30+-minute gap, so the interim assessment must refuse a verdict
        // but flag it repairable.
        let (interim_store, mut interim) = interim(&world, &record, &plan);
        let awaiting = interim.awaiting_backfill_items().count();
        assert!(awaiting > 0, "open partition produced no repairable items");

        // Against the still-dark store nothing has healed.
        let topology = world.topology();
        let unchanged = format!("{interim:?}");
        let replaced = funnel.reassess(&mut interim, &interim_store, topology, &record);
        assert_eq!(replaced, Ok(0));
        assert_eq!(format!("{interim:?}"), unchanged);

        // Phase 2: full replay — the staggered catch-up backfills the dark
        // span, so every awaiting window heals and every item is re-run.
        let healed_store = healed(&world, plan);
        let replaced = funnel.reassess(&mut interim, &healed_store, topology, &record);
        assert_eq!(replaced, Ok(awaiting));
        assert_eq!(interim.awaiting_backfill_items().count(), 0);

        // The real impact — invisible during the partition — is now
        // attributed.
        let treated_delay_caused = interim.caused_items().any(|i| {
            i.key.kind == KpiKind::PageViewResponseDelay
                && matches!(i.key.entity, funnel_topology::impact::Entity::Instance(_))
        });
        assert!(
            treated_delay_caused,
            "post-heal re-assessment missed the real impact"
        );
    }

    /// Firm items are never re-run: a second call on the healed store — what
    /// a loop does on its next turn, or a process that recovered after the
    /// first call — replaces nothing. An assessment of another change is
    /// left alone too.
    #[test]
    fn restored_queue_survives_without_double_upgrading() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();
        let (_, mut interim) = interim(&world, &record, &plan);
        let healed_store = healed(&world, plan);
        let topology = world.topology();

        let other = SoftwareChange {
            id: ChangeId(change.0 + 1),
            ..record.clone()
        };
        let mut untouched = interim.clone();
        let replaced = funnel.reassess(&mut untouched, &healed_store, topology, &other);
        assert_eq!(replaced, Ok(0));
        assert_eq!(format!("{untouched:?}"), format!("{interim:?}"));

        let replaced = funnel.reassess(&mut interim, &healed_store, topology, &record);
        assert!(replaced.unwrap() > 0);
        let upgraded = format!("{interim:?}");
        let again = funnel.reassess(&mut interim, &healed_store, topology, &record);
        assert_eq!(again, Ok(0), "items were upgraded twice");
        assert_eq!(format!("{interim:?}"), upgraded);
    }

    #[test]
    fn unhealed_items_stay_queued() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let (store, mut interim) = interim(&world, &record, &plan);
        let before = interim.awaiting_backfill_items().count();
        assert!(before > 0);

        // Reassessing against the same unhealed store re-runs nothing and
        // firms up nothing.
        let replaced =
            Funnel::paper_default().reassess(&mut interim, &store, world.topology(), &record);
        assert_eq!(replaced, Ok(0));
        assert_eq!(interim.awaiting_backfill_items().count(), before);
    }

    #[test]
    fn healed_replay_produces_no_queue_entries() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();

        // Full healed replay straight away: nothing awaits backfill, so
        // there is nothing to re-run.
        let store = healed(&world, plan);
        let mut assessment = funnel
            .assess_change_with(&store, world.topology(), &record, &kinds)
            .unwrap();
        assert_eq!(assessment.awaiting_backfill_items().count(), 0);
        let replaced = funnel.reassess(&mut assessment, &store, world.topology(), &record);
        assert_eq!(replaced, Ok(0));
    }

    /// `inner` with every window reported healed and one key's series gone.
    struct HealedButMissing<'a> {
        inner: &'a MetricStore,
        missing: KpiKey,
    }

    impl KpiSource for HealedButMissing<'_> {
        fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
            self.inner
                .get(key)
                .filter(|_| *key != self.missing)
                .map(Cow::Owned)
        }

        fn coverage(&self, _: &KpiKey, _: MinuteBin, _: MinuteBin) -> f64 {
            1.0
        }

        fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
            self.inner.mask(key).map(Cow::Owned)
        }
    }

    /// A re-run that fails changes nothing: the items that did re-run are
    /// not swapped in ahead of the one that failed. The missing key is the
    /// last awaiting one, so that a call replacing each item as it re-runs
    /// would have replaced the others first.
    #[test]
    fn a_failed_rerun_leaves_the_assessment_as_it_was() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let (store, mut interim) = interim(&world, &record, &plan);
        let awaiting: Vec<KpiKey> = interim.awaiting_backfill_items().map(|i| i.key).collect();
        assert!(awaiting.len() > 1);
        let missing = *awaiting.last().unwrap();
        let source = HealedButMissing {
            inner: &store,
            missing,
        };

        let before = format!("{interim:?}");
        let replaced =
            Funnel::paper_default().reassess(&mut interim, &source, world.topology(), &record);
        assert_eq!(replaced, Err(FunnelError::MissingSeries(missing)));
        assert_eq!(format!("{interim:?}"), before);
    }
}
