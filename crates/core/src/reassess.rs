//! Healed-span re-assessment.
//!
//! A network partition leaves assessment windows with one long coverage gap;
//! the pipeline reports those items `Inconclusive { awaiting_backfill: true }`
//! rather than attributing (or clearing) a change on forward-filled data.
//! When the partition heals, the collector backfills the dark span into the
//! metric store — at which point those interim verdicts *can* be firmed up,
//! but only by re-running the assessment over the now-real data.
//!
//! [`ReassessmentQueue`] is that loop: [`absorb`](ReassessmentQueue::absorb)
//! the repairable items of an interim assessment, poll
//! [`ready`](ReassessmentQueue::ready) as backfill lands, and
//! [`reassess`](ReassessmentQueue::reassess) once a window's healed coverage
//! crosses [`REASSESS_COVERAGE`] — feeding the firm verdicts
//! back into the delivered report via
//! [`ChangeAssessment::apply_upgrades`](crate::pipeline::ChangeAssessment::apply_upgrades).
//!
//! An item whose re-run still comes back `awaiting_backfill` (the heal was
//! partial) stays queued; anything else — firm verdict, or inconclusive for
//! a reason backfill cannot repair — leaves the queue, so the loop always
//! terminates.

use crate::config::REASSESS_COVERAGE;
use crate::pipeline::{ChangeAssessment, Funnel, FunnelError, ItemAssessment};
use crate::source::KpiSource;
use funnel_sim::kpi::KpiKey;
use funnel_timeseries::series::MinuteBin;
use funnel_topology::change::{ChangeId, SoftwareChange};
use funnel_topology::model::Topology;
use std::collections::BTreeSet;

/// One queued item: a KPI whose interim verdict a healed partition span
/// could upgrade.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingItem {
    /// The software change the item belongs to.
    pub change: ChangeId,
    /// The assessed KPI.
    pub key: KpiKey,
    /// The `[from, to)` assessment window that must heal.
    pub window: (MinuteBin, MinuteBin),
    /// Coverage the window must reach before the re-run fires
    /// ([`REASSESS_COVERAGE`] at absorb time; a field because the
    /// checkpoint format carries it).
    pub required_coverage: f64,
}

/// A queue of partition-blocked verdicts awaiting collector backfill.
#[derive(Debug, Clone, Default)]
pub struct ReassessmentQueue {
    pending: Vec<PendingItem>,
    /// (change, KPI) pairs whose re-run already produced a firm verdict.
    /// Recovery re-derives interim assessments and absorbs them again; this
    /// memory keeps an already-upgraded item from re-entering the queue and
    /// being upgraded twice (which would double-count obs counters and let
    /// a later re-run silently overwrite a delivered verdict).
    applied: BTreeSet<(ChangeId, KpiKey)>,
}

/// The queue's complete durable state — what a recovery checkpoint
/// serializes. Plain data, order preserved, no behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueueState {
    /// Absorbed-but-not-yet-firm items, in absorb order.
    pub pending: Vec<PendingItem>,
    /// (change, KPI) pairs already upgraded to a firm verdict, sorted.
    pub applied: Vec<(ChangeId, KpiKey)>,
}

impl ReassessmentQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queue's durable state, for checkpointing. Deterministic:
    /// `pending` keeps absorb order, `applied` is sorted.
    pub fn export_state(&self) -> QueueState {
        QueueState {
            pending: self.pending.clone(),
            applied: self.applied.iter().cloned().collect(),
        }
    }

    /// Rebuilds a queue from checkpointed state. Items that were absorbed
    /// but not yet ready resume waiting for their windows to heal; the
    /// applied memory keeps re-absorbed interim assessments from
    /// double-upgrading verdicts that were already firmed before the crash.
    pub fn from_state(state: QueueState) -> Self {
        Self {
            pending: state.pending,
            applied: state.applied.into_iter().collect(),
        }
    }

    /// Number of items still waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The queued items, in absorb order.
    pub fn pending(&self) -> &[PendingItem] {
        &self.pending
    }

    /// Enqueues every `awaiting_backfill` item of an interim assessment,
    /// with [`REASSESS_COVERAGE`] as the trigger.
    /// Items already queued for the same (change, KPI) — or already
    /// upgraded to a firm verdict by an earlier
    /// [`ReassessmentQueue::reassess`] run (possibly before a crash, via
    /// the checkpointed applied memory) — are not (re-)added. Returns how
    /// many items were added.
    pub fn absorb(&mut self, assessment: &ChangeAssessment) -> usize {
        let mut added = 0;
        for item in assessment.awaiting_backfill_items() {
            let dup = self
                .pending
                .iter()
                .any(|p| p.change == assessment.change && p.key == item.key)
                || self.applied.contains(&(assessment.change, item.key));
            if dup {
                continue;
            }
            self.pending.push(PendingItem {
                change: assessment.change,
                key: item.key,
                window: item.window,
                required_coverage: REASSESS_COVERAGE,
            });
            added += 1;
        }
        added
    }

    /// Items whose assessment window now meets its required coverage — the
    /// ones [`ReassessmentQueue::reassess`] would re-run against `source`.
    pub fn ready<'a>(&'a self, source: &impl KpiSource) -> Vec<&'a PendingItem> {
        self.pending
            .iter()
            .filter(|p| source.coverage(&p.key, p.window.0, p.window.1) >= p.required_coverage)
            .collect()
    }

    /// Re-runs every queued item of `change` whose window has healed past
    /// its coverage trigger, returning the fresh assessments in key-sorted
    /// order (pass them to [`ChangeAssessment::apply_upgrades`]). The
    /// re-runs go through the same fan-out/merge engine as the batch
    /// pipeline ([`Funnel::assess_keys`]), so a large post-heal backlog
    /// clears at the configured worker count. Items below their trigger are
    /// left queued untouched; a re-run that still reports
    /// `awaiting_backfill` keeps its item queued for the next heal.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the re-run; the queue is left
    /// unchanged in that case.
    pub fn reassess(
        &mut self,
        funnel: &Funnel,
        source: &(impl KpiSource + Sync),
        topology: &Topology,
        change: &SoftwareChange,
    ) -> Result<Vec<ItemAssessment>, FunnelError> {
        funnel_obs::timeline::set_window(change.minute);
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_REASSESS);
        let ready_keys: Vec<KpiKey> = self
            .pending
            .iter()
            .filter(|p| {
                p.change == change.id
                    && source.coverage(&p.key, p.window.0, p.window.1) >= p.required_coverage
            })
            .map(|p| p.key)
            .collect();
        if ready_keys.is_empty() {
            return Ok(Vec::new());
        }

        // Re-run everything first: an error must not half-drain the queue.
        let upgrades = funnel.assess_keys(source, topology, change, &ready_keys)?;

        let firm: BTreeSet<KpiKey> = upgrades
            .iter()
            .filter(|item| !item.verdict.awaiting_backfill())
            .map(|item| item.key)
            .collect();
        for key in &firm {
            self.applied.insert((change.id, *key));
        }
        self.pending
            .retain(|p| !(p.change == change.id && firm.contains(&p.key)));
        Ok(upgrades)
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
    use funnel_topology::change::ChangeKind;

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

    #[test]
    fn interim_inconclusive_upgrades_after_heal() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();

        // Phase 1: the partition is still open (replay cut off mid-window):
        // the treated KPIs sit behind a 30+-minute gap, so the interim
        // assessment must refuse a verdict but flag it repairable.
        let interim_store = MetricStore::new();
        replay_prefix(
            &world,
            &interim_store,
            3,
            plan.clone(),
            record.minute as usize + 15,
        )
        .unwrap();
        let mut interim = funnel
            .assess_change_with(&interim_store, world.topology(), &record, &kinds)
            .unwrap();
        let awaiting = interim.awaiting_backfill_items().count();
        assert!(awaiting > 0, "open partition produced no repairable items");

        let mut queue = ReassessmentQueue::new();
        let absorbed = queue.absorb(&interim);
        assert_eq!(absorbed, awaiting);
        // Absorbing twice must not duplicate.
        assert_eq!(queue.absorb(&interim), 0);

        // Against the still-dark store nothing is ready.
        assert!(queue.ready(&interim_store).is_empty());

        // Phase 2: full replay — the staggered catch-up backfills the dark
        // span, so every queued window heals.
        let healed_store = MetricStore::new();
        replay_with_faults(&world, &healed_store, 3, plan).unwrap();
        assert_eq!(queue.ready(&healed_store).len(), queue.len());

        let upgrades = queue
            .reassess(&funnel, &healed_store, world.topology(), &record)
            .unwrap();
        assert!(!upgrades.is_empty());
        assert!(queue.is_empty(), "healed items must leave the queue");
        for up in &upgrades {
            assert!(
                !up.verdict.awaiting_backfill(),
                "{:?} still awaiting backfill after full heal",
                up.key
            );
        }

        // The upgrades land back in the assessment, and the real impact —
        // invisible during the partition — is now attributed.
        let replaced = interim.apply_upgrades(upgrades);
        assert!(replaced > 0);
        assert_eq!(interim.awaiting_backfill_items().count(), 0);
        let treated_delay_caused = interim.caused_items().any(|i| {
            i.key.kind == KpiKind::PageViewResponseDelay
                && matches!(i.key.entity, funnel_topology::impact::Entity::Instance(_))
        });
        assert!(
            treated_delay_caused,
            "post-heal re-assessment missed the real impact"
        );
    }

    #[test]
    fn restored_queue_survives_without_double_upgrading() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();

        let interim_store = MetricStore::new();
        replay_prefix(
            &world,
            &interim_store,
            3,
            plan.clone(),
            record.minute as usize + 15,
        )
        .unwrap();
        let interim = funnel
            .assess_change_with(&interim_store, world.topology(), &record, &kinds)
            .unwrap();
        let mut queue = ReassessmentQueue::new();
        let absorbed = queue.absorb(&interim);
        assert!(absorbed > 0);

        // Crash #1: right after absorb, before anything healed. The
        // restored queue must still hold every absorbed-but-not-yet-ready
        // item.
        let mut queue = ReassessmentQueue::from_state(queue.export_state());
        assert_eq!(queue.len(), absorbed);

        let healed_store = MetricStore::new();
        replay_with_faults(&world, &healed_store, 3, plan).unwrap();
        let upgrades = queue
            .reassess(&funnel, &healed_store, world.topology(), &record)
            .unwrap();
        assert_eq!(upgrades.len(), absorbed);
        assert!(queue.is_empty());

        // Crash #2: after the upgrades were applied. Recovery re-derives
        // the same interim assessment and absorbs it again — the restored
        // applied memory must keep the already-firmed items from
        // resurfacing and being upgraded twice.
        let mut queue = ReassessmentQueue::from_state(queue.export_state());
        assert_eq!(queue.absorb(&interim), 0);
        assert!(queue.is_empty());
        let again = queue
            .reassess(&funnel, &healed_store, world.topology(), &record)
            .unwrap();
        assert!(again.is_empty(), "items were upgraded twice");

        // A state round trip is lossless.
        assert_eq!(queue.export_state(), queue.export_state());
    }

    #[test]
    fn unhealed_items_stay_queued() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();

        let store = MetricStore::new();
        replay_prefix(&world, &store, 3, plan, record.minute as usize + 15).unwrap();
        let interim = funnel
            .assess_change_with(&store, world.topology(), &record, &kinds)
            .unwrap();
        let mut queue = ReassessmentQueue::new();
        queue.absorb(&interim);
        let before = queue.len();
        assert!(before > 0);

        // Reassessing against the same unhealed store re-runs nothing and
        // drops nothing.
        let upgrades = queue
            .reassess(&funnel, &store, world.topology(), &record)
            .unwrap();
        assert!(upgrades.is_empty());
        assert_eq!(queue.len(), before);
    }

    #[test]
    fn healed_replay_produces_no_queue_entries() {
        let (world, change, plan) = partitioned_world(90.0);
        let record = world.change_log().get(change).unwrap().clone();
        let funnel = Funnel::paper_default();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();

        // Full healed replay straight away: nothing should be queued.
        let store = MetricStore::new();
        replay_with_faults(&world, &store, 3, plan).unwrap();
        let assessment = funnel
            .assess_change_with(&store, world.topology(), &record, &kinds)
            .unwrap();
        let mut queue = ReassessmentQueue::new();
        assert_eq!(queue.absorb(&assessment), 0);
        assert!(queue.is_empty());
    }
}
