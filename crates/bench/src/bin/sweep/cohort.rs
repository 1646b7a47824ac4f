//! The miniature §4.1 cohort the fault and partition grids both replay, and
//! the one way either scores verdicts against its ground truth.

use funnel_core::pipeline::{ChangeAssessment, Funnel, Verdict};
use funnel_eval::confusion::ConfusionMatrix;
use funnel_eval::truth::GroundTruth;
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::KpiKind;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sim::MetricStore;
use funnel_topology::change::{ChangeId, ChangeKind};

/// Agent shards for every cohort replay.
pub const SHARDS: usize = 4;
/// Deployment window start: day 7, 09:00.
pub const T0: u64 = 7 * 1440 + 9 * 60;

/// Four services, two genuinely harmful changes, two no-op changes, all
/// deployed dark-launch style 35 minutes apart from [`T0`]: sized for
/// repeated full replays.
pub struct Cohort {
    pub world: World,
    pub funnel: Funnel,
    changes: Vec<ChangeId>,
    truth: GroundTruth,
}

impl Cohort {
    pub fn new(seed: u64) -> Self {
        let mut b = WorldBuilder::new(SimConfig::days(seed, 10));
        let services = ["prod.search", "prod.feed", "prod.ads", "prod.pay"]
            .map(|name| b.add_service(name, 6).expect("fresh"));
        let shift = |kind, delta| {
            ChangeEffect::none().with_level_shift(kind, EffectScope::TreatedInstances, delta)
        };
        let rollouts = [
            (
                ChangeKind::Upgrade,
                2,
                shift(KpiKind::PageViewResponseDelay, 80.0),
                "search ranker v5",
            ),
            (
                ChangeKind::ConfigChange,
                3,
                shift(KpiKind::AccessFailureCount, 25.0),
                "feed cache rewrite",
            ),
            (ChangeKind::Upgrade, 2, ChangeEffect::none(), "ads noop"),
            (
                ChangeKind::ConfigChange,
                3,
                ChangeEffect::none(),
                "pay noop",
            ),
        ];
        let mut changes = Vec::new();
        for (i, (kind, treated, effect, what)) in rollouts.into_iter().enumerate() {
            let minute = T0 + 35 * i as u64;
            let id = b.deploy_change(kind, services[i], treated, minute, effect, what);
            changes.push(id.expect("valid"));
        }
        let world = b.build();
        let truth = GroundTruth::of(&world);
        Self {
            world,
            funnel: Funnel::paper_default(),
            changes,
            truth,
        }
    }

    /// Assesses every change of the cohort against `store`, in cohort order.
    pub fn assess(&self, store: &MetricStore) -> Vec<ChangeAssessment> {
        self.changes
            .iter()
            .map(|&id| {
                let record = self.world.change_log().get(id).expect("logged");
                self.funnel
                    .assess_change_with(store, self.world.topology(), record, &|s| {
                        self.world.kinds_of_service(s).to_vec()
                    })
                    .expect("assessable")
            })
            .collect()
    }

    /// Scores assessments against ground truth. Inconclusive items count as
    /// abstentions (predicted negative) and are tallied separately;
    /// sub-prominence effects are ambiguous even with perfect telemetry and
    /// are skipped, as the cohort evaluator does.
    pub fn score(&self, assessments: &[ChangeAssessment]) -> Tally {
        let mut tally = Tally::default();
        for assessment in assessments {
            for item in &assessment.items {
                let Some(actual) = self.truth.label(assessment.change, item.key) else {
                    continue;
                };
                tally.items += 1;
                tally.coverage_sum += item.quality.coverage;
                tally.inconclusive += usize::from(item.verdict.is_inconclusive());
                tally.matrix.record(actual, item.verdict == Verdict::Caused);
            }
        }
        tally
    }
}

/// Verdict quality over one set of assessments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    matrix: ConfusionMatrix,
    pub items: usize,
    inconclusive: usize,
    coverage_sum: f64,
}

impl Tally {
    pub fn tpr(&self) -> f64 {
        self.matrix.rates().recall
    }

    pub fn fpr(&self) -> f64 {
        1.0 - self.matrix.rates().tnr
    }

    pub fn inconclusive_rate(&self) -> f64 {
        self.per_item(self.inconclusive as f64)
    }

    pub fn mean_coverage(&self) -> f64 {
        self.per_item(self.coverage_sum)
    }

    fn per_item(&self, total: f64) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            total / self.items as f64
        }
    }
}
