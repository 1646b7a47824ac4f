//! The one join between an assessed item and what the world injected.
//!
//! Every evaluation in the repository (the §4.1 cohort, the deployment
//! week, the calibration sweeps, the fault and partition cohorts) scores
//! items the same way: an item whose injected effect clears the 3σ
//! prominence bar is a real KPI change, an item with no injected effect is
//! not, and an item with an effect below the bar is ambiguous (the paper's
//! operators only labelled clear behaviour changes) and is scored by nobody.

use funnel_sim::kpi::KpiKey;
use funnel_sim::world::{GroundTruthItem, World};
use funnel_timeseries::series::MinuteBin;
use funnel_topology::change::ChangeId;
use std::collections::BTreeMap;

/// A world's ground truth, indexed by (change, KPI).
#[derive(Debug, Clone)]
pub struct GroundTruth(BTreeMap<(ChangeId, KpiKey), GroundTruthItem>);

impl GroundTruth {
    /// Indexes every effect `world` injected.
    pub fn of(world: &World) -> Self {
        let items = world.ground_truth().into_iter();
        Self(items.map(|g| ((g.change, g.key), g)).collect())
    }

    /// Whether `change` truly changed `key`: `Some(true)` for a prominent
    /// injected effect, `Some(false)` for none, `None` for an ambiguous one.
    pub fn label(&self, change: ChangeId, key: KpiKey) -> Option<bool> {
        match self.0.get(&(change, key)) {
            Some(g) if g.is_prominent() => Some(true),
            Some(_) => None,
            None => Some(false),
        }
    }

    /// The minute the effect `change` injected into `key` starts, if any.
    pub fn onset(&self, change: ChangeId, key: KpiKey) -> Option<MinuteBin> {
        self.0.get(&(change, key)).map(|g| g.onset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_sim::kpi::KpiKind;
    use funnel_sim::scenario::ads_world;
    use funnel_topology::impact::Entity;

    #[test]
    fn labels_follow_the_injected_effect() {
        let (world, ads, change) = ads_world(3);
        let truth = GroundTruth::of(&world);
        let minute = world.change_log().get(change).expect("logged").minute;
        let clicks = KpiKey::new(Entity::Service(ads), KpiKind::EffectiveClickCount);
        assert_eq!(truth.label(change, clicks), Some(true));
        assert_eq!(truth.onset(change, clicks), Some(minute));
        let views = KpiKey::new(Entity::Service(ads), KpiKind::PageViewCount);
        assert_eq!(truth.label(change, views), Some(false));
        assert_eq!(truth.onset(change, views), None);
    }
}
