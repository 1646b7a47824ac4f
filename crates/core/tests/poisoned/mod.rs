//! A source with one poisoned key, shared by `quarantine.rs` and
//! `obs_determinism.rs`: reading that key's series panics, the model of an
//! input that makes the assessment code itself fall over.
//!
//! The key is a treated server's. A tserver's series is read only by its
//! own work unit (server DiD contrasts against the cservers, and no
//! service-level item aggregates servers), so exactly one unit panics and
//! every other unit reads exactly what the clean run read.

use funnel_core::pipeline::ItemAssessment;
use funnel_core::KpiSource;
use funnel_sim::kpi::KpiKey;
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_topology::impact::Entity;
use std::borrow::Cow;

/// `inner` with `key`'s series poisoned; every other read passes through.
pub struct Poisoned<S> {
    pub inner: S,
    pub key: KpiKey,
}

impl<S: KpiSource> KpiSource for Poisoned<S> {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        assert!(*key != self.key, "poisoned work unit {key:?}");
        self.inner.series(key)
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        self.inner.coverage(key, from, to)
    }

    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        self.inner.mask(key)
    }
}

/// The first treated-server item's key: the one to poison.
pub fn server_key<'a>(items: impl IntoIterator<Item = &'a ItemAssessment>) -> KpiKey {
    items
        .into_iter()
        .map(|item| item.key)
        .find(|key| matches!(key.entity, Entity::Server(_)))
        .expect("no treated-server item to poison")
}
