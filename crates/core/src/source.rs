//! Abstraction over where KPI series come from.
//!
//! The batch pipeline reads from either a frozen [`World`] (evaluation), a
//! live [`MetricStore`] (deployment), or a [`StoreSnapshot`] — a frozen,
//! lock-free view of a live store, the preferred source when fanning an
//! assessment across workers ([`crate::parallel`]): every worker reads the
//! same instant of the store without ever touching its locks, and reads it
//! in place. All expose the same contract: a dense one-minute series per
//! KPI key.

use funnel_detect::outcomes::Outcomes;
use funnel_sim::kpi::KpiKey;
use funnel_sim::store::{MetricStore, StoreSnapshot};
use funnel_sim::world::World;
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use std::borrow::Cow;

/// A provider of KPI series.
///
/// Series and masks come back as [`Cow`]s: a source that holds them
/// immutably for as long as it is borrowed (a [`StoreSnapshot`]) lends
/// them, and one that must build them or read them from behind a lock
/// (a [`World`], a live [`MetricStore`], the streaming engine's rings)
/// hands out owned values. The two read the same.
pub trait KpiSource {
    /// The full series for `key`, if the key exists.
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>>;

    /// Fraction of `[from, to)` backed by real measurements for `key`.
    /// Sources that cannot degrade (a frozen [`World`]) report full
    /// coverage; the live [`MetricStore`] reports its coverage mask, so the
    /// pipeline can tell measured data from substrate gap-fills. A source
    /// with a [`KpiSource::mask`] must answer what the mask says: an item
    /// reads its own coverage off its mask's gaps, and asks this only of
    /// keys it does not read the mask of (a control group's members).
    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        let _ = (key, from, to);
        1.0
    }

    /// The per-bin coverage mask for `key`, when the source tracks one.
    /// `None` (the default, and what degradation-free sources return) means
    /// "everything real": the pipeline then skips gap analysis entirely.
    /// The shape of the gaps matters beyond the coverage *fraction* — one
    /// contiguous partition-length gap flags an item for post-backfill
    /// re-assessment, while the same minutes lost as scattered frames do
    /// not.
    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        let _ = key;
        None
    }

    /// What the source already knows of the SST windows of `key`, decided
    /// minute by minute over the very samples [`KpiSource::series`] returns,
    /// by this pipeline's scorer at its threshold. The detector recalls from
    /// it instead of asking the scorer again. Stores and worlds score
    /// nothing as they ingest and keep the default, `()`, which knows
    /// nothing and compiles away; the streaming engine's ring view hands out
    /// what the key's live monitor recorded.
    fn outcomes(&self, key: &KpiKey) -> impl Outcomes + '_ {
        let _ = key;
    }
}

/// Generates the series on every call.
impl KpiSource for World {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        World::series(self, key).ok().map(Cow::Owned)
    }
}

/// Copies out from behind the store's lock: a writer may change the
/// series as soon as the read ends.
impl KpiSource for MetricStore {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        self.get(key).map(Cow::Owned)
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        MetricStore::coverage(self, key, from, to)
    }

    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        MetricStore::mask(self, key).map(Cow::Owned)
    }
}

/// Lends from the frozen slab: no read copies anything.
impl KpiSource for StoreSnapshot {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        self.held(key).map(|(series, _)| Cow::Borrowed(series))
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        StoreSnapshot::coverage(self, key, from, to)
    }

    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        self.held(key).map(|(_, mask)| Cow::Borrowed(mask))
    }
}

impl<T: KpiSource + ?Sized> KpiSource for &T {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        (**self).series(key)
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        (**self).coverage(key, from, to)
    }

    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        (**self).mask(key)
    }

    fn outcomes(&self, key: &KpiKey) -> impl Outcomes + '_ {
        (**self).outcomes(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FunnelConfig;
    use crate::stream::{StreamConfig, StreamEngine};
    use funnel_sim::kpi::KpiKind;
    use funnel_sim::live::LiveFeed;
    use funnel_sim::world::{SimConfig, WorldBuilder};
    use funnel_topology::impact::Entity;
    use funnel_topology::model::ServerId;
    use std::collections::BTreeMap;

    #[test]
    fn world_and_store_agree() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 2,
            start: 0,
            duration: 60,
        });
        b.add_service("prod.t", 1).unwrap();
        let world = b.build();
        let store = world.materialize().unwrap();
        let key = KpiKey::new(Entity::Server(ServerId(0)), KpiKind::CpuUtilization);
        let a = KpiSource::series(&world, &key).unwrap();
        let b2 = KpiSource::series(&store, &key).unwrap();
        assert_eq!(a, b2);
        // Unknown key yields None from both.
        let bogus = KpiKey::new(Entity::Server(ServerId(99)), KpiKind::CpuUtilization);
        assert!(KpiSource::series(&world, &bogus).is_none());
        assert!(KpiSource::series(&store, &bogus).is_none());
    }

    #[test]
    fn coverage_defaults_full_and_store_reports_mask() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 2,
            start: 0,
            duration: 60,
        });
        b.add_service("prod.t", 1).unwrap();
        let world = b.build();
        let key = KpiKey::new(Entity::Server(ServerId(0)), KpiKind::CpuUtilization);
        // A frozen world cannot degrade.
        assert_eq!(KpiSource::coverage(&world, &key, 0, 60), 1.0);
        // A store reports only the minutes really appended.
        let store = funnel_sim::MetricStore::new();
        store.append(key, 0, 1.0);
        store.append(key, 3, 1.0); // 1, 2 are fills
        assert_eq!(KpiSource::coverage(&store, &key, 0, 4), 0.5);
        // And only the store exposes the mask itself.
        assert!(KpiSource::mask(&world, &key).is_none());
        let mask = KpiSource::mask(&store, &key).expect("store tracks a mask");
        assert!(mask.is_present(0) && mask.is_present(3));
        assert!(!mask.is_present(1) && !mask.is_present(2));
    }

    #[test]
    fn snapshot_source_matches_store_source() {
        let key = KpiKey::new(Entity::Server(ServerId(0)), KpiKind::CpuUtilization);
        let store = funnel_sim::MetricStore::new();
        store.append(key, 0, 1.0);
        store.append(key, 3, 2.0);
        let snap = store.snapshot();
        assert_eq!(
            KpiSource::series(&snap, &key),
            KpiSource::series(&store, &key)
        );
        assert_eq!(
            KpiSource::coverage(&snap, &key, 0, 4),
            KpiSource::coverage(&store, &key, 0, 4)
        );
        assert!(KpiSource::mask(&snap, &key).is_some());
        // The snapshot is frozen: later appends do not reach it.
        store.append(key, 4, 9.0);
        assert_eq!(KpiSource::coverage(&snap, &key, 0, 5), 0.4);
    }

    #[test]
    fn a_snapshot_lends_what_every_other_source_reads_alike() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 4,
            start: 0,
            duration: 90,
        });
        b.add_service("prod.t", 2).unwrap();
        let world = b.build();
        let store = world.materialize().unwrap();
        // A key the world does not know, with two forward-filled minutes.
        let gapped = KpiKey::new(Entity::Server(ServerId(99)), KpiKind::CpuUtilization);
        store.append(gapped, 10, 1.0);
        store.append(gapped, 13, 2.0);
        let snap = store.snapshot();
        let config = FunnelConfig::paper_default();
        let stream = StreamConfig::paired_with(&config);
        let mut engine = StreamEngine::new(config, stream, BTreeMap::new());
        for (_, batch) in LiveFeed::from_store(&store).arrivals() {
            for &m in batch {
                engine.offer(m);
            }
        }
        let rings = engine.ring_view();

        let keys = snap.keys();
        assert!(keys.len() > 2 && keys.contains(&gapped));
        for key in keys {
            let (Some(series), Some(mask)) =
                (KpiSource::series(&snap, &key), KpiSource::mask(&snap, &key))
            else {
                panic!("{key:?} is held");
            };
            assert!(matches!(series, Cow::Borrowed(_)), "{key:?}: a copy");
            assert!(matches!(mask, Cow::Borrowed(_)), "{key:?}: a copy");
            assert_eq!(Some(&*series), snap.get(&key).as_ref(), "{key:?}");
            assert_eq!(Some(&*mask), snap.mask(&key).as_ref(), "{key:?}");

            assert_eq!(
                KpiSource::series(&store, &key).as_deref(),
                Some(&*series),
                "{key:?}"
            );
            assert_eq!(
                KpiSource::mask(&store, &key).as_deref(),
                Some(&*mask),
                "{key:?}"
            );
            assert_eq!(rings.series(&key).as_deref(), Some(&*series), "{key:?}");
            assert_eq!(rings.mask(&key).as_deref(), Some(&*mask), "{key:?}");
            let generated = KpiSource::series(&world, &key);
            if key == gapped {
                assert!(generated.is_none());
            } else {
                assert_eq!(generated.as_deref(), Some(&*series), "{key:?}");
            }
            assert!(KpiSource::mask(&world, &key).is_none());
        }
    }
}
