//! One shared memo table of control-group window fetches per assessment.
//!
//! Every impact-set item at the same entity level shares one control group:
//! all tserver items of a KPI kind contrast against the *same* cserver
//! series, all tinstance items against the same cinstances (§3.2.4). A naive
//! fan-out therefore re-fetches (and re-clones) the control series once per
//! treated item — for a 100-server impact set that is 100× redundant work on
//! the hot path.
//!
//! [`ControlCache`] removes that redundancy: one table per assessment,
//! shared by `&` across every worker, keyed by whatever the caller derives
//! from the item — the pipeline uses `(entity level, KPI kind)`. Each key's
//! value is built exactly once, by whichever worker asks first; workers that
//! ask for the same key meanwhile wait for that build instead of repeating
//! it, and the lock around the key index is never held while a value is
//! built. Values sit behind an [`Arc`], so lookups hand out cheap shared
//! references.
//!
//! Determinism: the table only ever stores values computed from the
//! assessment's read-only snapshot of the metric store, so a hit returns
//! byte-identical data to a recomputation. And because a key is built once
//! per table whatever the schedule, the counters are schedule-free too:
//! misses equal the distinct keys built, hits equal lookups − misses, at
//! any worker count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hit/miss counters for one cache (monotonic over its lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One key's value, built at most once and shared from then on.
type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// A shared memo table for control-group window data.
///
/// `K` is the caller's cache key (the assessment pipeline uses
/// `(entity level, KPI kind)`); `V` is the fetched window payload. A
/// `BTreeMap` keeps iteration — should a caller ever expose cache contents —
/// deterministic, per the workspace-wide ordering invariant.
///
/// # Example
///
/// ```
/// use funnel_did::cache::ControlCache;
///
/// let cache: ControlCache<u32, Vec<f64>> = ControlCache::new();
/// let a = cache.get_or_insert_with(7, || vec![1.0, 2.0]);
/// let b = cache.get_or_insert_with(7, || unreachable!("cached"));
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct ControlCache<K, V> {
    slots: Mutex<BTreeMap<K, Slot<V>>>,
    /// Lookups that returned a value (a build that panicked returned none).
    lookups: AtomicU64,
    /// Values built: one per distinct key, whatever the schedule.
    misses: AtomicU64,
}

impl<K: Ord, V> Default for ControlCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> ControlCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The key index. Held only to find or add a slot, never while a value
    /// is built, so a panicking `build` cannot interrupt an update of it
    /// and a poisoned guard still covers a valid map.
    fn slots(&self) -> MutexGuard<'_, BTreeMap<K, Slot<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, building and storing it with
    /// `build` on first use. The value is shared (`Arc`), never cloned.
    /// Concurrent callers for one key run one `build` between them; a
    /// `build` that panics leaves the key unbuilt for the next caller.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let slot = Arc::clone(self.slots().entry(key).or_default());
        let value = Arc::clone(slot.get_or_init(|| {
            let built = Arc::new(build());
            self.misses.fetch_add(1, Ordering::Relaxed);
            built
        }));
        self.lookups.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Number of distinct keys held.
    pub fn len(&self) -> usize {
        self.slots().values().filter(|s| s.get().is_some()).count()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        let misses = self.misses.load(Ordering::Relaxed);
        CacheStats {
            hits: self.lookups.load(Ordering::Relaxed).saturating_sub(misses),
            misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_and_shares() {
        let cache: ControlCache<(u8, u8), Vec<f64>> = ControlCache::new();
        let mut builds = 0;
        for _ in 0..5 {
            let v = cache.get_or_insert_with((1, 2), || {
                builds += 1;
                vec![3.0; 4]
            });
            assert_eq!(v.len(), 4);
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache: ControlCache<u32, u32> = ControlCache::new();
        assert_eq!(*cache.get_or_insert_with(1, || 10), 10);
        assert_eq!(*cache.get_or_insert_with(2, || 20), 20);
        assert_eq!(*cache.get_or_insert_with(1, || 99), 10);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache: ControlCache<u32, u32> = ControlCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn never_evicts_and_len_tracks_distinct_keys() {
        // The cache is eviction-free by design: the key space is tiny
        // (entity level × KPI kind), so every insert stays resident and a
        // later lookup always returns the *same* allocation.
        let cache: ControlCache<u32, u32> = ControlCache::new();
        let first: Vec<_> = (0..100)
            .map(|k| cache.get_or_insert_with(k, || k * 2))
            .collect();
        assert_eq!(cache.len(), 100);
        for (k, original) in first.iter().enumerate() {
            let again = cache.get_or_insert_with(k as u32, || panic!("key {k} was rebuilt"));
            assert!(Arc::ptr_eq(original, &again), "key {k} was evicted");
        }
        assert_eq!(cache.len(), 100, "re-lookups must not grow the cache");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (100, 100));
    }

    #[test]
    fn racing_workers_build_each_key_once() {
        // Eight barrier-started threads ask for the same three keys: one
        // build per key, and counters no schedule can move.
        let cache: ControlCache<u32, u32> = ControlCache::new();
        let builds = AtomicU64::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    for round in 0..30u32 {
                        let key = round % 3;
                        let v = cache.get_or_insert_with(key, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            key * 10
                        });
                        assert_eq!(*v, key * 10);
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 3);
        assert_eq!(cache.len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (3, 8 * 30 - 3));
    }

    #[test]
    fn a_panicking_build_leaves_the_key_for_the_next_caller() {
        let cache: ControlCache<u32, u32> = ControlCache::new();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(1, || panic!("poisoned build"))
        }));
        assert!(crashed.is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(*cache.get_or_insert_with(1, || 11), 11);
        assert_eq!(*cache.get_or_insert_with(1, || 99), 11);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn stats_accumulate_monotonically() {
        let cache: ControlCache<u8, u8> = ControlCache::new();
        for i in 0..10u8 {
            cache.get_or_insert_with(i % 3, || i);
            let s = cache.stats();
            assert_eq!(
                s.hits + s.misses,
                u64::from(i) + 1,
                "every lookup is counted once"
            );
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3, "one miss per distinct key");
        assert_eq!(s.hits, 7);
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
    }
}
