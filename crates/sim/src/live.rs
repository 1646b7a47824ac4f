//! Deterministic per-minute measurement feed — the driver side of the
//! streaming engine.
//!
//! A [`LiveFeed`] flattens a materialized [`MetricStore`] into the exact
//! sequence of [`Measurement`]s that produced it: for every key (sorted)
//! and every mask-present minute (ascending), one measurement. Replaying
//! the feed in arrival order into any consumer that applies the store's
//! append/forward-fill semantics reproduces the store's series and masks
//! byte-for-byte — which is what makes streaming-versus-batch comparisons
//! meaningful.
//!
//! [`LiveFeed::with_late`] deterministically holds back a seeded fraction
//! of measurements and re-delivers them `delay` minutes later, exercising
//! a consumer's late/out-of-order path without changing the final data:
//! the *content* of the feed is identical, only arrival times move. All
//! seeding goes through the workspace [`splitmix64`] mixer — recorded, never
//! random.

use crate::splitmix64;
use crate::store::{Measurement, MetricStore};
use crate::wire::key_hash;
use funnel_timeseries::series::MinuteBin;
use std::collections::BTreeMap;

/// A deterministic arrival-ordered measurement feed.
#[derive(Debug, Clone, Default)]
pub struct LiveFeed {
    /// Arrival minute → measurements delivered that minute (key-sorted,
    /// original-minute-sorted within a batch).
    arrivals: BTreeMap<MinuteBin, Vec<Measurement>>,
    frames: usize,
}

impl LiveFeed {
    /// Flattens `store` into an in-order feed: each measurement arrives at
    /// its own minute. Keys without an explicit mask (batch-materialized
    /// stores) are treated as fully measured.
    pub fn from_store(store: &MetricStore) -> Self {
        let mut arrivals: BTreeMap<MinuteBin, Vec<Measurement>> = BTreeMap::new();
        let mut frames = 0usize;
        for (key, series, mask) in store.export_entries() {
            for minute in series.start()..series.end() {
                let present = if mask.is_empty() {
                    true
                } else {
                    mask.is_present(minute)
                };
                if !present {
                    continue;
                }
                let Some(value) = series.at(minute) else {
                    continue;
                };
                arrivals
                    .entry(minute)
                    .or_default()
                    .push(Measurement { key, minute, value });
                frames += 1;
            }
        }
        Self { arrivals, frames }
    }

    /// Deterministically delays a fraction of the feed: measurements whose
    /// seeded draw lands below `permille`/1000 arrive `delay` minutes
    /// after their own minute (out of order), the rest stay in order. The
    /// feed's content is unchanged — only arrival times move.
    #[must_use]
    pub fn with_late(self, seed: u64, permille: u64, delay: u64) -> Self {
        let mut arrivals: BTreeMap<MinuteBin, Vec<Measurement>> = BTreeMap::new();
        let mut frames = 0usize;
        for (arrival, batch) in self.arrivals {
            for m in batch {
                let draw = splitmix64(seed ^ key_hash(m.key).rotate_left(17) ^ m.minute) % 1000;
                let when = if draw < permille.min(1000) {
                    arrival + delay
                } else {
                    arrival
                };
                arrivals.entry(when).or_default().push(m);
                frames += 1;
            }
        }
        // Keep per-batch order deterministic: key, then original minute.
        for batch in arrivals.values_mut() {
            batch.sort_by(|a, b| a.key.cmp(&b.key).then(a.minute.cmp(&b.minute)));
        }
        Self { arrivals, frames }
    }

    /// Total measurements in the feed.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the feed carries no measurements.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// First arrival minute, if any.
    pub fn first_minute(&self) -> Option<MinuteBin> {
        self.arrivals.keys().next().copied()
    }

    /// Last arrival minute, if any.
    pub fn last_minute(&self) -> Option<MinuteBin> {
        self.arrivals.keys().next_back().copied()
    }

    /// The measurements arriving at exactly `minute` (empty when none).
    pub fn at(&self, minute: MinuteBin) -> &[Measurement] {
        self.arrivals.get(&minute).map_or(&[], Vec::as_slice)
    }

    /// Iterates `(arrival_minute, batch)` in arrival order.
    pub fn arrivals(&self) -> impl Iterator<Item = (MinuteBin, &[Measurement])> {
        self.arrivals.iter().map(|(&m, b)| (m, b.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SimConfig, WorldBuilder};

    fn store() -> MetricStore {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 7,
            start: 0,
            duration: 120,
        });
        b.add_service("prod.feed", 2).unwrap();
        b.build().materialize().unwrap()
    }

    #[test]
    fn feed_replays_the_store_exactly() {
        let store = store();
        let feed = LiveFeed::from_store(&store);
        assert!(!feed.is_empty());
        // Replaying the feed into a fresh store reproduces every series.
        let replayed = MetricStore::new();
        for (_, batch) in feed.arrivals() {
            for m in batch {
                replayed.append(m.key, m.minute, m.value);
            }
        }
        for key in store.keys() {
            assert_eq!(store.get(&key), replayed.get(&key), "{key:?}");
        }
    }

    #[test]
    fn with_late_moves_arrivals_not_content() {
        let feed = LiveFeed::from_store(&store());
        let total = feed.len();
        let late = feed.clone().with_late(11, 250, 5);
        assert_eq!(late.len(), total);
        // Some batch moved: at least one arrival minute now carries a
        // measurement for an earlier minute.
        let moved = late
            .arrivals()
            .flat_map(|(when, b)| b.iter().map(move |m| (when, m.minute)))
            .filter(|(when, minute)| when != minute)
            .count();
        assert!(moved > 0, "expected some late deliveries");
        // Determinism: same seed, same schedule.
        let again = LiveFeed::from_store(&store()).with_late(11, 250, 5);
        let a: Vec<_> = late.arrivals().map(|(m, b)| (m, b.to_vec())).collect();
        let b: Vec<_> = again.arrivals().map(|(m, b)| (m, b.to_vec())).collect();
        assert_eq!(a, b);
    }
}
