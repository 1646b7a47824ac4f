//! The value types the registry stores: fixed log2-bucket histograms and
//! merged span statistics.
//!
//! Aggregation uses commutative, associative ops only (sums, min/max,
//! lowest-index-wins) — the order per-thread buffers merge in can never
//! change the aggregate.

/// Number of histogram buckets: bucket 0 holds zeros, bucket `k` (1–64)
/// holds values in `[2^(k-1), 2^k)`. Fixed at compile time so two runs —
/// or two worker counts — can never disagree on bucket boundaries.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` while empty).
    pub min: u64,
    /// Largest sample (0 while empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `v`: 0 for 0, otherwise `⌊log2 v⌋ + 1`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram in (commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(bucket index, sample count)` pairs in
    /// ascending bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Mean sample value (0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile sample (nearest-rank over the
    /// log2 buckets, capped at the exact observed max; 0 while empty).
    /// Bucket resolution means the bound can overshoot the true quantile
    /// by up to 2×, but it is exact-in, exact-out deterministic — no
    /// sample retention, no interpolation.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = match bucket {
                    0 => 0,
                    64 => u64::MAX,
                    k => (1u64 << k) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// Merged timing statistics for one span path.
///
/// Per-thread span buffers fold into these with commutative ops only:
/// counts and durations sum, min/max take extrema, and `min_index` keeps
/// the lowest caller-supplied index — the same lowest-index-wins tie rule
/// the parallel engine uses for errors, so which thread flushed first is
/// unobservable in the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Completed span count.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Shortest observed duration (`u64::MAX` while empty).
    pub min_ns: u64,
    /// Longest observed duration.
    pub max_ns: u64,
    /// Lowest index passed to [`crate::span!`] for this path (worker or
    /// work-unit index by convention; `u64::MAX` when never indexed).
    pub min_index: u64,
}

impl StageStat {
    /// The identity element for [`StageStat::merge`].
    pub fn empty() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            min_index: u64::MAX,
        }
    }

    /// Records one completed span.
    pub fn observe(&mut self, ns: u64, index: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_index = self.min_index.min(index);
    }

    /// Folds another stat in (commutative).
    pub fn merge(&mut self, other: &StageStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_index = self.min_index.min(other.min_index);
    }

    /// Mean duration in nanoseconds (0 while empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0u64, 1, 5, 5, 900] {
            a.record(v);
        }
        for v in [2u64, 1024, 7] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 8);
        assert_eq!(ab.min, 0);
        assert_eq!(ab.max, 1024);
        assert_eq!(ab.nonzero_buckets().len(), 6);
    }

    #[test]
    fn quantile_bound_brackets_the_sample() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_upper_bound(0.99), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        let p99 = h.quantile_upper_bound(0.99);
        assert!(
            (99..=127).contains(&p99),
            "p99 bound {p99} outside [99, 127]"
        );
        assert_eq!(h.quantile_upper_bound(1.0), 100);
        h.record(0);
        assert_eq!(h.quantile_upper_bound(0.001), 0);
    }

    #[test]
    fn stage_stat_merge_order_is_unobservable() {
        let mut x = StageStat::empty();
        x.observe(100, 3);
        x.observe(50, 9);
        let mut y = StageStat::empty();
        y.observe(10, 1);
        let mut xy = x;
        xy.merge(&y);
        let mut yx = y;
        yx.merge(&x);
        assert_eq!(xy, yx);
        assert_eq!(xy.count, 3);
        assert_eq!(xy.total_ns, 160);
        assert_eq!(xy.min_ns, 10);
        assert_eq!(xy.max_ns, 100);
        assert_eq!(xy.min_index, 1);
        assert!((xy.mean_ns() - 160.0 / 3.0).abs() < 1e-9);
    }
}
