//! Fixed-capacity ring buffers for streaming KPI windows.
//!
//! The batch pipeline materializes each KPI as an ever-growing dense
//! [`TimeSeries`]; fine for replay-then-assess, fatal for a continuously
//! running engine where millions of KPIs each gain one bin per minute
//! forever. [`RingSeries`] is the bounded substitute: the same
//! append/forward-fill/backfill semantics as the store's dense series plus
//! coverage mask, but holding at most `capacity` most-recent bins — older
//! bins are evicted from the front as the window slides, so resident memory
//! per KPI is a constant chosen up front, never a function of uptime.
//!
//! Semantics contract (checked by `tests/ring_model.rs` against a naive
//! unbounded model): over the retained window a `RingSeries` is
//! *byte-identical* to what `MetricStore::append`/`backfill` would have
//! produced — first write wins, gaps forward-fill from the last value with
//! only the real minute marked measured, and a backfill re-fills subsequent
//! fill bins up to the next real measurement. Writes that land before the
//! retained window (evicted history) are refused, not guessed at: eviction
//! destroys the presence bits needed to honour first-write-wins there.

use crate::mask::CoverageMask;
use crate::series::{MinuteBin, TimeSeries};
use std::collections::VecDeque;

/// Outcome of offering a measurement to a [`RingSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingWrite {
    /// The measurement landed in the window (possibly extending it).
    Accepted,
    /// The bin already held a real measurement, or the minute predates the
    /// frontier on the live path — first write wins.
    Duplicate,
    /// The minute falls before the retained window: its history has been
    /// evicted and the write cannot be honoured.
    Evicted,
}

/// A bounded sliding window over one KPI: dense values plus per-bin
/// presence bits, anchored at an absolute minute, evicting from the front
/// once more than `capacity` bins are held.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSeries {
    /// Absolute minute of the oldest retained bin (meaningless until the
    /// first measurement anchors the ring).
    start: MinuteBin,
    /// Retained values, oldest first; `values[i]` covers `start + i`.
    values: VecDeque<f64>,
    /// Presence bit per retained bin: `true` = real measurement,
    /// `false` = forward-fill.
    present: VecDeque<bool>,
    /// Maximum number of retained bins (≥ 1).
    capacity: usize,
    /// Whether the first measurement has anchored the ring.
    anchored: bool,
    /// Total bins evicted from the front over the ring's lifetime.
    evicted: u64,
}

impl RingSeries {
    /// An empty ring retaining at most `capacity` bins (clamped to ≥ 1).
    /// The ring anchors itself at the first measurement's minute.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            start: 0,
            values: VecDeque::with_capacity(capacity),
            present: VecDeque::with_capacity(capacity),
            capacity,
            anchored: false,
            evicted: 0,
        }
    }

    /// Maximum number of retained bins.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Absolute minute of the oldest retained bin (0 before anchoring).
    pub fn start(&self) -> MinuteBin {
        self.start
    }

    /// One past the newest retained bin (equals [`RingSeries::start`] while
    /// empty).
    pub fn end(&self) -> MinuteBin {
        self.start + self.values.len() as u64
    }

    /// Number of retained bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no bins are retained yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total bins evicted from the front since creation — nonzero means the
    /// ring no longer covers its original anchor.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The value at absolute minute `bin`, if retained.
    pub fn at(&self, bin: MinuteBin) -> Option<f64> {
        if !self.anchored || bin < self.start {
            return None;
        }
        self.values.get((bin - self.start) as usize).copied()
    }

    /// Copies the values of minutes `[from, to)` into `out` (cleared first),
    /// oldest first. `false`, with `out` left empty, unless the whole range
    /// is retained — how a stream monitor re-reads a window it decided not
    /// to score when the window completed.
    pub fn copy_minutes_into(&self, from: MinuteBin, to: MinuteBin, out: &mut Vec<f64>) -> bool {
        out.clear();
        if !self.anchored || from < self.start || to > self.end() || from > to {
            return false;
        }
        let lo = (from - self.start) as usize;
        let hi = (to - self.start) as usize;
        out.extend(self.values.range(lo..hi));
        true
    }

    /// Whether `minute` holds a real measurement (false for fills, evicted
    /// history, and bins beyond the frontier).
    pub fn is_present(&self, minute: MinuteBin) -> bool {
        if !self.anchored || minute < self.start {
            return false;
        }
        self.present
            .get((minute - self.start) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Fraction of `[from, to)` holding real measurements; bins outside the
    /// retained window count as missing, an empty range has coverage 0.
    pub fn coverage(&self, from: MinuteBin, to: MinuteBin) -> f64 {
        if to <= from {
            return 0.0;
        }
        // Only the retained part of the range is walked.
        let lo = from.max(self.start);
        let hi = to.min(self.end());
        let measured = if hi > lo {
            let bins = (lo - self.start) as usize..(hi - self.start) as usize;
            self.present.range(bins).filter(|&&p| p).count()
        } else {
            0
        };
        measured as f64 / (to - from) as f64
    }

    /// Resident bytes attributed to the window storage of a ring made with
    /// `RingSeries::new(capacity)` — a deterministic accounting figure
    /// (capacity × per-bin cost), not an allocator measurement, so
    /// memory-budget assertions reproduce bit-for-bit across runs and
    /// platforms.
    pub fn bytes_for(capacity: usize) -> usize {
        capacity.max(1) * (std::mem::size_of::<f64>() + std::mem::size_of::<bool>())
    }

    /// Offers a live measurement, mirroring `MetricStore::append`: the first
    /// measurement anchors the ring; minutes at or behind the frontier are
    /// refused ([`RingWrite::Duplicate`] — first write wins); gaps
    /// forward-fill from the last value with only `minute` marked measured;
    /// and once the window exceeds capacity the oldest bins are evicted.
    pub fn push(&mut self, minute: MinuteBin, value: f64) -> RingWrite {
        if !self.anchored {
            self.start = minute;
            self.anchored = true;
            self.values.push_back(value);
            self.present.push_back(true);
            return RingWrite::Accepted;
        }
        let end = self.end();
        if minute < end {
            return RingWrite::Duplicate;
        }
        let fill = self.values.back().copied().unwrap_or(value);
        if minute - end >= self.capacity as u64 {
            // The gap alone overflows the window: everything retained — and
            // every fill bin but the last capacity-1 — would be evicted
            // anyway. Jump straight to the final state in O(capacity).
            let skipped = self.values.len() as u64 + (minute - end) - (self.capacity as u64 - 1);
            self.evicted += skipped;
            self.values.clear();
            self.present.clear();
            self.start = minute - (self.capacity as u64 - 1);
            for _ in 0..self.capacity - 1 {
                self.values.push_back(fill);
                self.present.push_back(false);
            }
            self.values.push_back(value);
            self.present.push_back(true);
            return RingWrite::Accepted;
        }
        let mut cursor = end;
        while cursor < minute {
            self.values.push_back(fill);
            self.present.push_back(false);
            cursor += 1;
        }
        self.values.push_back(value);
        self.present.push_back(true);
        while self.values.len() > self.capacity {
            self.values.pop_front();
            self.present.pop_front();
            self.start += 1;
            self.evicted += 1;
        }
        RingWrite::Accepted
    }

    /// Offers a late measurement for a historical bin, mirroring
    /// `MetricStore::backfill` over the retained window: beyond the frontier
    /// it behaves like [`RingSeries::push`]; inside the window it is
    /// accepted iff the bin is a forward-fill (first write wins), re-filling
    /// subsequent fill bins with the recovered value up to the next real
    /// measurement; before the window it is refused as
    /// [`RingWrite::Evicted`].
    pub fn backfill(&mut self, minute: MinuteBin, value: f64) -> RingWrite {
        if !self.anchored || minute >= self.end() {
            return self.push(minute, value);
        }
        if minute < self.start {
            return RingWrite::Evicted;
        }
        let idx = (minute - self.start) as usize;
        if self.present.get(idx).copied().unwrap_or(false) {
            return RingWrite::Duplicate;
        }
        if let Some(v) = self.values.get_mut(idx) {
            *v = value;
        }
        let mut i = idx + 1;
        while i < self.values.len() {
            if self.present.get(i).copied().unwrap_or(true) {
                break;
            }
            if let Some(v) = self.values.get_mut(i) {
                *v = value;
            }
            i += 1;
        }
        if let Some(p) = self.present.get_mut(idx) {
            *p = true;
        }
        RingWrite::Accepted
    }

    /// Materializes the retained window as a dense [`TimeSeries`] — the
    /// read view the assessment pipeline consumes. While nothing has been
    /// evicted this is byte-identical to the store's series for the key.
    pub fn to_series(&self) -> TimeSeries {
        TimeSeries::new(self.start, self.values.iter().copied().collect())
    }

    /// Materializes the retained presence bits as a [`CoverageMask`]
    /// aligned with [`RingSeries::to_series`].
    pub fn to_mask(&self) -> CoverageMask {
        CoverageMask::from_bits(self.start, self.present.iter().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_at_first_measurement() {
        let mut r = RingSeries::new(8);
        assert!(r.is_empty());
        assert_eq!(r.push(5, 1.0), RingWrite::Accepted);
        assert_eq!(r.start(), 5);
        assert_eq!(r.end(), 6);
        assert_eq!(r.at(5), Some(1.0));
        assert!(r.is_present(5));
    }

    #[test]
    fn fills_gaps_and_suppresses_late_writes() {
        let mut r = RingSeries::new(8);
        r.push(5, 1.0);
        r.push(6, 2.0);
        assert_eq!(r.push(9, 5.0), RingWrite::Accepted);
        assert_eq!(r.to_series().values(), &[1.0, 2.0, 2.0, 2.0, 5.0]);
        assert!(!r.is_present(7) && !r.is_present(8));
        assert_eq!(r.push(6, 99.0), RingWrite::Duplicate);
        assert_eq!(r.at(6), Some(2.0));
    }

    #[test]
    fn copies_only_fully_retained_ranges() {
        let mut r = RingSeries::new(4);
        let mut out = vec![9.0];
        assert!(!r.copy_minutes_into(0, 1, &mut out), "unanchored");
        for m in 10..16 {
            r.push(m, m as f64);
        }
        assert_eq!((r.start(), r.end()), (12, 16));
        assert!(r.copy_minutes_into(13, 16, &mut out));
        assert_eq!(out, [13.0, 14.0, 15.0]);
        assert!(!r.copy_minutes_into(11, 14, &mut out), "front evicted");
        assert!(out.is_empty());
        assert!(!r.copy_minutes_into(14, 17, &mut out), "past the frontier");
    }

    #[test]
    fn evicts_from_front_at_capacity() {
        let mut r = RingSeries::new(3);
        for m in 0..5 {
            r.push(m, m as f64);
        }
        assert_eq!(r.start(), 2);
        assert_eq!(r.to_series().values(), &[2.0, 3.0, 4.0]);
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.at(1), None);
    }

    #[test]
    fn huge_gap_takes_shortcut_to_same_state() {
        let mut short = RingSeries::new(4);
        short.push(0, 1.0);
        short.push(100, 9.0); // gap ≫ capacity
        assert_eq!(short.start(), 97);
        assert_eq!(short.to_series().values(), &[1.0, 1.0, 1.0, 9.0]);
        assert!(short.is_present(100));
        assert!(!short.is_present(99));
        assert_eq!(short.evicted(), 97);
    }

    #[test]
    fn backfill_refills_like_store() {
        let mut r = RingSeries::new(16);
        r.push(5, 1.0);
        r.push(9, 4.0);
        assert_eq!(r.backfill(7, 3.0), RingWrite::Accepted);
        assert_eq!(r.to_series().values(), &[1.0, 1.0, 3.0, 3.0, 4.0]);
        assert!(r.is_present(7));
        assert!(!r.is_present(6) && !r.is_present(8));
        assert_eq!(r.backfill(5, 99.0), RingWrite::Duplicate);
    }

    #[test]
    fn backfill_into_evicted_range_is_refused() {
        let mut r = RingSeries::new(3);
        for m in 0..6 {
            r.push(m, m as f64);
        }
        assert_eq!(r.start(), 3);
        assert_eq!(r.backfill(1, 42.0), RingWrite::Evicted);
        assert_eq!(r.to_series().values(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn backfill_past_frontier_extends_like_push() {
        let mut r = RingSeries::new(8);
        r.push(0, 1.0);
        assert_eq!(r.backfill(3, 5.0), RingWrite::Accepted);
        assert_eq!(r.to_series().values(), &[1.0, 1.0, 1.0, 5.0]);
        assert!(r.is_present(3));
    }

    #[test]
    fn mask_and_series_views_align() {
        let mut r = RingSeries::new(8);
        r.push(2, 1.0);
        r.push(5, 2.0);
        let s = r.to_series();
        let m = r.to_mask();
        assert_eq!(s.start(), m.start());
        assert_eq!(s.len(), m.len());
        assert_eq!(m.bits(), &[true, false, false, true]);
        assert_eq!(r.coverage(2, 6), 0.5);
    }

    #[test]
    fn coverage_counts_only_the_retained_part_of_the_range() {
        // Every bin's presence, counted over the whole ring: what coverage
        // walked before it walked the range alone.
        let walked = |r: &RingSeries, from: MinuteBin, to: MinuteBin| {
            let measured = (0..r.len() as u64)
                .filter(|&i| (from..to).contains(&(r.start() + i)) && r.is_present(r.start() + i))
                .count();
            measured as f64 / (to - from) as f64
        };
        let mut r = RingSeries::new(6);
        assert_eq!(r.coverage(0, 4), 0.0, "unanchored");
        for m in [3, 4, 7, 9, 10, 12] {
            r.push(m, m as f64);
        }
        assert_eq!((r.start(), r.end()), (7, 13));
        for from in 0..16 {
            for to in from + 1..18 {
                assert_eq!(r.coverage(from, to), walked(&r, from, to), "[{from}, {to})");
            }
            assert_eq!(r.coverage(from, from), 0.0);
        }
        assert_eq!(r.coverage(7, 13), 4.0 / 6.0);
        assert_eq!(r.coverage(0, 7), 0.0, "evicted");
        assert_eq!(r.coverage(13, 20), 0.0, "past the frontier");
    }

    #[test]
    fn window_bytes_is_capacity_proportional() {
        assert_eq!(RingSeries::bytes_for(100), 100 * 9);
        assert_eq!(RingSeries::bytes_for(0), 9, "a ring holds at least one bin");
    }
}
