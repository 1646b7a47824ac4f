//! Per-minute coverage masks for degraded telemetry.
//!
//! The collection substrate forward-fills gaps so downstream windows always
//! see dense series ([`crate::series::TimeSeries`] is gapless by
//! construction), which means a dense series alone cannot tell a real
//! measurement from a fill. A [`CoverageMask`] carries that missing bit of
//! provenance: which minutes of a series were actually measured. Detection
//! and causality layers use it to skip windows that are mostly interpolation
//! and to report `Inconclusive` instead of over-trusting filled data.

use crate::series::MinuteBin;

/// Which minutes of a dense series hold real measurements.
///
/// The mask is anchored at an absolute minute like a
/// [`crate::series::TimeSeries`]; bins outside the mask count as missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMask {
    start: MinuteBin,
    present: Vec<bool>,
}

impl CoverageMask {
    /// An empty mask anchored at `start`.
    pub fn new(start: MinuteBin) -> Self {
        Self {
            start,
            present: Vec::new(),
        }
    }

    /// A mask marking every minute of `[start, start + len)` as measured.
    pub fn all_present(start: MinuteBin, len: usize) -> Self {
        Self {
            start,
            present: vec![true; len],
        }
    }

    /// The absolute minute of the first bin.
    pub fn start(&self) -> MinuteBin {
        self.start
    }

    /// One past the last covered bin.
    pub fn end(&self) -> MinuteBin {
        self.start + self.present.len() as u64
    }

    /// Number of bins the mask spans (present or not).
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Whether the mask spans no bins.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Re-anchors an empty mask (mirrors the store re-anchoring an empty
    /// series at its first real measurement). No-op when bins exist.
    pub fn rebase(&mut self, start: MinuteBin) {
        if self.present.is_empty() {
            self.start = start;
        }
    }

    /// Marks `minute` as actually measured, growing the mask (intervening
    /// minutes default to missing). Minutes before `start` are ignored.
    pub fn mark(&mut self, minute: MinuteBin) {
        if minute < self.start {
            return;
        }
        let idx = (minute - self.start) as usize;
        if idx >= self.present.len() {
            self.present.resize(idx + 1, false);
        }
        self.present[idx] = true;
    }

    /// Appends `n` measured minutes at [`CoverageMask::end`]: `n` calls of
    /// [`CoverageMask::mark`] on the next minute, in one extension.
    pub fn extend_present(&mut self, n: usize) {
        self.present.resize(self.present.len() + n, true);
    }

    /// Whether `minute` holds a real measurement.
    pub fn is_present(&self, minute: MinuteBin) -> bool {
        if minute < self.start {
            return false;
        }
        self.present
            .get((minute - self.start) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of measured minutes in `[from, to)`.
    pub fn present_in(&self, from: MinuteBin, to: MinuteBin) -> usize {
        if to <= from {
            return 0;
        }
        let lo = from.max(self.start);
        let hi = to.min(self.end());
        if lo >= hi {
            return 0;
        }
        self.present[(lo - self.start) as usize..(hi - self.start) as usize]
            .iter()
            .filter(|&&p| p)
            .count()
    }

    /// Fraction of `[from, to)` that was actually measured. Minutes outside
    /// the mask count as missing; an empty range has coverage 0.
    pub fn coverage(&self, from: MinuteBin, to: MinuteBin) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.present_in(from, to) as f64 / (to - from) as f64
    }

    /// Maximal runs of consecutive missing bins within `[from, to)`, as
    /// half-open `(gap_start, gap_end)` pairs in ascending order. Bins
    /// outside the mask count as missing, matching
    /// [`CoverageMask::coverage`] — an unhealed partition that truncated
    /// the mask shows up as a trailing gap, not as silence.
    pub fn gaps_in(&self, from: MinuteBin, to: MinuteBin) -> Vec<(MinuteBin, MinuteBin)> {
        let mut gaps = Vec::new();
        if to <= from {
            return gaps;
        }
        let mut open: Option<MinuteBin> = None;
        for minute in from..to {
            if self.is_present(minute) {
                if let Some(start) = open.take() {
                    gaps.push((start, minute));
                }
            } else if open.is_none() {
                open = Some(minute);
            }
        }
        if let Some(start) = open {
            gaps.push((start, to));
        }
        gaps
    }

    /// The raw presence bits, index 0 = [`CoverageMask::start`]. Together
    /// with the anchor this is the mask's full state — what a recovery
    /// checkpoint serializes ([`CoverageMask::from_bits`] is the inverse).
    pub fn bits(&self) -> &[bool] {
        &self.present
    }

    /// Rebuilds a mask from its anchor and raw presence bits — the inverse
    /// of [`CoverageMask::bits`], used by checkpoint restore. The bits are
    /// taken verbatim; a round trip through `bits`/`from_bits` is exact.
    pub fn from_bits(start: MinuteBin, present: Vec<bool>) -> Self {
        Self { start, present }
    }

    /// Cumulative present counts: entry `i` is the number of measured bins
    /// among the first `i` bins. Lets callers score many overlapping windows
    /// in O(1) each (used by the masked detector runner).
    pub fn prefix_counts(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.present.len() + 1);
        let mut acc = 0u32;
        out.push(0);
        for &p in &self.present {
            acc += u32::from(p);
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut m = CoverageMask::new(10);
        m.mark(10);
        m.mark(12);
        m.mark(9); // before start: ignored
        assert!(m.is_present(10));
        assert!(!m.is_present(11));
        assert!(m.is_present(12));
        assert!(!m.is_present(9));
        assert!(!m.is_present(13));
        assert_eq!(m.len(), 3);
        assert_eq!(m.end(), 13);
    }

    #[test]
    fn coverage_counts_outside_as_missing() {
        let mut m = CoverageMask::new(0);
        for minute in 0..8 {
            m.mark(minute);
        }
        assert_eq!(m.coverage(0, 8), 1.0);
        assert_eq!(m.coverage(0, 16), 0.5);
        assert_eq!(m.coverage(4, 12), 0.5);
        assert_eq!(m.coverage(100, 110), 0.0);
        assert_eq!(m.coverage(5, 5), 0.0);
    }

    #[test]
    fn all_present_is_full() {
        let m = CoverageMask::all_present(5, 10);
        assert_eq!(m.coverage(5, 15), 1.0);
        assert_eq!(m.present_in(5, 15), 10);
    }

    #[test]
    fn extend_present_marks_the_next_minutes() {
        let mut marked = CoverageMask::new(4);
        marked.mark(5);
        let mut extended = marked.clone();
        for minute in 6..9 {
            marked.mark(minute);
        }
        extended.extend_present(3);
        extended.extend_present(0);
        assert_eq!(extended, marked);
        assert_eq!(extended.end(), 9);
        assert!(!extended.is_present(4) && extended.is_present(8));
        let mut empty = CoverageMask::new(10);
        empty.extend_present(2);
        assert_eq!(empty, CoverageMask::all_present(10, 2));
    }

    #[test]
    fn rebase_only_when_empty() {
        let mut m = CoverageMask::new(0);
        m.rebase(50);
        assert_eq!(m.start(), 50);
        m.mark(50);
        m.rebase(99);
        assert_eq!(m.start(), 50);
    }

    #[test]
    fn gap_queries_find_contiguous_runs() {
        let mut m = CoverageMask::new(10);
        for minute in [10u64, 11, 15, 16, 17, 20] {
            m.mark(minute);
        }
        // Missing inside the mask: 12..15 and 18..20.
        assert_eq!(m.gaps_in(10, 21), vec![(12, 15), (18, 20)]);
        // Bins outside the mask count as missing (trailing gap).
        assert_eq!(m.gaps_in(10, 25), vec![(12, 15), (18, 20), (21, 25)]);
        // Range before the mask is all gap.
        assert_eq!(m.gaps_in(0, 10), vec![(0, 10)]);
        // Full coverage inside a measured run.
        assert_eq!(m.gaps_in(15, 18), Vec::<(u64, u64)>::new());
        // Degenerate range.
        assert_eq!(m.gaps_in(5, 5), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn gaps_partition_the_missing_minutes() {
        let mut m = CoverageMask::new(0);
        for minute in [0u64, 3, 4, 9] {
            m.mark(minute);
        }
        let gaps = m.gaps_in(0, 12);
        let gap_minutes: usize = gaps.iter().map(|(s, e)| (e - s) as usize).sum();
        assert_eq!(gap_minutes, 12 - m.present_in(0, 12));
        for (s, e) in gaps {
            assert!(s < e);
            for minute in s..e {
                assert!(!m.is_present(minute));
            }
        }
    }

    #[test]
    fn prefix_counts_match_present_in() {
        let mut m = CoverageMask::new(0);
        for minute in [0u64, 2, 3, 7] {
            m.mark(minute);
        }
        let pfx = m.prefix_counts();
        assert_eq!(pfx.len(), m.len() + 1);
        for from in 0..m.len() {
            for to in from..=m.len() {
                let direct = m.present_in(from as u64, to as u64);
                let via = (pfx[to] - pfx[from]) as usize;
                assert_eq!(direct, via, "[{from}, {to})");
            }
        }
    }
}
