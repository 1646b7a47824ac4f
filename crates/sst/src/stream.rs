//! Per-KPI incremental SST state for the streaming engine.
//!
//! Batch scoring re-slices the full series and re-scores every window each
//! time it runs; a continuously running engine cannot afford either the
//! re-slicing or the allocation. [`StreamingSst`] keeps the per-KPI window
//! state resident between minutes: a rolling window of the last
//! [`crate::SstConfig::window_len`] samples, handed to the scorer in place
//! — and nothing else. The kernel's scratch is *not* per-key state: a
//! [`crate::SstWorkspace`] lives with the caller, one per stream worker,
//! and reaches the scorer through [`StreamingSst::fold_with`], so folding in
//! a new minute costs at most one window score — the stream engine asks
//! only the bound there and scores later, if its persistence rule still
//! needs the window — and zero allocations at steady state
//! (`tests/no_alloc.rs` counts them).
//!
//! What the bound slides from *is* per-key state, and the caller keeps it
//! beside this one: a [`crate::SlidingSegments`] a key
//! (`|s, w| s.may_reach_in(&mut ws, &mut segments, w, threshold)`). A tick
//! folds one minute into one key after another, so state a worker shared
//! would meet a stranger at every bound and sort both segments afresh; the
//! key's own copy last saw the key's previous window, the one-minute
//! predecessor of the next, and slides. It costs at most `2W` floats and a multiplier a key
//! ([`crate::SlidingSegments::bytes_for`]). The plain [`StreamingSst::fold`]
//! has no workspace to borrow and builds a throw-away one per scored window.
//!
//! Scores are **byte-identical** to batch: [`StreamingSst::fold`] hands the
//! wrapped scorer the same `window_len` samples, in the same order, as
//! [`SstScorer::score_series`] would for the window ending at that sample —
//! the amortization is in the bookkeeping (no re-slicing, no per-window
//! allocation, no rescoring of unchanged windows), never in the arithmetic.
//! A warm-started decomposition was considered and rejected: reusing Lanczos
//! state across overlapping windows changes low-order bits, which would
//! break the engine's streaming-equals-batch guarantee.

use crate::SstScorer;
use std::collections::VecDeque;

/// Rolling change-point scorer state for one KPI.
#[derive(Debug, Clone)]
pub struct StreamingSst<S> {
    scorer: S,
    window: VecDeque<f64>,
    folded: u64,
    scored: u64,
}

impl<S: SstScorer> StreamingSst<S> {
    /// Wraps `scorer` with empty (cold) window state.
    pub fn new(scorer: S) -> Self {
        let w = scorer.config().window_len();
        Self {
            scorer,
            window: VecDeque::with_capacity(w),
            folded: 0,
            scored: 0,
        }
    }

    /// The wrapped scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// The window width the state rolls over.
    pub fn window_len(&self) -> usize {
        self.scorer.config().window_len()
    }

    /// Samples folded in since creation or the last reset.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Windows actually scored (folds past warm-up).
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Whether the window has filled — the next fold will score.
    pub fn is_warm(&self) -> bool {
        self.window.len() >= self.window_len()
    }

    /// Folds in the measurement for the next minute. Returns the filtered
    /// SST score of the window ending at this sample once `window_len`
    /// samples have accumulated, `None` during warm-up. Equal to what
    /// [`SstScorer::score_series`] reports for the same window.
    pub fn fold(&mut self, value: f64) -> Option<f64> {
        self.fold_with(value, |scorer, window| scorer.score_window(window))
    }

    /// [`StreamingSst::fold`] with the scoring left to the caller: `score`
    /// receives the wrapped scorer and the completed window and its answer
    /// is passed through. This is how a stream worker asks only the bound of
    /// the completed window, through its own [`crate::SstWorkspace`], the
    /// key's [`crate::SlidingSegments`] and its threshold, and leaves the
    /// score to its persistence rule.
    pub fn fold_with<R>(&mut self, value: f64, score: impl FnOnce(&S, &[f64]) -> R) -> Option<R> {
        let w = self.window_len();
        self.folded += 1;
        if self.window.len() == w {
            self.window.pop_front();
        }
        self.window.push_back(value);
        if self.window.len() < w {
            return None;
        }
        self.scored += 1;
        Some(score(&self.scorer, self.window.make_contiguous()))
    }

    /// Discards the rolling window (e.g. after a backfill rewrote history
    /// behind the frontier — the cheap fold is only valid while the window
    /// slides forward one contiguous minute at a time). Counters survive;
    /// the next `window_len` folds warm the state back up.
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// Resets, then folds in `values` oldest-first (bulk re-prime after a
    /// reset, e.g. replaying the retained ring window). Returns the score
    /// of the last complete window, if any.
    pub fn prime(&mut self, values: impl IntoIterator<Item = f64>) -> Option<f64> {
        self.reset();
        let mut last = None;
        for v in values {
            last = self.fold(v).or(last);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SstConfig;
    use crate::fast::FastSst;

    fn series(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let base = 10.0 + ((i as f64) * 0.7).sin();
                if i >= len / 2 {
                    base + 8.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn fold_matches_batch_score_series_exactly() {
        let c = SstConfig::quick();
        let scorer = FastSst::new(c.clone());
        let values = series(3 * c.window_len());
        let batch = scorer.score_series(&values);

        let mut stream = StreamingSst::new(FastSst::new(c.clone()));
        let mut streamed = Vec::new();
        for &v in &values {
            if let Some(s) = stream.fold(v) {
                streamed.push(s);
            }
        }
        assert_eq!(streamed, batch, "streamed scores must be byte-identical");
        assert_eq!(stream.folded(), values.len() as u64);
        assert_eq!(stream.scored(), batch.len() as u64);
    }

    #[test]
    fn warm_up_yields_none_until_window_fills() {
        let c = SstConfig::quick();
        let w = c.window_len();
        let mut stream = StreamingSst::new(FastSst::new(c));
        for i in 0..w - 1 {
            assert_eq!(stream.fold(i as f64), None, "fold {i}");
            assert!(!stream.is_warm());
        }
        assert!(stream.fold((w - 1) as f64).is_some());
        assert!(stream.is_warm());
    }

    #[test]
    fn prime_equals_manual_folds() {
        let c = SstConfig::quick();
        let values = series(2 * c.window_len());
        let mut a = StreamingSst::new(FastSst::new(c.clone()));
        let mut last = None;
        for &v in &values {
            last = a.fold(v).or(last);
        }
        let mut b = StreamingSst::new(FastSst::new(c));
        let primed = b.prime(values.iter().copied());
        assert_eq!(primed, last);
        assert_eq!(a.fold(1.0), b.fold(1.0));
    }

    #[test]
    fn reset_forces_rewarm_but_keeps_counters() {
        let c = SstConfig::quick();
        let w = c.window_len();
        let mut stream = StreamingSst::new(FastSst::new(c));
        for i in 0..w {
            stream.fold(i as f64);
        }
        let folded = stream.folded();
        stream.reset();
        assert!(!stream.is_warm());
        assert_eq!(stream.fold(0.0), None);
        assert_eq!(stream.folded(), folded + 1);
    }
}
