//! The median/MAD robustness filter (paper Eq. 11–12).
//!
//! SST's raw score degrades when noise dominates the signal: pure noise
//! rotates the future directions just as a real change does. The paper's
//! fix multiplies the raw score by a robust effect size,
//!
//! ```text
//! x̃(t) = x̂(t) · |medianₐ − median_b| · √|MADₐ − MAD_b|
//! ```
//!
//! where the `a` window is the `(2ω−1)` samples before the candidate point
//! and the `b` window the `(2ω−1)` samples after. Noise-only windows have
//! matching medians and MADs, so both factors collapse toward zero and
//! spurious subspace rotation is suppressed; a level shift moves the median
//! factor, a variance change moves the MAD factor.
//!
//! The four statistics come from selections over the two segments
//! ([`FilterFactors::from_segments`]: what `RobustSst` runs, and `FastSst`
//! on non-finite data or on a window its bound was not brought to), or from
//! segments a caller keeps sorted ([`FilterFactors::from_summaries`]:
//! `FastSst`'s bound, which slides them from one window to the next). Same
//! bits either way.

use funnel_timeseries::stats::RobustSummary;

/// The two robust factors of Eq. 11, kept separate for introspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterFactors {
    /// `|medianₐ − median_b|` — level displacement across the candidate.
    pub median_shift: f64,
    /// `√|MADₐ − MAD_b|` — dispersion displacement across the candidate.
    pub mad_shift_sqrt: f64,
}

impl FilterFactors {
    /// Computes the factors from the past (`a`) and future (`b`) segments.
    pub fn from_segments(past: &[f64], future: &[f64]) -> Self {
        let longest = past.len().max(future.len());
        Self::from_segments_with(past, future, &mut Vec::with_capacity(longest))
    }

    /// [`FilterFactors::from_segments`] taking its order statistics inside
    /// the caller's `scratch`.
    pub fn from_segments_with(past: &[f64], future: &[f64], scratch: &mut Vec<f64>) -> Self {
        Self::from_summaries(
            RobustSummary::of_with(past, scratch),
            RobustSummary::of_with(future, scratch),
        )
    }

    /// The factors from the two segments' summaries, however those were
    /// obtained: by selection over the samples ([`RobustSummary::of_with`])
    /// or read off segments kept sorted ([`RobustSummary::of_sorted_by`]).
    pub fn from_summaries(a: RobustSummary, b: RobustSummary) -> Self {
        Self {
            median_shift: (a.median - b.median).abs(),
            mad_shift_sqrt: (a.mad - b.mad).abs().sqrt(),
        }
    }

    /// The combined multiplier. Eq. 11 multiplies both factors; to keep a
    /// pure variance change (median factor ≈ 0) and a pure clean level shift
    /// (MAD factor ≈ 0) detectable, each factor is floored at a small
    /// epsilon *relative to the other*: the filter suppresses the score only
    /// when **both** robust displacements vanish, which is the noise-only
    /// situation the paper targets.
    pub fn multiplier(&self) -> f64 {
        let combined = self.median_shift + self.mad_shift_sqrt;
        self.median_shift.max(0.05 * combined) * self.mad_shift_sqrt.max(0.05 * combined)
    }
}

/// Applies Eq. 11: `x̃ = x̂ · multiplier`.
pub fn apply_filter(raw_score: f64, past: &[f64], future: &[f64]) -> f64 {
    raw_score * FilterFactors::from_segments(past, future).multiplier()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_segments_suppress_score() {
        let seg = [1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0];
        let filtered = apply_filter(1.0, &seg, &seg);
        assert!(filtered.abs() < 1e-9);
    }

    #[test]
    fn level_shift_passes_through() {
        let past = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0];
        let future: Vec<f64> = past.iter().map(|x| x + 5.0).collect();
        let f = FilterFactors::from_segments(&past, &future);
        assert!((f.median_shift - 5.0).abs() < 1e-9);
        // MAD unchanged ⇒ sqrt factor ≈ 0 but floored relative to median
        // shift, so the product stays material.
        assert!(apply_filter(0.8, &past, &future) > 0.1);
    }

    #[test]
    fn variance_change_passes_through() {
        let past = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let future = [1.0, 4.0, -2.0, 5.0, -3.0, 4.0, -2.0];
        let f = FilterFactors::from_segments(&past, &future);
        assert!(f.mad_shift_sqrt > 1.0);
        assert!(apply_filter(0.8, &past, &future) > 0.1);
    }

    #[test]
    fn bigger_shift_bigger_multiplier() {
        let past = [0.0, 0.1, -0.1, 0.05, -0.05, 0.0, 0.1];
        let small: Vec<f64> = past.iter().map(|x| x + 1.0).collect();
        let large: Vec<f64> = past.iter().map(|x| x + 10.0).collect();
        let ms = FilterFactors::from_segments(&past, &small).multiplier();
        let ml = FilterFactors::from_segments(&past, &large).multiplier();
        assert!(ml > ms);
    }

    #[test]
    fn pure_noise_with_matching_stats_filters_hard() {
        // Same distribution, different realizations: median/MAD nearly match.
        let past = [0.1, -0.2, 0.15, -0.1, 0.05, -0.15, 0.2];
        let future = [-0.1, 0.2, -0.15, 0.1, -0.05, 0.15, -0.2];
        let m = FilterFactors::from_segments(&past, &future).multiplier();
        assert!(m < 0.1, "multiplier {m}");
    }
}
