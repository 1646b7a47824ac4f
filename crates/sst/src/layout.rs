//! Window layout: how one sliding window splits into past and future.
//!
//! A scorer receives `W = past_len + future_len` consecutive samples. The
//! candidate change point `x(t)` is the first sample of the future segment;
//! the past trajectory matrix `B(t)` is built over the samples strictly
//! before it (paper Eq. 1) and the future matrix `A(t)` over the samples
//! from `x(t+ρ)` on (Eq. 3). With the paper's `ρ = 0, γ = δ = ω`, both
//! segments span `2ω − 1` samples — exactly the windows Eq. 11's median/MAD
//! filter compares.

use crate::config::SstConfig;
use funnel_timeseries::stats::RobustSummary;

/// A window split into its past and future segments.
#[derive(Debug, Clone, Copy)]
pub struct SplitWindow<'a> {
    /// Samples before the candidate point (`past_len` of them).
    pub past: &'a [f64],
    /// Samples from the candidate point on (`future_len` of them).
    pub future: &'a [f64],
}

/// Splits `window` per `config`.
///
/// # Panics
///
/// Panics when `window.len() != config.window_len()`.
pub fn split<'a>(config: &SstConfig, window: &'a [f64]) -> SplitWindow<'a> {
    assert_eq!(
        window.len(),
        config.window_len(),
        "window length {} does not match configured W = {}",
        window.len(),
        config.window_len()
    );
    let p = config.past_len();
    SplitWindow {
        past: &window[..p],
        future: &window[p..],
    }
}

/// Robust-standardizes a window by the statistics of its **past segment**
/// (the first `past_len` samples). Standardizing by whole-window statistics
/// would let a large level shift inflate the scale and saturate its own
/// effect size at ~2 robust units no matter how big the shift is; training
/// the normalization on the past keeps a 20σ shift looking like 20σ. Falls
/// back to whole-window statistics when the past segment is degenerate
/// (near-zero MAD), so a perfectly flat past cannot blow the values up.
pub fn standardize_by_past(window: &[f64], past_len: usize) -> Vec<f64> {
    let mut out = vec![0.0; window.len()];
    let mut scratch = Vec::with_capacity(window.len());
    standardize_by_past_into(window, past_len, &mut scratch, &mut out);
    out
}

/// [`standardize_by_past`] into `out` (`window.len()` slots), taking its
/// order statistics inside the caller's `scratch`.
pub fn standardize_by_past_into(
    window: &[f64],
    past_len: usize,
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    let past = &window[..past_len.min(window.len())];
    let RobustSummary {
        median: m,
        mad: mut s,
    } = RobustSummary::of_with(past, scratch);
    if s < 1e-9 {
        s = RobustSummary::of_with(window, scratch).mad;
    }
    let s = s.max(1e-9);
    for (o, x) in out.iter_mut().zip(window) {
        *o = (x - m) / s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_paper_default() {
        let c = SstConfig::paper_default();
        let w: Vec<f64> = (0..34).map(|i| i as f64).collect();
        let s = split(&c, &w);
        assert_eq!(s.past.len(), 17);
        assert_eq!(s.future.len(), 17);
        assert_eq!(s.past[16], 16.0);
        assert_eq!(s.future[0], 17.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn split_rejects_wrong_length() {
        let c = SstConfig::paper_default();
        let w = vec![0.0; 33];
        let _ = split(&c, &w);
    }
}
