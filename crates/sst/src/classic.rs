//! Classic SST (paper §3.2.1).
//!
//! The original Moskvina–Zhigljavsky / Idé formulation: the past signal
//! subspace `U_η` comes from a dense SVD of the Hankel trajectory matrix
//! `B(t)` (Eq. 2), the future is represented by the *single* dominant
//! direction `β(t)` of `A(t)A(t)ᵀ` (Eq. 4–5), and the change score is the
//! discordance between `β(t)` and `U_η` (Eq. 6–7, in the squared-projection
//! form of Eq. 10). No robustness filter — this is the baseline whose noise
//! sensitivity §3.2.2 fixes.

use crate::config::{SstConfig, ETA};
use crate::layout::{split, standardize_by_past};
use crate::SstScorer;
use funnel_linalg::hankel::HankelMatrix;
use funnel_linalg::power::dominant_eigenpair;
use funnel_linalg::svd::svd;

/// The classic SST scorer. Construct once, score many windows.
#[derive(Debug, Clone)]
pub struct ClassicSst {
    config: SstConfig,
}

impl ClassicSst {
    /// Creates a classic scorer; the config's `median_mad_filter` flag is
    /// ignored (classic SST predates the filter).
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`SstConfig::validate`].
    #[expect(
        clippy::expect_used,
        reason = "the documented panicking constructor for a config known good; fallible paths call `try_new`"
    )]
    pub fn new(config: SstConfig) -> Self {
        Self::try_new(config).expect("invalid SST configuration")
    }

    /// Creates the scorer, rejecting an inconsistent configuration instead
    /// of panicking — the constructor hot paths must use.
    ///
    /// # Errors
    ///
    /// Returns the [`SstConfig::validate`] message on an invalid config.
    pub fn try_new(config: SstConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { config })
    }
}

impl SstScorer for ClassicSst {
    fn config(&self) -> &SstConfig {
        &self.config
    }

    fn score_window(&self, window: &[f64]) -> f64 {
        let c = &self.config;
        let window = standardize_by_past(window, c.past_len());
        let sw = split(c, &window);

        // Past signal subspace via dense SVD of the Hankel matrix.
        let b = HankelMatrix::new(sw.past, c.omega, c.omega);
        let f = svd(&b.to_dense());

        // Dominant future direction via power iteration on A·Aᵀ applied
        // implicitly.
        let a = HankelMatrix::new(sw.future, c.omega, c.omega);
        let (lambda, beta) = dominant_eigenpair(&a.gram_operator(), 1e-10);
        if lambda <= 0.0 || beta.is_empty() {
            return 0.0; // degenerate (e.g. constant) future segment
        }

        // Discordance: 1 − Σ_j (β · u_j)².
        let mut proj_sq = 0.0;
        for j in 0..ETA {
            let d: f64 = (0..c.omega).map(|i| f.u[(i, j)] * beta[i]).sum();
            proj_sq += d * d;
        }
        (1.0 - proj_sq).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic wiggly series with an optional level shift at
    /// `onset`. SST's score peaks on windows whose *future trajectory
    /// columns straddle* the onset (a shift placed exactly at the
    /// past/future boundary leaves both segments internally constant-shaped
    /// and scores near zero by design), so tests scan the sliding series and
    /// look at the peak.
    fn series_with_shift(len: usize, onset: usize, delta: f64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let base = 10.0 + 0.11 * ((i as f64) * 0.9).sin();
                if i >= onset {
                    base + delta
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn no_change_series_scores_low_everywhere() {
        let c = SstConfig::paper_default();
        let s = ClassicSst::new(c.clone());
        let scores = s.score_series(&series_with_shift(120, usize::MAX, 0.0));
        let peak = scores.iter().copied().fold(0.0, f64::max);
        assert!(peak < 0.35, "peak {peak}");
    }

    #[test]
    fn level_shift_peaks_high_near_onset() {
        let c = SstConfig::paper_default();
        let s = ClassicSst::new(c.clone());
        let scores = s.score_series(&series_with_shift(120, 60, 5.0));
        let peak = scores.iter().copied().fold(0.0, f64::max);
        assert!(peak > 0.5, "peak {peak}");
        // The peak must occur on a window that actually contains the onset
        // (discordance arises whether the shift straddles the future columns
        // or the past ones).
        let argmax_end = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i + c.window_len() - 1)
            .unwrap();
        assert!(
            (60..60 + c.window_len()).contains(&argmax_end),
            "peak at minute {argmax_end}"
        );
    }

    #[test]
    fn constant_window_scores_zero() {
        let c = SstConfig::paper_default();
        let s = ClassicSst::new(c);
        let w = vec![7.0; 34];
        assert_eq!(s.score_window(&w), 0.0);
    }

    #[test]
    fn score_is_in_unit_interval() {
        let c = SstConfig::paper_default();
        let s = ClassicSst::new(c.clone());
        for seedish in 0..10 {
            let w: Vec<f64> = (0..c.window_len())
                .map(|i| ((i * 7 + seedish * 13) % 11) as f64 - 5.0)
                .collect();
            let score = s.score_window(&w);
            assert!((0.0..=1.0).contains(&score), "score {score}");
        }
    }

    #[test]
    fn score_series_length() {
        let c = SstConfig::quick();
        let s = ClassicSst::new(c.clone());
        let values: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let scores = s.score_series(&values);
        assert_eq!(scores.len(), 40 - c.window_len() + 1);
    }

    #[test]
    #[should_panic(expected = "invalid SST configuration")]
    fn invalid_config_rejected() {
        let _ = ClassicSst::new(SstConfig {
            omega: 2,
            ..SstConfig::paper_default()
        });
    }
}
