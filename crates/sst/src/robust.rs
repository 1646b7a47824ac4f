//! Robust SST — the paper's §3.2.2 improvements, computed exactly.
//!
//! Two changes over classic SST:
//!
//! 1. **More future information.** Instead of only the dominant future
//!    direction, use η eigenvectors `β_i` of `A(t)A(t)ᵀ` with per-direction
//!    discordances `ϕ_i = 1 − Σ_j (β_i · u_j)²` (Eq. 10) combined into the
//!    eigenvalue-weighted average `x̂ = Σ λ_i ϕ_i / Σ λ_i` (Eq. 9).
//! 2. **Median/MAD filtering.** The raw score is multiplied by the robust
//!    effect size of Eq. 11 so that noise-induced subspace rotation (whose
//!    medians and MADs match across the candidate point) is suppressed.
//!
//! This implementation uses exact dense eigendecompositions (cyclic Jacobi
//! on the `ω×ω` Grams) and serves as the correctness reference for
//! [`crate::fast::FastSst`], which approximates the same quantities with
//! Lanczos/QL.

use crate::config::{EigSelection, SstConfig, ETA};
use crate::filter::apply_filter;
use crate::layout::{split, standardize_by_past};
use crate::SstScorer;
use funnel_linalg::hankel::HankelMatrix;
use funnel_linalg::symeig::sym_eig;

/// The exact robust SST scorer.
#[derive(Debug, Clone)]
pub struct RobustSst {
    config: SstConfig,
}

impl RobustSst {
    /// Creates a robust scorer.
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

    /// The raw (unfiltered) eigenvalue-weighted discordance of Eq. 9 for one
    /// window; exposed for the ablation bench and the fast-path tests.
    pub fn raw_score(&self, window: &[f64]) -> f64 {
        self.raw_score_prepared(&standardize_by_past(window, self.config.past_len()))
    }

    /// Raw score over an already-standardized window.
    fn raw_score_prepared(&self, window: &[f64]) -> f64 {
        let c = &self.config;
        let sw = split(c, window);

        // Past signal subspace: top-η eigenvectors of B·Bᵀ.
        let b = HankelMatrix::new(sw.past, c.omega, c.omega);
        let eb = sym_eig(&b.to_dense().gram());

        // Future test directions per Eq. 8 and the selection policy.
        let a = HankelMatrix::new(sw.future, c.omega, c.omega);
        let ea = sym_eig(&a.to_dense().gram());

        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..ETA {
            let (lambda, beta) = match c.eig_selection {
                EigSelection::Largest => (ea.values[i], ea.vector(i)),
                EigSelection::Smallest => (
                    ea.values[ea.values.len() - 1 - i],
                    ea.vector_from_smallest(i),
                ),
            };
            let lambda = lambda.max(0.0); // Gram is PSD up to round-off
            let mut proj_sq = 0.0;
            for j in 0..ETA {
                let d: f64 = (0..c.omega).map(|r| eb.vectors[(r, j)] * beta[r]).sum();
                proj_sq += d * d;
            }
            let phi = (1.0 - proj_sq).clamp(0.0, 1.0);
            num += lambda * phi;
            den += lambda;
        }
        if den <= 0.0 {
            0.0
        } else {
            (num / den).clamp(0.0, 1.0)
        }
    }
}

impl SstScorer for RobustSst {
    fn config(&self) -> &SstConfig {
        &self.config
    }

    fn score_window(&self, window: &[f64]) -> f64 {
        let c = &self.config;
        let window = standardize_by_past(window, c.past_len());
        let raw = self.raw_score_prepared(&window);
        if !c.median_mad_filter {
            return raw;
        }
        let sw = split(c, &window);
        apply_filter(raw, sw.past, sw.future)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_window(c: &SstConfig, noise: f64, shift: f64, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-noise via a simple LCG so tests don't depend
        // on rand.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let p = c.past_len();
        (0..c.window_len())
            .map(|i| {
                let base = 100.0 + noise * next();
                if i >= p {
                    base + shift
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn filter_suppresses_pure_noise() {
        let c = SstConfig::paper_default();
        let s = RobustSst::new(c.clone());
        for seed in 0..8 {
            let w = noisy_window(&c, 1.0, 0.0, seed);
            let filtered = s.score_window(&w);
            assert!(filtered < 1.2, "seed {seed}: filtered {filtered}");
        }
    }

    /// Noisy series with a level shift at `onset` (usize::MAX = no shift).
    fn noisy_series(len: usize, noise: f64, onset: usize, shift: f64, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..len)
            .map(|i| {
                let base = 100.0 + noise * next();
                if i >= onset {
                    base + shift
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn shift_peak_beats_noise_peak_with_filter() {
        let c = SstConfig::paper_default();
        let s = RobustSst::new(c.clone());
        let mut worst_shift_peak: f64 = f64::INFINITY;
        let mut worst_noise_peak: f64 = 0.0;
        for seed in 0..6 {
            let shifted = s.score_series(&noisy_series(120, 1.0, 60, 8.0, seed));
            let noise = s.score_series(&noisy_series(120, 1.0, usize::MAX, 0.0, seed));
            worst_shift_peak = worst_shift_peak.min(shifted.iter().copied().fold(0.0, f64::max));
            worst_noise_peak = worst_noise_peak.max(noise.iter().copied().fold(0.0, f64::max));
        }
        assert!(
            worst_shift_peak > worst_noise_peak,
            "worst shifted peak {worst_shift_peak} vs worst noise peak {worst_noise_peak}"
        );
    }

    #[test]
    fn raw_score_in_unit_interval() {
        let c = SstConfig::paper_default();
        let s = RobustSst::new(c.clone());
        for seed in 0..6 {
            let raw = s.raw_score(&noisy_window(&c, 3.0, 2.0, seed));
            assert!((0.0..=1.0).contains(&raw), "raw {raw}");
        }
    }

    #[test]
    fn constant_window_scores_zero() {
        let c = SstConfig::paper_default();
        let s = RobustSst::new(c);
        assert_eq!(s.score_window(&vec![3.0; 34]), 0.0);
    }

    #[test]
    fn smallest_selection_differs_from_largest() {
        let mut cl = SstConfig::paper_default();
        cl.median_mad_filter = false;
        let mut cs = cl.clone();
        cs.eig_selection = EigSelection::Smallest;
        let sl = RobustSst::new(cl.clone());
        let ss = RobustSst::new(cs);
        let w = noisy_window(&cl, 1.0, 6.0, 3);
        let a = sl.score_window(&w);
        let b = ss.score_window(&w);
        assert!((a - b).abs() > 1e-6, "selection should matter: {a} vs {b}");
    }

    #[test]
    fn unfiltered_robust_fires_on_noise_more_than_filtered() {
        // The motivation for the filter: raw robust SST reacts to noise.
        let mut c = SstConfig::paper_default();
        c.median_mad_filter = false;
        let unfiltered = RobustSst::new(c.clone());
        c.median_mad_filter = true;
        let filtered = RobustSst::new(c.clone());
        let mut raw_sum = 0.0;
        let mut fil_sum = 0.0;
        for seed in 0..10 {
            let w = noisy_window(&c, 2.0, 0.0, seed);
            raw_sum += unfiltered.score_window(&w);
            fil_sum += filtered.score_window(&w);
        }
        assert!(raw_sum > fil_sum, "raw {raw_sum} vs filtered {fil_sum}");
    }
}
