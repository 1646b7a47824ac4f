//! MRLS — Multiscale Robust Local Subspace, the PRISM baseline
//! (Mahimkar et al., CoNEXT 2011).
//!
//! PRISM detects maintenance-induced changes by fitting, at several time
//! scales, a *robust* low-rank subspace to the local trajectory matrix and
//! scoring the newest data by its residual against that subspace. The
//! robustness comes from an iteratively reweighted (l1-flavoured) SVD: each
//! iteration downweights columns with large residuals and refits, which is
//! "the iteration of Singular Value Decomposition … with l1-norm \[that\]
//! exhibits high computational complexity" per FUNNEL §1 — the very reason
//! FUNNEL rejects MRLS for million-KPI scale.
//!
//! This implementation reproduces both published behaviours the paper
//! leans on:
//!
//! * **cost** — `iterations × scales` dense SVDs per window;
//! * **spike sensitivity** — the newest column's residual spikes on any
//!   outlier at every scale at once, so the multiscale mean keeps it
//!   ("MRLS was sensitive to spikes, and it was hardly feasible to modify
//!   MRLS to detect level shifts or ramp up/downs only", §4.2.1).

use crate::detector::WindowScorer;
use funnel_linalg::hankel::HankelMatrix;
use funnel_linalg::matrix::Mat;
use funnel_linalg::svd::svd;
use funnel_timeseries::stats::{mad, median};

/// The MRLS detector.
#[derive(Debug, Clone)]
pub struct MrlsDetector {
    window_len: usize,
    /// Sub-window (Hankel row) sizes, one per scale.
    scales: Vec<usize>,
    /// Rank of the local subspace.
    rank: usize,
    /// IRLS iterations (each one is an SVD per scale).
    iterations: usize,
}

impl MrlsDetector {
    /// Creates MRLS over windows of `window_len` with dyadic scales
    /// `window_len/8, /4, /2` (clamped to ≥ 2), rank-2 subspaces, 10
    /// IRLS iterations, and mean cross-scale aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `window_len < 8`.
    pub fn new(window_len: usize) -> Self {
        assert!(window_len >= 8, "window too short for multiscale analysis");
        let scales = vec![
            (window_len / 8).max(2),
            (window_len / 4).max(3),
            (window_len / 2).max(4),
        ];
        Self {
            window_len,
            scales,
            rank: 2,
            iterations: 10,
        }
    }

    /// The paper's evaluation configuration (`W = 32`).
    pub fn paper_default() -> Self {
        Self::new(crate::W_MRLS)
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics when a scale leaves fewer than 2 Hankel columns, or
    /// `iterations == 0`, or `rank == 0`.
    pub fn with_params(
        window_len: usize,
        scales: Vec<usize>,
        rank: usize,
        iterations: usize,
    ) -> Self {
        assert!(
            rank > 0 && iterations > 0,
            "rank and iterations must be positive"
        );
        for &s in &scales {
            assert!(s >= 2, "scale must be at least 2");
            assert!(
                window_len > s,
                "scale {s} leaves no columns in window {window_len}"
            );
        }
        Self {
            window_len,
            scales,
            rank,
            iterations,
        }
    }

    /// Robust residual score of the newest column at one scale.
    ///
    /// The local subspace is fit (robustly) to the *past* columns only — if
    /// the newest column took part in the fit, a large anomaly would drag
    /// the weighted subspace onto itself and score zero. The newest column
    /// is then judged by its residual in robust units of the past columns'
    /// residuals.
    fn scale_score(&self, window: &[f64], omega: usize) -> f64 {
        let delta = window.len() - omega + 1;
        let h = HankelMatrix::new(window, omega, delta).to_dense();
        let cols = delta;
        if cols < 3 {
            return 0.0;
        }
        let past_cols = cols - 1;
        let rank = self.rank.min(omega).min(past_cols);

        // IRLS over the past columns: fit a subspace to weighted columns,
        // reweight by residual (the l1-flavoured robustification).
        let mut weights = vec![1.0; past_cols];
        let mut residuals = vec![0.0; past_cols];
        let mut basis = self.weighted_subspace(&h, &weights, past_cols, rank);
        for _ in 0..self.iterations {
            for (j, r) in residuals.iter_mut().enumerate() {
                *r = column_residual(&h, &basis, j);
            }
            let eps = median(&residuals).max(1e-9) * 0.1 + 1e-12;
            for (w, r) in weights.iter_mut().zip(&residuals) {
                *w = 1.0 / (r + eps);
            }
            basis = self.weighted_subspace(&h, &weights, past_cols, rank);
        }
        for (j, r) in residuals.iter_mut().enumerate() {
            *r = column_residual(&h, &basis, j);
        }

        // Score: newest column's residual in robust units of the past ones.
        let newest = column_residual(&h, &basis, cols - 1);
        let scale = mad(&residuals).max(0.1 * median(&residuals)).max(1e-9);
        (newest - median(&residuals)) / scale
    }

    /// Rank-`rank` left subspace of the first `ncols` columns, weighted.
    fn weighted_subspace(&self, h: &Mat, weights: &[f64], ncols: usize, rank: usize) -> Mat {
        let mut wm = Mat::zeros(h.rows(), ncols);
        for j in 0..ncols {
            for i in 0..h.rows() {
                wm[(i, j)] = h[(i, j)] * weights[j];
            }
        }
        svd(&wm).left_vectors(rank)
    }
}

/// Euclidean distance of column `j` of `h` from the span of `basis`.
fn column_residual(h: &Mat, basis: &Mat, j: usize) -> f64 {
    let col = h.col(j);
    let mut resid = col.clone();
    for b in 0..basis.cols() {
        let proj: f64 = (0..h.rows()).map(|i| basis[(i, b)] * col[i]).sum();
        for (i, r) in resid.iter_mut().enumerate() {
            *r -= proj * basis[(i, b)];
        }
    }
    // Summed over a Vec in fixed index order.
    resid.iter().map(|r| r * r).sum::<f64>().sqrt()
}

impl WindowScorer for MrlsDetector {
    fn window_len(&self) -> usize {
        self.window_len
    }

    fn score(&self, window: &[f64]) -> f64 {
        assert_eq!(window.len(), self.window_len, "MRLS window length mismatch");
        // Robust-standardize so thresholds transfer across KPI magnitudes.
        let m = median(window);
        let s = mad(window).max(1e-9);
        let std_window: Vec<f64> = window.iter().map(|x| (x - m) / s).collect();
        let scores = self
            .scales
            .iter()
            .map(|&omega| self.scale_score(&std_window, omega));
        // The mean across scales is PRISM's composite behaviour: coarse
        // scales need several post-change samples before their residual
        // builds, so level shifts are declared only once established, while
        // a sharp spike still registers at every scale simultaneously.
        // Compensated, so the mean is insensitive to scale order.
        let n = self.scales.len().max(1) as f64;
        funnel_timeseries::stats::stable_sum(scores) / n
    }

    fn name(&self) -> &'static str {
        "MRLS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggle(i: usize) -> f64 {
        0.15 * ((i as f64) * 1.1).sin() + 0.1 * ((i as f64) * 0.37).cos()
    }

    #[test]
    fn flat_window_scores_low() {
        let d = MrlsDetector::paper_default();
        let w: Vec<f64> = (0..32).map(|i| 10.0 + wiggle(i)).collect();
        let s = d.score(&w);
        assert!(s < 5.0, "score {s}");
    }

    #[test]
    fn recent_level_shift_scores_high() {
        let d = MrlsDetector::paper_default();
        let w: Vec<f64> = (0..32)
            .map(|i| 10.0 + wiggle(i) + if i >= 28 { 6.0 } else { 0.0 })
            .collect();
        let s = d.score(&w);
        assert!(s > 5.0, "score {s}");
    }

    #[test]
    fn spike_sensitivity_reproduced() {
        // A one-sample spike at the end should fire — the paper's stated
        // MRLS weakness on variable KPIs.
        let d = MrlsDetector::paper_default();
        let mut w: Vec<f64> = (0..32).map(|i| 10.0 + wiggle(i)).collect();
        *w.last_mut().unwrap() += 8.0;
        let s = d.score(&w);
        assert!(s > 5.0, "score {s}");
    }

    #[test]
    fn irls_downweights_contaminated_columns() {
        // Baseline contamination: an old spike inside the window should not
        // prevent the robust fit from flagging a real new shift.
        let d = MrlsDetector::paper_default();
        let mut w: Vec<f64> = (0..32)
            .map(|i| 10.0 + wiggle(i) + if i >= 28 { 6.0 } else { 0.0 })
            .collect();
        w[5] += 9.0; // old outlier
        let s = d.score(&w);
        assert!(s > 3.0, "contaminated score {s}");
    }

    #[test]
    fn multiscale_uses_all_scales() {
        let d = MrlsDetector::with_params(32, vec![4], 2, 5);
        let w: Vec<f64> = (0..32).map(|i| 10.0 + wiggle(i)).collect();
        assert!(d.score(&w).is_finite());
    }

    #[test]
    #[should_panic(expected = "leaves no columns")]
    fn oversized_scale_rejected() {
        let _ = MrlsDetector::with_params(8, vec![8], 2, 5);
    }
}
