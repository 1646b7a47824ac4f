//! Implicit Hankel trajectory matrices — IKA's "matrix compression".
//!
//! SST builds the `ω×δ` trajectory matrix `B(t) = [q(t−δ), …, q(t−1)]` with
//! `q(τ) = [x(τ−ω+1), …, x(τ)]ᵀ` (paper Eq. 1). Because consecutive columns
//! overlap, the whole matrix is determined by the `ω+δ−1` samples it covers:
//! entry `(i, j)` is `signal[i + j]`. [`HankelMatrix`] borrows only that
//! signal slice and applies `B·v` / `Bᵀ·u` directly — `O(ωδ)` work and
//! `O(ω+δ)` memory, never materializing the matrix. [`GramOperator`] exposes
//! `C = BBᵀ` the same way, which is what Lanczos and the power iteration
//! consume ("implicit inner product calculation", §3.2.3).

use crate::matrix::Mat;
use crate::op::LinearOperator;

/// An `ω×δ` Hankel matrix viewed over its generating signal.
#[derive(Debug, Clone, Copy)]
pub struct HankelMatrix<'a> {
    signal: &'a [f64],
    omega: usize,
    delta: usize,
}

impl<'a> HankelMatrix<'a> {
    /// Builds the trajectory matrix with window length `omega` and `delta`
    /// lagged columns over `signal`, which must hold exactly
    /// `omega + delta − 1` samples: column `j` is
    /// `signal[j .. j+omega]`, oldest samples first.
    ///
    /// # Panics
    ///
    /// Panics when the signal length does not match or either dimension is
    /// zero.
    pub fn new(signal: &'a [f64], omega: usize, delta: usize) -> Self {
        assert!(omega > 0 && delta > 0, "Hankel dimensions must be positive");
        assert_eq!(
            signal.len(),
            omega + delta - 1,
            "signal length must be omega + delta - 1"
        );
        Self {
            signal,
            omega,
            delta,
        }
    }

    /// Row count `ω`.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Column count `δ`.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Entry `(i, j) = signal[i + j]`.
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.omega && j < self.delta,
            "Hankel index out of bounds"
        );
        self.signal[i + j]
    }

    /// `B · v` for `v ∈ R^δ`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.omega];
        self.matvec_into(v, &mut out);
        out
    }

    /// `out = B · v` for `v ∈ R^δ`, `out ∈ R^ω`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.delta, "Hankel matvec dimension mismatch");
        assert_eq!(out.len(), self.omega, "Hankel matvec dimension mismatch");
        hankel_apply(self.signal, v, out);
    }

    /// `Bᵀ · u` for `u ∈ R^ω`.
    pub fn matvec_t(&self, u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.delta];
        self.matvec_t_into(u, &mut out);
        out
    }

    /// `out = Bᵀ · u` for `u ∈ R^ω`, `out ∈ R^δ`.
    pub fn matvec_t_into(&self, u: &[f64], out: &mut [f64]) {
        assert_eq!(u.len(), self.omega, "Hankel matvec_t dimension mismatch");
        assert_eq!(out.len(), self.delta, "Hankel matvec_t dimension mismatch");
        hankel_apply(self.signal, u, out);
    }

    /// `out = BBᵀ · v` through the caller's `δ`-length `scratch` — the Gram
    /// operator without an allocation.
    pub fn gram_apply_into(&self, v: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        self.matvec_t_into(v, scratch);
        self.matvec_into(scratch, out);
    }

    /// Materializes the dense matrix (tests and the exact SVD path).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.omega, self.delta);
        for i in 0..self.omega {
            for j in 0..self.delta {
                m[(i, j)] = self.signal[i + j];
            }
        }
        m
    }

    /// The Gram operator `C = BBᵀ` over this matrix (borrows `self`).
    pub fn gram_operator(&self) -> GramOperator<'_> {
        GramOperator { hankel: self }
    }
}

/// `out[r] = Σ_c signal[r + c] · x[c]` — both Hankel products, since entry
/// `(i, j)` depends only on `i + j`.
///
/// The loops run column-outer so the inner one is a dense multiply-add
/// across outputs that the compiler vectorises. Every output still sums its
/// own products in ascending `c`, seeded with the first product, which is
/// bit for bit what `(0..).map(|c| signal[r + c] * x[c]).sum()` yields (the
/// `f64` sum folds from `-0.0`, the additive identity).
fn hankel_apply(signal: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(signal.len() + 1, x.len() + out.len());
    // Both Hankel dimensions are positive, so `x` is never empty.
    let Some((&first, rest)) = x.split_first() else {
        return;
    };
    for (o, &s) in out.iter_mut().zip(signal) {
        *o = s * first;
    }
    for (c, &xc) in rest.iter().enumerate() {
        for (o, &s) in out.iter_mut().zip(&signal[c + 1..]) {
            *o += s * xc;
        }
    }
}

/// `C = BBᵀ ∈ R^{ω×ω}` applied implicitly: `C·v = B(Bᵀv)` in `O(ωδ)`.
#[derive(Debug, Clone, Copy)]
pub struct GramOperator<'a> {
    hankel: &'a HankelMatrix<'a>,
}

impl LinearOperator for GramOperator<'_> {
    fn dim(&self) -> usize {
        self.hankel.omega
    }

    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let mut bt_v = vec![0.0; self.hankel.delta];
        self.hankel.gram_apply_into(v, &mut bt_v, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::LinearOperator;

    #[test]
    fn entries_follow_hankel_structure() {
        let h = HankelMatrix::new(&[1.0, 2.0, 3.0, 4.0, 5.0], 3, 3);
        assert_eq!(h.entry(0, 0), 1.0);
        assert_eq!(h.entry(2, 0), 3.0);
        assert_eq!(h.entry(0, 2), 3.0);
        assert_eq!(h.entry(2, 2), 5.0);
        // Anti-diagonals are constant.
        assert_eq!(h.entry(1, 1), h.entry(0, 2));
        assert_eq!(h.entry(1, 1), h.entry(2, 0));
    }

    #[test]
    fn implicit_matvec_matches_dense() {
        let sig: Vec<f64> = (0..10).map(|i| (i as f64).sin() + 0.1 * i as f64).collect();
        let h = HankelMatrix::new(&sig, 4, 7);
        let dense = h.to_dense();
        let v: Vec<f64> = (0..7).map(|i| 0.5 - 0.1 * i as f64).collect();
        let u: Vec<f64> = (0..4).map(|i| 1.0 + i as f64).collect();
        let hv = h.matvec(&v);
        let dv = dense.matvec(&v);
        for (a, b) in hv.iter().zip(dv.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let htu = h.matvec_t(&u);
        let dtu = dense.matvec_t(&u);
        for (a, b) in htu.iter().zip(dtu.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_operator_matches_dense_gram() {
        let sig: Vec<f64> = (0..12).map(|i| (0.7 * i as f64).cos()).collect();
        let h = HankelMatrix::new(&sig, 5, 8);
        let c = h.gram_operator();
        let dense_gram = h.to_dense().gram();
        let v: Vec<f64> = (0..5).map(|i| (i as f64) - 2.0).collect();
        let cv = c.apply_vec(&v);
        let dv = dense_gram.matvec(&v);
        for (a, b) in cv.iter().zip(dv.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        assert_eq!(c.dim(), 5);
    }

    #[test]
    #[should_panic(expected = "signal length")]
    fn wrong_signal_length_panics() {
        let _ = HankelMatrix::new(&[1.0, 2.0, 3.0], 3, 3);
    }

    #[test]
    fn column_matches_paper_definition() {
        // Column j is q(t-δ+j): ω consecutive samples starting at offset j.
        let sig = [10.0, 20.0, 30.0, 40.0];
        let h = HankelMatrix::new(&sig, 2, 3);
        let dense = h.to_dense();
        assert_eq!(dense.col(0), vec![10.0, 20.0]);
        assert_eq!(dense.col(1), vec![20.0, 30.0]);
        assert_eq!(dense.col(2), vec![30.0, 40.0]);
    }
}
