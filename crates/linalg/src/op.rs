//! The implicit-operator abstraction.
//!
//! The heart of IKA's "implicit inner product calculation" (paper §3.2.3) is
//! that the covariance `C = B(t)B(t)ᵀ` is never formed: Lanczos and power
//! iteration only ever need `C·v`. [`LinearOperator`] captures exactly that
//! capability, so the same solvers run against dense matrices (tests,
//! baselines) and compressed Hankel operators (the fast path).

use crate::matrix::{dot, Mat};

/// A linear map `R^dim → R^dim` applied without materializing the matrix.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `out = A * v`. Implementations must not read `out`'s prior
    /// contents. `v.len() == out.len() == self.dim()` is guaranteed by
    /// callers via [`LinearOperator::apply_vec`].
    fn apply(&self, v: &[f64], out: &mut [f64]);

    /// Convenience allocating wrapper around [`LinearOperator::apply`].
    /// Panics if `v.len() != self.dim()`.
    fn apply_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.dim(), "operator dimension mismatch");
        let mut out = vec![0.0; self.dim()];
        self.apply(v, &mut out);
        out
    }
}

/// A dense symmetric matrix viewed as an operator (testing / exact paths).
#[derive(Debug, Clone)]
pub struct DenseOperator {
    mat: Mat,
}

impl DenseOperator {
    /// Wraps a square matrix. Panics if `mat` is not square.
    pub fn new(mat: Mat) -> Self {
        assert_eq!(
            mat.rows(),
            mat.cols(),
            "DenseOperator requires a square matrix"
        );
        Self { mat }
    }

    /// The wrapped matrix.
    pub fn mat(&self) -> &Mat {
        &self.mat
    }
}

impl LinearOperator for DenseOperator {
    fn dim(&self) -> usize {
        self.mat.rows()
    }

    fn apply(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.mat.rows(), "operator dimension mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.mat.row(i), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_operator_applies_matrix() {
        let m = Mat::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let op = DenseOperator::new(m);
        assert_eq!(op.apply_vec(&[1.0, 0.0]), vec![2.0, 1.0]);
        assert_eq!(op.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn dense_operator_rejects_rectangular() {
        let _ = DenseOperator::new(Mat::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn apply_vec_checks_length() {
        let op = DenseOperator::new(Mat::identity(3));
        let _ = op.apply_vec(&[1.0, 2.0]);
    }
}
