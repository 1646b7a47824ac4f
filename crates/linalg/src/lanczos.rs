//! Lanczos tridiagonalization with full reorthogonalization.
//!
//! IKA (paper §3.2.3) runs `Lanczos(C, β(t), k)` to compress the implicit
//! covariance operator `C = BBᵀ` to a `k×k` symmetric tridiagonal `T_k`
//! whose eigen-structure, expressed in the Krylov basis started at the
//! future-direction vector `β(t)`, approximates the projection SST needs.
//! With `k = 2η−1 = 5`, full reorthogonalization costs almost nothing and
//! removes the classic Lanczos ghost-eigenvalue problem entirely.

use crate::matrix::{axpy, dot, normalize};
use crate::op::LinearOperator;

/// Output of [`lanczos`]: the tridiagonal `T_k` (diagonal `alpha`,
/// subdiagonal `beta`) and the orthonormal Krylov basis `q[0..k]`, where
/// `q[0]` is the normalized start vector.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Diagonal of `T_k` (length = steps actually taken).
    pub alpha: Vec<f64>,
    /// Subdiagonal of `T_k` (length = steps − 1).
    pub beta: Vec<f64>,
    /// Krylov basis vectors, `basis[i] ∈ R^dim`, mutually orthonormal.
    pub basis: Vec<Vec<f64>>,
}

impl LanczosResult {
    /// Number of Lanczos steps actually taken (may be < requested `k` when
    /// the Krylov space is exhausted early).
    pub fn steps(&self) -> usize {
        self.alpha.len()
    }
}

/// Runs `k` Lanczos steps of `op` from `start`.
///
/// Returns fewer than `k` steps when the Krylov subspace closes early (the
/// residual underflows), which is exact convergence, not failure. A zero
/// `start` vector yields an empty result.
pub fn lanczos(op: &impl LinearOperator, start: &[f64], k: usize) -> LanczosResult {
    let n = op.dim();
    let (mut alpha, mut beta) = (vec![0.0; k], vec![0.0; k]);
    let (mut basis, mut w) = (vec![0.0; k.max(1) * n], vec![0.0; n]);
    let apply = |v: &[f64], out: &mut [f64]| op.apply(v, out);
    let steps = lanczos_into(apply, start, &mut alpha, &mut beta, &mut basis, &mut w);
    alpha.truncate(steps);
    beta.truncate(steps.saturating_sub(1));
    let rows = basis.chunks_exact(n.max(1)).take(steps);
    LanczosResult {
        alpha,
        beta,
        basis: rows.map(<[f64]>::to_vec).collect(),
    }
}

/// [`lanczos`] into caller-owned buffers: `k = alpha.len()` steps of the
/// operator `apply` (`out = A·v`) from `start ∈ R^n`.
///
/// Returns the steps taken, `s ≤ k`. On return `alpha[..s]` is the diagonal
/// of `T_s`, `beta[..s−1]` its subdiagonal, and `basis[i·n..(i+1)·n]` the
/// `i`-th Krylov vector for `i < s`. `beta` needs `k` slots (the last one
/// stays free for the eigensolver's padding), `basis` at least `max(k, 1)·n`,
/// and `w`, the residual scratch, `n`.
pub fn lanczos_into(
    mut apply: impl FnMut(&[f64], &mut [f64]),
    start: &[f64],
    alpha: &mut [f64],
    beta: &mut [f64],
    basis: &mut [f64],
    w: &mut [f64],
) -> usize {
    let n = start.len();
    let k = alpha.len();
    assert_eq!(w.len(), n, "start vector dimension mismatch");
    assert!(
        beta.len() >= k && basis.len() >= k.max(1) * n,
        "Lanczos buffers too small"
    );
    basis[..n].copy_from_slice(start);
    if normalize(&mut basis[..n]) == 0.0 || k == 0 {
        return 0;
    }

    let mut steps = 0;
    for step in 0..k {
        let (done, next) = basis.split_at_mut((step + 1) * n);
        let q = &done[step * n..];
        apply(q, w);
        let a = dot(q, w);
        alpha[step] = a;
        steps = step + 1;
        if steps == k {
            break;
        }
        // w ← w − a·q_step − b_{step−1}·q_{step−1}
        axpy(-a, q, w);
        if step > 0 {
            axpy(-beta[step - 1], &done[(step - 1) * n..step * n], w);
        }
        // Full reorthogonalization (twice is enough; k is tiny).
        for _ in 0..2 {
            for qi in done.chunks_exact(n) {
                let c = dot(qi, w);
                axpy(-c, qi, w);
            }
        }
        let b = normalize(w);
        // Breakdown = invariant subspace found; T is exact at this size.
        let scale = alpha[..steps]
            .iter()
            .fold(1e-300_f64, |m, a| m.max(a.abs()));
        if b <= f64::EPSILON * scale * 16.0 {
            break;
        }
        beta[step] = b;
        next[..n].copy_from_slice(w);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;
    use crate::op::DenseOperator;
    use crate::tridiag::tridiag_eig;

    fn diag_op(d: &[f64]) -> DenseOperator {
        let n = d.len();
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = d[i];
        }
        DenseOperator::new(m)
    }

    #[test]
    fn basis_is_orthonormal() {
        let m = Mat::from_rows(
            4,
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, 1.0, 3.0, 1.0, 0.5, 0.5, 1.0, 2.0, 1.0, 0.0, 0.5, 1.0, 1.0,
            ],
        );
        let op = DenseOperator::new(m);
        let r = lanczos(&op, &[1.0, 0.5, -0.5, 0.25], 4);
        assert_eq!(r.steps(), 4);
        for i in 0..r.basis.len() {
            for j in i..r.basis.len() {
                let d = dot(&r.basis[i], &r.basis[j]);
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-10, "q{i}·q{j} = {d}");
            }
        }
    }

    #[test]
    fn full_rank_run_recovers_spectrum() {
        let op = diag_op(&[5.0, 3.0, 2.0, 1.0]);
        // Start with weight in every eigendirection.
        let r = lanczos(&op, &[0.5, 0.5, 0.5, 0.5], 4);
        let e = tridiag_eig(&r.alpha, &r.beta);
        let mut got = e.values.clone();
        got.sort_by(|a, b| b.total_cmp(a));
        for (g, w) in got.iter().zip([5.0, 3.0, 2.0, 1.0]) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn early_breakdown_on_invariant_subspace() {
        // Start vector is an exact eigenvector: Krylov space has dim 1.
        let op = diag_op(&[5.0, 3.0, 2.0]);
        let r = lanczos(&op, &[1.0, 0.0, 0.0], 3);
        assert_eq!(r.steps(), 1);
        assert!((r.alpha[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_start_vector_yields_empty() {
        let op = diag_op(&[1.0, 2.0]);
        let r = lanczos(&op, &[0.0, 0.0], 2);
        assert_eq!(r.steps(), 0);
    }

    #[test]
    fn tridiagonal_reproduces_operator_in_krylov_basis() {
        // Qᵀ A Q should equal T.
        let m = Mat::from_rows(3, 3, vec![2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0]);
        let op = DenseOperator::new(m.clone());
        let r = lanczos(&op, &[1.0, 1.0, 0.0], 3);
        let k = r.steps();
        for i in 0..k {
            let aqi = op.apply_vec(&r.basis[i]);
            for j in 0..k {
                let tij = dot(&r.basis[j], &aqi);
                let want = if i == j {
                    r.alpha[i]
                } else if j + 1 == i || i + 1 == j {
                    r.beta[i.min(j)]
                } else {
                    0.0
                };
                assert!(
                    (tij - want).abs() < 1e-10,
                    "T[{j},{i}] = {tij}, want {want}"
                );
            }
        }
    }
}
