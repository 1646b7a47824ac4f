//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic contracts the SST implementations rely on:
//! SVD factorizations must reconstruct their input, eigen-solvers must agree
//! with each other, and implicit Hankel operators must match their dense
//! materializations on arbitrary signals.

use funnel_linalg::matrix::{dot, Mat};
use funnel_linalg::op::DenseOperator;
use funnel_linalg::{
    lanczos, svd, sym_eig, tridiag_eig, tridiag_eig_into, tridiag_eig_lockstep, HankelMatrix,
    LinearOperator, Tridiagonal,
};
use proptest::prelude::*;
use proptest::sample::Index;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, len)
}

/// A tridiagonal's diagonal and subdiagonal, `n ≤ 6` rows, drawn from
/// `values` (11 entries) and `cuts` (5) as `kind` says: random entries with
/// a zero subdiagonal wherever a cut is 0, splitting it into blocks (kinds
/// 0 to 3); the same with one entry, picked by `bad`, non-finite (4); or
/// the leading 2 to 5 rows of the capped case of `tridiag`'s
/// `extreme_finite_magnitudes_do_not_panic`, on which QL stops at
/// `MAX_ITER` (5).
fn tridiagonal(
    kind: usize,
    n: usize,
    values: &[f64],
    cuts: &[u8],
    bad: Index,
) -> (Vec<f64>, Vec<f64>) {
    if kind == 5 {
        // Capped after 101, 150, 199 or 248 steps.
        let n = n.clamp(2, 5);
        let d = [8e307, -8e307, 1e-300, 0.0, 1e300];
        let e = [8e307, 1e150, 1e-290, 1e290];
        return (d[..n].to_vec(), e[..n - 1].to_vec());
    }
    let mut d = values[..n].to_vec();
    let sub = values[6..6 + n.saturating_sub(1)].iter().zip(cuts);
    let mut e: Vec<f64> = sub
        .map(|(&x, &cut)| if cut == 0 { 0.0 } else { x })
        .collect();
    if kind == 4 && n > 0 {
        let at = bad.index(2 * n - 1);
        let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][at % 3];
        if at < n {
            d[at] = x;
        } else {
            e[at - n] = x;
        }
    }
    (d, e)
}

/// A problem of `d`/`e` whose `z` keeps `rows` rows.
fn problem(d: &[f64], e: &[f64], rows: usize) -> Tridiagonal {
    let n = d.len();
    let mut padded = e.to_vec();
    padded.resize(n, 0.0);
    Tridiagonal::new(d.to_vec(), padded, vec![0.0; rows * n], vec![0; n])
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn svd_reconstructs_random_matrices(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in finite_vec(64),
    ) {
        let data: Vec<f64> = seed.iter().take(rows * cols).copied().collect();
        prop_assume!(data.len() == rows * cols);
        let a = Mat::from_rows(rows, cols, data);
        let f = svd(&a);
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(f.reconstruct().max_abs_diff(&a) < 1e-9 * scale);
        // Singular values descending and non-negative.
        for w in f.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(f.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_left_vectors_orthonormal(
        rows in 2usize..8,
        cols in 2usize..8,
        seed in finite_vec(64),
    ) {
        let data: Vec<f64> = seed.iter().take(rows * cols).copied().collect();
        prop_assume!(data.len() == rows * cols);
        let f = svd(&Mat::from_rows(rows, cols, data));
        let r = f.s.len();
        for p in 0..r {
            for q in p..r {
                let d: f64 = (0..f.u.rows()).map(|i| f.u[(i, p)] * f.u[(i, q)]).sum();
                let want = if p == q { 1.0 } else { 0.0 };
                prop_assert!((d - want).abs() < 1e-8, "u{p}·u{q} = {d}");
            }
        }
    }

    #[test]
    fn symeig_matches_svd_singular_values_on_gram(
        n in 2usize..6,
        seed in finite_vec(36),
    ) {
        let data: Vec<f64> = seed.iter().take(n * n).copied().collect();
        prop_assume!(data.len() == n * n);
        let a = Mat::from_rows(n, n, data);
        // Eigenvalues of AAᵀ are squared singular values of A.
        let e = sym_eig(&a.gram());
        let f = svd(&a);
        let scale = a.frobenius_norm().powi(2).max(1.0);
        for (l, s) in e.values.iter().zip(f.s.iter()) {
            prop_assert!((l - s * s).abs() < 1e-8 * scale, "{l} vs {}", s * s);
        }
    }

    #[test]
    fn tridiag_eig_matches_jacobi(
        n in 2usize..8,
        dseed in finite_vec(8),
        eseed in finite_vec(7),
    ) {
        let diag: Vec<f64> = dseed.iter().take(n).copied().collect();
        let sub: Vec<f64> = eseed.iter().take(n - 1).copied().collect();
        prop_assume!(diag.len() == n && sub.len() == n - 1);
        let mut dense = Mat::zeros(n, n);
        for i in 0..n {
            dense[(i, i)] = diag[i];
        }
        for i in 0..n - 1 {
            dense[(i, i + 1)] = sub[i];
            dense[(i + 1, i)] = sub[i];
        }
        let ql = tridiag_eig(&diag, &sub);
        let jac = sym_eig(&dense);
        let scale = dense.frobenius_norm().max(1.0);
        for (a, b) in ql.values.iter().zip(jac.values.iter()) {
            prop_assert!((a - b).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn hankel_implicit_matches_dense(
        omega in 2usize..8,
        delta in 2usize..8,
        seed in finite_vec(20),
        vseed in finite_vec(8),
    ) {
        let sig: Vec<f64> = seed.iter().take(omega + delta - 1).copied().collect();
        prop_assume!(sig.len() == omega + delta - 1);
        let v: Vec<f64> = vseed.iter().take(delta).copied().collect();
        prop_assume!(v.len() == delta);
        let h = HankelMatrix::new(&sig, omega, delta);
        let dense = h.to_dense();
        let hv = h.matvec(&v);
        let dv = dense.matvec(&v);
        for (a, b) in hv.iter().zip(dv.iter()) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        }
        // Gram operator agrees with the dense Gram matrix.
        let u: Vec<f64> = vseed.iter().take(omega).copied().collect();
        prop_assume!(u.len() == omega);
        let cu = h.gram_operator().apply_vec(&u);
        let du = dense.gram().matvec(&u);
        for (a, b) in cu.iter().zip(du.iter()) {
            prop_assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn lanczos_eigenvalues_bounded_by_operator_spectrum(
        n in 2usize..7,
        seed in finite_vec(49),
        sseed in finite_vec(7),
    ) {
        let data: Vec<f64> = seed.iter().take(n * n).copied().collect();
        prop_assume!(data.len() == n * n);
        let raw = Mat::from_rows(n, n, data);
        let spd = raw.gram(); // symmetric PSD
        let exact = sym_eig(&spd);
        let start: Vec<f64> = sseed.iter().take(n).copied().collect();
        prop_assume!(start.len() == n);
        prop_assume!(start.iter().any(|&x| x.abs() > 1e-6));
        let op = DenseOperator::new(spd.clone());
        let r = lanczos(&op, &start, n);
        prop_assume!(r.steps() > 0);
        let ritz = tridiag_eig(&r.alpha, &r.beta);
        // Ritz values interlace: all lie within [λ_min, λ_max].
        let lo = exact.values.last().copied().unwrap_or(0.0);
        let hi = exact.values.first().copied().unwrap_or(0.0);
        let tol = 1e-6 * hi.abs().max(1.0);
        for v in &ritz.values {
            prop_assert!(*v >= lo - tol && *v <= hi + tol, "ritz {v} outside [{lo}, {hi}]");
        }
        // Basis orthonormal.
        for i in 0..r.basis.len() {
            for j in i..r.basis.len() {
                let d = dot(&r.basis[i], &r.basis[j]);
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - want).abs() < 1e-7);
            }
        }
    }

    /// Problems solved in lockstep get the bits each gets alone, and a `z`
    /// of `r` rows holds the first `r` rows of the full `z`. Checked to fail
    /// when, in `tridiag_eig_lockstep` or `Ql`, one of `s`, `c`, `p` or `g`
    /// is shared between two problems (a problem steps with the value the
    /// previous one left); when a problem that hits `MAX_ITER` ends the
    /// rounds for all; and when a round steps only the first unfinished
    /// problem, which solves them one after another (same bits, but as many
    /// rounds as all their steps).
    #[test]
    fn lockstep_gives_each_problem_its_bits_alone(
        count in 1usize..5,
        kinds in prop::collection::vec(0usize..6, 4),
        sizes in prop::collection::vec(0usize..7, 4),
        rows in prop::collection::vec(any::<Index>(), 4),
        values in finite_vec(4 * 11),
        cuts in prop::collection::vec(0u8..4, 4 * 5),
        bad in prop::collection::vec(any::<Index>(), 4),
    ) {
        let problems: Vec<_> = (0..count)
            .map(|p| {
                let (d, e) = tridiagonal(
                    kinds[p],
                    sizes[p],
                    &values[p * 11..],
                    &cuts[p * 5..],
                    bad[p],
                );
                let keep = rows[p].index(d.len() + 1);
                (d, e, keep)
            })
            .collect();
        let mut alone = Vec::new();
        let mut longest = 0;
        for (d, e, rows) in &problems {
            let mut full = problem(d, e, d.len());
            tridiag_eig_into(&mut full.d, &mut full.e, &mut full.z, &mut full.order);
            let mut one = problem(d, e, *rows);
            longest = longest.max(tridiag_eig_lockstep(std::slice::from_mut(&mut one)));
            prop_assert_eq!(bits(&one.d), bits(&full.d));
            prop_assert_eq!(&one.order, &full.order);
            prop_assert_eq!(bits(&one.z), bits(&full.z[..one.z.len()]));
            alone.push(full);
        }
        let mut together: Vec<Tridiagonal> =
            problems.iter().map(|(d, e, rows)| problem(d, e, *rows)).collect();
        prop_assert_eq!(tridiag_eig_lockstep(&mut together), longest);
        for (t, full) in together.iter().zip(&alone) {
            prop_assert_eq!(bits(&t.d), bits(&full.d));
            prop_assert_eq!(&t.order, &full.order);
            prop_assert_eq!(bits(&t.z), bits(&full.z[..t.z.len()]));
        }
    }
}
