//! Implicit-shift QL eigensolver for symmetric tridiagonal matrices.
//!
//! This is the "QL iteration" of paper §3.2.3: after Lanczos compresses the
//! covariance operator to a `k×k` tridiagonal `T_k` (with `k = 5` for
//! `η = 3`), "the eigenvectors of the tridiagonal matrix T_k can be
//! calculated extremely fast" by QL with implicit Wilkinson shifts — the
//! classic `tql2` algorithm.
//!
//! `tql2` here is a stepper (one seek or one Givens rotation a step), so
//! [`tridiag_eig_lockstep`] can step independent problems round-robin and
//! hide each one's `hypot` latency behind the others'. Each problem runs the
//! same operations in the same order as alone, and a rotation acts on each
//! row of `z` on its own, so a solve that keeps fewer rows keeps their bits.

use crate::matrix::Mat;

/// Result of [`tridiag_eig`]: eigenvalues **descending**, with orthonormal
/// eigenvectors as columns in the same order (expressed in the basis in
/// which the tridiagonal was given, i.e. the Lanczos basis for IKA).
#[derive(Debug, Clone)]
pub struct TridiagEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors, one column per eigenvalue.
    pub vectors: Mat,
}

/// Maximum QL iterations per eigenvalue before declaring non-convergence.
const MAX_ITER: usize = 50;

/// Diagonalizes the symmetric tridiagonal matrix with diagonal `diag` and
/// subdiagonal `subdiag` (`subdiag[i]` couples rows `i` and `i+1`).
///
/// Panics if `subdiag.len() + 1 != diag.len()` (except the `n = 0` case).
/// Non-finite input (overflowed covariances from telemetry carrying
/// corrupted magnitudes) and the theoretical non-convergence case degrade
/// gracefully instead of panicking: the current (possibly NaN) diagonal is
/// returned, which downstream scoring treats as "no evidence" because NaN
/// fails every threshold comparison.
pub fn tridiag_eig(diag: &[f64], subdiag: &[f64]) -> TridiagEig {
    let n = diag.len();
    if n == 0 {
        return TridiagEig {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
    }
    assert_eq!(subdiag.len() + 1, n, "subdiagonal must have n-1 entries");

    let mut d = diag.to_vec();
    let mut e = vec![0.0; n];
    e[..n - 1].copy_from_slice(subdiag);
    let mut z = vec![0.0; n * n];
    let mut order = vec![0; n];
    tridiag_eig_into(&mut d, &mut e, &mut z, &mut order);

    let mut vectors = Mat::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for i in 0..n {
            vectors[(i, dst)] = z[i * n + src];
        }
    }
    TridiagEig {
        values: order.iter().map(|&src| d[src]).collect(),
        vectors,
    }
}

/// [`tridiag_eig`] in place, in caller-owned buffers: the one-problem case
/// of [`tridiag_eig_lockstep`], its steps run back to back.
///
/// On entry `d` holds the diagonal (`n` entries) and `e[..n−1]` the
/// subdiagonal; `e[n−1]` is padding the solver overwrites, and `z` and
/// `order` (`n`) are pure outputs. `z` holds `rows × n` entries for some
/// `rows ≤ n`: the first `rows` rows of the eigenvector matrix, row-major,
/// and only those are accumulated. On return `d[order[r]]` is the
/// eigenvalue of descending rank `r` (ties in index order) and
/// `z[i·n + order[r]]` the `i`-th component of its eigenvector (`i < rows`).
pub fn tridiag_eig_into(d: &mut [f64], e: &mut [f64], z: &mut [f64], order: &mut [usize]) {
    let mut ql = Ql::start(d, e, z, order);
    while ql.step(d, e, z) {}
    rank(d, order);
}

/// One problem of [`tridiag_eig_lockstep`]: the four buffers of
/// [`tridiag_eig_into`], owned, so that a workspace can hold several. Their
/// lengths are the shapes it asks for: `d`, `e` and `order` of `n`, `z` of
/// `rows × n` with `rows ≤ n`.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// The diagonal on entry; the eigenvalues, unsorted, on return.
    pub d: Vec<f64>,
    /// The subdiagonal in `e[..n−1]`, then the solver's padding slot.
    pub e: Vec<f64>,
    /// On return, the first `rows` rows of the eigenvectors, row-major.
    pub z: Vec<f64>,
    /// On return, the eigenvalues' descending order.
    pub order: Vec<usize>,
    /// Where the solve stands between two rounds of a lockstep.
    ql: Ql,
}

impl Tridiagonal {
    /// A problem over the given buffers, shaped as the type says.
    pub fn new(d: Vec<f64>, e: Vec<f64>, z: Vec<f64>, order: Vec<usize>) -> Self {
        Self {
            d,
            e,
            z,
            order,
            ql: Ql::default(),
        }
    }
}

/// [`tridiag_eig_into`] on each of several independent problems, their
/// steps taken round-robin: one seek or one Givens rotation of each
/// unfinished problem a round. A step of one problem never waits on
/// another's, so the latency of one problem's `hypot` chain hides behind
/// the others'.
///
/// Each problem's bits are those it gets alone: it runs the same
/// operations in the same order on state of its own. Returns the rounds
/// taken, which is the step count of the longest problem, not their sum.
pub fn tridiag_eig_lockstep(problems: &mut [Tridiagonal]) -> usize {
    for t in problems.iter_mut() {
        t.ql = Ql::start(&mut t.d, &mut t.e, &mut t.z, &t.order);
    }
    let mut rounds = 0;
    loop {
        let mut stepped = false;
        for t in problems.iter_mut() {
            stepped |= t.ql.step(&mut t.d, &mut t.e, &mut t.z);
        }
        if !stepped {
            break;
        }
        rounds += 1;
    }
    for t in problems {
        rank(&t.d, &mut t.order);
    }
    rounds
}

/// Descending by value; the index tie-break makes the unstable
/// (allocation-free) sort reproduce a stable one.
fn rank(d: &[f64], order: &mut [usize]) {
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    order.sort_unstable_by(|&i, &j| d[j].total_cmp(&d[i]).then(i.cmp(&j)));
}

/// Where one `tql2` solve stands between two steps. A step is one seek (to
/// the next eigenvalue not yet converged, and the Wilkinson shift of the
/// sweep that will converge it) or one Givens rotation of that sweep.
#[derive(Debug, Clone, Copy, Default)]
struct Ql {
    /// The eigenvalue being converged; `n` once the solve is over.
    l: usize,
    /// Sweeps spent on `l`.
    iter: usize,
    /// The end of the unreduced block the sweep works on.
    m: usize,
    /// The next rotation acts on rows `next − 1` and `next`; `l` between
    /// sweeps, where the next step is a seek.
    next: usize,
    /// What one rotation hands the next.
    g: f64,
    s: f64,
    c: f64,
    p: f64,
}

impl Ql {
    /// Checks the buffers' shapes, sets `z` to the identity's first rows
    /// and returns the state before the first seek.
    fn start(d: &mut [f64], e: &mut [f64], z: &mut [f64], order: &[usize]) -> Self {
        let n = d.len();
        assert!(
            e.len() == n && order.len() == n && z.len() <= n * n && z.len().is_multiple_of(n),
            "tridiagonal buffers must match the diagonal"
        );
        if let Some(pad) = e.last_mut() {
            *pad = 0.0;
        }
        z.fill(0.0);
        z.iter_mut().step_by(n + 1).for_each(|x| *x = 1.0);

        // Garbage in, NaN out — but never a hang or a panic: the QL recurrence
        // cannot converge on non-finite entries, so poison the diagonal up
        // front and skip the iteration entirely.
        let mut ql = Self::default();
        if d.iter().chain(e.iter()).any(|x| !x.is_finite()) {
            d.fill(f64::NAN);
            ql.l = n;
        }
        ql
    }

    /// Takes the solve's next step; `false`, and nothing done, once it is
    /// over. When it is, `d` holds the eigenvalues (unsorted) and the
    /// columns of `z` the eigenvectors.
    fn step(&mut self, d: &mut [f64], e: &mut [f64], z: &mut [f64]) -> bool {
        let n = d.len();
        if self.l >= n {
            return false;
        }
        if self.next == self.l {
            self.seek(d, e);
        } else {
            self.rotate(d, e, z);
        }
        true
    }

    fn seek(&mut self, d: &[f64], e: &[f64]) {
        let n = d.len();
        loop {
            // Find the first negligible subdiagonal element at or after l.
            let mut m = self.l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m > self.l {
                self.m = m;
                break;
            }
            // d[l] has converged.
            self.l += 1;
            self.next = self.l;
            self.iter = 0;
            if self.l == n {
                return;
            }
        }
        self.iter += 1;
        if self.iter > MAX_ITER {
            // LAPACK-style iteration cap exceeded (finite input gets here
            // only through overflow, or a rounding pathology): accept the
            // current approximation rather than aborting the caller.
            self.l = n;
            return;
        }

        // Wilkinson shift.
        let (l, m) = (self.l, self.m);
        let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        let r = g.hypot(1.0);
        let sign_r = if g >= 0.0 { r } else { -r };
        self.g = d[m] - d[l] + e[l] / (g + sign_r);
        (self.s, self.c, self.p) = (1.0, 1.0, 0.0);
        self.next = m;
    }

    fn rotate(&mut self, d: &mut [f64], e: &mut [f64], z: &mut [f64]) {
        let (n, l, m, i) = (d.len(), self.l, self.m, self.next - 1);
        let mut f = self.s * e[i];
        let b = self.c * e[i];
        let mut r = f.hypot(self.g);
        e[i + 1] = r;
        if r == 0.0 {
            // Deflate: rescue the eigenvalue and seek this l again.
            d[i + 1] -= self.p;
            e[m] = 0.0;
            self.next = l;
            return;
        }
        let s = f / r;
        let c = self.g / r;
        let g = d[i + 1] - self.p;
        r = (d[i] - g) * s + 2.0 * c * b;
        self.p = s * r;
        d[i + 1] = g + self.p;
        (self.g, self.s, self.c) = (c * r - b, s, c);

        // Accumulate the rotation into the rows of `z` there are: each row
        // is rotated on its own, so fewer rows leave these rows' bits alone.
        for row in z.chunks_exact_mut(n) {
            f = row[i + 1];
            row[i + 1] = s * row[i] + c * f;
            row[i] = c * row[i] - s * f;
        }
        self.next = i;
        if i == l {
            // The sweep is done.
            d[l] -= self.p;
            e[l] = self.g;
            e[m] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symeig::sym_eig;

    fn tridiag_mat(diag: &[f64], sub: &[f64]) -> Mat {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        for i in 0..n - 1 {
            m[(i, i + 1)] = sub[i];
            m[(i + 1, i)] = sub[i];
        }
        m
    }

    #[test]
    fn empty_and_singleton() {
        let e = tridiag_eig(&[], &[]);
        assert!(e.values.is_empty());
        let e = tridiag_eig(&[4.2], &[]);
        assert_eq!(e.values, vec![4.2]);
        assert_eq!(e.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn known_2x2() {
        // [[1,2],[2,1]] → eigenvalues 3, -1.
        let e = tridiag_eig(&[1.0, 1.0], &[2.0]);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_jacobi_on_random_tridiagonal() {
        let diag = [2.0, -1.0, 3.5, 0.7, 1.2, -0.4];
        let sub = [1.1, 0.3, -2.0, 0.9, 1.7];
        let ql = tridiag_eig(&diag, &sub);
        let jac = sym_eig(&tridiag_mat(&diag, &sub));
        for (a, b) in ql.values.iter().zip(jac.values.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let diag = [4.0, 1.0, -2.0, 0.5];
        let sub = [0.8, -1.5, 2.2];
        let m = tridiag_mat(&diag, &sub);
        let e = tridiag_eig(&diag, &sub);
        for j in 0..4 {
            let v = e.vectors.col(j);
            let mv = m.matvec(&v);
            for i in 0..4 {
                assert!(
                    (mv[i] - e.values[j] * v[i]).abs() < 1e-9,
                    "Av != λv at ({i},{j})"
                );
            }
        }
        // Orthonormality.
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.max_abs_diff(&Mat::identity(4)) < 1e-10);
    }

    #[test]
    fn decoupled_blocks_via_zero_subdiagonal() {
        // e[1] = 0 splits into two independent blocks.
        let e = tridiag_eig(&[5.0, 5.0, 1.0], &[0.0, 0.0]);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_input_degrades_to_nan_without_panicking() {
        // Corrupted telemetry bytes can decode to ±huge f64s; squaring them
        // in a covariance overflows to infinity. The solver must not hang
        // or abort — it returns NaNs, which fail every downstream
        // threshold comparison.
        let e = tridiag_eig(&[f64::INFINITY, 1.0, 2.0], &[0.5, f64::NAN]);
        assert_eq!(e.values.len(), 3);
        assert!(e.values.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn extreme_finite_magnitudes_do_not_panic() {
        // Magnitudes near f64::MAX (what a corrupted-but-valid frame can
        // carry) must complete within the iteration cap or bail out
        // gracefully — either way, no panic.
        let diag = [1e300, -1e300, 1e-300, 0.0, 1e308];
        let sub = [1e290, 1e150, 1e-290, 1e300];
        let e = tridiag_eig(&diag, &sub);
        assert_eq!(e.values.len(), 5);

        // Here the Wilkinson shift overflows, the sweep turns NaN and never
        // converges: the solve stops at the cap.
        let diag = [8e307, -8e307, 1e-300, 0.0, 1e300];
        let sub = [8e307, 1e150, 1e-290, 1e290];
        let mut e = sub.to_vec();
        e.push(0.0);
        let mut t = Tridiagonal::new(diag.to_vec(), e, vec![0.0; 25], vec![0; 5]);
        assert!(tridiag_eig_lockstep(std::slice::from_mut(&mut t)) > MAX_ITER);
        assert_eq!(tridiag_eig(&diag, &sub).values.len(), 5);
    }

    #[test]
    fn ika_sized_problem_k5() {
        // The k = 2η−1 = 5 case FUNNEL actually solves each window.
        let diag = [3.0, 2.5, 2.0, 1.5, 1.0];
        let sub = [0.5, 0.4, 0.3, 0.2];
        let e = tridiag_eig(&diag, &sub);
        assert_eq!(e.values.len(), 5);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let m = tridiag_mat(&diag, &sub);
        let jac = sym_eig(&m);
        for (a, b) in e.values.iter().zip(jac.values.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
