//! The shipped reference: the allocating `FastSst` path exactly as it stood
//! before the workspace kernels and the threshold screening, frozen here so
//! the library can be property-tested against it bit for bit.
//!
//! Everything under [`shipped`] is a verbatim copy (module docs and unit
//! tests dropped, `use` paths adjusted) of `linalg/{hankel,lanczos,tridiag}`,
//! `timeseries::stats::{median, mad}`, `sst/{layout,filter,fast}` at the
//! commit that introduced this file. It must never be "fixed" or tuned: it
//! is the definition of the bits the fast path has to reproduce. The one
//! later edit reads `δ = γ = ω`, `ρ = 0`, `η = 3` and standardization where
//! the copy read the `SstConfig` fields they replaced.

#![expect(
    dead_code,
    reason = "a frozen copy of the shipped kernel, kept verbatim"
)]

mod shipped {
    use funnel_linalg::matrix::{axpy, dot, normalize, Mat};
    use funnel_linalg::op::LinearOperator;
    use funnel_sst::{EigSelection, SstConfig};

    /// `η` and the Krylov dimension `2η − 1` the copy read off `SstConfig`.
    const ETA: usize = 3;
    const KRYLOV_DIM: usize = 2 * ETA - 1;

    // ---- linalg/src/hankel.rs ------------------------------------------

    /// An `ω×δ` Hankel matrix stored as its generating signal.
    #[derive(Debug, Clone)]
    pub struct HankelMatrix {
        signal: Vec<f64>,
        omega: usize,
        delta: usize,
    }

    impl HankelMatrix {
        /// Builds the trajectory matrix with window length `omega` and `delta`
        /// lagged columns over `signal`, which must hold exactly
        /// `omega + delta − 1` samples: column `j` is
        /// `signal[j .. j+omega]`, oldest samples first.
        ///
        /// # Panics
        ///
        /// Panics when the signal length does not match or either dimension is
        /// zero.
        pub fn new(signal: &[f64], omega: usize, delta: usize) -> Self {
            assert!(omega > 0 && delta > 0, "Hankel dimensions must be positive");
            assert_eq!(
                signal.len(),
                omega + delta - 1,
                "signal length must be omega + delta - 1"
            );
            Self {
                signal: signal.to_vec(),
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
            assert_eq!(v.len(), self.delta, "Hankel matvec dimension mismatch");
            (0..self.omega)
                .map(|i| {
                    v.iter()
                        .enumerate()
                        .map(|(j, &vj)| self.signal[i + j] * vj)
                        .sum()
                })
                .collect()
        }

        /// `Bᵀ · u` for `u ∈ R^ω`.
        pub fn matvec_t(&self, u: &[f64]) -> Vec<f64> {
            assert_eq!(u.len(), self.omega, "Hankel matvec_t dimension mismatch");
            (0..self.delta)
                .map(|j| {
                    u.iter()
                        .enumerate()
                        .map(|(i, &ui)| self.signal[i + j] * ui)
                        .sum()
                })
                .collect()
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

    /// `C = BBᵀ ∈ R^{ω×ω}` applied implicitly: `C·v = B(Bᵀv)` in `O(ωδ)`.
    #[derive(Debug, Clone, Copy)]
    pub struct GramOperator<'a> {
        hankel: &'a HankelMatrix,
    }

    impl LinearOperator for GramOperator<'_> {
        fn dim(&self) -> usize {
            self.hankel.omega
        }

        fn apply(&self, v: &[f64], out: &mut [f64]) {
            let bt_v = self.hankel.matvec_t(v);
            let b_btv = self.hankel.matvec(&bt_v);
            out.copy_from_slice(&b_btv);
        }
    }

    // ---- linalg/src/lanczos.rs -----------------------------------------

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
        assert_eq!(start.len(), n, "start vector dimension mismatch");
        let mut q = start.to_vec();
        if normalize(&mut q) == 0.0 || k == 0 {
            return LanczosResult {
                alpha: Vec::new(),
                beta: Vec::new(),
                basis: Vec::new(),
            };
        }

        let mut alpha = Vec::with_capacity(k);
        let mut beta: Vec<f64> = Vec::with_capacity(k.saturating_sub(1));
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
        basis.push(q.clone());

        let mut w = vec![0.0; n];
        for step in 0..k {
            op.apply(&basis[step], &mut w);
            let a = dot(&basis[step], &w);
            alpha.push(a);
            if step + 1 == k {
                break;
            }
            // w ← w − a·q_step − b_{step−1}·q_{step−1}
            axpy(-a, &basis[step], &mut w);
            if step > 0 {
                axpy(-beta[step - 1], &basis[step - 1], &mut w);
            }
            // Full reorthogonalization (twice is enough; k is tiny).
            for _ in 0..2 {
                for qi in &basis {
                    let c = dot(qi, &w);
                    axpy(-c, qi, &mut w);
                }
            }
            let b = normalize(&mut w);
            // Breakdown = invariant subspace found; T is exact at this size.
            let scale = alpha.iter().fold(1e-300_f64, |m, a| m.max(a.abs()));
            if b <= f64::EPSILON * scale * 16.0 {
                break;
            }
            beta.push(b);
            basis.push(w.clone());
        }

        LanczosResult { alpha, beta, basis }
    }

    // ---- linalg/src/tridiag.rs -----------------------------------------

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
        // Working copy of the subdiagonal, padded so e[n-1] exists (always 0).
        let mut e = vec![0.0; n];
        e[..n - 1].copy_from_slice(subdiag);
        let mut z = Mat::identity(n);

        // Garbage in, NaN out — but never a hang or a panic: the QL recurrence
        // cannot converge on non-finite entries, so poison the diagonal up
        // front and skip the iteration entirely.
        if d.iter().chain(e.iter()).any(|x| !x.is_finite()) {
            d.fill(f64::NAN);
            return sorted_eig(&d, &z, n);
        }

        'outer: for l in 0..n {
            let mut iter = 0;
            loop {
                // Find the first negligible subdiagonal element at or after l.
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break; // d[l] has converged.
                }
                iter += 1;
                if iter > MAX_ITER {
                    // LAPACK-style iteration cap exceeded (finite input makes
                    // this practically unreachable, but rounding pathologies
                    // exist): accept the current approximation rather than
                    // aborting the caller.
                    break 'outer;
                }

                // Wilkinson shift.
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                let sign_r = if g >= 0.0 { r } else { -r };
                g = d[m] - d[l] + e[l] / (g + sign_r);
                let (mut s, mut c) = (1.0_f64, 1.0_f64);
                let mut p = 0.0_f64;

                let mut underflow = false;
                for i in (l..m).rev() {
                    let mut f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        // Deflate: rescue the eigenvalue and restart this l.
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        underflow = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;

                    // Accumulate the rotation into the eigenvector matrix.
                    for k in 0..n {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
                if underflow {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }

        sorted_eig(&d, &z, n)
    }

    /// Sorts eigenvalues descending, carrying eigenvector columns along.
    fn sorted_eig(d: &[f64], z: &Mat, n: usize) -> TridiagEig {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
        let mut values = Vec::with_capacity(n);
        let mut vectors = Mat::zeros(n, n);
        for (dst, &src) in order.iter().enumerate() {
            values.push(d[src]);
            for i in 0..n {
                vectors[(i, dst)] = z[(i, src)];
            }
        }
        TridiagEig { values, vectors }
    }

    // ---- timeseries/src/stats.rs (median, mad, RobustSummary) ----------

    /// Median by partial sort; `0.0` for an empty slice. Even-length slices
    /// return the mean of the two central order statistics.
    pub fn median(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = xs.to_vec();
        let n = v.len();
        let mid = n / 2;
        let (_, m, _) = v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        let hi = *m;
        if n % 2 == 1 {
            hi
        } else {
            // Largest element of the lower half.
            let lo = v[..mid].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo + hi) / 2.0
        }
    }

    /// Median absolute deviation around the median (paper Eq. 12), without the
    /// Gaussian consistency constant: `median(|x_i - median(x)|)`.
    pub fn mad(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let m = median(xs);
        let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
        median(&devs)
    }

    /// Median and MAD of one window, computed together.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RobustSummary {
        /// Window median.
        pub median: f64,
        /// Window median absolute deviation.
        pub mad: f64,
    }

    impl RobustSummary {
        /// Summarizes `xs`. Empty input yields zeros.
        pub fn of(xs: &[f64]) -> Self {
            Self {
                median: median(xs),
                mad: mad(xs),
            }
        }
    }

    // ---- sst/src/layout.rs (split, standardize_by_past) ----------------

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
        let past = &window[..past_len.min(window.len())];
        let m = median(past);
        let mut s = mad(past);
        if s < 1e-9 {
            s = mad(window);
        }
        let s = s.max(1e-9);
        window.iter().map(|x| (x - m) / s).collect()
    }

    // ---- sst/src/filter.rs ---------------------------------------------

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
            let a = RobustSummary::of(past);
            let b = RobustSummary::of(future);
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

    // ---- sst/src/fast.rs -----------------------------------------------

    pub struct FastSst {
        config: SstConfig,
    }

    impl FastSst {
        /// Creates a fast scorer.
        ///
        /// # Panics
        ///
        /// Panics when the configuration fails [`SstConfig::validate`].
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

        /// Creates the scorer with the paper's evaluation configuration
        /// (`ω = 9`, `W = 34`).
        pub fn paper_default() -> Self {
            Self::new(SstConfig::paper_default())
        }

        /// Ritz approximations `(λ_i, β_i)` of the selected η future eigenpairs,
        /// computed via Lanczos on the *implicit* future Gram.
        fn future_directions(&self, future_sig: &[f64]) -> Vec<(f64, Vec<f64>)> {
            let c = &self.config;
            let a = HankelMatrix::new(future_sig, c.omega, c.omega);
            let gram = a.gram_operator();
            // Deterministic full-support start vector.
            let start: Vec<f64> = (0..c.omega)
                .map(|i| 1.0 + (i as f64) / c.omega as f64)
                .collect();
            let k = KRYLOV_DIM.max(ETA.min(c.omega)).min(c.omega);
            let lz = lanczos(&gram, &start, k);
            if lz.steps() == 0 {
                return Vec::new();
            }
            let eig = tridiag_eig(&lz.alpha, &lz.beta);
            let steps = lz.steps();
            let eta = ETA.min(c.omega).min(steps);

            let pick = |rank_from_top: usize| -> (f64, Vec<f64>) {
                let col = match c.eig_selection {
                    EigSelection::Largest => rank_from_top,
                    EigSelection::Smallest => steps - 1 - rank_from_top,
                };
                // Map the Ritz vector back to R^ω through the Lanczos basis.
                let mut v = vec![0.0; c.omega];
                for (m, q) in lz.basis.iter().enumerate() {
                    let ym = eig.vectors[(m, col)];
                    for (vi, qi) in v.iter_mut().zip(q.iter()) {
                        *vi += ym * qi;
                    }
                }
                normalize(&mut v);
                (eig.values[col].max(0.0), v)
            };
            (0..eta).map(pick).collect()
        }

        /// Eq. 13: discordance of one future direction against the past signal
        /// subspace, via `Lanczos(C, β_i, k)` and QL on `T_k`.
        fn phi(&self, past_gram: &GramOperator<'_>, beta: &[f64]) -> f64 {
            let c = &self.config;
            let k = KRYLOV_DIM.min(c.omega);
            let lz = lanczos(past_gram, beta, k);
            if lz.steps() == 0 {
                return 0.0;
            }
            let eig = tridiag_eig(&lz.alpha, &lz.beta);
            let eta = ETA.min(c.omega).min(lz.steps());
            // First components of the top-η eigenvectors of T_k approximate
            // β_i · u_j (the Lanczos basis starts at β_i).
            let proj_sq: f64 = (0..eta).map(|j| eig.vectors[(0, j)].powi(2)).sum();
            (1.0 - proj_sq).clamp(0.0, 1.0)
        }

        /// The raw (unfiltered) Eq. 9 score; exposed for ablations and the
        /// robust-oracle comparison tests.
        pub fn raw_score(&self, window: &[f64]) -> f64 {
            let c = &self.config;
            self.raw_score_prepared(&standardize_by_past(window, c.past_len()))
        }

        fn raw_score_prepared(&self, window: &[f64]) -> f64 {
            let c = &self.config;
            let sw = split(c, window);
            let b = HankelMatrix::new(sw.past, c.omega, c.omega);
            let past_gram = b.gram_operator();
            let dirs = self.future_directions(sw.future);
            if dirs.is_empty() {
                return 0.0;
            }
            let mut num = 0.0;
            let mut den = 0.0;
            for (lambda, beta) in &dirs {
                let phi = self.phi(&past_gram, beta);
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

    impl FastSst {
        pub fn score_window(&self, window: &[f64]) -> f64 {
            let c = &self.config;
            let window = &standardize_by_past(window, c.past_len())[..];
            let raw = self.raw_score_prepared(window);
            if !c.median_mad_filter {
                return raw;
            }
            let sw = split(c, window);
            apply_filter(raw, sw.past, sw.future)
        }
    }
}

use funnel_sst::{EigSelection, FastSst, SstConfig, SstScorer, SstWorkspace, StreamingSst};
use proptest::prelude::*;

/// Every configuration axis the kernels branch on.
fn configs() -> Vec<SstConfig> {
    let base = SstConfig::paper_default;
    let mut out = vec![base(), SstConfig::quick(), SstConfig::with_omega(15)];
    let mut c = base();
    c.eig_selection = EigSelection::Smallest;
    out.push(c);
    let mut c = base();
    c.median_mad_filter = false;
    out.push(c);
    let mut c = SstConfig::quick();
    c.median_mad_filter = false;
    out.push(c);
    out
}

/// Number of window shapes [`window`] knows.
const SHAPES: u64 = 12;

/// A window of `c`'s length: noise, shifts, ties, and every degenerate
/// input the telemetry path can deliver (non-finite, huge, flat, `-0.0`).
fn window(c: &SstConfig, shape: u64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (w, p) = (c.window_len(), c.past_len());
    let mut v: Vec<f64> = (0..w).map(|_| 2e4 * next() - 1e4).collect();
    let at = (next() * w as f64) as usize % w;
    match shape {
        0 => {}
        1 => v[p..].iter_mut().for_each(|x| *x += 5e4 * next()),
        2 => v[at] = f64::NAN,
        3 => v[at] = f64::INFINITY,
        4 => v[at] = f64::NEG_INFINITY,
        5 => v.iter_mut().step_by(3).for_each(|x| *x = 1e308),
        6 => v.fill(42.5),
        7 => v.fill(-0.0),
        8 => v[..p].fill(7.0),
        9 => v.iter_mut().for_each(|x| *x = (*x / 2500.0).round()),
        10 => v
            .iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = 0.001 * *x + if i >= p { 3.0 * (i - p) as f64 } else { 0.0 }),
        _ => v[p..].fill(-3.0),
    }
    v
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `score_window` — fresh or through a held, reused workspace — returns
    /// the shipped bits.
    #[test]
    fn score_window_is_bit_identical_to_shipped(seed in any::<u64>()) {
        for c in configs() {
            let reference = shipped::FastSst::new(c.clone());
            let fast = FastSst::new(c.clone());
            let mut ws = SstWorkspace::new(&c);
            for shape in 0..SHAPES {
                let w = window(&c, shape, seed.wrapping_add(shape));
                let want = reference.score_window(&w).to_bits();
                prop_assert_eq!(fast.score_window(&w).to_bits(), want, "{:?} shape {}", c, shape);
                prop_assert_eq!(
                    fast.score_window_in(&mut ws, &w).to_bits(),
                    want,
                    "held workspace: {:?} shape {}", c, shape
                );
            }
        }
    }

    /// `score_reaching(w, t)` is `(shipped(w) >= t).then_some(shipped(w))`,
    /// at the thresholds that matter and on both sides of the score itself.
    #[test]
    fn score_reaching_is_shipped_score_then_compare(seed in any::<u64>()) {
        for c in configs() {
            let reference = shipped::FastSst::new(c.clone());
            let fast = FastSst::new(c.clone());
            let mut ws = SstWorkspace::new(&c);
            for shape in 0..SHAPES {
                let w = window(&c, shape, seed.wrapping_add(shape));
                let s = reference.score_window(&w);
                let above = f64::from_bits(s.to_bits().wrapping_add(1));
                for t in [0.5, 0.0, -0.0, -1.0, f64::INFINITY, f64::NAN, 1e-3, 3.0, s, above, 0.5 * s] {
                    let want = bits((s >= t).then_some(s));
                    prop_assert_eq!(
                        bits(fast.score_reaching(&w, t)), want,
                        "{:?} shape {} threshold {}", c, shape, t
                    );
                    prop_assert_eq!(
                        bits(fast.score_reaching_in(&mut ws, &w, t)), want,
                        "held workspace: {:?} shape {} threshold {}", c, shape, t
                    );
                }
            }
        }
    }

    /// Rolling folds hand the kernel the same windows as the shipped batch
    /// scorer saw, screened or not.
    #[test]
    fn streaming_folds_are_bit_identical_to_shipped(seed in any::<u64>(), shape in 0..SHAPES) {
        let c = SstConfig::paper_default();
        let reference = shipped::FastSst::new(c.clone());
        let w = c.window_len();
        let mut values = window(&c, 0, seed);
        values.extend(window(&c, shape, seed ^ 0x9e37));
        values.extend(window(&c, 1, seed ^ 0x79b9));
        let mut plain = StreamingSst::new(FastSst::new(c.clone()));
        let mut screened = StreamingSst::new(FastSst::new(c.clone()));
        let mut ws = SstWorkspace::new(&c);
        for (i, &v) in values.iter().enumerate() {
            let want = (i + 1 >= w).then(|| reference.score_window(&values[i + 1 - w..=i]));
            prop_assert_eq!(bits(plain.fold(v)), bits(want));
            let got = screened.fold_with(v, |s, win| s.score_reaching_in(&mut ws, win, 0.5));
            prop_assert_eq!(got.map(bits), want.map(|s| bits((s >= 0.5).then_some(s))));
        }
    }
}

/// The generator must exercise both answers, or the properties above are
/// vacuous.
#[test]
fn generated_windows_land_on_both_sides_of_the_threshold() {
    let c = SstConfig::paper_default();
    let fast = FastSst::new(c.clone());
    let answers: Vec<bool> = (0..SHAPES)
        .flat_map(|shape| (0..8).map(move |seed| (shape, 0x5eed + 977 * seed)))
        .map(|(shape, seed)| fast.score_reaching(&window(&c, shape, seed), 0.5).is_some())
        .collect();
    let reached = answers.iter().filter(|&&r| r).count();
    assert!(
        reached >= 8 && answers.len() - reached >= 8,
        "{reached} of {}",
        answers.len()
    );
}
