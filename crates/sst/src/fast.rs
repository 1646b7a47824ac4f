//! Fast SST — the Implicit Krylov Approximation (paper §3.2.3, after
//! Idé & Tsuda 2007).
//!
//! The exact robust scorer diagonalizes two `ω×ω` Grams per window. IKA
//! avoids even that:
//!
//! * **Matrix compression** — `B(t)` and `A(t)` stay as their generating
//!   signal slices ([`HankelMatrix`]); `C = BBᵀ` is only ever *applied*.
//! * **Implicit inner products** — `Lanczos(C, β_i(t), k)` compresses `C`
//!   to a `k×k` tridiagonal `T_k` with `k = 2η−1 = 5` (Eq. 14); every
//!   `C·v` is two Hankel matvecs.
//! * **QL iteration** — `T_k`'s eigenvectors come from the tridiagonal QL
//!   solver. Because the first Lanczos basis vector *is* `β_i`, the first
//!   component of `T_k`'s `j`-th eigenvector approximates `β_i · u_j`, so
//!   Eq. 13 reads off the discordance directly:
//!   `ϕ_i ≈ 1 − Σ_{j≤η} x_j(1)²`. The η `ϕ` solves of a window are
//!   stepped together (`tridiag_eig_lockstep`) and keep row 0 only.
//!
//! The future directions `β_i` are themselves obtained by a small Lanczos
//! run on the future Gram — still implicit, still `O(k·ω²)` per window.
//! The median/MAD filter and the eigenvalue weighting are identical to
//! [`crate::robust::RobustSst`], which is the oracle this module is tested
//! against.

use crate::config::{EigSelection, SstConfig};
use crate::filter::FilterFactors;
use crate::layout::standardize_by_past_into;
use crate::{ReachingScorer, SstScorer};
use funnel_linalg::hankel::HankelMatrix;
use funnel_linalg::lanczos::lanczos_into;
use funnel_linalg::matrix::normalize;
use funnel_linalg::tridiag::{tridiag_eig_into, tridiag_eig_lockstep, Tridiagonal};
use funnel_timeseries::stats::RobustSummary;

/// Every buffer one [`FastSst`] window score touches, sized once from the
/// configuration so that scoring through it allocates nothing: the
/// standardized window, selection scratch, the Lanczos scratch, the future
/// run's `T_k`, the η directions and the η `ϕ` tridiagonals, which a score
/// builds one after another and then solves together.
///
/// All of it is scratch, rewritten by each call: nothing is carried from one
/// window to the next. What the Eq. 11 bound slides from belongs to the
/// series, not to the scratch ([`SlidingSegments`]).
///
/// Ownership rule: one workspace per detector run or per stream worker,
/// handed to [`FastSst::score_window_in`] / [`FastSst::may_reach_in`] /
/// [`FastSst::score_reaching_in`] — never one per KPI key (resident per-key
/// state must not grow with the kernel's scratch) and never hidden inside
/// the scorer, which stays
/// `Clone + Sync` without interior mutability.
#[derive(Debug, Clone)]
pub struct SstWorkspace {
    /// The window as scored: standardized, or copied as is.
    window: Vec<f64>,
    /// Selection scratch of the order statistics (median, MAD), and where
    /// the bound merges its two sorted segments when the past is flat.
    select: Vec<f64>,
    /// Deterministic full-support Lanczos start vector of the future run.
    start: Vec<f64>,
    krylov: Krylov,
    /// The future run's `T_k`, solved with every row of its eigenvectors.
    future: Tridiagonal,
    /// The η future directions `β_i`, rows of `ω`, …
    dirs: Vec<f64>,
    /// … and their eigenvalues `λ_i`.
    lambdas: Vec<f64>,
    /// The η `ϕ` runs' `T_k`, one a direction, all built before any is
    /// solved and then solved together; each keeps row 0 of its
    /// eigenvectors, the one row `ϕ` reads.
    phis: Vec<Tridiagonal>,
}

/// The scratch of a `Lanczos(BBᵀ, start, k)` run, shared by the
/// future-direction run and the η `ϕ` runs of a window.
#[derive(Debug, Clone)]
struct Krylov {
    /// Krylov basis, `k` rows of `ω`.
    basis: Vec<f64>,
    /// Lanczos residual.
    residual: Vec<f64>,
    /// `Bᵀv` between the two Hankel products of one Gram application.
    gram: Vec<f64>,
}

impl Krylov {
    /// `k` Lanczos steps of `hankel`'s implicit Gram from `start`, leaving
    /// `T_s` in `t` with room for `rows` rows of its eigenvectors (all `s`
    /// if that is fewer). Returns the steps taken, `s` (0: empty Krylov
    /// space).
    fn tridiagonalize(
        &mut self,
        hankel: &HankelMatrix<'_>,
        start: &[f64],
        k: usize,
        rows: usize,
        t: &mut Tridiagonal,
    ) -> usize {
        t.d.resize(k, 0.0);
        t.e.resize(k, 0.0);
        let gram = &mut self.gram[..hankel.delta()];
        let steps = lanczos_into(
            |v, out| hankel.gram_apply_into(v, gram, out),
            start,
            &mut t.d,
            &mut t.e,
            &mut self.basis,
            &mut self.residual,
        );
        t.d.truncate(steps);
        t.e.truncate(steps);
        t.z.resize(rows.min(steps) * steps, 0.0);
        t.order.resize(steps, 0);
        steps
    }

    /// [`Krylov::tridiagonalize`] with every row, then QL on `T_s`. Returns
    /// `s`; the eigenpair of descending rank `r < s` is `t.d[t.order[r]]`
    /// with components `t.z[m·s + t.order[r]]` over `basis` row `m`.
    fn decompose(
        &mut self,
        hankel: &HankelMatrix<'_>,
        start: &[f64],
        k: usize,
        t: &mut Tridiagonal,
    ) -> usize {
        let steps = self.tridiagonalize(hankel, start, k, k, t);
        tridiag_eig_into(&mut t.d, &mut t.e, &mut t.z, &mut t.order);
        steps
    }
}

/// The two segments of the last window the Eq. 11 bound was asked about,
/// raw and sorted, so that its one-minute successor costs one sample out
/// and one in per segment instead of six selections over a fresh copy.
///
/// The state belongs to whatever walks one series window by window: a
/// detector run's handle ([`SstScorer::reaching_scorer`]), or a stream
/// key's monitor, beside its rolling window. Sliding is still an economy,
/// never a contract: a held older window may be scored between two bounds,
/// late data rewrites samples behind the frontier, and a caller may hand it
/// any window at all. So nothing is assumed about the next window. It is
/// the successor only if every one of its `W − 1` overlapping samples has
/// the bits of the held window's; anything else sorts both segments afresh.
/// At most `2W` floats and the multiplier ([`SlidingSegments::bytes_for`]).
#[derive(Debug, Clone)]
pub struct SlidingSegments {
    /// The window the sorted segments describe; empty before the first.
    window: Vec<f64>,
    /// Its past segment, ascending by `total_cmp`.
    past: Vec<f64>,
    /// Its future segment (gap included), likewise.
    future: Vec<f64>,
    /// Its Eq. 11 multiplier.
    multiplier: f64,
}

impl SlidingSegments {
    /// Empty state for series scored under `config`: the first bound sorts.
    pub fn new(config: &SstConfig) -> Self {
        let c = config;
        Self {
            window: Vec::with_capacity(c.window_len()),
            past: vec![0.0; c.past_len()],
            future: vec![0.0; c.future_len()],
            multiplier: f64::NAN,
        }
    }

    /// The bytes the state holds under `config`, an accounted figure like
    /// [`funnel_timeseries::ring::RingSeries::bytes_for`]: the last window,
    /// its two sorted segments and the multiplier (552 at `W = 34`).
    pub fn bytes_for(config: &SstConfig) -> usize {
        (2 * config.window_len() + 1) * std::mem::size_of::<f64>()
    }

    /// Whether `window` is, bit for bit, the one the state describes.
    fn holds(&self, window: &[f64]) -> bool {
        same_bits(&self.window, window)
    }

    /// Brings the sorted segments to `window` (of the configured length).
    fn advance(&mut self, window: &[f64]) {
        let (p, last) = (self.past.len(), window.len() - 1);
        let slid = self.window.len() == window.len()
            && same_bits(&self.window[1..], &window[..last])
            && replace_sorted(&mut self.past, self.window[0], self.window[p])
            && replace_sorted(&mut self.future, self.window[p], window[last]);
        if !slid {
            self.past.copy_from_slice(&window[..p]);
            self.past.sort_unstable_by(f64::total_cmp);
            self.future.copy_from_slice(&window[p..]);
            self.future.sort_unstable_by(f64::total_cmp);
        }
        self.window.clear();
        self.window.extend_from_slice(window);
    }

    /// The Eq. 11 multiplier read off the sorted segments: the bits the
    /// selections over the standardized copy give, or `None` where that
    /// cannot be promised.
    ///
    /// With every sample finite, and `m`, `s` finite, `x ↦ fl((x − m)/s)` is
    /// non-decreasing (in `total_cmp` order, signed zeros included), so the
    /// standardized order statistics are the standardized raw ones, and
    /// `|z − median|` grows outward from the centre of each sorted segment.
    /// One non-finite value anywhere (`inf − inf`, `inf/inf` are NaN) breaks
    /// the order: `None`, and the caller selects.
    fn multiplier_by_order(&self, standardize: bool, merged: &mut Vec<f64>) -> Option<f64> {
        let (past, future) = (&self.past[..], &self.future[..]);
        let ends = [past.first(), past.last(), future.first(), future.last()];
        if !ends.into_iter().flatten().all(|x| x.is_finite()) {
            return None;
        }
        let (a, b) = if standardize {
            // `standardize_by_past_into`'s centre and scale.
            let raw = RobustSummary::of_sorted_by(past, |x| x);
            let m = raw.median;
            let mut s = raw.mad;
            if s < 1e-9 {
                merge_sorted(past, future, merged);
                s = RobustSummary::of_sorted_by(merged, |x| x).mad;
            }
            let s = s.max(1e-9);
            if !(m.is_finite() && s.is_finite()) {
                return None;
            }
            let z = |x: f64| (x - m) / s;
            let a = if past.len() % 2 == 1 {
                // The median is a sample: it maps to `fl((m − m)/s)`, and the
                // deviations from it are the raw ones over `s`.
                RobustSummary {
                    median: z(m),
                    mad: raw.mad / s,
                }
            } else {
                RobustSummary::of_sorted_by(past, z)
            };
            (a, RobustSummary::of_sorted_by(future, z))
        } else {
            (
                RobustSummary::of_sorted_by(past, |x| x),
                RobustSummary::of_sorted_by(future, |x| x),
            )
        };
        [a.median, a.mad, b.median, b.mad]
            .into_iter()
            .all(f64::is_finite)
            .then(|| FilterFactors::from_summaries(a, b).multiplier())
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replaces one `out` in `sorted` (ascending by `total_cmp`) with
/// `inn`, keeping the order: what a sliding window does to the sorted copy
/// of a segment when one sample leaves and one enters. `false`, and nothing
/// moved, when no element has `out`'s bits.
fn replace_sorted(sorted: &mut [f64], out: f64, inn: f64) -> bool {
    let at = sorted.partition_point(|x| x.total_cmp(&out).is_lt());
    if sorted.get(at).map(|x| x.to_bits()) != Some(out.to_bits()) {
        return false;
    }
    let to = sorted.partition_point(|x| x.total_cmp(&inn).is_lt());
    if to > at {
        sorted.copy_within(at + 1..to, at);
        sorted[to - 1] = inn;
    } else {
        sorted.copy_within(to..at, to + 1);
        sorted[to] = inn;
    }
    true
}

/// Merges two slices ascending by `total_cmp` into `out` (cleared first).
fn merge_sorted(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if b[j].total_cmp(&a[i]).is_lt() {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl SstWorkspace {
    /// Allocates the buffers `config` needs.
    pub fn new(config: &SstConfig) -> Self {
        let c = config;
        // The future-direction run is the larger of the two Lanczos runs.
        let k = future_krylov_dim(c);
        let tridiagonal = |k: usize, rows: usize| {
            Tridiagonal::new(vec![0.0; k], vec![0.0; k], vec![0.0; rows * k], vec![0; k])
        };
        Self {
            window: vec![0.0; c.window_len()],
            select: Vec::with_capacity(c.window_len()),
            start: (0..c.omega)
                .map(|i| 1.0 + (i as f64) / c.omega as f64)
                .collect(),
            krylov: Krylov {
                basis: vec![0.0; k * c.omega],
                residual: vec![0.0; c.omega],
                gram: vec![0.0; c.delta.max(c.gamma)],
            },
            future: tridiagonal(k, k),
            dirs: vec![0.0; c.effective_eta() * c.omega],
            lambdas: vec![0.0; c.effective_eta()],
            phis: vec![tridiagonal(phi_krylov_dim(c), 1); c.effective_eta()],
        }
    }

    /// Panics unless `window` and this workspace both have `c`'s shape.
    fn check(&self, c: &SstConfig, window: &[f64]) {
        let w = c.window_len();
        assert_eq!(window.len(), w, "window length does not match configured W");
        assert_eq!(
            (self.window.len(), self.start.len()),
            (w, c.omega),
            "workspace was built for another SST configuration"
        );
    }

    /// Loads `window` for scoring under `c`: the robust-standardized copy,
    /// or the samples as they are.
    fn load(&mut self, c: &SstConfig, window: &[f64]) {
        self.check(c, window);
        if c.standardize {
            standardize_by_past_into(window, c.past_len(), &mut self.select, &mut self.window);
        } else {
            self.window.copy_from_slice(window);
        }
    }
}

/// Krylov dimension of the future-direction run.
fn future_krylov_dim(c: &SstConfig) -> usize {
    c.krylov_dim().max(c.effective_eta()).min(c.omega)
}

/// Krylov dimension of a `ϕ` run.
fn phi_krylov_dim(c: &SstConfig) -> usize {
    c.krylov_dim().min(c.omega)
}

/// The IKA-accelerated SST scorer FUNNEL deploys online.
#[derive(Debug, Clone)]
pub struct FastSst {
    config: SstConfig,
}

impl FastSst {
    /// Creates a fast scorer.
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

    /// Creates the scorer with the paper's evaluation configuration
    /// (`ω = 9`, `W = 34`).
    pub fn paper_default() -> Self {
        Self::new(SstConfig::paper_default())
    }

    /// Ritz approximations `(λ_i, β_i)` of the selected η future eigenpairs,
    /// computed via Lanczos on the *implicit* future Gram; leaves them in
    /// `ws.lambdas` / `ws.dirs` and returns how many there are.
    fn future_directions(&self, ws: &mut SstWorkspace) -> usize {
        let c = &self.config;
        let future_sig = &ws.window[c.past_len() + c.rho..];
        let a = HankelMatrix::new(future_sig, c.omega, c.gamma);
        let t = &mut ws.future;
        let steps = ws.krylov.decompose(&a, &ws.start, future_krylov_dim(c), t);
        let eta = c.effective_eta().min(steps);

        let basis = &ws.krylov.basis;
        let dirs = ws.dirs.chunks_exact_mut(c.omega);
        for (rank_from_top, (v, lambda)) in dirs.zip(&mut ws.lambdas).take(eta).enumerate() {
            let col = t.order[match c.eig_selection {
                EigSelection::Largest => rank_from_top,
                EigSelection::Smallest => steps - 1 - rank_from_top,
            }];
            // Map the Ritz vector back to R^ω through the Lanczos basis.
            v.fill(0.0);
            for (m, q) in basis.chunks_exact(c.omega).take(steps).enumerate() {
                let ym = t.z[m * steps + col];
                for (vi, qi) in v.iter_mut().zip(q.iter()) {
                    *vi += ym * qi;
                }
            }
            normalize(v);
            *lambda = t.d[col].max(0.0);
        }
        eta
    }

    /// The raw (unfiltered) Eq. 9 score; exposed for ablations and the
    /// robust-oracle comparison tests.
    pub fn raw_score(&self, window: &[f64]) -> f64 {
        let mut ws = SstWorkspace::new(&self.config);
        ws.load(&self.config, window);
        self.raw_score_loaded(&mut ws)
    }

    /// Eq. 9 over the window loaded in `ws`; in `[0, 1]`, or NaN on
    /// non-finite data.
    fn raw_score_loaded(&self, ws: &mut SstWorkspace) -> f64 {
        let c = &self.config;
        let dirs = self.future_directions(ws);
        if dirs == 0 {
            return 0.0;
        }
        // Eq. 13 for each direction: `Lanczos(C, β_i, k)` into its own
        // `T_k`, then QL on all of them together.
        let b = HankelMatrix::new(&ws.window[..c.past_len()], c.omega, c.delta);
        let phis = &mut ws.phis[..dirs];
        for (t, beta) in phis.iter_mut().zip(ws.dirs.chunks_exact(c.omega)) {
            ws.krylov.tridiagonalize(&b, beta, phi_krylov_dim(c), 1, t);
        }
        tridiag_eig_lockstep(phis);
        let eta = c.effective_eta();
        let mut num = 0.0;
        let mut den = 0.0;
        for (t, &lambda) in phis.iter().zip(&ws.lambdas) {
            // The first components of the top-η eigenvectors of `T_k`
            // approximate `β_i · u_j` (the Lanczos basis starts at `β_i`).
            let proj_sq: f64 = t.order.iter().take(eta).map(|&j| t.z[j].powi(2)).sum();
            let phi = if t.d.is_empty() {
                0.0
            } else {
                (1.0 - proj_sq).clamp(0.0, 1.0)
            };
            num += lambda * phi;
            den += lambda;
        }
        if den <= 0.0 {
            0.0
        } else {
            (num / den).clamp(0.0, 1.0)
        }
    }

    /// The Eq. 11 multiplier of `window` as the bound sees it: the one place
    /// the sorted segments move.
    ///
    /// A window the bound was just asked about answers from what the bound
    /// left. Otherwise the segments slide (or sort afresh) to `window` and the
    /// multiplier is read off them, selecting over the standardized copy only
    /// where the order argument is void.
    fn slide_multiplier(
        &self,
        ws: &mut SstWorkspace,
        segments: &mut SlidingSegments,
        window: &[f64],
    ) -> f64 {
        let c = &self.config;
        if segments.holds(window) {
            return segments.multiplier;
        }
        ws.check(c, window);
        assert_eq!(
            (segments.past.len(), segments.future.len()),
            (c.past_len(), c.future_len()),
            "sliding segments were built for another SST configuration"
        );
        segments.advance(window);
        segments.multiplier = segments
            .multiplier_by_order(c.standardize, &mut ws.select)
            .unwrap_or_else(|| {
                ws.load(c, window);
                Self::multiplier_by_selection(c, ws)
            });
        segments.multiplier
    }

    /// Eq. 11 by selection over the two halves of the window loaded in `ws`.
    fn multiplier_by_selection(c: &SstConfig, ws: &mut SstWorkspace) -> f64 {
        let (past, future) = ws.window.split_at(c.past_len());
        FilterFactors::from_segments_with(past, future, &mut ws.select).multiplier()
    }

    /// Loads `window` into `ws` and returns its Eq. 11 multiplier, `None`
    /// with the filter off. A score, typically of an older window a
    /// persistence rule held back, only reads `held`: the multiplier the
    /// bound left when it describes `window`, a selection over the loaded
    /// copy otherwise, so the bound's next window is still a successor.
    fn load_filtered(
        &self,
        ws: &mut SstWorkspace,
        held: Option<&SlidingSegments>,
        window: &[f64],
    ) -> Option<f64> {
        ws.load(&self.config, window);
        self.config.median_mad_filter.then(|| {
            held.filter(|segments| segments.holds(window)).map_or_else(
                || Self::multiplier_by_selection(&self.config, ws),
                |segments| segments.multiplier,
            )
        })
    }

    /// [`SstScorer::score_window`] through a held workspace: same bits, no
    /// allocation.
    pub fn score_window_in(&self, ws: &mut SstWorkspace, window: &[f64]) -> f64 {
        let multiplier = self.load_filtered(ws, None, window);
        let raw = self.raw_score_loaded(ws);
        multiplier.map_or(raw, |m| raw * m)
    }

    /// The exact bound on its own, through a held workspace and the sliding
    /// state of the series `window` belongs to: `false` only when
    /// [`FastSst::score_window_in`] cannot reach `threshold`.
    ///
    /// The filtered score is `raw · m` with `raw ∈ [0, 1]` (or NaN), so it
    /// cannot exceed the Eq. 11 multiplier `m` — six order statistics, known
    /// before a single Lanczos step, and read off `segments` when `window`
    /// follows the last one asked about. A NaN multiplier, a non-positive
    /// threshold or the filter switched off screens nothing.
    pub fn may_reach_in(
        &self,
        ws: &mut SstWorkspace,
        segments: &mut SlidingSegments,
        window: &[f64],
        threshold: f64,
    ) -> bool {
        !self
            .bound_in(ws, segments, window)
            .is_some_and(|m| m < threshold)
    }

    /// What [`FastSst::may_reach_in`] compares with its threshold: the
    /// Eq. 11 multiplier of `window`, `None` with the filter off.
    pub fn bound_in(
        &self,
        ws: &mut SstWorkspace,
        segments: &mut SlidingSegments,
        window: &[f64],
    ) -> Option<f64> {
        self.config
            .median_mad_filter
            .then(|| self.slide_multiplier(ws, segments, window))
    }

    /// [`SstScorer::score_reaching`] through a held workspace: the Krylov
    /// work runs only when the window's multiplier reaches `threshold`.
    pub fn score_reaching_in(
        &self,
        ws: &mut SstWorkspace,
        window: &[f64],
        threshold: f64,
    ) -> Option<f64> {
        self.score_reaching_held(ws, None, window, threshold)
    }

    /// [`FastSst::score_reaching_in`], taking the multiplier from `held` when
    /// the bound last saw `window`.
    fn score_reaching_held(
        &self,
        ws: &mut SstWorkspace,
        held: Option<&SlidingSegments>,
        window: &[f64],
        threshold: f64,
    ) -> Option<f64> {
        let multiplier = self.load_filtered(ws, held, window);
        if multiplier.is_some_and(|m| m < threshold) {
            return None;
        }
        let raw = self.raw_score_loaded(ws);
        let score = multiplier.map_or(raw, |m| raw * m);
        (score >= threshold).then_some(score)
    }

    /// The [`ReachingScorer`] of one series' walk: the bound slides
    /// `segments`, and every score and bound goes through the scratch `ws`.
    /// A stream worker lends its workspace and each key its own segments.
    pub fn sliding<'a>(
        &'a self,
        ws: &'a mut SstWorkspace,
        segments: &'a mut SlidingSegments,
    ) -> impl ReachingScorer + 'a {
        Sliding {
            scorer: self,
            ws,
            segments,
        }
    }
}

/// [`FastSst::sliding`]'s handle.
struct Sliding<'a> {
    scorer: &'a FastSst,
    ws: &'a mut SstWorkspace,
    segments: &'a mut SlidingSegments,
}

impl ReachingScorer for Sliding<'_> {
    fn may_reach(&mut self, window: &[f64], threshold: f64) -> bool {
        self.scorer
            .may_reach_in(self.ws, self.segments, window, threshold)
    }

    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        self.scorer
            .score_reaching_held(self.ws, Some(self.segments), window, threshold)
    }
}

impl SstScorer for FastSst {
    fn config(&self) -> &SstConfig {
        &self.config
    }

    fn score_window(&self, window: &[f64]) -> f64 {
        self.score_window_in(&mut SstWorkspace::new(&self.config), window)
    }

    fn score_reaching(&self, window: &[f64], threshold: f64) -> Option<f64> {
        self.score_reaching_in(&mut SstWorkspace::new(&self.config), window, threshold)
    }

    fn reaching_scorer(&self) -> impl ReachingScorer + '_ {
        HeldWorkspace {
            scorer: self,
            workspace: SstWorkspace::new(&self.config),
            segments: SlidingSegments::new(&self.config),
        }
    }
}

/// [`FastSst`]'s run handle: the scorer, the one workspace every bound and
/// every score of the run goes through, and the sliding state of the one
/// series the run walks.
struct HeldWorkspace<'a> {
    scorer: &'a FastSst,
    workspace: SstWorkspace,
    segments: SlidingSegments,
}

impl ReachingScorer for HeldWorkspace<'_> {
    fn may_reach(&mut self, window: &[f64], threshold: f64) -> bool {
        self.scorer
            .sliding(&mut self.workspace, &mut self.segments)
            .may_reach(window, threshold)
    }

    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        self.scorer
            .sliding(&mut self.workspace, &mut self.segments)
            .score_reaching(window, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::RobustSst;

    fn lcg_window(c: &SstConfig, noise: f64, shift: f64, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let p = c.past_len();
        (0..c.window_len())
            .map(|i| {
                let base = 50.0 + noise * next() + 0.3 * ((i as f64) * 0.7).sin();
                if i >= p {
                    base + shift
                } else {
                    base
                }
            })
            .collect()
    }

    /// Noisy series with a level shift at `onset` (usize::MAX = no shift).
    fn lcg_series(len: usize, noise: f64, onset: usize, shift: f64, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..len)
            .map(|i| {
                let base = 50.0 + noise * next() + 0.3 * ((i as f64) * 0.7).sin();
                if i >= onset {
                    base + shift
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn replace_sorted_slides_one_sample() {
        let mut s = [-1.0, -0.0, 0.0, 2.0, 2.0, 5.0];
        assert!(replace_sorted(&mut s, 2.0, 7.0), "to the right end");
        assert_eq!(s, [-1.0, -0.0, 0.0, 2.0, 5.0, 7.0]);
        assert!(replace_sorted(&mut s, 7.0, -3.0), "to the left end");
        assert_eq!(s, [-3.0, -1.0, -0.0, 0.0, 2.0, 5.0]);
        assert!(replace_sorted(&mut s, 0.0, 1.0), "in place");
        assert!(replace_sorted(&mut s, -0.0, 1.0), "beside its equal");
        assert_eq!(s, [-3.0, -1.0, 1.0, 1.0, 2.0, 5.0]);
        assert!(!replace_sorted(&mut s, 0.0, 9.0), "no such bits");
        assert!(!replace_sorted(&mut s, 6.0, 9.0));
        assert_eq!(s, [-3.0, -1.0, 1.0, 1.0, 2.0, 5.0]);
    }

    #[test]
    fn fast_ranks_windows_like_exact_robust_scorer() {
        // The IKA approximation (k = 5 Krylov dim) need not match the exact
        // Eq. 9 score pointwise on dense-spectrum noise windows, but it must
        // preserve the decision structure: the peak score of a shifted
        // series must agree with the exact scorer's peak on strong signals.
        let mut c = SstConfig::paper_default();
        c.median_mad_filter = false;
        let fast = FastSst::new(c.clone());
        let exact = RobustSst::new(c.clone());
        for seed in 0..6 {
            let shifted = lcg_series(120, 1.0, 60, 8.0, seed);
            let fast_peak = fast.score_series(&shifted).into_iter().fold(0.0, f64::max);
            let exact_peak = exact.score_series(&shifted).into_iter().fold(0.0, f64::max);
            assert!(
                (fast_peak - exact_peak).abs() < 0.25,
                "seed {seed}: fast peak {fast_peak} vs exact peak {exact_peak}"
            );
        }
    }

    #[test]
    fn level_shift_peak_scores_above_noise_peak() {
        let c = SstConfig::paper_default();
        let s = FastSst::new(c.clone());
        let mut min_shift_peak: f64 = f64::INFINITY;
        let mut max_noise_peak: f64 = 0.0;
        for seed in 0..6 {
            let sp = s
                .score_series(&lcg_series(120, 1.0, 60, 10.0, seed))
                .into_iter()
                .fold(0.0, f64::max);
            let np = s
                .score_series(&lcg_series(120, 1.0, usize::MAX, 0.0, seed))
                .into_iter()
                .fold(0.0, f64::max);
            min_shift_peak = min_shift_peak.min(sp);
            max_noise_peak = max_noise_peak.max(np);
        }
        assert!(
            min_shift_peak > max_noise_peak,
            "shift peak {min_shift_peak} vs noise peak {max_noise_peak}"
        );
    }

    #[test]
    fn ramp_detected() {
        let c = SstConfig::paper_default();
        let s = FastSst::new(c.clone());
        let p = c.past_len();
        let w: Vec<f64> = (0..c.window_len())
            .map(|i| {
                let base = 20.0 + 0.05 * ((i * 3) % 7) as f64;
                if i >= p {
                    base + 0.8 * (i - p + 1) as f64
                } else {
                    base
                }
            })
            .collect();
        assert!(s.score_window(&w) > 0.5);
    }

    #[test]
    fn constant_window_scores_zero() {
        let s = FastSst::paper_default();
        assert_eq!(s.score_window(&vec![42.0; 34]), 0.0);
    }

    #[test]
    fn quick_and_precise_configs_run() {
        for c in [SstConfig::quick(), SstConfig::precise()] {
            let s = FastSst::new(c.clone());
            let w = lcg_window(&c, 1.0, 5.0, 1);
            let score = s.score_window(&w);
            assert!(score.is_finite() && score >= 0.0);
        }
    }

    #[test]
    fn score_series_matches_window_scores() {
        let c = SstConfig::quick();
        let s = FastSst::new(c.clone());
        let values: Vec<f64> = (0..30).map(|i| (i as f64 * 0.4).cos() * 3.0).collect();
        let series_scores = s.score_series(&values);
        assert_eq!(series_scores.len(), 30 - c.window_len() + 1);
        let first_window = &values[..c.window_len()];
        assert_eq!(series_scores[0], s.score_window(first_window));
    }
}
