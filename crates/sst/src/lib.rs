//! Singular Spectrum Transform (SST) change-point scoring — classic, robust,
//! and IKA-accelerated, as used by FUNNEL (CoNEXT 2015, §3.2).
//!
//! SST compares the dynamics of a short *past* segment of a time series with
//! the dynamics of the *future* segment around a candidate point. The past
//! dynamics are summarized by the top-η left singular vectors of a Hankel
//! trajectory matrix (the "signal subspace"); the future dynamics by extreme
//! eigenvectors of the future trajectory matrix's Gram. When nothing changed,
//! the dominant future directions lie inside the past signal subspace and the
//! discordance score is near zero; a level shift or ramp rotates the future
//! directions out of the subspace and the score approaches one.
//!
//! Three implementations share one [`SstConfig`] and one window layout:
//!
//! * [`ClassicSst`] — Moskvina–Zhigljavsky/Idé SST: dense SVD of the past
//!   Hankel matrix, single dominant future direction (paper §3.2.1). The
//!   accuracy/efficiency baseline labelled "SST" in the paper's narrative.
//! * [`RobustSst`] — the paper's §3.2.2 improvements: η future eigenvectors
//!   weighted by eigenvalue (Eq. 9–10) and the median/MAD score filter
//!   (Eq. 11–12). Exact dense eigendecompositions; the reference the fast
//!   path is validated against.
//! * [`FastSst`] — §3.2.3: the Implicit Krylov Approximation. Hankel
//!   matrices stay compressed as signal slices, covariances are applied
//!   implicitly, Lanczos compresses to a `k×k` tridiagonal (`k = 2η−1`),
//!   and a QL eigensolver finishes. This is the detector FUNNEL deploys.
//!
//! All scorers implement [`SstScorer`], mapping a window of
//! [`SstConfig::window_len`] samples to a score (≥ 0; raw subspace
//! discordance is in `[0, 1]`, the robust filter rescales it by the robust
//! effect size, see [`filter`]).

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod classic;
pub mod config;
pub mod fast;
pub mod filter;
pub mod layout;
pub mod robust;
pub mod stream;

pub use classic::ClassicSst;
pub use config::{EigSelection, SstConfig};
pub use fast::{FastSst, SlidingSegments, SstWorkspace};
pub use robust::RobustSst;
pub use stream::StreamingSst;

/// One detector run's, or one stream key's, handle on a scorer: the two
/// questions a threshold detector asks of a window, answered through scratch
/// the handle may own or borrow and reuse from window to window.
///
/// A handle may also remember the last window `may_reach` saw, to answer
/// faster when the next one overlaps it ([`FastSst`]'s keeps that window's
/// two segments sorted and slides them, in a [`SlidingSegments`] it owns
/// for a run or borrows from a stream key). That is an economy, never a
/// contract: any window may follow any other, of any series, and a held
/// older window may be scored between two bounds; the answers are those of
/// a fresh handle.
///
/// The split is what lets a persistence rule *plan* its scoring: the bound
/// is asked of every window, the score only of the windows a declaration
/// can still rest on.
pub trait ReachingScorer {
    /// `false` only when the window's score provably cannot reach
    /// `threshold` — an exact bound, decided without the scoring kernel.
    /// `true` promises nothing: the window is a *candidate*.
    fn may_reach(&mut self, window: &[f64], threshold: f64) -> bool;

    /// `Some(score)` exactly when the window's full score is at or above
    /// `threshold`; the value is always the full score's bits.
    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64>;
}

/// The [`ReachingScorer`] of a scorer with no bound: every window is a
/// candidate, and the wrapped `score_reaching` function decides it.
#[derive(Debug, Clone)]
pub struct Unscreened<F>(pub F);

impl<F: FnMut(&[f64], f64) -> Option<f64>> ReachingScorer for Unscreened<F> {
    fn may_reach(&mut self, _window: &[f64], _threshold: f64) -> bool {
        true
    }

    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        (self.0)(window, threshold)
    }
}

/// A change-point scorer over fixed-width windows.
pub trait SstScorer {
    /// The configuration in effect.
    fn config(&self) -> &SstConfig;

    /// Scores one window of exactly [`SstConfig::window_len`] samples.
    ///
    /// # Panics
    ///
    /// Implementations panic when `window.len()` differs from the
    /// configured window length; the sliding-window driver guarantees it.
    fn score_window(&self, window: &[f64]) -> f64;

    /// `Some(score)` exactly when `score_window(window) >= threshold` — all
    /// a threshold detector ever asks of a live score. A scorer that can
    /// bound its score cheaply may answer `None` without computing it
    /// ([`FastSst`] does); the `Some` value is always the full score's bits.
    fn score_reaching(&self, window: &[f64], threshold: f64) -> Option<f64> {
        let score = self.score_window(window);
        (score >= threshold).then_some(score)
    }

    /// This scorer's [`ReachingScorer`] for one detector run, which walks one
    /// series. Without a cheap bound every window is a candidate and
    /// [`SstScorer::score_reaching`] decides it.
    fn reaching_scorer(&self) -> impl ReachingScorer + '_ {
        Unscreened(move |window: &[f64], threshold| self.score_reaching(window, threshold))
    }

    /// Scores every sliding window of a series; `out[i]` is the score of the
    /// window ending at sample `i + window_len − 1`.
    fn score_series(&self, values: &[f64]) -> Vec<f64> {
        let w = self.config().window_len();
        if values.len() < w {
            return Vec::new();
        }
        values
            .windows(w)
            .map(|win| self.score_window(win))
            .collect()
    }
}
