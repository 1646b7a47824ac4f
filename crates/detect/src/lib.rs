//! Change detection for FUNNEL: the detector abstraction, the sliding-window
//! driver with the paper's 7-minute persistence rule, and the two published
//! baselines FUNNEL is evaluated against.
//!
//! * [`detector`] — [`WindowScorer`] (a pure window → score function),
//!   [`DetectorRunner`] (threshold + persistence + re-arm logic, one
//!   [`PersistenceRun`] per pass, which also plans which windows the scorer
//!   is run on), and [`ChangeEvent`]. A runner does two things:
//!   [`DetectorRunner::run`] declares every change in a series, and
//!   [`DetectorRunner::decide`] finds the one declaration a verdict rests
//!   on, under the [`Coverage`] rules, asking only the windows it needs.
//! * [`outcomes`] — [`WindowOutcomes`], the memory one run records its
//!   scorer's answers in and a later run over the same samples recalls them
//!   from instead of asking again.
//! * [`sst_adapter`] — wraps the `funnel-sst` scorers as [`WindowScorer`]s.
//! * [`cusum`] — the CUmulative SUM detector used by MERCURY
//!   (SIGCOMM 2010), the paper's "long detection delay" baseline.
//! * [`mrls`] — Multiscale Robust Local Subspace, the PRISM (CoNEXT 2011)
//!   detector: fast but SVD-iteration-heavy and spike-sensitive.
//! * [`delay`] — detection-delay accounting against ground-truth onsets
//!   (paper §4.4).
//!
//! The paper's evaluation window widths (§4.1) are `W_MRLS = 32` and
//! `W_CUSUM = 60` here; FUNNEL's `W = 34` is
//! `SstConfig::paper_default().window_len()`.

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cusum;
pub mod delay;
pub mod detector;
pub mod mrls;
pub mod outcomes;
pub mod sst_adapter;
pub mod wow;

pub use cusum::CusumDetector;
pub use delay::{detection_delay, DelayOutcome};
pub use detector::{
    ChangeEvent, Coverage, Decision, DetectorRunner, PersistenceRun, ReachingScorer, ScoringPass,
    WindowScorer, WindowSource, WindowTally,
};
pub use mrls::MrlsDetector;
pub use outcomes::{Outcome, Outcomes, WindowOutcomes};
pub use sst_adapter::SstDetector;
pub use wow::WowDetector;

/// Sliding-window width used for MRLS in the paper's evaluation (§4.1).
pub const W_MRLS: usize = 32;
/// Sliding-window width used for CUSUM in the paper's evaluation (§4.1).
pub const W_CUSUM: usize = 60;
/// The persistence threshold (minutes) FUNNEL uses to declare a level shift
/// or ramp rather than a one-off event (§4.1).
pub const PERSISTENCE_MINUTES: usize = 7;
