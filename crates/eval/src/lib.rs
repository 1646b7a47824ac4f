//! Evaluation harness for the FUNNEL reproduction (paper §4–§5).
//!
//! * [`confusion`] — TP/TN/FP/FN bookkeeping, the Precision/Recall/TNR/
//!   Accuracy definitions of §4.2, and the ×86 extrapolation of §4.2.1.
//! * [`methods`] — the four compared methods (FUNNEL, improved SST without
//!   DiD, CUSUM, MRLS) behind one interface, with per-method calibrated
//!   thresholds.
//! * [`truth`] — the one join between an assessed item and the world's
//!   ground truth: a real KPI change, none, or too faint to label.
//! * [`cohort`] — runs a whole evaluation cohort against every method,
//!   changes fanned out through `funnel_core::parallel::fan_out` over a
//!   snapshot of the materialized world, and returns one flat list of item
//!   outcomes; Table 1 and the Fig. 5 delay samples are folds over it
//!   (their median and CCDF are `funnel_timeseries::stats` and a count).
//! * [`timing`] — single-thread per-window wall-clock measurement and the
//!   "cores for one million KPIs" projection of Table 2.

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cohort;
pub mod confusion;
pub mod methods;
pub mod timing;
pub mod truth;
