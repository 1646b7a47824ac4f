//! Difference-in-differences (DiD) causality determination for FUNNEL
//! (paper §3.2.4–§3.2.5).
//!
//! Detecting that a KPI *changed* is not enough: seasonality, hardware
//! breakdowns, attacks, and hotspots also move KPIs. FUNNEL attributes a
//! change to the software change only if the *relative* performance of the
//! treated group (KPIs of tservers/tinstances) moved against a control
//! group that shares every other influence:
//!
//! * **Dark launching** (§3.2.4) — control = cservers/cinstances of the same
//!   service, which load balancing keeps statistically exchangeable with
//!   the treated servers.
//! * **Full launching / affected services** (§3.2.5) — no concurrent
//!   control exists, so the control group is the *same* KPI in the same
//!   minutes-of-day over the previous 30 days, cancelling time-of-day and
//!   day-of-week effects and diluting baseline contamination.
//!
//! Both reduce to the same 2×2 estimator (Eq. 16):
//!
//! ```text
//! α = (E[Y|treated,post] − E[Y|control,post])
//!   − (E[Y|treated,pre]  − E[Y|control,pre])
//! ```
//!
//! with the linear panel model of Eq. 15 supplying standard errors and
//! t-statistics. `α ≈ 0` ⇒ the change was *not* caused by the software
//! change; `|α| ≫ 0` ⇒ it was, with the sign giving the direction.

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cache;
pub mod estimator;
pub mod groups;
pub mod seasonal;

pub use cache::{CacheStats, ControlCache};
pub use estimator::{did_estimate, DidError, DidEstimate};
pub use groups::{DidAssessor, DidConfig, DidVerdict};
pub use seasonal::SeasonalControl;
