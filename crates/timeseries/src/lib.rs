//! Time-series substrate for the FUNNEL reproduction.
//!
//! FUNNEL (CoNEXT 2015) assesses the impact of software changes by watching
//! Key Performance Indicators (KPIs) as one-minute-binned time series. This
//! crate provides everything the rest of the workspace needs to represent,
//! summarize, generate, and perturb such series:
//!
//! * [`series`] — the [`TimeSeries`] container (fixed one-minute bins with an
//!   absolute start minute) and event-to-bin aggregation,
//! * [`stats`] — plain and robust summary statistics (median, MAD) used by
//!   the improved SST's noise filter (paper Eq. 11–12),
//! * [`generate`] — synthetic KPI generators for the paper's three KPI
//!   character classes (seasonal, stationary, variable),
//! * [`inject`] — level-shift and ramp change injection (paper Fig. 2),
//! * [`mask`] — per-minute coverage masks distinguishing real measurements
//!   from substrate gap-fills in degraded-telemetry runs,
//! * [`ring`] — fixed-capacity sliding windows ([`RingSeries`]) for the
//!   streaming engine: bounded resident memory per KPI regardless of uptime,
//! * [`window`] — sliding-window iteration used by every detector.
//!
//! All randomness flows through explicitly seeded [`rand::rngs::StdRng`]
//! instances, so every experiment in the workspace is reproducible.

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod generate;
pub mod inject;
pub mod mask;
pub mod ring;
pub mod series;
pub mod stats;
pub mod window;

pub use generate::{KpiClass, KpiGenerator, SeasonalProfile};
pub use inject::{ChangeShape, InjectedChange};
pub use mask::CoverageMask;
pub use ring::{RingSeries, RingWrite};
pub use series::{MinuteBin, TimeSeries};
pub use stats::{mad, mean, median, population_std, RobustSummary};
pub use window::SlidingWindows;

/// Number of minutes in a day; seasonal profiles repeat with this period.
pub const MINUTES_PER_DAY: usize = 24 * 60;

/// Number of minutes in a week; day-of-week effects repeat with this period.
pub const MINUTES_PER_WEEK: usize = 7 * MINUTES_PER_DAY;
