//! FUNNEL — rapid and robust impact assessment of software changes in large
//! internet-based services (Zhang et al., CoNEXT 2015).
//!
//! This crate is the end-to-end tool of the paper's Fig. 3. For each
//! software change it:
//!
//! 1. identifies the **impact set** — tservers, tinstances, the changed
//!    service, and transitively related (affected) services — from the
//!    change log and the service topology (step 1; `funnel-topology`),
//! 2. detects **KPI behaviour changes** in every impact-set KPI with the
//!    improved, IKA-accelerated SST under the 7-minute persistence rule
//!    (steps 2–3; `funnel-sst` + `funnel-detect`),
//! 3. **determines causality** for each detected change with a
//!    difference-in-differences comparison (steps 4–11; `funnel-did`):
//!    against the dark-launch control group when one exists, against the
//!    same clock windows on historical days otherwise,
//! 4. **delivers** the per-KPI verdicts to the operations team (step 12;
//!    [`report`]).
//!
//! Two driving modes are provided: [`pipeline::Funnel::assess_change`] runs
//! the batch assessment the paper's evaluation uses, and
//! [`stream::StreamEngine`] is the deployment mode of §5 — it is offered a
//! live measurement feed (a metric store's `LiveFeed`, say) and ticked
//! minute by minute, scoring every KPI incrementally in bounded memory and
//! completing each tracked change with the batch path's own verdicts.
//!
//! Both modes — and [`pipeline::Funnel::reassess`], which re-runs the items
//! a partition left awaiting backfill once their windows heal — fan their
//! per-KPI work units
//! across a configurable worker pool ([`config::AssessConfig`]) through the
//! one engine in [`parallel`], with a deterministic merge: the delivered
//! report is byte-identical for any worker count, and a unit whose
//! assessment panics costs its own verdict (`Inconclusive`, quarantined)
//! and nothing else.
//!
//! # Quick start
//!
//! ```
//! use funnel_core::pipeline::Funnel;
//! use funnel_sim::scenario::ads_world;
//!
//! let (world, _ads, change) = ads_world(42);
//! let funnel = Funnel::paper_default();
//! let assessment = funnel.assess_change(&world, change).unwrap();
//! // The broken upgrade's click collapse is detected and attributed:
//! assert!(assessment.items.iter().any(|i| i.verdict.is_caused()));
//! ```

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod config;
pub mod diagnose;
pub mod parallel;
pub mod pipeline;
pub mod quality;
pub mod reassess;
pub mod report;
pub mod selfmon;
pub mod source;
pub mod stream;

pub use config::{AssessConfig, FunnelConfig};
pub use funnel_diag::{DiagConfig, DiagReport};
pub use pipeline::{
    enumerate_work_units, AssessmentMode, ChangeAssessment, DataQuality, Funnel, FunnelError,
    ItemAssessment, Verdict,
};
pub use selfmon::{run_selfmon, PipelineHealthReport, SeriesHealth};
pub use source::KpiSource;
pub use stream::{
    StreamAssessment, StreamConfig, StreamDetection, StreamEngine, StreamStats, TickReport,
};
