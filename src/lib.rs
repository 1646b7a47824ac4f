//! Umbrella crate for the FUNNEL reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so the examples and integration
//! tests can `use funnel_suite::...`. Library users should depend on the
//! individual crates (most commonly [`funnel_core`]) directly.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub use funnel_core as core;
pub use funnel_detect as detect;
pub use funnel_diag as diag;
pub use funnel_did as did;
pub use funnel_eval as eval;
pub use funnel_linalg as linalg;
pub use funnel_obs as obs;
pub use funnel_sim as sim;
pub use funnel_sst as sst;
pub use funnel_timeseries as timeseries;
pub use funnel_topology as topology;
