//! Service topology, software-change logs, and impact-set identification for
//! FUNNEL (paper §2, §3.1).
//!
//! The studied company names services hierarchically and records every
//! software change (upgrades and configuration changes) in deployment logs.
//! From the change log plus the service relationship graph, FUNNEL derives
//! the *impact set* of each change:
//!
//! * **tservers / tinstances** — the servers and instances the change was
//!   deployed on (directly from the log),
//! * **the changed service** — the service those instances belong to,
//! * **affected services** — services transitively related to the changed
//!   service (they exchange requests/responses with it),
//! * **cservers / cinstances** — the same service's servers and instances
//!   *without* the change: the dark-launch control group.
//!
//! Instances of affected services are deliberately *not* in the impact set:
//! load balancing makes it unlikely that a single instance of an affected
//! service is individually impacted, so the affected service's aggregate
//! KPI suffices (§3.1).

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod change;
pub mod impact;
pub mod model;
pub mod naming;
pub mod zone;

pub use change::{
    combine_consecutive, ChangeId, ChangeKind, ChangeLog, LaunchMode, SoftwareChange,
};
pub use impact::{identify_impact_set, Entity, ImpactSet};
pub use model::{InstanceId, ServerId, ServiceId, Topology, TopologyError};
pub use naming::ServiceName;
pub use zone::ZoneMap;
