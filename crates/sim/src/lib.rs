//! Simulated datacenter telemetry — the substrate FUNNEL runs on.
//!
//! The paper's FUNNEL consumes Baidu production telemetry: per-server agents
//! sample every KPI once a minute and push the measurements to a central
//! Hadoop-based store, which fans them out to subscribers such as FUNNEL
//! within a second (§2.2). That pipeline is proprietary, so this crate
//! rebuilds its observable behaviour end to end:
//!
//! * [`kpi`] — the KPI catalogue: server KPIs (CPU/memory/NIC/context
//!   switches), instance KPIs (page views, response delay, failures,
//!   effective clicks), their character classes and service-level
//!   aggregation rules.
//! * [`effect`] — what a software change (or an external shock) does to
//!   KPIs: shapes, delays, and scopes.
//! * [`world`] — the deterministic generator: topology + change log +
//!   effects + shocks → every KPI series, with exact ground truth of which
//!   (change, entity, KPI) items were truly impacted.
//! * [`store`] — the central metric store with a crossbeam-channel
//!   subscription API (the "database + subscription tool" of §2.2).
//! * [`agent`] — per-server agents that encode measurements into a compact
//!   wire format ([`wire`]) and stream them to a collector thread, minute
//!   by minute: the live ingestion path a store subscriber (the streaming
//!   engine in `funnel-core`) consumes.
//! * [`collector`] — the collector as a resumable state machine: its
//!   working state is a first-class value a checkpoint can serialize, and
//!   the ingest path exposes durability seams ([`collector::IngestHooks`])
//!   that `funnel-resilience` uses for write-ahead logging and crash
//!   recovery.
//! * [`faults`] — seeded, deterministic telemetry fault injection (frame
//!   drop/delay/duplication/corruption, sensor glitches, slow subscribers)
//!   applied to the agent→collector path to exercise FUNNEL under the
//!   degraded telemetry the paper warns about (§2.2).
//! * [`scenario`] — canned worlds: the Table-1/Fig-5 evaluation cohort, the
//!   Redis load-balancing case (Fig. 6), and the advertising anti-cheat
//!   incident (Fig. 7).
//!
//! Everything is seeded and deterministic; two runs of any scenario produce
//! bit-identical series.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod collector;
pub mod effect;
pub mod faults;
pub mod kpi;
pub mod live;
pub mod scenario;
pub mod spec;
pub mod store;
pub mod wire;
pub mod world;

pub use collector::{Collector, CollectorState, Ingest, IngestAbort, IngestHooks, NoHooks};
pub use effect::{ChangeEffect, EffectScope, ExternalShock, KpiEffect};
pub use faults::{FaultPlan, FaultSchedule, FrameFate, HealMode, PartitionScope, PartitionWindow};
pub use kpi::{Aggregation, KpiKey, KpiKind};
pub use live::LiveFeed;
pub use store::{MetricStore, StoreSnapshot, StoreStats, Subscription};
pub use world::{GroundTruthItem, SimConfig, World, WorldBuilder};

/// SplitMix64 — the workspace's one seeded mixer. Bit-identical across
/// platforms, which keeps every schedule drawn through it reproducible:
/// world seeds, fault fates, late-arrival draws and the streaming engine's
/// shed ranks.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
