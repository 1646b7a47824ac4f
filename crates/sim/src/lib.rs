//! Simulated datacenter telemetry — the substrate FUNNEL runs on.
//!
//! The paper's FUNNEL consumes Baidu production telemetry: per-server agents
//! sample every KPI once a minute and push the measurements to a central
//! Hadoop-based store, which hands them on to systems such as FUNNEL
//! (§2.2). That pipeline is proprietary, so this crate rebuilds its
//! observable behaviour end to end:
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
//! * [`store`] — the central metric store (the "database" of §2.2; its
//!   push to other systems is not reproduced, see the module docs).
//! * [`agent`] — per-server agents that encode measurements into a compact,
//!   checksummed wire format ([`wire`]) and stream them to a collector
//!   thread, minute by minute: the live ingestion path.
//! * [`live`] — [`LiveFeed`], the deterministic per-minute measurement feed
//!   a store flattens into: what the streaming engine in `funnel-core` is
//!   offered.
//! * [`collector`] — the collector as a resumable state machine: its
//!   working state is a first-class value a checkpoint can serialize, and
//!   the ingest path exposes durability seams ([`collector::IngestHooks`])
//!   that `funnel-resilience` uses for write-ahead logging and crash
//!   recovery.
//! * [`faults`] — seeded, deterministic telemetry fault injection (frame
//!   drop/delay/duplication/corruption, sensor glitches, partitions)
//!   applied to the agent→collector path to exercise FUNNEL under the
//!   degraded telemetry the paper warns about (§2.2).
//! * [`scenario`] — canned worlds: the Table-1/Fig-5 evaluation cohort, the
//!   Redis load-balancing case (Fig. 6), and the advertising anti-cheat
//!   incident (Fig. 7).
//!
//! Everything is seeded and deterministic; two runs of any scenario produce
//! bit-identical series.

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
pub use store::{MetricStore, StoreSnapshot};
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// The workspace's one content hash: the [`wire`] checksum, and every
/// durable byte in `funnel-resilience`. FNV-1a 64-bit taken eight bytes at
/// a step. Each little-endian word is folded in with one xor and one
/// multiply, the state's high half is folded onto its low half (the
/// multiply only ever carries upwards), and the last `len % 8` bytes go in
/// one at a time, as the byte-serial FNV-1a folds every byte. The multiply chain is what a
/// byte-serial hash waits on, so this one runs at several times its speed:
/// it is cheap enough to hash every frame and record on the ingest path and
/// every store-sized checkpoint segment alike. Every step is a bijection of
/// the state and injective in what it folds in, so two inputs of one length
/// that differ in a single byte never hash alike — what torn-write and
/// bit-flip detection rests on — and the value depends on no platform
/// property and on no dependency.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut hash = FNV_OFFSET;
    for word in words {
        hash = (hash ^ u64::from_le_bytes(*word)).wrapping_mul(FNV_PRIME);
        hash ^= hash >> 32;
    }
    for &b in tail {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word-wise hash is part of the wire format and every durable
    /// format: these values (worked out by a second implementation outside
    /// this crate, with the workspace's own multiplier, 2^48 + 0x1b3) must
    /// never move, on any platform. Shorter than a word it is the
    /// byte-serial FNV-1a, so `b"funnel"` reads what that hash gave.
    #[test]
    fn fnv1a_words_known_answers() {
        let counting: Vec<u8> = (0..67).collect();
        let cases: [(&[u8], u64); 7] = [
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xb084_984c_8601_ec8c),
            (b"funnel", 0xcac1_c6a0_62fb_6379),
            (b"12345678", 0x49f5_424e_64f5_46b2),
            (b"123456789", 0xf24a_ab35_8cc6_de31),
            (&counting[..64], 0x6d90_f6e0_d236_e195),
            (&counting, 0x8e9d_83cb_f931_eb38),
        ];
        for (bytes, want) in cases {
            assert_eq!(fnv1a_words(bytes), want, "{bytes:?}");
        }
    }

    /// Any single changed byte changes the hash, wherever it sits: in a
    /// whole word, in the tail, in the top bits the multiply never carries
    /// down.
    #[test]
    fn fnv1a_words_tells_any_single_byte_apart() {
        let base: Vec<u8> = (0..45u8).map(|i| i.wrapping_mul(37)).collect();
        let hash = fnv1a_words(&base);
        for at in 0..base.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut other = base.clone();
                other[at] ^= flip;
                assert_ne!(fnv1a_words(&other), hash, "byte {at} ^ {flip:#x}");
            }
        }
    }
}
