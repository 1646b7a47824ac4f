//! Crash safety for the FUNNEL collector.
//!
//! The paper's deployment runs FUNNEL as a long-lived service beside the
//! metric collection substrate (§2.2, §5): agents ship measurement batches
//! every minute, the collector folds them into the metric store, and
//! assessments fire on every software change. A process crash anywhere in
//! that loop must not cost verdicts — the operations team treats a
//! delivered report as ground truth, so a recovered FUNNEL has to produce
//! the *byte-identical* report an uninterrupted run would have delivered.
//!
//! This crate supplies the durable half of that guarantee, and it is
//! ingestion only: recovery gives back the store bit for bit, and an
//! assessment — interim, or re-assessed after a heal — is a pure function
//! of the store, so nothing of one is journalled.
//!
//! * [`wal`] — a segmented, content-hashed ingest write-ahead log. Every
//!   frame the collector accepts is appended as a length-prefixed,
//!   hashed record *before* it is committed to the store, so a crash
//!   can lose at most the torn tail record the crash interrupted — which
//!   the agent-side replay protocol re-sends anyway. The format is
//!   fsync-free and deterministic: identical ingest runs produce
//!   byte-identical segments.
//! * [`checkpoint`] — the periodic recovery point: the metric-store
//!   entries and the collector's in-flight state (watermarks, dedup memory,
//!   pending minutes, partial aggregates). On
//!   disk it is a chain — a base segment plus one delta segment per cut,
//!   each holding what was written since the cut before, under a small
//!   manifest — so a cut costs what changed, not what is stored. Every
//!   manifest carries the WAL position of its cut ([`WalCursor`]), so
//!   recovery loads the newest usable manifest, adds its segments up, and
//!   reads and replays only the WAL tail past it: what a recovery costs is
//!   what the cut does not cover, not the log.
//! * [`mod@recover`] — the [`IngestHooks`](funnel_sim::IngestHooks)
//!   implementation that writes both during live ingestion
//!   ([`recover::DurableHooks`]), the seeded kill switch the chaos
//!   harness uses to tear either mid-write ([`recover::Kill`]), and
//!   [`recover::recover`] itself: checkpoint restore + WAL-tail replay.
//!
//! Every durable byte — WAL record, checkpoint segment, manifest — is
//! under one content hash, [`fnv1a_words`], checked before the bytes it
//! covers are parsed. Every durability decision is observable through
//! `funnel-obs` (WAL segment sizes and the recovery span), and every
//! decode path treats corruption as data, not as a panic: torn tails, bad
//! hashes, and impossible counts all surface as
//! [`ResilienceError::Corrupt`].

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

pub mod checkpoint;
pub mod recover;
pub mod wal;

pub use checkpoint::{Checkpoint, CheckpointStore};
pub use recover::{recover, DurableHooks, DurableOptions, Kill, Recovered};
pub use wal::{WalCursor, WalScan, WalWriter};

use funnel_sim::fnv1a_words;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum ResilienceError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// Durable bytes failed validation (bad magic, hash mismatch, torn
    /// record in a sealed segment, impossible counts).
    Corrupt(String),
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::Io(e) => write!(f, "durability I/O error: {e}"),
            ResilienceError::Corrupt(why) => write!(f, "corrupt durable state: {why}"),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<std::io::Error> for ResilienceError {
    fn from(e: std::io::Error) -> Self {
        ResilienceError::Io(e)
    }
}

/// The sorted sequence numbers of the files in `dir` named
/// `<prefix><number><suffix>` — how WAL segments, checkpoint segments and
/// manifests are all numbered.
fn numbered_files(
    dir: &std::path::Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<u64>, ResilienceError> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let number = name
            .to_str()
            .and_then(|name| name.strip_prefix(prefix)?.strip_suffix(suffix));
        if let Some(seq) = number.and_then(|n| n.parse::<u64>().ok()) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}
