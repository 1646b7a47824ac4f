//! Durable ingestion hooks and crash recovery.
//!
//! [`DurableHooks`] plugs into the collector's three-step ingest protocol
//! ([`IngestHooks`]): every accepted frame is WAL-appended *before* the
//! commit that mutates the store, and every `cadence` accepted frames the
//! store is cut at the post-commit boundary: one delta segment and one
//! manifest, which records where the WAL writer stands (the cut's
//! [`WalCursor`]), join the checkpoint chain ([`CheckpointStore::cut`]).
//! Because the hook runs between classification and commit, the WAL is
//! always at least as new as the store — recovery can only ever need to
//! *replay* frames, never to un-commit them.
//!
//! [`recover`] rebuilds the durable state after a crash: load the newest
//! usable checkpoint manifest (one torn, or resting on a torn segment,
//! falls back to its predecessor), restore the store entries its chain
//! adds up to and the collector state it carries, then read the WAL from
//! that manifest's cursor on — the segments before it are never opened —
//! and re-ingest that tail through the very same classify/commit path live
//! ingestion uses. If the WAL carries the end-of-stream marker the
//! collector's `finish()` runs too; otherwise the caller resumes live
//! ingestion from the returned [`CollectorState`] via
//! [`replay_durable`](funnel_sim::agent::replay_durable), whose per-agent
//! replay cursor fast-forwards past everything already durable.
//!
//! [`Kill`] is the chaos harness's seeded kill switch: it turns one
//! specific write — the Nth frame append or the Nth checkpoint — into a
//! torn partial write followed by an ingest abort, which is exactly what
//! `kill -9` at that instant leaves on disk.

use crate::checkpoint::CheckpointStore;
use crate::wal::{self, WalCursor, WalWriter};
use crate::ResilienceError;
use bytes::Bytes;
use funnel_sim::collector::{Collector, CollectorState, IngestAbort, IngestHooks};
use funnel_sim::store::MetricStore;
use funnel_sim::world::World;
use std::path::{Path, PathBuf};

/// Where the durable state lives and how often checkpoints fire.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// WAL segment directory.
    pub wal_dir: PathBuf,
    /// Checkpoint directory.
    pub checkpoint_dir: PathBuf,
    /// Byte threshold at which WAL segments roll over.
    pub segment_limit: u64,
    /// Checkpoint every this many accepted frames (`0` disables periodic
    /// checkpoints; recovery then replays the whole WAL).
    pub cadence: u64,
    /// The seeded kill switch (chaos harness only).
    pub kill: Kill,
}

impl DurableOptions {
    /// Durability rooted at `base` (`base/wal`, `base/ckpt`) with a small
    /// segment limit and a frame cadence sized for tests.
    pub fn at(base: &Path) -> Self {
        Self {
            wal_dir: base.join("wal"),
            checkpoint_dir: base.join("ckpt"),
            segment_limit: 64 * 1024,
            cadence: 64,
            kill: Kill::None,
        }
    }
}

/// A seeded kill point: tears one specific durable write mid-flight and
/// aborts ingestion there, modelling `kill -9` at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kill {
    /// Never fires (production).
    #[default]
    None,
    /// Tear the WAL append of accepted frame `index` (0-based), keeping
    /// only the first `keep` bytes of its record.
    Frame {
        /// Which accepted frame dies mid-append.
        index: u64,
        /// Bytes of the record that reach disk before the kill.
        keep: usize,
    },
    /// Tear checkpoint cut number `index` (0-based, counted per process),
    /// keeping only the first `keep` bytes of what it writes.
    Checkpoint {
        /// Which periodic checkpoint dies mid-write.
        index: u64,
        /// Bytes that reach disk before the kill, counted across the
        /// delta segment and then the manifest, in write order.
        keep: usize,
    },
}

/// The [`IngestHooks`] implementation that makes ingestion durable.
///
/// I/O failures cannot travel through the hook trait, so the first one is
/// parked in [`DurableHooks::error`] and ingestion aborts; callers check
/// it after the replay returns.
#[derive(Debug)]
pub struct DurableHooks {
    wal: WalWriter,
    checkpoints: CheckpointStore,
    cadence: u64,
    kill: Kill,
    frames: u64,
    checkpoints_written: u64,
    error: Option<ResilienceError>,
}

impl DurableHooks {
    /// Opens the durable state for a fresh ingest run.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn create(options: &DurableOptions) -> Result<Self, ResilienceError> {
        Self::resume(options, 0)
    }

    /// Opens the durable state continuing after recovery:
    /// `frames_so_far` is [`Recovered::frames_in_wal`], so the frame
    /// numbering (and with it the checkpoint cadence and any
    /// [`Kill::Frame`] index) continues where the crashed process stopped.
    /// Checkpoint cuts are counted per process: a [`Kill::Checkpoint`]
    /// index starts over at 0 here.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn resume(options: &DurableOptions, frames_so_far: u64) -> Result<Self, ResilienceError> {
        Ok(Self {
            wal: WalWriter::open(&options.wal_dir, options.segment_limit)?,
            checkpoints: CheckpointStore::open(&options.checkpoint_dir)?,
            cadence: options.cadence,
            kill: options.kill,
            frames: frames_so_far,
            checkpoints_written: 0,
            error: None,
        })
    }

    /// The first I/O error the hooks hit, if any — the reason an aborted
    /// replay aborted, unless the abort came from a [`Kill`].
    pub fn error(&self) -> Option<&ResilienceError> {
        self.error.as_ref()
    }

    /// Accepted frames appended so far (including any inherited via
    /// [`DurableHooks::resume`]).
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

impl IngestHooks for DurableHooks {
    fn on_accepted_frame(&mut self, raw: &Bytes) -> Result<(), IngestAbort> {
        if let Kill::Frame { index, keep } = self.kill {
            if self.frames == index {
                if let Err(e) = self.wal.append_torn_frame(raw, keep) {
                    self.error = Some(e);
                }
                return Err(IngestAbort);
            }
        }
        match self.wal.append_frame(raw) {
            Ok(()) => {
                self.frames += 1;
                Ok(())
            }
            Err(e) => {
                self.error = Some(e);
                Err(IngestAbort)
            }
        }
    }

    fn after_commit(&mut self, collector: &Collector<'_>) -> Result<(), IngestAbort> {
        if self.cadence == 0 || self.frames == 0 || !self.frames.is_multiple_of(self.cadence) {
            return Ok(());
        }
        let tear = match self.kill {
            Kill::Checkpoint { index, keep } if self.checkpoints_written == index => Some(keep),
            _ => None,
        };
        let cut = self.checkpoints.cut(
            self.wal.cursor(self.frames),
            collector.store(),
            collector.state(),
            tear,
        );
        match cut {
            Ok(_) if tear.is_none() => {
                self.checkpoints_written += 1;
                Ok(())
            }
            Ok(_) => Err(IngestAbort),
            Err(e) => {
                self.error = Some(e);
                Err(IngestAbort)
            }
        }
    }

    fn on_end_of_stream(&mut self, _collector: &Collector<'_>) -> Result<(), IngestAbort> {
        match self.wal.append_end_of_stream() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.error = Some(e);
                Err(IngestAbort)
            }
        }
    }
}

/// Everything recovery rebuilt from the durable state.
#[derive(Debug)]
pub struct Recovered {
    /// The metric store, restored to the last durable commit boundary.
    pub store: MetricStore,
    /// The collector state to resume live ingestion from.
    pub state: CollectorState,
    /// Whether the WAL ended with the end-of-stream marker (in which case
    /// `finish()` already ran and the store is final).
    pub end_of_stream: bool,
    /// Whether a torn WAL tail was detected (and discarded).
    pub torn_wal_tail: bool,
    /// Frames in the WAL: the checkpoint cursor's count plus the validated
    /// frames read past it. What [`DurableHooks::resume`] continues the
    /// numbering from.
    pub frames_in_wal: u64,
    /// Frames re-ingested past the checkpoint cursor.
    pub frames_replayed: u64,
    /// The WAL position recovery read from: the cursor of the checkpoint it
    /// restored, [`WalCursor::START`] when none was usable.
    pub checkpoint: WalCursor,
    /// Whether a checkpoint was restored (vs. whole-WAL replay).
    pub used_checkpoint: bool,
}

/// Rebuilds the durable state after a crash: newest valid checkpoint +
/// WAL-tail replay through the live classify/commit path.
///
/// # Errors
///
/// [`ResilienceError::Io`] on filesystem failure,
/// [`ResilienceError::Corrupt`] when the WAL past the checkpoint is damaged
/// in a way no crash produces (mid-log tears, records after end-of-stream,
/// a checkpoint cursor the WAL cannot honour). WAL bytes the checkpoint
/// covers are not read, so damage there is not seen.
pub fn recover(
    world: &World,
    shards: usize,
    horizon: u64,
    options: &DurableOptions,
) -> Result<Recovered, ResilienceError> {
    let checkpoint = CheckpointStore::latest_valid(&options.checkpoint_dir)?;
    let cursor = checkpoint.as_ref().map_or(WalCursor::START, |c| c.wal);
    let scan = wal::scan(&options.wal_dir, cursor)?;

    let store = MetricStore::new();
    let (state, used_checkpoint) = match checkpoint {
        Some(c) => {
            store.restore_entries(c.entries);
            (c.collector, true)
        }
        None => (CollectorState::new(shards), false),
    };

    let mut collector = Collector::resume(world, &store, shards, horizon, state);
    for payload in &scan.frames {
        collector.ingest(payload);
    }
    if scan.end_of_stream {
        collector.finish();
    }
    let (state, _stats) = collector.into_parts();
    funnel_obs::flush_thread();

    Ok(Recovered {
        store,
        state,
        end_of_stream: scan.end_of_stream,
        torn_wal_tail: scan.torn_tail,
        frames_in_wal: scan.frame_count,
        frames_replayed: scan.frames.len() as u64,
        checkpoint: cursor,
        used_checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_sim::agent::{replay_durable, replay_with_faults};
    use funnel_sim::effect::ChangeEffect;
    use funnel_sim::faults::FaultPlan;
    use funnel_sim::kpi::KpiKind;
    use funnel_sim::world::{SimConfig, WorldBuilder};
    use funnel_sim::NoHooks;
    use funnel_topology::change::ChangeKind;
    use std::fs;

    fn test_world(seed: u64) -> World {
        let mut b = WorldBuilder::new(SimConfig {
            duration: 180,
            ..SimConfig::days(seed, 1)
        });
        let svc = b.add_service("prod.rec", 3).unwrap();
        b.deploy_change(
            ChangeKind::Upgrade,
            svc,
            1,
            90,
            ChangeEffect::none().with_level_shift(
                KpiKind::PageViewCount,
                funnel_sim::effect::EffectScope::TreatedInstances,
                -200.0,
            ),
            "t",
        )
        .unwrap();
        b.build()
    }

    fn tmp_base(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("funnel-rec-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn store_fingerprint(world: &World, store: &MetricStore) -> Vec<String> {
        let mut out = Vec::new();
        for key in world.all_keys() {
            let series = store.get(&key);
            let mask = store.mask(&key);
            out.push(format!("{key:?} {series:?} {mask:?}"));
        }
        out
    }

    #[test]
    fn durable_run_recovers_to_the_golden_store() {
        let world = test_world(7);
        let shards = 3;

        let golden = MetricStore::new();
        replay_with_faults(&world, &golden, shards, FaultPlan::none()).unwrap();

        for kill in [
            Kill::Frame { index: 5, keep: 6 },
            Kill::Frame {
                index: 200,
                keep: 0,
            },
            Kill::Checkpoint { index: 1, keep: 24 },
        ] {
            let base = tmp_base("golden");
            let mut options = DurableOptions::at(&base);
            options.cadence = 50;
            options.kill = kill;
            let crashed_store = MetricStore::new();
            let mut hooks = DurableHooks::create(&options).unwrap();
            let outcome = replay_durable(
                &world,
                &crashed_store,
                shards,
                FaultPlan::none(),
                180,
                None,
                &mut hooks,
            )
            .unwrap();
            assert!(outcome.aborted, "{kill:?} did not abort");
            assert!(hooks.error().is_none());

            // Recover, then resume ingestion to the end of the stream.
            options.kill = Kill::None;
            let recovered = recover(&world, shards, 0, &options).unwrap();
            assert!(!recovered.end_of_stream);
            let mut hooks = DurableHooks::resume(&options, recovered.frames_in_wal).unwrap();
            let resumed = replay_durable(
                &world,
                &recovered.store,
                shards,
                FaultPlan::none(),
                180,
                Some(recovered.state),
                &mut hooks,
            )
            .unwrap();
            assert!(!resumed.aborted);

            assert_eq!(
                store_fingerprint(&world, &golden),
                store_fingerprint(&world, &recovered.store),
                "diverged after {kill:?}"
            );
            let _ = fs::remove_dir_all(&base);
        }
    }

    /// A cut that lands exactly on a WAL roll-over records `(next, 0)`, a
    /// segment that does not exist yet. A process that dies there, recovers
    /// and resumes must put its next frame *there*: were it to continue the
    /// full segment, that frame would lie before the cursor of the manifest
    /// a second crash falls back on, and never be replayed.
    #[test]
    fn a_cut_on_a_roll_over_loses_no_frame_across_two_crashes() {
        const CADENCE: u64 = 50;
        let world = test_world(17);
        // One shard: one arrival order, so the bytes learnt are the bytes
        // of every run.
        let golden = MetricStore::new();
        replay_with_faults(&world, &golden, 1, FaultPlan::none()).unwrap();
        let base = tmp_base("rollover");
        let mut options = DurableOptions::at(&base);
        type Resume = Option<(u64, CollectorState)>;
        let run = |options: &DurableOptions, store: &MetricStore, from: Resume| {
            let (frames, state) = from.unzip();
            let mut hooks = DurableHooks::resume(options, frames.unwrap_or(0)).unwrap();
            let plan = FaultPlan::none();
            let outcome = replay_durable(&world, store, 1, plan, 180, state, &mut hooks).unwrap();
            assert!(hooks.error().is_none());
            outcome.aborted
        };

        // The bytes of the first CADENCE records: a segment limit of exactly
        // that seals segment 0 on the frame the first cut follows.
        options.cadence = 0;
        assert!(!run(&options, &MetricStore::new(), None));
        let whole = wal::scan(&options.wal_dir, WalCursor::START).unwrap();
        options.segment_limit = whole
            .frames
            .iter()
            .take(CADENCE as usize)
            .map(|f| (wal::RECORD_HEADER + f.len()) as u64)
            .sum();
        let _ = fs::remove_dir_all(&base);

        // First crash: inside the first cut, once both its files are whole.
        options.cadence = CADENCE;
        options.kill = Kill::Checkpoint {
            index: 0,
            keep: usize::MAX,
        };
        assert!(run(&options, &MetricStore::new(), None));
        let rolled = WalCursor {
            frames: CADENCE,
            segment: 1,
            offset: 0,
        };
        let recovered = recover(&world, 1, 0, &options).unwrap();
        assert_eq!(recovered.checkpoint, rolled);
        assert_eq!(
            (recovered.frames_replayed, recovered.frames_in_wal),
            (0, CADENCE)
        );
        assert!(!options.wal_dir.join("wal-00000001.seg").exists());

        // Second crash: 20 frames on, before the resumed process's first
        // cut, so recovery rests on the same manifest again.
        options.kill = Kill::Frame {
            index: CADENCE + 20,
            keep: 5,
        };
        let resume = Some((recovered.frames_in_wal, recovered.state));
        assert!(run(&options, &recovered.store, resume));
        let recovered = recover(&world, 1, 0, &options).unwrap();
        assert_eq!(recovered.checkpoint, rolled);
        assert_eq!(
            (recovered.frames_replayed, recovered.frames_in_wal),
            (20, CADENCE + 20)
        );
        assert!(recovered.torn_wal_tail);

        options.kill = Kill::None;
        let resume = Some((recovered.frames_in_wal, recovered.state));
        assert!(!run(&options, &recovered.store, resume));
        assert_eq!(
            store_fingerprint(&world, &golden),
            store_fingerprint(&world, &recovered.store),
        );
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn clean_run_recovers_via_end_of_stream_marker() {
        let world = test_world(9);
        let shards = 3;
        let golden = MetricStore::new();
        replay_with_faults(&world, &golden, shards, FaultPlan::none()).unwrap();

        let base = tmp_base("eos");
        let options = DurableOptions::at(&base);
        let live = MetricStore::new();
        let mut hooks = DurableHooks::create(&options).unwrap();
        let outcome = replay_durable(
            &world,
            &live,
            shards,
            FaultPlan::none(),
            180,
            None,
            &mut hooks,
        )
        .unwrap();
        assert!(!outcome.aborted);

        // The process dies *after* a clean shutdown: recovery rebuilds the
        // final store from checkpoint + WAL alone (no live resume needed).
        let recovered = recover(&world, shards, 0, &options).unwrap();
        assert!(recovered.end_of_stream);
        assert!(recovered.used_checkpoint);
        assert!(recovered.frames_replayed < recovered.frames_in_wal);
        assert_eq!(
            store_fingerprint(&world, &golden),
            store_fingerprint(&world, &recovered.store),
        );
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn recovery_without_any_checkpoint_replays_the_whole_wal() {
        let world = test_world(11);
        let shards = 2;
        let golden = MetricStore::new();
        replay_with_faults(&world, &golden, shards, FaultPlan::none()).unwrap();

        let base = tmp_base("nockpt");
        let mut options = DurableOptions::at(&base);
        options.cadence = 0; // no periodic checkpoints at all
        let live = MetricStore::new();
        let mut hooks = DurableHooks::create(&options).unwrap();
        replay_durable(
            &world,
            &live,
            shards,
            FaultPlan::none(),
            180,
            None,
            &mut hooks,
        )
        .unwrap();

        let recovered = recover(&world, shards, 0, &options).unwrap();
        assert!(!recovered.used_checkpoint);
        assert_eq!(recovered.frames_replayed, recovered.frames_in_wal);
        assert_eq!(
            store_fingerprint(&world, &golden),
            store_fingerprint(&world, &recovered.store),
        );
        let _ = fs::remove_dir_all(&base);
    }

    /// `manifest` as format 3 wrote it: the same payload followed by an
    /// empty re-assessment queue (two zero counts), hash-valid under its own
    /// magic.
    fn as_version_3(manifest: &[u8]) -> Vec<u8> {
        // Past the magic and the payload hash.
        let payload = [&manifest[16..], &[0; 16]].concat();
        let mut old = b"FNLCKPT3".to_vec();
        old.extend_from_slice(&crate::fnv1a_words(&payload).to_le_bytes());
        old.extend_from_slice(&payload);
        old
    }

    /// A version-3 manifest is skipped, never misread: beside an older
    /// version-5 one, recovery rests on that one; alone, it leaves no
    /// checkpoint and recovery replays the whole WAL.
    #[test]
    fn a_version_3_manifest_is_skipped_and_recovery_falls_back() {
        use crate::checkpoint::decode_manifest;
        let world = test_world(19);
        let shards = 2;
        let golden = MetricStore::new();
        replay_with_faults(&world, &golden, shards, FaultPlan::none()).unwrap();

        let base = tmp_base("v3");
        let mut options = DurableOptions::at(&base);
        options.cadence = 50;
        let mut hooks = DurableHooks::create(&options).unwrap();
        let live = MetricStore::new();
        let plan = FaultPlan::none();
        replay_durable(&world, &live, shards, plan, 180, None, &mut hooks).unwrap();

        let dir = &options.checkpoint_dir;
        let manifest = |seq: u64| dir.join(format!("ckpt-{seq:08}.bin"));
        let v5 = crate::numbered_files(dir, "ckpt-", ".bin").unwrap();
        let newest = *v5.last().expect("a cadence-50 run cuts");
        let bytes = fs::read(manifest(newest)).unwrap();
        let cursor = decode_manifest(&bytes).unwrap().wal;
        fs::write(manifest(newest + 1), as_version_3(&bytes)).unwrap();
        let found = CheckpointStore::latest_valid(dir).unwrap().unwrap();
        assert_eq!(found.wal, cursor);

        for seq in v5 {
            fs::remove_file(manifest(seq)).unwrap();
        }
        assert!(CheckpointStore::latest_valid(dir).unwrap().is_none());
        let recovered = recover(&world, shards, 0, &options).unwrap();
        assert!(!recovered.used_checkpoint);
        assert_eq!(recovered.checkpoint, WalCursor::START);
        assert_eq!(recovered.frames_replayed, recovered.frames_in_wal);
        assert!(recovered.end_of_stream);
        assert_eq!(
            store_fingerprint(&world, &golden),
            store_fingerprint(&world, &recovered.store),
        );
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn suppressed_hooks_match_nohooks_semantics() {
        // A durable replay must not change what gets ingested: the store
        // from a hook-instrumented run equals the plain replay's store.
        let world = test_world(13);
        let golden = MetricStore::new();
        replay_durable(
            &world,
            &golden,
            3,
            FaultPlan::none(),
            180,
            None,
            &mut NoHooks,
        )
        .unwrap();

        let base = tmp_base("same");
        let options = DurableOptions::at(&base);
        let durable = MetricStore::new();
        let mut hooks = DurableHooks::create(&options).unwrap();
        replay_durable(
            &world,
            &durable,
            3,
            FaultPlan::none(),
            180,
            None,
            &mut hooks,
        )
        .unwrap();
        assert_eq!(
            store_fingerprint(&world, &golden),
            store_fingerprint(&world, &durable),
        );
        let _ = fs::remove_dir_all(&base);
    }
}
