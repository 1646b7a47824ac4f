//! Chaos-kill crash/recovery harness.
//!
//! The robustness claim this suite enforces: **a crash at any seeded kill
//! point costs nothing but time**. Whatever instant the process dies —
//! mid-frame-append, mid-checkpoint-write, or between an interim
//! assessment and its re-assessment —
//! recovering from the durable state (checkpoint + WAL tail) and resuming
//! must deliver the *byte-identical* final report an uninterrupted run
//! would have produced, at any worker count. (An assessment killed midway
//! leaves nothing durable behind; a fresh one over the recovered store is
//! what every `assess(…, workers)` loop below checks. The one sanctioned
//! divergence, a poisoned work unit, is `quarantine.rs`'s.)

use funnel_core::pipeline::{ChangeAssessment, Funnel};
use funnel_core::report::render;
use funnel_core::FunnelConfig;
use funnel_resilience::checkpoint::{decode_segment, CheckpointStore};
use funnel_resilience::recover::{recover, DurableHooks, DurableOptions, Kill};
use funnel_resilience::wal::{decode_records, WalCursor, FRAME_RECORD, RECORD_HEADER};
use funnel_resilience::ResilienceError;
use funnel_sim::agent::{replay_durable, replay_prefix, replay_with_faults};
use funnel_sim::collector::CollectorState;
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_sim::kpi::KpiKind;
use funnel_sim::store::MetricStore;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_topology::change::{ChangeId, ChangeKind};
use std::fs;
use std::path::PathBuf;

const SHARDS: usize = 3;

/// An 8-day world with a lossy, duplicating transport (no partitions, so
/// recovery resumes via the fast-forward replay cursor) and one impactful
/// upgrade on day 7.
fn crash_world(seed: u64) -> (World, ChangeId, FaultPlan) {
    let mut b = WorldBuilder::new(SimConfig::days(seed, 8));
    let svc = b.add_service("prod.crash", 6).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        85.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 200, effect, "t")
        .unwrap();
    let plan = FaultPlan {
        drop_frame_prob: 0.05,
        duplicate_prob: 0.08,
        seed: seed ^ 0xc0ffee,
        ..FaultPlan::none()
    };
    (b.build(), id, plan)
}

fn tmp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("funnel-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The delivered artifact, byte-comparable: the full assessment Debug
/// form plus the operator-facing rendering.
fn report_of(world: &World, assessment: &ChangeAssessment) -> String {
    format!("{assessment:?}\n{}", render(world.topology(), assessment))
}

fn assess(world: &World, store: &MetricStore, change: ChangeId, workers: usize) -> String {
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    let record = world.change_log().get(change).unwrap();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let assessment = Funnel::new(config)
        .assess_change_with(store, world.topology(), record, &kinds)
        .unwrap();
    report_of(world, &assessment)
}

/// Removes the directory a [`KillRun::crash`] left its files under.
fn discard(options: &DurableOptions) {
    let _ = fs::remove_dir_all(options.wal_dir.parent().expect("base/wal"));
}

fn wal_segment(options: &DurableOptions, segment: u64) -> PathBuf {
    options.wal_dir.join(format!("wal-{segment:08}.seg"))
}

/// Where frame `n` of the WAL starts, found by walking the whole log record
/// by record: what the cursor of a cut that covers `n` frames must say.
fn position_of_frame(options: &DurableOptions, n: u64) -> WalCursor {
    let mut frames = 0;
    for segment in 0.. {
        let bytes = fs::read(wal_segment(options, segment)).expect("the WAL ends before frame n");
        for record in decode_records(&bytes).records {
            if record.kind != FRAME_RECORD {
                continue;
            }
            if frames == n {
                return WalCursor {
                    frames,
                    segment,
                    offset: (record.payload.start - RECORD_HEADER) as u64,
                };
            }
            frames += 1;
        }
    }
    unreachable!()
}

/// The crash world replayed on `shards` agent shards, with the report an
/// uninterrupted run delivers.
struct KillRun {
    world: World,
    change: ChangeId,
    plan: FaultPlan,
    shards: usize,
    golden: String,
}

impl KillRun {
    fn new(shards: usize) -> Self {
        let (world, change, plan) = crash_world(23);
        let golden_store = MetricStore::new();
        replay_with_faults(&world, &golden_store, shards, plan.clone()).unwrap();
        let golden = assess(&world, &golden_store, change, 1);
        Self {
            world,
            change,
            plan,
            shards,
            golden,
        }
    }

    /// The durable run of one seeded kill, up to the crash: where it left
    /// its files, the kill switch disarmed for what follows.
    fn crash(&self, tag: &str, kill: Kill) -> DurableOptions {
        let mut options = DurableOptions::at(&tmp_base(tag));
        options.cadence = CADENCE;
        options.kill = kill;

        let crashed_store = MetricStore::new();
        let mut hooks = DurableHooks::create(&options).unwrap();
        let outcome = replay_durable(
            &self.world,
            &crashed_store,
            self.shards,
            self.plan.clone(),
            DURATION,
            None,
            &mut hooks,
        )
        .unwrap();
        assert!(outcome.aborted, "{tag}: kill point never fired");
        assert!(hooks.error().is_none(), "{tag}: {:?}", hooks.error());
        // The crash loses everything in memory: `crashed_store` drops here.
        options.kill = Kill::None;
        options
    }

    /// One seeded kill: the crashed durable run, `on_disk` over what it
    /// left behind, recovery (checked against `expect`: whether a
    /// checkpoint was used and, if so, how many frames it covers — its
    /// cursor must then name where that frame starts in the WAL as the
    /// crash left it), the resumed run, and the final report at every
    /// worker count against the uninterrupted one.
    fn kill(
        &self,
        tag: &str,
        kill: Kill,
        expect: Option<u64>,
        on_disk: impl FnOnce(&DurableOptions),
    ) {
        let Self {
            world,
            change,
            plan,
            shards,
            golden,
        } = self;
        let (change, shards) = (*change, *shards);
        let options = self.crash(tag, kill);
        let expect = expect.map(|frames| position_of_frame(&options, frames));
        on_disk(&options);

        let recovered = recover(world, shards, 0, &options).unwrap();
        assert!(!recovered.end_of_stream, "{tag}: stream ended before kill");
        assert_eq!(
            recovered.used_checkpoint.then_some(recovered.checkpoint),
            expect,
            "{tag}: recovered from the wrong durable state"
        );
        assert!(recovered.used_checkpoint || recovered.checkpoint == WalCursor::START);
        // The checkpoint used is strictly older than the crash (for a torn
        // cut: the previous manifest) and the WAL tail supplies the rest.
        assert!(
            recovered.checkpoint.frames < recovered.frames_in_wal,
            "{tag}: checkpoint at {} of {} WAL frames",
            recovered.checkpoint.frames,
            recovered.frames_in_wal
        );
        assert_eq!(
            recovered.checkpoint.frames + recovered.frames_replayed,
            recovered.frames_in_wal,
            "{tag}: checkpoint plus replayed tail must cover the journal"
        );
        let mut hooks = DurableHooks::resume(&options, recovered.frames_in_wal).unwrap();
        let resumed = replay_durable(
            world,
            &recovered.store,
            shards,
            plan.clone(),
            DURATION,
            Some(recovered.state),
            &mut hooks,
        )
        .unwrap();
        assert!(!resumed.aborted, "{tag}: resume aborted");

        for workers in [1, 3, 8] {
            assert_eq!(
                *golden,
                assess(world, &recovered.store, change, workers),
                "{tag}: report diverged at {workers} workers"
            );
        }
        discard(&options);
    }
}

/// Frames between checkpoint cuts in the kill-point tests.
const CADENCE: u64 = 2048;

/// Minutes the crash world's agents replay.
const DURATION: usize = 8 * 1440;

/// Kill points: mid-frame (torn WAL append, early and late) and
/// mid-checkpoint (a cut torn inside its delta segment). After recovery +
/// resumed ingestion, the final report must match the uninterrupted run at
/// every worker count.
#[test]
fn ingest_kill_points_recover_to_byte_identical_reports() {
    let run = KillRun::new(SHARDS);

    // Each kill with how recovery must get back: before the first cut there
    // is only the WAL; later a checkpoint carries most of the frames; a cut
    // torn in its segment falls back to the previous manifest.
    let kills = [
        ("frame-early", Kill::Frame { index: 40, keep: 7 }, None),
        (
            "frame-late",
            Kill::Frame {
                index: 9000,
                keep: 0,
            },
            Some(4 * CADENCE),
        ),
        (
            "checkpoint",
            Kill::Checkpoint {
                index: 1,
                keep: 120,
            },
            Some(CADENCE),
        ),
    ];
    for (tag, kill, expect) in kills {
        run.kill(tag, kill, expect, |_| {});
    }
}

/// Recovery reads the WAL from the checkpoint's cursor on and nothing
/// before it. Damage the checkpoint covers — a garbled segment, a deleted
/// one — therefore costs nothing: the report is the uninterrupted run's.
/// Damage past the cursor in a sealed segment is still what it always was,
/// a log no crash can leave: recovery refuses it, it does not replay a
/// shorter tail.
#[test]
fn wal_damage_is_not_read_below_the_cursor_and_refused_past_it() {
    let run = KillRun::new(SHARDS);
    let late = Kill::Frame {
        index: 9000,
        keep: 0,
    };
    let garble = |path: PathBuf, at: usize| {
        let mut bytes = fs::read(&path).unwrap();
        bytes[at] ^= 0x40;
        fs::write(&path, bytes).unwrap();
    };

    run.kill("wal-covered", late, Some(4 * CADENCE), |options| {
        let cursor = position_of_frame(options, 4 * CADENCE);
        assert!(
            cursor.segment >= 2,
            "{cursor:?} covers too little to damage"
        );
        garble(wal_segment(options, 0), 100);
        fs::remove_file(wal_segment(options, 1)).unwrap();
    });

    let options = run.crash("wal-uncovered", late);
    let cursor = position_of_frame(&options, 4 * CADENCE);
    assert!(
        wal_segment(&options, cursor.segment + 1).exists(),
        "the tail past {cursor:?} never leaves its segment"
    );
    // The last byte of the cursor's segment: past the cursor, and sealed.
    let sealed = wal_segment(&options, cursor.segment);
    let last = fs::metadata(&sealed).unwrap().len() as usize - 1;
    assert!(last as u64 >= cursor.offset);
    garble(sealed, last);
    let refused = recover(&run.world, SHARDS, 0, &options);
    assert!(
        matches!(refused, Err(ResilienceError::Corrupt(_))),
        "{refused:?}"
    );
    discard(&options);
}

/// A cut is two writes, segment then manifest, and `Kill::Checkpoint`
/// counts `keep` across both: the process can die inside the manifest, or
/// with the segment whole and the manifest never started. Either way the
/// cut names nothing recovery may use, and the previous manifest — which
/// rests on none of the torn cut's files — carries the restart. One agent
/// shard, so that the frames reach the collector in one order and the two
/// lengths learnt from a first run are the lengths of every run.
#[test]
fn a_cut_torn_in_its_manifest_or_between_its_files_recovers_from_the_previous_one() {
    let run = KillRun::new(1);

    let files_of_cut_1 = |options: &DurableOptions| {
        let len = |name: &str| {
            fs::metadata(options.checkpoint_dir.join(name))
                .map(|m| m.len() as usize)
                .ok()
        };
        (len("seg-00000001.bin"), len("ckpt-00000001.bin"))
    };
    // A first run learns the two lengths: a kill that keeps everything
    // still aborts ingestion, with both files of cut 1 whole on disk.
    let (segment, manifest) = {
        let whole = Kill::Checkpoint {
            index: 1,
            keep: usize::MAX,
        };
        let options = run.crash("cut-whole", whole);
        let lengths = files_of_cut_1(&options);
        discard(&options);
        match lengths {
            (Some(segment), Some(manifest)) => (segment, manifest),
            other => panic!("cut 1 left {other:?}"),
        }
    };
    assert!(segment > 120 && manifest > 2);

    run.kill(
        "cut-in-manifest",
        Kill::Checkpoint {
            index: 1,
            keep: segment + manifest / 2,
        },
        Some(CADENCE),
        |options| assert_eq!(files_of_cut_1(options), (Some(segment), Some(manifest / 2))),
    );
    run.kill(
        "cut-at-segment-end",
        Kill::Checkpoint {
            index: 1,
            keep: segment,
        },
        Some(CADENCE),
        |options| assert_eq!(files_of_cut_1(options), (Some(segment), None)),
    );
}

/// A cut taken after a partition heal rewrote history. The first pass
/// loses a partition's minutes for good (the agents drop what they could
/// not send), so the store forward-fills the gap and is cut with its
/// frontier at the end of the stream. Then the buffered minutes are
/// delivered after all — the same stream replayed with a staggered
/// catch-up heal: every live frame is old news the store refuses, every
/// healed one that trails its agent's watermark is backfilled far below
/// the frontier. The next cut is a delta whose
/// records start in the gap, not at the series end; recovery must put the
/// rewritten bins back bit for bit and deliver the uncrashed report.
#[test]
fn a_cut_after_a_heal_backfilled_history_recovers_the_rewritten_bins() {
    let (world, change, _) = crash_world(41);
    let gap_start = 7 * 1440 + 150;
    let partition = |heal| {
        FaultPlan::none().with_partition(PartitionWindow {
            scope: PartitionScope::Collector,
            start: gap_start,
            duration: 40,
            heal,
        })
    };
    let base = tmp_base("heal-cut");
    let options = DurableOptions::at(&base);
    let state = CollectorState::new(SHARDS);
    let segment_of = |seq: u64| {
        let name = format!("seg-{seq:08}.bin");
        fs::read(options.checkpoint_dir.join(name)).unwrap()
    };

    let store = MetricStore::new();
    let mut checkpoints = CheckpointStore::open(&options.checkpoint_dir).unwrap();
    replay_with_faults(&world, &store, SHARDS, partition(HealMode::SilentDrop)).unwrap();
    checkpoints
        .cut(WalCursor::START, &store, &state, None)
        .unwrap();
    let gapped = assess(&world, &store, change, 1);

    let healed = replay_with_faults(
        &world,
        &store,
        SHARDS,
        partition(HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 2,
        }),
    )
    .unwrap();
    assert!(healed.backfilled_frames > 0 && healed.backfilled_records > 0);
    checkpoints
        .cut(WalCursor::START, &store, &state, None)
        .unwrap();
    let golden = assess(&world, &store, change, 1);
    assert_ne!(
        gapped, golden,
        "the heal changed nothing an assessment sees"
    );

    // The second cut continued the chain, and only with the rewritten
    // suffixes (a ninth of the eight days): every record starts inside the
    // gap.
    let delta = decode_segment(&segment_of(1)).unwrap();
    assert!(segment_of(1).len() * 5 < segment_of(0).len());
    assert!(!delta.is_empty());
    for record in &delta {
        assert!(
            (gap_start..gap_start + 40).contains(&record.from),
            "{:?} rewritten from {}",
            record.key,
            record.from
        );
    }
    let uncrashed = store.export_entries();
    drop((store, checkpoints)); // the crash

    let recovered = recover(&world, SHARDS, 0, &options).unwrap();
    assert!(recovered.used_checkpoint);
    assert!(
        recovered.store.export_entries() == uncrashed,
        "recovered store differs from the uncrashed one"
    );
    for workers in [1, 3, 8] {
        assert_eq!(
            golden,
            assess(&world, &recovered.store, change, workers),
            "report diverged at {workers} workers"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

/// A kill between the interim assessment and the heal. Nothing of the
/// assessment is durable, and nothing needs to be: the interim store is cut,
/// the process dies, and recovery gives the store back, over which the
/// interim assessment comes out as it did before the crash. Re-assessing it
/// once the heal completes delivers the uninterrupted run's final report,
/// and a second call has nothing left to re-run.
#[test]
fn a_kill_before_the_heal_reassesses_from_the_recovered_store() {
    let mut b = WorldBuilder::new(SimConfig::days(37, 8));
    let svc = b.add_service("prod.reheal", 6).unwrap();
    let minute = 7 * 1440 + 300;
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            minute,
            ChangeEffect::none().with_level_shift(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                90.0,
            ),
            "t",
        )
        .unwrap();
    let world = b.build();
    let plan = FaultPlan::none().with_partition(PartitionWindow {
        scope: PartitionScope::Collector,
        start: minute - 20,
        duration: 45,
        heal: HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 1,
        },
    });
    let funnel = Funnel::paper_default();
    let record = world.change_log().get(change).unwrap().clone();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    let assess_interim = |store: &MetricStore| {
        funnel
            .assess_change_with(store, world.topology(), &record, &kinds)
            .unwrap()
    };
    let healed = MetricStore::new();
    replay_with_faults(&world, &healed, SHARDS, plan.clone()).unwrap();

    // Uninterrupted: interim → heal → re-assess → final.
    let interim_store = MetricStore::new();
    replay_prefix(&world, &interim_store, SHARDS, plan, minute as usize + 15).unwrap();
    let interim = assess_interim(&interim_store);
    assert!(interim.awaiting_backfill_items().count() > 0);
    let golden = {
        let mut assessment = interim.clone();
        let replaced = funnel.reassess(&mut assessment, &healed, world.topology(), &record);
        assert!(replaced.unwrap() > 0);
        report_of(&world, &assessment)
    };

    // Crashed: the interim store reaches a cut, then the process dies.
    let base = tmp_base("reassess");
    let options = DurableOptions::at(&base);
    let mut checkpoints = CheckpointStore::open(&options.checkpoint_dir).unwrap();
    let state = CollectorState::new(SHARDS);
    checkpoints
        .cut(WalCursor::START, &interim_store, &state, None)
        .unwrap();
    drop((interim_store, checkpoints));

    let recovered = recover(&world, SHARDS, 0, &options).unwrap();
    assert!(recovered.used_checkpoint);
    let mut assessment = assess_interim(&recovered.store);
    assert_eq!(report_of(&world, &assessment), report_of(&world, &interim));

    // The heal completes after recovery; re-assessment finishes the job.
    let replaced = funnel.reassess(&mut assessment, &healed, world.topology(), &record);
    assert!(replaced.unwrap() > 0);
    assert_eq!(golden, report_of(&world, &assessment));
    let again = funnel.reassess(&mut assessment, &healed, world.topology(), &record);
    assert_eq!(again, Ok(0), "items were re-run twice");
    let _ = fs::remove_dir_all(&base);
}
