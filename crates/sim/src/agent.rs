//! Agents and the collector: the live ingestion path.
//!
//! "The operations team deploys an agent on each server to monitor the
//! status of each instance and collect the KPIs of all instances
//! continuously. … the agent on each server delivers the measurements to a
//! centralized Hadoop-based database, which also stores the service KPIs
//! aggregated based on the KPIs of the instances" (§2.2).
//!
//! [`replay`] reproduces that dataflow over a frozen [`World`]: agent
//! threads (one per shard of servers) walk the timeline minute by minute,
//! encode each server's measurements into a [`crate::wire`] frame, and send
//! the frames over a bounded channel to a collector thread. The collector
//! decodes, appends server/instance measurements to the [`MetricStore`],
//! and — once every shard has reported a minute — computes and appends the
//! service-level aggregates for that minute.
//!
//! [`replay_with_faults`] runs the same dataflow through a deterministic
//! [`crate::faults::FaultSchedule`]: agents skip dropped frames, glitch sensor readings,
//! mangle bytes in flight, hold delayed frames back, and send duplicates.
//! The collector is hardened accordingly — undecodable frames are
//! quarantined (never panic), duplicates are suppressed per agent,
//! non-finite values are rejected, and minute finalization waits out the
//! schedule's reorder horizon so a delayed frame is never mistaken for a
//! lost one. Service aggregation sums instance values in instance-id order,
//! so the aggregate bytes are identical no matter how threads interleave.

use crate::collector::{Collector, CollectorState, IngestHooks, NoHooks};
use crate::faults::HealMode;
use crate::kpi::{KpiKey, KpiKind};
use crate::store::MetricStore;
use crate::wire::{encode_frame, WireRecord};
use crate::world::{SimError, World};
use bytes::Bytes;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::impact::Entity;
use funnel_topology::model::ServerId;

pub use crate::faults::FaultPlan;

/// Counters describing one replay run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Unique wire frames the collector accepted (dropped, duplicate, and
    /// quarantined frames excluded).
    pub frames: usize,
    /// Individual measurements of live frames the store took (before
    /// aggregation); a record the store refused, its bin measured
    /// already, is not counted.
    pub records: usize,
    /// Minutes replayed.
    pub minutes: usize,
    /// Service aggregates of finalized minutes the store took; one whose
    /// bin was measured or filled already is not counted.
    pub aggregates: usize,
    /// Frames the fault schedule dropped before delivery.
    pub dropped_frames: usize,
    /// Frames the fault schedule held back and delivered late.
    pub delayed_frames: usize,
    /// Duplicate deliveries the collector suppressed.
    pub duplicate_frames: usize,
    /// Frames that failed to decode and were quarantined.
    pub quarantined_frames: usize,
    /// Records whose value was scaled by an injected sensor glitch.
    pub glitched_records: usize,
    /// Records the collector rejected for carrying a non-finite or
    /// implausibly large value (byte corruption can turn a valid f64 into
    /// NaN/∞ — or into a "valid" number of magnitude 1e300 that would
    /// silently poison every aggregate it touches).
    pub invalid_records: usize,
    /// The subset of `invalid_records` that carried NaN or ±Inf.
    pub nonfinite_records: usize,
    /// The subset of `invalid_records` whose value fell implausibly far
    /// below the key's previous live measurement — a counter reset
    /// reported through a raw-gauge channel.
    pub counter_reset_records: usize,
    /// Frames quarantined because their minute stamp ran further ahead of
    /// the sending agent's watermark than clock skew can explain (also
    /// counted in `quarantined_frames`).
    pub clock_skewed_frames: usize,
    /// Agent shard threads that panicked mid-replay. Their already-sent
    /// frames were ingested; only their local fault counters are lost.
    pub crashed_agents: usize,
    /// Frames lost to a network partition: generated while the shard was
    /// dark with no buffering (silent drop), evicted from a full agent-side
    /// queue, or still queued when the replay ended inside the window.
    pub partition_lost_frames: usize,
    /// Late frames from a healed partition written into historical bins
    /// (their minute lay behind the sending agent's own watermark by more
    /// than the reorder horizon).
    pub backfilled_frames: usize,
    /// Individual measurements written into historical bins by backfill.
    pub backfilled_records: usize,
    /// Late measurements refused by backfill duplicate suppression (the
    /// bin already held a real measurement).
    pub backfill_rejected_records: usize,
    /// Service aggregates that only completed once backfill merged a
    /// healed span's instance cells.
    pub backfilled_aggregates: usize,
}

/// Replays the whole world through the agent → collector path into `store`,
/// using `shards` agent threads.
///
/// # Errors
///
/// Propagates series-generation errors (cannot occur for a well-formed
/// world).
pub fn replay(world: &World, store: &MetricStore, shards: usize) -> Result<ReplayStats, SimError> {
    replay_with_faults(world, store, shards, FaultPlan::none())
}

/// [`replay`] under a deterministic [`FaultPlan`].
///
/// The collector uses per-agent watermarks (frames within one agent arrive
/// in send order) to finalize minutes whose frames will never arrive, so a
/// lossy agent cannot stall service aggregation. When the plan delays
/// frames, finalization additionally waits out the schedule's reorder
/// horizon before declaring a frame lost. Service aggregates are only
/// emitted for minutes where *every* instance reported (partial minutes
/// leave a gap the store fills forward — and records in its coverage mask —
/// exactly like the production substrate).
///
/// # Errors
///
/// Propagates series-generation errors (cannot occur for a well-formed
/// world).
pub fn replay_with_faults(
    world: &World,
    store: &MetricStore,
    shards: usize,
    faults: FaultPlan,
) -> Result<ReplayStats, SimError> {
    replay_prefix(world, store, shards, faults, usize::MAX)
}

/// [`replay_with_faults`] truncated to the first `minutes` of the world's
/// timeline — a replay stopped mid-flight. Its purpose is interim
/// assessment during an open partition: a cutoff inside a
/// [`crate::faults::PartitionWindow`] leaves the agents' buffered queues
/// undrained (the link never came back inside the replayed span), so the
/// store shows the coverage gap exactly as a live operator would see it.
/// A shard still dark at the cutoff loses its queue, as agents that never
/// heal eventually do.
///
/// # Errors
///
/// Propagates series-generation errors (cannot occur for a well-formed
/// world).
pub fn replay_prefix(
    world: &World,
    store: &MetricStore,
    shards: usize,
    faults: FaultPlan,
    minutes: usize,
) -> Result<ReplayStats, SimError> {
    replay_durable(world, store, shards, faults, minutes, None, &mut NoHooks).map(|o| o.stats)
}

/// What [`replay_durable`] produced: the run's counters plus whether an
/// [`IngestHooks`] seam aborted the stream mid-flight (a simulated crash —
/// the end-of-stream flush did not run and the store holds a prefix of the
/// full ingestion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Counters for this run only (a resumed replay does not include the
    /// crashed run's counts — those died with the crashed process).
    pub stats: ReplayStats,
    /// Whether a hook aborted the stream before end-of-stream.
    pub aborted: bool,
}

/// [`replay_prefix`] with durability seams: every accepted frame and commit
/// passes through `hooks` (where `funnel-resilience` appends its WAL and
/// writes periodic checkpoints), and the collector can resume from a
/// previously captured [`CollectorState`].
///
/// On resume, agents fast-forward past the minutes the restored watermarks
/// prove durable — but only when the fault plan neither reorders nor
/// partitions (either would break the "accepted in send order ⇒ watermark
/// bounds durability" argument). Otherwise agents resend their whole
/// timeline and the restored duplicate-suppression state discards the
/// already-ingested prefix; both paths converge to the same bytes.
///
/// # Errors
///
/// Propagates series-generation errors (cannot occur for a well-formed
/// world).
pub fn replay_durable(
    world: &World,
    store: &MetricStore,
    shards: usize,
    faults: FaultPlan,
    minutes: usize,
    resume: Option<CollectorState>,
    hooks: &mut dyn IngestHooks,
) -> Result<ReplayOutcome, SimError> {
    // Observability (write-only; no-op unless `funnel_obs::enable` ran):
    // one span for the whole replay, counters at each fault-path site.
    let replay_span = funnel_obs::span!(funnel_obs::names::SPAN_COLLECT_REPLAY);
    let shards = shards.max(1);
    let duration = world.config().duration.min(minutes);
    let start = world.config().start;
    let schedule = faults.schedule();
    let horizon = schedule.reorder_horizon();

    // Replay cursors: when the transport neither reorders nor partitions,
    // frames from one agent are accepted in strictly ascending minute
    // order, so a resumed collector's per-agent watermark pins down exactly
    // which minutes are already durable — the agent fast-forwards past them
    // instead of resending its whole timeline. Any reordering or partition
    // voids that guarantee; agents then resend from the start and the
    // collector's duplicate suppression (whose memory is part of the
    // resumed state) discards what was already ingested.
    let cursors: Vec<usize> = match &resume {
        Some(state) if horizon == 0 && faults.partitions.is_empty() => (0..shards)
            .map(|a| {
                state
                    .watermarks
                    .get(a)
                    .copied()
                    .flatten()
                    .map_or(0, |w| (w + 1).saturating_sub(start) as usize)
            })
            .collect(),
        _ => vec![0; shards],
    };

    // Pre-generate per-server payload series (the "agent's local state").
    struct ShardData {
        // (key, series) pairs this shard reports, grouped by server.
        servers: Vec<Vec<(KpiKey, TimeSeries)>>,
    }
    let mut shard_data: Vec<ShardData> = (0..shards)
        .map(|_| ShardData {
            servers: Vec::new(),
        })
        .collect();

    for sid in 0..world.topology().server_count() {
        let server = ServerId(sid as u32);
        let mut payload = Vec::new();
        for kind in KpiKind::SERVER_KINDS {
            let key = KpiKey::new(Entity::Server(server), kind);
            payload.push((key, world.series(&key)?));
        }
        for inst in world.topology().instances() {
            if inst.server != server {
                continue;
            }
            for &kind in world.kinds_of_service(inst.service) {
                let key = KpiKey::new(Entity::Instance(inst.id), kind);
                payload.push((key, world.series(&key)?));
            }
        }
        if let Some(slot) = shard_data.get_mut(sid % shards) {
            slot.servers.push(payload);
        }
    }

    let (tx, rx) = std::sync::mpsc::sync_channel::<Bytes>(shards * 4);
    let mut collector = match resume {
        Some(state) => Collector::resume(world, store, shards, horizon, state),
        None => Collector::for_world(world, store, shards, horizon),
    };

    /// Per-agent counters returned by each shard thread.
    #[derive(Default)]
    struct AgentStats {
        dropped: usize,
        delayed: usize,
        glitched: usize,
        partition_lost: usize,
    }
    let mut agent_totals = AgentStats::default();
    let mut crashed_agents = 0usize;

    let mut aborted = std::thread::scope(|scope| {
        // Agent shards.
        let mut handles = Vec::with_capacity(shards);
        for (shard_idx, data) in shard_data.iter().enumerate() {
            let tx = tx.clone();
            let schedule = &schedule;
            let cursor = cursors.get(shard_idx).copied().unwrap_or(0);
            handles.push(scope.spawn(move || {
                let mut local = AgentStats::default();
                // Frames held back by the transport: (release minute, bytes).
                let mut held: Vec<(u64, Bytes)> = Vec::new();
                // Frames generated while partitioned, waiting for heal, in
                // ascending minute order (each keeps its original-minute
                // stamp in the wire header). The heal mode they were
                // buffered under governs the drain rate.
                let mut backlog: Vec<Bytes> = Vec::new();
                let mut backlog_heal = HealMode::SilentDrop;
                let send = |frame: Bytes, copies: u32| {
                    for _ in 0..=copies {
                        if tx.send(frame.clone()).is_err() {
                            return false;
                        }
                    }
                    true
                };
                let build_records = |minute: u64, local: &mut AgentStats| {
                    let mut records = Vec::new();
                    for server_payload in &data.servers {
                        for (key, series) in server_payload {
                            if let Some(mut value) = series.at(minute) {
                                if let Some(factor) =
                                    schedule.glitch(shard_idx, minute, records.len())
                                {
                                    value *= factor;
                                    local.glitched += 1;
                                }
                                records.push(WireRecord { key: *key, value });
                            }
                        }
                    }
                    records
                };
                for minute_idx in cursor..duration {
                    let minute = start + minute_idx as u64;
                    // Release previously delayed frames whose time has come
                    // (before this minute's frame, preserving the reorder
                    // horizon: a frame for m arrives by agent minute
                    // m + max_delay). Delayed frames were already accepted
                    // by the transport before any partition began, so they
                    // deliver even while the shard's uplink is dark.
                    held.sort_by_key(|(release, _)| *release);
                    while held.first().is_some_and(|(release, _)| *release <= minute) {
                        let (_, frame) = held.remove(0);
                        if !send(frame, 0) {
                            return local;
                        }
                    }
                    if let Some(window) = schedule.partition_at(shard_idx, minute) {
                        // Dark minute: the sensor still reads (glitches
                        // apply) but nothing enters the transport, so the
                        // per-frame fault channels never roll for this
                        // frame. The frame keeps its original-minute stamp
                        // — that stamp is what later makes it a backfill
                        // candidate rather than a live measurement.
                        match window.heal {
                            HealMode::SilentDrop => local.partition_lost += 1,
                            heal => {
                                let records = build_records(minute, &mut local);
                                backlog.push(encode_frame(minute, shard_idx as u32, &records));
                                backlog_heal = heal;
                                if backlog.len() > heal.queue_bound() {
                                    // Bounded agent-side queue: oldest out.
                                    backlog.remove(0);
                                    local.partition_lost += 1;
                                }
                            }
                        }
                        continue;
                    }
                    // Link is up: drain queued dark-span frames per the heal
                    // mode, oldest first, ahead of this minute's live frame.
                    if !backlog.is_empty() {
                        let burst = match backlog_heal {
                            HealMode::SilentDrop => 0,
                            HealMode::BufferedBurst { .. } => backlog.len(),
                            HealMode::StaggeredCatchUp { per_minute, .. } => {
                                per_minute.min(backlog.len())
                            }
                        };
                        for frame in backlog.drain(..burst) {
                            // Queued frames skip the per-frame fault
                            // channels: they were never in flight during
                            // the window and the uplink is live now.
                            if !send(frame, 0) {
                                return local;
                            }
                        }
                    }
                    let fate = schedule.frame_fate(shard_idx, minute);
                    if fate.dropped {
                        local.dropped += 1;
                        continue; // frame lost in transit
                    }
                    let records = build_records(minute, &mut local);
                    // One frame per shard per minute (empty shards included,
                    // so the collector's completeness count works).
                    let mut frame = encode_frame(minute, shard_idx as u32, &records);
                    if fate.truncate_frac.is_some() || fate.corrupt.is_some() {
                        frame = Bytes::from(schedule.mangle(&fate, &frame));
                    }
                    if fate.delay_minutes > 0 {
                        local.delayed += 1;
                        held.push((minute + fate.delay_minutes, frame));
                        continue;
                    }
                    if !send(frame, fate.duplicates) {
                        return local;
                    }
                }
                // Timeline over: flush anything still in flight, in release
                // order.
                held.sort_by_key(|(release, _)| *release);
                for (_, frame) in held {
                    if !send(frame, 0) {
                        return local;
                    }
                }
                // A shard still dark at the cutoff loses its queue (the
                // window never healed inside the replayed span); otherwise
                // the link is up and the leftover backlog flushes.
                let last_minute = start + duration.saturating_sub(1) as u64;
                if duration > 0 && schedule.is_partitioned(shard_idx, last_minute) {
                    local.partition_lost += backlog.len();
                    backlog.clear();
                }
                for frame in backlog {
                    if !send(frame, 0) {
                        return local;
                    }
                }
                local
            }));
        }
        drop(tx);

        // Drive the collector: classify (pure), then the WAL seam, then
        // commit, then the checkpoint seam. An abort simulates the
        // collector dying here — stop consuming, drop the channel so
        // blocked agents unwind, and skip the end-of-stream flush exactly
        // as a kill would. The classified-but-uncommitted frame is lost
        // with the process; its WAL append (torn or not) is what recovery
        // gets to see.
        let mut aborted = false;
        while let Ok(frame) = rx.recv() {
            let ingest = collector.classify(&frame);
            let accepted = ingest.accepted();
            if accepted && hooks.on_accepted_frame(&frame).is_err() {
                aborted = true;
                break;
            }
            collector.commit(ingest);
            if accepted && hooks.after_commit(&collector).is_err() {
                aborted = true;
                break;
            }
        }
        drop(rx);
        for handle in handles {
            // A crashed agent shard must not take the collector down with
            // it: the frames it sent before dying were already ingested,
            // only its local fault counters are lost. Count the crash so
            // operators see the degradation instead of a panic.
            match handle.join() {
                Ok(local) => {
                    agent_totals.dropped += local.dropped;
                    agent_totals.delayed += local.delayed;
                    agent_totals.glitched += local.glitched;
                    agent_totals.partition_lost += local.partition_lost;
                }
                Err(_) => crashed_agents += 1,
            }
        }
        aborted
    });

    if !aborted {
        // Every agent finished and every frame was consumed: give the WAL
        // its end-of-stream marker, then flush. A crash inside the marker
        // write leaves a stream that recovery resumes (and fully
        // dup-suppresses) rather than finishes — convergent either way.
        if hooks.on_end_of_stream(&collector).is_err() {
            aborted = true;
        } else {
            collector.finish();
        }
    }

    let (_, mut stats) = collector.into_parts();
    stats.minutes = duration;
    stats.dropped_frames = agent_totals.dropped;
    stats.delayed_frames = agent_totals.delayed;
    stats.glitched_records = agent_totals.glitched;
    stats.partition_lost_frames = agent_totals.partition_lost;
    stats.crashed_agents = crashed_agents;

    // Record the replay span and merge this thread's span buffer now, so a
    // snapshot taken right after `replay` returns already contains it.
    drop(replay_span);
    funnel_obs::flush_thread();
    Ok(ReplayOutcome { stats, aborted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::{ChangeEffect, EffectScope};
    use crate::world::{SimConfig, WorldBuilder};
    use funnel_topology::change::ChangeKind;

    fn test_world() -> World {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 11,
            start: 0,
            duration: 120,
        });
        let svc = b.add_service("prod.web", 3).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            KpiKind::PageViewCount,
            EffectScope::TreatedInstances,
            -400.0,
        );
        b.deploy_change(ChangeKind::Upgrade, svc, 1, 60, effect, "pvc drop")
            .unwrap();
        b.build()
    }

    #[test]
    fn replay_matches_direct_generation() {
        let world = test_world();
        let store = MetricStore::new();
        let stats = replay(&world, &store, 2).unwrap();
        assert_eq!(stats.minutes, 120);
        assert!(stats.frames >= 240, "frames {}", stats.frames);
        assert!(stats.records > 0);
        assert!(stats.aggregates > 0);
        assert_eq!(stats.quarantined_frames, 0);
        assert_eq!(stats.duplicate_frames, 0);

        // Every key the world defines must be in the store, equal to the
        // directly-generated series.
        for key in world.all_keys() {
            let direct = world.series(&key).unwrap();
            let stored = store.get(&key).unwrap_or_else(|| panic!("{key:?} missing"));
            assert_eq!(stored.len(), direct.len(), "{key:?} length");
            for (a, b) in stored.values().iter().zip(direct.values()) {
                assert!((a - b).abs() < 1e-9, "{key:?}: {a} vs {b}");
            }
            // A clean replay measures every minute.
            assert_eq!(store.coverage(&key, 0, 120), 1.0, "{key:?} coverage");
        }
    }

    #[test]
    fn single_shard_replay_works() {
        let world = test_world();
        let store = MetricStore::new();
        let stats = replay(&world, &store, 1).unwrap();
        assert_eq!(stats.frames, 120);
    }

    #[test]
    fn lossy_agents_do_not_stall_and_store_self_heals() {
        let world = test_world();
        let store = MetricStore::new();
        let faults = FaultPlan {
            drop_frame_prob: 0.1,
            seed: 99,
            ..FaultPlan::none()
        };
        let stats = replay_with_faults(&world, &store, 3, faults).unwrap();
        // ~10 % of frames lost.
        assert!(stats.frames < 3 * 120, "no frames were dropped");
        assert!(stats.frames > 3 * 120 * 7 / 10, "too many frames dropped");
        assert_eq!(stats.frames + stats.dropped_frames, 3 * 120);
        // Every key still holds a full-length series: the store fills the
        // gaps forward, so downstream windows never see holes.
        for key in world.all_keys() {
            let stored = store.get(&key).unwrap_or_else(|| panic!("{key:?} missing"));
            let direct = world.series(&key).unwrap();
            // The tail can be short when the final minutes' frames dropped.
            assert!(
                stored.len() + 4 >= direct.len(),
                "{key:?}: stored {} vs {}",
                stored.len(),
                direct.len()
            );
            assert!(stored.values().iter().all(|v| v.is_finite()));
            // ... but the coverage mask remembers what was really measured.
            let coverage = store.coverage(&key, 0, 120);
            assert!(coverage < 1.0, "{key:?}: loss must show in the mask");
            assert!(coverage > 0.5, "{key:?}: coverage {coverage}");
        }
    }

    #[test]
    fn faulted_replay_is_deterministic_and_measured_minutes_are_exact() {
        let world = test_world();
        let plan = FaultPlan {
            seed: 42,
            drop_frame_prob: 0.15,
            delay_prob: 0.2,
            max_delay_minutes: 3,
            duplicate_prob: 0.2,
            ..FaultPlan::none()
        };

        let store_a = MetricStore::new();
        let stats_a = replay_with_faults(&world, &store_a, 3, plan.clone()).unwrap();
        let store_b = MetricStore::new();
        let stats_b = replay_with_faults(&world, &store_b, 3, plan.clone()).unwrap();

        // Same seed + plan ⇒ identical stats and bit-identical series.
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.delayed_frames > 0, "delay channel never fired");
        assert!(
            stats_a.duplicate_frames > 0,
            "duplicate channel never fired"
        );
        for key in world.all_keys() {
            assert_eq!(store_a.get(&key), store_b.get(&key), "{key:?} diverged");
            assert_eq!(
                store_a.mask(&key),
                store_b.mask(&key),
                "{key:?} mask diverged"
            );
        }

        // Every minute the mask says was measured carries the true value:
        // duplicates were not double-counted and reordering did not
        // misattribute minutes. (Service aggregates included — sorted-sum
        // keeps them exact.)
        for key in world.all_keys() {
            let direct = world.series(&key).unwrap();
            let stored = store_a.get(&key).unwrap();
            let mask = store_a.mask(&key).unwrap();
            for minute in 0..120u64 {
                if !mask.is_present(minute) {
                    continue;
                }
                let (Some(got), Some(want)) = (stored.at(minute), direct.at(minute)) else {
                    panic!("{key:?}@{minute} missing despite mask");
                };
                assert!(
                    (got - want).abs() < 1e-9,
                    "{key:?}@{minute}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn disabled_faults_match_clean_replay_exactly() {
        let world = test_world();
        let clean = MetricStore::new();
        let clean_stats = replay(&world, &clean, 2).unwrap();
        let faulted = MetricStore::new();
        let none_stats = replay_with_faults(&world, &faulted, 2, FaultPlan::none()).unwrap();
        assert_eq!(clean_stats, none_stats);
        for key in world.all_keys() {
            assert_eq!(clean.get(&key), faulted.get(&key), "{key:?} diverged");
        }
    }

    #[test]
    fn corruption_is_quarantined_never_panics() {
        let world = test_world();
        let store = MetricStore::new();
        let plan = FaultPlan {
            seed: 7,
            truncate_prob: 0.15,
            corrupt_prob: 0.15,
            ..FaultPlan::none()
        };
        let stats = replay_with_faults(&world, &store, 3, plan).unwrap();
        assert!(
            stats.quarantined_frames > 0,
            "corruption channel never fired"
        );
        // Whatever survived decoding is finite (non-finite corrupted values
        // are rejected at the collector).
        for key in world.all_keys() {
            if let Some(series) = store.get(&key) {
                assert!(series.values().iter().all(|v| v.is_finite()), "{key:?}");
            }
        }
    }

    /// The durable state a checkpoint would capture: collector state plus
    /// store contents.
    type CapturedState = (
        CollectorState,
        Vec<(KpiKey, TimeSeries, funnel_timeseries::mask::CoverageMask)>,
    );

    /// Hooks that "crash" the collector after a fixed number of accepted
    /// frames, capturing the durable state (collector state + store
    /// contents) exactly as a checkpoint taken at that instant would.
    struct CrashingHooks<'a> {
        store: &'a MetricStore,
        kill_after: usize,
        accepted: usize,
        captured: Option<CapturedState>,
    }

    impl IngestHooks for CrashingHooks<'_> {
        fn after_commit(
            &mut self,
            collector: &Collector<'_>,
        ) -> Result<(), crate::collector::IngestAbort> {
            self.accepted += 1;
            if self.accepted == self.kill_after {
                self.captured = Some((collector.state().clone(), self.store.export_entries()));
                return Err(crate::collector::IngestAbort);
            }
            Ok(())
        }
    }

    fn assert_resume_converges(plan: FaultPlan, kill_after: usize) {
        let world = test_world();

        // Golden: the uninterrupted run.
        let golden = MetricStore::new();
        replay_with_faults(&world, &golden, 3, plan.clone()).unwrap();

        // Crashed: same run killed after `kill_after` accepted frames.
        let crashed = MetricStore::new();
        let mut hooks = CrashingHooks {
            store: &crashed,
            kill_after,
            accepted: 0,
            captured: None,
        };
        let out = replay_durable(
            &world,
            &crashed,
            3,
            plan.clone(),
            usize::MAX,
            None,
            &mut hooks,
        )
        .unwrap();
        assert!(out.aborted, "kill point never reached");
        let (state, entries) = hooks.captured.expect("capture at kill point");

        // Recovered: a fresh store rebuilt from the captured durable state,
        // resumed through the same fault plan. The crashed process's
        // in-memory store is dead — recovery only gets the checkpoint.
        let recovered = MetricStore::new();
        recovered.restore_entries(entries);
        let out = replay_durable(
            &world,
            &recovered,
            3,
            plan,
            usize::MAX,
            Some(state),
            &mut NoHooks,
        )
        .unwrap();
        assert!(!out.aborted);

        for key in world.all_keys() {
            assert_eq!(golden.get(&key), recovered.get(&key), "{key:?} diverged");
            assert_eq!(
                golden.mask(&key),
                recovered.mask(&key),
                "{key:?} mask diverged"
            );
        }
    }

    #[test]
    fn durable_resume_converges_with_fast_forward_cursor() {
        // No reordering, no partitions: agents fast-forward past the
        // restored watermarks instead of resending their whole timeline.
        let plan = FaultPlan {
            seed: 21,
            drop_frame_prob: 0.1,
            duplicate_prob: 0.1,
            ..FaultPlan::none()
        };
        for kill_after in [1, 40, 170] {
            assert_resume_converges(plan.clone(), kill_after);
        }
    }

    #[test]
    fn durable_resume_converges_under_reordering_via_dedup() {
        // Delays force the full-resend path: the restored duplicate
        // suppression must absorb the already-ingested prefix.
        let plan = FaultPlan {
            seed: 33,
            drop_frame_prob: 0.1,
            delay_prob: 0.2,
            max_delay_minutes: 3,
            duplicate_prob: 0.15,
            ..FaultPlan::none()
        };
        for kill_after in [7, 120] {
            assert_resume_converges(plan.clone(), kill_after);
        }
    }

    #[test]
    fn glitches_scale_measured_values() {
        let world = test_world();
        let store = MetricStore::new();
        let plan = FaultPlan {
            seed: 5,
            glitch_prob: 0.05,
            glitch_factor: 100.0,
            ..FaultPlan::none()
        };
        let stats = replay_with_faults(&world, &store, 2, plan).unwrap();
        assert!(stats.glitched_records > 0, "glitch channel never fired");
        // No loss channels: every frame still arrives.
        assert_eq!(stats.frames, 2 * 120);
    }
}
