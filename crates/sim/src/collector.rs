//! The collector as a resumable state machine.
//!
//! [`crate::agent::replay`] originally held the collector inline in its
//! receive loop. Crash-safe ingestion needs the collector's working state to
//! be a first-class value — something a checkpoint can serialize and a
//! recovery can resume from — so the loop's state and transition logic live
//! here as [`Collector`] / [`CollectorState`], and the replay loop drives
//! them through a narrow three-step protocol:
//!
//! 1. [`Collector::classify`] — pure: decode a raw frame and decide its
//!    fate ([`Ingest`]) without mutating anything.
//! 2. [`IngestHooks::on_accepted_frame`] — the durability seam: a WAL can
//!    append the raw bytes *before* the store changes, so a crash between
//!    append and commit replays the frame instead of losing it.
//! 3. [`Collector::commit`] — apply the classified frame: store appends,
//!    watermark advance, minute finalization.
//!
//! The split preserves the exact semantics of the original inline loop
//! (same counters, same ordering, same byte-identical aggregates); the
//! existing replay entry points drive it with [`NoHooks`] and are
//! behaviourally unchanged.

use crate::agent::ReplayStats;
use crate::kpi::{Aggregation, KpiKey, KpiKind};
use crate::store::{KeyId, MetricStore, Slab};
use crate::wire::{decode_frame, WireFrame, WireRecord};
use crate::world::World;
use bytes::Bytes;
use funnel_timeseries::series::MinuteBin;
use funnel_topology::impact::Entity;
use funnel_topology::model::ServiceId;
use std::collections::{BTreeMap, BTreeSet};

/// Largest record magnitude the collector accepts. Anything beyond this is
/// treated as corruption, not measurement — see the rejection site in
/// [`Collector::commit`] for the rationale.
pub const MAX_PLAUSIBLE_VALUE: f64 = 1e12;

/// Largest single-minute *drop* the collector accepts for one key. A
/// monotonic counter that resets (process restart, u32 wraparound) reported
/// through a raw-gauge channel shows up as a huge negative delta; no KPI
/// this pipeline measures moves anywhere near this much in one minute, so
/// anything past it is a reset artifact, not a measurement.
pub const MAX_COUNTER_RESET_DROP: f64 = 1e9;

/// How far ahead of its own agent's watermark a frame's minute stamp may
/// run before the collector refuses to believe the clock. The reorder
/// horizon explains *late* frames; a frame a week in the *future* can only
/// be a skewed or corrupted clock, and ingesting it would poison minute
/// finalization for every agent.
pub const MAX_CLOCK_SKEW_MINUTES: u64 = 10_080;

/// A service aggregation cell: one KPI kind of one service.
pub type CellKey = (ServiceId, KpiKind);

/// Where a dense [`MinuteAccs`] holds `cell`: services in id order, each
/// with a cell per kind in tag order, so ascending indices are ascending
/// keys.
fn cell_index((service, kind): CellKey) -> usize {
    service.0 as usize * KpiKind::COUNT + usize::from(kind.tag())
}

/// One cell of a [`MinuteAccs`].
#[derive(Clone)]
struct Cell {
    key: CellKey,
    entries: Vec<(u32, f64)>,
}

/// Per (service, kind) cell: the (instance id, value) pairs seen so far for
/// one minute, in arrival order. Summation happens in instance-id order at
/// finalize time (`aggregate`), so the aggregate is bit-identical no matter
/// how frames interleave.
///
/// The cells lie in ascending key order, which fixes the order in which a
/// finalized minute's aggregates are written and checkpoint bytes are laid
/// out. Only cells with entries count: [`MinuteAccs::iter`], `len`,
/// equality and `Debug` see a table as the map of its non-empty cells. The
/// collector builds a live minute's table *dense*, every cell of its world
/// at its `cell_index`, so that a record finds its cell by index; and it
/// reuses a finalized minute's table, cells emptied and their vectors kept,
/// for a later minute. A table read from a checkpoint holds only its
/// non-empty cells, found by binary search.
#[derive(Clone, Default)]
pub struct MinuteAccs {
    cells: Vec<Cell>,
}

impl MinuteAccs {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every cell of `services` services, each empty, at its [`cell_index`].
    fn dense(services: usize) -> Self {
        let kinds = (0..KpiKind::COUNT).filter_map(|tag| KpiKind::from_tag(tag as u8));
        let cells = (0..services)
            .flat_map(|s| kinds.clone().map(move |kind| (ServiceId(s as u32), kind)))
            .map(|key| Cell {
                key,
                entries: Vec::new(),
            })
            .collect();
        Self { cells }
    }

    /// The position of `key`'s cell, inserted empty if the table has none:
    /// its dense index when the cell lies there, else a binary search.
    fn position(&mut self, key: CellKey) -> usize {
        let dense = cell_index(key);
        if self.cells.get(dense).is_some_and(|cell| cell.key == key) {
            return dense;
        }
        self.cells
            .binary_search_by_key(&key, |cell| cell.key)
            .unwrap_or_else(|at| {
                self.cells.insert(
                    at,
                    Cell {
                        key,
                        entries: Vec::new(),
                    },
                );
                at
            })
    }

    /// Appends one instance's value to `key`'s cell.
    fn push(&mut self, key: CellKey, entry: (u32, f64)) {
        let at = self.position(key);
        if let Some(cell) = self.cells.get_mut(at) {
            cell.entries.push(entry);
        }
    }

    /// [`MinuteAccs::push`] unless `key`'s cell holds the instance already.
    fn push_once(&mut self, key: CellKey, entry: (u32, f64)) {
        let at = self.position(key);
        if let Some(cell) = self.cells.get_mut(at) {
            if cell.entries.iter().all(|&(i, _)| i != entry.0) {
                cell.entries.push(entry);
            }
        }
    }

    /// Moves every entry of `entries` to the end of `key`'s cell.
    fn append(&mut self, key: CellKey, entries: &mut Vec<(u32, f64)>) {
        let at = self.position(key);
        if let Some(cell) = self.cells.get_mut(at) {
            cell.entries.append(entries);
        }
    }

    /// Sets `key`'s cell to `entries`, whatever it held.
    pub fn insert(&mut self, key: CellKey, entries: Vec<(u32, f64)>) {
        let at = self.position(key);
        if let Some(cell) = self.cells.get_mut(at) {
            cell.entries = entries;
        }
    }

    /// The non-empty cells in ascending key order, each with its entries
    /// in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKey, &[(u32, f64)])> + '_ {
        self.cells
            .iter()
            .filter(|cell| !cell.entries.is_empty())
            .map(|cell| (cell.key, cell.entries.as_slice()))
    }

    /// How many cells hold entries.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no cell holds an entry.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl PartialEq for MinuteAccs {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for MinuteAccs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The collector's complete mutable working state — everything a resumed
/// collector needs besides the [`MetricStore`] contents themselves. Every
/// container is ordered (`BTreeMap`/`BTreeSet`), so serializing the state
/// is deterministic by construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollectorState {
    /// Per-agent watermark: frames within one agent arrive in send order,
    /// so once agent `a`'s watermark passes minute `m` + reorder horizon
    /// without a frame for `m`, that frame is lost — scheduling skew
    /// between agents can never be mistaken for loss, and a delayed frame
    /// is never declared lost inside the horizon.
    pub watermarks: Vec<Option<u64>>,
    /// Per-agent minutes already accepted, for duplicate suppression.
    /// Ordered sets so checkpoint serialization is deterministic.
    pub seen: Vec<BTreeSet<u64>>,
    /// Minutes awaiting finalization: how many agents reported the minute,
    /// plus the per-service aggregation cells collected so far.
    pub pending: BTreeMap<u64, (usize, MinuteAccs)>,
    /// Late frames from healed partitions, staged keyed by (agent, minute):
    /// a BTreeMap so the end-of-stream flush walks them in deterministic
    /// (agent, minute) order no matter how the agent threads interleaved.
    pub backfill_stage: BTreeMap<(u32, u64), Vec<WireRecord>>,
    /// Aggregation cells of finalized-but-incomplete minutes, kept (not
    /// discarded) so a healed span's backfilled cells can complete them.
    pub partial: BTreeMap<u64, MinuteAccs>,
}

impl CollectorState {
    /// Fresh state for a collector fed by `shards` agents.
    pub fn new(shards: usize) -> Self {
        Self {
            watermarks: vec![None; shards],
            seen: vec![BTreeSet::new(); shards],
            pending: BTreeMap::new(),
            backfill_stage: BTreeMap::new(),
            partial: BTreeMap::new(),
        }
    }
}

/// The classified fate of one raw frame, decided by [`Collector::classify`]
/// without mutating anything. `Live` and `Backfill` frames are *accepted* —
/// they change durable state and therefore pass through
/// [`IngestHooks::on_accepted_frame`] before [`Collector::commit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Ingest {
    /// A current frame: appended to the store, advances its agent's
    /// watermark, participates in minute finalization.
    Live(WireFrame),
    /// A healed partition's late frame (its minute lies behind the sending
    /// agent's own watermark by more than the reorder horizon): staged for
    /// the deterministic end-of-stream backfill flush.
    Backfill(WireFrame),
    /// A re-delivery of a minute this agent already sent: suppressed.
    /// Carries the re-delivered minute.
    Duplicate(MinuteBin),
    /// Undecodable bytes or a header claiming an unknown agent: counted and
    /// discarded, never a panic. Carries the claimed frame minute when the
    /// frame decoded (unknown agent); `None` when it did not (torn, or a
    /// checksum mismatch), so its header is not trusted either, and the
    /// quarantine shows up only in the aggregate counter, never on the
    /// timeline.
    Quarantined(Option<MinuteBin>),
    /// A frame whose minute stamp runs further ahead of its own agent's
    /// watermark than [`MAX_CLOCK_SKEW_MINUTES`] plus the reorder horizon:
    /// a skewed or corrupted clock, quarantined with its own counter so a
    /// fleet-wide skew incident is visible at a glance. Carries the skewed
    /// minute stamp itself.
    ClockSkewed(MinuteBin),
}

impl Ingest {
    /// Whether this frame changes durable state (and must therefore be
    /// written to the WAL before [`Collector::commit`] applies it).
    pub fn accepted(&self) -> bool {
        matches!(self, Ingest::Live(_) | Ingest::Backfill(_))
    }
}

/// Returned by an [`IngestHooks`] method to abort the replay, simulating a
/// collector crash (or surfacing a real durability failure). The replay
/// stops without flushing end-of-stream state, exactly like a kill would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAbort;

/// Durability seams in the ingest path. The default implementation of every
/// hook is a no-op, so plain replays pay nothing; `funnel-resilience`
/// implements them to write a WAL and periodic checkpoints — and its chaos
/// harness implements them to tear a write and abort mid-stream.
pub trait IngestHooks {
    /// Called with the raw bytes of every *accepted* frame (see
    /// [`Ingest::accepted`]) before the commit mutates any state. Returning
    /// an error aborts the replay as if the collector died here: the frame
    /// is not committed.
    ///
    /// # Errors
    ///
    /// [`IngestAbort`] to simulate (or surface) a crash at this seam.
    fn on_accepted_frame(&mut self, raw: &Bytes) -> Result<(), IngestAbort> {
        let _ = raw;
        Ok(())
    }

    /// Called after each accepted frame's commit, with the collector's
    /// post-commit state — the checkpoint seam. Returning an error aborts
    /// the replay as if the collector died mid-checkpoint.
    ///
    /// # Errors
    ///
    /// [`IngestAbort`] to simulate (or surface) a crash at this seam.
    fn after_commit(&mut self, collector: &Collector<'_>) -> Result<(), IngestAbort> {
        let _ = collector;
        Ok(())
    }

    /// Called once when every agent has finished sending, *before* the
    /// collector's end-of-stream flush — where a WAL writes its
    /// end-of-stream marker so recovery knows the stream completed.
    ///
    /// # Errors
    ///
    /// [`IngestAbort`] to simulate (or surface) a crash at this seam.
    fn on_end_of_stream(&mut self, collector: &Collector<'_>) -> Result<(), IngestAbort> {
        let _ = collector;
        Ok(())
    }
}

/// The no-op hooks plain (non-durable) replays run with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl IngestHooks for NoHooks {}

/// A service's value for one minute from its instances' cells: summed in
/// instance-id order, so that the bits do not depend on how frames
/// interleaved, and divided by the cell count for mean-aggregated kinds.
fn aggregate(kind: KpiKind, cells: &mut [(u32, f64)]) -> f64 {
    cells.sort_by_key(|(id, _)| *id);
    let sum: f64 = cells.iter().map(|(_, v)| v).sum();
    match kind.aggregation() {
        Aggregation::Sum => sum,
        Aggregation::Mean => sum / cells.len() as f64,
    }
}

/// The collector state machine: owns a [`CollectorState`], borrows the
/// [`MetricStore`] it appends into, and carries the world-derived lookup
/// tables (instance → service, service sizes) aggregation needs.
pub struct Collector<'a> {
    store: &'a MetricStore,
    shards: usize,
    horizon: u64,
    /// Each instance's service, by instance id (`None`: no such instance).
    instance_service: Vec<Option<ServiceId>>,
    /// How many instances each service has, by service id.
    service_sizes: Vec<usize>,
    state: CollectorState,
    stats: ReplayStats,
    /// Last live value accepted per key, indexed by the store's [`KeyId`]
    /// (NaN: none yet), for the counter-reset gate. Deliberately *not* part
    /// of [`CollectorState`]: it is a plausibility heuristic, not durable
    /// ingest state — a recovery re-arms it from the replayed WAL tail, and
    /// checkpoints stay format-stable.
    last_values: Vec<f64>,
    /// Per agent, how its previous frame resolved, by record position.
    /// Agents send the same keys in the same order every minute, so the
    /// entry at a record's position is a guess at its id that one key
    /// compare confirms; see [`Collector::resolve`].
    layouts: Vec<Vec<Resolved>>,
    /// The store id of each cell's service aggregate, by [`cell_index`];
    /// `None` until the cell first aggregates. Ids name one key for the
    /// life of the store, so a cached one needs no check.
    aggregate_ids: Vec<Option<KeyId>>,
    /// Dense tables of finalized minutes, emptied, for the next pending
    /// minutes to take.
    spare: Vec<MinuteAccs>,
    /// A pending minute and how many agents, in agent order, are known to
    /// have passed its reorder horizon. Watermarks only rise, so the check
    /// resumes there; see [`Collector::all_past`].
    past: (MinuteBin, usize),
}

/// One record's key as the collector last resolved it.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    key: KpiKey,
    id: KeyId,
    /// The service cell an instance key aggregates into.
    cell: Option<CellKey>,
}

impl<'a> Collector<'a> {
    /// A fresh collector for `world`'s topology, fed by `shards` agents
    /// whose transport reorders by at most `horizon` minutes.
    pub fn for_world(world: &World, store: &'a MetricStore, shards: usize, horizon: u64) -> Self {
        Self::resume(world, store, shards, horizon, CollectorState::new(shards))
    }

    /// A collector resuming from previously captured state (a checkpoint's
    /// collector half). `state` must have been captured from a collector
    /// with the same `shards`; per-shard vectors are resized defensively so
    /// a mismatched checkpoint degrades to re-ingestion, never a panic.
    pub fn resume(
        world: &World,
        store: &'a MetricStore,
        shards: usize,
        horizon: u64,
        mut state: CollectorState,
    ) -> Self {
        let shards = shards.max(1);
        state.watermarks.resize(shards, None);
        state.seen.resize(shards, BTreeSet::new());
        let topology = world.topology();
        let mut instance_service = Vec::new();
        let mut service_sizes = vec![0; topology.services().count()];
        for inst in topology.instances() {
            let at = inst.id.0 as usize;
            if instance_service.len() <= at {
                instance_service.resize(at + 1, None);
            }
            if let Some(service) = instance_service.get_mut(at) {
                *service = Some(inst.service);
            }
            if let Some(size) = service_sizes.get_mut(inst.service.0 as usize) {
                *size += 1;
            }
        }
        let cells = service_sizes.len() * KpiKind::COUNT;
        Self {
            store,
            shards,
            horizon,
            instance_service,
            service_sizes,
            state,
            stats: ReplayStats::default(),
            last_values: Vec::new(),
            layouts: vec![Vec::new(); shards],
            aggregate_ids: vec![None; cells],
            spare: Vec::new(),
            past: (0, 0),
        }
    }

    /// Decides a raw frame's fate without mutating anything. Pure with
    /// respect to the collector: calling it twice on the same frame gives
    /// the same answer, and discarding the result leaves no trace.
    pub fn classify(&self, raw: &Bytes) -> Ingest {
        let decoded = match decode_frame(raw.clone()) {
            Ok(d) => d,
            // Undecodable bytes: quarantine, never panic. The frame is
            // gone; the watermark mechanism treats it as lost.
            Err(_) => return Ingest::Quarantined(None),
        };
        let agent = decoded.agent_id as usize;
        if agent >= self.shards {
            // Header claims an agent we never started: quarantine.
            return Ingest::Quarantined(Some(decoded.minute));
        }
        if self
            .state
            .seen
            .get(agent)
            .is_some_and(|s| s.contains(&decoded.minute))
        {
            return Ingest::Duplicate(decoded.minute);
        }
        // A minute stamp running implausibly far *ahead* of the agent's own
        // watermark is a skewed clock. The check is per-agent (like the
        // backfill routing below), so cross-shard scheduling skew can never
        // trip it, and an agent's very first frame is always believed.
        if self
            .state
            .watermarks
            .get(agent)
            .and_then(|w| *w)
            .is_some_and(|w| decoded.minute > w + self.horizon + MAX_CLOCK_SKEW_MINUTES)
        {
            return Ingest::ClockSkewed(decoded.minute);
        }
        // A frame whose original-minute stamp lies behind this agent's own
        // watermark by more than the reorder horizon cannot be a delayed
        // live frame — it is a healed partition's backlog. The routing test
        // is per-agent (frames within one agent arrive in send order), so
        // it is independent of cross-shard thread interleaving.
        if self
            .state
            .watermarks
            .get(agent)
            .and_then(|w| *w)
            .is_some_and(|w| decoded.minute + self.horizon < w)
        {
            return Ingest::Backfill(decoded);
        }
        Ingest::Live(decoded)
    }

    /// Applies a classified frame: counters for rejected fates, store
    /// appends + watermark advance + minute finalization for live frames,
    /// staging for backfill frames.
    pub fn commit(&mut self, ingest: Ingest) {
        match ingest {
            Ingest::Quarantined(minute) => {
                self.stats.quarantined_frames += 1;
                // The frame's claimed minute attributes the quarantine to a
                // timeline window. A frame that failed to decode has no
                // trustworthy minute and is not written: `quarantined_frames`
                // above already holds it.
                if let Some(m) = minute {
                    funnel_obs::counter_add(funnel_obs::names::FRAMES_QUARANTINED, m, 1);
                }
            }
            Ingest::ClockSkewed(minute) => {
                self.stats.quarantined_frames += 1;
                self.stats.clock_skewed_frames += 1;
                funnel_obs::counter_add(funnel_obs::names::FRAMES_QUARANTINED, minute, 1);
            }
            Ingest::Duplicate(_) => self.stats.duplicate_frames += 1,
            Ingest::Backfill(frame) => {
                if let Some(seen) = self.state.seen.get_mut(frame.agent_id as usize) {
                    seen.insert(frame.minute);
                }
                self.stats.frames += 1;
                funnel_obs::counter_add(funnel_obs::names::FRAMES_INGESTED, frame.minute, 1);
                self.stats.backfilled_frames += 1;
                funnel_obs::counter_add(funnel_obs::names::FRAMES_BACKFILLED, frame.minute, 1);
                self.state
                    .backfill_stage
                    .insert((frame.agent_id, frame.minute), frame.records);
            }
            Ingest::Live(frame) => {
                // One write lock for the frame: its records, then whatever
                // minutes it completes.
                let store = self.store;
                store.write_batch(|w| {
                    self.commit_live(w, &frame);
                    self.finalize_ready(w);
                });
            }
        }
    }

    /// The id and aggregation target of the record at `pos` of a frame:
    /// the layout's entry at that position when it names this very key —
    /// checked against the record's decoded key *and* the key the store
    /// keeps in the slot, so a cached id is never trusted on its own — and
    /// otherwise (reordered, missing, extra or foreign keys) a lookup in
    /// the store's index, remembered at `pos` for the agent's next frame.
    fn resolve(
        w: &mut Slab,
        layout: &mut Vec<Resolved>,
        instance_service: &[Option<ServiceId>],
        pos: usize,
        key: KpiKey,
    ) -> Resolved {
        if let Some(guess) = layout.get(pos) {
            if guess.key == key && w.key_of(guess.id) == Some(key) {
                return *guess;
            }
        }
        let cell = match key.entity {
            Entity::Instance(i) => instance_service
                .get(i.0 as usize)
                .copied()
                .flatten()
                .map(|service| (service, key.kind)),
            _ => None,
        };
        let resolved = Resolved {
            key,
            id: w.id_of(key),
            cell,
        };
        match layout.get_mut(pos) {
            Some(entry) => *entry = resolved,
            None => layout.push(resolved),
        }
        resolved
    }

    /// A live frame's bookkeeping and records; minute finalization follows
    /// under the same lock.
    fn commit_live(&mut self, w: &mut Slab, frame: &WireFrame) {
        let agent = frame.agent_id as usize;
        if let Some(seen) = self.state.seen.get_mut(agent) {
            seen.insert(frame.minute);
        }
        self.stats.frames += 1;
        funnel_obs::counter_add(funnel_obs::names::FRAMES_INGESTED, frame.minute, 1);
        if let Some(wm) = self.state.watermarks.get_mut(agent) {
            *wm = Some(wm.map_or(frame.minute, |x| x.max(frame.minute)));
        }
        let services = self.service_sizes.len();
        let (frames, accs) = self.state.pending.entry(frame.minute).or_insert_with(|| {
            let reused = self.spare.pop();
            (0, reused.unwrap_or_else(|| MinuteAccs::dense(services)))
        });
        *frames += 1;
        // `classify` only lets known agents through; a frame committed
        // around it resolves every record through the index.
        let mut unknown_agent = Vec::new();
        let layout = self.layouts.get_mut(agent).unwrap_or(&mut unknown_agent);
        for (pos, rec) in frame.records.iter().enumerate() {
            // Resolved ahead of the gates so that positions stay aligned
            // with the agent's next frame whatever this record's value.
            let Resolved { id, cell, .. } =
                Self::resolve(w, layout, &self.instance_service, pos, rec.key);
            // Plausibility gate, not just finiteness: corrupted
            // bytes can decode to a perfectly valid f64 of magnitude
            // ~1e300, which would dominate every sum, mean, and DiD
            // estimate downstream. No KPI this pipeline measures
            // (counts, millisecond delays, utilization percentages)
            // comes within orders of magnitude of the bound, even
            // glitch-amplified.
            if !rec.value.is_finite() {
                // NaN/±Inf would propagate through every sum, mean,
                // and SST window it touches; own counter so a NaN
                // storm is distinguishable from byte corruption.
                self.stats.invalid_records += 1;
                self.stats.nonfinite_records += 1;
                continue;
            }
            if rec.value.abs() > MAX_PLAUSIBLE_VALUE {
                self.stats.invalid_records += 1;
                continue;
            }
            // Counter-reset gate: a one-minute drop beyond any
            // physically possible movement is a reset artifact.
            // Live path only — backfilled history arrives out of
            // order, so deltas there are meaningless.
            if self.last_values.len() <= id.as_index() {
                self.last_values.resize(w.interned(), f64::NAN);
            }
            // Every id the store hands out is below `interned()`; only the
            // refusal of an exhausted id space is not.
            let Some(last) = self.last_values.get_mut(id.as_index()) else {
                continue;
            };
            // No previous value is NaN, and NaN compares false.
            if rec.value - *last < -MAX_COUNTER_RESET_DROP {
                self.stats.invalid_records += 1;
                self.stats.counter_reset_records += 1;
                continue;
            }
            *last = rec.value;
            // A record behind its key's frontier over a forward fill (a
            // delayed frame inside the horizon) takes the late path, which
            // replaces the fill and settles the fills behind it; one whose
            // bin holds a measurement (a key the frame repeats) is refused
            // on either path, first write wins.
            let appended = w.append_id(id, frame.minute, rec.value);
            let measured = !appended && w.measured(id, frame.minute);
            let taken = appended || (!measured && w.backfill_id(id, frame.minute, rec.value));
            if taken {
                self.stats.records += 1;
            }
            // A cell counts each instance once. A refused record whose bin
            // held a measurement was counted with it. One the store could
            // not place (before its series' anchor) is a measurement still,
            // but enters only if its instance is not in the cell yet; a
            // record the store took opened its bin, so it cannot be.
            if let (Entity::Instance(i), Some(cell)) = (rec.key.entity, cell) {
                if taken {
                    accs.push(cell, (i.0, rec.value));
                } else if !measured {
                    accs.push_once(cell, (i.0, rec.value));
                }
            }
        }
        layout.truncate(frame.records.len());
    }

    /// [`Collector::classify`] + [`Collector::commit`] in one step — the
    /// shape recovery replay uses, where the durability seam is behind us.
    /// Returns whether the frame was accepted.
    pub fn ingest(&mut self, raw: &Bytes) -> bool {
        let ingest = self.classify(raw);
        let accepted = ingest.accepted();
        self.commit(ingest);
        accepted
    }

    /// Finalize a minute once every agent has either delivered it or
    /// demonstrably moved past its reorder horizon (its own watermark is
    /// beyond minute + horizon) — exact under any thread scheduling, robust
    /// to loss, and safe under delay-induced reordering.
    fn finalize_ready(&mut self, w: &mut Slab) {
        while let Some((&minute, &(frames, _))) = self.state.pending.first_key_value() {
            if frames < self.shards && !self.all_past(minute) {
                break;
            }
            if let Some((_, accs)) = self.state.pending.remove(&minute) {
                self.finalize_minute(w, minute, accs);
            }
        }
    }

    /// Whether every agent's watermark has reached `minute` + horizon.
    /// Agents known to have passed a later minute's bar have passed this
    /// one's too, and watermarks only rise, so the scan picks up at the
    /// first agent not yet known past; only a later head minute starts
    /// it over. Each head minute costs one pass over the agents in all,
    /// not one per frame.
    fn all_past(&mut self, minute: MinuteBin) -> bool {
        let (known_for, mut known) = self.past;
        if minute > known_for {
            known = 0;
        }
        let bar = minute + self.horizon;
        while self
            .state
            .watermarks
            .get(known)
            .is_some_and(|w| w.is_some_and(|x| x >= bar))
        {
            known += 1;
        }
        self.past = (minute, known);
        known >= self.state.watermarks.len()
    }

    /// How many instances `service` has (0: not one of this world's).
    fn service_size(&self, service: ServiceId) -> usize {
        self.service_sizes
            .get(service.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The store id of `cell`'s service aggregate, interned on first use.
    fn aggregate_id(&mut self, w: &mut Slab, (service, kind): CellKey) -> KeyId {
        let key = KpiKey::new(Entity::Service(service), kind);
        match self.aggregate_ids.get_mut(cell_index((service, kind))) {
            Some(Some(id)) => *id,
            Some(slot) => *slot.insert(w.id_of(key)),
            None => w.id_of(key),
        }
    }

    fn finalize_minute(&mut self, w: &mut Slab, minute: u64, mut accs: MinuteAccs) {
        for cell in &mut accs.cells {
            if cell.entries.is_empty() {
                continue;
            }
            // Only aggregate when every instance reported; keep partial
            // minutes around — a partition heal may still backfill the
            // missing cells.
            if cell.entries.len() != self.service_size(cell.key.0) {
                self.state
                    .partial
                    .entry(minute)
                    .or_default()
                    .append(cell.key, &mut cell.entries);
                continue;
            }
            let value = aggregate(cell.key.1, &mut cell.entries);
            cell.entries.clear();
            let id = self.aggregate_id(w, cell.key);
            w.append_id(id, minute, value);
            self.stats.aggregates += 1;
        }
        // Every cell is empty now: a dense table serves a later minute.
        if accs.cells.len() == self.aggregate_ids.len() {
            self.spare.push(accs);
        }
    }

    /// End-of-stream flush: finalize every still-pending minute, merge the
    /// staged backfill frames into historical bins in deterministic
    /// (agent, minute) order, and emit the service aggregates the backfill
    /// completed. Drains the state; a checkpoint taken afterwards records a
    /// finished stream.
    pub fn finish(&mut self) {
        let store = self.store;
        store.write_batch(|w| {
            for (minute, (_, accs)) in std::mem::take(&mut self.state.pending) {
                self.finalize_minute(w, minute, accs);
            }
        });
        // Backfill flush, one write batch: healed-span frames enter
        // historical bins in (agent, minute) order — deterministic
        // regardless of how agent threads interleaved during the replay.
        // Each record passes the same plausibility gate as live ingestion,
        // and the store's own duplicate suppression (first write wins per
        // real bin) guards against re-delivery races. In one batch each
        // key's forward fill is settled once, at the end, rather than after
        // every late minute: a D-minute healed gap costs D bins, not D²/2.
        store.write_batch(|w| {
            for ((agent, minute), records) in std::mem::take(&mut self.state.backfill_stage) {
                self.backfill_frame(w, agent as usize, minute, &records);
            }
            // Service aggregates the backfill completed, ascending minute
            // then (service, kind). Emitted through the backfill path too:
            // their minute is historical for the (forward-filled) aggregate
            // series.
            for (minute, mut accs) in std::mem::take(&mut self.state.partial) {
                for cell in &mut accs.cells {
                    if cell.entries.len() != self.service_size(cell.key.0)
                        || cell.entries.is_empty()
                    {
                        continue;
                    }
                    let value = aggregate(cell.key.1, &mut cell.entries);
                    let id = self.aggregate_id(w, cell.key);
                    if w.backfill_id(id, minute, value) {
                        self.stats.backfilled_aggregates += 1;
                    }
                }
            }
        });
    }

    /// One staged backfill frame into the store's historical bins and the
    /// partial aggregates it may complete.
    fn backfill_frame(&mut self, w: &mut Slab, agent: usize, minute: u64, records: &[WireRecord]) {
        let mut unknown_agent = Vec::new();
        let layout = self.layouts.get_mut(agent).unwrap_or(&mut unknown_agent);
        for (pos, rec) in records.iter().enumerate() {
            let Resolved { id, cell, .. } =
                Self::resolve(w, layout, &self.instance_service, pos, rec.key);
            if !rec.value.is_finite() || rec.value.abs() > MAX_PLAUSIBLE_VALUE {
                self.stats.invalid_records += 1;
                if !rec.value.is_finite() {
                    self.stats.nonfinite_records += 1;
                }
                continue;
            }
            let taken = w.backfill_id(id, minute, rec.value);
            if taken {
                self.stats.backfilled_records += 1;
            } else {
                self.stats.backfill_rejected_records += 1;
            }
            // The live rule: a measured bin was counted, and a delayed
            // live frame may have counted this instance already.
            if let (Entity::Instance(i), Some(cell)) = (rec.key.entity, cell) {
                if taken || !w.measured(id, minute) {
                    self.state
                        .partial
                        .entry(minute)
                        .or_default()
                        .push_once(cell, (i.0, rec.value));
                }
            }
        }
        layout.truncate(records.len());
    }

    /// The current working state — what a checkpoint serializes.
    pub fn state(&self) -> &CollectorState {
        &self.state
    }

    /// The metric store this collector writes into — checkpoint hooks
    /// snapshot its entries together with [`Collector::state`] so the two
    /// halves of a recovery point are captured at the same commit boundary.
    pub fn store(&self) -> &MetricStore {
        self.store
    }

    /// Collector-side counters accumulated since this collector was
    /// constructed (a resumed collector counts only its own run).
    pub fn stats(&self) -> &ReplayStats {
        &self.stats
    }

    /// Consumes the collector, yielding its state and counters.
    pub fn into_parts(self) -> (CollectorState, ReplayStats) {
        (self.state, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use crate::world::{SimConfig, WorldBuilder};
    use funnel_topology::model::InstanceId;

    fn tiny_world() -> World {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 3,
            start: 0,
            duration: 30,
        });
        b.add_service("prod.tiny", 2).unwrap();
        b.build()
    }

    #[test]
    fn classify_is_pure_and_commit_matches() {
        let world = tiny_world();
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, 2, 0);
        let frame = encode_frame(0, 0, &[]);
        // Classification without commit leaves no trace.
        assert!(matches!(c.classify(&frame), Ingest::Live(_)));
        assert!(matches!(c.classify(&frame), Ingest::Live(_)));
        assert_eq!(c.stats().frames, 0);
        assert!(c.ingest(&frame));
        // Second delivery of the same (agent, minute) is a duplicate.
        assert!(matches!(c.classify(&frame), Ingest::Duplicate(_)));
        assert!(!c.ingest(&frame));
        assert_eq!(c.stats().frames, 1);
        assert_eq!(c.stats().duplicate_frames, 1);
    }

    #[test]
    fn garbage_and_unknown_agents_are_quarantined() {
        let world = tiny_world();
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, 2, 0);
        assert!(!c.ingest(&Bytes::from(b"nonsense".to_vec())));
        let from_unknown_agent = encode_frame(0, 99, &[]);
        assert!(!c.ingest(&from_unknown_agent));
        assert_eq!(c.stats().quarantined_frames, 2);
    }

    #[test]
    fn a_measured_bin_counts_its_instance_once() {
        let world = tiny_world();
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, 2, 0);
        let kind = KpiKind::PageViewCount;
        let rec = |i: u32, value| WireRecord {
            key: KpiKey::new(Entity::Instance(InstanceId(i)), kind),
            value,
        };
        // Agent 0 sends instance 0 twice and instance 1 not at all; agent
        // 1's next frame moves past minute 0, which finalizes one short.
        assert!(c.ingest(&encode_frame(0, 0, &[rec(0, 10.0), rec(0, 10.0)])));
        // The store took the first of the two; only it counts as taken.
        assert_eq!(c.stats().records, 1);
        assert!(c.ingest(&encode_frame(3, 1, &[])));
        let mut partial = MinuteAccs::new();
        partial.insert((ServiceId(0), kind), vec![(0, 10.0)]);
        assert_eq!(c.state().partial.get(&0), Some(&partial));

        // Agent 1's late frame for minute 0 repeats instance 0, which the
        // store refuses, and brings instance 1: one value each completes
        // the cell.
        assert!(c.ingest(&encode_frame(0, 1, &[rec(0, 99.0), rec(1, 5.0)])));
        c.finish();
        assert_eq!(c.stats().backfill_rejected_records, 1);
        let service = store.get(&KpiKey::new(Entity::Service(ServiceId(0)), kind));
        assert_eq!(
            service.map(|s| (s.start(), s.values().to_vec())),
            Some((0, vec![15.0]))
        );
    }

    #[test]
    fn a_delayed_frame_over_a_fill_counts_toward_its_minute() {
        let world = tiny_world();
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, 2, 2);
        let kind = KpiKind::PageViewCount;
        let key = |i: u32| KpiKey::new(Entity::Instance(InstanceId(i)), kind);
        let rec = |i: u32, value| WireRecord { key: key(i), value };
        assert!(c.ingest(&encode_frame(0, 0, &[rec(0, 1.0)])));
        assert!(c.ingest(&encode_frame(0, 1, &[rec(1, 2.0)])));
        assert!(c.ingest(&encode_frame(1, 0, &[rec(0, 1.0)])));
        // Agent 1's minute 2 overtakes its minute 1, so instance 1's
        // minute 1 is a forward fill when the delayed frame lands, inside
        // the horizon and repeating the key.
        assert!(c.ingest(&encode_frame(2, 1, &[rec(1, 4.0)])));
        assert!(c.ingest(&encode_frame(1, 1, &[rec(1, 3.0), rec(1, 9.0)])));
        c.finish();
        // The delayed value replaces the fill and its repeat is refused,
        // first write wins; the minute's aggregate counts it, once.
        let values = |key| store.get(&key).map(|s| (s.start(), s.values().to_vec()));
        assert_eq!(values(key(1)), Some((0, vec![2.0, 3.0, 4.0])));
        assert!(store.mask(&key(1)).is_some_and(|m| m.is_present(1)));
        let service = KpiKey::new(Entity::Service(ServiceId(0)), kind);
        assert_eq!(values(service), Some((0, vec![3.0, 4.0])));
    }

    #[test]
    fn a_live_frame_for_a_finalized_minute_counts_no_measured_bin_again() {
        let world = tiny_world();
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, 2, 1);
        let kind = KpiKind::PageViewCount;
        let rec = |i: u32, value| WireRecord {
            key: KpiKey::new(Entity::Instance(InstanceId(i)), kind),
            value,
        };
        assert!(c.ingest(&encode_frame(0, 0, &[rec(0, 1.0), rec(1, 2.0)])));
        assert!(c.ingest(&encode_frame(1, 1, &[])));
        // Both watermarks reach minute 0 + horizon: minute 0 finalizes
        // complete, though agent 1 never sent it.
        assert!(c.ingest(&encode_frame(1, 0, &[rec(0, 1.0), rec(1, 2.0)])));
        assert_eq!(c.stats().aggregates, 2);
        // Agent 1's minute 0, still inside its horizon, opens the minute
        // again and repeats instance 1, whose bin holds a measurement.
        assert!(matches!(
            c.classify(&encode_frame(0, 1, &[])),
            Ingest::Live(_)
        ));
        assert!(c.ingest(&encode_frame(0, 1, &[rec(1, 7.0)])));
        assert!(c.state().pending.is_empty());
        assert!(c.state().partial.is_empty());
    }

    #[test]
    fn resumed_state_remembers_duplicates() {
        let world = tiny_world();
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, 2, 0);
        let frame = encode_frame(5, 1, &[]);
        assert!(c.ingest(&frame));
        let (state, _) = c.into_parts();

        // A collector resumed from the captured state suppresses the same
        // minute — the dedup memory survived the hand-off.
        let store2 = MetricStore::new();
        let mut resumed = Collector::resume(&world, &store2, 2, 0, state);
        assert!(matches!(resumed.classify(&frame), Ingest::Duplicate(_)));
        assert!(!resumed.ingest(&frame));
    }
}
