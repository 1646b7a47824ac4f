//! The streaming assessment engine — bounded memory, backpressure, and
//! graceful load shedding.
//!
//! The batch pipeline ([`Funnel::assess_change_with`]) re-reads full series
//! from an unbounded store every time it runs. This module is the
//! continuously-running form: frames flow tick-by-tick into fixed-capacity
//! per-KPI ring buffers ([`RingSeries`] — resident window memory is bounded
//! regardless of uptime), a dirty-set scheduler re-scores only the
//! `(entity, kpi)` pairs whose window actually changed, and per-KPI SST
//! state ([`StreamingSst`]) folds each new minute in incrementally instead
//! of re-scoring the whole window history. Each completed window is asked
//! only the scorer's cheap bound; the key's [`PersistenceRun`] holds the
//! candidates unscored and has the kernel run — on windows re-read from the
//! ring — only while a declaration can still rest on them, which leaves
//! every declaration, and the tick it lands on, where scoring each fold
//! would have put it (DESIGN.md §5). What the scorer answered — screened,
//! candidate, below, reached with which score — is remembered per key for
//! the windows of the latest minutes ([`WindowOutcomes`]).
//!
//! # Robustness contract
//!
//! * **Nothing queues, nothing grows with uptime.** The scoring fan-out
//!   has no queue at all: workers claim index batches straight from the
//!   tick's admitted list (`parallel::fan_out`), whose length the tick
//!   budget caps. A tick's outputs (detections, sheds, completed
//!   assessments) are returned in its [`TickReport`], by value, and the
//!   engine keeps none of them: what it holds is one fixed-size record a
//!   key and the changes still in flight (a completed change is forgotten
//!   the tick it completes).
//! * **Deterministic load shedding.** When a tick's pending re-scores
//!   exceed [`StreamConfig::tick_budget`], the lowest-priority keys are
//!   dropped for that tick by a pure function of `(tick, key)`, never a
//!   random draw, and named in [`TickReport::shed`]. Service-level KPIs
//!   outrank server KPIs outrank instance KPIs (aggregates are few and
//!   answer for many). A work unit that was shed inside its assessment
//!   window is *not* silently assessed from a degraded monitor: it
//!   completes as [`Verdict::Inconclusive`](crate::pipeline::Verdict)
//!   flagged [`QualityIssue::LoadShed`].
//! * **Staleness watermark.** A verdict is only computed from a window
//!   whose newest data is at most an hour (`STALENESS_LIMIT` minutes)
//!   older than the window it needs; keys whose feed died are flagged
//!   `LoadShed` instead of being judged on stale data.
//! * **Late frames** behind the tick watermark route through
//!   [`RingSeries::backfill`] (the store's backfill semantics), mark the
//!   key dirty, force the key's SST monitor to re-prime — the cheap
//!   incremental fold is only valid while history is immutable — and make
//!   it forget every window outcome decided at or after the rewritten
//!   minute.
//!
//! # Streaming ≡ batch
//!
//! For every key that was neither shed nor stale, the final verdict is
//! produced by the *same* [`Funnel`] assessment code as the batch path,
//! reading through a [`KpiSource`] view of the rings. While nothing a
//! change needs has been evicted (see [`StreamConfig::capacity_for`]),
//! the ring content is byte-identical to the unbounded store's series —
//! proven by the `ring_model` property tests — so streaming verdicts are
//! byte-identical to `assess_change_with` on a snapshot, at any worker
//! count.
//!
//! That run is still batch's — a fresh [`PersistenceRun`] from the start of
//! the assessment window, with its own coverage skips, gap suppression and
//! DiD, deciding for itself which windows are offered, held, scored or
//! dropped. What it does not do is put to the scorer a question the key's
//! live monitor already put to it: the ring view hands the monitor's
//! [`WindowOutcomes`] to the detector ([`KpiSource::outcomes`]), which
//! recalls a bound or a score when the memory has it and computes it as
//! before when it does not. An answer is a pure function of the window's
//! samples, the scorer and the threshold, all fixed for an engine's life
//! but for the samples a backfill rewrites, and those are forgotten the
//! moment they change; so a recalled answer is the bits a fresh call would
//! return (DESIGN.md §5 has the argument and the designs it rules out).
//! The monitors' own declarations still drive only *detection latency*
//! reporting; they are never taken for the verdict's detection.
//! [`StreamStats::completion_reused`] counts what was recalled.

use crate::config::FunnelConfig;
use crate::diagnose::diagnose_assessment;
use crate::parallel;
use crate::pipeline::{enumerate_work_units, Funnel, FunnelError, ItemAssessment};
use crate::quality::QualityIssue;
use crate::source::KpiSource;
use funnel_detect::detector::{PersistenceRun, ScoringPass, WindowSource, WindowTally};
use funnel_detect::outcomes::{Outcome, Outcomes, WindowOutcomes};
use funnel_diag::DiagReport;
use funnel_obs::names;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::splitmix64;
use funnel_sim::store::Measurement;
use funnel_sim::wire::key_hash;
use funnel_sst::{FastSst, SlidingSegments, SstScorer, SstWorkspace, StreamingSst};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::ring::{RingSeries, RingWrite};
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_topology::change::{ChangeId, SoftwareChange};
use funnel_topology::impact::{identify_impact_set, Entity, ImpactSet};
use funnel_topology::model::{ServiceId, Topology};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

/// Seed of the shed-rank mixer. Same tick + same keys → the same shed set,
/// on every machine, at every worker count.
const SHED_SEED: u64 = 2015;

/// Maximum age, in minutes, of a window's newest data relative to the
/// window a due verdict needs. Keys whose feed fell further behind are
/// flagged [`QualityIssue::LoadShed`] instead of judged on stale data.
const STALENESS_LIMIT: u64 = 60;

/// Tuning for one [`StreamEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Per-KPI ring capacity in one-minute bins: the resident window.
    /// Window memory is bounded by `keys × ring_capacity × 9` bytes no
    /// matter how long the engine runs ([`StreamEngine::window_bytes`]:
    /// 91,890 a key for the default 7-day horizon at the paper's
    /// configuration). Beside it each key's monitor holds a fixed few
    /// hundred bytes more that this setting does not move: what its scorer
    /// said of the latest windows ([`StreamEngine::outcome_bytes`], 384 a
    /// key) and the sorted segments its bound slides
    /// ([`SlidingSegments::bytes_for`], 552). Size with
    /// [`StreamConfig::capacity_for`] when streaming verdicts must be
    /// byte-identical to batch. Live detection
    /// re-reads windows it held back unscored from the ring, so it needs
    /// `window_len + persistence_minutes + 1` bins behind the frontier plus
    /// whatever arrives between two ticks; a held window the ring no longer
    /// retains counts as below threshold.
    pub ring_capacity: usize,
    /// Deadline budget per tick, measured in key-minute folds (the unit of
    /// scoring work — wall clocks are banned from the pipeline, and a work
    /// count is deterministic where a clock is not). `0` means unbounded:
    /// never shed. When a tick's pending folds exceed the budget, the
    /// shedding policy drops the lowest-priority keys for this tick.
    pub tick_budget: u64,
    /// Worker threads for the per-tick scoring fan-out (the due-change
    /// final assessments use the [`FunnelConfig::assess`] worker count).
    pub workers: usize,
}

impl StreamConfig {
    /// Defaults paired with `funnel`: ring sized for a 7-day horizon, no
    /// tick budget (never shed), one scoring worker.
    pub fn paired_with(funnel: &FunnelConfig) -> Self {
        Self {
            ring_capacity: Self::capacity_for(funnel, 7 * 1440),
            tick_budget: 0,
            workers: 1,
        }
    }

    /// The ring capacity that guarantees streaming verdicts are
    /// byte-identical to batch for any change assessed within
    /// `horizon_minutes` of its series anchor: the batch pipeline's
    /// seasonal-history control reads the *full* series, so nothing may be
    /// evicted between the anchor and the due tick. `horizon_minutes`
    /// covers anchor → change; the assessment tail and detector lookback
    /// are added here.
    pub fn capacity_for(config: &FunnelConfig, horizon_minutes: u64) -> usize {
        let tail = config.assessment_minutes
            + config.warmup_minutes()
            + config.sst.window_len() as u64
            + 2;
        usize::try_from(horizon_minutes.saturating_add(tail)).unwrap_or(usize::MAX)
    }
}

/// A live change declaration from a streaming monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDetection {
    /// Which KPI changed.
    pub key: KpiKey,
    /// The minute the persistence rule declared the change.
    pub declared_at: MinuteBin,
    /// The minute the score first exceeded the threshold.
    pub first_exceeded_at: MinuteBin,
    /// Peak filtered SST score in the run.
    pub peak_score: f64,
}

/// A completed change assessment returned from [`StreamEngine::tick`].
#[derive(Debug, Clone)]
pub struct StreamAssessment {
    /// The assessed change.
    pub change: ChangeId,
    /// All work-unit items in key order: assessed items for keys that were
    /// neither shed nor stale, `LoadShed`-flagged `Inconclusive` items for
    /// the rest.
    pub items: Vec<ItemAssessment>,
    /// Work keys dropped by the shedding policy inside the assessment
    /// window (sorted).
    pub shed: Vec<KpiKey>,
    /// Work keys whose window data was stale (or absent) past the
    /// watermark at assessment time (sorted).
    pub stale: Vec<KpiKey>,
    /// The tick minute the assessment completed.
    pub emitted_at: MinuteBin,
    /// Minutes from the change to the first streaming detection on any of
    /// its work keys.
    pub detection_latency: Option<u64>,
    /// The diagnosis of the completed assessment, when the opt-in stage
    /// ([`FunnelConfig::diagnose`]) is enabled — `None` otherwise. Strictly
    /// derived *from* the items above; its presence never alters them.
    pub diagnosis: Option<DiagReport>,
}

/// What one [`StreamEngine::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// The tick minute.
    pub minute: MinuteBin,
    /// Dirty keys at the top of the tick.
    pub dirty: usize,
    /// Keys actually re-scored this tick.
    pub scored_keys: usize,
    /// Key-minute folds performed this tick.
    pub folds: u64,
    /// Keys dropped by the shedding policy this tick (sorted): the audit
    /// trail of a shed, the caller's to keep. They stay dirty and are
    /// retried next tick.
    pub shed: Vec<KpiKey>,
    /// Change declarations fired this tick, in work-order.
    pub detections: Vec<StreamDetection>,
    /// Changes whose assessment window completed this tick.
    pub completed: Vec<StreamAssessment>,
}

/// Monotonic counters over the engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Ticks processed.
    pub ticks: u64,
    /// Key-minute folds performed.
    pub folds: u64,
    /// Key re-scores dropped by the shedding policy.
    pub shed: u64,
    /// Streaming change declarations.
    pub detections: u64,
    /// Late frames folded in via ring backfill.
    pub late_backfilled: u64,
    /// Measurements refused: a bin that already held a real measurement,
    /// a bin the ring had evicted, or a non-finite value.
    pub refused: u64,
    /// Due-change assessments that failed internally and were degraded to
    /// `LoadShed` items instead of stalling the engine.
    pub assess_errors: u64,
    /// Peak total resident window memory observed, in accounted bytes.
    pub peak_window_bytes: usize,
    /// Peak dirty-set depth observed at the top of a tick.
    pub peak_dirty: usize,
    /// Answers the completed changes' detector runs needed: a bound for
    /// every window offered, a score for every candidate a declaration
    /// could rest on.
    pub completion_answers: u64,
    /// Of those, the answers recalled from what the keys' live monitors had
    /// recorded instead of computed again.
    pub completion_reused: u64,
}

/// Per-key incremental monitor: rolling SST window, the sorted segments the
/// bound slides, the persistence rule that plans which of its windows get
/// scored, and what the scorer said of each.
struct KeyMonitor {
    sst: StreamingSst<FastSst>,
    /// What the Eq. 11 bound left of the key's last bounded window: the next
    /// minute's window is its successor, so the bound slides rather than
    /// sorts. A window that is not (a re-prime after a backfill) sorts afresh.
    segments: SlidingSegments,
    /// First minute not yet folded. Valid only while `primed`.
    next_minute: MinuteBin,
    /// Cleared when a backfill rewrites folded history: the next scoring
    /// pass resets the rolling window and re-primes from the ring.
    primed: bool,
    run: PersistenceRun,
    /// The scorer's answers for the windows `run` decided at the latest
    /// minutes, each over the `window_len` ring samples ending at its
    /// minute. Written by `run` alone; a completing change's own run reads
    /// it (see the module docs). `offer` forgets from the minute a backfill
    /// rewrites, so what is remembered is true of the ring as it stands.
    outcomes: WindowOutcomes,
}

impl KeyMonitor {
    fn new(scorer: FastSst, start: MinuteBin, persistence: usize, retention: usize) -> Self {
        Self {
            segments: SlidingSegments::new(scorer.config()),
            sst: StreamingSst::new(scorer),
            next_minute: start,
            primed: true,
            run: PersistenceRun::new(persistence),
            outcomes: WindowOutcomes::new(retention),
        }
    }
}

/// Everything the engine holds for one key, created by the key's first
/// measurement: a fixed size for the engine's life.
struct KeyState {
    ring: RingSeries,
    monitor: KeyMonitor,
    /// The ring holds minutes the monitor has not folded (or has to fold
    /// again after a backfill): the next tick plans this key.
    dirty: bool,
}

/// A change under streaming assessment.
struct TrackedChange {
    record: SoftwareChange,
    impact_set: ImpactSet,
    /// The topology snapshot at tracking time, kept only when the
    /// diagnosis stage is enabled (it needs entity names and zones at
    /// completion; the engine itself never reads topology after tracking).
    topology: Option<Topology>,
    /// The enumerated work units, sorted (the batch enumeration).
    work: Vec<KpiKey>,
    /// The last minute the assessment window needs; the change completes
    /// on the first tick at or after it.
    due: MinuteBin,
    /// Work keys shed inside the assessment window.
    shed: BTreeSet<KpiKey>,
    /// First streaming detection on any work key at/after the change.
    first_detection: Option<MinuteBin>,
}

/// A [`KpiSource`] view over the engine's rings, handed to the batch
/// assessment code at due time. While nothing relevant was evicted the
/// views are byte-identical to the unbounded store's series and masks. A
/// ring is not contiguous, so each read builds its series and mask.
struct RingView<'a> {
    keys: &'a BTreeMap<KpiKey, KeyState>,
    /// The summed tallies of the detector runs made over this view.
    runs: Mutex<WindowTally>,
}

/// What one key's monitor remembers, as a completing change's run reads it.
struct Remembered<'a> {
    outcomes: Option<&'a WindowOutcomes>,
    runs: &'a Mutex<WindowTally>,
}

impl Outcomes for Remembered<'_> {
    fn recall(&self, minute: MinuteBin) -> Outcome {
        self.outcomes
            .map_or(Outcome::Unknown, |outcomes| outcomes.recall(minute))
    }

    fn record(&mut self, _minute: MinuteBin, _outcome: Outcome) {}

    fn run_ended(&self, tally: WindowTally) {
        *self.runs.lock() += tally;
    }
}

impl KpiSource for RingView<'_> {
    // A key's first measurement creates its record, so a ring in the map
    // is never empty.
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        Some(Cow::Owned(self.keys.get(key)?.ring.to_series()))
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        self.keys
            .get(key)
            .map_or(0.0, |state| state.ring.coverage(from, to))
    }

    fn mask(&self, key: &KpiKey) -> Option<Cow<'_, CoverageMask>> {
        Some(Cow::Owned(self.keys.get(key)?.ring.to_mask()))
    }

    fn outcomes(&self, key: &KpiKey) -> impl Outcomes + '_ {
        Remembered {
            outcomes: self.keys.get(key).map(|state| &state.monitor.outcomes),
            runs: &self.runs,
        }
    }
}

/// Shedding priority class: lower keeps longer. Service aggregates are few
/// and answer for many KPIs; instance KPIs are plentiful and redundant.
fn shed_class(entity: Entity) -> u8 {
    match entity {
        Entity::Service(_) => 0,
        Entity::Server(_) => 1,
        Entity::Instance(_) => 2,
    }
}

/// The shed rank of `key` at `tick`: a pure function of the two, never a
/// random draw, so a re-run sheds the same set and the decision can be
/// audited after the fact.
fn shed_rank(tick: MinuteBin, key: KpiKey) -> u64 {
    splitmix64(SHED_SEED ^ key_hash(key).rotate_left(17) ^ tick)
}

/// Applies the deterministic shedding policy to a tick's key-ordered plans:
/// when their cost exceeds `budget` (`0`: unbounded), rank them by class,
/// then by [`shed_rank`], and admit the longest prefix of that order the
/// budget pays for. The first key is always admitted so sustained overload
/// still makes progress (no livelock). Both lists come back in key order.
fn shed_policy(
    budget: u64,
    minute: MinuteBin,
    plans: Vec<(KpiKey, ScorePlan)>,
) -> (Vec<(KpiKey, ScorePlan)>, Vec<KpiKey>) {
    let total: u64 = plans.iter().map(|(_, p)| p.cost).sum();
    if budget == 0 || total <= budget {
        return (plans, Vec::new());
    }
    // Equal ranks fall back to the plan index: key order.
    let mut ranked: Vec<(u8, u64, usize, u64)> = plans
        .iter()
        .enumerate()
        .map(|(i, (key, plan))| {
            (
                shed_class(key.entity),
                shed_rank(minute, *key),
                i,
                plan.cost,
            )
        })
        .collect();
    ranked.sort_unstable();
    let mut spent = 0u64;
    let paid = ranked
        .iter()
        .position(|&(_, _, _, cost)| {
            spent = spent.saturating_add(cost);
            spent > budget
        })
        .unwrap_or(ranked.len())
        .max(1);
    let mut admit = vec![false; plans.len()];
    for &(_, _, i, _) in ranked.iter().take(paid) {
        if let Some(slot) = admit.get_mut(i) {
            *slot = true;
        }
    }
    let mut admitted = Vec::with_capacity(paid);
    let mut shed = Vec::with_capacity(plans.len() - paid);
    for ((key, plan), admit) in plans.into_iter().zip(admit) {
        if admit {
            admitted.push((key, plan));
        } else {
            shed.push(key);
        }
    }
    (admitted, shed)
}

/// One scoring assignment: fold ring minutes `[lo, to)` into the monitor.
struct ScorePlan {
    lo: MinuteBin,
    to: MinuteBin,
    /// Reset the rolling window before folding (re-prime after backfill).
    reprime: bool,
    cost: u64,
}

/// A monitor's held windows, re-read from its key's ring through the
/// worker's one copy buffer. A backfill behind the monitor's frontier
/// forces a re-prime, which drops what is held, so a window read back here
/// holds the samples it completed with.
struct RingWindows<'a> {
    ring: &'a RingSeries,
    width: u64,
    buf: &'a mut Vec<f64>,
}

impl WindowSource for RingWindows<'_> {
    fn window_at(&mut self, minute: MinuteBin) -> Option<&[f64]> {
        let to = minute.checked_add(1)?;
        let from = to.checked_sub(self.width)?;
        self.ring
            .copy_minutes_into(from, to, self.buf)
            .then_some(self.buf.as_slice())
    }
}

/// Folds the planned ring minutes into one monitor and offers each
/// completed window to its persistence rule, which asks the bound of every
/// window and the score only of those a declaration can rest on, and
/// records each answer in the monitor's memory; returns the folds done, any
/// declaration, and what became of the windows. `worker` is the scoring
/// worker's SST workspace and the buffer held windows are copied through;
/// the bound slides the monitor's own segments.
/// Runs on scoring workers — must stay panic-free (hot path).
fn score_key(
    monitor: &mut KeyMonitor,
    plan: &ScorePlan,
    key: KpiKey,
    ring: &RingSeries,
    worker: &mut (SstWorkspace, Vec<f64>),
    scorer: &FastSst,
    threshold: f64,
) -> (u64, Vec<StreamDetection>, WindowTally) {
    let KeyMonitor {
        sst,
        segments,
        next_minute,
        primed,
        run,
        outcomes,
    } = monitor;
    let (workspace, buf) = worker;
    let mut scorer = scorer.sliding(workspace, segments);
    let mut pass = ScoringPass {
        scorer: &mut scorer,
        threshold,
        held: RingWindows {
            ring,
            width: sst.window_len() as u64,
            buf,
        },
        outcomes,
        tally: WindowTally::default(),
    };
    let mut detections = Vec::new();
    if plan.reprime {
        sst.reset();
        run.break_run(&mut pass.tally);
    }
    let mut folds = 0u64;
    for minute in plan.lo..plan.to {
        let Some(value) = ring.at(minute) else {
            // Planned past the retained window (cannot happen by
            // construction; defensive skip keeps the path panic-free).
            continue;
        };
        folds += 1;
        // `None` while still warming up: no window, no evidence either way.
        let declared = sst.fold_with(value, |_, window| {
            run.offer_window(minute, window, &mut pass)
        });
        if let Some(Some(event)) = declared {
            detections.push(StreamDetection {
                key,
                declared_at: event.declared_at,
                first_exceeded_at: event.first_exceeded_at,
                peak_score: event.peak_score,
            });
        }
    }
    *next_minute = plan.to;
    *primed = true;
    (folds, detections, pass.tally)
}

/// The streaming assessment engine. Single-threaded at the API surface
/// (`offer`/`track_change`/`tick` take `&mut self`); each tick fans its
/// scoring across [`StreamConfig::workers`] scoped threads internally.
pub struct StreamEngine {
    funnel: Funnel,
    config: StreamConfig,
    service_kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    keys: BTreeMap<KpiKey, KeyState>,
    watermark: Option<MinuteBin>,
    changes: Vec<TrackedChange>,
    stats: StreamStats,
}

impl StreamEngine {
    /// Creates an engine. `service_kinds` maps each service to the
    /// instance KPI kinds it carries (the same table the batch
    /// enumeration consumes).
    pub fn new(
        funnel: FunnelConfig,
        config: StreamConfig,
        service_kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    ) -> Self {
        Self {
            funnel: Funnel::new(funnel),
            config,
            service_kinds,
            keys: BTreeMap::new(),
            watermark: None,
            changes: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// The engine's stream tuning.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The wrapped assessment pipeline.
    pub fn funnel(&self) -> &Funnel {
        &self.funnel
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The last tick minute processed.
    pub fn watermark(&self) -> Option<MinuteBin> {
        self.watermark
    }

    /// The rings as the source a completing change reads.
    #[cfg(test)]
    pub(crate) fn ring_view(&self) -> impl KpiSource + '_ {
        RingView {
            keys: &self.keys,
            runs: Mutex::new(WindowTally::default()),
        }
    }

    /// KPI keys with resident ring state.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Total resident window memory across all rings, in accounted bytes
    /// (keys × capacity × bin size — the deterministic bound, not an
    /// allocator measurement; every ring has the configured capacity).
    pub fn window_bytes(&self) -> usize {
        self.keys
            .len()
            .saturating_mul(RingSeries::bytes_for(self.config.ring_capacity))
    }

    /// Bytes the monitors' memories of window outcomes hold at most, on top
    /// of [`StreamEngine::window_bytes`]: per monitor, one tag byte for each
    /// retained minute and a capped list of scores — the same kind of
    /// deterministic bound, sized by the configuration alone.
    pub fn outcome_bytes(&self) -> usize {
        self.keys.len().saturating_mul(WindowOutcomes::bytes_for(
            self.funnel.windows_per_assessment(),
        ))
    }

    /// Changes tracked and not yet completed (a change is dropped from
    /// the engine the tick it completes).
    pub fn pending_changes(&self) -> usize {
        self.changes.len()
    }

    /// Registers a change for streaming assessment. The work units are
    /// enumerated exactly as the batch pipeline would; the assessment
    /// completes on the first tick at or after
    /// `change.minute + assessment_minutes`.
    ///
    /// # Errors
    ///
    /// Propagates impact-set identification failures.
    pub fn track_change(
        &mut self,
        topology: &Topology,
        record: SoftwareChange,
    ) -> Result<ChangeId, FunnelError> {
        let impact_set = identify_impact_set(topology, &record)?;
        let kinds = &self.service_kinds;
        let work = enumerate_work_units(&impact_set, &record, &|svc| {
            kinds.get(&svc).cloned().unwrap_or_default()
        });
        let due = record.minute + self.funnel.config().assessment_minutes;
        let id = record.id;
        let diag_topology = self
            .funnel
            .config()
            .diagnose
            .enabled
            .then(|| topology.clone());
        self.changes.push(TrackedChange {
            record,
            impact_set,
            topology: diag_topology,
            work,
            due,
            shed: BTreeSet::new(),
            first_detection: None,
        });
        Ok(id)
    }

    /// Ingests one measurement. Never blocks, never panics: live frames
    /// append to the key's ring (evicting the oldest bin when full), late
    /// frames behind the tick watermark take the backfill path, and either
    /// way an accepted write marks the key dirty for the next tick. A
    /// refused one is counted in [`StreamStats::refused`].
    pub fn offer(&mut self, m: Measurement) {
        if !m.value.is_finite() {
            // The collector quarantines non-finite values before the store;
            // a directly-driven engine applies the same plausibility gate.
            self.stats.refused += 1;
            return;
        }
        let state = match self.keys.entry(m.key) {
            Entry::Occupied(state) => state.into_mut(),
            Entry::Vacant(slot) => slot.insert(KeyState {
                ring: RingSeries::new(self.config.ring_capacity),
                // Folds start at the ring's anchor: this first minute.
                monitor: KeyMonitor::new(
                    self.funnel.scorer().clone(),
                    m.minute,
                    self.funnel.config().persistence_minutes,
                    self.funnel.windows_per_assessment(),
                ),
                dirty: false,
            }),
        };
        let late = self.watermark.is_some_and(|w| m.minute <= w);
        let write = if late {
            state.ring.backfill(m.minute, m.value)
        } else {
            state.ring.push(m.minute, m.value)
        };
        if write != RingWrite::Accepted {
            self.stats.refused += 1;
            return;
        }
        state.dirty = true;
        if late {
            self.stats.late_backfilled += 1;
            funnel_obs::counter_add(names::STREAM_LATE_BACKFILLED, m.minute, 1);
            // The only way a retained sample changes: bin `m.minute` and
            // the fill run behind it. Every window that can hold one was
            // decided at or after `m.minute`.
            state.monitor.outcomes.forget_from(m.minute);
            if m.minute < state.monitor.next_minute {
                state.monitor.primed = false;
            }
        }
    }

    /// Processes one tick: advance the watermark to `minute`, shed if the
    /// pending work exceeds the budget, re-score the surviving dirty keys
    /// across the worker pool, then complete every change whose assessment
    /// window closed. Never blocks and never panics; overload degrades to
    /// sheds the report names, not stalls.
    pub fn tick(&mut self, minute: MinuteBin) -> TickReport {
        // The tick minute is the stream's timeline window: pinned at this
        // single-threaded choke point before the span opens, so every
        // metric and span below (including the scoring fan-out's) lands in
        // the minute being processed.
        funnel_obs::timeline::set_window(minute);
        let _span = funnel_obs::span!(names::SPAN_STREAM_TICK);
        self.watermark = Some(self.watermark.map_or(minute, |w| w.max(minute)));
        self.stats.ticks += 1;

        let (dirty, plans) = self.plan_scoring(minute);
        self.stats.peak_dirty = self.stats.peak_dirty.max(dirty);

        let (admitted, shed) = shed_policy(self.config.tick_budget, minute, plans);
        self.apply_sheds(minute, &shed);

        let (folds, detections) = self.run_scoring(&admitted);
        self.stats.folds += folds;
        for d in &detections {
            self.stats.detections += 1;
            for change in &mut self.changes {
                if d.declared_at >= change.record.minute
                    && change.work.binary_search(&d.key).is_ok()
                {
                    let first = change.first_detection.get_or_insert(d.declared_at);
                    *first = (*first).min(d.declared_at);
                }
            }
        }
        let completed = self.complete_due_changes(minute);

        let window_bytes = self.window_bytes();
        self.stats.peak_window_bytes = self.stats.peak_window_bytes.max(window_bytes);
        funnel_obs::gauge_set(names::STREAM_WINDOW_BYTES, minute, window_bytes as u64);
        TickReport {
            minute,
            dirty,
            scored_keys: admitted.len(),
            folds,
            shed,
            detections,
            completed,
        }
    }

    /// Plans the fold range for every dirty key and counts them; the plans
    /// come out in key order. Pure bookkeeping; no scoring happens here.
    fn plan_scoring(&mut self, minute: MinuteBin) -> (usize, Vec<(KpiKey, ScorePlan)>) {
        let window = self.funnel.config().sst.window_len() as u64;
        let mut dirty = 0;
        let mut plans = Vec::new();
        for (&key, state) in self.keys.iter_mut().filter(|(_, state)| state.dirty) {
            dirty += 1;
            let KeyState {
                ring,
                monitor,
                dirty: still_dirty,
            } = state;
            let to = ring.end().min(minute + 1);
            let (lo, reprime) = if monitor.primed && monitor.next_minute >= ring.start() {
                (monitor.next_minute, false)
            } else {
                // Rewind far enough that every window ending at or after
                // the first unfolded minute gets scored from a fully
                // re-primed rolling window. A monitor whose next minute the
                // ring has already evicted (a key shed or unticked for
                // longer than its ring holds) re-primes too: folding on
                // from the ring's start would splice the samples before
                // the eviction onto those after it.
                let lo = monitor
                    .next_minute
                    .saturating_add(1)
                    .saturating_sub(window)
                    .max(ring.start());
                (lo, true)
            };
            if to <= lo {
                // Nothing to fold: clean, unless what is unfolded lies past
                // this tick.
                *still_dirty = ring.end() > minute + 1;
                continue;
            }
            plans.push((
                key,
                ScorePlan {
                    lo,
                    to,
                    reprime,
                    cost: to - lo,
                },
            ));
        }
        (dirty, plans)
    }

    /// Records this tick's sheds: the counters, and the shed set of every
    /// change whose assessment window covers the tick. Shed keys stay
    /// dirty: they are retried next tick.
    fn apply_sheds(&mut self, minute: MinuteBin, shed: &[KpiKey]) {
        for key in shed {
            self.stats.shed += 1;
            funnel_obs::counter_add(names::STREAM_SHED, minute, 1);
            for change in &mut self.changes {
                if minute >= change.record.minute
                    && minute <= change.due
                    && change.work.binary_search(key).is_ok()
                {
                    change.shed.insert(*key);
                }
            }
        }
    }

    /// Scores the admitted keys (in key order) through the shared fan-out,
    /// one SST workspace per worker; detections come back in key order at
    /// any worker count.
    fn run_scoring(&mut self, admitted: &[(KpiKey, ScorePlan)]) -> (u64, Vec<StreamDetection>) {
        if admitted.is_empty() {
            return (0, Vec::new());
        }
        let threshold = self.funnel.config().sst_threshold;
        let scorer_config = &self.funnel.config().sst;
        let width = scorer_config.window_len();
        let scorer = self.funnel.scorer();

        // Each admitted key's record split into its ring and its monitor,
        // disjoint and in key order: the map iterates sorted, and the plans
        // are walked beside it.
        let mut plans = admitted.iter().peekable();
        let jobs: Vec<(KpiKey, &mut KeyMonitor, &ScorePlan, &RingSeries)> = self
            .keys
            .iter_mut()
            .filter_map(|(key, state)| {
                let (_, plan) = plans.next_if(|(planned, _)| planned == key)?;
                // Clean once this plan is folded, unless the ring already
                // holds minutes past the tick.
                state.dirty = plan.to < state.ring.end();
                Some((*key, &mut state.monitor, plan, &state.ring))
            })
            .collect();
        let scored = parallel::fan_out(
            jobs,
            self.config.workers,
            // Per worker: the SST workspace, and the buffer held windows are
            // copied out of the rings through.
            || (SstWorkspace::new(scorer_config), Vec::with_capacity(width)),
            |worker, (key, monitor, plan, ring)| {
                score_key(monitor, plan, key, ring, worker, scorer, threshold)
            },
        );
        let (mut folds, mut detections) = (0, Vec::new());
        let mut tally = WindowTally::default();
        for (key_folds, key_detections, key_tally) in scored {
            folds += key_folds;
            detections.extend(key_detections);
            tally += key_tally;
        }
        tally.emit_counters();
        (folds, detections)
    }

    /// Completes every tracked change whose assessment window closed by
    /// this tick: the batch assessment runs over the ring view for keys
    /// that were neither shed nor stale; the rest get `LoadShed` items.
    fn complete_due_changes(&mut self, minute: MinuteBin) -> Vec<StreamAssessment> {
        let mut completed = Vec::new();
        // A change leaves the tracked set the tick it completes: nothing
        // below (or in any later tick) reads it again.
        let due: Vec<TrackedChange> = self.changes.extract_if(.., |c| minute >= c.due).collect();
        for change in due {
            // The embedded batch assessment is attributed to the change's
            // own minute (like the batch path), not the tick that happened
            // to complete it; the cursor is restored before returning.
            funnel_obs::timeline::set_window(change.record.minute);
            let to = change.record.minute + self.funnel.config().assessment_minutes + 1;
            let mut live = Vec::new();
            let mut stale = Vec::new();
            for &key in &change.work {
                if change.shed.contains(&key) {
                    continue;
                }
                let fresh = self
                    .keys
                    .get(&key)
                    .is_some_and(|state| state.ring.end().saturating_add(STALENESS_LIMIT) >= to);
                if fresh {
                    live.push(key);
                } else {
                    stale.push(key);
                }
            }
            let funnel = &self.funnel;
            let load_shed =
                |&key: &KpiKey| funnel.unassessed_item(&change.record, key, QualityIssue::LoadShed);
            let view = RingView {
                keys: &self.keys,
                runs: Mutex::new(WindowTally::default()),
            };
            let workers = self.funnel.config().assess.effective_workers();
            let mut items = match parallel::assess_work_units(
                &self.funnel,
                &view,
                &change.record,
                &change.impact_set,
                &live,
                workers,
            ) {
                Ok(items) => items,
                Err(_) => {
                    // A deterministic pipeline error mid-stream must not
                    // stall the engine: degrade the whole change to
                    // LoadShed items and count it.
                    self.stats.assess_errors += 1;
                    live.iter().map(load_shed).collect()
                }
            };
            items.extend(change.shed.iter().chain(stale.iter()).map(load_shed));
            items.sort_by_key(|a| a.key);
            let runs = *view.runs.lock();
            self.stats.completion_answers += runs.asked;
            self.stats.completion_reused += runs.reused;

            // The opt-in diagnosis stage: runs over the same ring view the
            // assessment just read, after the items are final — it can
            // explain them but never change them.
            let diagnosis = change.topology.as_ref().map(|topology| {
                diagnose_assessment(
                    &self.funnel,
                    &view,
                    topology,
                    &change.record,
                    &change.impact_set,
                    &items,
                )
            });

            completed.push(StreamAssessment {
                change: change.record.id,
                items,
                shed: change.shed.iter().copied().collect(),
                stale,
                emitted_at: minute,
                detection_latency: change
                    .first_detection
                    .map(|d| d.saturating_sub(change.record.minute)),
                diagnosis,
            });
        }
        // Restore the tick window for whatever runs after this call.
        funnel_obs::timeline::set_window(minute);
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_sim::effect::ChangeEffect;
    use funnel_sim::live::LiveFeed;
    use funnel_sim::world::{SimConfig, WorldBuilder};
    use funnel_sst::SstConfig;
    use funnel_topology::change::ChangeKind;

    #[test]
    fn outcome_bytes_is_the_configurations_bound_per_monitor() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 9,
            start: 0,
            duration: 12,
        });
        b.add_service("prod.bytes", 2).unwrap();
        let world = b.build();
        let config = FunnelConfig::paper_default();
        let stream_cfg = StreamConfig::paired_with(&config);
        let mut engine = StreamEngine::new(config, stream_cfg, BTreeMap::new());
        assert_eq!(engine.outcome_bytes(), 0, "no monitor yet");
        let feed = LiveFeed::from_store(&world.materialize().unwrap());
        for (minute, batch) in feed.arrivals() {
            for &m in batch {
                engine.offer(m);
            }
            engine.tick(minute);
        }
        // 96 windows an assessment: 128 tag bytes and 16 scores of 16 bytes,
        // whatever the monitors have seen so far.
        assert!(engine.key_count() > 0);
        assert_eq!(engine.outcome_bytes(), engine.key_count() * 384);
        assert_eq!(
            engine.window_bytes(),
            engine.key_count() * engine.config().ring_capacity * 9,
            "the rings' bound is its own figure"
        );
        // The 7-day ring and the bound's sorted segments, as the
        // configuration's docs state them: the last window, its two
        // segments and the multiplier, 2 × 34 + 1 floats.
        assert_eq!(engine.config().ring_capacity * 9, 91_890);
        assert_eq!(
            SlidingSegments::bytes_for(&engine.funnel().config().sst),
            552
        );
    }

    #[test]
    fn shed_policy_admits_by_class_then_rank_and_returns_key_order() {
        use funnel_topology::model::{InstanceId, ServerId};
        const MINUTE: MinuteBin = 90;
        let plan = |cost| ScorePlan {
            lo: 0,
            to: cost,
            reprime: false,
            cost,
        };
        let kpi = KpiKind::PageViewCount;
        // Key order puts servers first and services last; the classes keep
        // services longest.
        let services = [ServiceId(4), ServiceId(1)].map(|s| KpiKey::new(Entity::Service(s), kpi));
        let servers = [7, 2, 5].map(|s| KpiKey::new(Entity::Server(ServerId(s)), kpi));
        let instances = [3, 8].map(|i| KpiKey::new(Entity::Instance(InstanceId(i)), kpi));
        let mut plans: Vec<(KpiKey, ScorePlan)> = services
            .iter()
            .map(|&k| (k, plan(3)))
            .chain(servers.iter().chain(&instances).map(|&k| (k, plan(1))))
            .collect();
        plans.sort_unstable_by_key(|(key, _)| *key);
        let all: Vec<KpiKey> = plans.iter().map(|(key, _)| *key).collect();
        let by_rank = |keys: &[KpiKey]| {
            let mut keys = keys.to_vec();
            keys.sort_unstable_by_key(|&key| shed_rank(MINUTE, key));
            keys
        };
        let run = |budget| {
            let plans = plans.iter().map(|(key, p)| (*key, plan(p.cost))).collect();
            let (admitted, shed) = shed_policy(budget, MINUTE, plans);
            let admitted: Vec<KpiKey> = admitted.into_iter().map(|(key, _)| key).collect();
            assert!(admitted.is_sorted(), "admitted in key order");
            assert!(shed.is_sorted(), "shed sorted");
            let mut both = [admitted.clone(), shed.clone()].concat();
            both.sort_unstable();
            assert_eq!(both, all, "every plan is admitted or shed, once");
            (admitted, shed)
        };
        let sorted = |mut keys: Vec<KpiKey>| {
            keys.sort_unstable();
            keys
        };

        // Unbounded, or within budget (11 folds in all): nothing ranked.
        for budget in [0, 11, 12] {
            assert_eq!(run(budget), (all.clone(), Vec::new()), "budget {budget}");
        }
        // Both services, then the servers in rank order while they fit.
        let servers_ranked = by_rank(&servers);
        for (budget, servers_in) in [(6, 0), (7, 1), (8, 2), (9, 3)] {
            let want = sorted([&services[..], &servers_ranked[..servers_in]].concat());
            assert_eq!(run(budget).0, want, "budget {budget}");
        }
        // Instances last, in rank order.
        let want = sorted([&services[..], &servers[..], &by_rank(&instances)[..1]].concat());
        assert_eq!(run(10).0, want);
        // The first key in rank order is admitted even when it alone
        // overruns the budget (1, 2). The first that does not fit ends the
        // admissions: a cheaper server is not let in behind the second
        // service (3 to 5).
        let first = by_rank(&services)[0];
        for budget in 1..=5 {
            assert_eq!(run(budget).0, vec![first], "budget {budget}");
        }
    }

    #[test]
    fn refused_counts_every_write_a_ring_did_not_take() {
        let config = FunnelConfig::paper_default();
        let mut stream_cfg = StreamConfig::paired_with(&config);
        stream_cfg.ring_capacity = 4;
        let mut engine = StreamEngine::new(config, stream_cfg, BTreeMap::new());
        let key = KpiKey::new(Entity::Service(ServiceId(0)), KpiKind::PageViewCount);
        let offer = |engine: &mut StreamEngine, minute, value| {
            engine.offer(Measurement { key, minute, value });
            engine.stats().refused
        };
        assert_eq!(offer(&mut engine, 10, f64::NAN), 1, "non-finite");
        assert_eq!(engine.key_count(), 0, "and it created no record");
        assert_eq!(offer(&mut engine, 10, 1.0), 1);
        assert_eq!(offer(&mut engine, 10, 2.0), 2, "live duplicate");
        assert_eq!(offer(&mut engine, 12, 3.0), 2);
        engine.tick(12);
        assert_eq!(offer(&mut engine, 11, 4.0), 2, "a late fill is taken");
        assert_eq!(offer(&mut engine, 11, 5.0), 3, "late duplicate");
        assert_eq!(offer(&mut engine, 18, 6.0), 3);
        assert_eq!(offer(&mut engine, 10, 7.0), 4, "evicted bin");
        assert_eq!(engine.stats().late_backfilled, 1);
    }

    #[test]
    fn a_monitor_whose_next_minute_was_evicted_reprimes() {
        // A noisy level is folded up to one tick; then a burst longer than
        // the ring arrives at a shifted level before the next tick, so the
        // ring evicts minutes the monitor never folded. Folding on from the
        // ring's start would splice the old level onto the new one: the
        // monitor would decide windows at minutes whose samples the ring
        // never held together, and record what its bound said of them.
        const CAPACITY: u64 = 30;
        let mut config = FunnelConfig::paper_default();
        config.sst = SstConfig::quick();
        let width = config.sst.window_len() as u64;
        let mut stream_cfg = StreamConfig::paired_with(&config);
        stream_cfg.ring_capacity = CAPACITY as usize;
        let mut engine = StreamEngine::new(config, stream_cfg, BTreeMap::new());
        let key = KpiKey::new(Entity::Service(ServiceId(0)), KpiKind::PageViewCount);
        let noise = |minute: u64| ((minute * 7919) % 13) as f64 / 6.0 - 1.0;
        let level = |minute: u64, base: f64| Measurement {
            key,
            minute,
            value: base + noise(minute),
        };
        for minute in 0..CAPACITY {
            engine.offer(level(minute, 100.0));
        }
        let before = engine.tick(CAPACITY - 1);
        assert_eq!(before.folds, CAPACITY);
        let burst = CAPACITY..2 * CAPACITY + 6;
        for minute in burst.clone() {
            engine.offer(level(minute, 150.0));
        }
        let after = engine.tick(burst.end - 1);
        assert_eq!(after.folds, CAPACITY, "folded from the ring's start");
        assert!(after.detections.is_empty(), "{:?}", after.detections);

        // Every window the monitor decided is one the ring holds whole.
        let state = &engine.keys[&key];
        let mut held = Vec::new();
        let mut decided = 0;
        for minute in burst {
            if state.monitor.outcomes.recall(minute) != Outcome::Unknown {
                decided += 1;
                assert!(
                    state
                        .ring
                        .copy_minutes_into(minute + 1 - width, minute + 1, &mut held),
                    "decided the window at minute {minute}, which the ring never held"
                );
            }
        }
        assert_eq!(decided, CAPACITY + 1 - width);
    }

    #[test]
    fn a_completed_change_is_forgotten() {
        // Five changes, forty minutes apart, each due an hour after it
        // deploys: the tracked set shrinks as each completes and ends empty.
        const CHANGES: usize = 5;
        let mut b = WorldBuilder::new(SimConfig {
            seed: 9,
            start: 0,
            duration: 420,
        });
        let svc = b.add_service("prod.forget", 3).unwrap();
        let ids: Vec<ChangeId> = (0..CHANGES as u64)
            .map(|i| {
                let minute = 150 + 40 * i;
                b.deploy_change(
                    ChangeKind::Upgrade,
                    svc,
                    1,
                    minute,
                    ChangeEffect::none(),
                    "c",
                )
                .unwrap()
            })
            .collect();
        let world = b.build();

        let mut config = FunnelConfig::paper_default();
        config.sst = SstConfig::quick();
        config.diagnose.enabled = true; // the path that also held a Topology
        let stream_cfg = StreamConfig::paired_with(&config);
        let kinds = world
            .topology()
            .services()
            .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
            .collect();
        let mut engine = StreamEngine::new(config, stream_cfg, kinds);
        for id in &ids {
            let record = world.change_log().get(*id).unwrap().clone();
            engine.track_change(world.topology(), record).unwrap();
        }
        assert_eq!(engine.pending_changes(), CHANGES);

        let feed = LiveFeed::from_store(&world.materialize().unwrap());
        let mut completed = Vec::new();
        for (minute, batch) in feed.arrivals() {
            for &m in batch {
                engine.offer(m);
            }
            completed.extend(engine.tick(minute).completed.into_iter().map(|a| a.change));
            assert_eq!(engine.changes.len(), CHANGES - completed.len());
        }
        assert_eq!(completed, ids, "every change completes once, in due order");
        assert!(engine.changes.is_empty());
        assert_eq!(engine.pending_changes(), 0);
    }
}
