//! The batch assessment pipeline (paper Fig. 3).
//!
//! For one software change: identify the impact set, run the improved SST
//! over every impact-set KPI (steps 1–3), and for each detected KPI change
//! decide causality with DiD (steps 4–11): dark-launch control groups when
//! they exist, the 30-day seasonal history otherwise, and always the
//! seasonal history for affected-service KPIs (which have no cinstances).

use crate::config::{FunnelConfig, MIN_COVERAGE, MIN_PARTITION_GAP};
use crate::parallel::{self, control_level, ControlTable};
use crate::quality::{assess_quality, QualityIssue, QualityReport};
use crate::source::KpiSource;
use funnel_detect::detector::{ChangeEvent, Coverage, Decision, DetectorRunner};
use funnel_detect::sst_adapter::SstDetector;
use funnel_did::estimator::{DidError, DidEstimate};
use funnel_did::groups::{DidAssessor, DidVerdict, PERIOD_MINUTES};
use funnel_did::seasonal::SeasonalControl;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::world::World;
use funnel_sst::{FastSst, SlidingSegments, SstWorkspace};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_topology::change::{ChangeId, LaunchMode, SoftwareChange};
use funnel_topology::impact::{identify_impact_set, Entity, ImpactSet};
use funnel_topology::model::{ServiceId, Topology, TopologyError};

/// Which control group decided causality for an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssessmentMode {
    /// Compared against cservers/cinstances (dark launching, §3.2.4).
    DarkLaunchControl,
    /// Compared against the same clock windows on historical days
    /// (affected services and full launches, §3.2.5).
    SeasonalHistory,
}

/// Final per-item verdict, coverage-aware.
///
/// Operator-facing definitions of every variant (and every
/// [`QualityIssue`] that can accompany one)
/// live in the glossary table of `OPERATORS.md` at the repository root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A KPI change exists *and* it is attributed to the software change.
    Caused,
    /// No attributed KPI change (nothing detected, or DiD cleared it).
    NotCaused,
    /// The telemetry behind the assessment window was mostly interpolation:
    /// neither attribution nor a clean bill can be trusted, so the item is
    /// handed to the operations team unresolved instead of asserting either.
    Inconclusive {
        /// `true` when the shortfall looks like an *unhealed partition* —
        /// one contiguous gap at least [`MIN_PARTITION_GAP`] minutes long, or
        /// a change point the gap-aware detector refused because it bordered
        /// such a gap. Those items are repairable: once the collector
        /// backfills the dark span, a re-assessment ([`Funnel::reassess`])
        /// can upgrade them to a firm verdict. `false` means scattered per-frame loss no backfill
        /// will heal — the operators must adjudicate on what exists.
        awaiting_backfill: bool,
    },
}

impl Verdict {
    /// Whether the item was attributed to the software change.
    pub fn is_caused(self) -> bool {
        self == Verdict::Caused
    }

    /// Whether the data was too degraded to decide.
    pub fn is_inconclusive(self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }

    /// Whether the item is inconclusive *and* a healed partition span could
    /// still upgrade it — which items [`Funnel::reassess`] considers.
    pub fn awaiting_backfill(self) -> bool {
        matches!(
            self,
            Verdict::Inconclusive {
                awaiting_backfill: true
            }
        )
    }
}

/// Provenance annotations attached to each item so operators can weigh the
/// verdict against the data behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DataQuality {
    /// Fraction of the assessment window backed by real measurements
    /// (1.0 for sources without degradation tracking).
    pub coverage: f64,
    /// Statistical screening of the assessment window (constant / mostly
    /// zero / quantized / glitch-dominated data).
    pub report: QualityReport,
}

/// The per-KPI outcome delivered to the operations team.
#[derive(Debug, Clone)]
pub struct ItemAssessment {
    /// The assessed KPI.
    pub key: KpiKey,
    /// The SST detection, if a persistent behaviour change was declared in
    /// the assessment window.
    pub detection: Option<ChangeEvent>,
    /// The DiD result, when a detection triggered causality determination.
    pub did: Option<(DidVerdict, DidEstimate)>,
    /// Which control group was used.
    pub mode: AssessmentMode,
    /// Final verdict: a KPI change exists *and* it is attributed to the
    /// software change. (`false` also for [`Verdict::Inconclusive`]; check
    /// [`ItemAssessment::verdict`] to distinguish.)
    pub caused: bool,
    /// The coverage-aware verdict.
    pub verdict: Verdict,
    /// Telemetry coverage and data-quality screening for this item.
    pub quality: DataQuality,
    /// The `[from, to)` assessment window the verdict rests on — the span a
    /// re-assessment must see healed before re-running the item.
    pub window: (MinuteBin, MinuteBin),
}

/// The full assessment of one software change.
#[derive(Debug, Clone)]
pub struct ChangeAssessment {
    /// Which change.
    pub change: ChangeId,
    /// Its identified impact set.
    pub impact_set: ImpactSet,
    /// One entry per impact-set KPI.
    pub items: Vec<ItemAssessment>,
}

impl ChangeAssessment {
    /// Items whose KPI change was attributed to the software change.
    pub fn caused_items(&self) -> impl Iterator<Item = &ItemAssessment> {
        self.items.iter().filter(|i| i.caused)
    }

    /// Whether the software change had any attributed KPI impact.
    pub fn has_impact(&self) -> bool {
        self.items.iter().any(|i| i.caused)
    }

    /// Items whose telemetry was too degraded to decide either way.
    pub fn inconclusive_items(&self) -> impl Iterator<Item = &ItemAssessment> {
        self.items.iter().filter(|i| i.verdict.is_inconclusive())
    }

    /// Items a healed partition span could still upgrade — the candidates
    /// [`Funnel::reassess`] re-runs once their windows heal.
    pub fn awaiting_backfill_items(&self) -> impl Iterator<Item = &ItemAssessment> {
        self.items.iter().filter(|i| i.verdict.awaiting_backfill())
    }
}

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq)]
pub enum FunnelError {
    /// The change id is not in the log.
    UnknownChange(ChangeId),
    /// Impact-set identification failed.
    Topology(TopologyError),
    /// A series the impact set requires is missing from the source.
    MissingSeries(KpiKey),
}

impl std::fmt::Display for FunnelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FunnelError::UnknownChange(id) => write!(f, "unknown change id {}", id.0),
            FunnelError::Topology(e) => write!(f, "topology error: {e}"),
            FunnelError::MissingSeries(k) => write!(f, "missing series for {k:?}"),
        }
    }
}

impl std::error::Error for FunnelError {}

impl From<TopologyError> for FunnelError {
    fn from(e: TopologyError) -> Self {
        FunnelError::Topology(e)
    }
}

/// Enumerates the work units of one change: every monitored impact-set KPI
/// per §3.1, one unit per `(entity, KPI kind)` — server KPIs of the
/// tservers, the changed service's instance KPIs on the tinstances and at
/// service level, and every KPI of the affected services.
///
/// The list is sorted and deduplicated, and it is the *single* enumeration
/// both the serial and parallel assessment paths consume, so the two can
/// never drift on what gets assessed.
pub fn enumerate_work_units(
    impact_set: &ImpactSet,
    change: &SoftwareChange,
    service_kinds: &dyn Fn(ServiceId) -> Vec<KpiKind>,
) -> Vec<KpiKey> {
    let changed_kinds = service_kinds(change.service);
    let mut work: Vec<KpiKey> = Vec::new();
    for &srv in &impact_set.tservers {
        for kind in KpiKind::SERVER_KINDS {
            work.push(KpiKey::new(Entity::Server(srv), kind));
        }
    }
    for &inst in &impact_set.tinstances {
        for &kind in &changed_kinds {
            work.push(KpiKey::new(Entity::Instance(inst), kind));
        }
    }
    for &kind in &changed_kinds {
        work.push(KpiKey::new(Entity::Service(change.service), kind));
    }
    for &svc in &impact_set.affected_services {
        for kind in service_kinds(svc) {
            work.push(KpiKey::new(Entity::Service(svc), kind));
        }
    }
    work.sort_unstable();
    work.dedup();
    work
}

/// Control-pool KPI keys for one treated item (§3.2.4): server items
/// contrast against the cservers, instance- and service-level items against
/// the cinstances. Shared by the DiD contrast and the diagnosis layer's
/// bias check so the two can never disagree about pool membership.
pub(crate) fn control_keys_for(impact_set: &ImpactSet, key: KpiKey) -> Vec<KpiKey> {
    match key.entity {
        Entity::Server(_) => impact_set
            .cservers
            .iter()
            .map(|&s| KpiKey::new(Entity::Server(s), key.kind))
            .collect(),
        Entity::Instance(_) | Entity::Service(_) => impact_set
            .cinstances
            .iter()
            .map(|&i| KpiKey::new(Entity::Instance(i), key.kind))
            .collect(),
    }
}

/// Treated-group KPI keys for one item: server/instance items are their own
/// treated group; the changed service's item aggregates the tinstances.
pub(crate) fn treated_keys_for(impact_set: &ImpactSet, key: KpiKey) -> Vec<KpiKey> {
    match key.entity {
        Entity::Server(_) | Entity::Instance(_) => vec![key],
        Entity::Service(_) => impact_set
            .tinstances
            .iter()
            .map(|&i| KpiKey::new(Entity::Instance(i), key.kind))
            .collect(),
    }
}

/// What one worker lends every item it assesses in one fan-out call: the
/// detector's run state (the SST workspace and the sliding segments of the
/// Eq. 11 bound, lent through [`FastSst::sliding`]) and the buffer the
/// quality screen selects in. Built once per worker by
/// [`Funnel::item_scratch`], never per item.
///
/// Reuse is bit-safe. The workspace is scratch, rewritten by every score.
/// The segments describe the last window the bound saw, and a window is
/// taken for its successor only when every overlapping sample has its bits
/// (`SlidingSegments`), so an item's first window, whatever series the
/// segments last walked, sorts afresh or answers with the bits a fresh
/// handle gives. The select buffer is cleared before each use.
pub(crate) struct ItemScratch {
    sst: SstWorkspace,
    segments: SlidingSegments,
    select: Vec<f64>,
}

/// The FUNNEL tool.
#[derive(Debug, Clone)]
pub struct Funnel {
    config: FunnelConfig,
    /// Pre-validated SST scorer: built (and config-checked) once in
    /// [`Funnel::new`] so the per-item detector path never constructs —
    /// and therefore never panics on — a scorer.
    sst: FastSst,
}

impl Funnel {
    /// Creates the tool with an explicit configuration.
    pub fn new(config: FunnelConfig) -> Self {
        // Validate the SST config here, once: every later detector run
        // clones this pre-validated scorer, so the assessment hot path
        // contains no panic-capable constructor.
        let sst = FastSst::new(config.sst.clone());
        Self { config, sst }
    }

    /// The paper's evaluation configuration.
    pub fn paper_default() -> Self {
        Self::new(FunnelConfig::paper_default())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FunnelConfig {
        &self.config
    }

    /// The pre-validated SST scorer built in [`Funnel::new`]. Hot paths
    /// (the streaming engine's per-key monitors) clone this instead of
    /// constructing a scorer, so they contain no panic-capable constructor.
    pub(crate) fn scorer(&self) -> &FastSst {
        &self.sst
    }

    /// A worker's [`ItemScratch`], sized for this configuration.
    pub(crate) fn item_scratch(&self) -> ItemScratch {
        let config = &self.config.sst;
        ItemScratch {
            sst: SstWorkspace::new(config),
            segments: SlidingSegments::new(config),
            select: Vec::with_capacity(config.window_len()),
        }
    }

    /// Assesses a change recorded in a simulated [`World`].
    ///
    /// # Errors
    ///
    /// [`FunnelError::UnknownChange`] for an id missing from the world's
    /// log; otherwise propagates topology/series errors.
    ///
    /// # Example
    ///
    /// ```
    /// use funnel_core::pipeline::Funnel;
    /// use funnel_sim::scenario::ads_world;
    ///
    /// let (world, _ads, change) = ads_world(42);
    /// let assessment = Funnel::paper_default()
    ///     .assess_change(&world, change)
    ///     .unwrap();
    /// // One verdict per impact-set KPI, in deterministic key order.
    /// assert!(!assessment.items.is_empty());
    /// assert!(assessment.has_impact());
    /// ```
    pub fn assess_change(
        &self,
        world: &World,
        change: ChangeId,
    ) -> Result<ChangeAssessment, FunnelError> {
        let record = world
            .change_log()
            .get(change)
            .ok_or(FunnelError::UnknownChange(change))?;
        self.assess_change_with(world, world.topology(), record, &|svc| {
            world.kinds_of_service(svc).to_vec()
        })
    }

    /// Fully-general assessment: any [`KpiSource`], any topology, any
    /// change record. `service_kinds` supplies the instance KPI kinds each
    /// service carries.
    ///
    /// The monitored KPIs come from [`enumerate_work_units`] and are fanned
    /// across [`AssessConfig::workers`](crate::config::AssessConfig)
    /// threads by the [`crate::parallel`] engine; the merged report is
    /// byte-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates impact-set and missing-series failures; KPIs whose series
    /// exist are always assessed.
    pub fn assess_change_with(
        &self,
        source: &(impl KpiSource + Sync),
        topology: &Topology,
        change: &SoftwareChange,
        service_kinds: &dyn Fn(ServiceId) -> Vec<KpiKind>,
    ) -> Result<ChangeAssessment, FunnelError> {
        // Pin the timeline window to the change's deploy minute before the
        // span opens, so this assessment's spans and counters all land in
        // the data minute whose impact is being judged.
        funnel_obs::timeline::set_window(change.minute);
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_ASSESS_CHANGE);
        let impact_set = identify_impact_set(topology, change)?;
        let work = enumerate_work_units(&impact_set, change, service_kinds);
        funnel_obs::gauge_set(
            funnel_obs::names::WORK_UNITS_TOTAL,
            change.minute,
            work.len() as u64,
        );
        let items = parallel::assess_work_units(
            self,
            source,
            change,
            &impact_set,
            &work,
            self.config.assess.effective_workers(),
        )?;
        Ok(ChangeAssessment {
            change: change.id,
            impact_set,
            items,
        })
    }

    /// Re-assesses some impact-set KPIs of `change` — one, or a batch —
    /// through the same fan-out/merge engine as
    /// [`Funnel::assess_change_with`], without re-running the whole impact
    /// set: what [`Funnel::reassess`] runs once healed spans cross their
    /// coverage threshold. Duplicates are collapsed; the
    /// results come back in key-sorted order.
    ///
    /// # Errors
    ///
    /// Propagates impact-set identification and missing-series failures.
    pub fn assess_keys(
        &self,
        source: &(impl KpiSource + Sync),
        topology: &Topology,
        change: &SoftwareChange,
        keys: &[KpiKey],
    ) -> Result<Vec<ItemAssessment>, FunnelError> {
        let impact_set = identify_impact_set(topology, change)?;
        let mut work = keys.to_vec();
        work.sort_unstable();
        work.dedup();
        parallel::assess_work_units(
            self,
            source,
            change,
            &impact_set,
            &work,
            self.config.assess.effective_workers(),
        )
    }

    /// The `[from, to)` assessment window of `change`, before the clamp to
    /// where a series starts: enough pre-change data to warm the detector
    /// up, plus the post-change watch period.
    fn assessment_window(&self, change: &SoftwareChange) -> (MinuteBin, MinuteBin) {
        let lookback = self.config.sst.window_len() as u64 + self.config.warmup_minutes();
        (
            change.minute.saturating_sub(lookback),
            change.minute + self.config.assessment_minutes + 1,
        )
    }

    /// How many windows the detector is offered over one full assessment
    /// window: what a streaming monitor keeps outcomes for, so that a
    /// completing change finds every window it asks about.
    pub(crate) fn windows_per_assessment(&self) -> usize {
        // `assessment_window` spans `window_len + warmup + assessment + 1`
        // minutes, and `n` minutes make `n − window_len + 1` windows.
        let windows = self.config.warmup_minutes() + self.config.assessment_minutes + 2;
        usize::try_from(windows).unwrap_or(usize::MAX)
    }

    /// The synthesized verdict for a work unit that was never trustworthily
    /// assessed — shed or stale in the streaming engine, or quarantined by
    /// the fan-out after its assessment panicked: `Inconclusive`, zero
    /// trusted coverage, flagged with the `issue` that says why. The window
    /// comes from the change and config alone, because the series was never
    /// read (or never read to the end).
    pub(crate) fn unassessed_item(
        &self,
        change: &SoftwareChange,
        key: KpiKey,
        issue: QualityIssue,
    ) -> ItemAssessment {
        funnel_obs::counter_add(funnel_obs::names::VERDICT_INCONCLUSIVE, change.minute, 1);
        ItemAssessment {
            key,
            detection: None,
            did: None,
            mode: AssessmentMode::SeasonalHistory,
            caused: false,
            verdict: Verdict::Inconclusive {
                awaiting_backfill: false,
            },
            quality: DataQuality {
                coverage: 0.0,
                report: QualityReport {
                    issues: vec![issue],
                },
            },
            window: self.assessment_window(change),
        }
    }

    /// Assesses one impact-set KPI: detection, then causality, both
    /// tempered by how much of the window was really measured. `table` is
    /// the assessment's shared control table; it only ever holds values
    /// derived from `source`, so it never changes the item. `scratch` is
    /// the worker's, lent to item after item; no bit of the item depends
    /// on what it held before.
    pub(crate) fn assess_item(
        &self,
        source: &impl KpiSource,
        change: &SoftwareChange,
        impact_set: &ImpactSet,
        key: KpiKey,
        table: &ControlTable,
        scratch: &mut ItemScratch,
    ) -> Result<ItemAssessment, FunnelError> {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_ASSESS_ITEM);
        let series = source.series(&key).ok_or(FunnelError::MissingSeries(key))?;

        let (from, to) = self.assessment_window(change);
        let lo = from.max(series.start());
        let window = TimeSeries::new(lo, series.slice(lo, to).to_vec());

        // Steps 2–3, partition-aware when the source tracks coverage. The
        // mask is read once, into the gaps of `[lo, to)`: their total is
        // the unmeasured share, a contiguous gap of at least
        // `MIN_PARTITION_GAP` minutes marks the window as
        // repairable-by-backfill, and any change point bordering such a gap
        // is suppressed rather than scored (it is indistinguishable from
        // the fill plateau's edge until the span heals). A source without a
        // mask measured every minute. The detector asks only the windows
        // this verdict rests on.
        let mask = source.mask(&key);
        let gaps = mask.as_ref().map(|mask| mask.gaps_in(lo, to));
        let coverage = match &gaps {
            Some(_) if to <= lo => 0.0,
            Some(gaps) => {
                let missing: u64 = gaps.iter().map(|&(s, e)| e - s).sum();
                (to - lo - missing) as f64 / (to - lo) as f64
            }
            None => source.coverage(&key, lo, to),
        };
        let quality = DataQuality {
            coverage,
            report: assess_quality(window.values(), &mut scratch.select),
        };
        let adequate = coverage >= MIN_COVERAGE;
        let partition_gapped = gaps
            .as_ref()
            .is_some_and(|gaps| gaps.iter().any(|&(s, e)| e - s >= MIN_PARTITION_GAP));
        let coverage = gaps.as_ref().map(|gaps| Coverage {
            gaps,
            min_coverage: MIN_COVERAGE,
            min_gap: MIN_PARTITION_GAP,
        });
        let Decision {
            event: detection,
            refused,
        } = DetectorRunner::new(
            SstDetector::fast(self.sst.clone()),
            self.config.sst_threshold,
            self.config.persistence_minutes,
        )
        .recalling(source.outcomes(&key))
        .decide_in(
            &mut self.sst.sliding(&mut scratch.sst, &mut scratch.segments),
            &window,
            coverage,
            change.minute,
        );

        let is_affected_service = matches!(key.entity, Entity::Service(s)
            if s != change.service && impact_set.affected_services.contains(&s));
        let seasonal = is_affected_service
            || change.launch == LaunchMode::Full
            || !impact_set.has_control_group();
        let mode = if seasonal {
            AssessmentMode::SeasonalHistory
        } else {
            AssessmentMode::DarkLaunchControl
        };

        // Steps 4–11: only determine causality when a change was detected,
        // and only trust either direction when the window is mostly real
        // data — an apparent shift (or apparent quiet) made of gap-fills
        // must reach the operations team as `Inconclusive`, not as a
        // verdict. Partition-shaped shortfalls additionally flag the item
        // for automatic re-assessment after backfill.
        let (did, verdict) = if !adequate {
            (
                None,
                Verdict::Inconclusive {
                    awaiting_backfill: partition_gapped,
                },
            )
        } else if detection.is_some() {
            let own = (&series, mask.as_ref());
            match self.determine(source, change, impact_set, key, own, mode, table) {
                Ok((v, est)) => {
                    let verdict = if v.is_caused() {
                        Verdict::Caused
                    } else {
                        Verdict::NotCaused
                    };
                    (Some((v, est)), verdict)
                }
                // Control coverage shortfalls mean no trustworthy contrast
                // exists anywhere (the seasonal fallback already ran).
                Err(DidError::InsufficientCoverage { .. }) => (
                    None,
                    Verdict::Inconclusive {
                        awaiting_backfill: partition_gapped,
                    },
                ),
                // Other failures (e.g. series misalignment): deliver the
                // raw detection to the operations team (they adjudicate),
                // per the paper's deliver-everything stance on dubious data.
                Err(_) => (None, Verdict::Caused),
            }
        } else if refused {
            // A change point exists but borders an unhealed gap: neither
            // "caused" (it may be a fill artifact) nor "not caused" (it may
            // be real) — queue it for the post-heal re-run.
            (
                None,
                Verdict::Inconclusive {
                    awaiting_backfill: true,
                },
            )
        } else {
            (None, Verdict::NotCaused)
        };

        // Verdicts attribute to the change's own minute — workers inherit
        // the cursor pinned by the single-threaded assessment entry, so
        // every thread writes the same window.
        let verdict_counter = match verdict {
            Verdict::Caused => funnel_obs::names::VERDICT_CAUSED,
            Verdict::NotCaused => funnel_obs::names::VERDICT_NOT_CAUSED,
            Verdict::Inconclusive { .. } => funnel_obs::names::VERDICT_INCONCLUSIVE,
        };
        let tl_window = funnel_obs::timeline::current_window();
        funnel_obs::counter_add(verdict_counter, tl_window, 1);

        Ok(ItemAssessment {
            key,
            detection,
            did,
            mode,
            caused: verdict.is_caused(),
            verdict,
            quality,
            window: (lo, to),
        })
    }

    /// Steps 4–11: DiD against the appropriate control group. `own` is the
    /// item's series and mask as the source returned them.
    #[expect(
        clippy::too_many_arguments,
        reason = "DiD needs the item (key, series and mask, mode) and its assessment's change, impact set and controls"
    )]
    fn determine(
        &self,
        source: &impl KpiSource,
        change: &SoftwareChange,
        impact_set: &ImpactSet,
        key: KpiKey,
        own: (&TimeSeries, Option<&CoverageMask>),
        mode: AssessmentMode,
        table: &ControlTable,
    ) -> Result<(DidVerdict, DidEstimate), DidError> {
        let series = own.0;
        match mode {
            AssessmentMode::SeasonalHistory => {
                let ctl = SeasonalControl::new(self.config.history_days);
                ctl.assess(&DidAssessor, series, change.minute)
            }
            AssessmentMode::DarkLaunchControl => {
                // Control keys mirror the treated entity's level (§3.2.4):
                // server items contrast against the cservers, instance and
                // service items against the cinstances. Every treated item
                // at one level therefore shares the same control fetch, so
                // the members — with their coverage masks, needed because a
                // member whose measured fraction diverges across the change
                // minute would bias the contrast and `assess_masked` drops
                // it — and the group's mean coverage over the DiD periods
                // are built once in the assessment's shared table.
                let period = PERIOD_MINUTES;
                let did_from = change.minute.saturating_sub(period);
                let did_to = change.minute + period + 1;
                let group = table.get_or_insert_with((control_level(key.entity), key.kind), || {
                    let control_keys = control_keys_for(impact_set, key);
                    let coverage = if control_keys.is_empty() {
                        0.0
                    } else {
                        control_keys
                            .iter()
                            .map(|k| source.coverage(k, did_from, did_to))
                            // funnel-lint: allow(float-accumulation-order): Vec built in sorted impact-set order, no hashed container
                            .sum::<f64>()
                            / control_keys.len() as f64
                    };
                    let members: Vec<(TimeSeries, Option<CoverageMask>)> = control_keys
                        .iter()
                        .filter_map(|k| source.series(k).map(|s| (s, source.mask(k))))
                        .collect();
                    (members, coverage)
                });
                let (control_members, ctl_coverage) = &*group;
                // A contrast against a control group that was itself mostly
                // gap-filled proves nothing: bail out (into the seasonal
                // fallback below) when its coverage falls short.
                if *ctl_coverage < MIN_COVERAGE {
                    Err(DidError::InsufficientCoverage {
                        group: "control",
                        required_pct: (MIN_COVERAGE * 100.0).round() as u8,
                        got_pct: (ctl_coverage * 100.0).round().clamp(0.0, 100.0) as u8,
                    })
                } else {
                    // For the changed service's KPI the treated group is
                    // the tinstances, fetched here; a server or instance
                    // item is its own treated group, already in hand.
                    let fetched: Vec<(TimeSeries, Option<CoverageMask>)>;
                    let tr: Vec<(&TimeSeries, Option<&CoverageMask>)> = match key.entity {
                        Entity::Server(_) | Entity::Instance(_) => vec![own],
                        Entity::Service(_) => {
                            fetched = treated_keys_for(impact_set, key)
                                .iter()
                                .filter_map(|k| source.series(k).map(|s| (s, source.mask(k))))
                                .collect();
                            fetched.iter().map(|(s, m)| (s, m.as_ref())).collect()
                        }
                    };
                    let cr: Vec<(&TimeSeries, Option<&CoverageMask>)> = control_members
                        .iter()
                        .map(|(s, m)| (s, m.as_ref()))
                        .collect();
                    DidAssessor.assess_masked(&tr, &cr, change.minute)
                }
            }
        }
        .or_else(|err| {
            // Dark-launch control unusable (series misalignment, coverage
            // shortfall): fall back to the seasonal mode before giving up —
            // but keep the coverage complaint if the fallback also fails.
            if mode == AssessmentMode::DarkLaunchControl {
                let ctl = SeasonalControl::new(self.config.history_days);
                ctl.assess(&DidAssessor, series, change.minute)
                    .map_err(|fallback_err| {
                        if matches!(err, DidError::InsufficientCoverage { .. }) {
                            err
                        } else {
                            fallback_err
                        }
                    })
            } else {
                Err(err)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::scenario::{ads_world, redis_world};
    use funnel_sim::world::{SimConfig, WorldBuilder};
    use funnel_topology::change::ChangeKind;

    fn dark_world(delta: f64) -> (World, ChangeId) {
        let mut b = WorldBuilder::new(SimConfig::days(17, 8));
        let svc = b.add_service("prod.pipe", 6).unwrap();
        let effect = if delta != 0.0 {
            ChangeEffect::none().with_level_shift(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                delta,
            )
        } else {
            ChangeEffect::none()
        };
        let minute = 7 * 1440 + 300;
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "test")
            .unwrap();
        (b.build(), id)
    }

    #[test]
    fn real_impact_is_attributed() {
        let (world, change) = dark_world(80.0);
        let funnel = Funnel::paper_default();
        let a = funnel.assess_change(&world, change).unwrap();
        assert!(a.has_impact());
        // The treated instances' delay KPI must be among the caused items.
        let caused_delay = a
            .caused_items()
            .filter(|i| {
                i.key.kind == KpiKind::PageViewResponseDelay
                    && matches!(i.key.entity, Entity::Instance(_))
            })
            .count();
        assert!(caused_delay >= 1, "no instance delay item attributed");
        // Detected under dark launching with a control group.
        let item = a
            .items
            .iter()
            .find(|i| i.caused && matches!(i.key.entity, Entity::Instance(_)))
            .unwrap();
        assert_eq!(item.mode, AssessmentMode::DarkLaunchControl);
        assert!(item.detection.is_some());
        assert!(item.did.is_some());
    }

    #[test]
    fn no_impact_change_is_clean() {
        let (world, change) = dark_world(0.0);
        let funnel = Funnel::paper_default();
        let a = funnel.assess_change(&world, change).unwrap();
        assert!(!a.has_impact(), "false attribution");
    }

    #[test]
    fn windows_per_assessment_counts_the_assessment_window() {
        let (world, change) = dark_world(0.0);
        let record = world.change_log().get(change).unwrap();
        for config in [FunnelConfig::paper_default(), {
            let mut quick = FunnelConfig::paper_default();
            quick.sst = funnel_sst::SstConfig::quick();
            quick.assessment_minutes = 45;
            quick
        }] {
            let funnel = Funnel::new(config);
            let (from, to) = funnel.assessment_window(record);
            let width = funnel.config().sst.window_len() as u64;
            assert_eq!(
                funnel.windows_per_assessment() as u64,
                (to - from) - width + 1
            );
        }
        assert_eq!(Funnel::paper_default().windows_per_assessment(), 96);
    }

    #[test]
    fn unknown_change_errors() {
        let (world, _) = dark_world(0.0);
        let funnel = Funnel::paper_default();
        assert!(matches!(
            funnel.assess_change(&world, ChangeId(99)),
            Err(FunnelError::UnknownChange(_))
        ));
    }

    #[test]
    fn degraded_telemetry_reports_inconclusive_not_caused() {
        use funnel_sim::agent::{replay_with_faults, FaultPlan};
        use funnel_sim::MetricStore;

        let (world, change) = dark_world(80.0);
        let store = MetricStore::new();
        let plan = FaultPlan {
            seed: 3,
            drop_frame_prob: 0.4,
            ..FaultPlan::none()
        };
        replay_with_faults(&world, &store, 3, plan).unwrap();

        let funnel = Funnel::paper_default();
        let record = world.change_log().get(change).unwrap();
        let a = funnel
            .assess_change_with(&store, world.topology(), record, &|svc| {
                world.kinds_of_service(svc).to_vec()
            })
            .unwrap();

        // Hard guarantee: no attribution rests on a window below the
        // coverage threshold — those items are Inconclusive instead.
        for item in &a.items {
            assert!(
                !(item.caused && item.quality.coverage < MIN_COVERAGE),
                "{:?} attributed on {:.0}% coverage",
                item.key,
                item.quality.coverage * 100.0
            );
            if item.verdict.is_inconclusive() {
                assert!(!item.caused);
            }
        }
        // 40% frame loss leaves most windows under the threshold.
        assert!(
            a.inconclusive_items().count() > 0,
            "heavy loss must yield inconclusive items"
        );
    }

    #[test]
    fn clean_store_assessment_matches_world_assessment() {
        let (world, change) = dark_world(80.0);
        let store = world.materialize().unwrap();
        let funnel = Funnel::paper_default();
        let record = world.change_log().get(change).unwrap();
        let via_store = funnel
            .assess_change_with(&store, world.topology(), record, &|svc| {
                world.kinds_of_service(svc).to_vec()
            })
            .unwrap();
        let via_world = funnel.assess_change(&world, change).unwrap();
        assert_eq!(via_store.items.len(), via_world.items.len());
        for (s, w) in via_store.items.iter().zip(&via_world.items) {
            assert_eq!(s.key, w.key);
            assert_eq!(s.verdict, w.verdict, "{:?}", s.key);
            assert_eq!(s.quality.coverage, 1.0, "{:?}", s.key);
        }
    }

    #[test]
    fn ads_incident_detected_seasonally() {
        let (world, ads, change) = ads_world(42);
        let mut config = FunnelConfig::paper_default();
        config.history_days = 6;
        let funnel = Funnel::new(config);
        let a = funnel.assess_change(&world, change).unwrap();
        assert!(a.has_impact());
        let click_item = a
            .items
            .iter()
            .find(|i| i.key == KpiKey::new(Entity::Service(ads), KpiKind::EffectiveClickCount))
            .expect("click item assessed");
        assert!(click_item.caused, "click collapse not attributed");
        assert_eq!(click_item.mode, AssessmentMode::SeasonalHistory);
    }

    /// Each key's item as `Debug` bytes.
    type Items = std::collections::BTreeMap<KpiKey, String>;

    /// [`Items`] assessed in `order` through one scratch, or through a
    /// fresh one per item.
    fn assess_in_order(
        funnel: &Funnel,
        source: &impl KpiSource,
        change: &SoftwareChange,
        impact_set: &ImpactSet,
        order: &[KpiKey],
        fresh: bool,
    ) -> Items {
        let table = ControlTable::new();
        let mut scratch = funnel.item_scratch();
        order
            .iter()
            .map(|&key| {
                if fresh {
                    scratch = funnel.item_scratch();
                }
                let item = funnel
                    .assess_item(source, change, impact_set, key, &table, &mut scratch)
                    .unwrap();
                (key, format!("{item:?}"))
            })
            .collect()
    }

    /// `keys` in a seeded Fisher–Yates order.
    fn shuffled(keys: &[KpiKey], seed: u64) -> Vec<KpiKey> {
        let mut state = seed | 1;
        let mut keys = keys.to_vec();
        for i in (1..keys.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            keys.swap(i, (state % (i as u64 + 1)) as usize);
        }
        keys
    }

    /// One worker's scratch lent to every item of a change, in any order,
    /// gives each item the bytes a fresh scratch gives it: on the world,
    /// and on a store that lost frames (masks with gaps, windows skipped).
    #[test]
    fn a_reused_scratch_assesses_as_a_fresh_one_in_any_order() {
        use funnel_sim::agent::{replay_with_faults, FaultPlan};
        let (world, change) = dark_world(80.0);
        let record = world.change_log().get(change).unwrap();
        let store = funnel_sim::MetricStore::new();
        let plan = FaultPlan {
            seed: 5,
            drop_frame_prob: 0.12,
            ..FaultPlan::none()
        };
        replay_with_faults(&world, &store, 3, plan).unwrap();
        let funnel = Funnel::paper_default();
        let impact_set = identify_impact_set(world.topology(), record).unwrap();
        let work = enumerate_work_units(&impact_set, record, &|svc| {
            world.kinds_of_service(svc).to_vec()
        });
        let snapshot = store.snapshot();
        let order_free = |source: &dyn Fn(&[KpiKey], bool) -> Items, at: &str| {
            let want = source(&work, true);
            assert_eq!(want.len(), work.len());
            assert!(
                want.values().any(|item| item.contains("detection: Some")),
                "{at}"
            );
            let mut reversed = work.clone();
            reversed.reverse();
            assert_eq!(source(&reversed, false), want, "{at}, reversed");
            for seed in [1, 2, 3, 2015] {
                assert_eq!(
                    source(&shuffled(&work, seed), false),
                    want,
                    "{at}, seed {seed}"
                );
            }
        };
        order_free(
            &|order, fresh| assess_in_order(&funnel, &world, record, &impact_set, order, fresh),
            "world",
        );
        order_free(
            &|order, fresh| assess_in_order(&funnel, &snapshot, record, &impact_set, order, fresh),
            "store",
        );
    }

    #[test]
    fn redis_config_change_flags_both_classes() {
        let (world, class_a, class_b, change) = redis_world(7);
        let mut config = FunnelConfig::paper_default();
        config.history_days = 2;
        let funnel = Funnel::new(config);
        let a = funnel.assess_change(&world, change).unwrap();
        let caused_servers: Vec<_> = a
            .caused_items()
            .filter_map(|i| match i.key.entity {
                Entity::Server(s) if i.key.kind == KpiKind::NicThroughput => Some(s),
                _ => None,
            })
            .collect();
        // The paper's Fig. 6 case flagged 16 of 118 impact-set KPIs — not
        // every server individually clears the bar on variable NIC data, so
        // require a majority signal per class rather than a clean sweep.
        let a_hits = class_a
            .iter()
            .filter(|s| caused_servers.contains(s))
            .count();
        let b_hits = class_b
            .iter()
            .filter(|s| caused_servers.contains(s))
            .count();
        assert!(a_hits >= 3, "class A hits {a_hits}");
        assert!(b_hits >= 3, "class B hits {b_hits}");
        assert!(a_hits + b_hits >= 8, "total NIC hits {}", a_hits + b_hits);
    }
}
