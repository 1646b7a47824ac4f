//! The opt-in diagnosis stage: converts a finished assessment into the
//! pre-digested input `funnel-diag` consumes and runs its three analyses
//! (population-bias check, contribution ranking, evidence dossier).
//!
//! The stage is strictly **read-only over** the assessment: it re-reads
//! series from the same [`KpiSource`], it never mutates an
//! [`ItemAssessment`], and enabling it cannot perturb a single byte of the
//! assessment report (the `diag_determinism` integration test byte-compares
//! diag-on against diag-off to prove it). Control-pool membership is
//! selected by the *same* `control_keys_for`/`treated_keys_for` helpers
//! (in `crate::pipeline`) the DiD contrast uses, so the bias check can
//! never audit a different pool than the one that decided causality.

use crate::parallel::control_level;
use crate::pipeline::{
    control_keys_for, treated_keys_for, AssessmentMode, ChangeAssessment, Funnel, ItemAssessment,
};
use crate::report::describe_key;
use crate::source::KpiSource;
use funnel_detect::detector::WindowScorer;
use funnel_detect::sst_adapter::SstDetector;
use funnel_diag::{
    diagnose_change, ChangeInput, ControlMember, DetectionInput, DiagReport, ItemInput,
};
use funnel_did::cache::ControlCache;
use funnel_did::groups::PERIOD_MINUTES;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_timeseries::series::MinuteBin;
use funnel_timeseries::window::SlidingWindows;
use funnel_timeseries::MINUTES_PER_DAY;
use funnel_topology::change::SoftwareChange;
use funnel_topology::impact::{Entity, ImpactSet};
use funnel_topology::model::Topology;
use funnel_topology::ZoneMap;

/// Half-width, in minutes, of the SST score trace captured around the
/// detection point for the evidence dossier. The trace re-scores only
/// `2·TRACE_RADIUS + 1` windows, which is what keeps the whole pass cheap
/// relative to assessment (the ledger row `diag.ms_per_change` beside
/// `core.assess.ms_per_change` prices it).
const TRACE_RADIUS: u64 = 15;

/// Zone count for the contribution ranking's shard/zone dimension (servers
/// are striped `server_id % ZONES`, matching the simulator's replay-shard
/// striping).
const ZONES: u32 = 4;

impl Funnel {
    /// Diagnoses a finished assessment: explains every `Caused` item with a
    /// population-bias check, a contribution ranking, and an evidence
    /// dossier.
    ///
    /// Returns `None` when the stage is disabled
    /// ([`funnel_diag::DiagConfig::enabled`] is `false`, the default). The
    /// pass is deterministic — same source, same assessment, same report
    /// bytes at any worker count — and read-only: it never alters the
    /// assessment it explains.
    pub fn diagnose(
        &self,
        source: &impl KpiSource,
        topology: &Topology,
        change: &SoftwareChange,
        assessment: &ChangeAssessment,
    ) -> Option<DiagReport> {
        if !self.config().diagnose.enabled {
            return None;
        }
        Some(diagnose_assessment(
            self,
            source,
            topology,
            change,
            &assessment.impact_set,
            &assessment.items,
        ))
    }
}

/// The shared diagnosis body behind [`Funnel::diagnose`] and the streaming
/// engine's completion hook. Callers have already checked `enabled`.
pub(crate) fn diagnose_assessment(
    funnel: &Funnel,
    source: &impl KpiSource,
    topology: &Topology,
    change: &SoftwareChange,
    impact_set: &ImpactSet,
    items: &[ItemAssessment],
) -> DiagReport {
    let _span = funnel_obs::span!(funnel_obs::names::SPAN_DIAG_CHANGE);
    // Dark-launch control pools are shared by every item at one
    // (entity level, KPI kind), exactly as in the DiD contrast — memoize
    // the member fetch the same way.
    let pools: ControlCache<(u8, KpiKind), Vec<ControlMember>> = ControlCache::new();

    let inputs: Vec<ItemInput> = items
        .iter()
        .filter(|item| item.verdict.is_caused())
        .filter_map(|item| {
            build_item_input(funnel, source, topology, change, impact_set, item, &pools)
        })
        .collect();

    let input = ChangeInput {
        change_id: change.id.0,
        change_minute: change.minute,
        service: topology
            .service_name(change.service)
            .map(|n| n.to_string())
            .unwrap_or_else(|_| format!("svc#{}", change.service.0)),
        description: change.description.clone(),
        items: inputs,
    };
    diagnose_change(&input)
}

/// Converts one `Caused` item into the diagnosis layer's input: identity,
/// DiD statistics, detection evidence, provenance, the SST score trace, and
/// the treated/control pre-window samples the bias check compares. Items whose series vanished from the source (a pruned
/// store) are skipped rather than guessed at.
fn build_item_input(
    funnel: &Funnel,
    source: &impl KpiSource,
    topology: &Topology,
    change: &SoftwareChange,
    impact_set: &ImpactSet,
    item: &ItemAssessment,
    pools: &ControlCache<(u8, KpiKind), Vec<ControlMember>>,
) -> Option<ItemInput> {
    let key = item.key;
    let series = source.series(&key)?;
    let entity_class = match key.entity {
        Entity::Server(_) => "server",
        Entity::Instance(_) => "instance",
        Entity::Service(_) => "service",
    };
    let mode = match item.mode {
        AssessmentMode::DarkLaunchControl => "dark_launch_control",
        AssessmentMode::SeasonalHistory => "seasonal_history",
    };
    let est = item.did.as_ref().map(|(_, e)| e);

    let pre_from = change.minute.saturating_sub(PERIOD_MINUTES);
    let (treated_pre, treated_pre_coverage) =
        treated_pre_samples(source, impact_set, key, pre_from, change.minute);
    let control_members = match item.mode {
        AssessmentMode::DarkLaunchControl => {
            let group = pools.get_or_insert_with((control_level(key.entity), key.kind), || {
                control_keys_for(impact_set, key)
                    .iter()
                    .filter_map(|k| {
                        let s = source.series(k)?;
                        Some(ControlMember {
                            label: describe_key(topology, k),
                            pre: s.slice(pre_from, change.minute).to_vec(),
                            coverage: source.coverage(k, pre_from, change.minute),
                        })
                    })
                    .collect()
            });
            (*group).clone()
        }
        AssessmentMode::SeasonalHistory => {
            let mut members = Vec::new();
            for d in 1..=funnel.config().history_days as u64 {
                let offset = d * MINUTES_PER_DAY as u64;
                if change.minute < offset + PERIOD_MINUTES {
                    break;
                }
                let hist = change.minute - offset;
                members.push(ControlMember {
                    label: format!("history:-{d}d"),
                    pre: series.slice(hist - PERIOD_MINUTES, hist).to_vec(),
                    coverage: source.coverage(&key, hist - PERIOD_MINUTES, hist),
                });
            }
            members
        }
    };

    Some(ItemInput {
        label: describe_key(topology, &key),
        entity_class,
        zone: ZoneMap::striped(ZONES).of_entity(topology, key.entity),
        kind: key.kind.name().to_string(),
        mode,
        alpha: est.map(|e| e.alpha),
        std_err: est.map(|e| e.std_err),
        t_stat: est.map(|e| e.t_stat),
        ci95: est.map(|e| e.ci95()),
        cell_means: est.map(|e| e.cell_means),
        detection: item.detection.as_ref().map(|d| DetectionInput {
            declared_at: d.declared_at,
            first_exceeded_at: d.first_exceeded_at,
            peak_score: d.peak_score,
        }),
        coverage: item.quality.coverage,
        gaps: source
            .mask(&key)
            .map(|m| m.gaps_in(item.window.0, item.window.1))
            .unwrap_or_default(),
        quality: item
            .quality
            .report
            .issues
            .iter()
            .map(|i| format!("{i:?}"))
            .collect(),
        window: item.window,
        sst_trace: sst_trace(funnel, source, key, item, change.minute),
        treated_pre,
        treated_pre_coverage,
        control_members,
    })
}

/// The treated group's pre-change samples, pooled exactly as the DiD
/// contrast pools them: server/instance items are their own group, the
/// changed service's item aggregates the tinstances.
fn treated_pre_samples(
    source: &impl KpiSource,
    impact_set: &ImpactSet,
    key: KpiKey,
    pre_from: MinuteBin,
    change_minute: MinuteBin,
) -> (Vec<f64>, f64) {
    let keys = treated_keys_for(impact_set, key);
    let mut samples = Vec::new();
    let mut coverages = Vec::new();
    for k in &keys {
        if let Some(s) = source.series(k) {
            samples.extend_from_slice(s.slice(pre_from, change_minute));
            coverages.push(source.coverage(k, pre_from, change_minute));
        }
    }
    let coverage = if coverages.is_empty() {
        0.0
    } else {
        // funnel-lint: allow(float-accumulation-order): Vec built in sorted treated-key order, no hashed container
        coverages.iter().sum::<f64>() / coverages.len() as f64
    };
    (samples, coverage)
}

/// Re-scores the item's assessment window with the pre-validated SST and
/// keeps the `(decision minute, score)` pairs within [`TRACE_RADIUS`] of
/// the anchor (the declared detection minute, or the deployment minute when
/// nothing was declared) — the "what did the detector see" panel of the
/// evidence dossier.
fn sst_trace(
    funnel: &Funnel,
    source: &impl KpiSource,
    key: KpiKey,
    item: &ItemAssessment,
    change_minute: MinuteBin,
) -> Vec<(MinuteBin, f64)> {
    let series = match source.series(&key) {
        Some(s) => s,
        None => return Vec::new(),
    };
    let (lo, to) = item.window;
    let window = funnel_timeseries::series::TimeSeries::new(lo, series.slice(lo, to).to_vec());
    let scorer = SstDetector::fast(funnel.scorer().clone());
    let width = scorer.window_len();
    let anchor = item
        .detection
        .as_ref()
        .map(|d| d.declared_at)
        .unwrap_or(change_minute);
    SlidingWindows::new(&window, width)
        .filter(|w| w.decision_minute.abs_diff(anchor) <= TRACE_RADIUS)
        .map(|w| (w.decision_minute, scorer.score(w.values)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FunnelConfig;
    use funnel_diag::{BiasFlag, DiagConfig};
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::world::{SimConfig, WorldBuilder};
    use funnel_topology::change::{ChangeId, ChangeKind};

    fn shifted_world() -> (funnel_sim::world::World, ChangeId) {
        let mut b = WorldBuilder::new(SimConfig::days(17, 8));
        let svc = b.add_service("prod.pipe", 6).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            funnel_sim::kpi::KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            80.0,
        );
        let minute = 7 * 1440 + 300;
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "diag test")
            .unwrap();
        (b.build(), id)
    }

    #[test]
    fn disabled_stage_returns_none() {
        let (world, change) = shifted_world();
        let funnel = Funnel::paper_default();
        let assessment = funnel.assess_change(&world, change).unwrap();
        let record = world.change_log().get(change).unwrap();
        assert!(funnel
            .diagnose(&world, world.topology(), record, &assessment)
            .is_none());
    }

    #[test]
    fn enabled_stage_explains_caused_items() {
        let (world, change) = shifted_world();
        let mut config = FunnelConfig::paper_default();
        config.diagnose = DiagConfig::on();
        let funnel = Funnel::new(config);
        let assessment = funnel.assess_change(&world, change).unwrap();
        assert!(assessment.has_impact());
        let record = world.change_log().get(change).unwrap();
        let report = funnel
            .diagnose(&world, world.topology(), record, &assessment)
            .unwrap();
        // One diagnosis per caused item, each with evidence and a clean
        // bias check (the simulated pool is honest by construction).
        assert_eq!(report.items.len(), assessment.caused_items().count());
        assert!(!report.ranking.is_empty());
        for item in &report.items {
            assert_ne!(
                item.bias.flag,
                BiasFlag::PopulationMismatch,
                "{}",
                item.label
            );
            assert!(item.evidence.coverage > 0.0);
        }
        // Deterministic: a second pass produces identical bytes.
        let again = funnel
            .diagnose(&world, world.topology(), record, &assessment)
            .unwrap();
        assert_eq!(report.to_json(), again.to_json());
        // The ranking concentrates on the shifted KPI.
        let top = report.ranking.first().unwrap();
        assert_eq!(top.kind, "page_view_response_delay");
    }

    #[test]
    fn diagnose_is_read_only_over_the_assessment() {
        let (world, change) = shifted_world();
        let mut config = FunnelConfig::paper_default();
        config.diagnose = DiagConfig::on();
        let diag_on = Funnel::new(config);
        let diag_off = Funnel::paper_default();
        let on = diag_on.assess_change(&world, change).unwrap();
        let off = diag_off.assess_change(&world, change).unwrap();
        let record = world.change_log().get(change).unwrap();
        let _ = diag_on.diagnose(&world, world.topology(), record, &on);
        // Enabling diagnosis must not perturb the assessment itself.
        assert_eq!(format!("{on:?}"), format!("{off:?}"));
    }
}
