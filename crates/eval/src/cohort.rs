//! Cohort evaluation: every method × every (change, entity, KPI) item.
//!
//! Reproduces the §4.1/§4.2 methodology: for each software change the
//! impact-set KPIs are enumerated (via FUNNEL's own impact-set logic, which
//! is "equally beneficial to FUNNEL, CUSUM and MRLS, and is not biased
//! towards FUNNEL"), each method is given the sliding windows around the
//! change, and each item outcome is scored against the world's ground
//! truth ([`crate::truth`]; ambiguous items are skipped). The result is one
//! flat list of [`ItemOutcome`]s, in cohort order whatever the worker
//! count; Table 1 ([`confusion`]), Fig. 5 ([`delays`]) and per-seed rows
//! are folds over it.

use crate::confusion::ConfusionMatrix;
use crate::methods::{Method, MethodRunner};
use crate::truth::GroundTruth;
use funnel_core::parallel::fan_out;
use funnel_core::pipeline::{Funnel, FunnelError};
use funnel_core::FunnelConfig;
use funnel_sim::kpi::KpiKey;
use funnel_sim::scenario::CohortMeta;
use funnel_sim::world::{SimError, World};
use funnel_timeseries::generate::KpiClass;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::ChangeId;

/// One evaluated item for one method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemOutcome {
    /// The method judging.
    pub method: Method,
    /// The change being assessed.
    pub change: ChangeId,
    /// Whether the change belongs to the effecting half of the cohort; the
    /// clean half is what §4.2.1 scales by 86.
    pub effecting: bool,
    /// The KPI.
    pub key: KpiKey,
    /// The KPI's character class (Table 1 grouping).
    pub class: KpiClass,
    /// Ground truth: the item has a software-caused KPI change.
    pub actual: bool,
    /// The method's claim.
    pub predicted: bool,
    /// Minutes from the true onset (the deploy minute for a clean item) to
    /// the declaration of the method's detector, when it made one. FUNNEL's
    /// DiD step decides `predicted`, never the delay.
    pub delay: Option<u64>,
}

impl ItemOutcome {
    /// A false positive on a clean change: what §4.2.1 multiplies by 86.
    pub fn is_clean_fp(&self) -> bool {
        !self.effecting && self.predicted && !self.actual
    }
}

/// Why a cohort could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum CohortError {
    /// The world could not be materialized.
    Sim(SimError),
    /// A change of the cohort did not assess.
    Funnel(FunnelError),
}

impl std::fmt::Display for CohortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CohortError::Sim(e) => write!(f, "cohort world: {e}"),
            CohortError::Funnel(e) => write!(f, "cohort change: {e}"),
        }
    }
}

impl std::error::Error for CohortError {}

impl From<SimError> for CohortError {
    fn from(e: SimError) -> Self {
        CohortError::Sim(e)
    }
}

impl From<FunnelError> for CohortError {
    fn from(e: FunnelError) -> Self {
        CohortError::Funnel(e)
    }
}

/// Evaluates `methods` on every change of the cohort, `workers` changes at
/// a time. Deterministic given the world: the list is the same at any
/// worker count.
///
/// Every item reads one snapshot of the materialized world, so each series
/// is generated once however many items and control groups read it.
///
/// # Errors
///
/// A world that does not materialize, or a change of `meta` that is not in
/// the world's log or does not assess on it (none can, for the metadata a
/// scenario builds with its world).
pub fn evaluate_cohort(
    world: &World,
    meta: &CohortMeta,
    methods: &[Method],
    workers: usize,
) -> Result<Vec<ItemOutcome>, CohortError> {
    let truth = GroundTruth::of(world);
    let mut config = FunnelConfig::paper_default();
    config.history_days = meta.history_days;
    let assessment_minutes = config.assessment_minutes;
    let funnel = Funnel::new(config);
    let snapshot = world.materialize()?.snapshot();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();

    let per_change = fan_out(
        meta.changes.clone(),
        workers,
        || -> Vec<MethodRunner> { methods.iter().map(|&m| MethodRunner::new(m)).collect() },
        |runners, (change, effecting)| -> Result<Vec<ItemOutcome>, FunnelError> {
            let record = world
                .change_log()
                .get(change)
                .ok_or(FunnelError::UnknownChange(change))?;
            let assessment =
                funnel.assess_change_with(&snapshot, world.topology(), record, &kinds)?;
            let change_minute = record.minute;
            let mut outcomes = Vec::new();
            for item in &assessment.items {
                let Some(actual) = truth.label(change, item.key) else {
                    continue;
                };
                let onset = truth.onset(change, item.key).unwrap_or(change_minute);
                let (series, _) = snapshot
                    .held(&item.key)
                    .ok_or(FunnelError::MissingSeries(item.key))?;
                for (&method, runner) in methods.iter().zip(runners.iter()) {
                    let declared_at = match method {
                        // Improved SST = FUNNEL's detector without the DiD
                        // step: both reuse the pipeline's detection verbatim.
                        Method::Funnel | Method::ImprovedSst => {
                            item.detection.map(|e| e.declared_at)
                        }
                        // Detector input: warm-up + assessment span.
                        Method::Cusum | Method::Mrls => {
                            let w = runner.window_len() as u64;
                            let from = change_minute.saturating_sub(2 * w).max(series.start());
                            let to = change_minute + assessment_minutes + 1;
                            let span = TimeSeries::new(from, series.slice(from, to).to_vec());
                            let declared = runner.run(&span).into_iter();
                            declared
                                .map(|e| e.declared_at)
                                .find(|&at| at >= change_minute)
                        }
                    };
                    outcomes.push(ItemOutcome {
                        method,
                        change,
                        effecting,
                        key: item.key,
                        class: item.key.kind.class(),
                        actual,
                        predicted: if method == Method::Funnel {
                            item.verdict.is_caused()
                        } else {
                            declared_at.is_some()
                        },
                        delay: declared_at.map(|at| at.saturating_sub(onset)),
                    });
                }
            }
            Ok(outcomes)
        },
    );
    let mut outcomes = Vec::new();
    for change in per_change {
        outcomes.extend(change?);
    }
    Ok(outcomes)
}

/// The Table-1 matrix of `outcomes`: items of effecting changes once, items
/// of clean changes `clean_scale` times (§4.2.1; pass 1.0 for raw counts).
pub fn confusion<'a>(
    outcomes: impl IntoIterator<Item = &'a ItemOutcome>,
    clean_scale: f64,
) -> ConfusionMatrix {
    let mut effecting = ConfusionMatrix::new();
    let mut clean = ConfusionMatrix::new();
    for o in outcomes {
        let half = if o.effecting {
            &mut effecting
        } else {
            &mut clean
        };
        half.record(o.actual, o.predicted);
    }
    effecting.add_scaled(&clean, clean_scale);
    effecting
}

/// The Fig. 5 sample of `outcomes`: detection delays of the true positives,
/// in minutes.
pub fn delays<'a>(outcomes: impl IntoIterator<Item = &'a ItemOutcome>) -> Vec<f64> {
    outcomes
        .into_iter()
        .filter(|o| o.actual && o.predicted)
        .filter_map(|o| o.delay.map(|minutes| minutes as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_sim::scenario::{deployment_week, evaluation_world};

    fn outcome(effecting: bool, actual: bool, predicted: bool, delay: Option<u64>) -> ItemOutcome {
        use funnel_sim::kpi::KpiKind;
        use funnel_topology::impact::Entity;
        use funnel_topology::model::ServiceId;
        let key = KpiKey::new(Entity::Service(ServiceId(0)), KpiKind::PageViewCount);
        ItemOutcome {
            method: Method::Funnel,
            change: ChangeId(0),
            effecting,
            key,
            class: key.kind.class(),
            actual,
            predicted,
            delay,
        }
    }

    #[test]
    fn clean_half_is_what_the_scale_multiplies() {
        let outcomes = [
            outcome(true, true, true, Some(9)),
            outcome(true, false, true, Some(4)), // 1 FP among effecting changes
            outcome(false, false, false, None),
            outcome(false, false, true, Some(2)), // 1 FP among clean changes
        ];
        let raw = confusion(&outcomes, 1.0);
        assert_eq!((raw.tp, raw.fp, raw.tn, raw.total()), (1.0, 2.0, 1.0, 4.0));
        let scaled = confusion(&outcomes, 86.0);
        assert_eq!((scaled.tp, scaled.fp, scaled.tn), (1.0, 87.0, 86.0));
        // Scaling clean counts can only lower precision, never raise it.
        assert!(scaled.rates().precision < raw.rates().precision);
        // Only true positives have a detection delay.
        assert_eq!(delays(&outcomes), [9.0]);
        // No items: the empty matrix, which reads as perfect.
        assert_eq!(confusion(&[], 86.0).rates().accuracy, 1.0);
    }

    /// A trimmed cohort, once serially and once on three workers: the same
    /// list, and every method sees the same item universe. (What the list
    /// says of the methods is the table1 grid's contract, in `funnel-bench`.)
    /// And the source switch behind it changes no assessment.
    #[test]
    fn trimmed_cohort_is_worker_invariant() {
        let (world, mut meta) = evaluation_world(3);
        meta.changes.truncate(12); // 6 effecting
        let methods = [Method::Funnel, Method::ImprovedSst];
        let serial = evaluate_cohort(&world, &meta, &methods, 1).expect("evaluated");
        assert_eq!(
            serial,
            evaluate_cohort(&world, &meta, &methods, 3).expect("evaluated")
        );
        assert!(serial.len() > 200, "outcomes {}", serial.len());
        let of = |m: Method| serial.iter().filter(move |o| o.method == m);
        assert!(of(Method::Funnel)
            .map(|o| (o.change, o.key, o.actual))
            .eq(of(Method::ImprovedSst).map(|o| (o.change, o.key, o.actual))));

        // The pass reads a snapshot of the materialized world: each change
        // assesses on it byte for byte as on the world, in a §4.1 cohort
        // and in a deployment week.
        let (cohort, meta) = evaluation_world(2015);
        let cohort_changes = meta.changes.iter().take(8).map(|&(id, _)| id).collect();
        let (week, week_meta) = deployment_week(2015, 6);
        for (world, history_days, changes) in [
            (cohort, meta.history_days, cohort_changes),
            (week, week_meta.history_days, week_meta.days.concat()),
        ] {
            let mut config = FunnelConfig::paper_default();
            config.history_days = history_days;
            let funnel = Funnel::new(config);
            let snapshot = world.materialize().expect("materialized").snapshot();
            let kinds = |svc| world.kinds_of_service(svc).to_vec();
            for id in changes {
                let record = world.change_log().get(id).expect("logged");
                let on_world = funnel.assess_change(&world, id).expect("assessed");
                let on_snapshot = funnel
                    .assess_change_with(&snapshot, world.topology(), record, &kinds)
                    .expect("assessed");
                assert_eq!(
                    format!("{on_world:?}"),
                    format!("{on_snapshot:?}"),
                    "{id:?}"
                );
            }
        }
    }
}
