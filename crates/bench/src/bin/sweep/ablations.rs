//! Ablations over FUNNEL's design choices (see DESIGN.md §1), on a held-out
//! calibration cohort:
//!
//! * `threshold`: the sweep behind every method's shipped threshold. The
//!   paper sets "the values of other parameters … to the best for the
//!   corresponding algorithm's accuracy" (§4.1); this is that sweep, and
//!   the contract holds each shipped value to be one of its rows.
//! * `eig_selection`: the §3.2.2 text says "smallest" eigenvalues but
//!   weights by eigenvalue and cites work using the largest; both.
//! * `median_mad_filter`: Eq. 11 on and off, each over its own thresholds
//!   (raw scores live in [0, 1]), compared at each variant's best accuracy.
//! * IKA against the exact robust SST (§3.2.3), in the envelope: score
//!   error and decision agreement on one long variable series.
//!
//! Every window is scored once per scorer; a cell replays the cached scores
//! through the shipped [`DetectorRunner`] as one-sample windows, so a
//! threshold is judged by the persistence and re-arm rule that ships.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_core::parallel::fan_out;
use funnel_core::pipeline::enumerate_work_units;
use funnel_detect::{DetectorRunner, WindowScorer, PERSISTENCE_MINUTES};
use funnel_eval::confusion::ConfusionMatrix;
use funnel_eval::methods::{Method, MethodRunner};
use funnel_eval::truth::GroundTruth;
use funnel_sim::scenario::CohortMeta;
use funnel_sim::world::World;
use funnel_sst::{EigSelection, FastSst, RobustSst, SstConfig, SstScorer};
use funnel_timeseries::generate::{KpiClass, KpiGenerator};
use funnel_timeseries::series::TimeSeries;
use funnel_topology::impact::identify_impact_set;

/// The held-out cohort: not the seed any committed accuracy table uses.
pub const SEED: u64 = 77;
/// Changes of it the calibration runs on.
pub const CHANGES: usize = 36;
/// Warm-up before the change is twice this, for every scorer alike.
const SPAN_W: u64 = 60;
/// Minutes after the change a declaration may come (the assessment window).
const ASSESSMENT_MINUTES: u64 = 60;

/// The scorers compared, as indices into [`scorers`].
const SST: usize = 0;
const CUSUM: usize = 1;
const MRLS: usize = 2;
const SST_SMALLEST_EIG: usize = 3;
const SST_NO_FILTER: usize = 4;

/// Scores every window of a span: the score series, indexed by decision
/// minute relative to the span's start.
type Scorer = Box<dyn Fn(&[f64]) -> TimeSeries>;

fn scorers() -> Vec<Scorer> {
    fn over_windows(width: usize, score: impl Fn(&[f64]) -> f64 + 'static) -> Scorer {
        Box::new(move |span| {
            TimeSeries::new(width as u64 - 1, span.windows(width).map(&score).collect())
        })
    }
    let shipped = |method| {
        let runner = MethodRunner::new(method);
        over_windows(runner.window_len(), move |w| runner.score_window(w))
    };
    let sst = |edit: fn(&mut SstConfig)| {
        let mut config = SstConfig::paper_default();
        edit(&mut config);
        let fast = FastSst::new(config);
        over_windows(fast.config().window_len(), move |w| fast.score_window(w))
    };
    vec![
        shipped(Method::ImprovedSst),
        shipped(Method::Cusum),
        shipped(Method::Mrls),
        sst(|c| c.eig_selection = EigSelection::Smallest),
        sst(|c| c.median_mad_filter = false),
    ]
}

/// A cached score, offered to the shipped runner as a one-sample window.
struct Replayed;

impl WindowScorer for Replayed {
    fn window_len(&self) -> usize {
        1
    }

    fn score(&self, window: &[f64]) -> f64 {
        window[0]
    }

    fn name(&self) -> &'static str {
        "replayed"
    }
}

/// One impact-set item: its label, and every scorer's score series over the
/// detection span.
struct ScoredItem {
    actual: bool,
    /// The change minute, relative to the span's start.
    change_at: u64,
    scores: Vec<TimeSeries>,
}

#[derive(Clone, Copy)]
pub struct AblationCell {
    ablation: &'static str,
    variant: &'static str,
    scorer: usize,
    threshold: f64,
    persistence: usize,
    /// Whether this is the operating point `funnel-eval` ships.
    shipped: bool,
}

pub struct AblationRow {
    cell: AblationCell,
    matrix: ConfusionMatrix,
}

pub struct AblationGrid(Vec<ScoredItem>);

impl AblationGrid {
    /// Scores every unambiguous impact-set item of `meta`'s changes with
    /// every scorer, `workers` items at a time. Spans are read from a
    /// snapshot of the materialized world.
    pub fn new(world: &World, meta: &CohortMeta, workers: usize) -> Self {
        let truth = GroundTruth::of(world);
        let snapshot = world
            .materialize()
            .expect("every key of the world")
            .snapshot();
        let mut spans = Vec::new();
        for &(change, _) in &meta.changes {
            let record = world.change_log().get(change).expect("logged");
            let impact_set = identify_impact_set(world.topology(), record).expect("impact set");
            let kinds = |s| world.kinds_of_service(s).to_vec();
            for key in enumerate_work_units(&impact_set, record, &kinds) {
                let Some(actual) = truth.label(change, key) else {
                    continue;
                };
                let (series, _) = snapshot.held(&key).expect("series exists");
                let from = record.minute.saturating_sub(2 * SPAN_W).max(series.start());
                let to = record.minute + ASSESSMENT_MINUTES + 1;
                spans.push((
                    actual,
                    record.minute - from,
                    series.slice(from, to).to_vec(),
                ));
            }
        }
        Self(fan_out(
            spans,
            workers,
            scorers,
            |scorers, (actual, change_at, values)| ScoredItem {
                actual,
                change_at,
                scores: scorers.iter().map(|score| score(&values)).collect(),
            },
        ))
    }
}

impl Grid for AblationGrid {
    type Cell = AblationCell;
    type Row = AblationRow;

    const NAME: &'static str = "ablations";
    const SEED: u64 = SEED;
    const TITLE: &'static str =
        "Ablations: threshold sweeps, eigenvector selection, median/MAD filter \
         (held-out cohort, unscaled)";

    fn columns(&self) -> Vec<Column<AblationRow>> {
        vec![
            Column::new("ablation", |r| Value::text(r.cell.ablation)),
            Column::new("variant", |r| Value::text(r.cell.variant)),
            Column::new("threshold", |r| Value::fixed(r.cell.threshold, 1)),
            Column::new("shipped", |r| Value::int(r.cell.shipped)),
            Column::new("accuracy", |r| Value::fixed(r.matrix.rates().accuracy, 4)),
            Column::new("precision", |r| Value::fixed(r.matrix.rates().precision, 4)),
            Column::new("recall", |r| Value::fixed(r.matrix.rates().recall, 4)),
        ]
    }

    fn cells(&self) -> Vec<AblationCell> {
        let mut cells = Vec::new();
        // `method`: whose persistence and shipped threshold apply.
        let mut sweep = |ablation, variant, scorer, method: Option<Method>, thresholds: &[f64]| {
            cells.extend(thresholds.iter().map(|&threshold| AblationCell {
                ablation,
                variant,
                scorer,
                threshold,
                persistence: method.map_or(PERSISTENCE_MINUTES, |m| m.persistence()),
                shipped: method.is_some_and(|m| threshold == m.threshold()),
            }));
        };
        let (sst, cusum, mrls) = (Method::ImprovedSst, Method::Cusum, Method::Mrls);
        sweep(
            "threshold",
            sst.name(),
            SST,
            Some(sst),
            &[0.5, 0.8, 1.0, 1.5, 2.0],
        );
        sweep(
            "threshold",
            cusum.name(),
            CUSUM,
            Some(cusum),
            &[1.2, 1.5, 2.0, 2.5, 3.0],
        );
        sweep(
            "threshold",
            mrls.name(),
            MRLS,
            Some(mrls),
            &[8.0, 9.0, 12.0, 16.0, 22.0, 30.0],
        );
        sweep("eig_selection", "largest", SST, None, &[1.0]);
        sweep("eig_selection", "smallest", SST_SMALLEST_EIG, None, &[1.0]);
        sweep("median_mad_filter", "on", SST, None, &[0.5, 1.0, 1.5]);
        sweep(
            "median_mad_filter",
            "off",
            SST_NO_FILTER,
            None,
            &[0.1, 0.2, 0.3, 0.5],
        );
        cells
    }

    fn run(&self, cell: &AblationCell) -> AblationRow {
        let runner = DetectorRunner::new(Replayed, cell.threshold, cell.persistence);
        let mut matrix = ConfusionMatrix::new();
        for item in &self.0 {
            let declared = runner
                .run(&item.scores[cell.scorer])
                .iter()
                .any(|e| e.declared_at >= item.change_at);
            matrix.record(item.actual, declared);
        }
        AblationRow {
            cell: *cell,
            matrix,
        }
    }

    fn contract(&self, rows: &[AblationRow]) -> Vec<(&'static str, String)> {
        // The calibration covers what ships.
        for method in [Method::ImprovedSst, Method::Cusum, Method::Mrls] {
            let shipped = |r: &&AblationRow| r.cell.shipped && r.cell.variant == method.name();
            let (name, threshold) = (method.name(), method.threshold());
            assert!(
                rows.iter().filter(shipped).count() == 1,
                "{name}'s shipped threshold {threshold} is not a row of its sweep"
            );
        }
        // Eq. 11 is the robustness workhorse: each variant at its own best.
        let best = |variant| {
            rows.iter()
                .filter(|r| r.cell.ablation == "median_mad_filter" && r.cell.variant == variant)
                .map(|r| r.matrix.rates().accuracy)
                .fold(0.0, f64::max)
        };
        assert!(
            best("on") > best("off"),
            "the median/MAD filter does not pay: {} vs {}",
            best("on"),
            best("off")
        );
        // §3.2.3: the Krylov approximation decides as the exact SST does.
        let (windows, mae, agreement) = ika_vs_exact();
        assert!(agreement >= 0.95, "IKA decision agreement {agreement}");
        vec![
            ("items", self.0.len().to_string()),
            ("ika_windows", windows.to_string()),
            ("ika_mean_abs_error", format!("{mae:.4}")),
            ("ika_decision_agreement", format!("{agreement:.4}")),
        ]
    }
}

/// IKA against the exact robust SST on one long variable series: windows
/// scored, mean absolute score error, and the share of windows on which both
/// fall on the same side of a threshold of 1.
fn ika_vs_exact() -> (usize, f64, f64) {
    let config = SstConfig::paper_default();
    let width = config.window_len();
    let fast = FastSst::new(config.clone());
    let exact = RobustSst::new(config);
    let series = KpiGenerator::for_class(KpiClass::Variable, 500.0).generate(0, 1200, 0xAB1E);
    let pairs: Vec<(f64, f64)> = series
        .values()
        .windows(width)
        .map(|w| (fast.score_window(w), exact.score_window(w)))
        .collect();
    let n = pairs.len() as f64;
    let mae = pairs.iter().map(|(a, b)| (a - b).abs()).sum::<f64>() / n;
    let agree = pairs
        .iter()
        .filter(|(a, b)| (*a >= 1.0) == (*b >= 1.0))
        .count();
    (pairs.len(), mae, agree as f64 / n)
}
