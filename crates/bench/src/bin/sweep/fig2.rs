//! Fig. 2: the two change archetypes in one normalized KPI.
//!
//! The paper's illustrative series: a stationary KPI that ramps up over two
//! hours and later takes a sudden level shift down, normalized to [0, 1].
//! The rows are the four phases; the envelope carries every tenth sample
//! for plotting. The contract is the figure's point: a ramp moves the level
//! gradually, a level shift moves it at once.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_bench::SEED;
use funnel_timeseries::generate::{KpiClass, KpiGenerator};
use funnel_timeseries::inject::InjectedChange;
use funnel_timeseries::series::TimeSeries;
use funnel_timeseries::stats::mean;

const RAMP_ONSET: u64 = 300;
const RAMP_MINUTES: u32 = 120;
const SHIFT_ONSET: u64 = 800;
const LEN: u64 = 1200;
/// `(phase, from, to)`, in time order.
const PHASES: [(&str, u64, u64); 4] = [
    ("baseline", 0, RAMP_ONSET),
    ("ramp", RAMP_ONSET, RAMP_ONSET + RAMP_MINUTES as u64),
    ("plateau", RAMP_ONSET + RAMP_MINUTES as u64, SHIFT_ONSET),
    ("shifted", SHIFT_ONSET, LEN),
];
/// Samples at the head of a phase that show how fast the level moved.
const HEAD: u64 = 10;

pub struct Fig2Row {
    phase: &'static str,
    from: u64,
    to: u64,
    mean: f64,
    head_mean: f64,
}

/// The normalized series of the figure.
pub struct Fig2Grid(TimeSeries);

impl Fig2Grid {
    pub fn new() -> Self {
        let mut series =
            KpiGenerator::for_class(KpiClass::Stationary, 100.0).generate(0, LEN as usize, SEED);
        InjectedChange::ramp(RAMP_ONSET, 25.0, RAMP_MINUTES).apply(&mut series, true);
        InjectedChange::level_shift(SHIFT_ONSET, -35.0).apply(&mut series, true);
        Self(series.normalized())
    }
}

impl Grid for Fig2Grid {
    type Cell = (&'static str, u64, u64);
    type Row = Fig2Row;

    const NAME: &'static str = "fig2";
    const TITLE: &'static str = "Fig. 2: a ramp up, then a level shift down, in a normalized KPI";

    fn columns(&self) -> Vec<Column<Fig2Row>> {
        vec![
            Column::new("phase", |r| Value::text(r.phase)),
            Column::new("from", |r| Value::int(r.from)),
            Column::new("to", |r| Value::int(r.to)),
            Column::new("mean", |r| Value::fixed(r.mean, 4)),
            Column::new("head_mean", |r| Value::fixed(r.head_mean, 4)),
        ]
    }

    fn cells(&self) -> Vec<Self::Cell> {
        PHASES.to_vec()
    }

    fn run(&self, &(phase, from, to): &Self::Cell) -> Fig2Row {
        Fig2Row {
            phase,
            from,
            to,
            mean: mean(self.0.slice(from, to)),
            head_mean: mean(self.0.slice(from, from + HEAD)),
        }
    }

    fn contract(&self, rows: &[Fig2Row]) -> Vec<(&'static str, String)> {
        let [baseline, ramp, plateau, shifted] = rows else {
            panic!("four phases");
        };
        assert!(
            baseline.mean < ramp.mean && ramp.mean < plateau.mean,
            "the ramp does not climb from the baseline to the plateau"
        );
        assert!(shifted.mean < plateau.mean, "the level shift is not down");
        // Gradual against sudden: ten minutes into the ramp the level is
        // still the old one; ten minutes into the shift it is the new one.
        assert!(
            (ramp.head_mean - baseline.mean).abs() < (ramp.head_mean - plateau.mean).abs(),
            "the ramp jumps"
        );
        assert!(
            (shifted.head_mean - shifted.mean).abs() < (shifted.head_mean - plateau.mean).abs(),
            "the level shift creeps"
        );
        let every_tenth: Vec<f64> = self.0.values().iter().copied().step_by(10).collect();
        vec![("every_tenth_sample", format!("{every_tenth:.4?}"))]
    }
}
