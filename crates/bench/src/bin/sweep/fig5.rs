//! Fig. 5: CCDF of detection delay, a fold over Table 1's cohort pass.
//!
//! One row per method: its true positives, their median delay, and the
//! share of them declared later than each plotted minute. The paper's
//! reading: FUNNEL's median sits just past its 7-minute persistence floor
//! and well below CUSUM's, whose statistic needs the change to reach the
//! middle of its 60-minute window.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_detect::PERSISTENCE_MINUTES;
use funnel_eval::cohort::{delays, ItemOutcome};
use funnel_eval::methods::Method;
use funnel_timeseries::stats::median;

/// The methods Fig. 5 plots (improved SST's delays are FUNNEL's detector's).
const METHODS: [Method; 3] = [Method::Funnel, Method::Cusum, Method::Mrls];
/// The plotted delays, minutes. The assessment window ends at 60.
const MINUTES: [u64; 9] = [5, 10, 15, 20, 25, 30, 40, 50, 60];

pub struct Fig5Row {
    method: Method,
    /// Detection delays of the method's true positives, minutes.
    delays: Vec<f64>,
}

pub struct Fig5Grid<'a>(pub &'a [ItemOutcome]);

impl Grid for Fig5Grid<'_> {
    type Cell = Method;
    type Row = Fig5Row;

    const NAME: &'static str = "fig5";
    const TITLE: &'static str =
        "Fig. 5: detection delay of true positives (median, and CCDF at each minute)";

    fn columns(&self) -> Vec<Column<Fig5Row>> {
        let mut columns: Vec<Column<Fig5Row>> = vec![
            Column::new("method", |r| Value::text(r.method.name())),
            Column::new("true_positives", |r| Value::int(r.delays.len())),
            Column::new("median_min", |r| Value::fixed(median(&r.delays), 1)),
        ];
        columns.extend(MINUTES.map(|minute| {
            Column::computed(format!("gt_{minute}"), move |r: &Fig5Row| {
                let later = r.delays.iter().filter(|&&d| d > minute as f64).count();
                Value::fixed(later as f64 / r.delays.len() as f64, 4)
            })
        }));
        columns
    }

    fn cells(&self) -> Vec<Method> {
        METHODS.to_vec()
    }

    fn run(&self, &method: &Method) -> Fig5Row {
        let delays = delays(self.0.iter().filter(|o| o.method == method));
        assert!(!delays.is_empty(), "{} has no true positive", method.name());
        Fig5Row { method, delays }
    }

    fn contract(&self, rows: &[Fig5Row]) -> Vec<(&'static str, String)> {
        let median_of = |method| {
            let row = rows.iter().find(|r| r.method == method).expect("plotted");
            median(&row.delays)
        };
        assert!(
            median_of(Method::Funnel) < median_of(Method::Cusum),
            "FUNNEL's median delay ({}) is not below CUSUM's ({})",
            median_of(Method::Funnel),
            median_of(Method::Cusum)
        );
        assert!(
            median_of(Method::Funnel) >= PERSISTENCE_MINUTES as f64 - 1.0,
            "FUNNEL's median delay is below its own persistence floor"
        );
        vec![("persistence_minutes", PERSISTENCE_MINUTES.to_string())]
    }
}
