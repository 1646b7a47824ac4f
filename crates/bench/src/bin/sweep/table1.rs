//! Table 1: accuracy by KPI class, every method on the §4.1 cohort.
//!
//! One `evaluate_cohort` pass over every method yields the flat outcome list
//! this grid and [`crate::fig5`] both fold; the clean half of the cohort is scaled ×86
//! per §4.2.1. The contract is the paper's reading of the table: DiD is
//! what lifts the improved SST's precision, FUNNEL is the most accurate
//! method in every class, and each baseline breaks where the paper says it
//! does (CUSUM on seasonal KPIs, MRLS on variable ones).

use funnel_bench::grid::{Column, Grid, Value};
use funnel_bench::CLEAN_SCALE;
use funnel_eval::cohort::{confusion, ItemOutcome};
use funnel_eval::confusion::ConfusionMatrix;
use funnel_eval::methods::Method;
use funnel_timeseries::generate::KpiClass;

/// A method's rows: each class, then OVERALL (`None`).
const CLASSES: [Option<KpiClass>; 4] = [
    Some(KpiClass::Seasonal),
    Some(KpiClass::Stationary),
    Some(KpiClass::Variable),
    None,
];

/// One (method, class) row.
pub struct Table1Row {
    method: Method,
    class: Option<KpiClass>,
    /// Items judged, before any scaling.
    items: usize,
    /// False positives on clean changes, before the ×86.
    clean_fp: usize,
    /// The §4.2.1 matrix: effecting + clean × 86.
    scaled: ConfusionMatrix,
}

pub struct Table1Grid<'a>(pub &'a [ItemOutcome]);

impl Grid for Table1Grid<'_> {
    type Cell = (Method, Option<KpiClass>);
    type Row = Table1Row;

    const NAME: &'static str = "table1";
    const TITLE: &'static str = "Table 1: accuracy by KPI class (clean-change cohort scaled x86)";

    fn columns(&self) -> Vec<Column<Table1Row>> {
        vec![
            Column::new("method", |r| Value::text(r.method.name())),
            Column::new("class", |r| match r.class {
                Some(class) => Value::text(&class.to_string()),
                None => Value::text("OVERALL"),
            }),
            Column::new("items", |r| Value::int(r.items)),
            Column::new("precision", |r| Value::fixed(r.scaled.rates().precision, 4)),
            Column::new("recall", |r| Value::fixed(r.scaled.rates().recall, 4)),
            Column::new("tnr", |r| Value::fixed(r.scaled.rates().tnr, 4)),
            Column::new("accuracy", |r| Value::fixed(r.scaled.rates().accuracy, 4)),
            Column::new("true_positives", |r| Value::fixed(r.scaled.tp, 0)),
            Column::new("clean_fp", |r| Value::int(r.clean_fp)),
        ]
    }

    fn cells(&self) -> Vec<Self::Cell> {
        let rows_of = |m| CLASSES.map(|class| (m, class));
        Method::ALL.into_iter().flat_map(rows_of).collect()
    }

    fn run(&self, &(method, class): &Self::Cell) -> Table1Row {
        let judged = || {
            self.0
                .iter()
                .filter(move |o| o.method == method && class.is_none_or(|c| o.class == c))
        };
        Table1Row {
            method,
            class,
            items: judged().count(),
            clean_fp: judged().filter(|o| o.is_clean_fp()).count(),
            scaled: confusion(judged(), CLEAN_SCALE),
        }
    }

    fn contract(&self, rows: &[Table1Row]) -> Vec<(&'static str, String)> {
        let row = |method, class| {
            rows.iter()
                .find(|r| r.method == method && r.class == class)
                .expect("every (method, class) is a cell")
        };
        for class in CLASSES {
            let funnel = row(Method::Funnel, class);
            let raw = row(Method::ImprovedSst, class);
            for other in Method::ALL.map(|m| row(m, class)) {
                // §4.1: the impact set is shared, so is the item universe.
                assert_eq!(other.items, funnel.items, "{class:?}: item universes");
                assert!(
                    funnel.scaled.rates().accuracy >= other.scaled.rates().accuracy,
                    "{class:?}: {} is more accurate than FUNNEL",
                    other.method.name()
                );
            }
            // DiD removes false attributions.
            assert!(
                funnel.scaled.fp < raw.scaled.fp || raw.scaled.fp == 0.0,
                "{class:?}: DiD removed no false positive ({} vs {})",
                funnel.scaled.fp,
                raw.scaled.fp
            );
        }
        // Where each baseline breaks (§4.2.1).
        for (method, worst) in [
            (Method::Cusum, KpiClass::Seasonal),
            (Method::Mrls, KpiClass::Variable),
        ] {
            let tnr = |class| row(method, Some(class)).scaled.rates().tnr;
            for class in KpiClass::ALL {
                assert!(
                    tnr(worst) <= tnr(class),
                    "{}'s worst TNR is not on {worst} KPIs",
                    method.name()
                );
            }
        }
        vec![
            ("clean_scale", format!("{CLEAN_SCALE:.4}")),
            ("items", row(Method::Funnel, None).items.to_string()),
        ]
    }
}
