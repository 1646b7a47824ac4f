//! Seeds: FUNNEL's Table 1 rows and Table 3's week row, once per seed.
//!
//! A clean-cohort false positive is multiplied by 86 (§4.2.1), so one of
//! them is the distance between a perfect precision row and a poor one:
//! one seed is a lottery ticket. Hunter and the Mozilla change-point study
//! (PAPERS.md) judge detectors over many series and never one; this grid
//! does the same for the two tables a precision is read from, and the
//! envelope carries the mean and range of every column, which is what
//! EXPERIMENTS.md quotes.

use crate::table3::{assess_week, DayTally, MIN_WEEK_PRECISION};
use funnel_bench::grid::{Column, Grid, Value};
use funnel_bench::CLEAN_SCALE;
use funnel_eval::cohort::{confusion, evaluate_cohort};
use funnel_eval::methods::Method;
use funnel_sim::scenario::{deployment_week, evaluation_world};
use funnel_timeseries::generate::KpiClass;

/// The committed seeds; the first is the one every other table uses.
pub const SEEDS: [u64; 5] = [funnel_bench::SEED, 7, 11, 13, 17];

/// The numeric columns, `(key, decimals)`, in the order [`SeedsGrid::run`]
/// fills [`SeedRow::values`]: a class's three, class by class, then the week's.
const STATS: [(&str, usize); 11] = [
    ("seasonal_precision", 4),
    ("seasonal_recall", 4),
    ("seasonal_clean_fp", 0),
    ("stationary_precision", 4),
    ("stationary_recall", 4),
    ("stationary_clean_fp", 0),
    ("variable_precision", 4),
    ("variable_recall", 4),
    ("variable_clean_fp", 0),
    ("week_claims", 0),
    ("week_precision", 4),
];

pub struct SeedRow {
    seed: u64,
    values: Vec<f64>,
}

/// `seeds`, each over the first `cohort_changes` changes of its §4.1 cohort
/// and a deployment week of `changes_per_day`.
pub struct SeedsGrid {
    pub seeds: Vec<u64>,
    pub cohort_changes: usize,
    pub changes_per_day: usize,
    pub workers: usize,
}

impl Grid for SeedsGrid {
    type Cell = u64;
    type Row = SeedRow;

    const NAME: &'static str = "seeds";
    const TITLE: &'static str =
        "Seeds: FUNNEL's Table 1 rows (scaled x86) and Table 3's week row, per seed";

    fn columns(&self) -> Vec<Column<SeedRow>> {
        let mut columns: Vec<Column<SeedRow>> = vec![Column::new("seed", |r| Value::int(r.seed))];
        columns.extend(STATS.iter().enumerate().map(|(i, &(key, decimals))| {
            Column::computed(key.to_string(), move |r: &SeedRow| {
                Value::fixed(r.values[i], decimals)
            })
        }));
        columns
    }

    fn cells(&self) -> Vec<u64> {
        self.seeds.clone()
    }

    fn run(&self, &seed: &u64) -> SeedRow {
        let (world, mut meta) = evaluation_world(seed);
        meta.changes.truncate(self.cohort_changes);
        let outcomes = evaluate_cohort(&world, &meta, &[Method::Funnel], self.workers)
            .expect("the cohort evaluates");
        let mut values = Vec::new();
        for class in KpiClass::ALL {
            let of_class = || outcomes.iter().filter(|o| o.class == class);
            let rates = confusion(of_class(), CLEAN_SCALE).rates();
            // What the paper claims of FUNNEL at any seed: it finds the
            // changes there are (ours misses some near the prominence bar).
            assert!(rates.recall >= 0.8, "{class} recall {}", rates.recall);
            let clean_fp = of_class().filter(|o| o.is_clean_fp()).count();
            let class = class.to_string().to_lowercase();
            assert!(STATS[values.len()].0.starts_with(&class), "STATS order");
            values.extend([rates.precision, rates.recall, clean_fp as f64]);
        }
        let (world, meta) = deployment_week(seed, self.changes_per_day);
        let week = assess_week(&world, &meta, self.workers)
            .into_iter()
            .sum::<DayTally>();
        // ... and what it claims in deployment mostly verifies.
        let precision = week.claims.rates().precision;
        assert!(
            precision >= MIN_WEEK_PRECISION,
            "weekly claims {:?}",
            week.claims
        );
        values.extend([week.claims.total(), precision]);
        assert_eq!(values.len(), STATS.len());
        SeedRow { seed, values }
    }

    fn contract(&self, rows: &[SeedRow]) -> Vec<(&'static str, String)> {
        let over_seeds: Vec<String> = STATS
            .iter()
            .enumerate()
            .map(|(i, (key, decimals))| {
                let values = || rows.iter().map(|r| r.values[i]);
                let mean = values().sum::<f64>() / rows.len() as f64;
                let min = values().fold(f64::INFINITY, f64::min);
                let max = values().fold(f64::NEG_INFINITY, f64::max);
                // A mean of counts is not a count: one more digit.
                let mean_decimals = decimals.max(&1);
                format!(
                    "\"{key}\": {{\"mean\": {mean:.mean_decimals$}, \"min\": {min:.decimals$}, \
                     \"max\": {max:.decimals$}}}"
                )
            })
            .collect();
        vec![
            ("seeds", format!("{:?}", self.seeds)),
            (
                "over_seeds",
                format!("{{\n    {}\n  }}", over_seeds.join(",\n    ")),
            ),
        ]
    }
}
