//! Table 3: one week of deployed operation.
//!
//! The paper's prototype watched a few dozen services for a week:
//! 24 119 changes/day, 268 with impact, 2.26 M KPIs, 10 249 KPI changes,
//! and 98.21 % precision on operator-verified detections. This grid replays
//! a scaled-down deployment week (same structure, 60 changes a day) through
//! the full FUNNEL pipeline and verifies every claimed KPI change against
//! the simulator's ground truth: the role the operations team's
//! verification plays in §5. A claim verifies only on a prominent injected
//! effect; an operator would not confirm one they cannot see.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_core::parallel::fan_out;
use funnel_core::pipeline::Funnel;
use funnel_core::FunnelConfig;
use funnel_eval::confusion::ConfusionMatrix;
use funnel_eval::truth::GroundTruth;
use funnel_sim::scenario::DeploymentMeta;
use funnel_sim::world::World;

/// Changes deployed per day of the committed week.
pub const CHANGES_PER_DAY: usize = 60;
/// The weekly precision below which "what the tool claims verifies" (§5:
/// 98.21 %) no longer reads as reproduced. The five committed seeds span
/// 0.84–0.91; ROADMAP item 1 is expected to raise both.
pub const MIN_WEEK_PRECISION: f64 = 0.8;

/// What one day (or, summed, the week) of assessments came to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DayTally {
    pub changes: usize,
    pub with_impact: usize,
    pub kpis: usize,
    /// The KPI changes FUNNEL attributed to a software change: true
    /// positives where the ground truth confirms the claim, false positives
    /// where it does not. Its precision is the table's.
    pub claims: ConfusionMatrix,
}

impl std::iter::Sum for DayTally {
    fn sum<I: Iterator<Item = Self>>(days: I) -> Self {
        days.fold(Self::default(), |mut week, day| {
            week.changes += day.changes;
            week.with_impact += day.with_impact;
            week.kpis += day.kpis;
            week.claims.add_scaled(&day.claims, 1.0);
            week
        })
    }
}

/// Assesses every change of the week, `workers` days at a time, against a
/// snapshot of the materialized world.
pub fn assess_week(world: &World, meta: &DeploymentMeta, workers: usize) -> Vec<DayTally> {
    let truth = GroundTruth::of(world);
    let mut config = FunnelConfig::paper_default();
    config.history_days = meta.history_days;
    let funnel = Funnel::new(config);
    let snapshot = world
        .materialize()
        .expect("every key of the world")
        .snapshot();
    let kinds = |svc| world.kinds_of_service(svc).to_vec();
    fan_out(
        meta.days.iter().collect(),
        workers,
        None,
        || (),
        |(), ids: &Vec<_>| {
            let mut day = DayTally {
                changes: ids.len(),
                ..DayTally::default()
            };
            for &id in ids {
                let record = world.change_log().get(id).expect("logged");
                let assessment = funnel
                    .assess_change_with(&snapshot, world.topology(), record, &kinds)
                    .expect("assessable");
                day.kpis += assessment.items.len();
                day.with_impact += usize::from(assessment.has_impact());
                for item in assessment.caused_items() {
                    day.claims
                        .record(truth.label(id, item.key) == Some(true), true);
                }
            }
            day
        },
    )
}

/// The days' tallies; the grid's rows are `(label, tally)`, a row per day
/// and one for the week.
pub struct Table3Grid(pub Vec<DayTally>);

impl Grid for Table3Grid {
    type Cell = (String, DayTally);
    type Row = (String, DayTally);

    const NAME: &'static str = "table3";
    const TITLE: &'static str = "Table 3: simulated deployment week";

    fn columns(&self) -> Vec<Column<Self::Row>> {
        vec![
            Column::new("day", |(day, _)| Value::text(day)),
            Column::new("changes", |(_, t)| Value::int(t.changes)),
            Column::new("with_impact", |(_, t)| Value::int(t.with_impact)),
            Column::new("kpis", |(_, t)| Value::int(t.kpis)),
            Column::new("kpi_changes", |(_, t)| Value::fixed(t.claims.total(), 0)),
            Column::new("verified", |(_, t)| Value::fixed(t.claims.tp, 0)),
            Column::new("precision", |(_, t)| {
                Value::fixed(t.claims.rates().precision, 4)
            }),
        ]
    }

    fn cells(&self) -> Vec<Self::Cell> {
        let days = self.0.iter().enumerate();
        days.map(|(i, &day)| ((i + 1).to_string(), day))
            .chain([("week".to_string(), self.0.iter().copied().sum())])
            .collect()
    }

    fn run(&self, row: &Self::Cell) -> Self::Row {
        row.clone()
    }

    fn contract(&self, rows: &[Self::Row]) -> Vec<(&'static str, String)> {
        let (_, week) = rows.last().expect("the week row");
        // §5: few changes carry impact, and what the tool claims verifies.
        assert!(
            week.with_impact * 10 <= week.changes,
            "{} of {} changes assessed as having impact",
            week.with_impact,
            week.changes
        );
        assert!(
            week.claims.rates().precision >= MIN_WEEK_PRECISION,
            "weekly claims {:?}",
            week.claims
        );
        Vec::new()
    }
}
