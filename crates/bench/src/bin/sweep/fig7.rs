//! Fig. 7: the advertising anti-cheat incident.
//!
//! An upgrade broke the anti-cheat JSON check on iPhone browsers, so all
//! iPhone clicks were misclassified as cheats and the effective-click count,
//! a strongly seasonal KPI, dropped the moment the upgrade rolled out.
//! Manual inspection took 1.5 hours; FUNNEL declared the change within ~10
//! minutes. One scenario, one row.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_bench::SEED;
use funnel_core::pipeline::Funnel;
use funnel_core::FunnelConfig;
use funnel_detect::PERSISTENCE_MINUTES;
use funnel_eval::truth::GroundTruth;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::scenario::ads_world;
use funnel_timeseries::stats::mean;
use funnel_topology::impact::Entity;

/// Minutes either side of the upgrade the before/after means cover.
const SPAN: u64 = 180;
/// "Minutes, not the manual hour and a half": the latest declaration the
/// contract accepts (the paper's own case took about 10).
const PROMPT_MINUTES: u64 = 20;

pub struct Fig7Row {
    impact_set_kpis: usize,
    flagged: usize,
    /// Flagged KPIs the upgrade truly moved.
    verified: usize,
    /// Minutes from the upgrade to the declaration of the click collapse.
    declared_after: u64,
    alpha: f64,
    before: f64,
    after: f64,
}

pub struct Fig7Grid;

impl Grid for Fig7Grid {
    type Cell = ();
    type Row = Fig7Row;

    const NAME: &'static str = "fig7";
    const TITLE: &'static str = "Fig. 7: effective clicks collapse after the advertising upgrade";

    fn columns(&self) -> Vec<Column<Fig7Row>> {
        vec![
            Column::new("impact_set_kpis", |r| Value::int(r.impact_set_kpis)),
            Column::new("flagged", |r| Value::int(r.flagged)),
            Column::new("verified", |r| Value::int(r.verified)),
            Column::new("declared_after_min", |r| Value::int(r.declared_after)),
            Column::new("alpha", |r| Value::fixed(r.alpha, 2)),
            Column::new("clicks_before", |r| Value::fixed(r.before, 0)),
            Column::new("clicks_after", |r| Value::fixed(r.after, 0)),
        ]
    }

    fn cells(&self) -> Vec<()> {
        vec![()]
    }

    fn run(&self, (): &()) -> Fig7Row {
        let (world, ads, change) = ads_world(SEED);
        let minute = world.change_log().get(change).expect("logged").minute;
        let mut config = FunnelConfig::paper_default();
        config.history_days = 6;
        let assessment = Funnel::new(config)
            .assess_change(&world, change)
            .expect("assessable");
        let clicks = KpiKey::new(Entity::Service(ads), KpiKind::EffectiveClickCount);
        let item = assessment
            .items
            .iter()
            .find(|i| i.key == clicks)
            .expect("click KPI in impact set");
        let series = world.series(&clicks).expect("exists");
        let truth = GroundTruth::of(&world);
        let declared = item.detection.filter(|_| item.verdict.is_caused());
        let row = Fig7Row {
            impact_set_kpis: assessment.items.len(),
            flagged: assessment.caused_items().count(),
            verified: assessment
                .caused_items()
                .filter(|i| truth.label(change, i.key) == Some(true))
                .count(),
            declared_after: declared
                .expect("the click collapse is attributed to the upgrade")
                .declared_at
                - minute,
            alpha: item
                .did
                .as_ref()
                .map_or(0.0, |(verdict, _)| verdict.alpha()),
            before: mean(series.slice(minute - SPAN, minute)),
            after: mean(series.slice(minute, minute + SPAN)),
        };
        // One scenario, so the whole contract is in-cell. Declared in
        // minutes, never under the persistence rule's own wait.
        assert!(
            (PERSISTENCE_MINUTES as u64 - 1..=PROMPT_MINUTES).contains(&row.declared_after),
            "declared {} min after the upgrade",
            row.declared_after
        );
        assert!(
            row.alpha < 0.0 && row.after < 0.8 * row.before,
            "a collapse"
        );
        assert_eq!(
            row.verified, row.flagged,
            "a KPI the upgrade left alone is blamed"
        );
        row
    }

    fn contract(&self, _: &[Fig7Row]) -> Vec<(&'static str, String)> {
        vec![("persistence_minutes", PERSISTENCE_MINUTES.to_string())]
    }
}
