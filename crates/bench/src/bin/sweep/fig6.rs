//! Fig. 6: the Redis load-balancing configuration change.
//!
//! Class-A Redis servers ran their NICs near saturation while class B sat
//! idle; a load-balancing configuration change swapped traffic between the
//! classes. FUNNEL flagged the NIC-throughput level shifts (down on A, up
//! on B) among the impact-set KPIs despite NIC throughput's strong
//! variability; the paper reports 16 of 118 impact-set KPIs flagged. One
//! row per server class.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_bench::SEED;
use funnel_core::pipeline::{ChangeAssessment, Funnel};
use funnel_core::FunnelConfig;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::scenario::redis_world;
use funnel_sim::world::World;
use funnel_timeseries::stats::mean;
use funnel_topology::impact::Entity;
use funnel_topology::model::ServerId;

/// Minutes either side of the change the before/after means cover.
const SPAN: u64 = 120;

pub struct Fig6Row {
    class: &'static str,
    /// DiD α of every NIC item of the class attributed to the change.
    flagged_alphas: Vec<f64>,
    /// Mean NIC throughput over the class, Mbit/s.
    before: f64,
    after: f64,
}

pub struct Fig6Grid {
    world: World,
    classes: [(&'static str, Vec<ServerId>); 2],
    minute: u64,
    assessment: ChangeAssessment,
}

impl Fig6Grid {
    pub fn new() -> Self {
        let (world, class_a, class_b, change) = redis_world(SEED);
        let mut config = FunnelConfig::paper_default();
        config.history_days = 2;
        let assessment = Funnel::new(config)
            .assess_change(&world, change)
            .expect("assessable");
        Self {
            minute: world.change_log().get(change).expect("logged").minute,
            world,
            classes: [("A", class_a), ("B", class_b)],
            assessment,
        }
    }
}

impl Grid for Fig6Grid {
    type Cell = usize;
    type Row = Fig6Row;

    const NAME: &'static str = "fig6";
    const TITLE: &'static str =
        "Fig. 6: NIC throughput of the two Redis server classes around the config change";

    fn columns(&self) -> Vec<Column<Fig6Row>> {
        vec![
            Column::new("class", |r| Value::text(r.class)),
            Column::new("nic_flagged", |r| Value::int(r.flagged_alphas.len())),
            Column::new("mean_alpha", |r| Value::fixed(mean(&r.flagged_alphas), 2)),
            Column::new("mbit_before", |r| Value::fixed(r.before, 0)),
            Column::new("mbit_after", |r| Value::fixed(r.after, 0)),
        ]
    }

    fn cells(&self) -> Vec<usize> {
        vec![0, 1]
    }

    fn run(&self, &class: &usize) -> Fig6Row {
        let (label, servers) = &self.classes[class];
        let nic = |&s| KpiKey::new(Entity::Server(s), KpiKind::NicThroughput);
        let class_mean = |from, to| {
            let per_server: Vec<f64> = servers
                .iter()
                .map(|s| mean(self.world.series(&nic(s)).expect("exists").slice(from, to)))
                .collect();
            mean(&per_server)
        };
        Fig6Row {
            class: label,
            flagged_alphas: self
                .assessment
                .caused_items()
                .filter(|item| servers.iter().any(|s| nic(s) == item.key))
                .map(|item| {
                    item.did
                        .as_ref()
                        .expect("caused items went to DiD")
                        .0
                        .alpha()
                })
                .collect(),
            before: class_mean(self.minute - SPAN, self.minute),
            after: class_mean(self.minute, self.minute + SPAN),
        }
    }

    fn contract(&self, rows: &[Fig6Row]) -> Vec<(&'static str, String)> {
        // Both directions are attributed, each with its own sign, on a
        // strongly variable KPI; and nothing else is blamed on the change.
        let [a, b] = rows else { panic!("two classes") };
        assert!(a.after < a.before && b.after > b.before, "the swap");
        assert!(!a.flagged_alphas.is_empty() && !b.flagged_alphas.is_empty());
        assert!(a.flagged_alphas.iter().all(|&alpha| alpha < 0.0), "class A");
        assert!(b.flagged_alphas.iter().all(|&alpha| alpha > 0.0), "class B");
        let flagged = self.assessment.caused_items().count();
        assert_eq!(
            flagged,
            a.flagged_alphas.len() + b.flagged_alphas.len(),
            "a KPI other than the swapped NICs was attributed to the change"
        );
        vec![
            ("impact_set_kpis", self.assessment.items.len().to_string()),
            ("flagged", flagged.to_string()),
        ]
    }
}
