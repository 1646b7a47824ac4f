//! The Fig. 6 case study as a library walkthrough: a load-balancing
//! configuration change swaps NIC traffic between two Redis server classes,
//! and FUNNEL attributes both the drop (class A) and the rise (class B) to
//! the change — on a KPI with strong natural variability.
//!
//! ```bash
//! cargo run --release --example redis_load_balancing
//! ```

use funnel_suite::core::pipeline::Funnel;
use funnel_suite::core::FunnelConfig;
use funnel_suite::sim::kpi::{KpiKey, KpiKind};
use funnel_suite::sim::scenario::redis_world;
use funnel_suite::timeseries::stats::mean;
use funnel_suite::topology::impact::Entity;

pub fn main() {
    let (world, class_a, class_b, change) = redis_world(6);
    let minute = world.change_log().get(change).expect("logged").minute;

    // The scenario world carries 3 days of history; tell FUNNEL's seasonal
    // DiD how much it may use.
    let mut config = FunnelConfig::paper_default();
    config.history_days = 2;
    let funnel = Funnel::new(config);

    let assessment = funnel.assess_change(&world, change).expect("assessable");
    println!(
        "config change at minute {minute}: {} impact-set KPIs assessed, {} attributed",
        assessment.items.len(),
        assessment.caused_items().count()
    );

    // Verify the expected effect, per class, like the operations team did.
    let mut down = 0;
    let mut up = 0;
    for item in assessment.caused_items() {
        let Entity::Server(s) = item.key.entity else {
            continue;
        };
        if item.key.kind != KpiKind::NicThroughput {
            continue;
        }
        let series = world
            .series(&KpiKey::new(item.key.entity, item.key.kind))
            .expect("exists");
        let before = mean(series.slice(minute - 60, minute));
        let after = mean(series.slice(minute, minute + 60));
        let class = if class_a.contains(&s) {
            "A"
        } else if class_b.contains(&s) {
            "B"
        } else {
            "?"
        };
        let dir = if after < before { "down" } else { "up" };
        println!(
            "  server {:?} (class {class}): NIC {before:.0} → {after:.0} Mbit/s ({dir})",
            s
        );
        if after < before {
            down += 1;
        } else {
            up += 1;
        }
    }
    println!("\nexpected outcome confirmed: {down} servers shed load, {up} picked it up");
    assert!(down >= 3 && up >= 3, "both classes must be represented");
}
