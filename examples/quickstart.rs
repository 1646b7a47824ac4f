//! Quickstart: deploy a software change in a simulated service, run FUNNEL,
//! read the verdicts.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use funnel_suite::core::pipeline::Funnel;
use funnel_suite::core::report;
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::kpi::KpiKind;
use funnel_suite::sim::world::{SimConfig, WorldBuilder};
use funnel_suite::topology::change::ChangeKind;

pub fn main() {
    // 1. Build a small world: one web service, six instances, eight days of
    //    telemetry (seven of history + the deployment day).
    let mut builder = WorldBuilder::new(SimConfig::days(42, 8));
    let web = builder
        .add_service("shop.web", 6)
        .expect("fresh world accepts the service");

    // 2. Deploy an upgrade at 09:00 on day 7, dark-launched on 2 of the 6
    //    instances. The upgrade has a bug: +80 ms page-view response delay
    //    on the treated instances.
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        80.0,
    );
    let change = builder
        .deploy_change(
            ChangeKind::Upgrade,
            web,
            2,
            7 * 1440 + 9 * 60,
            effect,
            "shop.web v2.3.1 — checkout revamp",
        )
        .expect("effect is well-formed");
    let world = builder.build();

    // 3. Run FUNNEL: impact set → improved SST detection → DiD causality.
    let funnel = Funnel::paper_default();
    let assessment = funnel.assess_change(&world, change).expect("change exists");

    // 4. Read the verdicts.
    println!("{}", report::render(world.topology(), &assessment));
    if assessment.has_impact() {
        println!("=> roll back shop.web v2.3.1");
    } else {
        println!("=> roll forward to the remaining instances");
    }

    // The latency regression must be attributed to the upgrade:
    assert!(assessment.has_impact());
    let delay_items = assessment
        .caused_items()
        .filter(|i| i.key.kind == KpiKind::PageViewResponseDelay)
        .count();
    assert!(delay_items >= 2, "both treated instances should be flagged");
}
