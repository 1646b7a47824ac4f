//! Dark launching end to end: why the control group matters.
//!
//! Two things happen at nearly the same time in this scenario:
//!
//! 1. a software change is dark-launched on 2 of 8 instances and introduces
//!    a real regression (+45 failures/min on the treated instances), and
//! 2. an *external* incident (an upstream dependency brown-out) adds
//!    +30 failures/min to **every** instance of a second, untouched
//!    service at a nearby time.
//!
//! A raw detector fires on both. FUNNEL's DiD keeps the first (treated
//! moved relative to control) and rejects the second (treated and control
//! moved together).
//!
//! ```bash
//! cargo run --release --example dark_launch_assessment
//! ```

use funnel_suite::core::pipeline::{AssessmentMode, Funnel};
use funnel_suite::sim::effect::{ChangeEffect, EffectScope, ExternalShock};
use funnel_suite::sim::kpi::KpiKind;
use funnel_suite::sim::world::{SimConfig, WorldBuilder};
use funnel_suite::timeseries::inject::ChangeShape;
use funnel_suite::topology::change::ChangeKind;
use funnel_suite::topology::impact::Entity;

pub fn main() {
    let mut b = WorldBuilder::new(SimConfig::days(7, 8));
    let svc_buggy = b.add_service("pay.gateway", 8).expect("fresh");
    let svc_shocked = b.add_service("pay.ledger", 8).expect("fresh");

    let t_change = 7 * 1440 + 10 * 60;
    let real_bug = ChangeEffect::none().with_level_shift(
        KpiKind::AccessFailureCount,
        EffectScope::TreatedInstances,
        45.0,
    );
    let buggy = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc_buggy,
            2,
            t_change,
            real_bug,
            "gateway v9",
        )
        .expect("valid");

    // An innocent change on the second service, with an external shock
    // hitting that whole service 10 minutes later.
    let innocent = b
        .deploy_change(
            ChangeKind::ConfigChange,
            svc_shocked,
            2,
            t_change + 5,
            ChangeEffect::none(),
            "ledger thread-pool bump",
        )
        .expect("valid");
    b.add_shock(ExternalShock {
        services: vec![svc_shocked],
        kind: KpiKind::AccessFailureCount,
        shape: ChangeShape::LevelShift { delta: 30.0 },
        onset: t_change + 15,
    });

    let world = b.build();
    let funnel = Funnel::paper_default();

    // --- the real regression is attributed ---
    let a1 = funnel.assess_change(&world, buggy).expect("assessable");
    let attributed: Vec<_> = a1
        .caused_items()
        .filter(|i| i.key.kind == KpiKind::AccessFailureCount)
        .collect();
    println!(
        "gateway v9: {} failure-count KPIs attributed to the upgrade (dark-launch control)",
        attributed.len()
    );
    assert!(!attributed.is_empty());
    assert!(attributed
        .iter()
        .all(|i| i.mode == AssessmentMode::DarkLaunchControl));

    // --- the shock-hit innocent change is exonerated ---
    let a2 = funnel.assess_change(&world, innocent).expect("assessable");
    let false_claims = a2
        .caused_items()
        .filter(|i| matches!(i.key.entity, Entity::Instance(_)))
        .count();
    let detections = a2.items.iter().filter(|i| i.detection.is_some()).count();
    println!(
        "ledger bump: {detections} raw detections on its KPIs, {false_claims} attributed \
         after DiD"
    );
    assert_eq!(
        false_claims, 0,
        "the external shock moved treated and control alike — DiD must reject it"
    );
    assert!(
        detections > 0,
        "the detector should see the shock (that is what DiD is for)"
    );
    println!("\nDiD separated the real regression from the external incident.");
}
