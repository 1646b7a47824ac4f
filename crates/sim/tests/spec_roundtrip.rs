//! JSON parse tests for the declarative world spec and the fault plan.

use funnel_sim::faults::FaultPlan;
use funnel_sim::spec::*;

fn demo_json() -> &'static str {
    r#"{
        "seed": 11,
        "days": 8,
        "services": [
            {"name": "pay.gateway", "instances": 6},
            {"name": "pay.ledger", "instances": 3, "extra_kinds": ["effective_click_count"]}
        ],
        "relations": [["pay.gateway", "pay.ledger"]],
        "changes": [
            {
                "service": "pay.gateway",
                "kind": "upgrade",
                "targets": 2,
                "day": 7,
                "minute_of_day": 540,
                "description": "gateway v9",
                "effects": [
                    {"kpi": "access_failure_count", "scope": "treated_instances", "delta": 40.0},
                    {"kpi": "memory_utilization", "scope": "treated_servers", "delta": 12.0, "ramp_minutes": 30}
                ]
            },
            {
                "service": "pay.ledger",
                "kind": "config_change",
                "targets": 3,
                "day": 7,
                "minute_of_day": 700
            }
        ],
        "shocks": [
            {"services": ["pay.ledger"], "kpi": "page_view_count", "delta": -200.0,
             "day": 7, "minute_of_day": 800, "spike_minutes": 4}
        ]
    }"#
}

#[test]
fn json_parses_and_builds() {
    let spec: WorldSpec = serde_json::from_str(demo_json()).expect("valid JSON spec");
    assert_eq!(spec.services.len(), 2);
    assert_eq!(spec.changes.len(), 2);
    let built = spec.build().expect("buildable");
    assert_eq!(built.changes.len(), 2);
    let log = built.world.change_log();
    // Change 0 is a dark launch (2 of 6), change 1 full (3 of 3).
    use funnel_topology::change::LaunchMode;
    assert_eq!(log.get(built.changes[0]).unwrap().launch, LaunchMode::Dark);
    assert_eq!(log.get(built.changes[1]).unwrap().launch, LaunchMode::Full);
    // Ground truth: 2 instance failures + service + 2 servers (memory ramp).
    assert_eq!(built.world.ground_truth().len(), 5);
}

#[test]
fn built_world_assessable_end_to_end() {
    let spec: WorldSpec = serde_json::from_str(demo_json()).unwrap();
    let built = spec.build().unwrap();
    let funnel = funnel_core::pipeline::Funnel::paper_default();
    let a = funnel
        .assess_change(&built.world, built.changes[0])
        .expect("assessable");
    assert!(
        a.has_impact(),
        "the 40-unit failure surge should be attributed"
    );
}

/// The message of a parse that must fail.
fn refusal<T: serde::Deserialize + std::fmt::Debug>(json: &str) -> String {
    serde_json::from_str::<T>(json)
        .expect_err("a misspelt key must be refused")
        .to_string()
}

#[test]
fn a_misspelt_spec_field_is_refused_with_its_path() {
    // `ramp_minutes` is optional, so a typo used to take its default.
    let typo = demo_json().replace(r#""ramp_minutes": 30"#, r#""ramp_minute": 30"#);
    let err = refusal::<WorldSpec>(&typo);
    assert!(
        err.starts_with("changes[0].effects[1].ramp_minute: unknown field of EffectSpec"),
        "{err}"
    );
    let top = demo_json().replacen(r#""seed": 11"#, r#""sed": 11"#, 1);
    assert!(refusal::<WorldSpec>(&top).starts_with("sed: unknown field"));
}

#[test]
fn a_misspelt_fault_plan_field_is_refused_with_its_path() {
    let err = refusal::<FaultPlan>(r#"{"seed": 5, "drop_frames_prob": 0.25}"#);
    assert!(
        err.starts_with("drop_frames_prob: unknown field of FaultPlan"),
        "{err}"
    );
    let nested = refusal::<FaultPlan>(
        r#"{"partitions": [
            {"scope": "Collector", "start": 2, "duration": 2, "heal": "SilentDrop"},
            {"scope": {"Zone": {"zone": 1, "zones": 3}}, "start": 10, "duration": 5,
             "heal": {"StaggeredCatchUp": {"queue": 8, "per_minutes": 2}}}
        ]}"#,
    );
    assert!(
        nested.starts_with(
            "partitions[1].heal.StaggeredCatchUp.per_minutes: \
             unknown field of HealMode::StaggeredCatchUp"
        ),
        "{nested}"
    );
}
