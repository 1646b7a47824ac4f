//! The examples no other test runs, called through their `main`s. Each one
//! asserts its own outcome (it panics on a regression) and writes no file,
//! so `cargo test` holds them as it holds any test. `chaos_assessment`,
//! `diagnose_change` and `pipeline_health` write artifacts and run as
//! examples in CI instead.

#[path = "../examples/ad_anticheat_incident.rs"]
mod ad_anticheat_incident;
#[path = "../examples/dark_launch_assessment.rs"]
mod dark_launch_assessment;
#[path = "../examples/online_streaming.rs"]
mod online_streaming;
#[path = "../examples/partition_heal.rs"]
mod partition_heal;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/redis_load_balancing.rs"]
mod redis_load_balancing;

#[test]
fn quickstart_runs() {
    quickstart::main();
}

#[test]
fn redis_load_balancing_runs() {
    redis_load_balancing::main();
}

#[test]
fn ad_anticheat_incident_runs() {
    ad_anticheat_incident::main();
}

#[test]
fn dark_launch_assessment_runs() {
    dark_launch_assessment::main();
}

#[test]
fn online_streaming_runs() {
    online_streaming::main();
}

#[test]
fn partition_heal_runs() {
    partition_heal::main();
}
