//! The examples, called through their `main`s or, for the two that write
//! committed files, their `run`s. Each one asserts its own outcome (it
//! panics on a regression), so `cargo test` holds them as it holds any test.
//! `pipeline_health` and `diagnose_change` write into a temporary directory,
//! and their verdict files must be the committed `results/` ones byte for
//! byte. `chaos_assessment` writes its wall-clock obs report and runs as an
//! example in CI instead.

#[path = "../examples/ad_anticheat_incident.rs"]
mod ad_anticheat_incident;
#[path = "../examples/dark_launch_assessment.rs"]
mod dark_launch_assessment;
#[path = "../examples/diagnose_change.rs"]
#[expect(dead_code, reason = "the test calls its run, not its main")]
mod diagnose_change;
#[path = "../examples/online_streaming.rs"]
mod online_streaming;
#[path = "../examples/partition_heal.rs"]
mod partition_heal;
#[path = "../examples/pipeline_health.rs"]
#[expect(dead_code, reason = "the test calls its run, not its main")]
mod pipeline_health;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/redis_load_balancing.rs"]
mod redis_load_balancing;

use std::path::Path;
use std::sync::{PoisonError, RwLock};

/// `pipeline_health` records the process-wide obs timeline and judges what
/// it holds, so it runs alone: every other example holds this lock shared.
static OBS: RwLock<()> = RwLock::new(());

/// Runs `main` beside the other examples.
fn shared(main: fn()) {
    let _shared = OBS.read().unwrap_or_else(PoisonError::into_inner);
    main();
}

/// Runs `run` into a fresh temporary directory and compares the `file` it
/// writes there with the committed `results/` one.
fn matches_results(run: fn(&Path), file: &str) {
    let dir = std::env::temp_dir().join(format!("funnel-example-{file}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    run(&dir);
    let got = std::fs::read_to_string(dir.join(file)).expect("written file");
    std::fs::remove_dir_all(&dir).expect("temporary directory removed");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    let want = std::fs::read_to_string(committed).expect("committed file");
    assert!(got == want, "{file} differs from results/{file}:\n{got}");
}

#[test]
fn quickstart_runs() {
    shared(quickstart::main);
}

#[test]
fn redis_load_balancing_runs() {
    shared(redis_load_balancing::main);
}

#[test]
fn ad_anticheat_incident_runs() {
    shared(ad_anticheat_incident::main);
}

#[test]
fn dark_launch_assessment_runs() {
    shared(dark_launch_assessment::main);
}

#[test]
fn online_streaming_runs() {
    shared(online_streaming::main);
}

#[test]
fn partition_heal_runs() {
    shared(partition_heal::main);
}

#[test]
fn diagnose_change_writes_the_committed_report() {
    let _shared = OBS.read().unwrap_or_else(PoisonError::into_inner);
    matches_results(diagnose_change::run, "diag_report.json");
}

#[test]
fn pipeline_health_writes_the_committed_verdict() {
    let _alone = OBS.write().unwrap_or_else(PoisonError::into_inner);
    matches_results(pipeline_health::run, "pipeline_health.json");
}
