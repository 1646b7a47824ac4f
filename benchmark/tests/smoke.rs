//! Every workload at smoke size, untraced and traced: the harness's own
//! paths end to end, in seconds. One test per workload, because a workload
//! owns its scratch directory and its trace file.

use funnel_benchmark::metrics::{Outcome, END_TO_END, PER_LAYER};
use funnel_benchmark::{out_dir, run_workload, Size};

fn run(workload: &str, trace: bool) -> Outcome {
    let outcome = run_workload(workload, 7, 0.2, trace, Size::Smoke);
    assert_eq!(outcome.verdicts.failed, 0, "{:?}", outcome.verdicts.notes);
    assert!(outcome.verdicts.attempted > 0);
    outcome
}

/// Untraced then traced; returns the traced outcome.
fn smoke(workload: &str) -> Outcome {
    let untraced = run(workload, false);
    for m in END_TO_END {
        let value = untraced.value(m.name);
        assert!(
            value.is_some_and(|v| v > 0.0 && v.is_finite()),
            "{workload}: {} = {value:?}",
            m.name
        );
    }
    let traced = run(workload, true);
    assert_eq!(untraced.inputs, traced.inputs);
    assert!(traced.value("obs.trace_overhead_pct").is_some());
    assert!(traced.value("obs.spans").is_some_and(|spans| spans > 0.0));
    assert!(out_dir().join(format!("trace-{workload}.json")).is_file());
    let scratch = out_dir().join(format!("tmp-{}-{workload}", std::process::id()));
    assert!(!scratch.exists(), "{} left behind", scratch.display());
    traced
}

#[test]
fn ingest_clean() {
    smoke("ingest_clean");
}

/// A per-layer metric that is counted, not timed, repeats exactly.
#[test]
fn ingest_heal() {
    let first = smoke("ingest_heal");
    let second = run("ingest_heal", true);
    let mut counted = 0;
    for (name, unit) in PER_LAYER {
        if unit == "count" || name.ends_with(".bytes") {
            assert_eq!(first.value(name), second.value(name), "{name}");
            counted += usize::from(first.value(name).is_some_and(|v| v > 0.0));
        }
    }
    assert!(counted >= 8, "only {counted} exact counts reported");
}

#[test]
fn batch_fleet() {
    smoke("batch_fleet");
}

#[test]
fn stream_live() {
    smoke("stream_live");
}
