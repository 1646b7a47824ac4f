//! FUNNEL watches FUNNEL: the pipeline's own telemetry, assessed by the
//! pipeline's own detector.
//!
//! Two acts:
//!
//! 1. **A healthy day.** A full fleet replay (agents → collector → store)
//!    followed by a batch assessment runs with windowed telemetry on. The
//!    per-minute timeline (`obs_timeline.json`) and the Chrome trace-event
//!    export (`trace.json`, loadable in `chrome://tracing` or Perfetto) are
//!    written, and the self-monitor confirms every watched pipeline series
//!    is change-free.
//! 2. **An incident.** The same fleet replays through a 4-hour collector
//!    partition (every shard dark, nothing buffered). No extra monitoring
//!    code exists for this: the self-monitor feeds the pipeline's own
//!    `collector.frames_ingested` timeline to the same SST + persistence
//!    detector the paper aims at customer KPIs, and declares the ingest
//!    collapse within minutes of the fault — the `pipeline_health.json`
//!    verdict.
//!
//! ```bash
//! cargo run --release --example pipeline_health
//! ```
//!
//! Run as an example it writes its three files into `results/`, where
//! `pipeline_health.json` is committed (the trace and the timeline carry
//! wall-clock span times and are git-ignored); `tests/examples.rs` runs it
//! into a temporary directory and compares the verdict with the committed
//! file.

use funnel_suite::core::pipeline::Funnel;
use funnel_suite::core::selfmon::run_selfmon;
use funnel_suite::obs::trace::write_chrome_trace;
use funnel_suite::sim::agent::replay_with_faults;
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_suite::sim::kpi::KpiKind;
use funnel_suite::sim::world::{SimConfig, World, WorldBuilder};
use funnel_suite::sim::MetricStore;
use funnel_suite::topology::change::{ChangeId, ChangeKind};
use std::path::Path;

const PARTITION_START: u64 = 6 * 1440;
const PARTITION_MINUTES: u64 = 240;

pub(crate) fn build_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(29, 8));
    let svc = b.add_service("prod.health", 6).expect("fresh");
    let regression = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        70.0,
    );
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            7 * 1440 + 9 * 60,
            regression,
            "ranker v7",
        )
        .expect("valid");
    (b.build(), change)
}

/// Replays the fleet under `plan` and assesses the change, all with
/// windowed telemetry recording; returns the run's timeline snapshot.
pub(crate) fn instrumented_run(
    world: &World,
    change: ChangeId,
    plan: FaultPlan,
) -> funnel_suite::obs::timeline::TimelineReport {
    funnel_suite::obs::reset();
    let store = MetricStore::new();
    let stats = replay_with_faults(world, &store, 3, plan).expect("replay");
    println!(
        "  replayed {} minutes: {} frames accepted, {} lost to partition",
        stats.minutes, stats.frames, stats.partition_lost_frames
    );
    let record = world.change_log().get(change).expect("logged");
    let assessment = Funnel::paper_default()
        .assess_change_with(&store, world.topology(), record, &|s| {
            world.kinds_of_service(s).to_vec()
        })
        .expect("assessable");
    println!(
        "  assessment: {} items, {} attributed",
        assessment.items.len(),
        assessment.caused_items().count()
    );
    funnel_suite::obs::timeline_snapshot()
}

fn main() {
    funnel_suite::obs::init_from_env();
    run(Path::new("results"));
}

/// Both acts, writing the healthy day's timeline and trace and the
/// incident's verdict into `dir`.
pub(crate) fn run(dir: &Path) {
    funnel_suite::obs::enable();
    let (world, change) = build_world();

    // ── Act 1: a healthy day.
    println!("── healthy day ──");
    let timeline = instrumented_run(&world, change, FaultPlan::none());
    // What the artifacts are for: per-minute counter series to watch, and
    // span time per window (the trace's complete "X" events).
    assert!(
        !timeline.counters.is_empty() && !timeline.spans.is_empty(),
        "instrumented run recorded no counter series or no spans"
    );
    let (timeline_path, trace_path) = (dir.join("obs_timeline.json"), dir.join("trace.json"));
    timeline.write_json(&timeline_path).expect("write timeline");
    write_chrome_trace(&timeline, &trace_path).expect("write trace");
    println!(
        "  {} telemetry records across {} minute windows",
        timeline.records(),
        timeline.windows()
    );
    println!(
        "  wrote {} and {}",
        timeline_path.display(),
        trace_path.display()
    );
    let healthy = run_selfmon(&timeline);
    for s in &healthy.series {
        println!(
            "  {}: {} windows, {} alert(s)",
            s.name,
            s.windows,
            s.alerts.len()
        );
    }
    assert!(
        healthy.healthy(),
        "self-monitor raised a false alarm on a clean run: {healthy:?}"
    );
    println!("  self-monitor: healthy");

    // ── Act 2: a collector partition, caught by the pipeline's own KPIs.
    println!("\n── incident: {PARTITION_MINUTES}-minute collector partition ──");
    let plan = FaultPlan::none().with_partition(PartitionWindow {
        scope: PartitionScope::Collector,
        start: PARTITION_START,
        duration: PARTITION_MINUTES,
        heal: HealMode::SilentDrop,
    });
    let incident_timeline = instrumented_run(&world, change, plan);
    let incident = run_selfmon(&incident_timeline);
    assert!(
        !incident.healthy(),
        "the partition went undetected: {incident:?}"
    );
    let health_path = dir.join("pipeline_health.json");
    incident
        .write_json(&health_path)
        .expect("write health report");
    println!("  wrote {}", health_path.display());
    let ingest = incident
        .series
        .iter()
        .find(|s| s.name == funnel_suite::obs::names::FRAMES_INGESTED.as_str())
        .expect("watched series");
    assert!(!ingest.alerts.is_empty(), "ingest series must alert");
    for a in &ingest.alerts {
        println!(
            "  ALERT {}: change visible at minute {}, declared at minute {} (fault began at {})",
            ingest.name, a.first_exceeded_at, a.declared_at, PARTITION_START
        );
    }
    println!("\nno second monitoring stack: the detector that judges customer KPIs judged its own pipeline.");
    funnel_suite::obs::disable();
}
