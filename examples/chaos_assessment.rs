//! Chaos run: a dark-launch assessment over degraded telemetry.
//!
//! A real regression (+60 ms response delay on 2 of 8 treated instances) is
//! replayed through the agent → collector path while a deterministic fault
//! plan mauls the transport: ~10 % of agent frames are dropped and a
//! sprinkling are corrupted in flight. The hardened ingestion quarantines
//! what cannot be decoded, the store's coverage masks record what was
//! really measured, and the assessment pipeline annotates every verdict
//! with that provenance — attributing only what adequate data supports and
//! reporting the rest as inconclusive.
//!
//! ```bash
//! cargo run --release --example chaos_assessment
//! ```
//!
//! With `FUNNEL_OBS=1` the whole run executes twice — first with recording
//! off, then with it on — asserts the assessment and rendered report are
//! byte-identical either way (observability is write-only), and writes
//! `results/obs_report.json` plus a stage-timing summary. This is the CI
//! `Obs example` step.

use funnel_suite::core::config::MIN_COVERAGE;
use funnel_suite::core::pipeline::{ChangeAssessment, Funnel};
use funnel_suite::core::report;
use funnel_suite::sim::agent::{replay_with_faults, ReplayStats};
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::faults::FaultPlan;
use funnel_suite::sim::kpi::KpiKind;
use funnel_suite::sim::world::{SimConfig, World, WorldBuilder};
use funnel_suite::sim::MetricStore;
use funnel_suite::topology::change::{ChangeId, ChangeKind};

/// One-service world with a genuinely harmful dark launch.
fn build_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(23, 8));
    let svc = b.add_service("prod.search", 8).expect("fresh");
    let regression = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        60.0,
    );
    let t_change = 7 * 1440 + 9 * 60;
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            t_change,
            regression,
            "search ranker v4",
        )
        .expect("valid");
    (b.build(), change)
}

/// The full chaos story: lossy replay, then assessment of the degraded
/// store. Everything returned is derived deterministically from the seeds.
fn run(world: &World, change: ChangeId, funnel: &Funnel) -> (ReplayStats, ChangeAssessment) {
    // Replay through the lossy transport: ~10 % frame loss plus a little
    // in-flight corruption, all reproducible from the seed.
    let plan = FaultPlan::lossy(2026, 0.10);
    let store = MetricStore::new();
    let stats = replay_with_faults(world, &store, 4, plan).expect("replay");
    let record = world.change_log().get(change).expect("logged");
    let assessment = funnel
        .assess_change_with(&store, world.topology(), record, &|s| {
            world.kinds_of_service(s).to_vec()
        })
        .expect("assessable");
    (stats, assessment)
}

fn main() {
    let obs_requested = funnel_suite::obs::init_from_env();
    // The baseline pass always runs uninstrumented, so the byte-identity
    // check below compares a genuinely recording run against it.
    funnel_suite::obs::disable();

    let (world, change) = build_world();
    let funnel = Funnel::paper_default();
    let (stats, assessment) = run(&world, change, &funnel);
    println!(
        "replayed {} minutes: {} frames accepted, {} dropped, {} quarantined",
        stats.minutes, stats.frames, stats.dropped_frames, stats.quarantined_frames,
    );

    let rendered = report::render(world.topology(), &assessment);
    println!("\n{rendered}");

    let caused = assessment.caused_items().count();
    let inconclusive = assessment.inconclusive_items().count();
    println!(
        "verdicts: {caused} attributed, {inconclusive} inconclusive, {} total items",
        assessment.items.len()
    );

    // The guarantees this example demonstrates:
    // 1. nothing was attributed on inadequate data,
    assert!(
        assessment
            .caused_items()
            .all(|i| i.quality.coverage >= MIN_COVERAGE),
        "an attribution rests on sub-threshold coverage"
    );
    // 2. every verdict carries its provenance,
    assert!(assessment.items.iter().all(|i| i.quality.coverage <= 1.0));
    // 3. inconclusive items are flagged as such, never silently cleared.
    assert!(assessment
        .items
        .iter()
        .filter(|i| i.verdict.is_inconclusive())
        .all(|i| !i.verdict.is_caused()));

    println!(
        "\nall attributions rest on >= {:.0}% measured data.",
        MIN_COVERAGE * 100.0
    );

    if obs_requested {
        // Second pass, recording on: observability is write-only, so both
        // the assessment and the operator report must be byte-identical to
        // the uninstrumented run.
        funnel_suite::obs::enable();
        funnel_suite::obs::reset();
        let (_, instrumented) = run(&world, change, &funnel);
        assert_eq!(
            format!("{assessment:?}"),
            format!("{instrumented:?}"),
            "recording changed the assessment"
        );
        assert_eq!(
            rendered,
            report::render(world.topology(), &instrumented),
            "recording changed the rendered report"
        );
        let obs = funnel_suite::obs::report::write_default_if_enabled()
            .expect("write obs report")
            .expect("recording is on");
        println!(
            "\ninstrumented re-run byte-identical; wrote {}",
            funnel_suite::obs::report::DEFAULT_PATH
        );
        print!("{}", obs.human_summary());
    }
}
