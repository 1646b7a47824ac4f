//! Diagnosing a change: why the verdict says what it says, and where.
//!
//! Part 1 replays the chaos scenario (a +60 ms dark-launch regression on
//! 2 of 8 `prod.search` instances, through a lossy transport) and runs the
//! opt-in diagnosis stage over the finished assessment, demonstrating its
//! three guarantees:
//!
//! 1. **read-only** — the assessment is byte-identical with the stage on
//!    or off;
//! 2. **deterministic** — the diagnosis report is byte-identical at 1, 3,
//!    and 8 assessment workers;
//! 3. **explanatory** — every `Caused` item gets a population-bias check,
//!    a contribution ranking, and an evidence dossier, written to
//!    `diag_report.json` and rendered for the operator.
//!
//! Part 2 is the bias check earning its keep: the same regression assessed
//! twice against hand-built telemetry, once with an honest control pool
//! (baseline matches the treated instances) and once with a *skewed* pool
//! that was already running 40 ms hotter before the deployment. The DiD
//! verdict is `caused` both times — the contrast subtracts the offset — but
//! only the diagnosis layer reports that the skewed counterfactual was
//! never exchangeable with the treated group (`population_mismatch`, à la
//! Lumos), telling the operator how much to trust the effect size.
//!
//! ```bash
//! cargo run --release --example diagnose_change
//! ```
//!
//! This is the worked example behind `OPERATORS.md`. Run as an example it
//! writes `results/diag_report.json`, the committed file;
//! `tests/examples.rs` runs it into a temporary directory and compares the
//! report with that file.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;

use funnel_suite::core::pipeline::{ChangeAssessment, Funnel};
use funnel_suite::core::{DiagConfig, FunnelConfig, KpiSource};
use funnel_suite::diag::{BiasFlag, DiagReport};
use funnel_suite::sim::agent::replay_with_faults;
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::faults::FaultPlan;
use funnel_suite::sim::kpi::{KpiKey, KpiKind};
use funnel_suite::sim::world::{SimConfig, World, WorldBuilder};
use funnel_suite::sim::MetricStore;
use funnel_suite::timeseries::series::TimeSeries;
use funnel_suite::topology::change::{ChangeId, ChangeKind};
use funnel_suite::topology::impact::{identify_impact_set, Entity};

/// The chaos scenario's world: a genuinely harmful dark launch.
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

fn funnel_with(workers: usize, diagnose: bool) -> Funnel {
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    if diagnose {
        config.diagnose = DiagConfig::on();
    }
    Funnel::new(config)
}

fn assess_and_diagnose(
    funnel: &Funnel,
    source: &(impl KpiSource + Sync),
    world: &World,
    change: ChangeId,
) -> (ChangeAssessment, Option<DiagReport>) {
    let record = world.change_log().get(change).expect("logged");
    let assessment = funnel
        .assess_change_with(source, world.topology(), record, &|s| {
            world.kinds_of_service(s).to_vec()
        })
        .expect("assessable");
    let diagnosis = funnel.diagnose(source, world.topology(), record, &assessment);
    (assessment, diagnosis)
}

/// A hand-built telemetry source: one fixed series per KPI key. What the
/// bias demo needs is precise control over the control pool's baseline,
/// which no honest simulator provides.
struct MapSource {
    series: BTreeMap<KpiKey, TimeSeries>,
}

impl KpiSource for MapSource {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        self.series.get(key).map(Cow::Borrowed)
    }
}

/// Deterministic per-key, per-minute jitter with 7 distinct values — enough
/// texture that the quality screen has nothing to flag.
fn jitter(salt: u64, minute: u64) -> f64 {
    (minute
        .wrapping_mul(2654435761)
        .wrapping_add(salt.wrapping_mul(97))
        % 7) as f64
        * 0.5
}

fn key_salt(key: &KpiKey) -> u64 {
    let entity = match key.entity {
        Entity::Server(s) => 1000 + s.0 as u64,
        Entity::Instance(i) => 2000 + i.0 as u64,
        Entity::Service(s) => 3000 + s.0 as u64,
    };
    entity * 31 + key.kind.name().len() as u64
}

/// Builds the bias-demo world and telemetry: a +60 level shift on the two
/// treated instances' delay KPI, over a fleet whose control instances run
/// at `control_level`. `180.0` is honest (matches the treated baseline);
/// `220.0` is a pool that was hotter *before* the deployment ever landed.
fn bias_demo(control_level: f64) -> (World, ChangeId, MapSource) {
    let mut b = WorldBuilder::new(SimConfig::days(9, 8));
    let svc = b.add_service("prod.pipe", 8).expect("fresh");
    let t0 = 8 * 1440;
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            t0,
            ChangeEffect::none(),
            "pipe rebalance v2",
        )
        .expect("valid");
    let world = b.build();

    let record = world.change_log().get(change).expect("logged");
    let impact = identify_impact_set(world.topology(), record).expect("impact set");
    let work = funnel_suite::core::enumerate_work_units(&impact, record, &|s| {
        world.kinds_of_service(s).to_vec()
    });

    // Every series the assessment and the diagnosis will read: the work
    // units, plus the dark-launch control pools at both levels.
    let mut keys = work;
    for &i in &impact.cinstances {
        for &kind in world.kinds_of_service(svc) {
            keys.push(KpiKey::new(Entity::Instance(i), kind));
        }
    }
    for &s in &impact.cservers {
        for kind in KpiKind::SERVER_KINDS {
            keys.push(KpiKey::new(Entity::Server(s), kind));
        }
    }
    keys.sort_unstable();
    keys.dedup();

    let start = t0 - 300;
    let end = t0 + 101;
    let mut series = BTreeMap::new();
    for key in keys {
        let treated_delay = key.kind == KpiKind::PageViewResponseDelay
            && matches!(key.entity, Entity::Instance(i) if impact.tinstances.contains(&i));
        let control = match key.entity {
            Entity::Instance(i) => impact.cinstances.contains(&i),
            Entity::Server(s) => impact.cservers.contains(&s),
            Entity::Service(_) => false,
        };
        let level = if control { control_level } else { 180.0 };
        let salt = key_salt(&key);
        let values: Vec<f64> = (start..end)
            .map(|m| {
                let shift = if treated_delay && m >= t0 { 60.0 } else { 0.0 };
                level + shift + jitter(salt, m)
            })
            .collect();
        series.insert(key, TimeSeries::new(start, values));
    }
    (world, change, MapSource { series })
}

fn main() {
    run(Path::new("results"));
}

/// Both parts, writing part 1's diagnosis report into `dir`.
pub(crate) fn run(dir: &Path) {
    // ---- Part 1: the chaos scenario, diagnosed -------------------------
    let (world, change) = build_world();
    let store = MetricStore::new();
    let stats =
        replay_with_faults(&world, &store, 4, FaultPlan::lossy(2026, 0.10)).expect("replay");
    println!(
        "replayed {} minutes: {} frames accepted, {} dropped, {} quarantined",
        stats.minutes, stats.frames, stats.dropped_frames, stats.quarantined_frames,
    );

    // Read-only: the assessment must be byte-identical diag-on vs diag-off.
    let (plain, none) = assess_and_diagnose(&funnel_with(1, false), &store, &world, change);
    assert!(none.is_none(), "disabled stage must return no report");
    let (diagnosed, report) = assess_and_diagnose(&funnel_with(1, true), &store, &world, change);
    assert_eq!(
        format!("{plain:?}"),
        format!("{diagnosed:?}"),
        "enabling diagnosis perturbed the assessment"
    );
    let report = report.expect("enabled stage must report");

    // Deterministic: byte-identical diagnosis at any worker count.
    let json = report.to_json();
    for workers in [3usize, 8] {
        let (_, again) = assess_and_diagnose(&funnel_with(workers, true), &store, &world, change);
        assert_eq!(
            json,
            again.expect("enabled").to_json(),
            "diagnosis diverged at {workers} workers"
        );
    }
    println!("diagnosis byte-identical at 1/3/8 workers; assessment unchanged by the stage");

    let path = dir.join("diag_report.json");
    report.write_json(&path).expect("write report");
    println!("wrote {}\n", path.display());
    print!("{}", report.render());
    assert!(!report.items.is_empty(), "chaos run must diagnose items");
    assert_eq!(
        report.items.len(),
        diagnosed.caused_items().count(),
        "default stage diagnoses exactly the caused items"
    );

    // ---- Part 2: the population-bias check -----------------------------
    let funnel = funnel_with(1, true);

    let (honest_world, honest_change, honest_src) = bias_demo(180.0);
    let (honest_assessment, honest) =
        assess_and_diagnose(&funnel, &honest_src, &honest_world, honest_change);
    let honest = honest.expect("enabled");
    assert!(honest_assessment.has_impact(), "regression must be caught");
    assert_eq!(honest.mismatch_count(), 0, "honest pool wrongly flagged");

    let (skewed_world, skewed_change, skewed_src) = bias_demo(220.0);
    let (skewed_assessment, skewed) =
        assess_and_diagnose(&funnel, &skewed_src, &skewed_world, skewed_change);
    let skewed = skewed.expect("enabled");
    assert!(skewed_assessment.has_impact(), "regression must be caught");
    assert!(
        skewed.mismatch_count() > 0,
        "pre-skewed pool must flag population_mismatch"
    );
    assert!(skewed
        .items
        .iter()
        .all(|i| i.bias.flag != BiasFlag::NoControl));

    println!("\n--- bias check: same verdict, different trust ---");
    for (name, diag) in [("honest pool", &honest), ("skewed pool", &skewed)] {
        let flags: Vec<&str> = diag.items.iter().map(|i| i.bias.flag.label()).collect();
        println!(
            "{name}: {} caused item(s), bias flags {flags:?}",
            diag.items.len()
        );
    }
    println!("\nthe DiD verdict is `caused` either way — the diagnosis layer is what");
    println!("tells the operator the skewed pool was never a fair counterfactual.");
}
