//! Cross-crate integration tests: the full FUNNEL pipeline over simulated
//! worlds, exercising every crate together.

#[path = "../crates/detect/tests/eager_reference/mod.rs"]
mod eager_reference;

use funnel_suite::core::config::{MIN_COVERAGE, MIN_PARTITION_GAP};
use funnel_suite::core::pipeline::{AssessmentMode, Funnel};
use funnel_suite::core::FunnelConfig;
use funnel_suite::detect::delay::{detection_delay, DelayOutcome};
use funnel_suite::sim::effect::{ChangeEffect, EffectScope, ExternalShock};
use funnel_suite::sim::kpi::KpiKind;
use funnel_suite::sim::world::{SimConfig, World, WorldBuilder};
use funnel_suite::timeseries::inject::ChangeShape;
use funnel_suite::topology::change::{ChangeId, ChangeKind, LaunchMode};
use funnel_suite::topology::impact::Entity;

/// A dark launch with a real regression: detected, attributed, and the
/// detection delay is operationally small.
#[test]
fn regression_detected_attributed_and_fast() {
    let mut b = WorldBuilder::new(SimConfig::days(11, 8));
    let svc = b.add_service("it.web", 6).unwrap();
    let minute = 7 * 1440 + 11 * 60;
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        90.0,
    );
    let change = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "slow build")
        .unwrap();
    let world = b.build();

    let funnel = Funnel::paper_default();
    let a = funnel.assess_change(&world, change).unwrap();
    assert!(a.has_impact());

    let item = a
        .caused_items()
        .find(|i| {
            i.key.kind == KpiKind::PageViewResponseDelay
                && matches!(i.key.entity, Entity::Instance(_))
        })
        .expect("treated instance delay attributed");
    let event = item.detection.expect("detected");
    let outcome = detection_delay(&[event], minute);
    match outcome {
        DelayOutcome::Detected { minutes } => {
            assert!(minutes <= 30, "delay {minutes} min too long");
        }
        DelayOutcome::Missed => panic!("detection exists but delay says missed"),
    }
}

/// A change with no effect on a service hit by an external shock: the
/// detector fires, DiD exonerates — no impact attributed.
#[test]
fn external_shock_not_blamed_on_software() {
    let mut b = WorldBuilder::new(SimConfig::days(13, 8));
    let svc = b.add_service("it.shocked", 6).unwrap();
    let minute = 7 * 1440 + 600;
    let change = b
        .deploy_change(
            ChangeKind::ConfigChange,
            svc,
            2,
            minute,
            ChangeEffect::none(),
            "noop",
        )
        .unwrap();
    b.add_shock(ExternalShock {
        services: vec![svc],
        kind: KpiKind::AccessFailureCount,
        shape: ChangeShape::LevelShift { delta: 40.0 },
        onset: minute + 10,
    });
    let world = b.build();

    let funnel = Funnel::paper_default();
    let a = funnel.assess_change(&world, change).unwrap();
    // The shock is detected on failure-count KPIs...
    let failure_detections = a
        .items
        .iter()
        .filter(|i| i.key.kind == KpiKind::AccessFailureCount && i.detection.is_some())
        .count();
    assert!(failure_detections > 0, "shock invisible to the detector?");
    // ...but none of it is attributed to the software change.
    let failure_blamed = a
        .caused_items()
        .filter(|i| i.key.kind == KpiKind::AccessFailureCount)
        .count();
    assert_eq!(failure_blamed, 0, "external shock wrongly attributed");
}

/// Full launch on a seasonal KPI: the seasonal-history mode handles the
/// missing control group, and the diurnal pattern alone is never blamed.
#[test]
fn full_launch_seasonal_mode() {
    let mut b = WorldBuilder::new(SimConfig::days(17, 9));
    let svc = b.add_service("it.seasonal", 5).unwrap();
    let minute = 8 * 1440 + 9 * 60; // morning ramp of day 8
                                    // Change 1: no effect, full launch, deployed on the steep diurnal rise.
    let clean = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            usize::MAX,
            minute,
            ChangeEffect::none(),
            "harmless",
        )
        .unwrap();
    // Change 2: real PVC drop, full launch, an hour and a half later.
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewCount,
        EffectScope::TreatedInstances,
        -500.0,
    );
    let buggy = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            usize::MAX,
            minute + 90,
            effect,
            "lossy",
        )
        .unwrap();
    let world = b.build();

    let mut config = FunnelConfig::paper_default();
    config.history_days = 7;
    let funnel = Funnel::new(config);

    let a_clean = funnel.assess_change(&world, clean).unwrap();
    assert!(
        a_clean
            .items
            .iter()
            .all(|i| i.mode == AssessmentMode::SeasonalHistory),
        "full launch must use the seasonal mode everywhere"
    );
    let pvc_blamed = a_clean
        .caused_items()
        .filter(|i| i.key.kind == KpiKind::PageViewCount)
        .count();
    assert_eq!(pvc_blamed, 0, "diurnal ramp blamed on a harmless change");

    let a_buggy = funnel.assess_change(&world, buggy).unwrap();
    assert!(
        a_buggy
            .caused_items()
            .any(|i| i.key.kind == KpiKind::PageViewCount),
        "real PVC drop missed"
    );
}

/// Launch-mode bookkeeping: dark launches expose a control group, full
/// launches do not; the impact set reflects §3.1 exactly.
#[test]
fn impact_set_shapes() {
    let mut b = WorldBuilder::new(SimConfig::days(23, 8));
    let a = b.add_service("it.a", 6).unwrap();
    let rel = b.add_service("it.b", 3).unwrap();
    b.relate(a, rel).unwrap();
    let dark = b
        .deploy_change(
            ChangeKind::Upgrade,
            a,
            2,
            7 * 1440 + 100,
            ChangeEffect::none(),
            "dark",
        )
        .unwrap();
    let world = b.build();

    let record = world.change_log().get(dark).unwrap();
    assert_eq!(record.launch, LaunchMode::Dark);
    let funnel = Funnel::paper_default();
    let assessment = funnel.assess_change(&world, dark).unwrap();
    let set = &assessment.impact_set;
    assert_eq!(set.tinstances.len(), 2);
    assert_eq!(set.cinstances.len(), 4);
    assert_eq!(set.affected_services, vec![rel]);
    // Monitored items: 2 servers × 4 + 2 instances × 3 + changed service × 3
    // + affected service × 3.
    assert_eq!(assessment.items.len(), 8 + 6 + 3 + 3);
    // Affected-service items are assessed seasonally even under dark launch.
    for item in &assessment.items {
        if item.key.entity == Entity::Service(rel) {
            assert_eq!(item.mode, AssessmentMode::SeasonalHistory);
        }
    }
}

/// Determinism across the whole stack: same seed ⇒ identical assessments.
#[test]
fn pipeline_is_deterministic() {
    let build = || {
        let mut b = WorldBuilder::new(SimConfig::days(31, 8));
        let svc = b.add_service("it.det", 4).unwrap();
        let effect = ChangeEffect::none().with_ramp(
            KpiKind::MemoryUtilization,
            EffectScope::TreatedServers,
            18.0,
            25,
        );
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 60, effect, "leak")
            .unwrap();
        (b.build(), id)
    };
    let funnel = Funnel::paper_default();
    let (w1, c1) = build();
    let (w2, c2) = build();
    let a1 = funnel.assess_change(&w1, c1).unwrap();
    let a2 = funnel.assess_change(&w2, c2).unwrap();
    assert_eq!(a1.items.len(), a2.items.len());
    for (x, y) in a1.items.iter().zip(a2.items.iter()) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.verdict.is_caused(), y.verdict.is_caused());
        assert_eq!(
            x.detection.map(|d| d.declared_at),
            y.detection.map(|d| d.declared_at)
        );
    }
}

/// The store-backed path equals the world-backed path: materialize the
/// world into the central store and assess from there.
#[test]
fn store_backed_assessment_matches_world_backed() {
    let mut b = WorldBuilder::new(SimConfig::days(37, 8));
    let svc = b.add_service("it.store", 4).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::AccessFailureCount,
        EffectScope::TreatedInstances,
        30.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 200, effect, "flaky")
        .unwrap();
    let world = b.build();
    let store = world.materialize().unwrap();

    let funnel = Funnel::paper_default();
    let record = world.change_log().get(id).unwrap();
    let from_world = funnel.assess_change(&world, id).unwrap();
    let from_store = funnel
        .assess_change_with(&store, world.topology(), record, &|s| {
            world.kinds_of_service(s).to_vec()
        })
        .unwrap();
    assert_eq!(from_world.items.len(), from_store.items.len());
    for (a, b) in from_world.items.iter().zip(from_store.items.iter()) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.verdict.is_caused(), b.verdict.is_caused());
    }
}

const GOLDEN_DURATION: u64 = 2 * 1440;

/// The fixed-seed scenario behind `tests/golden/`: a dark launch carrying a
/// real response-delay shift, then a harmless full launch, two days long.
fn golden_scenario() -> (World, [ChangeId; 2], FunnelConfig) {
    let mut b = WorldBuilder::new(SimConfig::days(2015, 2));
    let dark_svc = b.add_service("gold.dark", 4).unwrap();
    let full_svc = b.add_service("gold.full", 3).unwrap();
    let minute = 1440 + 9 * 60;
    let shift = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        60.0,
    );
    let dark = b
        .deploy_change(
            ChangeKind::Upgrade,
            dark_svc,
            2,
            minute,
            shift,
            "slow build",
        )
        .unwrap();
    let full = b
        .deploy_change(
            ChangeKind::ConfigChange,
            full_svc,
            usize::MAX,
            minute + 45,
            ChangeEffect::none(),
            "harmless",
        )
        .unwrap();
    let mut config = FunnelConfig::paper_default();
    config.history_days = 1;
    (b.build(), [dark, full], config)
}

/// Verdict bytes are pinned **across commits**: a fixed-seed scenario (a
/// dark launch carrying a real response-delay shift, then a harmless full
/// launch) is assessed in batch and through the streaming engine over a
/// feed with late measurements, and the rendered reports, the `Debug` of
/// every item and every live declaration are compared with the files
/// under `tests/golden/`. A kernel change that moves one low-order bit of
/// one score moves these files. Re-record (and review the diff) with
/// `FUNNEL_BLESS=1 cargo test --test end_to_end golden`.
#[test]
fn verdict_bytes_match_committed_golden() {
    use funnel_suite::core::report::render;
    use funnel_suite::core::{StreamConfig, StreamEngine};
    use funnel_suite::sim::live::LiveFeed;
    use std::fmt::Write as _;

    let (world, [dark, full], config) = golden_scenario();
    let funnel = Funnel::new(config.clone());

    let mut batch = String::new();
    for id in [dark, full] {
        let a = funnel.assess_change(&world, id).unwrap();
        batch.push_str(&render(world.topology(), &a));
        writeln!(batch, "{:#?}", a.items).unwrap();
    }
    check_golden("batch.txt", &batch);

    let mut stream_cfg = StreamConfig::paired_with(&config);
    stream_cfg.ring_capacity = StreamConfig::capacity_for(&config, GOLDEN_DURATION);
    let kinds = world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect();
    let mut engine = StreamEngine::new(config, stream_cfg, kinds);
    for id in [dark, full] {
        let record = world.change_log().get(id).unwrap().clone();
        engine.track_change(world.topology(), record).unwrap();
    }
    let feed = LiveFeed::from_store(&world.materialize().unwrap()).with_late(2015, 10, 5);
    let mut stream = String::new();
    for (tick, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        let report = engine.tick(tick);
        for d in &report.detections {
            writeln!(stream, "tick {tick}: {d:?}").unwrap();
        }
        for done in &report.completed {
            writeln!(
                stream,
                "tick {tick}: change #{} completed, shed {:?}, stale {:?}, latency {:?}\n{:#?}",
                done.change.0, done.shed, done.stale, done.detection_latency, done.items
            )
            .unwrap();
        }
    }
    let stats = engine.stats();
    writeln!(
        stream,
        "folds {}, detections {}, late_backfilled {}",
        stats.folds, stats.detections, stats.late_backfilled
    )
    .unwrap();
    check_golden("stream.txt", &stream);
}

/// The shipped detector plans its scoring — the bound on every window, the
/// kernel only on windows a declaration can rest on — and must declare
/// exactly what scoring every window declared. Every item of the golden
/// scenario is re-detected here by the frozen eager loop
/// (`detect/tests/eager_reference`) over plain `score_window`, from the
/// world (the unmasked path) and from a store fed out of order (the
/// coverage- and gap-aware path), and compared with the detection the
/// pipeline put in the item, with the shipped runner's `run` and with its
/// `decide` at the deploy minute.
#[test]
fn shipped_detector_matches_the_eager_reference_on_the_golden_scenario() {
    use eager_reference::{event_bits, EagerRunner};
    use funnel_suite::core::source::KpiSource;
    use funnel_suite::detect::detector::{ChangeEvent, Coverage, DetectorRunner};
    use funnel_suite::detect::sst_adapter::SstDetector;
    use funnel_suite::sim::live::LiveFeed;
    use funnel_suite::sim::store::MetricStore;
    use funnel_suite::sst::{FastSst, SstScorer};
    use funnel_suite::timeseries::series::TimeSeries;

    let (world, changes, config) = golden_scenario();
    let funnel = Funnel::new(config.clone());
    let fast = FastSst::new(config.sst.clone());
    let shipped = DetectorRunner::new(
        SstDetector::fast(fast.clone()),
        config.sst_threshold,
        config.persistence_minutes,
    );
    let mut eager = EagerRunner {
        reaching: |window: &[f64], threshold: f64| {
            let score = fast.score_window(window);
            (score >= threshold).then_some(score)
        },
        width: config.sst.window_len(),
        threshold: config.sst_threshold,
        persistence: config.persistence_minutes,
    };

    // 5% of the feed arrives twenty minutes late and is refused by the
    // live append, and the response-delay KPIs go dark for a quarter of an
    // hour twenty minutes into the first change: the masks carry scattered
    // holes and one partition-length gap.
    let store = MetricStore::new();
    let feed = LiveFeed::from_store(&world.materialize().unwrap()).with_late(2015, 50, 20);
    let dark_at = world.change_log().get(changes[0]).unwrap().minute + 20;
    for (_, batch) in feed.arrivals() {
        for m in batch {
            let dark = m.key.kind == KpiKind::PageViewResponseDelay
                && (dark_at..dark_at + 15).contains(&m.minute);
            if !dark {
                store.append(m.key, m.minute, m.value);
            }
        }
    }
    let snapshot = store.snapshot();

    let (mut items, mut detected, mut skipped, mut suppressed) = (0, 0, 0, 0);
    let mut refused_only = 0;
    for id in changes {
        let record = world.change_log().get(id).unwrap();
        let from_world = funnel.assess_change(&world, id).unwrap();
        let from_store = funnel
            .assess_change_with(&snapshot, world.topology(), record, &|s| {
                world.kinds_of_service(s).to_vec()
            })
            .unwrap();
        for item in &from_world.items {
            let series = KpiSource::series(&world, &item.key).unwrap();
            let (lo, to) = item.window;
            let window = TimeSeries::new(lo, series.slice(lo, to).to_vec());
            let want = eager.run(&window);
            assert_eq!(event_bits(&shipped.run(&window)), event_bits(&want));
            let first = want.into_iter().find(|e| e.declared_at >= record.minute);
            let decision = shipped.decide(&window, None, record.minute);
            assert_eq!(
                (event_bits(decision.event.as_slice()), decision.refused),
                (event_bits(first.as_slice()), false),
                "world-backed {:?}",
                item.key
            );
            assert_eq!(
                event_bits(item.detection.as_slice()),
                event_bits(first.as_slice()),
                "world-backed {:?}",
                item.key
            );
            items += 1;
            detected += usize::from(first.is_some());
        }
        for item in &from_store.items {
            let series = snapshot.get(&item.key).unwrap();
            let mask = snapshot.mask(&item.key).unwrap();
            let (lo, to) = item.window;
            let window = TimeSeries::new(lo, series.slice(lo, to).to_vec());
            let (min_coverage, min_gap) = (MIN_COVERAGE, MIN_PARTITION_GAP);
            let all = eager.run_masked(&window, &mask, min_coverage).events;
            let want = eager.run_masked_gap_aware(&window, &mask, min_coverage, min_gap);
            skipped += want.skipped_windows;
            suppressed += want.suppressed_events;
            let refused = want.suppressed_events > 0;
            let first = want
                .events
                .iter()
                .copied()
                .find(|e| e.declared_at >= record.minute);
            // The decision by its definition: that event, and whether the
            // gap rule refused one declared before it.
            let cut = first.map_or(u64::MAX, |e| e.declared_at);
            let before =
                |events: &[ChangeEvent]| events.iter().filter(|e| e.declared_at < cut).count();
            let defined = (
                event_bits(first.as_slice()),
                before(&all) > before(&want.events),
            );
            let coverage = Coverage {
                gaps: &mask.gaps_in(window.start(), window.end()),
                min_coverage,
                min_gap,
            };
            let decision = shipped.decide(&window, Some(coverage), record.minute);
            assert_eq!(
                (event_bits(decision.event.as_slice()), decision.refused),
                defined,
                "store-backed {:?}",
                item.key
            );
            assert_eq!(
                event_bits(item.detection.as_slice()),
                event_bits(first.as_slice()),
                "store-backed {:?}",
                item.key
            );
            // With enough coverage and nothing retained, the verdict waits
            // for a backfill exactly when the gap rule refused a change
            // point anywhere in the window, before the deploy minute too.
            if item.quality.coverage >= MIN_COVERAGE && first.is_none() {
                assert_eq!(
                    item.verdict.awaiting_backfill(),
                    refused,
                    "store-backed {:?}",
                    item.key
                );
                refused_only += usize::from(refused);
            }
            items += 1;
            detected += usize::from(first.is_some());
        }
    }
    assert!(
        items > 40 && detected > 0 && skipped > 0 && suppressed > 0 && refused_only > 0,
        "{items} items, {detected} detections, {skipped} skipped windows, \
         {suppressed} suppressed events, {refused_only} items whose verdict rests on a \
         refused change point: too little was compared"
    );
}

/// Compares `got` with `tests/golden/<name>`, or rewrites the file when
/// `FUNNEL_BLESS` is set.
fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("FUNNEL_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        got == want,
        "{} differs from the committed golden — a verdict byte moved",
        path.display()
    );
}
