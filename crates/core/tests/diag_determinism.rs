//! The diagnosis stage's headline contracts.
//!
//! * **Deterministic** — the diagnosis report is byte-identical at 1, 3,
//!   and 8 assessment workers, over degraded (lossy-replay) telemetry.
//! * **Read-only** — enabling the stage leaves the assessment itself
//!   byte-identical to a diag-off run, on both the batch and the
//!   streaming path.
//! * **Bias-aware** — a control pool that was already shifted before the
//!   deployment is flagged `population_mismatch` while the DiD verdict
//!   stays `caused`; an honest pool stays `clean`.
//! * **Streaming parity** — the engine's completion hook attaches the same
//!   diagnosis the batch path computes over an equivalent snapshot.

use funnel_core::pipeline::{ChangeAssessment, Funnel};
use funnel_core::{enumerate_work_units, DiagConfig, DiagReport, FunnelConfig, KpiSource};
use funnel_core::{StreamConfig, StreamEngine};
use funnel_diag::BiasFlag;
use funnel_sim::agent::{replay_with_faults, FaultPlan};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::live::LiveFeed;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sim::MetricStore;
use funnel_sst::SstConfig;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::{ChangeId, ChangeKind};
use funnel_topology::impact::{identify_impact_set, Entity};
use funnel_topology::model::ServiceId;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A dark-launch regression over a fleet large enough for a control pool.
fn lossy_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(17, 8));
    let svc = b.add_service("prod.search", 8).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        60.0,
    );
    let minute = 7 * 1440 + 9 * 60;
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, minute, effect, "diag chaos")
        .unwrap();
    (b.build(), id)
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
    let record = world.change_log().get(change).unwrap();
    let assessment = funnel
        .assess_change_with(source, world.topology(), record, &|s| {
            world.kinds_of_service(s).to_vec()
        })
        .unwrap();
    let diagnosis = funnel.diagnose(source, world.topology(), record, &assessment);
    (assessment, diagnosis)
}

#[test]
fn diag_report_is_byte_identical_across_worker_counts() {
    let (world, change) = lossy_world();
    let store = MetricStore::new();
    replay_with_faults(&world, &store, 4, FaultPlan::lossy(2026, 0.10)).unwrap();

    let (_, baseline) = assess_and_diagnose(&funnel_with(1, true), &store, &world, change);
    let baseline = baseline.unwrap();
    assert!(
        !baseline.items.is_empty(),
        "nothing diagnosed: identical empty reports prove nothing"
    );
    let baseline = baseline.to_json();
    assert!(baseline.contains("\"schema_version\": 1"));
    for workers in [3usize, 8] {
        let (_, again) = assess_and_diagnose(&funnel_with(workers, true), &store, &world, change);
        assert_eq!(
            baseline,
            again.unwrap().to_json(),
            "diagnosis diverged at {workers} workers"
        );
    }
}

#[test]
fn diagnosis_is_read_only_over_the_assessment() {
    let (world, change) = lossy_world();
    let store = MetricStore::new();
    replay_with_faults(&world, &store, 4, FaultPlan::lossy(2026, 0.10)).unwrap();

    let (plain, none) = assess_and_diagnose(&funnel_with(1, false), &store, &world, change);
    assert!(none.is_none(), "disabled stage must return no report");
    let (diagnosed, report) = assess_and_diagnose(&funnel_with(1, true), &store, &world, change);
    assert!(report.is_some(), "enabled stage must report");
    assert_eq!(
        format!("{:?}", plain.items),
        format!("{:?}", diagnosed.items),
        "enabling diagnosis perturbed the assessment items"
    );
}

// ---- bias check -------------------------------------------------------

/// One fixed series per key: the bias tests need exact control over the
/// control pool's pre-change baseline.
struct MapSource {
    series: BTreeMap<KpiKey, TimeSeries>,
}

impl KpiSource for MapSource {
    fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
        self.series.get(key).map(Cow::Borrowed)
    }
}

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

/// A +60 delay shift on the treated instances over hand-built telemetry
/// whose control instances idle at `control_level` (180 = honest pool,
/// 220 = pool that was hotter before the deployment ever landed).
fn bias_world(control_level: f64) -> (World, ChangeId, MapSource) {
    let mut b = WorldBuilder::new(SimConfig::days(9, 8));
    let svc = b.add_service("prod.pipe", 8).unwrap();
    let t0 = 8 * 1440;
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            t0,
            ChangeEffect::none(),
            "bias demo",
        )
        .unwrap();
    let world = b.build();

    let record = world.change_log().get(change).unwrap();
    let impact = identify_impact_set(world.topology(), record).unwrap();
    let mut keys = enumerate_work_units(&impact, record, &|s| world.kinds_of_service(s).to_vec());
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
        let values: Vec<f64> = (start..t0 + 101)
            .map(|m| {
                let shift = if treated_delay && m >= t0 { 60.0 } else { 0.0 };
                level + shift + jitter(salt, m)
            })
            .collect();
        series.insert(key, TimeSeries::new(start, values));
    }
    (world, change, MapSource { series })
}

#[test]
fn skewed_control_pool_flags_population_mismatch() {
    let funnel = funnel_with(1, true);
    let (world, change, source) = bias_world(220.0);
    let (assessment, report) = assess_and_diagnose(&funnel, &source, &world, change);
    let report = report.unwrap();
    // The DiD contrast subtracts the constant offset, so the verdict is
    // still `caused` — the bias check is the only thing that notices the
    // counterfactual was never exchangeable with the treated group.
    assert!(assessment.has_impact());
    assert!(report.mismatch_count() > 0, "skewed pool not flagged");
    for item in &report.items {
        assert_eq!(
            item.bias.flag,
            BiasFlag::PopulationMismatch,
            "{}",
            item.label
        );
        assert!(item.bias.median_divergence > 3.0, "{}", item.label);
    }
    assert!(report.to_json().contains("population_mismatch"));
}

#[test]
fn honest_control_pool_stays_clean() {
    let funnel = funnel_with(1, true);
    let (world, change, source) = bias_world(180.0);
    let (assessment, report) = assess_and_diagnose(&funnel, &source, &world, change);
    let report = report.unwrap();
    assert!(assessment.has_impact());
    assert_eq!(report.mismatch_count(), 0, "honest pool wrongly flagged");
    for item in &report.items {
        assert_eq!(item.bias.flag, BiasFlag::Clean, "{}", item.label);
        assert!(item.bias.members > 0);
    }
}

// ---- streaming parity -------------------------------------------------

const STREAM_DURATION: u64 = 2880;

fn stream_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 5,
        start: 0,
        duration: STREAM_DURATION as usize,
    });
    let svc = b.add_service("prod.stream", 4).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        9.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 1700, effect, "stream diag")
        .unwrap();
    (b.build(), id)
}

fn service_kinds(world: &World) -> BTreeMap<ServiceId, Vec<KpiKind>> {
    world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect()
}

#[test]
fn stream_completion_attaches_the_batch_diagnosis() {
    let (world, change) = stream_world();
    let mut funnel_cfg = FunnelConfig::paper_default();
    funnel_cfg.sst = SstConfig::quick();
    funnel_cfg.diagnose = DiagConfig::on();
    let mut stream_cfg = StreamConfig::paired_with(&funnel_cfg);
    stream_cfg.ring_capacity = StreamConfig::capacity_for(&funnel_cfg, STREAM_DURATION);

    let feed = LiveFeed::from_store(&world.materialize().unwrap());
    let record = world.change_log().get(change).unwrap().clone();
    let mut engine = StreamEngine::new(funnel_cfg.clone(), stream_cfg, service_kinds(&world));
    engine
        .track_change(world.topology(), record.clone())
        .unwrap();
    let mut completed = Vec::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        completed.extend(engine.tick(minute).completed);
    }
    assert_eq!(completed.len(), 1);
    let streamed = completed.pop().unwrap();
    let stream_diag = streamed.diagnosis.expect("enabled stage must attach");
    assert!(
        !stream_diag.items.is_empty(),
        "regression must be diagnosed"
    );

    // The batch path over the same measurement sequence produces the same
    // diagnosis bytes (streaming ≡ batch extends to the explanation layer).
    let store = MetricStore::new();
    for (_, batch) in feed.arrivals() {
        for m in batch {
            store.append(m.key, m.minute, m.value);
        }
    }
    let snapshot = store.snapshot();
    let funnel = Funnel::new(funnel_cfg);
    let kinds = service_kinds(&world);
    let batch = funnel
        .assess_change_with(&snapshot, world.topology(), &record, &|svc| {
            kinds.get(&svc).cloned().unwrap_or_default()
        })
        .unwrap();
    let batch_diag = funnel
        .diagnose(&snapshot, world.topology(), &record, &batch)
        .unwrap();
    assert_eq!(stream_diag.to_json(), batch_diag.to_json());

    // Diag-off engine run: identical items, no diagnosis attached.
    let mut off_cfg = FunnelConfig::paper_default();
    off_cfg.sst = SstConfig::quick();
    let mut off_stream = StreamConfig::paired_with(&off_cfg);
    off_stream.ring_capacity = StreamConfig::capacity_for(&off_cfg, STREAM_DURATION);
    let mut off_engine = StreamEngine::new(off_cfg, off_stream, service_kinds(&world));
    off_engine.track_change(world.topology(), record).unwrap();
    let mut off_completed = Vec::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            off_engine.offer(m);
        }
        off_completed.extend(off_engine.tick(minute).completed);
    }
    assert_eq!(off_completed.len(), 1);
    let off = off_completed.pop().unwrap();
    assert!(off.diagnosis.is_none());
    assert_eq!(
        format!("{:?}", off.items),
        format!("{:?}", streamed.items),
        "enabling diagnosis perturbed the streaming items"
    );
}
