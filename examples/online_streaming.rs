//! FUNNEL online: agents → wire frames → central store → live feed →
//! streaming engine, the deployment dataflow of §5.
//!
//! A world is replayed minute-by-minute through per-shard agent threads
//! (binary wire frames over channels, decoded by a collector that also
//! aggregates service KPIs) into a store. The store's measurements, as a
//! [`LiveFeed`], are offered to a [`StreamEngine`] and ticked one minute at
//! a time: KPI changes are declared minutes after they begin, and the
//! tracked change completes with the batch pipeline's own verdicts.
//!
//! ```bash
//! cargo run --release --example online_streaming
//! ```

use funnel_suite::core::{FunnelConfig, StreamConfig, StreamDetection, StreamEngine};
use funnel_suite::sim::agent::replay;
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::kpi::{KpiKey, KpiKind};
use funnel_suite::sim::store::MetricStore;
use funnel_suite::sim::world::{SimConfig, WorldBuilder};
use funnel_suite::sim::LiveFeed;
use funnel_suite::topology::change::ChangeKind;
use funnel_suite::topology::impact::Entity;

pub fn main() {
    // A service with a memory leak introduced at minute 240.
    let mut b = WorldBuilder::new(SimConfig {
        seed: 3,
        start: 0,
        duration: 480,
    });
    let svc = b.add_service("stream.api", 4).expect("fresh");
    let effect = ChangeEffect::none().with_ramp(
        KpiKind::MemoryUtilization,
        EffectScope::TreatedServers,
        25.0,
        40,
    );
    let change = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 240, effect, "leaky build")
        .expect("valid");
    let world = b.build();

    // The treated servers' memory KPIs: the ones that must be flagged.
    let treated: Vec<KpiKey> = world
        .topology()
        .instances_of(svc)
        .iter()
        .take(2)
        .map(|i| KpiKey::new(Entity::Server(i.server), KpiKind::MemoryUtilization))
        .collect();

    let config = FunnelConfig::paper_default();
    let stream_config = StreamConfig::paired_with(&config);
    let kinds = world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect();
    let mut engine = StreamEngine::new(config, stream_config, kinds);
    let record = world.change_log().get(change).expect("logged").clone();
    engine
        .track_change(world.topology(), record)
        .expect("impact set");

    // Replay the world through the agent → collector path (3 shards) into a
    // store. Agent shards run minutes apart, so the store fills in minute
    // order per key but not across keys; its live feed hands the engine one
    // complete minute per tick, the way a deployment's clock would drive it.
    let store = MetricStore::new();
    let stats = replay(&world, &store, 3).expect("replay succeeds");
    println!(
        "replayed {} minutes: {} wire frames, {} measurements, {} service aggregates",
        stats.minutes, stats.frames, stats.records, stats.aggregates
    );
    let feed = LiveFeed::from_store(&store);

    let mut declared: Vec<StreamDetection> = Vec::new();
    let mut completed = Vec::new();
    for (minute, batch) in feed.arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        let report = engine.tick(minute);
        declared.extend(report.detections);
        completed.extend(report.completed);
    }

    let engine_stats = engine.stats();
    println!(
        "stream engine: {} ticks, {} window folds, {} detections",
        engine_stats.ticks, engine_stats.folds, engine_stats.detections
    );
    let on_treated: Vec<&StreamDetection> = declared
        .iter()
        .filter(|d| treated.contains(&d.key))
        .collect();
    for d in &on_treated {
        println!(
            "  {:?} declared at minute {} (score ran from minute {}, peak {:.2})",
            d.key.entity, d.declared_at, d.first_exceeded_at, d.peak_score
        );
    }

    // The leak starts at 240 and ramps over 40 minutes; the stream must
    // catch it on both treated servers, within the ramp.
    for key in &treated {
        assert!(
            on_treated
                .iter()
                .any(|d| d.key == *key && (240..320).contains(&d.declared_at)),
            "{key:?} should be flagged during the ramp: {on_treated:?}"
        );
    }

    // An hour after the change its assessment window closes and the engine
    // delivers the verdicts — the same bytes the batch pipeline would.
    assert_eq!(completed.len(), 1, "the tracked change completes once");
    assert_eq!(engine.pending_changes(), 0);
    let assessment = &completed[0];
    println!(
        "change #{} completed at minute {}: {} items, {} attributed, first detection {} min after the change",
        assessment.change.0,
        assessment.emitted_at,
        assessment.items.len(),
        assessment.items.iter().filter(|i| i.verdict.is_caused()).count(),
        assessment.detection_latency.map_or(-1, |m| m as i64),
    );
    for key in &treated {
        let item = assessment
            .items
            .iter()
            .find(|i| i.key == *key)
            .expect("treated server is a work unit");
        assert!(
            item.verdict.is_caused(),
            "leak on {key:?} not attributed: {item:?}"
        );
    }
    println!("\nleak caught mid-ramp on the live stream and attributed to the change.");
}
