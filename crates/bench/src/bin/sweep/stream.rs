//! Stream grid: the streaming engine under an overload grid.
//!
//! Builds shifted worlds of increasing fleet size, flattens each into a
//! [`LiveFeed`], and drives the feed tick by tick through a
//! [`StreamEngine`] across ingest-rate multipliers (how many minutes of
//! frames land between consecutive ticks) and tick budgets (key-minute folds
//! the scheduler may spend per tick; 0 = unbounded). Per cell: ticks, folds,
//! detection latency of the injected change, the shed fraction, and the
//! resident window memory against its configured bound.
//!
//! Four contracts:
//!
//! * **Byte identity**: with no budget, the streamed items are
//!   byte-identical to the batch pipeline run on a store replayed from the
//!   same feed, at every ingest rate and at 1, 3, and 8 workers. Under a
//!   budget, every non-shed, non-stale item still matches its batch
//!   counterpart.
//! * **Bounded memory**: resident window bytes never exceed the configured
//!   rings × capacity bound; nothing grows with backlog.
//! * **Deterministic shedding**: re-running an overloaded cell sheds the
//!   identical (minute, key) list, collected from each tick's report.
//! * **No stall under faults**: a feed replayed through the lossy
//!   fault-injection transport (drops, corruption, delays, duplicates)
//!   still completes its assessment at 10× overload, twice, identically.

use funnel_bench::grid::{Column, Grid, Value};
use funnel_core::stream::StreamAssessment;
use funnel_core::{FunnelConfig, StreamConfig, StreamEngine};
use funnel_sim::agent::replay_with_faults;
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::faults::FaultPlan;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::live::LiveFeed;
use funnel_sim::store::MetricStore;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sst::SstConfig;
use funnel_timeseries::series::MinuteBin;
use funnel_topology::change::{ChangeId, ChangeKind};
use funnel_topology::model::ServiceId;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Two simulated days: a day of history before the change, an hour of
/// assessment, and slack for the backfill/staleness paths.
const DURATION: u64 = 2880;
/// Deployment minute; leaves the full warmup + history inside the feed.
const T0: u64 = 1700;
/// Swept fleet sizes (instances) and ingest-rate multipliers.
const FLEETS: [usize; 2] = [3, 6];
const RATES: [u64; 3] = [1, 4, 10];
/// Worker counts the unbudgeted 1× cell must be byte-identical across.
const WORKERS: [usize; 3] = [1, 3, 8];

/// Quick-SST pipeline config: the grid replays every minute of the feed
/// through the scheduler several times per cell, and byte identity is
/// asserted against a batch run of the *same* config, so the shorter
/// window changes nothing about what is being compared.
fn pipeline_config(workers: usize) -> FunnelConfig {
    let mut c = FunnelConfig::paper_default();
    c.sst = SstConfig::quick();
    c.assess.workers = workers;
    c
}

/// Ring capacity that retains the whole feed (worker-count independent).
fn ring_capacity() -> usize {
    StreamConfig::capacity_for(&pipeline_config(1), DURATION)
}

fn stream_config(budget: u64, workers: usize) -> (FunnelConfig, StreamConfig) {
    let funnel = pipeline_config(workers);
    let mut s = StreamConfig::paired_with(&funnel);
    s.ring_capacity = ring_capacity();
    s.tick_budget = budget;
    s.workers = workers;
    (funnel, s)
}

/// A world with `instances` instances (half treated, at least one) and a
/// real treated-side delay shift, so detection and DiD do full work.
fn build_world(seed: u64, instances: usize) -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig {
        seed,
        start: 0,
        duration: DURATION as usize,
    });
    let svc = b.add_service("prod.stream", instances).expect("fresh");
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        9.0,
    );
    let treated = (instances / 2).max(1);
    let what = "stream sweep upgrade";
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, treated, T0, effect, what)
        .expect("valid");
    (b.build(), id)
}

fn service_kinds(world: &World) -> BTreeMap<ServiceId, Vec<KpiKind>> {
    world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect()
}

/// Replays `feed` into a fresh store: the batch pipeline's input, built
/// from the exact measurement sequence the engine saw.
fn replay_feed(feed: &LiveFeed) -> MetricStore {
    let store = MetricStore::new();
    for (_, batch) in feed.arrivals() {
        for m in batch {
            store.append(m.key, m.minute, m.value);
        }
    }
    store
}

/// One world flattened to a feed, with the engine-side facts every cell
/// over it shares.
struct Fleet {
    instances: usize,
    world: World,
    change: ChangeId,
    feed: LiveFeed,
    keys: usize,
    batch: OnceCell<Vec<(String, String)>>,
}

impl Fleet {
    fn new(instances: usize, world: World, change: ChangeId, feed: LiveFeed) -> Self {
        let keys = replay_feed(&feed).keys().len();
        Self {
            instances,
            world,
            change,
            feed,
            keys,
            batch: OnceCell::new(),
        }
    }

    /// Batch items for the change as `(debug key, debug item)` pairs in the
    /// batch pipeline's own item order, at one worker; assessed once.
    fn batch_items(&self) -> &[(String, String)] {
        self.batch.get_or_init(|| {
            let record = self.world.change_log().get(self.change).expect("logged");
            let kinds = service_kinds(&self.world);
            let snapshot = replay_feed(&self.feed).snapshot();
            funnel_core::Funnel::new(pipeline_config(1))
                .assess_change_with(&snapshot, self.world.topology(), record, &|svc| {
                    kinds.get(&svc).cloned().unwrap_or_default()
                })
                .expect("batch assessment")
                .items
                .into_iter()
                .map(|i| (format!("{:?}", i.key), format!("{i:?}")))
                .collect()
        })
    }

    /// [`Self::batch_items`] as one byte string.
    fn batch_bytes(&self) -> String {
        self.batch_items().iter().map(|(_, i)| i.as_str()).collect()
    }

    /// Drives the feed through a fresh engine, delivering `rate` minutes of
    /// frames between consecutive ticks (1 = real time, 10 = 10× overload).
    fn stream(&self, budget: u64, workers: usize, rate: u64) -> StreamRun {
        let (funnel_cfg, stream_cfg) = stream_config(budget, workers);
        let record = self.world.change_log().get(self.change).expect("logged");
        let mut engine = StreamEngine::new(funnel_cfg, stream_cfg, service_kinds(&self.world));
        engine
            .track_change(self.world.topology(), record.clone())
            .expect("tracked");
        let mut completed = Vec::new();
        let mut shed = Vec::new();
        let mut scored_key_ticks = 0u64;
        let mut tick = |engine: &mut StreamEngine, minute| {
            let report = engine.tick(minute);
            scored_key_ticks += report.scored_keys as u64;
            shed.extend(report.shed.into_iter().map(|key| (minute, key)));
            completed.extend(report.completed);
        };
        let mut pending = 0u64;
        let mut last = 0;
        for (minute, batch) in self.feed.arrivals() {
            for &m in batch {
                engine.offer(m);
            }
            pending += 1;
            last = minute;
            if pending >= rate {
                tick(&mut engine, minute);
                pending = 0;
            }
        }
        if pending > 0 {
            tick(&mut engine, last);
        }
        StreamRun {
            engine,
            completed,
            shed,
            scored_key_ticks,
        }
    }
}

/// The outcome of one engine run over a feed.
struct StreamRun {
    engine: StreamEngine,
    completed: Vec<StreamAssessment>,
    /// Every `(tick, key)` the shedding policy dropped, in decision order.
    shed: Vec<(MinuteBin, KpiKey)>,
    scored_key_ticks: u64,
}

impl StreamRun {
    /// The one completed assessment's items as one byte string.
    fn item_bytes(&self) -> String {
        let got = self.completed.first().expect("one assessment");
        got.items.iter().map(|i| format!("{i:?}")).collect()
    }
}

/// One grid point: which fleet, how fast, under what budget.
pub struct StreamCell {
    fleet: usize,
    rate: u64,
    budget: u64,
}

/// One reported cell.
pub struct StreamRow {
    instances: usize,
    keys: usize,
    rate: u64,
    budget: u64,
    ticks: u64,
    folds: u64,
    shed_frac: f64,
    detection_latency_min: i64,
    window_bytes: usize,
    window_bound: usize,
    /// Budgeted survivors compared with batch in this cell (not a column;
    /// the contract sums it into the envelope).
    survivor_checks: usize,
}

pub struct StreamGrid {
    seed: u64,
    fleets: Vec<Fleet>,
}

impl StreamGrid {
    pub fn new(seed: u64) -> Self {
        let fleets = FLEETS
            .iter()
            .map(|&instances| {
                let (world, change) = build_world(seed, instances);
                let feed = LiveFeed::from_store(&world.materialize().expect("materialize"));
                Fleet::new(instances, world, change, feed)
            })
            .collect();
        Self { seed, fleets }
    }
}

impl Grid for StreamGrid {
    type Cell = StreamCell;
    type Row = StreamRow;

    const NAME: &'static str = "stream";
    const TITLE: &'static str = "Stream sweep: folds, shedding and window memory vs overload";

    fn columns(&self) -> Vec<Column<StreamRow>> {
        vec![
            Column::new("instances", |r| Value::int(r.instances)),
            Column::new("keys", |r| Value::int(r.keys)),
            Column::new("ingest_rate", |r| Value::int(r.rate)),
            Column::new("tick_budget", |r| Value::int(r.budget)),
            Column::new("ticks", |r| Value::int(r.ticks)),
            Column::new("folds", |r| Value::int(r.folds)),
            Column::new("shed_frac", |r| Value::fixed(r.shed_frac, 4)),
            Column::new("detection_latency_min", |r| {
                Value::int(r.detection_latency_min)
            }),
            Column::new("window_bytes", |r| Value::int(r.window_bytes)),
            Column::new("window_bound_bytes", |r| Value::int(r.window_bound)),
        ]
    }

    /// Per fleet and rate, two budgets: unbounded, and sized for 1× ingest
    /// (so 10× must shed).
    fn cells(&self) -> Vec<StreamCell> {
        let mut cells = Vec::new();
        for (fleet, f) in self.fleets.iter().enumerate() {
            for rate in RATES {
                for budget in [0, f.keys as u64] {
                    cells.push(StreamCell {
                        fleet,
                        rate,
                        budget,
                    });
                }
            }
        }
        cells
    }

    fn run(
        &self,
        &StreamCell {
            fleet,
            rate,
            budget,
        }: &StreamCell,
    ) -> StreamRow {
        let fleet = &self.fleets[fleet];
        let cell = format!("{}x{rate}x{budget}", fleet.instances);
        let run = fleet.stream(budget, 1, rate);
        let stats = run.engine.stats();
        assert_eq!(run.completed.len(), 1, "{cell}: the change never completed");
        let got = run.completed.first().expect("one assessment");

        // Bounded memory, overload or not: resident window bytes never
        // exceed rings × capacity; at full rings they equal it.
        let bound = fleet.keys * ring_capacity() * 9;
        assert!(
            run.engine.window_bytes() <= bound,
            "{cell}: window memory above bound"
        );
        assert_eq!(stats.peak_window_bytes, run.engine.window_bytes());

        let mut survivor_checks = 0;
        if budget == 0 {
            // Unbudgeted cells shed nothing and must be byte-identical to
            // batch regardless of ingest rate.
            assert_eq!(stats.shed, 0, "{cell}: unbudgeted cell shed");
            assert_eq!(
                run.item_bytes(),
                fleet.batch_bytes(),
                "{cell}: streaming != batch"
            );
        } else {
            // Budgeted cells may shed; every survivor still matches its
            // batch counterpart byte for byte.
            let batch: BTreeMap<&str, &str> = fleet
                .batch_items()
                .iter()
                .map(|(k, i)| (k.as_str(), i.as_str()))
                .collect();
            for item in &got.items {
                if got.shed.contains(&item.key) || got.stale.contains(&item.key) {
                    continue;
                }
                assert_eq!(
                    batch.get(format!("{:?}", item.key).as_str()),
                    Some(&format!("{item:?}").as_str()),
                    "{cell}: survivor diverged from batch"
                );
                survivor_checks += 1;
            }
            if rate >= 10 {
                assert!(stats.shed > 0, "{cell}: 10x overload never shed");
                // Deterministic shedding: a fresh engine sheds the same
                // (minute, key) list.
                assert_eq!(
                    run.shed,
                    fleet.stream(budget, 1, rate).shed,
                    "{cell}: sheds not deterministic"
                );
            }
        }

        StreamRow {
            instances: fleet.instances,
            keys: fleet.keys,
            rate,
            budget,
            ticks: stats.ticks,
            folds: stats.folds,
            shed_frac: if stats.shed == 0 {
                0.0
            } else {
                stats.shed as f64 / (stats.shed as f64 + run.scored_key_ticks as f64)
            },
            detection_latency_min: got
                .detection_latency
                .map_or(-1, |l| i64::try_from(l).unwrap_or(i64::MAX)),
            window_bytes: run.engine.window_bytes(),
            window_bound: bound,
            survivor_checks,
        }
    }

    fn contract(&self, rows: &[StreamRow]) -> Vec<(&'static str, String)> {
        let survivor_checks: usize = rows.iter().map(|r| r.survivor_checks).sum();
        assert!(
            survivor_checks > 0,
            "no budgeted cell produced a non-shed survivor to verify"
        );

        // Worker-count identity on each fleet's unbudgeted 1× cell: the
        // streamed items are one byte string, equal to batch, at every
        // worker count.
        for fleet in &self.fleets {
            for workers in WORKERS {
                assert_eq!(
                    fleet.stream(0, workers, 1).item_bytes(),
                    fleet.batch_bytes(),
                    "{} instances: streaming diverged from batch at {workers} workers",
                    fleet.instances
                );
            }
        }

        // Fault leg: the smallest world's telemetry pushed through the lossy
        // fault-injection transport, then streamed at 10× overload under a
        // 1×-sized budget. The engine must complete without stalling,
        // twice, with identical results.
        let (world, change) = build_world(self.seed, FLEETS[0]);
        let plan = FaultPlan {
            seed: self.seed ^ 0xfa17,
            drop_frame_prob: 0.05,
            corrupt_prob: 0.02,
            delay_prob: 0.05,
            max_delay_minutes: 3,
            duplicate_prob: 0.02,
            ..FaultPlan::none()
        };
        let faulted = MetricStore::new();
        let replay = replay_with_faults(&world, &faulted, 4, plan).expect("faulted replay");
        let feed = LiveFeed::from_store(&faulted);
        let fleet = Fleet::new(FLEETS[0], world, change, feed);
        let fault_run = || fleet.stream(fleet.keys as u64, 1, 10);
        let (fa, fb) = (fault_run(), fault_run());
        assert_eq!(fa.completed.len(), 1, "fault leg: change never completed");
        assert_eq!(
            fa.engine.stats().assess_errors,
            0,
            "fault leg: assess error"
        );
        assert_eq!(fa.shed, fb.shed, "fault leg: sheds not deterministic");
        assert_eq!(
            format!("{:?}", fa.completed),
            format!("{:?}", fb.completed),
            "fault leg: assessments not deterministic"
        );

        vec![
            ("duration_minutes", DURATION.to_string()),
            ("byte_identical_worker_counts", format!("{WORKERS:?}")),
            ("survivor_identity_checks", survivor_checks.to_string()),
            (
                "fault_leg_dropped_frames",
                replay.dropped_frames.to_string(),
            ),
            (
                "fault_leg_quarantined_frames",
                replay.quarantined_frames.to_string(),
            ),
            ("fault_leg_shed_events", fa.engine.stats().shed.to_string()),
        ]
    }
}
