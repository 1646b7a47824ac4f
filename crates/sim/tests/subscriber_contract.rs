//! The subscriber contract of `funnel_sim::store`, pinned in one replay:
//!
//! 1. every accepted live append and every accepted backfill is published
//!    exactly once;
//! 2. one key's measurements arrive in the order they were written (minute
//!    order within the live stream and within the backfill flush), and one
//!    frame's records arrive in frame order, ahead of the aggregates the
//!    frame completes;
//! 3. a late append the store ignores publishes nothing;
//! 4. a measurement is published after the store lock is released: a
//!    subscriber that reads the store on receipt finds it there;
//! 5. a subscription hears of what is written after it was made — one made
//!    before the replay everything, one made during it the rest, one made
//!    after it nothing.

use funnel_sim::collector::Collector;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::{Measurement, MetricStore, Subscription};
use funnel_sim::wire::{encode_frame, WireRecord};
use funnel_sim::world::{SimConfig, WorldBuilder};
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use std::collections::BTreeMap;

const AGENTS: u32 = 2;
const HORIZON: u64 = 2;
/// The minutes agent 1 buffers and delivers late.
const DARK: std::ops::Range<u64> = 4..12;

/// Agent `a` reports server `a` and the instance on it, always in this order.
fn agent_keys(agent: u32) -> [KpiKey; 3] {
    [
        KpiKey::new(Entity::Server(ServerId(agent)), KpiKind::CpuUtilization),
        KpiKey::new(Entity::Instance(InstanceId(agent)), KpiKind::PageViewCount),
        KpiKey::new(Entity::Server(ServerId(agent)), KpiKind::NicThroughput),
    ]
}

fn value(key: &KpiKey, minute: u64) -> f64 {
    let salt = match key.entity {
        Entity::Server(s) => s.0,
        Entity::Instance(i) => 10 + i.0,
        Entity::Service(s) => 20 + s.0,
    };
    f64::from(salt) * 100.0 + f64::from(key.kind.tag()) * 10.0 + minute as f64
}

/// Ends the listener's stream when the replay is over — or when one of its
/// assertions unwinds, so a failure is reported instead of hanging the join.
struct CloseOnDrop<'a>(&'a MetricStore);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close_subscriptions();
    }
}

fn drain(sub: &Subscription) -> Vec<Measurement> {
    let mut got = Vec::new();
    while let Ok(m) = sub.receiver().try_recv() {
        got.push(m);
    }
    got
}

#[test]
fn every_accepted_write_is_published_once_in_order_after_the_lock() {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 4,
        start: 0,
        duration: 64,
    });
    b.add_service("prod.sub", AGENTS as usize).unwrap();
    let world = b.build();
    let aggregate = KpiKey::new(Entity::Service(ServiceId(0)), KpiKind::PageViewCount);
    let frame = |agent: u32, minute: u64| {
        let records: Vec<WireRecord> = agent_keys(agent)
            .iter()
            .map(|key| WireRecord {
                key: *key,
                value: value(key, minute),
            })
            .collect();
        encode_frame(minute, agent, &records)
    };

    let store = MetricStore::new();
    let before = store.subscribe(None, 1 << 16);
    let mut during: Option<Subscription> = None;
    let mut heard_during: Vec<Measurement> = Vec::new();

    // Clause 4 runs beside the replay: on every receipt the store already
    // shows the measurement, as a real one (a fill would not set the mask).
    let heard_before = std::thread::scope(|s| {
        let listener = s.spawn(|| {
            let mut heard = Vec::new();
            while let Some(m) = before.recv() {
                let held = store.get(&m.key).and_then(|series| series.at(m.minute));
                assert_eq!(
                    held,
                    Some(m.value),
                    "{m:?} published before it was readable"
                );
                assert!(
                    store
                        .mask(&m.key)
                        .is_some_and(|mask| mask.is_present(m.minute)),
                    "{m:?} published before its mask covered it"
                );
                heard.push(m);
            }
            heard
        });

        let closing = CloseOnDrop(&store);
        let mut collector = Collector::for_world(&world, &store, AGENTS as usize, HORIZON);
        // Agent 1 goes dark for minutes 4..=11 and delivers them as one
        // burst after its minute-14 frame, every one of them behind its
        // watermark by more than the horizon; agent 0's minute 6 is held
        // back two minutes, so it arrives after the series already reach 8.
        let mut arrivals: Vec<(u32, u64)> = Vec::new();
        for minute in 0..20u64 {
            if minute != 6 {
                arrivals.push((0, minute));
            }
            if minute == 8 {
                arrivals.push((0, 6));
            }
            if !DARK.contains(&minute) {
                arrivals.push((1, minute));
            }
            if minute == 14 {
                arrivals.extend(DARK.map(|dark| (1, dark)));
            }
        }
        for (n, &(agent, minute)) in arrivals.iter().enumerate() {
            if n == arrivals.len() / 3 {
                during = Some(store.subscribe(None, 1 << 16));
            }
            let accepted_before = collector.stats().records;
            assert!(collector.ingest(&frame(agent, minute)));
            let Some(sub) = &during else { continue };
            let batch = drain(sub);
            let staged = agent == 1 && DARK.contains(&minute);
            if (agent, minute) == (0, 6) {
                // Clause 3. The collector accepted the records (they passed
                // its gates) but every series is already past minute 6.
                assert_eq!(collector.stats().records, accepted_before + 3);
                assert!(batch.is_empty(), "a late-ignored append was published");
            } else if staged {
                assert!(batch.is_empty(), "a staged backfill frame was published");
            } else {
                // Clause 2: the frame's records, in frame order, then only
                // aggregates.
                let keys: Vec<KpiKey> = batch.iter().map(|m| m.key).collect();
                assert_eq!(keys[..3], agent_keys(agent), "frame order, frame {n}");
                assert!(batch[..3].iter().all(|m| m.minute == minute));
                assert!(batch[3..].iter().all(|m| m.key == aggregate));
            }
            heard_during.extend(batch);
        }
        let live_records = collector.stats().records;
        collector.finish();
        assert_eq!(collector.stats().backfilled_records, 3 * DARK.count());
        assert_eq!(collector.stats().records, live_records);
        if let Some(sub) = &during {
            heard_during.extend(drain(sub));
        }
        drop(closing);
        listener.join().expect("listener")
    });
    assert_eq!(before.dropped(), 0);

    // Clause 1, against the store itself: a mask bit is set by exactly the
    // accepted writes, so the published (key, minute) pairs are the set
    // bits, each once, with the value the store holds.
    let mut published: BTreeMap<(KpiKey, u64), Vec<f64>> = BTreeMap::new();
    for m in &heard_before {
        published
            .entry((m.key, m.minute))
            .or_default()
            .push(m.value);
    }
    let mut measured = 0;
    for (key, series, mask) in store.export_entries() {
        for minute in mask.start()..mask.end() {
            let heard = published.get(&(key, minute)).cloned().unwrap_or_default();
            if mask.is_present(minute) {
                measured += 1;
                assert_eq!(heard, vec![series.at(minute).unwrap()], "{key:?}@{minute}");
            } else {
                assert!(
                    heard.is_empty(),
                    "{key:?}@{minute} is a fill, yet published"
                );
            }
        }
    }
    assert_eq!(
        measured,
        heard_before.len(),
        "published something never stored"
    );
    // What was lost stays lost: agent 0's minute 6 reached no subscriber.
    assert!(!published.contains_key(&(agent_keys(0)[0], 6)));

    // Clause 2, per key: ascending through the live stream, then ascending
    // through the backfill flush.
    let mut per_key: BTreeMap<KpiKey, Vec<u64>> = BTreeMap::new();
    for m in &heard_before {
        per_key.entry(m.key).or_default().push(m.minute);
    }
    for (key, minutes) in &per_key {
        let descents = minutes.windows(2).filter(|w| w[0] >= w[1]).count();
        let backfilled = minutes.windows(2).any(|w| w[0] > w[1]);
        assert!(descents <= 1, "{key:?} out of order: {minutes:?}");
        assert_eq!(backfilled, descents == 1, "{key:?} repeated a minute");
    }
    assert!(per_key[&agent_keys(1)[1]].windows(2).any(|w| w[0] > w[1]));
    assert!(per_key[&aggregate].windows(2).any(|w| w[0] > w[1]));

    // Clause 5.
    assert!(!heard_during.is_empty() && heard_during.len() < heard_before.len());
    let tail = &heard_before[heard_before.len() - heard_during.len()..];
    assert_eq!(heard_during, tail, "a later subscription hears the rest");
    let after = store.subscribe(None, 16);
    assert!(drain(&after).is_empty());
    assert_eq!(
        store.stats().published as usize,
        heard_before.len() + heard_during.len()
    );
}
