//! The collector's contract, as properties of the real [`Collector`] over
//! fuzzed frames: permuted, dropped, repeated and foreign keys, agents that
//! change their key sets, NaN/±Inf/1e300/counter-reset values, duplicates,
//! delayed, skewed, torn and backfill frames, and frames from an agent that
//! does not exist.
//!
//! * **Counted once.** After every commit, the measured bins of a snapshot
//!   are the records and aggregates the collector counts as stored, and no
//!   service cell holds an instance twice or one of another service.
//! * **Finalized when ready.** A minute leaves `pending` once every agent
//!   delivered it or moved past its reorder horizon, and not before.
//! * **First measurement wins.** A commit changes no measured bin, and a
//!   record over a forward fill replaces the fill.
//! * **Decided at commit.** A backfill frame's commit counts each of its
//!   records as taken, refused or invalid; nothing waits for `finish`.
//! * **Schedule-free.** When no key is sent by two senders, any
//!   interleaving of the agents' frame sequences stores the same bits for
//!   every key an agent sends and counts every record the same. Across
//!   agents, first write wins follows arrival order by design, so a key two
//!   agents send is left out. Service aggregates are not schedule-free: a
//!   minute completed after a later minute's aggregate anchored the series,
//!   or was appended past it, is refused, so the same bin may be stored in
//!   one interleaving and not in another, and whether an aggregate counts
//!   as live or backfilled follows arrival order too. What is asserted of
//!   them is that they agree wherever both interleavings stored a bin.
//!
//! `the_fuzzed_frames_reach_every_path` checks that the fuzz reaches the
//! paths these properties speak about.

use bytes::Bytes;
use funnel_sim::agent::ReplayStats;
use funnel_sim::collector::{Collector, Ingest, MinuteAccs, MAX_PLAUSIBLE_VALUE};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::{MetricStore, StoreSnapshot};
use funnel_sim::wire::{decode_frame, encode_frame, WireRecord};
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ---- the fuzzed fleet ----------------------------------------------------

const AGENTS: usize = 3;

/// Two services of three instances and one of a single instance: seven
/// servers, round-robin over the agents exactly as `agent.rs` shards them,
/// so that every agent hosts an instance of the first two services and
/// only agent 0 one of the third.
fn world() -> World {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 5,
        start: 0,
        duration: 64,
    });
    b.add_service("prod.web", 3).unwrap();
    b.add_service("prod.ads", 3).unwrap();
    b.add_service("prod.db", 1).unwrap();
    b.build()
}

/// What agent `a` sends every minute when nothing is wrong: per server its
/// four server KPIs, then the KPIs of the instance it hosts.
fn natural_keys(world: &World, agent: usize) -> Vec<KpiKey> {
    let mut keys = Vec::new();
    for sid in (0..world.topology().server_count()).filter(|s| s % AGENTS == agent) {
        let server = ServerId(sid as u32);
        for kind in KpiKind::SERVER_KINDS {
            keys.push(KpiKey::new(Entity::Server(server), kind));
        }
        for inst in world.topology().instances().filter(|i| i.server == server) {
            for &kind in world.kinds_of_service(inst.service) {
                keys.push(KpiKey::new(Entity::Instance(inst.id), kind));
            }
        }
    }
    keys
}

/// splitmix64: every decision about a frame is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// Keys no agent of this world owns: a service-entity key (agents never
/// send those), an instance the topology does not know, another agent's
/// server.
fn foreign_key(rng: &mut Rng, world: &World, agent: usize) -> KpiKey {
    match rng.below(3) {
        0 => KpiKey::new(
            Entity::Service(ServiceId(rng.below(3) as u32)),
            KpiKind::INSTANCE_KINDS[rng.below(3) as usize],
        ),
        1 => KpiKey::new(
            Entity::Instance(InstanceId(40 + rng.below(3) as u32)),
            KpiKind::PageViewCount,
        ),
        _ => {
            let other = natural_keys(world, (agent + 1) % AGENTS);
            other[rng.below(other.len() as u64) as usize]
        }
    }
}

fn value(rng: &mut Rng, minute: u64) -> f64 {
    match rng.below(40) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e300,
        4 => -1e300,
        // A plausible high-water mark, then the counter reset below it.
        5 => 5e9,
        6 => -5e9,
        7 => -0.0,
        _ => 100.0 + minute as f64 * 0.25 + rng.below(1000) as f64 * 0.125,
    }
}

/// The frames one fuzz case delivers, in arrival order.
fn frames(world: &World, seeds: &[u64]) -> Vec<Bytes> {
    let mut clocks = [0u64; AGENTS];
    // Agents that change their key set keep the change.
    let mut key_sets: Vec<Vec<KpiKey>> = (0..AGENTS).map(|a| natural_keys(world, a)).collect();
    let mut out = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let mut rng = Rng(seed);
        let agent = if rng.one_in(8) {
            rng.below(AGENTS as u64) as usize
        } else {
            i % AGENTS
        };
        if rng.one_in(12) {
            // The agent's own key set changes for good.
            let set = &mut key_sets[agent];
            match rng.below(3) {
                0 if set.len() > 2 => {
                    set.remove(rng.below(set.len() as u64) as usize);
                }
                1 => set.push(foreign_key(&mut rng, world, agent)),
                _ => set.reverse(),
            }
        }
        let now = clocks[agent];
        let minute = match rng.below(16) {
            // Re-delivery of an earlier minute.
            0 => now.saturating_sub(1),
            // Delayed, or far enough behind to be a healed partition's.
            1 => now.saturating_sub(1 + rng.below(3)),
            2 => now.saturating_sub(4 + rng.below(8)),
            // A gap: frames lost in between.
            3 => {
                clocks[agent] = now + 1 + rng.below(3);
                clocks[agent] - 1
            }
            // A clock from next month.
            4 if rng.one_in(3) => now + 40_000,
            _ => {
                clocks[agent] = now + 1;
                now
            }
        };
        let mut keys = key_sets[agent].clone();
        // Within-frame mutations: permuted, dropped, repeated, extra keys.
        for _ in 0..rng.below(4) {
            if keys.is_empty() {
                break;
            }
            let at = rng.below(keys.len() as u64) as usize;
            match rng.below(5) {
                0 => keys.swap(0, at),
                1 => {
                    keys.remove(at);
                }
                2 => keys.insert(at, keys[at]),
                3 => keys.insert(at, foreign_key(&mut rng, world, agent)),
                _ => keys.rotate_left(at),
            }
        }
        let records: Vec<WireRecord> = keys
            .into_iter()
            .map(|key| WireRecord {
                key,
                value: value(&mut rng, minute),
            })
            .collect();
        // Agent 3 does not exist: its frames are quarantined by header.
        let agent_id = if rng.one_in(25) { 3 } else { agent as u32 };
        let mut raw = encode_frame(minute, agent_id, &records);
        if rng.one_in(25) {
            raw = raw.slice(0..raw.len() - 1 - rng.below(9) as usize);
        }
        out.push(raw);
    }
    out
}

fn plausible(v: f64) -> bool {
    v.is_finite() && v.abs() <= MAX_PLAUSIBLE_VALUE
}

// ---- what a run leaves ----------------------------------------------------

/// Store entries with every float as its bit pattern (`-0.0 != 0.0` here).
type Entries = Vec<(KpiKey, u64, Vec<u64>, u64, Vec<bool>)>;

fn bitwise(entries: Vec<(KpiKey, TimeSeries, CoverageMask)>) -> Entries {
    entries
        .into_iter()
        .map(|(key, series, mask)| {
            (
                key,
                series.start(),
                series.values().iter().map(|v| v.to_bits()).collect(),
                mask.start(),
                mask.bits().to_vec(),
            )
        })
        .collect()
}

/// How many bins of `snap` hold a real measurement.
fn measured_bins(snap: &StoreSnapshot) -> usize {
    snap.keys()
        .iter()
        .filter_map(|key| snap.held(key))
        .map(|(_, mask)| mask.present_in(mask.start(), mask.end()))
        .sum()
}

/// The records and aggregates the collector says the store took.
fn stored(stats: &ReplayStats) -> usize {
    stats.records + stats.backfilled_records + stats.aggregates + stats.backfilled_aggregates
}

/// The value `key` holds at `minute` in `snap`, if the bin is measured.
fn measured_at(snap: &StoreSnapshot, key: &KpiKey, minute: u64) -> Option<u64> {
    let (series, mask) = snap.held(key)?;
    mask.is_present(minute)
        .then(|| series.at(minute).map(f64::to_bits))
        .flatten()
}

/// Whether `key`'s bin at `minute` lies inside its series and is a fill.
fn filled_at(snap: &StoreSnapshot, key: &KpiKey, minute: u64) -> bool {
    snap.held(key).is_some_and(|(series, mask)| {
        (series.start()..series.end()).contains(&minute) && !mask.is_present(minute)
    })
}

/// Each service cell of the collector's state holds instances of its own
/// service, each once.
fn check_cells(world: &World, collector: &Collector<'_>) {
    let service_of: BTreeMap<u32, ServiceId> = world
        .topology()
        .instances()
        .map(|i| (i.id.0, i.service))
        .collect();
    let state = collector.state();
    let tables = state.pending.values().map(|(_, accs)| accs);
    for accs in tables.chain(state.partial.values()) {
        for ((service, _), entries) in accs.iter() {
            let mut seen = BTreeSet::new();
            for &(instance, _) in entries {
                assert!(seen.insert(instance), "instance {} twice", instance);
                assert_eq!(service_of.get(&instance), Some(&service));
            }
        }
    }
}

/// A minute is finalized once every agent delivered it or moved past its
/// reorder horizon, and not before: every minute a live frame opened that
/// is no longer pending is ready, and the first pending one is not.
fn check_finalized(collector: &Collector<'_>, live: &BTreeMap<u64, usize>, horizon: u64) {
    let state = collector.state();
    let all_past = |minute: u64| {
        let bar = minute + horizon;
        state.watermarks.iter().all(|w| w.is_some_and(|x| x >= bar))
    };
    for (&minute, &frames) in live {
        if !state.pending.contains_key(&minute) {
            assert!(
                frames >= AGENTS || all_past(minute),
                "minute {minute} finalized early"
            );
        }
    }
    if let Some((&minute, &(frames, _))) = state.pending.first_key_value() {
        assert!(
            frames < AGENTS && !all_past(minute),
            "minute {minute} ready, not finalized"
        );
    }
}

/// Commits `raw` one frame at a time, checking after each commit that the
/// store counts once, that minutes finalize when ready, that the first
/// measurement wins, and that a backfill frame is decided at its commit;
/// then the count after `finish`.
fn check_every_commit(raw: &[Bytes], horizon: u64) {
    let world = world();
    let store = MetricStore::new();
    let mut collector = Collector::for_world(&world, &store, AGENTS, horizon);
    // Live frames committed, by minute.
    let mut live: BTreeMap<u64, usize> = BTreeMap::new();
    for (at, frame) in raw.iter().enumerate() {
        let before = store.snapshot();
        let stats = *collector.stats();
        let ingest = collector.classify(frame);
        let (records, backfill) = match &ingest {
            Ingest::Live(f) => {
                *live.entry(f.minute).or_default() += 1;
                (Some(f.clone()), false)
            }
            Ingest::Backfill(f) => (Some(f.clone()), true),
            _ => (None, false),
        };
        collector.commit(ingest);
        let after = store.snapshot();
        let now = *collector.stats();

        // Counted once.
        assert_eq!(measured_bins(&after), stored(&now), "after frame {at}");
        check_cells(&world, &collector);
        check_finalized(&collector, &live, horizon);

        // First measurement wins: no measured bin moves.
        for key in before.keys() {
            let Some((series, mask)) = before.held(&key) else {
                continue;
            };
            for minute in (mask.start()..mask.end()).filter(|&m| mask.is_present(m)) {
                let was = series.at(minute).map(f64::to_bits);
                assert_eq!(
                    measured_at(&after, &key, minute),
                    was,
                    "{:?} minute {} after frame {}",
                    key,
                    minute,
                    at
                );
            }
        }
        let Some(frame) = records else {
            continue;
        };
        // A record over a fill replaces it: the first plausible record of
        // its key in the frame, unless the commit turned a record away as
        // a counter reset.
        let reset = now.counter_reset_records > stats.counter_reset_records;
        let mut firsts = BTreeSet::new();
        for rec in frame.records.iter().filter(|r| plausible(r.value)) {
            if firsts.insert(rec.key) && !reset && filled_at(&before, &rec.key, frame.minute) {
                assert_eq!(
                    measured_at(&after, &rec.key, frame.minute),
                    Some(rec.value.to_bits()),
                    "{:?} over a fill at minute {}, frame {}",
                    rec.key,
                    frame.minute,
                    at
                );
            }
        }
        // Decided at commit: taken, refused or invalid, every record.
        if backfill {
            let decided = |s: &ReplayStats| {
                s.backfilled_records + s.backfill_rejected_records + s.invalid_records
            };
            assert_eq!(decided(&now) - decided(&stats), frame.records.len());
        }
    }
    collector.finish();
    let state = collector.state();
    assert!(state.pending.is_empty() && state.partial.is_empty());
    assert_eq!(measured_bins(&store.snapshot()), stored(collector.stats()));
}

/// The frames with every record dropped whose key has another sender: a
/// service key, which the collector writes, or a key two agents send.
/// Frames that do not decode, or claim an agent that does not exist, stay
/// as they are.
fn exclusive(raw: &[Bytes]) -> Vec<Bytes> {
    let decoded: Vec<_> = raw
        .iter()
        .map(|f| {
            decode_frame(f.clone())
                .ok()
                .filter(|d| (d.agent_id as usize) < AGENTS)
        })
        .collect();
    let mut senders: BTreeMap<KpiKey, BTreeSet<u32>> = BTreeMap::new();
    for frame in decoded.iter().flatten() {
        for rec in &frame.records {
            senders.entry(rec.key).or_default().insert(frame.agent_id);
        }
    }
    let own = |key: &KpiKey| {
        !matches!(key.entity, Entity::Service(_)) && senders.get(key).is_some_and(|s| s.len() == 1)
    };
    raw.iter()
        .zip(&decoded)
        .map(|(raw, frame)| match frame {
            Some(f) => {
                let records: Vec<WireRecord> =
                    f.records.iter().filter(|r| own(&r.key)).copied().collect();
                encode_frame(f.minute, f.agent_id, &records)
            }
            None => raw.clone(),
        })
        .collect()
}

/// What a stream leaves after `finish`.
fn outcome(raw: &[Bytes], horizon: u64) -> (Entries, ReplayStats) {
    let world = world();
    let store = MetricStore::new();
    let mut collector = Collector::for_world(&world, &store, AGENTS, horizon);
    for frame in raw {
        collector.ingest(frame);
    }
    collector.finish();
    (bitwise(store.export_entries()), *collector.stats())
}

/// The entries of the keys agents send, and each service aggregate's
/// measured bins by minute.
fn split(entries: Entries) -> (Entries, BTreeMap<KpiKey, BTreeMap<u64, u64>>) {
    let (services, sent): (Entries, Entries) = entries
        .into_iter()
        .partition(|(key, ..)| matches!(key.entity, Entity::Service(_)));
    let aggregated = services
        .into_iter()
        .map(|(key, start, values, mask_start, bits)| {
            let measured = bits
                .iter()
                .zip(mask_start..)
                .filter(|(&present, _)| present)
                .filter_map(|(_, minute)| {
                    let at = usize::try_from(minute - start).ok()?;
                    Some((minute, *values.get(at)?))
                })
                .collect();
            (key, measured)
        })
        .collect();
    (sent, aggregated)
}

/// The counters, but for how many aggregates were stored and by which
/// path.
fn without_aggregates(stats: ReplayStats) -> ReplayStats {
    ReplayStats {
        aggregates: 0,
        backfilled_aggregates: 0,
        ..stats
    }
}

/// One interleaving of `raw`'s senders: each agent's frames, and the frames
/// no agent can claim, keep their own order; which sender goes next is
/// drawn from `seed`.
fn interleave(raw: &[Bytes], seed: u64) -> Vec<Bytes> {
    let mut queues: Vec<VecDeque<Bytes>> = vec![VecDeque::new(); AGENTS + 1];
    for frame in raw {
        let sender =
            decode_frame(frame.clone()).map_or(AGENTS, |d| (d.agent_id as usize).min(AGENTS));
        queues[sender].push_back(frame.clone());
    }
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(raw.len());
    while out.len() < raw.len() {
        let open: Vec<usize> = (0..queues.len())
            .filter(|&q| !queues[q].is_empty())
            .collect();
        let q = open[rng.below(open.len() as u64) as usize];
        out.extend(queues[q].pop_front());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_commit_counts_once_and_keeps_the_first_measurement(
        seeds in prop::collection::vec(any::<u64>(), 1..90),
        horizon in 0u64..4,
    ) {
        check_every_commit(&frames(&world(), &seeds), horizon);
    }

    #[test]
    fn any_interleaving_of_the_senders_stores_the_same(
        seeds in prop::collection::vec(any::<u64>(), 1..90),
        horizon in 0u64..4,
        order in any::<u64>(),
    ) {
        let raw = exclusive(&frames(&world(), &seeds));
        let (entries, stats) = outcome(&raw, horizon);
        let (shuffled_entries, shuffled_stats) = outcome(&interleave(&raw, order), horizon);
        let (sent, aggregated) = split(entries);
        let (shuffled_sent, shuffled_aggregated) = split(shuffled_entries);
        prop_assert_eq!(shuffled_sent, sent);
        prop_assert_eq!(without_aggregates(shuffled_stats), without_aggregates(stats));
        for (key, bins) in &aggregated {
            let shuffled = shuffled_aggregated.get(key).into_iter().flatten();
            for (minute, bits) in shuffled {
                if let Some(other) = bins.get(minute) {
                    prop_assert_eq!(other, bits, "{:?} minute {}", key, minute);
                }
            }
        }
    }
}

/// A delayed live record before its key's anchor is refused by the store
/// but is a measurement still: it counts toward its cell, once however
/// often the frame repeats it. The fuzz seldom repeats a refused key, so
/// this case is named here.
#[test]
fn a_record_before_its_anchor_counts_its_instance_once() {
    let world = world();
    let store = MetricStore::new();
    // Agent 1 sends nothing, so minute 4 stays pending.
    let mut c = Collector::for_world(&world, &store, 2, 2);
    let kind = KpiKind::PageViewCount;
    let key = KpiKey::new(Entity::Instance(InstanceId(0)), kind);
    let rec = WireRecord { key, value: 3.0 };
    assert!(c.ingest(&encode_frame(5, 0, &[rec])));
    assert!(c.ingest(&encode_frame(4, 0, &[rec, rec])));
    assert_eq!(c.stats().records, 1);
    let mut cells = MinuteAccs::new();
    cells.insert((ServiceId(0), kind), vec![(0, 3.0)]);
    assert_eq!(c.state().pending.get(&4), Some(&(1, cells)));
}

/// The fuzzer must reach the paths the properties speak about, or they
/// hold vacuously there.
#[test]
fn the_fuzzed_frames_reach_every_path() {
    let world = world();
    let topology = world.topology();
    let owns = |agent: u32, service: ServiceId| {
        topology
            .instances()
            .any(|i| i.service == service && i.server.0 as usize % AGENTS == agent as usize)
    };
    let mut total = ReplayStats::default();
    let mut aggregates_backfilled = 0;
    // Live instance records for a service their agent hosts no instance
    // of, and live frames that name one instance's key twice.
    let (mut foreign_cells, mut repeated_cells) = (0, 0);
    // Live instance records behind their key's frontier over a forward
    // fill, which the store passes over and the cell still counts, and
    // such records a frame repeats, which the cell counts once.
    let (mut passed_over, mut repeated_passed_over) = (0, 0);
    for case in 0..64u64 {
        let seeds: Vec<u64> = (0..80).map(|i| case * 1000 + i).collect();
        let raw = frames(&world, &seeds);
        let store = MetricStore::new();
        let mut c = Collector::for_world(&world, &store, AGENTS, 2);
        for frame in &raw {
            let ingest = c.classify(frame);
            if let Ingest::Live(live) = &ingest {
                let records = &live.records;
                let held = store.snapshot();
                for (at, rec) in records.iter().enumerate() {
                    let Entity::Instance(i) = rec.key.entity else {
                        continue;
                    };
                    if filled_at(&held, &rec.key, live.minute) && plausible(rec.value) {
                        passed_over += 1;
                        if records[..at].iter().any(|earlier| earlier.key == rec.key) {
                            repeated_passed_over += 1;
                        }
                    }
                    let Some(inst) = topology.instances().find(|x| x.id == i) else {
                        continue;
                    };
                    if plausible(rec.value) && !owns(live.agent_id, inst.service) {
                        foreign_cells += 1;
                    }
                    if records
                        .iter()
                        .skip(at + 1)
                        .any(|later| later.key == rec.key && plausible(later.value))
                        && plausible(rec.value)
                    {
                        repeated_cells += 1;
                    }
                }
            }
            c.commit(ingest);
        }
        c.finish();
        let s = c.stats();
        total.records += s.records;
        total.aggregates += s.aggregates;
        total.duplicate_frames += s.duplicate_frames;
        total.quarantined_frames += s.quarantined_frames;
        total.clock_skewed_frames += s.clock_skewed_frames;
        total.nonfinite_records += s.nonfinite_records;
        total.invalid_records += s.invalid_records;
        total.counter_reset_records += s.counter_reset_records;
        total.backfilled_frames += s.backfilled_frames;
        total.backfilled_records += s.backfilled_records;
        total.backfill_rejected_records += s.backfill_rejected_records;
        aggregates_backfilled += s.backfilled_aggregates;
    }
    assert!(total.records > 10_000, "{total:?}");
    assert!(total.aggregates > 100, "{total:?}");
    assert!(total.duplicate_frames > 10, "{total:?}");
    assert!(total.quarantined_frames > 10, "{total:?}");
    assert!(total.clock_skewed_frames > 0, "{total:?}");
    assert!(total.nonfinite_records > 100, "{total:?}");
    assert!(total.invalid_records > total.nonfinite_records, "{total:?}");
    assert!(total.counter_reset_records > 0, "{total:?}");
    assert!(total.backfilled_frames > 10, "{total:?}");
    assert!(total.backfilled_records > 100, "{total:?}");
    assert!(total.backfill_rejected_records > 0, "{total:?}");
    assert!(aggregates_backfilled > 0, "{total:?}");
    assert!(
        foreign_cells > 10,
        "{foreign_cells} foreign instance records"
    );
    assert!(
        repeated_cells > 100,
        "{repeated_cells} repeated instance keys"
    );
    assert!(
        passed_over > 10 && repeated_passed_over > 0,
        "{passed_over} records over a fill, {repeated_passed_over} of them repeated"
    );
}
