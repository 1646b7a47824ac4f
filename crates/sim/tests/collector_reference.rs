//! The shipped reference for the ingest hot path: the keyed collector and
//! the two-map store exactly as they stood before keys were interned,
//! frozen here so the slab store and the layout-cached `Collector::commit`
//! can be property-tested against them.
//!
//! Everything under [`shipped`] is a verbatim copy of
//! `sim/src/store.rs::{append, backfill, export_entries}` and
//! `sim/src/collector.rs::{classify, commit, finalize_ready,
//! finalize_minute, finish}` at the commit before this file was added, with
//! mechanical edits only: the `RwLock` wrappers are gone (the reference
//! runs on one thread), and so are the write-only `funnel_obs` calls and
//! the store's publication log and counters, which the store no longer
//! has. `CollectorState` and `MinuteAccs` are copied in as they stood too,
//! maps of `BTreeMap`s, since the shipped types keep their cells in tables
//! of their own: the states are compared by `Debug`, which a map prints as
//! its entries in key order. It must never be "fixed" or tuned: it is the
//! definition of the store contents, counters and collector state the fast
//! path has to reproduce. It carries mends, their lines marked `mended`: a
//! service cell counts each instance once, a live record behind its key's
//! frontier over a forward fill takes the late path, and `records` counts
//! only the records the store took.

#![expect(
    clippy::disallowed_types,
    reason = "a frozen copy of the keyed collector, HashMap lookups included"
)]

use bytes::Bytes;
use funnel_sim::agent::ReplayStats;
use funnel_sim::collector::{Collector, Ingest, MAX_PLAUSIBLE_VALUE};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::MetricStore;
use funnel_sim::wire::{encode_frame, WireRecord};
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use proptest::prelude::*;

mod shipped {
    use bytes::Bytes;
    use funnel_sim::agent::ReplayStats;
    use funnel_sim::collector::{
        Ingest, MAX_CLOCK_SKEW_MINUTES, MAX_COUNTER_RESET_DROP, MAX_PLAUSIBLE_VALUE,
    };
    use funnel_sim::kpi::{Aggregation, KpiKey, KpiKind};
    use funnel_sim::wire::{decode_frame, WireRecord};
    use funnel_sim::world::World;
    use funnel_timeseries::mask::CoverageMask;
    use funnel_timeseries::series::{MinuteBin, TimeSeries};
    use funnel_topology::impact::Entity;
    use funnel_topology::model::ServiceId;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    // ---- sim/src/store.rs ----------------------------------------------

    #[derive(Default)]
    pub struct Store {
        series: BTreeMap<KpiKey, TimeSeries>,
        masks: BTreeMap<KpiKey, CoverageMask>,
    }

    impl Store {
        // mended: returns whether the store took the measurement
        pub fn append(&mut self, key: KpiKey, minute: MinuteBin, value: f64) -> bool {
            {
                let map = &mut self.series;
                let series = map.entry(key).or_insert_with(|| TimeSeries::empty(minute));
                if series.is_empty() {
                    // Re-anchor an empty placeholder at the first real minute.
                    *series = TimeSeries::empty(minute);
                }
                let mut end = series.end();
                if minute < end {
                    // Late measurement for an already-filled minute: ignore
                    // (first write wins, as in the real store).
                    return false; // mended: see `append`
                }
                let last = series.values().last().copied().unwrap_or(value);
                while end < minute {
                    series.push(last);
                    end += 1;
                }
                series.push(value);
            }
            {
                let masks = &mut self.masks;
                let mask = masks
                    .entry(key)
                    .or_insert_with(|| CoverageMask::new(minute));
                mask.rebase(minute);
                mask.mark(minute);
            }
            true // mended: see `append`
        }

        // mended: whether the bin holds a real measurement
        pub fn measured(&self, key: KpiKey, minute: MinuteBin) -> bool {
            self.masks.get(&key).is_some_and(|m| m.is_present(minute))
        }

        pub fn backfill(&mut self, key: KpiKey, minute: MinuteBin, value: f64) -> bool {
            {
                let map = &mut self.series;
                let masks = &mut self.masks;
                let series = map.entry(key).or_insert_with(|| TimeSeries::empty(minute));
                if series.is_empty() {
                    *series = TimeSeries::empty(minute);
                }
                let mask = masks
                    .entry(key)
                    .or_insert_with(|| CoverageMask::new(minute));
                mask.rebase(minute);
                if minute >= series.end() {
                    // Beyond the frontier: behaves exactly like a live append.
                    let last = series.values().last().copied().unwrap_or(value);
                    let mut end = series.end();
                    while end < minute {
                        series.push(last);
                        end += 1;
                    }
                    series.push(value);
                } else {
                    if minute < series.start() || mask.is_present(minute) {
                        return false;
                    }
                    series.set(minute, value);
                    // Bins after this one that were forward-filled from the
                    // pre-gap value now re-fill from the recovered measurement,
                    // up to the next real measurement.
                    let mut m = minute + 1;
                    while m < series.end() && !mask.is_present(m) {
                        series.set(m, value);
                        m += 1;
                    }
                }
                mask.mark(minute);
            }
            true
        }

        pub fn export_entries(&self) -> Vec<(KpiKey, TimeSeries, CoverageMask)> {
            let series = &self.series;
            let masks = &self.masks;
            series
                .iter()
                .map(|(key, s)| {
                    let mask = masks
                        .get(key)
                        .cloned()
                        .unwrap_or_else(|| CoverageMask::new(s.start()));
                    (*key, s.clone(), mask)
                })
                .collect()
        }

        pub fn restore_entries(
            &mut self,
            entries: impl IntoIterator<Item = (KpiKey, TimeSeries, CoverageMask)>,
        ) {
            let series = &mut self.series;
            let masks = &mut self.masks;
            series.clear();
            masks.clear();
            for (key, s, mask) in entries {
                series.insert(key, s);
                masks.insert(key, mask);
            }
        }
    }

    // ---- sim/src/collector.rs ------------------------------------------

    pub type MinuteAccs = BTreeMap<(ServiceId, KpiKind), Vec<(u32, f64)>>;

    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct CollectorState {
        pub watermarks: Vec<Option<u64>>,
        pub seen: Vec<BTreeSet<u64>>,
        pub pending: BTreeMap<u64, (usize, MinuteAccs)>,
        pub backfill_stage: BTreeMap<(u32, u64), Vec<WireRecord>>,
        pub partial: BTreeMap<u64, MinuteAccs>,
    }

    impl CollectorState {
        pub fn new(shards: usize) -> Self {
            Self {
                watermarks: vec![None; shards],
                seen: vec![BTreeSet::new(); shards],
                pending: BTreeMap::new(),
                backfill_stage: BTreeMap::new(),
                partial: BTreeMap::new(),
            }
        }
    }

    pub struct Collector {
        pub store: Store,
        shards: usize,
        horizon: u64,
        instance_service: HashMap<u32, ServiceId>,
        service_sizes: HashMap<ServiceId, usize>,
        pub state: CollectorState,
        pub stats: ReplayStats,
        last_values: BTreeMap<KpiKey, f64>,
    }

    impl Collector {
        pub fn for_world(world: &World, shards: usize, horizon: u64) -> Self {
            let mut state = CollectorState::new(shards);
            let shards = shards.max(1);
            state.watermarks.resize(shards, None);
            state.seen.resize(shards, BTreeSet::new());
            let mut instance_service: HashMap<u32, ServiceId> = HashMap::new();
            for inst in world.topology().instances() {
                instance_service.insert(inst.id.0, inst.service);
            }
            let service_sizes: HashMap<ServiceId, usize> = world
                .topology()
                .services()
                .map(|(id, _)| (id, world.topology().instances_of(id).len()))
                .collect();
            Self {
                store: Store::default(),
                shards,
                horizon,
                instance_service,
                service_sizes,
                state,
                stats: ReplayStats::default(),
                last_values: BTreeMap::new(),
            }
        }

        pub fn classify(&self, raw: &Bytes) -> Ingest {
            let decoded = match decode_frame(raw.clone()) {
                Ok(d) => d,
                Err(_) => return Ingest::Quarantined(None),
            };
            let agent = decoded.agent_id as usize;
            if agent >= self.shards {
                return Ingest::Quarantined(Some(decoded.minute));
            }
            if self
                .state
                .seen
                .get(agent)
                .is_some_and(|s| s.contains(&decoded.minute))
            {
                return Ingest::Duplicate(decoded.minute);
            }
            if self
                .state
                .watermarks
                .get(agent)
                .and_then(|w| *w)
                .is_some_and(|w| decoded.minute > w + self.horizon + MAX_CLOCK_SKEW_MINUTES)
            {
                return Ingest::ClockSkewed(decoded.minute);
            }
            if self
                .state
                .watermarks
                .get(agent)
                .and_then(|w| *w)
                .is_some_and(|w| decoded.minute + self.horizon < w)
            {
                return Ingest::Backfill(decoded);
            }
            Ingest::Live(decoded)
        }

        pub fn commit(&mut self, ingest: Ingest) {
            match ingest {
                Ingest::Quarantined(_) => {
                    self.stats.quarantined_frames += 1;
                }
                Ingest::ClockSkewed(_) => {
                    self.stats.quarantined_frames += 1;
                    self.stats.clock_skewed_frames += 1;
                }
                Ingest::Duplicate(_) => {
                    self.stats.duplicate_frames += 1;
                }
                Ingest::Backfill(frame) => {
                    if let Some(seen) = self.state.seen.get_mut(frame.agent_id as usize) {
                        seen.insert(frame.minute);
                    }
                    self.stats.frames += 1;
                    self.stats.backfilled_frames += 1;
                    self.state
                        .backfill_stage
                        .insert((frame.agent_id, frame.minute), frame.records);
                }
                Ingest::Live(frame) => {
                    let agent = frame.agent_id as usize;
                    if let Some(seen) = self.state.seen.get_mut(agent) {
                        seen.insert(frame.minute);
                    }
                    self.stats.frames += 1;
                    if let Some(w) = self.state.watermarks.get_mut(agent) {
                        *w = Some(w.map_or(frame.minute, |x| x.max(frame.minute)));
                    }
                    let entry = self.state.pending.entry(frame.minute).or_default();
                    entry.0 += 1;
                    for rec in &frame.records {
                        if !rec.value.is_finite() {
                            self.stats.invalid_records += 1;
                            self.stats.nonfinite_records += 1;
                            continue;
                        }
                        if rec.value.abs() > MAX_PLAUSIBLE_VALUE {
                            self.stats.invalid_records += 1;
                            continue;
                        }
                        if self
                            .last_values
                            .get(&rec.key)
                            .is_some_and(|prev| rec.value - prev < -MAX_COUNTER_RESET_DROP)
                        {
                            self.stats.invalid_records += 1;
                            self.stats.counter_reset_records += 1;
                            continue;
                        }
                        self.last_values.insert(rec.key, rec.value);
                        // mended: a record behind the frontier over a fill takes the late path
                        let taken = self.store.append(rec.key, frame.minute, rec.value)
                            || (!self.store.measured(rec.key, frame.minute)
                                && self.store.backfill(rec.key, frame.minute, rec.value));
                        if taken {
                            self.stats.records += 1; // mended: only records the store took
                        }
                        if let Entity::Instance(i) = rec.key.entity {
                            if let Some(&svc) = self.instance_service.get(&i.0) {
                                // mended: a record the store refused enters unless its bin
                                // was measured or its cell holds its instance
                                let cell = entry.1.get(&(svc, rec.key.kind));
                                if !taken
                                    && (self.store.measured(rec.key, frame.minute)
                                        || cell.is_some_and(|c| c.iter().any(|&(j, _)| j == i.0)))
                                {
                                    continue;
                                }
                                entry
                                    .1
                                    .entry((svc, rec.key.kind))
                                    .or_default()
                                    .push((i.0, rec.value));
                            }
                        }
                    }
                    self.finalize_ready();
                }
            }
        }

        pub fn ingest(&mut self, raw: &Bytes) -> bool {
            let ingest = self.classify(raw);
            let accepted = ingest.accepted();
            self.commit(ingest);
            accepted
        }

        fn finalize_ready(&mut self) {
            while let Some((&minute, entry)) = self.state.pending.iter().next() {
                let complete = entry.0 >= self.shards;
                let all_past = self
                    .state
                    .watermarks
                    .iter()
                    .all(|w| w.is_some_and(|x| x >= minute + self.horizon));
                if !complete && !all_past {
                    break;
                }
                if let Some((_, accs)) = self.state.pending.remove(&minute) {
                    self.finalize_minute(minute, accs);
                }
            }
        }

        fn finalize_minute(&mut self, minute: u64, accs: MinuteAccs) {
            for ((svc, kind), mut cells) in accs {
                if cells.is_empty() {
                    continue;
                }
                if cells.len() != *self.service_sizes.get(&svc).unwrap_or(&0) {
                    self.state
                        .partial
                        .entry(minute)
                        .or_default()
                        .entry((svc, kind))
                        .or_default()
                        .append(&mut cells);
                    continue;
                }
                cells.sort_by_key(|(id, _)| *id);
                let sum: f64 = cells.iter().map(|(_, v)| v).sum();
                let value = match kind.aggregation() {
                    Aggregation::Sum => sum,
                    Aggregation::Mean => sum / cells.len() as f64,
                };
                self.store
                    .append(KpiKey::new(Entity::Service(svc), kind), minute, value);
                self.stats.aggregates += 1;
            }
        }

        pub fn finish(&mut self) {
            for (minute, (_, accs)) in std::mem::take(&mut self.state.pending) {
                self.finalize_minute(minute, accs);
            }
            for ((_, minute), records) in std::mem::take(&mut self.state.backfill_stage) {
                for rec in records {
                    if !rec.value.is_finite() || rec.value.abs() > MAX_PLAUSIBLE_VALUE {
                        self.stats.invalid_records += 1;
                        if !rec.value.is_finite() {
                            self.stats.nonfinite_records += 1;
                        }
                        continue;
                    }
                    let taken = self.store.backfill(rec.key, minute, rec.value); // mended
                    if taken {
                        self.stats.backfilled_records += 1;
                    } else {
                        self.stats.backfill_rejected_records += 1;
                    }
                    if let Entity::Instance(i) = rec.key.entity {
                        if let Some(&svc) = self.instance_service.get(&i.0) {
                            // mended: a backfilled record enters unless its bin was measured
                            // or its cell holds its instance
                            let cell = self
                                .state
                                .partial
                                .get(&minute)
                                .and_then(|m| m.get(&(svc, rec.key.kind)));
                            if !taken && self.store.measured(rec.key, minute)
                                || cell.is_some_and(|c| c.iter().any(|&(j, _)| j == i.0))
                            {
                                continue;
                            }
                            self.state
                                .partial
                                .entry(minute)
                                .or_default()
                                .entry((svc, rec.key.kind))
                                .or_default()
                                .push((i.0, rec.value));
                        }
                    }
                }
            }
            for (minute, accs) in std::mem::take(&mut self.state.partial) {
                for ((svc, kind), mut cells) in accs {
                    if cells.len() != *self.service_sizes.get(&svc).unwrap_or(&0)
                        || cells.is_empty()
                    {
                        continue;
                    }
                    cells.sort_by_key(|(id, _)| *id);
                    let sum: f64 = cells.iter().map(|(_, v)| v).sum();
                    let value = match kind.aggregation() {
                        Aggregation::Sum => sum,
                        Aggregation::Mean => sum / cells.len() as f64,
                    };
                    if self
                        .store
                        .backfill(KpiKey::new(Entity::Service(svc), kind), minute, value)
                    {
                        self.stats.backfilled_aggregates += 1;
                    }
                }
            }
        }
    }
}

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

// ---- comparison ------------------------------------------------------------

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

struct Outcome {
    entries: Entries,
    stats: ReplayStats,
    /// `Debug` of the state: floats print shortest-round-trip, so equal
    /// strings are equal bits.
    state: String,
}

fn assert_same(fast: &Outcome, reference: &Outcome, when: &str) {
    assert_eq!(fast.stats, reference.stats, "ReplayStats {when}");
    assert_eq!(fast.state, reference.state, "CollectorState {when}");
    assert_eq!(fast.entries, reference.entries, "export_entries {when}");
}

fn fast_outcome(store: &MetricStore, collector: &Collector<'_>) -> Outcome {
    Outcome {
        entries: bitwise(store.export_entries()),
        stats: *collector.stats(),
        state: format!("{:?}", collector.state()),
    }
}

fn reference_outcome(c: &shipped::Collector) -> Outcome {
    Outcome {
        entries: bitwise(c.store.export_entries()),
        stats: c.stats,
        state: format!("{:?}", c.state),
    }
}

/// Drives both collectors with `raw`, comparing after the stream and again
/// after `finish`. `restore_at` swaps the store's contents under both live
/// collectors before that frame.
fn run_case(raw: &[Bytes], horizon: u64, restore_at: Option<usize>) {
    let world = world();
    let store = MetricStore::new();
    let mut fast = Collector::for_world(&world, &store, AGENTS, horizon);
    let mut reference = shipped::Collector::for_world(&world, AGENTS, horizon);

    for (i, frame) in raw.iter().enumerate() {
        if restore_at == Some(i) {
            // Every other key survives, with what it held; one key nobody
            // has sent arrives with history of its own.
            let mut kept: Vec<_> = reference
                .store
                .export_entries()
                .into_iter()
                .step_by(2)
                .collect();
            kept.push((
                KpiKey::new(Entity::Server(ServerId(77)), KpiKind::NicThroughput),
                TimeSeries::new(3, vec![1.0, 2.0]),
                CoverageMask::from_bits(3, vec![true, false]),
            ));
            kept.reverse();
            store.restore_entries(kept.clone());
            reference.store.restore_entries(kept);
        }
        let accepted = fast.ingest(frame);
        assert_eq!(accepted, reference.ingest(frame), "frame {i} accepted");
        assert_eq!(
            *fast.stats(),
            reference.stats,
            "ReplayStats after frame {i}"
        );
    }
    assert_same(
        &fast_outcome(&store, &fast),
        &reference_outcome(&reference),
        "at end of stream",
    );
    fast.finish();
    reference.finish();
    assert_same(
        &fast_outcome(&store, &fast),
        &reference_outcome(&reference),
        "after finish",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn slab_collector_matches_the_shipped_keyed_collector(
        seeds in prop::collection::vec(any::<u64>(), 1..90),
        horizon in 0u64..4,
    ) {
        let world = world();
        run_case(&frames(&world, &seeds), horizon, None);
    }

    #[test]
    fn a_restore_under_a_live_collector_changes_nothing_else(
        seeds in prop::collection::vec(any::<u64>(), 6..60),
        horizon in 0u64..4,
        restore_frac in 0.0..1.0f64,
    ) {
        let world = world();
        let raw = frames(&world, &seeds);
        let at = ((restore_frac * raw.len() as f64) as usize).min(raw.len() - 1);
        run_case(&raw, horizon, Some(at));
    }
}

/// The fuzzer must reach the paths the issue names, or the equivalence
/// above is vacuous on them.
#[test]
fn the_fuzzed_frames_reach_every_path() {
    let world = world();
    let topology = world.topology();
    let owns = |agent: u32, service: ServiceId| {
        topology
            .instances()
            .any(|i| i.service == service && i.server.0 as usize % AGENTS == agent as usize)
    };
    let plausible = |v: f64| v.is_finite() && v.abs() <= MAX_PLAUSIBLE_VALUE;
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
        let mut c = shipped::Collector::for_world(&world, AGENTS, 2);
        for frame in &raw {
            let ingest = c.classify(frame);
            if let Ingest::Live(live) = &ingest {
                let records = &live.records;
                let held = c.store.export_entries();
                for (at, rec) in records.iter().enumerate() {
                    let Entity::Instance(i) = rec.key.entity else {
                        continue;
                    };
                    let filled = held.iter().any(|(key, series, mask)| {
                        *key == rec.key
                            && (series.start()..series.end()).contains(&live.minute)
                            && !mask.is_present(live.minute)
                    });
                    if filled && plausible(rec.value) {
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
        let s = c.stats;
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
