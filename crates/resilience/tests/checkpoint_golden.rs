//! The checkpoint bytes of a fixed small ingest, pinned by hash.
//!
//! Three agents feed a six-instance fleet one frame a minute, in a fixed
//! order on one thread; one agent goes dark for ten minutes and, after its
//! first frame back, delivers the part of its backlog that lies behind the
//! reorder horizon (the minute inside it is lost). A cut every seven accepted
//! frames lands on pending minutes with their service cells and on minutes
//! finalized incomplete (partial cells), which the backlog's cells join, and
//! the test checks that some cut holds each. How the collector keeps those
//! cells in memory is its own business; what it writes must not move.

use funnel_resilience::checkpoint::decode_manifest;
use funnel_resilience::{CheckpointStore, WalCursor};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::wire::{encode_frame, WireRecord};
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sim::{fnv1a_words, Collector, MetricStore};
use funnel_topology::impact::Entity;
use funnel_topology::model::ServerId;

const AGENTS: usize = 3;
const MINUTES: u64 = 40;
const HORIZON: u64 = 1;
/// The agent that goes dark, and the minutes it does not send live.
const DARK_AGENT: usize = 2;
const DARK: std::ops::Range<u64> = 10..20;

fn world() -> World {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 11,
        start: 0,
        duration: MINUTES as usize,
    });
    b.add_service("prod.web", 3).unwrap();
    b.add_service("prod.ads", 3).unwrap();
    b.build()
}

/// Agent `agent`'s frame for `minute`: per server it owns, its server
/// KPIs, then those of the instances it hosts; values a pure function of
/// key position and minute.
fn frame(world: &World, agent: usize, minute: u64) -> bytes::Bytes {
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
    let records: Vec<WireRecord> = keys
        .into_iter()
        .enumerate()
        .map(|(pos, key)| WireRecord {
            key,
            value: 50.0 + pos as f64 * 1.5 + minute as f64 * 0.25,
        })
        .collect();
    encode_frame(minute, agent as u32, &records)
}

/// The arrival order: minute by minute, agent by agent, the dark agent's
/// backlog right after its first frame back: every frame of it a backfill
/// frame, none a late live frame.
fn arrivals(world: &World) -> Vec<bytes::Bytes> {
    let mut out = Vec::new();
    for minute in 0..MINUTES {
        for agent in 0..AGENTS {
            if agent == DARK_AGENT && DARK.contains(&minute) {
                continue;
            }
            out.push(frame(world, agent, minute));
            if agent == DARK_AGENT && minute == DARK.end {
                let backlog = DARK.start..DARK.end - HORIZON;
                out.extend(backlog.map(|m| frame(world, agent, m)));
            }
        }
    }
    out
}

#[test]
fn the_cuts_of_a_fixed_ingest_keep_their_bytes() {
    let world = world();
    let dir = std::env::temp_dir().join(format!("funnel-ckpt-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut checkpoints = CheckpointStore::open(&dir).unwrap();
    let store = MetricStore::new();
    let mut collector = Collector::for_world(&world, &store, AGENTS, HORIZON);
    // Every cut's segment and manifest, in the order they were written.
    let mut written = Vec::new();
    let (mut pending_cells, mut partial_cells) = (0, 0);
    let mut accepted = 0;
    for raw in arrivals(&world) {
        if !collector.ingest(&raw) {
            continue;
        }
        accepted += 1;
        if accepted % 7 != 0 {
            continue;
        }
        let wal = WalCursor {
            frames: accepted,
            segment: 0,
            offset: accepted * 100,
        };
        let manifest = checkpoints
            .cut(wal, &store, collector.state(), None)
            .unwrap();
        let name = manifest.file_name().unwrap().to_str().unwrap();
        let segment = dir.join(name.replace("ckpt-", "seg-"));
        written.extend_from_slice(&std::fs::read(segment).unwrap());
        let bytes = std::fs::read(&manifest).unwrap();
        written.extend_from_slice(&bytes);

        // What the cut wrote decodes to what the collector holds.
        let state = decode_manifest(&bytes).unwrap().collector;
        assert_eq!(&state, collector.state());
        pending_cells += state
            .pending
            .values()
            .map(|(_, accs)| accs.len())
            .sum::<usize>();
        partial_cells += state.partial.values().map(|accs| accs.len()).sum::<usize>();
    }
    assert!(accepted > 100, "{accepted} frames accepted");
    let backfilled = collector.stats().backfilled_frames;
    assert_eq!(backfilled, (DARK.end - HORIZON - DARK.start) as usize);
    assert!(
        pending_cells > 0 && partial_cells > 0,
        "cuts hold {pending_cells} pending cells, {partial_cells} partial"
    );
    assert_eq!(
        fnv1a_words(&written),
        203_066_702_901_243_754,
        "checkpoint bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
