//! Concurrency tests for the central metric store: many agent threads
//! appending while readers and checkpoint cuts race them — the contention
//! pattern of the real deployment (§2.2: every server's agent pushes once a
//! minute while FUNNEL reads).

use funnel_resilience::checkpoint::{decode_manifest, CheckpointStore};
use funnel_resilience::WalCursor;
use funnel_sim::collector::{Collector, CollectorState};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::MetricStore;
use funnel_sim::wire::{encode_frame, WireRecord};
use funnel_sim::world::{SimConfig, WorldBuilder};
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

fn key(n: u32) -> KpiKey {
    KpiKey::new(Entity::Server(ServerId(n)), KpiKind::CpuUtilization)
}

#[test]
fn parallel_appenders_disjoint_keys() {
    let store = MetricStore::new();
    let threads = 8;
    let minutes = 500u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = &store;
            s.spawn(move || {
                for m in 0..minutes {
                    store.append(key(t), m, (t as f64) * 1000.0 + m as f64);
                }
            });
        }
    });
    for t in 0..threads {
        let series = store.get(&key(t)).expect("series exists");
        assert_eq!(series.len(), minutes as usize);
        assert_eq!(series.at(7), Some((t as f64) * 1000.0 + 7.0));
    }
}

/// A series and its mask live in one slot and change under one lock, a
/// whole frame at a time. Readers racing the collector therefore never see
/// a series whose newest minute its mask does not cover — neither through
/// `get` then `mask` (two lock acquisitions; the mask only grows), nor in
/// a snapshot, where the two must agree exactly — and a snapshot taken
/// mid-race stays what it was.
#[test]
fn readers_racing_a_per_frame_writer_see_series_and_mask_agree() {
    const MINUTES: u64 = 600;
    let mut b = WorldBuilder::new(SimConfig {
        seed: 2,
        start: 0,
        duration: MINUTES as usize,
    });
    b.add_service("prod.race", 2).unwrap();
    let world = b.build();
    let mut keys: Vec<KpiKey> = (0..2u32)
        .flat_map(|n| {
            [
                KpiKey::new(Entity::Server(ServerId(n)), KpiKind::CpuUtilization),
                KpiKey::new(Entity::Instance(InstanceId(n)), KpiKind::PageViewCount),
            ]
        })
        .collect();
    let sent = keys.clone();
    // The aggregate the collector appends under the same lock as the frame.
    keys.push(KpiKey::new(
        Entity::Service(ServiceId(0)),
        KpiKind::PageViewCount,
    ));

    let store = MetricStore::new();
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let (store, keys, start, done, reads) = (&store, &keys, &start, &done, &reads);
                s.spawn(move || {
                    let mut lengths = BTreeSet::new();
                    let mut frozen = None;
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        for key in keys {
                            let series = store.get(key);
                            let mask = store.mask(key);
                            if let (Some(series), Some(mask)) = (series, mask) {
                                assert!(
                                    mask.is_present(series.end() - 1),
                                    "{key:?}: series ends at {} but its mask does not cover that minute",
                                    series.end()
                                );
                                lengths.insert(series.len());
                            }
                        }
                        let snap = store.snapshot();
                        for key in keys {
                            if let (Some(series), Some(mask)) = (snap.get(key), snap.mask(key)) {
                                assert_eq!(series.end(), mask.end(), "{key:?} in a snapshot");
                                assert!(mask.is_present(series.end() - 1), "{key:?} in a snapshot");
                            }
                        }
                        if frozen.is_none() && snap.len() == keys.len() && r == 0 {
                            let seen: Vec<usize> =
                                keys.iter().map(|k| snap.get(k).map_or(0, |s| s.len())).collect();
                            frozen = Some((snap, seen));
                        }
                        reads.fetch_add(1, Ordering::SeqCst);
                    }
                    (lengths, frozen)
                })
            })
            .collect();

        let mut collector = Collector::for_world(&world, &store, 1, 0);
        start.wait();
        let mut passes = 0;
        'stream: for minute in 0..MINUTES {
            // Paced by the readers, so the race lasts the whole stream: a
            // frame goes in only once another pass over the store is done.
            while reads.load(Ordering::SeqCst) == passes {
                if readers.iter().any(|r| r.is_finished()) {
                    // A reader's assertion failed; the join reports it.
                    break 'stream;
                }
                std::thread::yield_now();
            }
            passes = reads.load(Ordering::SeqCst);
            let records: Vec<WireRecord> = sent
                .iter()
                .map(|key| WireRecord {
                    key: *key,
                    value: minute as f64,
                })
                .collect();
            assert!(collector.ingest(&encode_frame(minute, 0, &records)));
        }
        done.store(true, Ordering::SeqCst);

        let mut distinct = BTreeSet::new();
        for reader in readers {
            let (lengths, frozen) = reader.join().expect("reader saw a torn slot");
            distinct.extend(lengths);
            if let Some((snap, seen)) = frozen {
                let now: Vec<usize> = keys
                    .iter()
                    .map(|k| snap.get(k).map_or(0, |s| s.len()))
                    .collect();
                assert_eq!(now, seen, "a snapshot moved after it was taken");
                assert!(seen.iter().all(|&len| len < MINUTES as usize));
            }
        }
        assert!(
            distinct.len() > 20,
            "readers saw only {} store states: no race happened",
            distinct.len()
        );
    });
    for key in &keys {
        assert_eq!(store.get(key).map(|s| s.len()), Some(MINUTES as usize));
    }
}

/// A cut encodes what was written since the last one and marks the store
/// clean under one hold of the write lock. Were the two apart, a write
/// landing between them would be in no segment and marked clean all the
/// same: the chain would miss a minute for good. A writer appends and
/// backfills as fast as it can while the main thread cuts; the chain must
/// add up to the store once the writer stops.
#[test]
fn a_writer_racing_cuts_loses_no_write_between_encode_and_mark_clean() {
    const KEYS: u32 = 6;
    const MID_RACE_CUTS: u64 = 200;
    let dir = std::env::temp_dir().join(format!("funnel-cut-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MetricStore::new();
    // History enough that the race's deltas stay small beside it and the
    // chain is mostly continued, rarely restarted.
    for k in 0..KEYS {
        for minute in 0..2_000 {
            store.append(key(k), minute, minute as f64);
        }
    }
    let state = CollectorState::new(1);
    let start = Barrier::new(2);
    let cuts = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (last_cut, deltas) = std::thread::scope(|s| {
        let writer = {
            let (store, start, cuts, done) = (&store, &start, &cuts, &done);
            s.spawn(move || {
                start.wait();
                let mut minute = 2_000u64;
                // Paced by the cutter, so the race lasts for every cut
                // counted: writing stops only once enough were taken.
                while cuts.load(Ordering::SeqCst) < MID_RACE_CUTS {
                    for k in 0..KEYS {
                        // Every fifth minute is skipped, then backfilled.
                        if minute % 5 != u64::from(k) % 5 {
                            store.append(key(k), minute, minute as f64 + f64::from(k));
                        }
                    }
                    if minute.is_multiple_of(3) {
                        let k = (minute / 3) as u32 % KEYS;
                        let late = minute - 5 + (u64::from(k) + 5 - minute % 5) % 5;
                        store.backfill(key(k), late, -(late as f64));
                    }
                    minute += 1;
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        let mut deltas = 0;
        let mut cut = |frames: u64| {
            let wal = WalCursor {
                frames,
                ..WalCursor::START
            };
            let manifest = checkpoints.cut(wal, &store, &state, None).unwrap();
            let manifest = decode_manifest(&std::fs::read(manifest).unwrap()).unwrap();
            deltas += u64::from(manifest.segments.len() > 1);
        };
        start.wait();
        while !done.load(Ordering::SeqCst) && !writer.is_finished() {
            cut(cuts.load(Ordering::SeqCst));
            cuts.fetch_add(1, Ordering::SeqCst);
        }
        writer.join().expect("writer ok");
        // One more with the writer gone.
        let last_cut = cuts.load(Ordering::SeqCst);
        cut(last_cut);
        (last_cut, deltas)
    });
    assert!(
        deltas >= MID_RACE_CUTS / 2,
        "only {deltas} cuts continued a chain: no race on a delta happened"
    );
    let recovered = CheckpointStore::latest_valid(&dir)
        .unwrap()
        .expect("a usable manifest");
    assert_eq!(
        recovered.wal.frames, last_cut,
        "the newest chain does not add up: recovery fell back"
    );
    assert!(
        recovered.entries == store.export_entries(),
        "a write fell between a cut's encode and its mark-clean"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
