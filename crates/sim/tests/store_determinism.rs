//! Regression tests for ordered iteration: the store's key enumeration
//! and the collector's per-minute aggregation must not depend on insertion
//! order (which, with a hash map underneath, would really mean hasher
//! order — different on every run).

use funnel_resilience::checkpoint::CheckpointStore;
use funnel_resilience::WalCursor;
use funnel_sim::collector::{Collector, CollectorState};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::MetricStore;
use funnel_sim::wire::{encode_frame, WireRecord};
use funnel_sim::world::{SimConfig, WorldBuilder};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// A spread of keys across entity levels and KPI kinds.
fn key_set() -> Vec<KpiKey> {
    let mut keys = Vec::new();
    for n in 0..6u32 {
        keys.push(KpiKey::new(
            Entity::Server(ServerId(n)),
            KpiKind::CpuUtilization,
        ));
        keys.push(KpiKey::new(
            Entity::Instance(InstanceId(n)),
            KpiKind::PageViewCount,
        ));
        keys.push(KpiKey::new(
            Entity::Instance(InstanceId(n)),
            KpiKind::PageViewResponseDelay,
        ));
        keys.push(KpiKey::new(
            Entity::Service(ServiceId(n)),
            KpiKind::AccessFailureCount,
        ));
    }
    keys
}

/// A deterministic per-key value so both stores hold identical series.
fn value_for(key: &KpiKey, minute: u64) -> f64 {
    let tag = match key.entity {
        Entity::Server(s) => s.0 as f64,
        Entity::Instance(i) => 100.0 + i.0 as f64,
        Entity::Service(s) => 200.0 + s.0 as f64,
    };
    tag * 7.0 + minute as f64 * 0.5
}

/// Renders everything a downstream report could observe from the store,
/// byte for byte: key enumeration order, series values, coverage masks.
fn report_bytes(store: &MetricStore) -> String {
    let mut out = String::new();
    for key in store.keys() {
        let series = store.get(&key).expect("enumerated key exists");
        out.push_str(&format!("{key:?} start={}\n", series.start()));
        for v in series.values() {
            out.push_str(&format!("  {}\n", v.to_bits()));
        }
        out.push_str(&format!("  coverage={}\n", store.coverage(&key, 0, 10)));
    }
    out
}

#[test]
fn shuffled_insertion_order_produces_identical_report_bytes() {
    let keys = key_set();

    // Store A: keys appended in natural order; Store B: reversed, with an
    // extra deterministic interleave so no two keys keep their relative
    // insertion positions.
    let store_a = MetricStore::new();
    for minute in 0..10u64 {
        for key in &keys {
            store_a.append(*key, minute, value_for(key, minute));
        }
    }
    let store_b = MetricStore::new();
    for minute in 0..10u64 {
        let mut shuffled: Vec<&KpiKey> = keys.iter().rev().collect();
        // Deterministic mid-point rotation, different per minute.
        let rot = (minute as usize * 5 + 3) % shuffled.len();
        shuffled.rotate_left(rot);
        for key in shuffled {
            store_b.append(*key, minute, value_for(key, minute));
        }
    }

    assert_eq!(store_a.keys(), store_b.keys(), "key enumeration diverged");
    assert_eq!(
        report_bytes(&store_a),
        report_bytes(&store_b),
        "report bytes depend on insertion order"
    );
}

#[test]
fn key_enumeration_is_sorted() {
    let store = MetricStore::new();
    for key in key_set().iter().rev() {
        store.append(*key, 0, 1.0);
    }
    let keys = store.keys();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "keys() must be deterministic and sorted");
}

/// Every file of a checkpoint directory, by name.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

/// Slot ids follow arrival order; nothing a reader or a checkpoint can see
/// may. The same measurements — live appends, gaps, backfills, a batch
/// insert, a key emptied by a restore and written again — reach two stores
/// in two key orders, and both are cut at the same points: a base, a delta
/// of frontier appends, a delta that rewrites history. The two checkpoint
/// directories must hold the same files with the same bytes.
#[test]
fn interning_order_reaches_no_reader_and_no_checkpoint_byte() {
    let keys = key_set();
    let base = std::env::temp_dir().join(format!("funnel-interning-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let state = CollectorState::new(2);
    let extra = KpiKey::new(Entity::Server(ServerId(3)), KpiKind::MemoryUtilization);

    let fill = |tag: &str, order: &[KpiKey]| {
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(&base.join(tag)).unwrap();
        let mut cut = |store: &MetricStore, frames: u64| {
            let wal = WalCursor {
                frames,
                ..WalCursor::START
            };
            checkpoints.cut(wal, store, &state, None).unwrap();
        };
        // A restore that keeps nothing: every key of `order` is interned,
        // in this order, and none is held.
        for key in order {
            store.append(*key, 0, 0.0);
        }
        store.restore_entries(Vec::new());
        assert!(store.is_empty() && store.keys().is_empty());
        // Forty minutes with a gap every ninth, so the deltas below stay
        // far smaller than the base and the 2× rule never fires.
        for minute in (2..40u64).filter(|m| m % 9 != 4) {
            for key in order {
                store.append(*key, minute, value_for(key, minute));
            }
        }
        cut(&store, 1);
        for key in order {
            store.append(*key, 41, value_for(key, 41));
        }
        cut(&store, 2);
        for key in order {
            assert!(store.backfill(*key, 31, value_for(key, 31)));
        }
        // Batch materialisation joins late, at opposite ends of the id space.
        store.insert(extra, TimeSeries::new(1, vec![4.0, 5.0]));
        cut(&store, 3);
        store
    };
    let forward = fill("forward", &keys);
    let mut shuffled = keys.clone();
    shuffled.reverse();
    shuffled.rotate_left(7);
    let backward = fill("backward", &shuffled);

    assert_eq!(forward.keys(), backward.keys());
    assert_eq!(forward.len(), keys.len() + 1);
    assert_eq!(forward.export_entries(), backward.export_entries());
    assert_eq!(forward.snapshot().keys(), backward.keys());
    let (forward_dir, backward_dir) = (
        dir_bytes(&base.join("forward")),
        dir_bytes(&base.join("backward")),
    );
    // The two newest manifests and the whole chain under them.
    let names: Vec<&str> = forward_dir.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "ckpt-00000001.bin",
            "ckpt-00000002.bin",
            "seg-00000000.bin",
            "seg-00000001.bin",
            "seg-00000002.bin",
        ]
    );
    assert!(
        forward_dir == backward_dir,
        "checkpoint bytes depend on interning order"
    );
    let recovered = CheckpointStore::latest_valid(&base.join("backward"))
        .unwrap()
        .expect("a usable manifest");
    assert_eq!(recovered.entries, forward.export_entries());
    let _ = fs::remove_dir_all(&base);
}

/// A collector keeps ids across frames. `restore_entries` under it drops
/// keys, keeps others and brings in new ones; the collector's next frames
/// must land in exactly the keys they name.
#[test]
fn a_collector_used_across_a_restore_writes_only_the_keys_it_is_sent() {
    let mut b = WorldBuilder::new(SimConfig {
        seed: 1,
        start: 0,
        duration: 16,
    });
    b.add_service("prod.one", 2).unwrap();
    let world = b.build();
    let sent: Vec<KpiKey> = (0..2u32)
        .flat_map(|n| {
            [
                KpiKey::new(Entity::Server(ServerId(n)), KpiKind::CpuUtilization),
                KpiKey::new(Entity::Instance(InstanceId(n)), KpiKind::PageViewCount),
            ]
        })
        .collect();
    let frame = |minute: u64| {
        let records: Vec<WireRecord> = sent
            .iter()
            .map(|key| WireRecord {
                key: *key,
                value: value_for(key, minute),
            })
            .collect();
        encode_frame(minute, 0, &records)
    };

    let store = MetricStore::new();
    let mut collector = Collector::for_world(&world, &store, 1, 0);
    for minute in 0..3 {
        assert!(collector.ingest(&frame(minute)));
    }
    // Keep the second and fourth key as they are, drop the other two, and
    // bring in a bystander; entries arrive in an order of their own.
    let bystander = KpiKey::new(Entity::Server(ServerId(9)), KpiKind::NicThroughput);
    let mut kept: Vec<_> = store
        .export_entries()
        .into_iter()
        .filter(|(key, _, _)| *key == sent[1] || *key == sent[3])
        .collect();
    kept.push((
        bystander,
        TimeSeries::new(0, vec![7.0, 8.0]),
        CoverageMask::all_present(0, 2),
    ));
    kept.reverse();
    store.restore_entries(kept);
    for minute in 3..6 {
        assert!(collector.ingest(&frame(minute)));
    }

    let service = KpiKey::new(Entity::Service(ServiceId(0)), KpiKind::PageViewCount);
    for key in &sent {
        let series = store.get(key).expect("sent key held");
        let mask = store.mask(key).expect("sent key has a mask");
        // Kept keys carry all six minutes; dropped ones restart at 3.
        let start = if *key == sent[1] || *key == sent[3] {
            0
        } else {
            3
        };
        assert_eq!(series.start(), start, "{key:?}");
        assert_eq!(mask.start(), start, "{key:?}");
        let want: Vec<f64> = (start..6).map(|m| value_for(key, m)).collect();
        assert_eq!(series.values(), &want[..], "{key:?}");
        assert_eq!(mask.bits(), &vec![true; want.len()][..], "{key:?}");
    }
    assert_eq!(
        store.get(&bystander).map(|s| s.values().to_vec()),
        Some(vec![7.0, 8.0]),
        "a write went through a stale id"
    );
    // The restore dropped the aggregate too; it restarts with the frames.
    assert_eq!(store.get(&service).map(|s| s.start()), Some(3));
    assert_eq!(store.len(), sent.len() + 2, "{:?}", store.keys());
}
