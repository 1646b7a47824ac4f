//! Fuzz-style property tests for the wire codec.
//!
//! The fault-injection transport hands the collector truncated and
//! bit-flipped frames on purpose, so `decode_frame` is a trust boundary:
//! for *any* input bytes it must return `Ok` with a well-formed frame or a
//! `WireError` — never panic, never over-allocate, never fabricate records
//! the bytes cannot hold — and a frame changed in any one byte never
//! decodes at all.

use bytes::Bytes;
use funnel_sim::collector::{MAX_CLOCK_SKEW_MINUTES, MAX_COUNTER_RESET_DROP};
use funnel_sim::wire::{decode_frame, encode_frame, WireRecord};
use funnel_sim::world::SimConfig;
use funnel_sim::{Collector, Ingest, KpiKey, KpiKind, MetricStore, World, WorldBuilder};
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use proptest::prelude::*;

const KINDS: [KpiKind; 8] = [
    KpiKind::CpuUtilization,
    KpiKind::MemoryUtilization,
    KpiKind::NicThroughput,
    KpiKind::CpuContextSwitch,
    KpiKind::PageViewCount,
    KpiKind::PageViewResponseDelay,
    KpiKind::AccessFailureCount,
    KpiKind::EffectiveClickCount,
];

fn record(entity_sel: u8, id: u32, kind_sel: usize, value: f64) -> WireRecord {
    let entity = match entity_sel % 3 {
        0 => Entity::Server(ServerId(id)),
        1 => Entity::Instance(InstanceId(id)),
        _ => Entity::Service(ServiceId(id)),
    };
    WireRecord {
        key: KpiKey::new(entity, KINDS[kind_sel % KINDS.len()]),
        value,
    }
}

/// Decoding must be total: any outcome but a panic (and if the bytes say
/// `Ok`, the frame must be self-consistent with what bytes can hold).
fn assert_total(bytes: Vec<u8>) {
    let len = bytes.len();
    if let Ok(frame) = decode_frame(Bytes::from(bytes)) {
        // 16-byte header + 14 bytes per record + 8-byte checksum: Ok
        // implies the bytes held exactly the records it reports.
        assert_eq!(len, 16 + frame.records.len() * 14 + 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        assert_total(bytes);
    }

    #[test]
    fn truncated_frames_never_panic(
        minute in 0u64..100_000,
        agent in 0u32..64,
        entity_sels in prop::collection::vec(any::<u8>(), 0..12),
        cut_frac in 0.0..1.0f64,
    ) {
        let records: Vec<WireRecord> = entity_sels
            .iter()
            .enumerate()
            .map(|(i, &sel)| record(sel, i as u32, sel as usize, i as f64 * 1.5))
            .collect();
        let frame = encode_frame(minute, agent, &records);
        let cut = ((cut_frac * frame.len() as f64) as usize).min(frame.len());
        let truncated = frame[..cut].to_vec();
        let len = truncated.len();
        match decode_frame(Bytes::from(truncated)) {
            Ok(decoded) => {
                // Only a cut that kept everything can still decode (the
                // count field promises all records).
                prop_assert_eq!(len, frame.len());
                prop_assert_eq!(decoded.minute, minute);
                prop_assert_eq!(decoded.agent_id, agent);
                prop_assert_eq!(decoded.records, records);
            }
            Err(_) => prop_assert!(len < frame.len()),
        }
    }

    #[test]
    fn mutated_frames_never_panic(
        minute in 0u64..100_000,
        agent in 0u32..64,
        entity_sels in prop::collection::vec(any::<u8>(), 1..12),
        flip_frac in 0.0..1.0f64,
        mask in 1u8..255,
    ) {
        let records: Vec<WireRecord> = entity_sels
            .iter()
            .enumerate()
            .map(|(i, &sel)| record(sel, i as u32, sel as usize, -0.25 * i as f64))
            .collect();
        let mut bytes = encode_frame(minute, agent, &records).to_vec();
        let idx = ((flip_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= mask;
        assert_total(bytes);
    }

    /// The checksum covers every byte before it and is itself compared, and
    /// the count is checked against the length: whichever byte a flip
    /// lands on, and whatever its mask, the frame is refused.
    #[test]
    fn every_single_byte_xor_fails_to_decode(
        minute in 0u64..100_000,
        agent in 0u32..64,
        entity_sels in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let records: Vec<WireRecord> = entity_sels
            .iter()
            .enumerate()
            .map(|(i, &sel)| record(sel, i as u32, sel as usize, 0.5 * i as f64))
            .collect();
        let frame = encode_frame(minute, agent, &records).to_vec();
        for at in 0..frame.len() {
            for mask in 1..=255u8 {
                let mut bytes = frame.clone();
                bytes[at] ^= mask;
                prop_assert!(
                    decode_frame(Bytes::from(bytes)).is_err(),
                    "byte {} ^ {:#x} decoded",
                    at,
                    mask
                );
            }
        }
    }

    #[test]
    fn clean_roundtrip_is_exact(
        minute in 0u64..10_000_000,
        agent in 0u32..1024,
        entity_sels in prop::collection::vec(any::<u8>(), 0..20),
    ) {
        let records: Vec<WireRecord> = entity_sels
            .iter()
            .enumerate()
            .map(|(i, &sel)| record(sel, sel as u32 * 7 + i as u32, i, f64::from(sel) / 3.0))
            .collect();
        let frame = encode_frame(minute, agent, &records);
        let decoded = decode_frame(frame).expect("clean frames decode");
        prop_assert_eq!(decoded.minute, minute);
        prop_assert_eq!(decoded.agent_id, agent);
        prop_assert_eq!(decoded.records, records);
    }
}

/// A minimal world whose collector the gate tests feed by hand.
fn small_world(seed: u64) -> World {
    let mut b = WorldBuilder::new(SimConfig {
        seed,
        start: 0,
        duration: 16,
    });
    b.add_service("prod.fuzz", 2).unwrap();
    b.build()
}

// The collector's plausibility gates sit behind the codec: bytes that
// *decode* cleanly can still carry hostile payloads — NaN/±Inf values,
// counter resets, clock-skewed minute stamps. Each gate must quarantine
// with its own counter and leave no trace in the store.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nonfinite_record_values_are_gated_with_their_own_counter(
        seed in 0u64..1000,
        sels in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let world = small_world(seed);
        let store = MetricStore::new();
        let mut collector = Collector::for_world(&world, &store, 1, 3);
        let mut bad = 0usize;
        let records: Vec<WireRecord> = sels
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let value = match s % 4 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => i as f64,
                };
                if !value.is_finite() {
                    bad += 1;
                }
                record(s, i as u32, i, value)
            })
            .collect();
        let frame = encode_frame(5, 0, &records);
        // The frame itself is live — only the hostile records are dropped.
        prop_assert!(matches!(collector.classify(&frame), Ingest::Live(_)));
        collector.ingest(&frame);
        let stats = collector.stats();
        prop_assert_eq!(stats.nonfinite_records, bad);
        prop_assert_eq!(stats.invalid_records, bad);
        prop_assert_eq!(stats.records, records.len() - bad);
    }

    #[test]
    fn counter_resets_are_gated_with_their_own_counter(
        seed in 0u64..1000,
        base in 2.0e9f64..1.0e12,
        extra in 0.0..1.0f64,
    ) {
        let world = small_world(seed);
        let store = MetricStore::new();
        let mut collector = Collector::for_world(&world, &store, 1, 3);
        let one = |value: f64| vec![record(0, 7, 0, value)];
        collector.ingest(&encode_frame(0, 0, &one(base)));
        // A one-minute drop beyond the gate is a reset artifact…
        let reset = base - MAX_COUNTER_RESET_DROP - 1.0 - extra * 1e9;
        collector.ingest(&encode_frame(1, 0, &one(reset)));
        prop_assert_eq!(collector.stats().counter_reset_records, 1);
        prop_assert_eq!(collector.stats().invalid_records, 1);
        // …while a large-but-plausible drop from the same last value is
        // believed (the gated record never became the reference).
        let plausible = base - 0.5 * MAX_COUNTER_RESET_DROP;
        collector.ingest(&encode_frame(2, 0, &one(plausible)));
        prop_assert_eq!(collector.stats().counter_reset_records, 1);
        prop_assert_eq!(collector.stats().records, 2);
    }

    #[test]
    fn clock_skew_beyond_the_bound_is_quarantined(
        seed in 0u64..1000,
        start in 0u64..10_000,
        ahead in 1u64..5_000,
    ) {
        let world = small_world(seed);
        let store = MetricStore::new();
        let horizon = 3u64;
        let mut collector = Collector::for_world(&world, &store, 2, horizon);
        let recs = vec![record(0, 1, 0, 1.0)];
        // An agent's very first frame is always believed, however far
        // ahead: there is no watermark to measure skew against.
        let first = encode_frame(start + 1_000_000, 1, &recs);
        prop_assert!(matches!(collector.classify(&first), Ingest::Live(_)));
        // Establish agent 0's watermark, then probe the bound.
        collector.ingest(&encode_frame(start, 0, &recs));
        let edge = start + horizon + MAX_CLOCK_SKEW_MINUTES;
        let at_edge = encode_frame(edge, 0, &recs);
        prop_assert!(matches!(collector.classify(&at_edge), Ingest::Live(_)));
        let skewed = encode_frame(edge + ahead, 0, &recs);
        prop_assert!(matches!(collector.classify(&skewed), Ingest::ClockSkewed(_)));
        collector.ingest(&skewed);
        prop_assert_eq!(collector.stats().clock_skewed_frames, 1);
        prop_assert_eq!(collector.stats().quarantined_frames, 1);
        // The skewed frame moved no watermark: the agent keeps working at
        // sane minutes instead of having its future frames misrouted.
        let next = encode_frame(start + 1, 0, &recs);
        prop_assert!(matches!(collector.classify(&next), Ingest::Live(_)));
    }
}
