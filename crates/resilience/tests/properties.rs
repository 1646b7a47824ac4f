//! Property tests for the durable formats.
//!
//! The on-disk formats — WAL records, checkpoint segments, checkpoint
//! manifests — are trust boundaries crossed on every recovery: whatever a
//! crash (or bit rot) left behind, decoding must be *total* — return the
//! valid data or a clean error, never panic, never fabricate records,
//! never allocate from a corrupted count. And for clean bytes the round
//! trip must be lossless: recovery's correctness proof leans on
//! `decode(encode(x)) == x` for the WAL and the checkpoint alike.
//!
//! The checkpoint chain has a contract of its own, held here against
//! random store scripts: whatever was appended, backfilled, inserted or
//! restored between cuts, the directory recovers to exactly what the store
//! exported at the last cut — or, with the last cut torn anywhere, at the
//! one before.
//!
//! So has the WAL cursor a cut records: for random frame sequences, segment
//! limits, reopen points and cut points, a scan from the cursor is the
//! suffix of the scan of the whole log; damage below the cursor is not
//! read; damage at or past it is corruption in a sealed segment and a torn
//! tail in the newest, never a wrong replay; and a cursor that names no
//! position of the log is an error, never a panic.
//!
//! The vendored proptest shim drives scalars and `Vec`s of scalars, so
//! structured inputs (checkpoint entries, collector state, store scripts) are derived deterministically from flat fuzz vectors.

use bytes::Bytes;
use funnel_resilience::checkpoint::{
    decode_manifest, decode_segment, Checkpoint, CheckpointStore, Manifest, MAGIC, SEGMENT_MAGIC,
};
use funnel_resilience::wal::{
    decode_records, encode_record, scan, WalCursor, WalWriter, EOS_RECORD, FRAME_RECORD,
};
use funnel_resilience::ResilienceError;
use funnel_sim::collector::{CollectorState, MinuteAccs};
use funnel_sim::fnv1a_words;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::MetricStore;
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

fn key(entity_sel: u8, id: u32, kind_sel: usize) -> KpiKey {
    let entity = match entity_sel % 3 {
        0 => Entity::Server(ServerId(id)),
        1 => Entity::Instance(InstanceId(id)),
        _ => Entity::Service(ServiceId(id)),
    };
    KpiKey::new(entity, KINDS[kind_sel % KINDS.len()])
}

/// A cursor told apart by its frame count alone.
fn at(frames: u64) -> WalCursor {
    WalCursor {
        frames,
        ..WalCursor::START
    }
}

/// Builds a structurally valid checkpoint from flat fuzz vectors.
fn checkpoint_from(
    wal: WalCursor,
    entry_sels: &[u8],
    watermarks: &[u64],
    seen: &[u64],
    pend: &[u64],
) -> Checkpoint {
    let mut entries: Vec<(KpiKey, TimeSeries, CoverageMask)> = entry_sels
        .iter()
        .enumerate()
        .map(|(i, &sel)| {
            let len = usize::from(sel % 16);
            let values: Vec<f64> = (0..len).map(|j| (i * 31 + j) as f64 * 0.5 - 3.0).collect();
            let bits: Vec<bool> = (0..len).map(|j| (i + j) % 3 != 0).collect();
            (
                key(sel, u32::from(sel) * 37 + i as u32, i),
                TimeSeries::new(i as u64 * 7, values),
                CoverageMask::from_bits(i as u64 * 7, bits),
            )
        })
        .collect();
    // As a store exports them, and as recovery hands them back.
    entries.sort_by_key(|(key, _, _)| *key);
    let mut collector = CollectorState::new(watermarks.len());
    collector.watermarks = watermarks
        .iter()
        .map(|&w| (w % 3 != 0).then_some(w))
        .collect();
    collector.seen = watermarks
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            seen.iter()
                .map(|&m| m.wrapping_add(w).wrapping_mul(i as u64 + 1) % 10_000)
                .collect::<BTreeSet<u64>>()
        })
        .collect();
    for (i, &raw) in pend.iter().enumerate() {
        let minute = raw % 10_000;
        let id = (raw / 7) as u32 % 64;
        let value = raw as f64 * 0.37 - 100.0;
        let mut accs = MinuteAccs::new();
        accs.insert(
            (ServiceId(id % 5), KINDS[i % KINDS.len()]),
            vec![(id, value), (id.wrapping_add(1), -value)],
        );
        if i % 2 == 0 {
            collector.pending.insert(minute, (i, accs));
        } else {
            collector.partial.insert(minute, accs);
        }
    }
    Checkpoint {
        wal,
        entries,
        collector,
    }
}

/// A directory of this test's own under the system temp dir, removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "funnel-prop-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Writes `checkpoint` as a chain of its own into `dir`, a whole cut of a
/// store that holds its entries, and returns the bytes of its segment and
/// of its manifest.
fn written_files(dir: &Scratch, checkpoint: &Checkpoint) -> (Vec<u8>, Vec<u8>) {
    let store = MetricStore::new();
    store.restore_entries(checkpoint.entries.iter().cloned());
    let manifest = CheckpointStore::open(dir.path())
        .unwrap()
        .cut(checkpoint.wal, &store, &checkpoint.collector, None)
        .unwrap();
    let segment = manifest.with_file_name("seg-00000000.bin");
    (fs::read(segment).unwrap(), fs::read(manifest).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wal_roundtrip_is_lossless(
        payload_lens in prop::collection::vec(1usize..80, 0..20),
        with_eos in any::<bool>(),
    ) {
        let mut log = Vec::new();
        let payloads: Vec<Vec<u8>> = payload_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| ((i * 17 + j * 3) % 251) as u8).collect())
            .collect();
        for p in &payloads {
            log.extend_from_slice(&encode_record(FRAME_RECORD, p));
        }
        if with_eos {
            log.extend_from_slice(&encode_record(EOS_RECORD, &[]));
        }
        let decoded = decode_records(&log);
        prop_assert!(!decoded.torn);
        prop_assert_eq!(decoded.valid_len, log.len());
        let frames: Vec<&[u8]> = decoded
            .records
            .iter()
            .filter(|r| r.kind == FRAME_RECORD)
            .map(|r| &log[r.payload.clone()])
            .collect();
        prop_assert_eq!(frames.len(), payloads.len());
        for (got, want) in frames.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
        prop_assert_eq!(
            decoded.records.iter().any(|r| r.kind == EOS_RECORD),
            with_eos
        );
    }

    #[test]
    fn truncated_wal_tail_is_detected_never_panics(
        payload_lens in prop::collection::vec(0usize..60, 1..12),
        cut_frac in 0.0..1.0f64,
    ) {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, &len) in payload_lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| ((i + j) % 256) as u8).collect();
            log.extend_from_slice(&encode_record(FRAME_RECORD, &payload));
            boundaries.push(log.len());
        }
        let cut = ((cut_frac * log.len() as f64) as usize).min(log.len());
        let decoded = decode_records(&log[..cut]);
        // The valid prefix always ends on a record boundary at or before
        // the cut, and the tail past it is flagged torn.
        prop_assert!(boundaries.contains(&decoded.valid_len));
        prop_assert!(decoded.valid_len <= cut);
        prop_assert_eq!(decoded.torn, decoded.valid_len < cut);
        // Every surviving record is one of the originals, in order.
        let whole = decode_records(&log);
        prop_assert_eq!(&whole.records[..decoded.records.len()], &decoded.records[..]);
    }

    #[test]
    fn arbitrary_wal_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let decoded = decode_records(&bytes);
        prop_assert!(decoded.valid_len <= bytes.len());
    }

    #[test]
    fn checkpoint_roundtrip_is_lossless(
        wal_frames in 0u64..1_000_000,
        wal_segment in 0u64..1_000,
        wal_offset in any::<u64>(),
        entry_sels in prop::collection::vec(any::<u8>(), 0..8),
        watermarks in prop::collection::vec(0u64..10_000, 0..6),
        seen in prop::collection::vec(0u64..10_000, 0..10),
        pend in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let wal = WalCursor {
            frames: wal_frames,
            segment: wal_segment,
            offset: wal_offset,
        };
        let checkpoint = checkpoint_from(wal, &entry_sels, &watermarks, &seen, &pend);
        let dir = Scratch::new();
        let (segment, manifest) = written_files(&dir, &checkpoint);
        prop_assert!(decode_segment(&segment).is_ok());
        prop_assert!(decode_manifest(&manifest).is_ok());
        let recovered = CheckpointStore::latest_valid(dir.path()).unwrap();
        prop_assert_eq!(recovered, Some(checkpoint));
    }

    #[test]
    fn truncated_checkpoint_files_are_rejected_never_panic(
        entry_sels in prop::collection::vec(any::<u8>(), 1..6),
        pend in prop::collection::vec(any::<u64>(), 0..4),
        cut_frac in 0.0..1.0f64,
    ) {
        let checkpoint = checkpoint_from(at(7), &entry_sels, &[3, 4], &[1, 2], &pend);
        let (segment, manifest) = written_files(&Scratch::new(), &checkpoint);
        // Strictly shorter than the original: must be cleanly rejected
        // (the payload hash no longer covers what the header promised).
        let cut = |bytes: &[u8]| ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(decode_segment(&segment[..cut(&segment)]).is_err());
        prop_assert!(decode_manifest(&manifest[..cut(&manifest)]).is_err());
    }

    #[test]
    fn mutated_checkpoint_files_are_rejected_never_panic(
        entry_sels in prop::collection::vec(any::<u8>(), 0..5),
        flip_frac in 0.0..1.0f64,
        mask in 1u8..255,
    ) {
        let checkpoint = checkpoint_from(at(3), &entry_sels, &[1], &[4], &[]);
        let (segment, manifest) = written_files(&Scratch::new(), &checkpoint);
        let flip = |bytes: &[u8]| {
            let mut bytes = bytes.to_vec();
            let idx = ((flip_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[idx] ^= mask;
            bytes
        };
        // One changed byte always changes an FNV-1a hash (every step is a
        // bijection of the state), so the header check refuses the file
        // before anything is parsed.
        prop_assert!(decode_segment(&flip(&segment)).is_err());
        prop_assert!(decode_manifest(&flip(&manifest)).is_err());
    }

    #[test]
    fn arbitrary_checkpoint_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = decode_segment(&bytes);
        let _ = decode_manifest(&bytes);
        // The same bytes behind a header that validates, so the parsers —
        // not the hash check — are what has to be total.
        for magic in [SEGMENT_MAGIC, MAGIC] {
            let mut framed = magic.to_vec();
            framed.extend_from_slice(&fnv1a_words(&bytes).to_le_bytes());
            framed.extend_from_slice(&bytes);
            let _ = decode_segment(&framed);
            let _ = decode_manifest(&framed);
        }
    }
}

// ----------------------------------------------------------- the cursor --

/// A WAL written through [`WalWriter`], with the writer dropped and the log
/// reopened once on the way.
struct Log {
    dir: Scratch,
    /// The frames appended, in order.
    frames: Vec<Bytes>,
    /// Where the writer stood after each frame count: `cursors[i]` lies
    /// after `i` frames.
    cursors: Vec<WalCursor>,
}

impl Log {
    fn write(limit: u64, payload_lens: &[usize], reopen_at: usize) -> (Self, WalWriter) {
        let dir = Scratch::new();
        let mut wal = WalWriter::open(dir.path(), limit).unwrap();
        let mut cursors = vec![wal.cursor(0)];
        let mut frames = Vec::new();
        for (i, &len) in payload_lens.iter().enumerate() {
            if i == reopen_at {
                wal = WalWriter::open(dir.path(), limit).unwrap();
                assert_eq!(
                    wal.cursor(i as u64),
                    cursors[i],
                    "a reopen moved the writer"
                );
            }
            let payload: Vec<u8> = (0..len).map(|j| ((i * 17 + j * 3) % 251) as u8).collect();
            let payload = Bytes::from(payload);
            wal.append_frame(&payload).unwrap();
            frames.push(payload);
            cursors.push(wal.cursor(i as u64 + 1));
        }
        let log = Self {
            dir,
            frames,
            cursors,
        };
        (log, wal)
    }

    fn path(&self, segment: u64) -> PathBuf {
        self.dir.path().join(format!("wal-{segment:08}.seg"))
    }

    /// What every segment file holds, oldest first.
    fn segments(&self) -> Vec<Vec<u8>> {
        (0..)
            .map_while(|segment| fs::read(self.path(segment)).ok())
            .collect()
    }

    fn scan(&self, from: WalCursor) -> Result<funnel_resilience::WalScan, ResilienceError> {
        scan(self.dir.path(), from)
    }
}

/// The `nth` byte (modulo how many there are) of `segments` that lies below
/// `cursor` (`past == false`) or at or past it, as `(segment, offset)`.
fn pick_byte(
    segments: &[Vec<u8>],
    cursor: WalCursor,
    past: bool,
    nth: usize,
) -> Option<(u64, usize)> {
    let side: Vec<(u64, usize)> = segments
        .iter()
        .enumerate()
        .flat_map(|(segment, bytes)| (0..bytes.len()).map(move |offset| (segment as u64, offset)))
        .filter(|&(segment, offset)| {
            ((segment, offset as u64) >= (cursor.segment, cursor.offset)) == past
        })
        .collect();
    (!side.is_empty()).then(|| side[nth % side.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// From every position the writer ever stood at — through roll-overs, a
    /// reopen, a clean end or a torn one — the scan is the suffix of the
    /// whole log's, and the cursor's count plus the tail is the log's.
    #[test]
    fn a_scan_from_a_cursor_is_the_suffix_of_the_whole_scan(
        payload_lens in prop::collection::vec(1usize..80, 0..25),
        limit in 1u64..400,
        reopen_at in 0usize..25,
        // 0: end-of-stream marker; 1: neither; else a torn append of so
        // many bytes.
        ending in 0usize..14,
    ) {
        let (log, mut wal) = Log::write(limit, &payload_lens, reopen_at);
        match ending {
            0 => wal.append_end_of_stream().unwrap(),
            1 => {}
            keep => wal.append_torn_frame(&vec![9u8; 30].into(), keep - 1).unwrap(),
        }
        let whole = log.scan(WalCursor::START).unwrap();
        prop_assert_eq!(&whole.frames, &log.frames);
        prop_assert_eq!(whole.frame_count, log.frames.len() as u64);
        prop_assert_eq!((whole.end_of_stream, whole.torn_tail), (ending == 0, ending > 1));
        let files = log.segments().len() as u64;
        prop_assert_eq!(whole.segments, files);
        for (i, &cursor) in log.cursors.iter().enumerate() {
            prop_assert_eq!(cursor.frames, i as u64);
            let tail = log.scan(cursor).unwrap();
            prop_assert_eq!(&tail.frames[..], &whole.frames[i..], "from {:?}", cursor);
            prop_assert_eq!(cursor.frames + tail.frames.len() as u64, whole.frame_count);
            prop_assert_eq!(tail.frame_count, whole.frame_count);
            prop_assert_eq!(
                (tail.end_of_stream, tail.torn_tail),
                (whole.end_of_stream, whole.torn_tail)
            );
            // Nothing below the cursor's segment was opened.
            prop_assert_eq!(tail.segments, files.saturating_sub(cursor.segment));
        }
    }

    /// What a cursor covers is not read, so no damage there can change a
    /// scan; what it does not cover is validated byte for byte, so damage
    /// there is never replayed.
    #[test]
    fn damage_below_a_cursor_is_not_read_and_past_it_never_replayed(
        payload_lens in prop::collection::vec(1usize..80, 1..25),
        limit in 1u64..400,
        cut_frac in 0.0..1.0f64,
        nth in any::<u32>(),
        mask in 1u8..255,
    ) {
        let (log, _) = Log::write(limit, &payload_lens, usize::MAX);
        let cursor = log.cursors[(cut_frac * log.cursors.len() as f64) as usize];
        let clean = log.scan(cursor).unwrap();
        let segments = log.segments();
        let flipped = |(segment, offset): (u64, usize)| {
            let mut bad = segments[segment as usize].clone();
            bad[offset] ^= mask;
            fs::write(log.path(segment), bad).unwrap();
        };
        let restore = |segment: u64| {
            fs::write(log.path(segment), &segments[segment as usize]).unwrap();
        };

        // Below: any byte flipped, any segment gone.
        if let Some(at) = pick_byte(&segments, cursor, false, nth as usize) {
            flipped(at);
            prop_assert_eq!(log.scan(cursor).unwrap(), clean.clone(), "flip at {:?}", at);
            restore(at.0);
        }
        if cursor.segment > 0 {
            let gone = u64::from(nth) % cursor.segment;
            fs::remove_file(log.path(gone)).unwrap();
            prop_assert_eq!(log.scan(cursor).unwrap(), clean.clone(), "segment {} gone", gone);
            restore(gone);
        }

        // At or past: corruption in a sealed segment; in the newest, a torn
        // tail that keeps exactly the records before the damaged one.
        if let Some(at) = pick_byte(&segments, cursor, true, nth as usize) {
            flipped(at);
            let damaged = log.scan(cursor);
            if at.0 + 1 < segments.len() as u64 {
                prop_assert!(
                    matches!(damaged, Err(ResilienceError::Corrupt(_))),
                    "flip at {:?}: {:?}", at, damaged
                );
            } else {
                let damaged = damaged.unwrap();
                let newest = &segments[at.0 as usize];
                let lost = decode_records(newest)
                    .records
                    .iter()
                    .filter(|r| r.payload.end > at.1)
                    .count();
                prop_assert!(damaged.torn_tail && lost > 0);
                prop_assert_eq!(&damaged.frames[..], &clean.frames[..clean.frames.len() - lost]);
                prop_assert_eq!(damaged.frame_count, clean.frame_count - lost as u64);
            }
        }
    }

    /// A cursor that names no position of the log — past the end of its
    /// segment, inside a record, in a segment that is not there — is an
    /// error or an empty tail, as the log's own bytes decide: never a
    /// panic, and never more frames than the bytes past it hold.
    #[test]
    fn arbitrary_cursors_are_refused_or_read_never_a_panic(
        payload_lens in prop::collection::vec(0usize..60, 0..15),
        limit in 1u64..300,
        frames in any::<u64>(),
        segment in 0u64..20,
        offset_sel in any::<u64>(),
    ) {
        let (log, _) = Log::write(limit, &payload_lens, usize::MAX);
        let segments = log.segments();
        let held = segments.get(segment as usize);
        // Mostly in or just past the segment, sometimes far out.
        let offset = match offset_sel % 8 {
            0 => u64::MAX - offset_sel % 1000,
            _ => offset_sel / 8 % (held.map_or(0, Vec::len) as u64 + 3),
        };
        let got = log.scan(WalCursor { frames, segment, offset });
        let corrupt = matches!(got, Err(ResilienceError::Corrupt(_)));
        let Some(held) = held else {
            // Not begun yet, or nowhere.
            if offset == 0 {
                prop_assert!(got.unwrap().frames.is_empty());
            } else {
                prop_assert!(corrupt, "{:?}", got);
            }
            return Ok(());
        };
        if offset > held.len() as u64 {
            prop_assert!(corrupt, "{:?}", got);
            return Ok(());
        }
        let records = decode_records(held).records;
        let boundary = offset == 0
            || offset == held.len() as u64
            || records.iter().any(|r| r.payload.end as u64 == offset);
        let sealed = segment + 1 < segments.len() as u64;
        if boundary {
            // Every frame from there on, counted from the cursor's word.
            let before: usize = segments[..segment as usize]
                .iter()
                .map(|s| decode_records(s).records.len())
                .sum::<usize>()
                + records.iter().filter(|r| r.payload.end as u64 <= offset).count();
            let got = got.unwrap();
            prop_assert_eq!(&got.frames[..], &log.frames[before..]);
            prop_assert_eq!(got.frame_count, frames.saturating_add(got.frames.len() as u64));
        } else if sealed {
            prop_assert!(corrupt, "{:?}", got);
        } else {
            // Inside a record of the newest segment: what a torn append
            // looks like, and nothing after it is trusted.
            let got = got.unwrap();
            prop_assert!(got.torn_tail && got.frames.is_empty());
        }
    }
}

// ------------------------------------------------------------ the chain --

/// What a script does to the store between cuts.
fn run_op(store: &MetricStore, word: u64) {
    let k = key(0, (word >> 8) as u32 % 5, 0);
    let arg = (word >> 16) % 1000;
    let value = arg as f64 * 0.25 - 7.0;
    let held = store.get(&k);
    let (start, end) = held.as_ref().map_or((0, 0), |s| (s.start(), s.end()));
    match word % 12 {
        // Live appends at the frontier, some across a gap.
        0..=4 => store.append(k, end + arg % 3, value),
        // Backfills below the frontier (refused when the bin is measured
        // or the series is empty: a script may ask for those too).
        5 | 6 => {
            store.backfill(k, start + arg % (end - start).max(1), value);
        }
        // A backfill past the frontier is a live append.
        7 => {
            store.backfill(k, end + arg % 4, value);
        }
        // Batch inserts: a shorter series, then a longer one, re-anchored.
        8 => store.insert(
            k,
            TimeSeries::new(start + arg % 3, vec![value; (arg % 4) as usize]),
        ),
        9 => {
            let len = (end - start) as usize + 1 + (arg % 5) as usize;
            store.insert(
                k,
                TimeSeries::new(start.saturating_sub(arg % 2), vec![value; len]),
            );
        }
        // A restore that drops a key, keeps the rest and brings one in
        // whose mask is shorter or longer than its series, or anchored
        // apart from it: nothing the collector writes, but nothing the
        // store refuses either.
        10 => {
            let mut entries = store.export_entries();
            if !entries.is_empty() {
                entries.remove(arg as usize % entries.len());
            }
            let extra = key(0, arg as u32 % 5, 0);
            if entries.iter().all(|(held, _, _)| *held != extra) {
                entries.push((
                    extra,
                    TimeSeries::new(arg, vec![value; (arg % 3) as usize]),
                    CoverageMask::from_bits(arg + arg % 2, vec![arg % 5 < 3; (arg % 4) as usize]),
                ));
                entries.sort_by_key(|(key, _, _)| *key);
            }
            store.restore_entries(entries);
        }
        // An empty placeholder, as batch materialisation leaves one.
        _ => {
            if held.is_none() {
                store.insert(k, TimeSeries::empty(arg));
            }
        }
    }
}

/// Every chain file a directory holds, by name.
fn chain_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

/// The manifests of a directory, oldest first, and the names of every file
/// they and their chains account for.
fn manifests_of(files: &BTreeMap<String, Vec<u8>>) -> (Vec<(String, Manifest)>, BTreeSet<String>) {
    let manifests: Vec<(String, Manifest)> = files
        .iter()
        .filter(|(name, _)| name.starts_with("ckpt-"))
        .map(|(name, bytes)| (name.clone(), decode_manifest(bytes).unwrap()))
        .collect();
    let named = manifests
        .iter()
        .flat_map(|(name, manifest)| {
            let segments = manifest
                .segments
                .iter()
                .map(|s| format!("seg-{:08}.bin", s.seq));
            segments.chain([name.clone()])
        })
        .collect();
    (manifests, named)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random scripts of appends, backfills, inserts and restores, cut at
    /// random points.
    #[test]
    fn a_chain_recovers_what_the_store_held_at_the_cut(
        words in prop::collection::vec(any::<u64>(), 1..60),
        flip_frac in 0.0..1.0f64,
        mask in 1u8..255,
    ) {
        let dir = Scratch::new();
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(dir.path()).unwrap();
        // The recovery point of every cut so far, as the uncrashed process
        // knows it.
        let mut points: Vec<Checkpoint> = Vec::new();
        let mut cut = |store: &MetricStore, points: &mut Vec<Checkpoint>, word: u64| {
            let frames = points.len() as u64 + 1;
            let point = Checkpoint {
                entries: store.export_entries(),
                ..checkpoint_from(at(frames), &[], &[word % 50, word % 7], &[word % 90], &[word])
            };
            checkpoints
                .cut(point.wal, store, &point.collector, None)
                .unwrap();
            points.push(point);
        };
        for &word in &words {
            if word % 16 < 12 {
                run_op(&store, word / 16);
            } else {
                cut(&store, &mut points, word);
                // (i) at every cut, not only the last.
                let recovered = CheckpointStore::latest_valid(dir.path()).unwrap();
                prop_assert_eq!(recovered.as_ref(), points.last());
            }
        }
        cut(&store, &mut points, 0);
        let last = points.last().cloned();
        let previous = points.len().checked_sub(2).map(|i| points[i].clone());
        prop_assert_eq!(CheckpointStore::latest_valid(dir.path()).unwrap(), last.clone());

        // The directory holds what the two newest manifests name, all of
        // it and nothing else, and no chain is longer than twice the store
        // it adds up to, written whole.
        let files = chain_files(dir.path());
        let (manifests, named) = manifests_of(&files);
        prop_assert_eq!(manifests.len(), points.len().min(2));
        prop_assert_eq!(named, files.keys().cloned().collect::<BTreeSet<_>>());
        for ((name, manifest), point) in manifests.iter().rev().zip(points.iter().rev()) {
            let chain: usize = manifest.segments.iter().map(|s| s.len as usize).sum();
            let whole = written_files(&Scratch::new(), point).0.len();
            prop_assert!(chain <= 2 * whole, "{name}: {chain} > 2 × {whole}");
        }

        // (ii) the last cut torn at every length of segment ‖ manifest.
        let (newest, newest_manifest) = manifests.last().unwrap();
        let segment_name = newest.replace("ckpt-", "seg-");
        let (segment, manifest) = (&files[&segment_name], &files[newest]);
        for keep in 0..segment.len() + manifest.len() {
            fs::write(dir.path().join(&segment_name), &segment[..keep.min(segment.len())]).unwrap();
            match keep.checked_sub(segment.len()) {
                None | Some(0) => {
                    let _ = fs::remove_file(dir.path().join(newest));
                }
                Some(rest) => fs::write(dir.path().join(newest), &manifest[..rest]).unwrap(),
            }
            let recovered = CheckpointStore::latest_valid(dir.path()).unwrap();
            prop_assert_eq!(&recovered, &previous, "torn at {} of {}", keep, segment.len());
        }
        fs::write(dir.path().join(&segment_name), segment).unwrap();
        fs::write(dir.path().join(newest), manifest).unwrap();

        // (iii) one flipped byte anywhere: the file is refused by its
        // header, and recovery rests on whatever does not name it.
        for (name, bytes) in &files {
            for idx in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[idx] ^= mask;
                let refused = if name.starts_with("seg-") {
                    decode_segment(&bad).is_err()
                } else {
                    decode_manifest(&bad).is_err()
                };
                prop_assert!(refused, "{name} byte {idx}");
            }
        }
        let victim = files.keys().nth((flip_frac * files.len() as f64) as usize % files.len()).unwrap();
        let mut bad = files[victim].clone();
        let idx = ((flip_frac * 7919.0) as usize) % bad.len();
        bad[idx] ^= mask;
        fs::write(dir.path().join(victim), &bad).unwrap();
        let rests_on = |manifest: &Manifest, name: &String| {
            manifest.segments.iter().any(|s| format!("seg-{:08}.bin", s.seq) == *name)
        };
        let expected = if victim != newest && !rests_on(newest_manifest, victim) {
            last
        } else if manifests.len() == 2 && *victim != manifests[0].0 && !rests_on(&manifests[0].1, victim) {
            previous
        } else {
            None
        };
        prop_assert_eq!(CheckpointStore::latest_valid(dir.path()).unwrap(), expected, "{} flipped", victim);
    }
}
