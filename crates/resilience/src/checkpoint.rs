//! Store checkpoints: the periodic snapshot half of crash recovery.
//!
//! A checkpoint captures one *recovery point* — everything the collector
//! and assessment loop would need to continue as if the process had never
//! died, taken at a single commit boundary:
//!
//! * the metric-store entries (per-KPI series + coverage masks),
//! * the collector's in-flight state ([`CollectorState`]: per-agent
//!   watermarks, dedup memory, pending minutes, backfill stage, partial
//!   aggregates),
//! * the re-assessment queue ([`QueueState`]), and
//! * the WAL frame count the snapshot covers, so recovery replays only
//!   the WAL tail past it.
//!
//! Files are written as `ckpt-<seq>.bin`: an 8-byte magic, a 64-bit
//! FNV-1a hash of the payload, then the payload — a hand-rolled
//! little-endian encoding (keys reuse the 6-byte wire layout via
//! [`key_to_bytes`]). The hash is validated *before* any parsing, and the
//! parser bounds-checks every read and caps every allocation by the bytes
//! actually remaining, so a torn or bit-flipped checkpoint is detected
//! cleanly, never a panic or an allocation bomb. The store keeps the two
//! newest files: a crash mid-checkpoint-write tears only the newest, and
//! [`CheckpointStore::latest_valid`] falls back to its predecessor.

use crate::{fnv1a, ResilienceError};
use funnel_core::reassess::{PendingItem, QueueState};
use funnel_sim::collector::{CollectorState, MinuteAccs};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::MetricStore;
use funnel_sim::wire::{key_from_bytes, key_to_bytes, WireRecord};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::ChangeId;
use funnel_topology::model::ServiceId;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// File magic: "FNLCKPT" + format version 1.
pub const MAGIC: [u8; 8] = *b"FNLCKPT1";

/// Bytes before the payload: magic (8) + payload hash (8).
const HEADER_LEN: usize = 16;

/// One complete recovery point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// How many WAL frames this snapshot covers: recovery replays the WAL
    /// from this index on.
    pub wal_frames: u64,
    /// The metric-store entries at the snapshot boundary.
    pub entries: Vec<(KpiKey, TimeSeries, CoverageMask)>,
    /// The collector's in-flight state at the same boundary.
    pub collector: CollectorState,
    /// The re-assessment queue (empty during pure ingestion).
    pub queue: QueueState,
}

// ---------------------------------------------------------------- encode --

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, key: KpiKey) {
    out.extend_from_slice(&key_to_bytes(key));
}

fn put_accs(out: &mut Vec<u8>, accs: &MinuteAccs) {
    put_u64(out, accs.len() as u64);
    for (&(service, kind), cells) in accs {
        put_u32(out, service.0);
        out.push(kind.tag());
        put_u64(out, cells.len() as u64);
        for &(instance, value) in cells {
            put_u32(out, instance);
            put_f64(out, value);
        }
    }
}

/// Bytes of one store entry: key, series anchor and length, values, mask
/// anchor and length, one byte per mask bit.
fn entry_len(series: &TimeSeries, mask: &CoverageMask) -> usize {
    6 + 16 + 8 * series.len() + 16 + mask.len()
}

fn put_state(out: &mut Vec<u8>, state: &CollectorState) {
    put_u64(out, state.watermarks.len() as u64);
    for wm in &state.watermarks {
        match wm {
            Some(minute) => {
                out.push(1);
                put_u64(out, *minute);
            }
            None => out.push(0),
        }
    }
    put_u64(out, state.seen.len() as u64);
    for seen in &state.seen {
        put_u64(out, seen.len() as u64);
        for &minute in seen {
            put_u64(out, minute);
        }
    }
    put_u64(out, state.pending.len() as u64);
    for (&minute, (frames, accs)) in &state.pending {
        put_u64(out, minute);
        put_u64(out, *frames as u64);
        put_accs(out, accs);
    }
    put_u64(out, state.backfill_stage.len() as u64);
    for (&(agent, minute), records) in &state.backfill_stage {
        put_u32(out, agent);
        put_u64(out, minute);
        put_u64(out, records.len() as u64);
        for record in records {
            put_key(out, record.key);
            put_f64(out, record.value);
        }
    }
    put_u64(out, state.partial.len() as u64);
    for (&minute, accs) in &state.partial {
        put_u64(out, minute);
        put_accs(out, accs);
    }
}

fn put_queue(out: &mut Vec<u8>, queue: &QueueState) {
    put_u64(out, queue.pending.len() as u64);
    for item in &queue.pending {
        put_u32(out, item.change.0);
        put_key(out, item.key);
        put_u64(out, item.window.0);
        put_u64(out, item.window.1);
        put_f64(out, item.required_coverage);
    }
    put_u64(out, queue.applied.len() as u64);
    for (change, key) in &queue.applied {
        put_u32(out, change.0);
        put_key(out, *key);
    }
}

/// The one writer of the checkpoint format: header, then the payload
/// written in place behind it, then the payload's hash patched into the
/// header. `entries` is walked twice — once to size the buffer, so a
/// store-sized checkpoint is one allocation and no copy.
fn encode_parts<'a>(
    wal_frames: u64,
    entries: impl Iterator<Item = (KpiKey, &'a TimeSeries, &'a CoverageMask)> + Clone,
    collector: &CollectorState,
    queue: &QueueState,
) -> Vec<u8> {
    let (count, entry_bytes) = entries
        .clone()
        .fold((0u64, 0usize), |(n, bytes), (_, series, mask)| {
            (n + 1, bytes + entry_len(series, mask))
        });
    // Collector state and queue are small next to the entries; they grow
    // the buffer if they outrun the slack.
    let mut out = Vec::with_capacity(HEADER_LEN + 16 + entry_bytes + 4096);
    out.extend_from_slice(&MAGIC);
    put_u64(&mut out, 0);
    put_u64(&mut out, wal_frames);

    put_u64(&mut out, count);
    for (key, series, mask) in entries {
        put_key(&mut out, key);
        put_u64(&mut out, series.start());
        put_u64(&mut out, series.len() as u64);
        for &v in series.values() {
            put_f64(&mut out, v);
        }
        put_u64(&mut out, mask.start());
        let bits = mask.bits();
        put_u64(&mut out, bits.len() as u64);
        out.extend(bits.iter().map(|&b| u8::from(b)));
    }
    put_state(&mut out, collector);
    put_queue(&mut out, queue);

    let (header, payload) = out.split_at_mut(HEADER_LEN);
    let hash = fnv1a(payload).to_le_bytes();
    for (dst, src) in header.iter_mut().skip(MAGIC.len()).zip(hash) {
        *dst = src;
    }
    out
}

/// Encodes a whole checkpoint file: magic, payload hash, payload.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    encode_parts(
        checkpoint.wal_frames,
        checkpoint.entries.iter().map(|(k, s, m)| (*k, s, m)),
        &checkpoint.collector,
        &checkpoint.queue,
    )
}

/// The bytes of [`encode_checkpoint`] for a [`Checkpoint`] whose entries
/// are `store.export_entries()`, encoded straight from the store under one
/// read lock instead of from a copy of it.
pub fn encode_checkpoint_of(
    wal_frames: u64,
    store: &MetricStore,
    collector: &CollectorState,
    queue: &QueueState,
) -> Vec<u8> {
    encode_parts(wal_frames, store.view().entries(), collector, queue)
}

// ---------------------------------------------------------------- decode --

fn corrupt(why: impl Into<String>) -> ResilienceError {
    ResilienceError::Corrupt(why.into())
}

/// Little-endian value of up to 8 bytes — index-free, so the no-panic
/// guarantee is structural rather than argued from `take`'s bounds check.
fn le_bytes(b: &[u8]) -> u64 {
    b.iter()
        .rev()
        .fold(0u64, |acc, &x| (acc << 8) | u64::from(x))
}

/// Bounds-checked little-endian reader over a checkpoint payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ResilienceError> {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| corrupt("checkpoint payload truncated"))?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ResilienceError> {
        Ok(le_bytes(self.take(1)?) as u8)
    }

    fn u32(&mut self) -> Result<u32, ResilienceError> {
        Ok(le_bytes(self.take(4)?) as u32)
    }

    fn u64(&mut self) -> Result<u64, ResilienceError> {
        Ok(le_bytes(self.take(8)?))
    }

    fn f64(&mut self) -> Result<f64, ResilienceError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A declared element count, sanity-capped: `count * min_elem_size`
    /// must fit in the bytes remaining, so a corrupted count can neither
    /// drive a giant allocation nor a long parse loop.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, ResilienceError> {
        let count = self.u64()? as usize;
        if count > self.remaining() / min_elem_size.max(1) {
            return Err(corrupt("checkpoint count exceeds remaining bytes"));
        }
        Ok(count)
    }

    fn key(&mut self) -> Result<KpiKey, ResilienceError> {
        let b = self.take(6)?;
        let mut arr = [0u8; 6];
        for (dst, &src) in arr.iter_mut().zip(b) {
            *dst = src;
        }
        key_from_bytes(arr).map_err(|e| corrupt(format!("checkpoint key: {e}")))
    }

    fn accs(&mut self) -> Result<MinuteAccs, ResilienceError> {
        let groups = self.count(13)?;
        let mut accs = MinuteAccs::new();
        for _ in 0..groups {
            let service = ServiceId(self.u32()?);
            let tag = self.u8()?;
            let kind =
                KpiKind::from_tag(tag).ok_or_else(|| corrupt(format!("bad KPI tag {tag}")))?;
            let cells = self.count(12)?;
            let mut vec = Vec::with_capacity(cells);
            for _ in 0..cells {
                let instance = self.u32()?;
                let value = self.f64()?;
                vec.push((instance, value));
            }
            accs.insert((service, kind), vec);
        }
        Ok(accs)
    }
}

/// Decodes a checkpoint file written by [`encode_checkpoint`].
///
/// # Errors
///
/// [`ResilienceError::Corrupt`] on bad magic, hash mismatch, truncation,
/// impossible counts, or unknown tags — never a panic.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, ResilienceError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("checkpoint shorter than its header"));
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    let (magic, stored) = header.split_at(8);
    if magic != MAGIC {
        return Err(corrupt("bad checkpoint magic"));
    }
    let stored_hash = le_bytes(stored);
    if fnv1a(payload) != stored_hash {
        return Err(corrupt("checkpoint hash mismatch"));
    }

    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let wal_frames = r.u64()?;

    let entry_count = r.count(30)?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let key = r.key()?;
        let start = r.u64()?;
        let len = r.count(8)?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(r.f64()?);
        }
        let mask_start = r.u64()?;
        let bit_count = r.count(1)?;
        let mut bits = Vec::with_capacity(bit_count);
        for _ in 0..bit_count {
            bits.push(r.u8()? != 0);
        }
        entries.push((
            key,
            TimeSeries::new(start, values),
            CoverageMask::from_bits(mask_start, bits),
        ));
    }

    let mut collector = CollectorState::new(0);
    let wm_count = r.count(1)?;
    collector.watermarks = Vec::with_capacity(wm_count);
    for _ in 0..wm_count {
        let present = r.u8()? != 0;
        collector
            .watermarks
            .push(if present { Some(r.u64()?) } else { None });
    }
    let seen_count = r.count(8)?;
    collector.seen = Vec::with_capacity(seen_count);
    for _ in 0..seen_count {
        let minutes = r.count(8)?;
        let mut set = BTreeSet::new();
        for _ in 0..minutes {
            set.insert(r.u64()?);
        }
        collector.seen.push(set);
    }
    let pending_count = r.count(24)?;
    collector.pending = BTreeMap::new();
    for _ in 0..pending_count {
        let minute = r.u64()?;
        let frames = r.u64()? as usize;
        let accs = r.accs()?;
        collector.pending.insert(minute, (frames, accs));
    }
    let stage_count = r.count(20)?;
    collector.backfill_stage = BTreeMap::new();
    for _ in 0..stage_count {
        let agent = r.u32()?;
        let minute = r.u64()?;
        let records = r.count(14)?;
        let mut vec = Vec::with_capacity(records);
        for _ in 0..records {
            let key = r.key()?;
            let value = r.f64()?;
            vec.push(WireRecord { key, value });
        }
        collector.backfill_stage.insert((agent, minute), vec);
    }
    let partial_count = r.count(16)?;
    collector.partial = BTreeMap::new();
    for _ in 0..partial_count {
        let minute = r.u64()?;
        let accs = r.accs()?;
        collector.partial.insert(minute, accs);
    }

    let pending_items = r.count(34)?;
    let mut queue = QueueState {
        pending: Vec::with_capacity(pending_items),
        applied: Vec::new(),
    };
    for _ in 0..pending_items {
        let change = ChangeId(r.u32()?);
        let key = r.key()?;
        let from = r.u64()?;
        let to = r.u64()?;
        let required_coverage = r.f64()?;
        queue.pending.push(PendingItem {
            change,
            key,
            window: (from, to),
            required_coverage,
        });
    }
    let applied_count = r.count(10)?;
    queue.applied = Vec::with_capacity(applied_count);
    for _ in 0..applied_count {
        let change = ChangeId(r.u32()?);
        let key = r.key()?;
        queue.applied.push((change, key));
    }

    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint payload"));
    }
    Ok(Checkpoint {
        wal_frames,
        entries,
        collector,
        queue,
    })
}

// ------------------------------------------------------------------ store --

/// Numbered checkpoint files on disk, newest-wins with torn-file
/// fallback. Keeps the two newest files: a crash mid-write can tear only
/// the newest, leaving its predecessor as a valid (older) recovery point.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_seq: u64,
}

fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:08}.bin")
}

fn checkpoint_seqs(dir: &Path) -> Result<Vec<u64>, ResilienceError> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".bin"))
        {
            if let Ok(seq) = num.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory, continuing
    /// the numbering after any existing files.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn open(dir: &Path) -> Result<Self, ResilienceError> {
        fs::create_dir_all(dir)?;
        let next_seq = checkpoint_seqs(dir)?.last().map_or(0, |&s| s + 1);
        Ok(Self {
            dir: dir.to_path_buf(),
            next_seq,
        })
    }

    /// Writes `checkpoint` as the newest file and prunes to the two
    /// newest, returning the written path.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn write(&mut self, checkpoint: &Checkpoint) -> Result<PathBuf, ResilienceError> {
        self.write_encoded(&encode_checkpoint(checkpoint))
    }

    /// [`CheckpointStore::write`] for a checkpoint already encoded (by
    /// [`encode_checkpoint`] or [`encode_checkpoint_of`]).
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn write_encoded(&mut self, encoded: &[u8]) -> Result<PathBuf, ResilienceError> {
        let path = self.dir.join(checkpoint_name(self.next_seq));
        fs::write(&path, encoded)?;
        self.next_seq += 1;
        let seqs = checkpoint_seqs(&self.dir)?;
        for &old in seqs.iter().rev().skip(2) {
            fs::remove_file(self.dir.join(checkpoint_name(old)))?;
        }
        Ok(path)
    }

    /// Chaos-harness hook: writes only the first `keep` bytes of an
    /// encoded checkpoint — the on-disk image of a crash mid-write. Does
    /// not prune, so the previous valid checkpoint survives as fallback.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn write_torn(&mut self, encoded: &[u8], keep: usize) -> Result<(), ResilienceError> {
        let keep = keep.min(encoded.len());
        let path = self.dir.join(checkpoint_name(self.next_seq));
        fs::write(&path, &encoded[..keep])?;
        self.next_seq += 1;
        Ok(())
    }

    /// Loads the newest checkpoint that validates, skipping torn or
    /// corrupt files (newest first). `None` when no valid checkpoint
    /// exists — including when the directory itself is missing.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn latest_valid(dir: &Path) -> Result<Option<Checkpoint>, ResilienceError> {
        if !dir.exists() {
            return Ok(None);
        }
        for &seq in checkpoint_seqs(dir)?.iter().rev() {
            let bytes = fs::read(dir.join(checkpoint_name(seq)))?;
            if let Ok(checkpoint) = decode_checkpoint(&bytes) {
                return Ok(Some(checkpoint));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_topology::impact::Entity;
    use funnel_topology::model::InstanceId;

    fn sample_checkpoint() -> Checkpoint {
        let key = KpiKey::new(Entity::Instance(InstanceId(7)), KpiKind::PageViewCount);
        let mut collector = CollectorState::new(2);
        collector.watermarks = vec![Some(41), None];
        collector.seen[0].extend([40, 41]);
        let mut accs = MinuteAccs::new();
        accs.insert((ServiceId(1), KpiKind::PageViewCount), vec![(7, 123.0)]);
        collector.pending.insert(41, (1, accs.clone()));
        collector.partial.insert(12, accs);
        collector
            .backfill_stage
            .insert((1, 30), vec![WireRecord { key, value: 9.5 }]);
        let queue = QueueState {
            pending: vec![PendingItem {
                change: ChangeId(3),
                key,
                window: (100, 200),
                required_coverage: 0.8,
            }],
            applied: vec![(ChangeId(2), key)],
        };
        Checkpoint {
            wal_frames: 42,
            entries: vec![(
                key,
                TimeSeries::new(40, vec![1.0, 2.0, 3.0]),
                CoverageMask::from_bits(40, vec![true, false, true]),
            )],
            collector,
            queue,
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let checkpoint = sample_checkpoint();
        let decoded = decode_checkpoint(&encode_checkpoint(&checkpoint)).unwrap();
        assert_eq!(checkpoint, decoded);
    }

    /// The ingest path encodes straight from the store; the bytes must be
    /// the ones [`encode_checkpoint`] gives for the store's exported
    /// entries, whatever order the store met its keys in.
    #[test]
    fn encoding_from_the_store_matches_encoding_its_export() {
        let Checkpoint {
            wal_frames,
            collector,
            queue,
            ..
        } = sample_checkpoint();
        assert!(!collector.pending.is_empty() && !collector.partial.is_empty());
        assert!(!collector.backfill_stage.is_empty());
        assert!(!queue.pending.is_empty() && !queue.applied.is_empty());

        let store = MetricStore::new();
        // Shuffled arrival: instances before servers, ids descending, one
        // key emptied by a restore and then written again, gaps, backfills
        // and a batch insert.
        let mut keys = Vec::new();
        for id in (0..9u32).rev() {
            keys.push(KpiKey::new(
                Entity::Instance(InstanceId(id)),
                KpiKind::PageViewCount,
            ));
            keys.push(KpiKey::new(
                Entity::Server(funnel_topology::model::ServerId(id % 4)),
                KpiKind::SERVER_KINDS[id as usize % 4],
            ));
        }
        store.append(keys[3], 0, 1.0);
        store.restore_entries(Vec::new());
        for (i, key) in keys.iter().enumerate() {
            for minute in [2u64, 3, 9] {
                store.append(*key, minute + i as u64 % 3, minute as f64 + i as f64 * 0.5);
            }
            store.backfill(*key, 6, -1.5);
        }
        store.insert(
            KpiKey::new(Entity::Service(ServiceId(2)), KpiKind::AccessFailureCount),
            TimeSeries::new(7, vec![0.25; 5]),
        );

        let from_export = encode_checkpoint(&Checkpoint {
            wal_frames,
            entries: store.export_entries(),
            collector: collector.clone(),
            queue: queue.clone(),
        });
        let from_store = encode_checkpoint_of(wal_frames, &store, &collector, &queue);
        assert_eq!(from_store, from_export);
        let decoded = decode_checkpoint(&from_store).unwrap();
        assert_eq!(decoded.entries, store.export_entries());
        assert_eq!(decoded.collector, collector);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let checkpoint = Checkpoint::default();
        let decoded = decode_checkpoint(&encode_checkpoint(&checkpoint)).unwrap();
        assert_eq!(checkpoint, decoded);
    }

    #[test]
    fn any_flipped_header_bit_is_rejected() {
        let encoded = encode_checkpoint(&sample_checkpoint());
        for byte in 0..16 {
            let mut bad = encoded.clone();
            bad[byte] ^= 0x01;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "flipped header byte {byte} accepted"
            );
        }
    }

    #[test]
    fn torn_write_falls_back_to_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("funnel-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let good = sample_checkpoint();
        store.write(&good).unwrap();
        let mut newer = good.clone();
        newer.wal_frames = 99;
        store.write_torn(&encode_checkpoint(&newer), 40).unwrap();
        let recovered = CheckpointStore::latest_valid(&dir).unwrap().unwrap();
        assert_eq!(recovered, good, "torn newest must fall back");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_keeps_two_newest() {
        let dir = std::env::temp_dir().join(format!("funnel-ckpt-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        for wal_frames in 0..5 {
            let c = Checkpoint {
                wal_frames,
                ..Checkpoint::default()
            };
            store.write(&c).unwrap();
        }
        assert_eq!(checkpoint_seqs(&dir).unwrap().len(), 2);
        let latest = CheckpointStore::latest_valid(&dir).unwrap().unwrap();
        assert_eq!(latest.wal_frames, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_has_no_checkpoint() {
        assert!(
            CheckpointStore::latest_valid(Path::new("/nonexistent/funnel-ckpt"))
                .unwrap()
                .is_none()
        );
    }
}
