//! Store checkpoints: the periodic snapshot half of crash recovery.
//!
//! A checkpoint captures one *recovery point* — everything ingestion would
//! need to continue as if the process had never died, taken at a single
//! commit boundary:
//!
//! * the metric-store entries (per-KPI series + coverage masks),
//! * the collector's in-flight state ([`CollectorState`]: per-agent
//!   watermarks, dedup memory, pending minutes, partial aggregates), and
//! * the WAL position of the snapshot ([`WalCursor`]: the frames it
//!   covers and the segment and offset the next one starts at), so
//!   recovery reads and replays only the WAL tail past it.
//!
//! On disk a recovery point is a **chain**, so that a cut costs what was
//! written since the last one rather than a copy of the store. Every cut
//! writes two files under one sequence number, in this order:
//!
//! * `seg-<seq>.bin`, a *segment*: for each key written since the previous
//!   cut, in key order, the key, the lowest minute that was (re)written,
//!   and the series values and mask bits from that minute to the end
//!   ([`KeyDelta`]). The first segment of a chain, its *base*, holds every
//!   key from minute 0.
//! * `ckpt-<seq>.bin`, a *manifest*: the WAL cursor, the ordered
//!   `(seq, length, hash)` list of the segments it rests on and the
//!   collector state ([`Manifest`]).
//!
//! Both are an 8-byte magic, a 64-bit hash of the payload
//! ([`fnv1a_words`], the hash of every durable byte), then the payload — a
//! hand-rolled little-endian encoding (keys reuse the 6-byte wire layout
//! via [`key_to_bytes`]). The hash is validated *before* any parsing, and
//! the parser bounds-checks every read and caps every allocation by the
//! bytes actually remaining, so a torn or bit-flipped file is detected
//! cleanly, never a panic or an allocation bomb.
//!
//! A manifest is usable when it and every segment it names validate, a
//! segment's length checked against the manifest before its bytes are
//! read. [`CheckpointStore::latest_valid`] applies the chain in order,
//! base first: a key's record that rewrites from at or below its anchor
//! replaces the key's series (or mask), anchor and bins; any other must
//! continue what the chain holds — same anchor, at least as many bins as
//! it keeps — and truncates there, then appends. Anything else makes the
//! chain unusable, and recovery falls back to the next older manifest. A
//! restored buffer gets the capacity a live-grown one has at its length,
//! the next power of two, reserved as it grows. A crash mid-cut can tear
//! only the files of that cut, which no older manifest names. One rule
//! bounds the chain: a cut whose segment would bring the chain past twice
//! the size of the whole store writes a base instead and starts a new
//! chain, so recovery never reads more than 2× the store. The directory
//! keeps what the two newest usable manifests name and nothing else.

use crate::wal::WalCursor;
use crate::{fnv1a_words, numbered_files, ResilienceError};
use funnel_sim::collector::{CollectorState, MinuteAccs};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::{CutId, MetricStore};
use funnel_sim::wire::{key_from_bytes, key_to_bytes};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_topology::model::ServiceId;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{ErrorKind, Read};
use std::path::{Path, PathBuf};

/// Manifest magic: "FNLCKPT" + format version 5. Version 1 was a single
/// file holding the whole store, version 2 a manifest that opened with a
/// bare frame count where this one has a [`WalCursor`], version 3 the
/// version-4 manifest followed by a re-assessment queue, version 4 this
/// manifest with the collector's backfill stage before its partial
/// aggregates; each fails this check and is skipped like any other unusable
/// manifest, never misread.
pub const MAGIC: [u8; 8] = *b"FNLCKPT5";

/// Segment magic.
pub const SEGMENT_MAGIC: [u8; 8] = *b"FNLCSEG2";

/// Bytes before the payload: magic (8) + payload hash (8).
const HEADER_LEN: usize = 16;

/// One complete recovery point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Where in the WAL this snapshot was taken: recovery replays the WAL
    /// from this position on.
    pub wal: WalCursor,
    /// The metric-store entries at the snapshot boundary, in key order as
    /// [`MetricStore::export_entries`] gives them.
    pub entries: Vec<(KpiKey, TimeSeries, CoverageMask)>,
    /// The collector's in-flight state at the same boundary.
    pub collector: CollectorState,
}

/// One key's record in a segment: what a cut adds to the chain for it.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyDelta {
    /// Which KPI.
    pub key: KpiKey,
    /// The lowest minute this record (re)writes. Bins below it stay as the
    /// chain holds them; at or below the series (or mask) anchor the record
    /// replaces that half whole, anchor included.
    pub from: MinuteBin,
    /// The series anchor.
    pub series_start: MinuteBin,
    /// The series values from `max(from, series_start)` to the series end.
    pub values: Vec<f64>,
    /// The coverage-mask anchor.
    pub mask_start: MinuteBin,
    /// The mask bits from `max(from, mask_start)` to the mask end.
    pub bits: Vec<bool>,
}

/// One link of a chain, as the manifests resting on it name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// The segment's sequence number (`seg-<seq>.bin`).
    pub seq: u64,
    /// The file's length in bytes.
    pub len: u64,
    /// The payload hash in the file's header.
    pub hash: u64,
}

/// A decoded manifest: a recovery point minus the store entries, which are
/// what its segments add up to.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The WAL position of the recovery point.
    pub wal: WalCursor,
    /// The chain, base first.
    pub segments: Vec<SegmentRef>,
    /// The collector's in-flight state.
    pub collector: CollectorState,
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

/// A run of values as one block copy rather than a push per value.
fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    let at = out.len();
    out.resize(at + 8 * values.len(), 0);
    let (chunks, _) = out.get_mut(at..).unwrap_or_default().as_chunks_mut::<8>();
    for (chunk, v) in chunks.iter_mut().zip(values) {
        *chunk = v.to_le_bytes();
    }
}

fn put_key(out: &mut Vec<u8>, key: KpiKey) {
    out.extend_from_slice(&key_to_bytes(key));
}

fn put_accs(out: &mut Vec<u8>, accs: &MinuteAccs) {
    put_u64(out, accs.len() as u64);
    for ((service, kind), cells) in accs.iter() {
        put_u32(out, service.0);
        out.push(kind.tag());
        put_u64(out, cells.len() as u64);
        for &(instance, value) in cells {
            put_u32(out, instance);
            put_f64(out, value);
        }
    }
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
    put_u64(out, state.partial.len() as u64);
    for (&minute, accs) in &state.partial {
        put_u64(out, minute);
        put_accs(out, accs);
    }
}

/// Starts a framed file at the end of `out`: the magic, then room for the
/// hash [`seal`] patches in once the payload is written behind it.
fn begin_frame(out: &mut Vec<u8>, magic: [u8; 8]) -> usize {
    let at = out.len();
    out.extend_from_slice(&magic);
    put_u64(out, 0);
    at
}

/// Hashes the payload of the frame begun at `at`, which runs to the end of
/// `out`, into its header.
fn seal(out: &mut [u8], at: usize) -> u64 {
    let Some((header, payload)) = out
        .get_mut(at..)
        .and_then(|frame| frame.split_at_mut_checked(HEADER_LEN))
    else {
        return 0;
    };
    let hash = fnv1a_words(payload);
    for (dst, src) in header.iter_mut().skip(MAGIC.len()).zip(hash.to_le_bytes()) {
        *dst = src;
    }
    hash
}

/// A key as a cut hands it over: the lowest (re)written minute, then the
/// series and the mask whole.
type Written<'a> = (KpiKey, MinuteBin, &'a TimeSeries, &'a CoverageMask);

/// How many leading bins of a series (or mask) anchored at `start` a record
/// that rewrites from `from` leaves alone.
fn kept(from: MinuteBin, start: MinuteBin) -> usize {
    usize::try_from(from.saturating_sub(start)).unwrap_or(usize::MAX)
}

/// The values and mask bits a record of `(from, series, mask)` carries.
fn tails<'a>(
    from: MinuteBin,
    series: &'a TimeSeries,
    mask: &'a CoverageMask,
) -> (&'a [f64], &'a [bool]) {
    let values = series.values().get(kept(from, series.start())..);
    let bits = mask.bits().get(kept(from, mask.start())..);
    (values.unwrap_or_default(), bits.unwrap_or_default())
}

/// Bytes of a [`KeyDelta`] before its values and bits: key, `from`, two
/// anchors, two counts.
const RECORD_FIXED: usize = 6 + 5 * 8;

/// The sizing pass: how many records a segment of `records` holds and how
/// long its file is.
fn measure<'a>(records: impl Iterator<Item = Written<'a>>) -> (u64, usize) {
    records.fold(
        (0, HEADER_LEN + 8),
        |(count, bytes), (_, from, series, mask)| {
            let (values, bits) = tails(from, series, mask);
            (
                count + 1,
                bytes + RECORD_FIXED + 8 * values.len() + bits.len(),
            )
        },
    )
}

/// The one writer of the segment format: appends a whole segment file of
/// `records` — as [`measure`] counted and sized them — to `out` and returns
/// its payload hash.
fn put_segment<'a>(
    out: &mut Vec<u8>,
    (count, len): (u64, usize),
    records: impl Iterator<Item = Written<'a>>,
) -> u64 {
    out.reserve(len);
    let at = begin_frame(out, SEGMENT_MAGIC);
    put_u64(out, count);
    for (key, from, series, mask) in records {
        let (values, bits) = tails(from, series, mask);
        put_key(out, key);
        put_u64(out, from);
        put_u64(out, series.start());
        put_u64(out, values.len() as u64);
        put_f64s(out, values);
        put_u64(out, mask.start());
        put_u64(out, bits.len() as u64);
        out.extend(bits.iter().map(|&b| u8::from(b)));
    }
    seal(out, at)
}

/// The one writer of the manifest format: appends a whole manifest file to
/// `out`.
fn put_manifest(
    out: &mut Vec<u8>,
    wal: WalCursor,
    chain: &[SegmentRef],
    collector: &CollectorState,
) {
    let at = begin_frame(out, MAGIC);
    put_u64(out, wal.frames);
    put_u64(out, wal.segment);
    put_u64(out, wal.offset);
    put_u64(out, chain.len() as u64);
    for segment in chain {
        put_u64(out, segment.seq);
        put_u64(out, segment.len);
        put_u64(out, segment.hash);
    }
    put_state(out, collector);
    seal(out, at);
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

/// The payload of a framed file and the hash its header stores, after the
/// magic matched and the payload hashed to it.
fn unframe<'a>(
    bytes: &'a [u8],
    magic: [u8; 8],
    what: &str,
) -> Result<(u64, &'a [u8]), ResilienceError> {
    let Some((header, payload)) = bytes.split_at_checked(HEADER_LEN) else {
        return Err(corrupt(format!("{what} shorter than its header")));
    };
    let (found, stored) = header.split_at(magic.len());
    if found != magic {
        return Err(corrupt(format!("bad {what} magic")));
    }
    let stored = le_bytes(stored);
    if fnv1a_words(payload) != stored {
        return Err(corrupt(format!("{what} hash mismatch")));
    }
    Ok((stored, payload))
}

/// Bounds-checked little-endian reader over a validated payload.
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
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
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
        let count = self.u64()?;
        match usize::try_from(count) {
            Ok(count) if count <= self.remaining() / min_elem_size.max(1) => Ok(count),
            _ => Err(corrupt("checkpoint count exceeds remaining bytes")),
        }
    }

    /// One key's record, its values and bits left where they lie.
    fn delta(&mut self) -> Result<RawDelta<'a>, ResilienceError> {
        let key = self.key()?;
        let from = self.u64()?;
        let series_start = self.u64()?;
        let count = self.count(8)?;
        let (values, _) = self.take(8 * count)?.as_chunks::<8>();
        let mask_start = self.u64()?;
        let count = self.count(1)?;
        let bits = self.take(count)?;
        Ok(RawDelta {
            key,
            from,
            series_start,
            values,
            mask_start,
            bits,
        })
    }

    fn finish(self, what: &str) -> Result<(), ResilienceError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!("trailing bytes after {what} payload")));
        }
        Ok(())
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

/// A [`KeyDelta`] as it lies in a validated payload: values and bits still
/// bytes, so that recovery copies each into place once.
struct RawDelta<'a> {
    key: KpiKey,
    from: MinuteBin,
    series_start: MinuteBin,
    values: &'a [[u8; 8]],
    mask_start: MinuteBin,
    bits: &'a [u8],
}

fn value_of(bytes: &[u8; 8]) -> f64 {
    f64::from_le_bytes(*bytes)
}

fn bit_of(byte: &u8) -> bool {
    *byte != 0
}

/// The one reader of the segment format: hands `visit` every record of a
/// payload whose hash was already checked.
fn each_record<'a>(
    payload: &'a [u8],
    mut visit: impl FnMut(RawDelta<'a>) -> Result<(), ResilienceError>,
) -> Result<(), ResilienceError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    for _ in 0..r.count(RECORD_FIXED)? {
        visit(r.delta()?)?;
    }
    r.finish("segment")
}

/// Decodes a segment file.
///
/// # Errors
///
/// [`ResilienceError::Corrupt`] on bad magic, hash mismatch, truncation,
/// impossible counts, or unknown tags — never a panic.
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<KeyDelta>, ResilienceError> {
    let (_, payload) = unframe(bytes, SEGMENT_MAGIC, "segment")?;
    let mut records = Vec::new();
    each_record(payload, |raw| {
        records.push(KeyDelta {
            key: raw.key,
            from: raw.from,
            series_start: raw.series_start,
            values: raw.values.iter().map(value_of).collect(),
            mask_start: raw.mask_start,
            bits: raw.bits.iter().map(bit_of).collect(),
        });
        Ok(())
    })?;
    Ok(records)
}

/// Decodes a manifest file.
///
/// # Errors
///
/// As [`decode_segment`].
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, ResilienceError> {
    let (_, payload) = unframe(bytes, MAGIC, "manifest")?;
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let wal = WalCursor {
        frames: r.u64()?,
        segment: r.u64()?,
        offset: r.u64()?,
    };
    let segment_count = r.count(24)?;
    let mut segments = Vec::with_capacity(segment_count);
    for _ in 0..segment_count {
        segments.push(SegmentRef {
            seq: r.u64()?,
            len: r.u64()?,
            hash: r.u64()?,
        });
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
    let partial_count = r.count(16)?;
    collector.partial = BTreeMap::new();
    for _ in 0..partial_count {
        let minute = r.u64()?;
        let accs = r.accs()?;
        collector.partial.insert(minute, accs);
    }

    r.finish("manifest")?;
    Ok(Manifest {
        wal,
        segments,
        collector,
    })
}

/// A series (or mask) as the segments of a chain applied so far leave it.
struct Half<T> {
    start: MinuteBin,
    bins: Vec<T>,
}

impl<T> Half<T> {
    fn empty(start: MinuteBin) -> Self {
        Self {
            start,
            bins: Vec::new(),
        }
    }

    /// Applies a record that rewrites the half from minute `from` on, with
    /// anchor `start` and `tail` the bins from there. A record that keeps
    /// no bins (`from` at or below its anchor) replaces the half, anchor
    /// included; any other must continue it — same anchor, at least the
    /// `keep` bins it keeps held — and truncates it at `keep` before
    /// appending. The room reserved as the half grows is the next power of
    /// two, the capacity a buffer grown a push at a time has at this
    /// length, so that the first minute ingested after a recovery appends
    /// to the restored buffers as it would to the live ones instead of
    /// reallocating every one of them.
    fn apply<B>(
        &mut self,
        from: MinuteBin,
        start: MinuteBin,
        tail: &[B],
        decode: fn(&B) -> T,
    ) -> Result<(), ResilienceError> {
        let keep = kept(from, start);
        if keep == 0 {
            *self = Self::empty(start);
        } else if start != self.start || keep > self.bins.len() {
            return Err(corrupt("segment continues bins its chain does not hold"));
        }
        self.bins.truncate(keep);
        let len = keep + tail.len();
        let room = len.checked_next_power_of_two().unwrap_or(len);
        self.bins.reserve_exact(room - keep);
        self.bins.extend(tail.iter().map(decode));
        Ok(())
    }
}

/// The store entries a chain adds up to, its segments applied oldest first.
#[derive(Default)]
struct Restored(BTreeMap<KpiKey, (Half<f64>, Half<bool>)>);

impl Restored {
    /// Applies the next segment of the chain. A key no earlier segment
    /// named starts as an empty half at the record's anchors, which only a
    /// record that replaces it can extend.
    fn apply(&mut self, payload: &[u8]) -> Result<(), ResilienceError> {
        each_record(payload, |raw| {
            let (series, mask) = self
                .0
                .entry(raw.key)
                .or_insert_with(|| (Half::empty(raw.series_start), Half::empty(raw.mask_start)));
            series.apply(raw.from, raw.series_start, raw.values, value_of)?;
            mask.apply(raw.from, raw.mask_start, raw.bits, bit_of)
        })
    }

    fn into_entries(self) -> Vec<(KpiKey, TimeSeries, CoverageMask)> {
        let entries = self.0.into_iter().map(|(key, (series, mask))| {
            (
                key,
                TimeSeries::new(series.start, series.bins),
                CoverageMask::from_bits(mask.start, mask.bins),
            )
        });
        entries.collect()
    }
}

// ------------------------------------------------------------------ store --

fn manifest_name(seq: u64) -> String {
    format!("ckpt-{seq:08}.bin")
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:08}.bin")
}

fn manifest_seqs(dir: &Path) -> Result<Vec<u64>, ResilienceError> {
    numbered_files(dir, "ckpt-", ".bin")
}

/// Reads a file into `buf`, replacing what it held; `false` when the file
/// does not exist, or is not `len` bytes long when `len` is given — found
/// before a byte is read, so a replaced file cannot drive a larger read.
fn read_if_present(
    path: &Path,
    len: Option<u64>,
    buf: &mut Vec<u8>,
) -> Result<bool, ResilienceError> {
    buf.clear();
    let mut file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    if let Some(len) = len {
        if file.metadata()?.len() != len {
            return Ok(false);
        }
    }
    file.read_to_end(buf)?;
    Ok(true)
}

/// Reads manifest `seq` and walks its chain in order, base first, handing
/// `visit` the payload of each segment once its length and hash match what
/// the manifest names. `None` when the manifest or any segment is missing
/// or fails validation, or `visit` finds a segment corrupt: the manifest is
/// unusable.
fn walk_chain(
    dir: &Path,
    seq: u64,
    mut visit: impl FnMut(&[u8]) -> Result<(), ResilienceError>,
) -> Result<Option<Manifest>, ResilienceError> {
    // One read buffer for the manifest and every segment in turn.
    let mut bytes = Vec::new();
    if !read_if_present(&dir.join(manifest_name(seq)), None, &mut bytes)? {
        return Ok(None);
    }
    let Ok(manifest) = decode_manifest(&bytes) else {
        return Ok(None);
    };
    for segment in &manifest.segments {
        let path = dir.join(segment_name(segment.seq));
        if !read_if_present(&path, Some(segment.len), &mut bytes)? {
            return Ok(None);
        }
        let payload = match unframe(&bytes, SEGMENT_MAGIC, "segment") {
            Ok((hash, payload)) if hash == segment.hash => payload,
            _ => return Ok(None),
        };
        match visit(payload) {
            Ok(()) => {}
            Err(ResilienceError::Corrupt(_)) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    Ok(Some(manifest))
}

/// A manifest on disk and the chain it rests on.
type Link = (u64, Vec<SegmentRef>);

/// Numbered chain files on disk, newest-wins with fallback past anything
/// torn.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_seq: u64,
    /// The newest manifest this process wrote.
    newest: Option<Link>,
    /// The store cut the newest manifest's last segment holds: what the
    /// next cut continues. `None` when it must start a new chain.
    head: Option<CutId>,
    /// Segment, then manifest, of the cut being written; reused.
    buf: Vec<u8>,
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
        let newest_on_disk = manifest_seqs(dir)?
            .into_iter()
            .chain(numbered_files(dir, "seg-", ".bin")?)
            .max();
        Ok(Self {
            dir: dir.to_path_buf(),
            next_seq: newest_on_disk.map_or(0, |s| s + 1),
            newest: None,
            head: None,
            buf: Vec::new(),
        })
    }

    /// One cut of `store` at a commit boundary: a segment of what was
    /// written since this writer's last cut — or a base, when there is no
    /// such cut to continue or the chain would outgrow twice the store —
    /// then the manifest, then pruning. The store is read and marked clean
    /// under one lock hold ([`MetricStore::cut_since`]). `wal` is where the
    /// WAL writer stands at that boundary
    /// ([`WalWriter::cursor`](crate::wal::WalWriter::cursor)); the manifest
    /// records it and recovery reads the WAL from there.
    ///
    /// `tear` is the chaos harness's hook: only the first `tear` bytes of
    /// segment-then-manifest reach disk, in write order — the on-disk image
    /// of a crash mid-cut — and nothing is pruned, so the previous manifest
    /// survives as fallback.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn cut(
        &mut self,
        wal: WalCursor,
        store: &MetricStore,
        collector: &CollectorState,
        tear: Option<usize>,
    ) -> Result<PathBuf, ResilienceError> {
        let chain_bytes: u64 = self
            .newest
            .iter()
            .flat_map(|(_, chain)| chain)
            .map(|s| s.len)
            .sum();
        let buf = &mut self.buf;
        buf.clear();
        let (head, (base, hash)) = store.cut_since(self.head, |cut| {
            let whole = cut.entries().map(|(k, s, m)| (k, 0, s, m));
            let full = measure(whole.clone());
            let delta = measure(cut.written_since_cut());
            if cut.is_whole() || chain_bytes + delta.1 as u64 > 2 * full.1 as u64 {
                (true, put_segment(buf, full, whole))
            } else {
                (false, put_segment(buf, delta, cut.written_since_cut()))
            }
        });
        let path = self.finish_cut(base, hash, wal, collector, tear)?;
        if tear.is_none() {
            self.head = Some(head);
        }
        Ok(path)
    }

    /// Numbers the segment `self.buf` holds (a base, or the next link of
    /// the newest chain), encodes the manifest behind it, writes both and
    /// prunes. Leaves the chain without a head to continue.
    fn finish_cut(
        &mut self,
        base: bool,
        hash: u64,
        wal: WalCursor,
        collector: &CollectorState,
        tear: Option<usize>,
    ) -> Result<PathBuf, ResilienceError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.head = None;
        let segment_len = self.buf.len();
        let mut chain = match &self.newest {
            Some((_, chain)) if !base => chain.clone(),
            _ => Vec::new(),
        };
        chain.push(SegmentRef {
            seq,
            len: segment_len as u64,
            hash,
        });
        put_manifest(&mut self.buf, wal, &chain, collector);
        let (segment, manifest) = self
            .buf
            .split_at_checked(segment_len)
            .unwrap_or((&self.buf, &[]));
        let segment_path = self.dir.join(segment_name(seq));
        let manifest_path = self.dir.join(manifest_name(seq));

        if let Some(keep) = tear {
            fs::write(&segment_path, segment.get(..keep).unwrap_or(segment))?;
            if let Some(rest) = keep.checked_sub(segment.len()).filter(|&rest| rest > 0) {
                fs::write(&manifest_path, manifest.get(..rest).unwrap_or(manifest))?;
            }
            return Ok(manifest_path);
        }
        fs::write(&segment_path, segment)?;
        fs::write(&manifest_path, manifest)?;
        if base {
            // Store-sized, and the deltas that follow are not.
            self.buf = Vec::new();
        }
        let previous = self.newest.replace((seq, chain));
        self.prune(previous)?;
        Ok(manifest_path)
    }

    /// Deletes every chain file but those the newest manifest and one
    /// fallback name: `previous`, the manifest this process wrote before,
    /// or else the newest older one on disk that validates — so a torn or
    /// stale file found at start-up is never counted as one of the two.
    fn prune(&self, previous: Option<Link>) -> Result<(), ResilienceError> {
        let Some(newest) = &self.newest else {
            return Ok(());
        };
        let mut fallback = previous;
        if fallback.is_none() {
            for &seq in manifest_seqs(&self.dir)?.iter().rev() {
                if seq < newest.0 {
                    if let Some(manifest) = walk_chain(&self.dir, seq, |_| Ok(()))? {
                        fallback = Some((seq, manifest.segments));
                        break;
                    }
                }
            }
        }
        let keep: BTreeSet<String> = [Some(newest), fallback.as_ref()]
            .into_iter()
            .flatten()
            .flat_map(|(seq, chain)| {
                let segments = chain.iter().map(|s| segment_name(s.seq));
                segments.chain([manifest_name(*seq)])
            })
            .collect();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let ours =
                (name.starts_with("ckpt-") || name.starts_with("seg-")) && name.ends_with(".bin");
            if ours && !keep.contains(name) {
                fs::remove_file(self.dir.join(name))?;
            }
        }
        Ok(())
    }

    /// Loads the newest recovery point that validates, skipping manifests
    /// that are torn or corrupt or rest on a segment that is, or on a chain
    /// that does not apply (newest first). `None` when no usable manifest
    /// exists — including when the directory itself is missing.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn latest_valid(dir: &Path) -> Result<Option<Checkpoint>, ResilienceError> {
        if !dir.exists() {
            return Ok(None);
        }
        for &seq in manifest_seqs(dir)?.iter().rev() {
            let mut restored = Restored::default();
            if let Some(manifest) = walk_chain(dir, seq, |payload| restored.apply(payload))? {
                return Ok(Some(Checkpoint {
                    wal: manifest.wal,
                    entries: restored.into_entries(),
                    collector: manifest.collector,
                }));
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("funnel-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_checkpoint() -> Checkpoint {
        let key = KpiKey::new(Entity::Instance(InstanceId(7)), KpiKind::PageViewCount);
        let mut collector = CollectorState::new(2);
        collector.watermarks = vec![Some(41), None];
        collector.seen[0].extend([40, 41]);
        let mut accs = MinuteAccs::new();
        accs.insert((ServiceId(1), KpiKind::PageViewCount), vec![(7, 123.0)]);
        collector.pending.insert(41, (1, accs.clone()));
        collector.partial.insert(12, accs);
        Checkpoint {
            wal: WalCursor {
                frames: 42,
                segment: 3,
                offset: 1017,
            },
            entries: vec![(
                key,
                TimeSeries::new(40, vec![1.0, 2.0, 3.0]),
                CoverageMask::from_bits(40, vec![true, false, true]),
            )],
            collector,
        }
    }

    /// Writes `checkpoint` as a chain of its own: a whole cut of a store
    /// that holds its entries. Returns the manifest's path.
    fn write(checkpoints: &mut CheckpointStore, checkpoint: &Checkpoint) -> PathBuf {
        let store = MetricStore::new();
        store.restore_entries(checkpoint.entries.iter().cloned());
        checkpoints
            .cut(checkpoint.wal, &store, &checkpoint.collector, None)
            .unwrap()
    }

    /// The files a directory holds, by name.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_string();
                (name, fs::read(&path).unwrap())
            })
            .collect()
    }

    #[test]
    fn roundtrip_through_the_directory_is_lossless() {
        for (tag, checkpoint) in [
            ("sample", sample_checkpoint()),
            ("empty", Checkpoint::default()),
        ] {
            let dir = tmp_dir(tag);
            let mut store = CheckpointStore::open(&dir).unwrap();
            write(&mut store, &checkpoint);
            let names: Vec<String> = files(&dir).into_keys().collect();
            assert_eq!(names, ["ckpt-00000000.bin", "seg-00000000.bin"]);
            let recovered = CheckpointStore::latest_valid(&dir).unwrap().unwrap();
            assert_eq!(recovered, checkpoint);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn any_flipped_header_bit_is_rejected_in_both_file_kinds() {
        let dir = tmp_dir("header");
        write(
            &mut CheckpointStore::open(&dir).unwrap(),
            &sample_checkpoint(),
        );
        let files = files(&dir);
        let manifest = &files["ckpt-00000000.bin"];
        let segment = &files["seg-00000000.bin"];
        assert!(decode_manifest(manifest).is_ok() && decode_segment(segment).is_ok());
        // Neither kind passes for the other.
        assert!(decode_manifest(segment).is_err() && decode_segment(manifest).is_err());
        for byte in 0..HEADER_LEN {
            let flip = |bytes: &[u8]| {
                let mut bad = bytes.to_vec();
                bad[byte] ^= 0x01;
                bad
            };
            assert!(decode_manifest(&flip(manifest)).is_err(), "manifest {byte}");
            assert!(decode_segment(&flip(segment)).is_err(), "segment {byte}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file of an older format version, whole and with a hash that
    /// validates, is not a manifest: its magic fails before anything is
    /// parsed, so recovery goes on to an older manifest or to whole-WAL
    /// replay instead of misreading it.
    fn rejected_by_its_magic(tag: &str, old: &[u8]) {
        assert!(matches!(
            decode_manifest(old),
            Err(ResilienceError::Corrupt(why)) if why.contains("magic")
        ));
        let dir = tmp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(manifest_name(3)), old).unwrap();
        assert!(CheckpointStore::latest_valid(&dir).unwrap().is_none());
        // The numbering still moves past it.
        let mut store = CheckpointStore::open(&dir).unwrap();
        let path = write(&mut store, &sample_checkpoint());
        assert_eq!(path, dir.join(manifest_name(4)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Version 1: one file holding the whole store, under the byte-serial
    /// FNV-1a the crate no longer has (the literal is what it gave for 64
    /// zero bytes).
    #[test]
    fn a_version_1_file_is_rejected_not_misread() {
        let mut old = b"FNLCKPT1".to_vec();
        old.extend_from_slice(&0xcec0_7f3a_46fd_0825_u64.to_le_bytes());
        old.extend_from_slice(&[0u8; 64]);
        rejected_by_its_magic("v1", &old);
    }

    /// The sample's manifest, partial aggregates left out, as version 4
    /// wrote it: today's payload with an empty backfill stage (a zero
    /// count) before the empty partial map (another) that closes it.
    fn version_4_payload() -> Vec<u8> {
        let mut checkpoint = sample_checkpoint();
        checkpoint.collector.partial.clear();
        let dir = tmp_dir("v4-source");
        let now = fs::read(write(
            &mut CheckpointStore::open(&dir).unwrap(),
            &checkpoint,
        ));
        let _ = fs::remove_dir_all(&dir);
        [&now.unwrap()[HEADER_LEN..], &[0; 8]].concat()
    }

    /// Frames `payload` under `magic` with a hash that validates.
    fn framed(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
        let mut old = magic.to_vec();
        old.extend_from_slice(&fnv1a_words(payload).to_le_bytes());
        old.extend_from_slice(payload);
        old
    }

    /// Version 2: the version-4 manifest but for a bare frame count where
    /// the cursor is, and an empty re-assessment queue (two zero counts)
    /// after the collector state, so its hash validates and only the magic
    /// tells it apart.
    #[test]
    fn a_version_2_manifest_is_rejected_not_misread() {
        let v4 = version_4_payload();
        let (frames, rest) = v4.split_at(8);
        let payload = [frames, &rest[16..], &[0; 16]].concat();
        rejected_by_its_magic("v2", &framed(b"FNLCKPT2", &payload));
    }

    /// Version 4: today's manifest with the backfill stage the collector
    /// no longer keeps.
    #[test]
    fn a_version_4_manifest_is_rejected_not_misread() {
        rejected_by_its_magic("v4", &framed(b"FNLCKPT4", &version_4_payload()));
    }

    fn key(n: u32) -> KpiKey {
        KpiKey::new(Entity::Instance(InstanceId(n)), KpiKind::PageViewCount)
    }

    /// A cursor told apart by its frame count, as these tests tell cuts
    /// apart; the other two fields derived from it so they round-trip too.
    fn at(frames: u64) -> WalCursor {
        WalCursor {
            frames,
            segment: frames / 3,
            offset: frames * 33,
        }
    }

    fn cut(
        checkpoints: &mut CheckpointStore,
        store: &MetricStore,
        frames: u64,
        tear: Option<usize>,
    ) {
        let state = CollectorState::new(1);
        checkpoints.cut(at(frames), store, &state, tear).unwrap();
    }

    /// What recovery must hand back after a clean cut of `store`.
    fn point(store: &MetricStore, frames: u64) -> Checkpoint {
        Checkpoint {
            wal: at(frames),
            entries: store.export_entries(),
            collector: CollectorState::new(1),
        }
    }

    #[test]
    fn cuts_write_deltas_and_recovery_adds_them_up() {
        let dir = tmp_dir("deltas");
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        let store = MetricStore::new();
        for minute in 0..50 {
            store.append(key(0), minute, minute as f64);
            store.append(key(1), minute, -(minute as f64));
        }
        cut(&mut checkpoints, &store, 1, None);
        let base_len = files(&dir)["seg-00000000.bin"].len();

        // A frontier append with a gap, a backfill into it, a new key and
        // an untouched one.
        store.append(key(0), 53, 7.0);
        assert!(store.backfill(key(0), 51, 6.0));
        store.append(key(2), 52, 1.0);
        cut(&mut checkpoints, &store, 2, None);
        let delta = decode_segment(&files(&dir)["seg-00000001.bin"]).unwrap();
        let written: Vec<(KpiKey, u64, usize)> = delta
            .iter()
            .map(|d| (d.key, d.from, d.values.len()))
            .collect();
        assert_eq!(written, [(key(0), 50, 4), (key(2), 52, 1)]);
        assert!(files(&dir)["seg-00000001.bin"].len() < base_len / 4);
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
            point(&store, 2)
        );

        // A backfill below the last cut's frontier rewrites from there.
        store.append(key(1), 60, 3.0);
        cut(&mut checkpoints, &store, 3, None);
        assert!(store.backfill(key(1), 55, 4.0));
        cut(&mut checkpoints, &store, 4, None);
        let delta = decode_segment(&files(&dir)["seg-00000003.bin"]).unwrap();
        assert_eq!(delta.len(), 1);
        assert_eq!((delta[0].from, delta[0].values.len()), (55, 6));
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
            point(&store, 4)
        );
        let manifest = decode_manifest(&files(&dir)["ckpt-00000003.bin"]).unwrap();
        let chain: Vec<u64> = manifest.segments.iter().map(|s| s.seq).collect();
        assert_eq!(chain, [0, 1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A restored series and mask have the room a live-grown one has at
    /// their length, so the first minute ingested after a recovery appends
    /// in place — and to the same store — instead of moving every buffer.
    #[test]
    fn a_recovered_entry_takes_the_next_minute_without_moving() {
        let dir = tmp_dir("capacity");
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        // 70 bins, put together from a base of 30 and a delta of 40: more
        // than doubled, so that only the reserve leaves room past 70.
        for minute in 0..70 {
            if minute == 30 {
                cut(&mut checkpoints, &store, 1, None);
            }
            store.append(key(0), minute, minute as f64);
        }
        cut(&mut checkpoints, &store, 2, None);
        let recovered = || CheckpointStore::latest_valid(&dir).unwrap().unwrap();

        let (_, mut series, mut mask) = recovered().entries.remove(0);
        assert_eq!((series.len(), mask.len()), (70, 70));
        let held = (series.values().as_ptr(), mask.bits().as_ptr());
        series.push(70.0);
        mask.mark(70);
        assert_eq!((series.values().as_ptr(), mask.bits().as_ptr()), held);

        let restored = MetricStore::new();
        restored.restore_entries(recovered().entries);
        for live in [&store, &restored] {
            live.append(key(0), 70, 70.0);
        }
        assert_eq!(restored.export_entries(), store.export_entries());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_cut_falls_back_to_the_previous_manifest_wherever_it_tears() {
        let dir = tmp_dir("torn");
        // One good cut, then a write the next cut will carry.
        let one_cut_in = || {
            let _ = fs::remove_dir_all(&dir);
            let store = MetricStore::new();
            store.append(key(0), 0, 1.0);
            let mut checkpoints = CheckpointStore::open(&dir).unwrap();
            cut(&mut checkpoints, &store, 1, None);
            let good = point(&store, 1);
            store.append(key(0), 1, 2.0);
            (store, checkpoints, good)
        };

        // Learn the two lengths from a tear past the end: a whole cut.
        let (store, mut checkpoints, _) = one_cut_in();
        cut(&mut checkpoints, &store, 2, Some(usize::MAX));
        let whole = files(&dir);
        let (segment, manifest) = (&whole["seg-00000001.bin"], &whole["ckpt-00000001.bin"]);
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
            point(&store, 2)
        );
        for keep in 0..segment.len() + manifest.len() {
            let (store, mut checkpoints, good) = one_cut_in();
            cut(&mut checkpoints, &store, 2, Some(keep));
            let now = files(&dir);
            assert_eq!(
                now["seg-00000001.bin"],
                segment[..keep.min(segment.len())],
                "{keep}"
            );
            match keep.checked_sub(segment.len()) {
                None | Some(0) => assert!(!now.contains_key("ckpt-00000001.bin"), "{keep}"),
                Some(rest) => assert_eq!(now["ckpt-00000001.bin"], manifest[..rest], "{keep}"),
            }
            let recovered = CheckpointStore::latest_valid(&dir).unwrap().unwrap();
            assert_eq!(recovered, good, "torn at {keep} must fall back");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_segment_falls_back_and_two_bad_manifests_leave_nothing() {
        let dir = tmp_dir("missing");
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        store.append(key(0), 0, 1.0);
        cut(&mut checkpoints, &store, 1, None);
        let first = point(&store, 1);
        store.append(key(0), 1, 2.0);
        cut(&mut checkpoints, &store, 2, None);
        // One byte longer than the manifest names: refused before it is read.
        let longer = [fs::read(dir.join(segment_name(1))).unwrap(), vec![0]].concat();
        fs::write(dir.join(segment_name(1)), longer).unwrap();
        assert_eq!(CheckpointStore::latest_valid(&dir).unwrap().unwrap(), first);
        fs::remove_file(dir.join(segment_name(1))).unwrap();
        assert_eq!(CheckpointStore::latest_valid(&dir).unwrap().unwrap(), first);
        // The base both manifests rest on.
        fs::remove_file(dir.join(segment_name(0))).unwrap();
        assert!(CheckpointStore::latest_valid(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes `records` as segment `seq` through the one segment writer and
    /// names it as a manifest does.
    fn put_segment_file(dir: &Path, seq: u64, records: &[Written<'_>]) -> SegmentRef {
        let mut bytes = Vec::new();
        let records = records.iter().copied();
        let hash = put_segment(&mut bytes, measure(records.clone()), records);
        fs::write(dir.join(segment_name(seq)), &bytes).unwrap();
        SegmentRef {
            seq,
            len: bytes.len() as u64,
            hash,
        }
    }

    fn put_manifest_file(dir: &Path, seq: u64, chain: &[SegmentRef]) {
        let mut bytes = Vec::new();
        let state = CollectorState::new(1);
        put_manifest(&mut bytes, at(seq), chain, &state);
        fs::write(dir.join(manifest_name(seq)), bytes).unwrap();
    }

    /// Chains whose every file validates but which the writer never
    /// produces: a delta continuing bins no older link holds. Each leaves
    /// its manifest unusable — recovery takes the one before, or nothing
    /// when it stands alone — and none panics. A delta that does continue
    /// the chain is the control.
    #[test]
    fn a_hash_valid_chain_that_does_not_apply_falls_back() {
        let series = |start, len| TimeSeries::new(start, (0..len).map(|v| v as f64).collect());
        let mask = CoverageMask::all_present;
        let (held_series, held_mask) = (series(10, 4), mask(10, 4));
        let (long_series, long_mask) = (series(10, 6), mask(10, 6));
        let (moved_series, moved_mask) = (series(11, 5), mask(11, 5));
        let (far_series, far_mask) = (series(10, 12), mask(10, 12));
        let point_of = |frames, series: &TimeSeries, mask: &CoverageMask| Checkpoint {
            wal: at(frames),
            entries: vec![(key(0), series.clone(), mask.clone())],
            collector: CollectorState::new(1),
        };
        let chain_of = |tag: &str, delta: Written<'_>| {
            let dir = tmp_dir(tag);
            fs::create_dir_all(&dir).unwrap();
            let base = put_segment_file(&dir, 0, &[(key(0), 0, &held_series, &held_mask)]);
            put_manifest_file(&dir, 0, &[base]);
            let delta = put_segment_file(&dir, 1, &[delta]);
            put_manifest_file(&dir, 1, &[base, delta]);
            dir
        };

        // Keeps the 2 bins it names under the anchor the chain holds.
        let dir = chain_of("applies", (key(0), 12, &long_series, &long_mask));
        let recovered = CheckpointStore::latest_valid(&dir).unwrap();
        assert_eq!(recovered, Some(point_of(1, &long_series, &long_mask)));
        let _ = fs::remove_dir_all(&dir);

        for (tag, delta) in [
            ("unheld-key", (key(1), 12, &long_series, &long_mask)),
            ("other-anchor", (key(0), 12, &moved_series, &moved_mask)),
            ("past-the-end", (key(0), 20, &far_series, &far_mask)),
        ] {
            let dir = chain_of(tag, delta);
            let recovered = CheckpointStore::latest_valid(&dir).unwrap();
            assert_eq!(
                recovered,
                Some(point_of(0, &held_series, &held_mask)),
                "{tag}"
            );
            fs::remove_file(dir.join(manifest_name(0))).unwrap();
            assert_eq!(CheckpointStore::latest_valid(&dir).unwrap(), None, "{tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The directory keeps what the two newest *usable* manifests name. A
    /// torn cut left behind by a crashed process is neither: the first cut
    /// after it removes the torn files and keeps the manifest recovery
    /// used.
    #[test]
    fn pruning_counts_only_manifests_that_validate() {
        let dir = tmp_dir("prune");
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        // Enough history that one-minute deltas stay far from the 2× rule.
        store.insert(key(0), TimeSeries::new(0, vec![0.0; 500]));
        for frames in 0..5 {
            store.append(key(0), 500 + frames, 1.0);
            cut(&mut checkpoints, &store, frames, None);
        }
        let names: Vec<String> = files(&dir).into_keys().collect();
        assert_eq!(
            names,
            [
                "ckpt-00000003.bin",
                "ckpt-00000004.bin",
                "seg-00000000.bin",
                "seg-00000001.bin",
                "seg-00000002.bin",
                "seg-00000003.bin",
                "seg-00000004.bin",
            ]
        );
        // The process dies inside cut 5, once in the segment, and — after a
        // restart that also dies — once in the manifest.
        store.append(key(0), 505, 1.0);
        cut(&mut checkpoints, &store, 5, Some(30));
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        let segment_len = {
            cut(&mut checkpoints, &store, 5, Some(usize::MAX));
            files(&dir)["seg-00000006.bin"].len()
        };
        fs::write(dir.join(manifest_name(6)), [1, 2, 3]).unwrap();
        assert_eq!(files(&dir).len(), 7 + 3);
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap().wal,
            at(4)
        );

        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        cut(&mut checkpoints, &store, 6, None);
        let names: Vec<String> = files(&dir).into_keys().collect();
        assert_eq!(
            names,
            [
                "ckpt-00000004.bin",
                "ckpt-00000007.bin",
                "seg-00000000.bin",
                "seg-00000001.bin",
                "seg-00000002.bin",
                "seg-00000003.bin",
                "seg-00000004.bin",
                "seg-00000007.bin",
            ],
            "torn cuts 5 and 6 gone, manifest 4 kept as the fallback"
        );
        // A fresh process starts a fresh chain: its first cut is a base.
        assert!(files(&dir)["seg-00000007.bin"].len() >= segment_len);
        store.append(key(0), 506, 1.0);
        cut(&mut checkpoints, &store, 7, None);
        let names: Vec<String> = files(&dir).into_keys().collect();
        assert_eq!(
            names,
            [
                "ckpt-00000007.bin",
                "ckpt-00000008.bin",
                "seg-00000007.bin",
                "seg-00000008.bin",
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The one rule that bounds a chain: a cut that would bring it past
    /// twice the whole store writes a base instead.
    #[test]
    fn a_chain_never_outgrows_twice_the_store() {
        let dir = tmp_dir("rebase");
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        let rewrite = |round: u64| {
            for k in 0..4 {
                store.insert(key(k), TimeSeries::new(0, vec![round as f64; 40]));
            }
        };
        let mut chains = Vec::new();
        for round in 0..6 {
            rewrite(round);
            cut(&mut checkpoints, &store, round, None);
            let newest = manifest_name(round);
            let manifest = decode_manifest(&files(&dir)[&newest]).unwrap();
            let full = manifest.segments[0].len;
            let chain: u64 = manifest.segments.iter().map(|s| s.len).sum();
            assert!(chain <= 2 * full, "round {round}: {chain} > 2 × {full}");
            chains.push(manifest.segments.len());
            assert_eq!(
                CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
                point(&store, round)
            );
        }
        // Every cut rewrites the whole store: base, one delta, base, …
        assert_eq!(chains, [1, 2, 1, 2, 1, 2]);
        // Two manifests on one chain: one base, one delta, nothing else.
        let names: Vec<String> = files(&dir).into_keys().collect();
        assert_eq!(
            names,
            [
                "ckpt-00000004.bin",
                "ckpt-00000005.bin",
                "seg-00000004.bin",
                "seg-00000005.bin",
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A chain is only continued from the cut it ends in: a restore, a cut
    /// taken by another writer, or a cut of another store in between all
    /// make the next cut a base.
    #[test]
    fn a_cut_that_cannot_continue_the_chain_starts_a_new_one() {
        let dir = tmp_dir("heads");
        let other_dir = tmp_dir("heads-other");
        let store = MetricStore::new();
        let mut checkpoints = CheckpointStore::open(&dir).unwrap();
        let mut other = CheckpointStore::open(&other_dir).unwrap();
        let chain_len = |dir: &Path, seq: u64| {
            decode_manifest(&files(dir)[&manifest_name(seq)])
                .unwrap()
                .segments
                .len()
        };
        store.append(key(0), 0, 1.0);
        cut(&mut checkpoints, &store, 0, None);
        store.append(key(0), 1, 1.0);
        cut(&mut checkpoints, &store, 1, None);
        assert_eq!(chain_len(&dir, 1), 2);

        // Another writer cuts the same store: the marks now count from its
        // cut, so ours cannot be continued.
        store.append(key(0), 2, 1.0);
        cut(&mut other, &store, 0, None);
        store.append(key(0), 3, 1.0);
        cut(&mut checkpoints, &store, 2, None);
        assert_eq!(chain_len(&dir, 2), 1);
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
            point(&store, 2)
        );

        // A restore drops keys no mark remembers.
        store.append(key(1), 0, 5.0);
        cut(&mut checkpoints, &store, 3, None);
        assert_eq!(chain_len(&dir, 3), 2);
        store.restore_entries(vec![(
            key(2),
            TimeSeries::new(0, vec![1.0]),
            CoverageMask::all_present(0, 1),
        )]);
        cut(&mut checkpoints, &store, 4, None);
        assert_eq!(chain_len(&dir, 4), 1);
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
            point(&store, 4)
        );

        // A cut of another store is a chain of its own.
        store.append(key(2), 1, 2.0);
        write(&mut checkpoints, &sample_checkpoint());
        cut(&mut checkpoints, &store, 6, None);
        assert_eq!(chain_len(&dir, 6), 1);
        assert_eq!(
            CheckpointStore::latest_valid(&dir).unwrap().unwrap(),
            point(&store, 6)
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other_dir);
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
