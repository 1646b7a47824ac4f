//! The durable ingest write-ahead log.
//!
//! Accepted frames are appended to numbered segment files
//! (`wal-00000000.seg`, `wal-00000001.seg`, …) as self-validating records:
//!
//! ```text
//! record  := u8 kind, u32 len, u64 fnv1a(payload), payload
//! kind    := 0 (frame: one encoded wire frame) | 1 (end-of-stream, len 0)
//! ```
//!
//! All integers little-endian. The format is **fsync-free**: records are
//! plain appends, and recovery never trusts position alone — a record
//! counts only if its declared length fits the file *and* its payload
//! hashes to the stored FNV-1a value. A crash mid-append therefore leaves
//! a *torn tail* that scanning detects and discards cleanly; the agent
//! replay protocol re-sends the lost frame on resume. Segments roll over
//! at a byte threshold, and every sealed segment's size is recorded into
//! the `wal.segment_bytes` histogram.
//!
//! [`encode_record`] / [`decode_records`] are pure functions over byte
//! slices — the property tests drive them with arbitrary frame sequences
//! and arbitrary truncation points. Decoding copies nothing: a record says
//! where in the buffer its payload lies.

use crate::{fnv1a, numbered_files, ResilienceError};
use bytes::Bytes;
use std::fs;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Record kind tag: the payload is one encoded wire frame.
pub const FRAME_RECORD: u8 = 0;
/// Record kind tag: the ingest stream ended cleanly (empty payload).
pub const EOS_RECORD: u8 = 1;

/// Bytes before the payload: kind (1) + len (4) + hash (8).
pub const RECORD_HEADER: usize = 13;

/// Encodes one WAL record: header + payload, self-validating.
pub fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, kind, payload);
    out
}

/// [`encode_record`] into a buffer the caller reuses: `out` is cleared
/// first and holds exactly the record afterwards.
fn encode_record_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.clear();
    out.reserve(RECORD_HEADER + payload.len());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// [`FRAME_RECORD`] or [`EOS_RECORD`].
    pub kind: u8,
    /// Where in the decoded buffer the record payload lies (an encoded
    /// wire frame for frame records).
    pub payload: Range<usize>,
}

/// The result of decoding one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSegment {
    /// Every record that validated, in append order.
    pub records: Vec<WalRecord>,
    /// Whether trailing bytes failed validation (torn append).
    pub torn: bool,
    /// Length of the valid prefix — the truncation point that heals a
    /// torn segment.
    pub valid_len: usize,
}

/// Decodes a segment's bytes into its valid record prefix. Never panics:
/// a truncated header, an impossible length, an unknown kind tag, or a
/// hash mismatch all simply end the valid prefix and mark the segment
/// torn.
pub fn decode_records(buf: &[u8]) -> DecodedSegment {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some(rest) = buf.get(pos..) else { break };
        if rest.len() < RECORD_HEADER {
            break;
        }
        let kind = rest.first().copied().unwrap_or(0);
        if kind != FRAME_RECORD && kind != EOS_RECORD {
            break;
        }
        let le = |b: &[u8]| {
            b.iter()
                .rev()
                .fold(0u64, |acc, &x| (acc << 8) | u64::from(x))
        };
        let len = rest.get(1..5).map_or(0, &le) as usize;
        let stored_hash = rest.get(5..RECORD_HEADER).map_or(0, &le);
        let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
            break;
        };
        if fnv1a(payload) != stored_hash {
            break;
        }
        let start = pos + RECORD_HEADER;
        pos = start + len;
        records.push(WalRecord {
            kind,
            payload: start..pos,
        });
    }
    DecodedSegment {
        records,
        torn: pos < buf.len(),
        valid_len: pos,
    }
}

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

/// The sorted sequence numbers of the segments present in `dir`.
fn segment_seqs(dir: &Path) -> Result<Vec<u64>, ResilienceError> {
    numbered_files(dir, "wal-", ".seg")
}

/// Appends records to the WAL, rolling segments at a byte threshold.
///
/// Opening is **self-healing**: if the newest segment ends in a torn
/// record (the signature of a crash mid-append), the torn tail is
/// truncated away before any new append, so resumed ingestion continues
/// from the last valid record.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    segment_limit: u64,
    seq: u64,
    written: u64,
    /// Data minute of the most recent frame appended, peeked from the wire
    /// header — attributes segment-seal events to a timeline window. At
    /// more than one agent shard the frame→segment assignment depends on
    /// channel interleaving, so `wal.*` timeline windows are only
    /// run-to-run stable at shards=1 (aggregate totals are always stable).
    last_minute: u64,
    /// The current segment, opened for append by the first record written
    /// to it and kept until the segment seals (or a torn write simulates
    /// the process dying with it).
    file: Option<fs::File>,
    /// The record being written, reused across appends.
    record: Vec<u8>,
}

impl WalWriter {
    /// Opens (creating the directory if needed) the WAL at `dir`,
    /// continuing the newest existing segment after healing any torn
    /// tail. `segment_limit` is the byte threshold past which a segment
    /// is sealed and the next one started.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn open(dir: &Path, segment_limit: u64) -> Result<Self, ResilienceError> {
        fs::create_dir_all(dir)?;
        let seqs = segment_seqs(dir)?;
        let (seq, written) = match seqs.last() {
            Some(&seq) => {
                let path = dir.join(segment_name(seq));
                let decoded = decode_records(&fs::read(&path)?);
                if decoded.torn {
                    // Crash artifact: truncate to the valid prefix.
                    let file = fs::OpenOptions::new().write(true).open(&path)?;
                    file.set_len(decoded.valid_len as u64)?;
                }
                (seq, decoded.valid_len as u64)
            }
            None => (0, 0),
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_limit: segment_limit.max(1),
            seq,
            written,
            last_minute: 0,
            file: None,
            record: Vec::new(),
        })
    }

    fn current_path(&self) -> PathBuf {
        self.dir.join(segment_name(self.seq))
    }

    fn open_segment(&self) -> Result<fs::File, ResilienceError> {
        Ok(fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.current_path())?)
    }

    /// Appends one record with a single `write_all`, so what is on disk at
    /// every record boundary — and what a crash can tear — is one whole
    /// record at a time.
    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), ResilienceError> {
        encode_record_into(&mut self.record, kind, payload);
        let mut file = match self.file.take() {
            Some(file) => file,
            None => self.open_segment()?,
        };
        file.write_all(&self.record)?;
        self.written += self.record.len() as u64;
        if self.written >= self.segment_limit {
            funnel_obs::timeline_histogram_record(
                funnel_obs::names::WAL_SEGMENT_BYTES,
                self.last_minute,
                self.written,
            );
            self.seq += 1;
            self.written = 0;
        } else {
            self.file = Some(file);
        }
        Ok(())
    }

    /// Appends one accepted frame's raw bytes as a frame record.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn append_frame(&mut self, raw: &Bytes) -> Result<(), ResilienceError> {
        if let Some(minute) = funnel_sim::wire::peek_minute(raw) {
            self.last_minute = minute;
        }
        self.append_record(FRAME_RECORD, raw.as_ref())
    }

    /// Appends the end-of-stream marker: recovery runs `finish()` (final
    /// minute flush + backfill) only when this record is present.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn append_end_of_stream(&mut self) -> Result<(), ResilienceError> {
        self.append_record(EOS_RECORD, &[])
    }

    /// Chaos-harness hook: appends only the first `keep` bytes of the
    /// frame's record — the on-disk image of a crash mid-append. Never
    /// rotates; the torn tail is expected to be healed by the next
    /// [`WalWriter::open`].
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn append_torn_frame(&mut self, raw: &Bytes, keep: usize) -> Result<(), ResilienceError> {
        // The process this models dies here, and its handle with it.
        self.file = None;
        let record = encode_record(FRAME_RECORD, raw.as_ref());
        // A `keep` past the record's end tears nothing.
        let torn = record.get(..keep).unwrap_or(&record);
        self.open_segment()?.write_all(torn)?;
        Ok(())
    }

    /// Frames-per-segment bookkeeping for tests: the current segment
    /// sequence number.
    pub fn segment_seq(&self) -> u64 {
        self.seq
    }
}

/// Everything a recovery scan learned from the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The validated frame payloads past the first `skip`, in append order
    /// across segments: slices of the segment buffers read from disk,
    /// never copies.
    pub frames: Vec<Bytes>,
    /// How many frames validated, skipped ones included.
    pub frame_count: u64,
    /// Whether the end-of-stream marker is present (it is always last).
    pub end_of_stream: bool,
    /// Whether the newest segment ended in a torn record (crash artifact,
    /// discarded).
    pub torn_tail: bool,
    /// How many segment files were scanned.
    pub segments: u64,
}

/// Scans the whole WAL at `dir`, validating every record, and keeps the
/// frames past the first `skip` (the ones a checkpoint does not cover).
/// Segments read into one buffer until a frame of one is kept; only from
/// there on does the scan hold what it read.
///
/// A torn tail is tolerated only on the *newest* segment — that is the
/// crash signature. A torn record in any sealed (non-final) segment, or
/// any record after the end-of-stream marker, means the log was damaged
/// beyond what a crash can produce and is reported as corruption.
///
/// # Errors
///
/// [`ResilienceError::Io`] on filesystem failure,
/// [`ResilienceError::Corrupt`] on mid-log damage. A missing directory is
/// an empty WAL, not an error.
pub fn scan(dir: &Path, skip: u64) -> Result<WalScan, ResilienceError> {
    let mut scan = WalScan {
        frames: Vec::new(),
        frame_count: 0,
        end_of_stream: false,
        torn_tail: false,
        segments: 0,
    };
    if !dir.exists() {
        return Ok(scan);
    }
    let seqs = segment_seqs(dir)?;
    scan.segments = seqs.len() as u64;
    let mut buf = Vec::new();
    for (i, &seq) in seqs.iter().enumerate() {
        buf.clear();
        fs::File::open(dir.join(segment_name(seq)))?.read_to_end(&mut buf)?;
        funnel_obs::histogram_record(funnel_obs::names::WAL_SEGMENT_BYTES, buf.len() as u64);
        let decoded = decode_records(&buf);
        let is_last = i + 1 == seqs.len();
        if decoded.torn {
            if !is_last {
                return Err(ResilienceError::Corrupt(format!(
                    "torn record inside sealed WAL segment {seq}"
                )));
            }
            scan.torn_tail = true;
        }
        // The buffer, shared once the first frame of it is kept.
        let mut kept: Option<Bytes> = None;
        for record in decoded.records {
            if scan.end_of_stream {
                return Err(ResilienceError::Corrupt(
                    "WAL record after end-of-stream marker".into(),
                ));
            }
            if record.kind == EOS_RECORD {
                scan.end_of_stream = true;
                continue;
            }
            if scan.frame_count >= skip {
                let segment = kept.get_or_insert_with(|| Bytes::from(std::mem::take(&mut buf)));
                scan.frames.push(segment.slice(record.payload));
            }
            scan.frame_count += 1;
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("funnel-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_scan_roundtrip_across_segments() {
        let dir = tmp_dir("roundtrip");
        // Tiny limit: every frame seals a segment.
        let mut wal = WalWriter::open(&dir, 32).unwrap();
        let frames: Vec<Bytes> = (0u8..5).map(|i| Bytes::from(vec![i; 20])).collect();
        for f in &frames {
            wal.append_frame(f).unwrap();
        }
        wal.append_end_of_stream().unwrap();
        let all = scan(&dir, 0).unwrap();
        assert!(all.end_of_stream);
        assert!(!all.torn_tail);
        assert!(all.segments > 1, "tiny limit must rotate");
        assert_eq!(all.frames, frames);
        assert_eq!(all.frame_count, 5);
        // Skipped frames are validated and counted, not kept.
        for skip in 0..7 {
            let tail = scan(&dir, skip).unwrap();
            assert_eq!(tail.frames, frames[(skip as usize).min(5)..], "{skip}");
            assert_eq!((tail.frame_count, tail.end_of_stream), (5, true));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_healed_on_reopen() {
        let dir = tmp_dir("torn");
        let mut wal = WalWriter::open(&dir, 1 << 20).unwrap();
        wal.append_frame(&Bytes::from(vec![1u8; 40])).unwrap();
        wal.append_torn_frame(&Bytes::from(vec![2u8; 40]), 17)
            .unwrap();
        let scan1 = scan(&dir, 0).unwrap();
        assert!(scan1.torn_tail);
        assert_eq!(scan1.frames.len(), 1);
        // Reopen heals; the next append lands cleanly after the survivor.
        let mut wal = WalWriter::open(&dir, 1 << 20).unwrap();
        wal.append_frame(&Bytes::from(vec![3u8; 40])).unwrap();
        let scan2 = scan(&dir, 0).unwrap();
        assert!(!scan2.torn_tail);
        assert_eq!(scan2.frames.len(), 2);
        assert_eq!(scan2.frames[1], Bytes::from(vec![3u8; 40]));
        // A `keep` past the record's end writes the whole record.
        wal.append_torn_frame(&Bytes::from(vec![4u8; 40]), usize::MAX)
            .unwrap();
        let scan3 = scan(&dir, 0).unwrap();
        assert_eq!((scan3.torn_tail, scan3.frames.len()), (false, 3));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The writer keeps its segment open and reuses one record buffer; what
    /// reaches disk must still be the concatenated [`encode_record`]
    /// outputs, segment by segment, through roll-overs, a torn append, the
    /// heal on reopen and further appends.
    #[test]
    fn segment_files_are_the_concatenated_records_byte_for_byte() {
        const LIMIT: u64 = 200;
        let dir = tmp_dir("bytes");
        let payload = |i: u8| Bytes::from(vec![i; 10 + usize::from(i) * 7 % 90]);
        // What each segment must hold, mirroring the roll-over rule.
        let mut expected: Vec<Vec<u8>> = vec![Vec::new()];
        fn expect(expected: &mut Vec<Vec<u8>>, record: Vec<u8>) {
            let current = expected.last_mut().unwrap();
            current.extend_from_slice(&record);
            if current.len() as u64 >= LIMIT {
                expected.push(Vec::new());
            }
        }

        let mut wal = WalWriter::open(&dir, LIMIT).unwrap();
        for i in 0..12u8 {
            wal.append_frame(&payload(i)).unwrap();
            expect(&mut expected, encode_record(FRAME_RECORD, &payload(i)));
        }
        assert!(wal.segment_seq() >= 3, "the stream must roll over");
        // A crash mid-append: the torn bytes land after the last whole
        // record of the current segment and are gone after the reopen.
        wal.append_torn_frame(&payload(99), 9).unwrap();
        let torn_seq = wal.segment_seq();
        let torn_len = fs::metadata(dir.join(segment_name(torn_seq)))
            .unwrap()
            .len();
        assert_eq!(torn_len, expected.last().unwrap().len() as u64 + 9);
        drop(wal);

        let mut wal = WalWriter::open(&dir, LIMIT).unwrap();
        assert_eq!(wal.segment_seq(), torn_seq);
        for i in 12..20u8 {
            wal.append_frame(&payload(i)).unwrap();
            expect(&mut expected, encode_record(FRAME_RECORD, &payload(i)));
        }
        wal.append_end_of_stream().unwrap();
        expect(&mut expected, encode_record(EOS_RECORD, &[]));
        drop(wal);

        if expected.last().is_some_and(Vec::is_empty) {
            // The last record sealed its segment; the next was never opened.
            expected.pop();
        }
        assert_eq!(segment_seqs(&dir).unwrap().len(), expected.len());
        for (seq, want) in expected.iter().enumerate() {
            let got = fs::read(dir.join(segment_name(seq as u64))).unwrap();
            assert_eq!(&got, want, "segment {seq}");
        }
        let scan = scan(&dir, 0).unwrap();
        assert!(scan.end_of_stream && !scan.torn_tail);
        assert_eq!(scan.frames.len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_no_crash_can_cause_is_corruption_not_a_tail() {
        // A tear inside a sealed segment.
        let dir = tmp_dir("midlog");
        let mut wal = WalWriter::open(&dir, 32).unwrap();
        for i in 0u8..3 {
            wal.append_frame(&Bytes::from(vec![i; 20])).unwrap();
        }
        let first = dir.join(segment_name(0));
        let sealed = fs::read(&first).unwrap();
        fs::write(&first, &sealed[..sealed.len() - 4]).unwrap();
        assert!(matches!(scan(&dir, 0), Err(ResilienceError::Corrupt(_))));
        // Damage in a frame the caller skips is damage all the same.
        assert!(matches!(scan(&dir, 3), Err(ResilienceError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);

        // A record after the end-of-stream marker.
        let dir = tmp_dir("after-eos");
        let mut wal = WalWriter::open(&dir, 1 << 20).unwrap();
        wal.append_frame(&Bytes::from(vec![1u8; 20])).unwrap();
        wal.append_end_of_stream().unwrap();
        wal.append_frame(&Bytes::from(vec![2u8; 20])).unwrap();
        assert!(matches!(scan(&dir, 0), Err(ResilienceError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_an_empty_wal() {
        let scan = scan(Path::new("/nonexistent/funnel-wal"), 0).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.segments, 0);
    }

    #[test]
    fn flipped_byte_ends_the_valid_prefix() {
        let mut buf = encode_record(FRAME_RECORD, &[1, 2, 3, 4]);
        let good = decode_records(&buf);
        assert_eq!(good.records.len(), 1);
        assert!(!good.torn);
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let bad = decode_records(&buf);
        assert!(bad.records.is_empty());
        assert!(bad.torn);
        assert_eq!(bad.valid_len, 0);
    }
}
