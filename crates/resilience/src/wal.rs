//! The durable ingest write-ahead log.
//!
//! Accepted frames are appended to numbered segment files
//! (`wal-00000000.seg`, `wal-00000001.seg`, …) as self-validating records:
//!
//! ```text
//! record  := u8 kind, u32 len, u64 fnv1a_words(payload), payload
//! kind    := 0 (frame: one encoded wire frame) | 1 (end-of-stream, len 0)
//! ```
//!
//! All integers little-endian; the hash is [`fnv1a_words`], the one content
//! hash of every durable byte. The format is **fsync-free**: records are
//! plain appends, and recovery never trusts position alone — a record
//! counts only if its declared length fits the file *and* its payload
//! hashes to the stored value. A crash mid-append therefore leaves
//! a *torn tail* that scanning detects and discards cleanly; the agent
//! replay protocol re-sends the lost frame on resume. Segments roll over
//! at a byte threshold.
//!
//! A position in the log is a [`WalCursor`]: how many frames lie before
//! it, and the segment and byte offset its next record starts at. Every
//! checkpoint manifest carries the cursor of its cut, and [`scan`] reads
//! from a cursor forward, so a recovery opens the segments a checkpoint
//! does not cover and no others.
//!
//! [`encode_record`] / [`decode_records`] are pure functions over byte
//! slices — the property tests drive them with arbitrary frame sequences
//! and arbitrary truncation points. Decoding copies nothing: a record says
//! where in the buffer its payload lies.

use crate::{fnv1a_words, numbered_files, ResilienceError};
use bytes::Bytes;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
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
    out.extend_from_slice(&fnv1a_words(payload).to_le_bytes());
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
/// a truncated header, an impossible length, an unknown kind tag, a tag
/// that disagrees with the length (only the end-of-stream marker is
/// empty), or a hash mismatch all simply end the valid prefix and mark
/// the segment torn.
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
        // The hash covers the payload only, so the length vouches for the
        // tag: a wire frame is never empty and the marker always is.
        if (kind == EOS_RECORD) != (len == 0) {
            break;
        }
        let stored_hash = rest.get(5..RECORD_HEADER).map_or(0, &le);
        let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
            break;
        };
        if fnv1a_words(payload) != stored_hash {
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

/// A position in the WAL: the record boundary its first `frames` frames end
/// at. A checkpoint manifest carries the cursor of its cut, and [`scan`]
/// reads from one forward.
///
/// A position has one name. The end of a segment that reached the roll-over
/// threshold is `(next segment, 0)` — where [`WalWriter`] stands after the
/// roll-over, whether or not that file exists yet — never
/// `(sealed segment, its length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalCursor {
    /// Frames in the log before this position.
    pub frames: u64,
    /// The segment the next record goes to (`wal-<segment>.seg`).
    pub segment: u64,
    /// The byte of that segment the next record starts at.
    pub offset: u64,
}

impl WalCursor {
    /// The beginning of the log: a scan from here replays all of it.
    pub const START: Self = Self {
        frames: 0,
        segment: 0,
        offset: 0,
    };
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
    /// tail — or starting the next one when the newest already reached
    /// `segment_limit`, the byte threshold past which a segment is sealed:
    /// the writer that sealed it stood at `(next, 0)`, and so must this
    /// one, or the same byte would have two names ([`WalCursor`]).
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn open(dir: &Path, segment_limit: u64) -> Result<Self, ResilienceError> {
        fs::create_dir_all(dir)?;
        let segment_limit = segment_limit.max(1);
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
                let written = decoded.valid_len as u64;
                if written >= segment_limit {
                    (seq + 1, 0)
                } else {
                    (seq, written)
                }
            }
            None => (0, 0),
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_limit,
            seq,
            written,
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
            self.seq += 1;
            self.written = 0;
        } else {
            self.file = Some(file);
        }
        Ok(())
    }

    /// Appends one accepted frame's raw bytes as a frame record. An accepted
    /// frame decoded, so it is never empty; an empty frame record would read
    /// back as damage (only the end-of-stream marker has no payload).
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Io`] on filesystem failure.
    pub fn append_frame(&mut self, raw: &Bytes) -> Result<(), ResilienceError> {
        self.append_record(FRAME_RECORD, raw.as_ref())
    }

    /// Appends the end-of-stream marker: recovery runs `finish()` (the
    /// pending minutes and the aggregates backfill completed) only when
    /// this record is present.
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

    /// Where the next record will land, as the cursor of a log the caller
    /// knows to hold `frames` frames so far (the writer counts bytes, its
    /// owner counts frames). This is what a checkpoint cut records.
    pub fn cursor(&self, frames: u64) -> WalCursor {
        WalCursor {
            frames,
            segment: self.seq,
            offset: self.written,
        }
    }
}

/// Everything a recovery scan learned from the WAL past a cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The validated frame payloads from the cursor on, in append order
    /// across segments: slices of the segment buffers read from disk,
    /// never copies.
    pub frames: Vec<Bytes>,
    /// Frames in the log: the cursor's own count plus the frames read past
    /// it. Frames before the cursor are taken on the cursor's word; they
    /// were not read.
    pub frame_count: u64,
    /// Whether the end-of-stream marker is present (it is always last).
    pub end_of_stream: bool,
    /// Whether the newest segment ended in a torn record (crash artifact,
    /// discarded).
    pub torn_tail: bool,
    /// How many segment files were read: the cursor's and every later one.
    pub segments: u64,
}

/// Reads the WAL at `dir` from `from` to its end — the cursor's segment
/// from the cursor's offset, then every later segment whole — validating
/// every record it reads. Segments before the cursor's are never opened:
/// what a checkpoint covers it supersedes, so a scan costs the tail, not
/// the log. Whole-log replay is this function from [`WalCursor::START`].
///
/// A torn tail is tolerated only on the *newest* segment — that is the
/// crash signature. A torn record in any sealed (non-final) segment, or
/// any record after the end-of-stream marker, means the log was damaged
/// beyond what a crash can produce and is reported as corruption. So is a
/// cursor the log cannot honour: one past the end of its segment, one
/// whose segment (or any after it) is missing while a later one exists,
/// or one that is not a record boundary of a sealed segment. A cursor at
/// offset 0 of a segment that does not exist yet, with none after it, is
/// where the writer stands after a roll-over: an empty tail.
///
/// # Errors
///
/// [`ResilienceError::Io`] on filesystem failure,
/// [`ResilienceError::Corrupt`] as above. A missing directory is an empty
/// WAL, not an error.
pub fn scan(dir: &Path, from: WalCursor) -> Result<WalScan, ResilienceError> {
    let mut seqs = if dir.exists() {
        segment_seqs(dir)?
    } else {
        Vec::new()
    };
    seqs.retain(|&seq| seq >= from.segment);
    if seqs.is_empty() && from.offset > 0 {
        return Err(ResilienceError::Corrupt(format!(
            "cursor at byte {} of WAL segment {}, which does not exist",
            from.offset, from.segment
        )));
    }
    let mut frames = Vec::new();
    let mut end_of_stream = false;
    let mut torn_tail = false;
    let mut expected = from.segment;
    let mut skip = from.offset;
    for &seq in &seqs {
        if seq != expected {
            return Err(ResilienceError::Corrupt(format!(
                "WAL segment {expected} is missing while segment {seq} exists"
            )));
        }
        expected = seq.saturating_add(1);
        let mut file = fs::File::open(dir.join(segment_name(seq)))?;
        let len = file.metadata()?.len();
        if skip > len {
            return Err(ResilienceError::Corrupt(format!(
                "cursor at byte {skip} of WAL segment {seq}, which holds {len}"
            )));
        }
        file.seek(SeekFrom::Start(skip))?;
        skip = 0;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let decoded = decode_records(&buf);
        if decoded.torn {
            if seqs.last() != Some(&seq) {
                return Err(ResilienceError::Corrupt(format!(
                    "torn record inside sealed WAL segment {seq}"
                )));
            }
            torn_tail = true;
        }
        let segment = Bytes::from(buf);
        for record in decoded.records {
            if end_of_stream {
                return Err(ResilienceError::Corrupt(
                    "WAL record after end-of-stream marker".into(),
                ));
            }
            if record.kind == EOS_RECORD {
                end_of_stream = true;
                continue;
            }
            frames.push(segment.slice(record.payload));
        }
    }
    Ok(WalScan {
        frame_count: from.frames.saturating_add(frames.len() as u64),
        frames,
        end_of_stream,
        torn_tail,
        segments: seqs.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("funnel-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn corrupt(scan: Result<WalScan, ResilienceError>) -> bool {
        matches!(scan, Err(ResilienceError::Corrupt(_)))
    }

    #[test]
    fn a_kind_tag_that_disagrees_with_the_length_ends_the_valid_prefix() {
        // Bit 0 of the tag turns one valid kind into the other, and no hash
        // covers it.
        let frame = encode_record(FRAME_RECORD, &[7u8; 20]);
        let marker = encode_record(EOS_RECORD, &[]);
        for damaged in [&frame, &marker] {
            let mut log = [frame.as_slice(), damaged.as_slice()].concat();
            log[frame.len()] ^= 1;
            let decoded = decode_records(&log);
            assert_eq!(decoded.records.len(), 1);
            assert_eq!((decoded.torn, decoded.valid_len), (true, frame.len()));
        }
    }

    #[test]
    fn append_scan_roundtrip_across_segments() {
        let dir = tmp_dir("roundtrip");
        // Tiny limit: every frame seals a segment.
        let mut wal = WalWriter::open(&dir, 32).unwrap();
        let frames: Vec<Bytes> = (0u8..5).map(|i| Bytes::from(vec![i; 20])).collect();
        // Where the writer stood before each frame, and after the last.
        let mut cursors = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            cursors.push(wal.cursor(i as u64));
            wal.append_frame(f).unwrap();
        }
        cursors.push(wal.cursor(5));
        wal.append_end_of_stream().unwrap();
        assert_eq!(cursors[0], WalCursor::START);
        let all = scan(&dir, WalCursor::START).unwrap();
        assert!(all.end_of_stream);
        assert!(!all.torn_tail);
        assert_eq!(all.segments, 6, "tiny limit must rotate");
        assert_eq!(all.frames, frames);
        assert_eq!(all.frame_count, 5);
        // From a cursor on: the frames past it, and only its segments read.
        for (skip, &cursor) in cursors.iter().enumerate() {
            let tail = scan(&dir, cursor).unwrap();
            assert_eq!(tail.frames, frames[skip..], "{skip}");
            assert_eq!((tail.frame_count, tail.end_of_stream), (5, true));
            assert_eq!(tail.segments, 6 - skip as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_healed_on_reopen() {
        let dir = tmp_dir("torn");
        let mut wal = WalWriter::open(&dir, 1 << 20).unwrap();
        wal.append_frame(&Bytes::from(vec![1u8; 40])).unwrap();
        let after_one = wal.cursor(1);
        wal.append_torn_frame(&Bytes::from(vec![2u8; 40]), 17)
            .unwrap();
        let scan1 = scan(&dir, WalCursor::START).unwrap();
        assert!(scan1.torn_tail);
        assert_eq!(scan1.frames.len(), 1);
        // The tear is a tail from the cursor before it too.
        let tail = scan(&dir, after_one).unwrap();
        assert_eq!(
            (tail.torn_tail, tail.frames.len(), tail.frame_count),
            (true, 0, 1)
        );
        // Reopen heals; the next append lands cleanly after the survivor.
        let mut wal = WalWriter::open(&dir, 1 << 20).unwrap();
        assert_eq!(wal.cursor(1), after_one);
        wal.append_frame(&Bytes::from(vec![3u8; 40])).unwrap();
        let scan2 = scan(&dir, WalCursor::START).unwrap();
        assert!(!scan2.torn_tail);
        assert_eq!(scan2.frames.len(), 2);
        assert_eq!(scan2.frames[1], Bytes::from(vec![3u8; 40]));
        assert_eq!(scan(&dir, after_one).unwrap().frames, scan2.frames[1..]);
        // A `keep` past the record's end writes the whole record.
        wal.append_torn_frame(&Bytes::from(vec![4u8; 40]), usize::MAX)
            .unwrap();
        let scan3 = scan(&dir, WalCursor::START).unwrap();
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
        // The writer's position is the end of what `expected` holds.
        fn position(expected: &[Vec<u8>], frames: u64) -> WalCursor {
            WalCursor {
                frames,
                segment: expected.len() as u64 - 1,
                offset: expected.last().unwrap().len() as u64,
            }
        }

        let mut wal = WalWriter::open(&dir, LIMIT).unwrap();
        for i in 0..12u8 {
            wal.append_frame(&payload(i)).unwrap();
            expect(&mut expected, encode_record(FRAME_RECORD, &payload(i)));
            assert_eq!(
                wal.cursor(u64::from(i) + 1),
                position(&expected, u64::from(i) + 1)
            );
        }
        assert!(expected.len() > 3, "the stream must roll over");
        // A crash mid-append: the torn bytes land after the last whole
        // record of the current segment and are gone after the reopen.
        wal.append_torn_frame(&payload(99), 9).unwrap();
        let torn_at = wal.cursor(12);
        let torn_len = fs::metadata(dir.join(segment_name(torn_at.segment)))
            .unwrap()
            .len();
        assert_eq!(torn_len, torn_at.offset + 9);
        drop(wal);

        let mut wal = WalWriter::open(&dir, LIMIT).unwrap();
        assert_eq!(wal.cursor(12), torn_at);
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
        let scan = scan(&dir, WalCursor::START).unwrap();
        assert!(scan.end_of_stream && !scan.torn_tail);
        assert_eq!(scan.frames.len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    /// After a roll-over the writer stands at `(next, 0)` and no such file
    /// exists yet. A writer reopened there must stand at the same cursor —
    /// continuing the full segment would give the byte a second name, and a
    /// scan from the first would miss what was appended under the second.
    #[test]
    fn a_reopen_after_a_roll_over_starts_the_next_segment() {
        let dir = tmp_dir("canonical");
        // Two 33-byte records fill a segment exactly.
        let frame = |i: u8| Bytes::from(vec![i; 20]);
        let mut wal = WalWriter::open(&dir, 66).unwrap();
        wal.append_frame(&frame(0)).unwrap();
        wal.append_frame(&frame(1)).unwrap();
        let rolled = wal.cursor(2);
        assert_eq!(
            rolled,
            WalCursor {
                frames: 2,
                segment: 1,
                offset: 0
            }
        );
        // Nothing to read there yet: an empty tail, not a missing segment.
        let tail = scan(&dir, rolled).unwrap();
        assert!(tail.frames.is_empty() && !tail.torn_tail);
        assert_eq!((tail.frame_count, tail.segments), (2, 0));
        drop(wal);

        let mut wal = WalWriter::open(&dir, 66).unwrap();
        assert_eq!(wal.cursor(2), rolled);
        wal.append_frame(&frame(2)).unwrap();
        assert_eq!(fs::metadata(dir.join(segment_name(0))).unwrap().len(), 66);
        let tail = scan(&dir, rolled).unwrap();
        assert_eq!(tail.frames, [frame(2)]);
        assert_eq!(tail.frame_count, 3);
        // A tear at the start of a segment heals to the same position.
        wal.append_frame(&frame(3)).unwrap();
        let rolled = wal.cursor(4);
        wal.append_torn_frame(&frame(4), 5).unwrap();
        assert_eq!(WalWriter::open(&dir, 66).unwrap().cursor(4), rolled);
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
        assert!(corrupt(scan(&dir, WalCursor::START)));
        // A cursor past the damaged segment never opens it: those frames
        // are the checkpoint's, and the tail is whole.
        let past = WalCursor {
            frames: 1,
            segment: 1,
            offset: 0,
        };
        let tail = scan(&dir, past).unwrap();
        assert_eq!((tail.frames.len(), tail.frame_count), (2, 3));
        let _ = fs::remove_dir_all(&dir);

        // A record after the end-of-stream marker.
        let dir = tmp_dir("after-eos");
        let mut wal = WalWriter::open(&dir, 1 << 20).unwrap();
        wal.append_frame(&Bytes::from(vec![1u8; 20])).unwrap();
        wal.append_end_of_stream().unwrap();
        wal.append_frame(&Bytes::from(vec![2u8; 20])).unwrap();
        assert!(corrupt(scan(&dir, WalCursor::START)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cursor comes from a manifest whose hash validated, so one the log
    /// cannot honour means the log was damaged, not the cursor.
    #[test]
    fn a_cursor_the_log_cannot_honour_is_corruption() {
        let dir = tmp_dir("cursor");
        let mut wal = WalWriter::open(&dir, 60).unwrap();
        for i in 0u8..6 {
            wal.append_frame(&Bytes::from(vec![i; 20])).unwrap();
        }
        // Three sealed segments of two 33-byte records; segment 3 not begun.
        let at = |frames, segment, offset| WalCursor {
            frames,
            segment,
            offset,
        };
        assert_eq!(scan(&dir, at(3, 1, 33)).unwrap().frames.len(), 3);
        // Not a record boundary of a sealed segment.
        assert!(corrupt(scan(&dir, at(3, 1, 34))));
        // Past the end of its segment, by one byte and by far.
        assert!(corrupt(scan(&dir, at(4, 1, 67))));
        assert!(corrupt(scan(&dir, at(4, 1, u64::MAX))));
        // The end of a sealed segment is the next one's start; read as
        // named, it is still every frame past it.
        assert_eq!(scan(&dir, at(4, 1, 66)).unwrap().frames.len(), 2);
        // Inside a segment that does not exist.
        assert!(corrupt(scan(&dir, at(6, 3, 1))));
        assert!(scan(&dir, at(6, 3, 0)).unwrap().frames.is_empty());
        // Its segment, or one after it, gone while a later one exists.
        fs::remove_file(dir.join(segment_name(1))).unwrap();
        assert!(corrupt(scan(&dir, at(2, 1, 0))));
        assert!(corrupt(scan(&dir, WalCursor::START)));
        assert_eq!(scan(&dir, at(4, 2, 0)).unwrap().frames.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A log written before the records were hashed a word at a step: the
    /// two hashes agree only on payloads shorter than a word, so a frame
    /// record of the old format fails validation and the log is refused,
    /// never replayed wrong. The fixture is the old writer's bytes, frozen.
    #[test]
    fn a_wal_of_the_byte_serial_hash_is_refused() {
        let payload = b"a frame hashed byte by byte";
        let mut old = vec![FRAME_RECORD];
        old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        old.extend_from_slice(&0x13b3_f177_acb1_c471_u64.to_le_bytes());
        old.extend_from_slice(payload);
        assert_ne!(old, encode_record(FRAME_RECORD, payload));
        assert_eq!(old.len(), encode_record(FRAME_RECORD, payload).len());
        assert_eq!(decode_records(&old).valid_len, 0);

        let dir = tmp_dir("old-hash");
        fs::create_dir_all(&dir).unwrap();
        // Sealed: a segment written since follows it.
        fs::write(dir.join(segment_name(0)), &old).unwrap();
        fs::write(dir.join(segment_name(1)), encode_record(EOS_RECORD, &[])).unwrap();
        assert!(corrupt(scan(&dir, WalCursor::START)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_an_empty_wal() {
        let dir = Path::new("/nonexistent/funnel-wal");
        let scan = scan(dir, WalCursor::START).unwrap();
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
