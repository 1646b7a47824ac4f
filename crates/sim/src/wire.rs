//! Compact wire format for agent → collector measurement batches.
//!
//! Each simulated agent serializes its one-minute batch of measurements into
//! a length-prefixed binary frame before sending it to the collector,
//! mirroring the real agents that ship measurements off-box every minute
//! (§2.2). Layout (all little-endian):
//!
//! ```text
//! frame   := u64 minute, u32 agent_id, u32 count, record*, u64 checksum
//! record  := u8 entity_tag, u32 entity_id, u8 kpi_tag, f64 value
//! ```
//!
//! `entity_tag`: 0 = server, 1 = instance, 2 = service. `checksum` is
//! [`fnv1a_words`] of every byte before it, and [`decode_frame`] checks it
//! (and that the length is exactly what `count` declares) before it parses
//! anything: a frame damaged in flight is refused whole, so it cannot write
//! a wrong value, or a key its agent does not own, into the store.

use crate::fnv1a_words;
use crate::kpi::{KpiKey, KpiKind};
use bytes::{BufMut, Bytes, BytesMut};
use funnel_timeseries::series::MinuteBin;
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};
use std::cmp::Ordering;

/// One decoded measurement record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRecord {
    /// Which KPI.
    pub key: KpiKey,
    /// The measured value.
    pub value: f64,
}

/// A decoded frame: one agent's batch for one minute.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// The minute the batch covers.
    pub minute: MinuteBin,
    /// The sending agent (collectors track per-agent watermarks with it).
    pub agent_id: u32,
    /// The measurements.
    pub records: Vec<WireRecord>,
}

/// Bytes of the `minute, agent_id, count` header.
const HEADER_LEN: usize = 16;
/// Bytes of one record.
const RECORD_LEN: usize = 14;
/// Bytes of the checksum trailer.
const TRAILER_LEN: usize = 8;

/// Decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame is shorter than its header, its declared records and the
    /// checksum need.
    Truncated,
    /// The frame is longer than its header, its declared records and the
    /// checksum need.
    TrailingBytes,
    /// The checksum trailer does not match the bytes before it.
    BadChecksum,
    /// An unknown entity tag was encountered.
    BadEntityTag(u8),
    /// An unknown KPI tag was encountered.
    BadKpiTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire frame"),
            WireError::TrailingBytes => write!(f, "trailing bytes after a wire frame"),
            WireError::BadChecksum => write!(f, "wire frame checksum mismatch"),
            WireError::BadEntityTag(t) => write!(f, "unknown entity tag {t}"),
            WireError::BadKpiTag(t) => write!(f, "unknown KPI tag {t}"),
        }
    }
}

impl std::error::Error for WireError {}

fn entity_tag(e: Entity) -> (u8, u32) {
    match e {
        Entity::Server(s) => (0, s.0),
        Entity::Instance(i) => (1, i.0),
        Entity::Service(s) => (2, s.0),
    }
}

fn entity_from(tag: u8, id: u32) -> Result<Entity, WireError> {
    Ok(match tag {
        0 => Entity::Server(ServerId(id)),
        1 => Entity::Instance(InstanceId(id)),
        2 => Entity::Service(ServiceId(id)),
        t => return Err(WireError::BadEntityTag(t)),
    })
}

/// Encodes one KPI key into the wire format's 6-byte record-key layout
/// (`u8 entity_tag, u32 entity_id, u8 kpi_tag`). Checkpoint files reuse this
/// layout so a key serializes identically on the wire and on disk.
pub fn key_to_bytes(key: KpiKey) -> [u8; 6] {
    let (tag, id) = entity_tag(key.entity);
    let id = id.to_le_bytes();
    [tag, id[0], id[1], id[2], id[3], key.kind.tag()]
}

/// Packs the six [`key_to_bytes`] bytes little-endian into the low 48 bits
/// — the key's contribution to every seeded per-key draw. Index-free, so it
/// cannot panic on the assessment hot path.
pub fn key_hash(key: KpiKey) -> u64 {
    key_to_bytes(key)
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << (8 * i)))
}

/// Decodes a 6-byte record key written by [`key_to_bytes`].
///
/// # Errors
///
/// [`WireError`] on unknown entity or KPI tags.
pub fn key_from_bytes(bytes: [u8; 6]) -> Result<KpiKey, WireError> {
    let entity = entity_from(
        bytes[0],
        u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
    )?;
    let kind = KpiKind::from_tag(bytes[5]).ok_or(WireError::BadKpiTag(bytes[5]))?;
    Ok(KpiKey::new(entity, kind))
}

/// Encodes one frame, checksum trailer included.
pub fn encode_frame(minute: MinuteBin, agent_id: u32, records: &[WireRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + records.len() * RECORD_LEN + TRAILER_LEN);
    buf.put_u64_le(minute);
    buf.put_u32_le(agent_id);
    buf.put_u32_le(records.len() as u32);
    for r in records {
        let (tag, id) = entity_tag(r.key.entity);
        buf.put_u8(tag);
        buf.put_u32_le(id);
        buf.put_u8(r.key.kind.tag());
        buf.put_f64_le(r.value);
    }
    let checksum = fnv1a_words(buf.as_ref());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// The `minute, agent_id, count` header, if `raw` is long enough to hold it.
fn header(raw: &[u8]) -> Option<(MinuteBin, u32, u32)> {
    let (minute, rest) = raw.split_first_chunk::<8>()?;
    let (agent_id, rest) = rest.split_first_chunk::<4>()?;
    let (count, _) = rest.split_first_chunk::<4>()?;
    Some((
        u64::from_le_bytes(*minute),
        u32::from_le_bytes(*agent_id),
        u32::from_le_bytes(*count),
    ))
}

/// Decodes one frame. The length the header declares and the checksum are
/// checked before any record is parsed, so a frame that decodes is the
/// frame that was encoded.
///
/// # Errors
///
/// [`WireError`] on a length that does not match the declared count, a
/// checksum mismatch, or unknown tags.
pub fn decode_frame(raw: Bytes) -> Result<WireFrame, WireError> {
    let raw: &[u8] = &raw;
    let (minute, agent_id, count) = header(raw).ok_or(WireError::Truncated)?;
    // A corrupted count is refused here, before it can drive allocation.
    let frame_len = (count as usize)
        .saturating_mul(RECORD_LEN)
        .saturating_add(HEADER_LEN + TRAILER_LEN);
    match raw.len().cmp(&frame_len) {
        Ordering::Less => return Err(WireError::Truncated),
        Ordering::Greater => return Err(WireError::TrailingBytes),
        Ordering::Equal => {}
    }
    let (body, checksum) = raw
        .split_last_chunk::<TRAILER_LEN>()
        .ok_or(WireError::Truncated)?;
    if fnv1a_words(body) != u64::from_le_bytes(*checksum) {
        return Err(WireError::BadChecksum);
    }
    let (chunks, _) = body
        .get(HEADER_LEN..)
        .unwrap_or_default()
        .as_chunks::<RECORD_LEN>();
    let mut records = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let [etag, i0, i1, i2, i3, ktag, value @ ..] = *chunk;
        let entity = entity_from(etag, u32::from_le_bytes([i0, i1, i2, i3]))?;
        let kind = KpiKind::from_tag(ktag).ok_or(WireError::BadKpiTag(ktag))?;
        records.push(WireRecord {
            key: KpiKey::new(entity, kind),
            value: f64::from_le_bytes(value),
        });
    }
    Ok(WireFrame {
        minute,
        agent_id,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WireRecord> {
        vec![
            WireRecord {
                key: KpiKey::new(Entity::Server(ServerId(3)), KpiKind::CpuUtilization),
                value: 47.25,
            },
            WireRecord {
                key: KpiKey::new(Entity::Instance(InstanceId(12)), KpiKind::PageViewCount),
                value: 1234.0,
            },
            WireRecord {
                key: KpiKey::new(Entity::Service(ServiceId(2)), KpiKind::AccessFailureCount),
                value: 0.0,
            },
        ]
    }

    #[test]
    fn key_bytes_roundtrip() {
        for r in sample_records() {
            let bytes = key_to_bytes(r.key);
            assert_eq!(key_from_bytes(bytes), Ok(r.key));
        }
        assert_eq!(
            key_from_bytes([7, 0, 0, 0, 0, 0]),
            Err(WireError::BadEntityTag(7))
        );
        assert_eq!(
            key_from_bytes([0, 0, 0, 0, 0, 200]),
            Err(WireError::BadKpiTag(200))
        );
    }

    #[test]
    fn roundtrip() {
        let recs = sample_records();
        let frame = encode_frame(777, 42, &recs);
        let decoded = decode_frame(frame).unwrap();
        assert_eq!(decoded.minute, 777);
        assert_eq!(decoded.agent_id, 42);
        assert_eq!(decoded.records, recs);
    }

    #[test]
    fn empty_frame_roundtrips() {
        let frame = encode_frame(1, 0, &[]);
        let d = decode_frame(frame).unwrap();
        assert_eq!(d.minute, 1);
        assert!(d.records.is_empty());
    }

    #[test]
    fn truncated_header_rejected() {
        let frame = encode_frame(777, 0, &sample_records());
        let cut = frame.slice(0..10);
        assert_eq!(decode_frame(cut), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_record_rejected() {
        let frame = encode_frame(777, 0, &sample_records());
        let cut = frame.slice(0..frame.len() - 3);
        assert_eq!(decode_frame(cut), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_count_is_truncation_not_allocation() {
        // A frame whose count field claims u32::MAX records must fail fast
        // with `Truncated` (and must not reserve gigabytes first).
        let mut buf = BytesMut::new();
        buf.put_u64_le(5);
        buf.put_u32_le(0);
        buf.put_u32_le(u32::MAX);
        buf.put_u8(0);
        buf.put_u32_le(1);
        buf.put_u8(0);
        buf.put_f64_le(1.0);
        assert_eq!(decode_frame(buf.freeze()), Err(WireError::Truncated));
    }

    /// `buf` with the checksum trailer [`encode_frame`] would append.
    fn sealed(mut buf: BytesMut) -> Bytes {
        let checksum = fnv1a_words(buf.as_ref());
        buf.put_u64_le(checksum);
        buf.freeze()
    }

    #[test]
    fn checksum_and_length_are_checked_before_parsing() {
        let frame = encode_frame(777, 3, &sample_records());
        let mut flipped = frame.to_vec();
        flipped[20] ^= 0x01;
        assert_eq!(
            decode_frame(Bytes::from(flipped)),
            Err(WireError::BadChecksum)
        );
        let mut longer = frame.to_vec();
        longer.push(0);
        assert_eq!(
            decode_frame(Bytes::from(longer)),
            Err(WireError::TrailingBytes)
        );
        // A hand-built frame sealed the same way decodes.
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        assert_eq!(decode_frame(sealed(buf)).map(|f| f.records.len()), Ok(0));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_u8(9); // bad entity tag
        buf.put_u32_le(0);
        buf.put_u8(0);
        buf.put_f64_le(0.0);
        assert_eq!(decode_frame(sealed(buf)), Err(WireError::BadEntityTag(9)));

        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_u8(0);
        buf.put_u32_le(0);
        buf.put_u8(99); // bad kpi tag
        buf.put_f64_le(0.0);
        assert_eq!(decode_frame(sealed(buf)), Err(WireError::BadKpiTag(99)));
    }
}
