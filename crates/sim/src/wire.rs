//! Compact wire format for agent → collector measurement batches.
//!
//! Each simulated agent serializes its one-minute batch of measurements into
//! a length-prefixed binary frame before sending it to the collector,
//! mirroring the real agents that ship measurements off-box every minute
//! (§2.2). Layout (all little-endian):
//!
//! ```text
//! frame   := u64 minute, u32 agent_id, u32 count, record*
//! record  := u8 entity_tag, u32 entity_id, u8 kpi_tag, f64 value
//! ```
//!
//! `entity_tag`: 0 = server, 1 = instance, 2 = service.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::kpi::{KpiKey, KpiKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use funnel_timeseries::series::MinuteBin;
use funnel_topology::impact::Entity;
use funnel_topology::model::{InstanceId, ServerId, ServiceId};

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

/// Decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the declared record count was read.
    Truncated,
    /// An unknown entity tag was encountered.
    BadEntityTag(u8),
    /// An unknown KPI tag was encountered.
    BadKpiTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire frame"),
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

/// Encodes one frame.
pub fn encode_frame(minute: MinuteBin, agent_id: u32, records: &[WireRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + records.len() * 14);
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
    buf.freeze()
}

/// Reads just the minute header from an encoded frame without decoding
/// the payload — `None` if the buffer is too short to carry one. Used by
/// observers (WAL sealing, timeline attribution) that need the frame's
/// data minute but must not pay a full decode.
pub fn peek_minute(raw: &Bytes) -> Option<MinuteBin> {
    let header: [u8; 8] = raw.as_ref().get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(header))
}

/// Decodes one frame.
///
/// # Errors
///
/// [`WireError`] on truncation or unknown tags.
pub fn decode_frame(mut buf: Bytes) -> Result<WireFrame, WireError> {
    if buf.remaining() < 16 {
        return Err(WireError::Truncated);
    }
    let minute = buf.get_u64_le();
    let agent_id = buf.get_u32_le();
    let count = buf.get_u32_le() as usize;
    // A corrupted count must not drive allocation: cap the reserve by what
    // the remaining bytes could actually hold (14 bytes per record). The
    // loop below still walks the declared count and reports `Truncated`
    // when the bytes run out.
    let mut records = Vec::with_capacity(count.min(buf.remaining() / 14));
    for _ in 0..count {
        if buf.remaining() < 14 {
            return Err(WireError::Truncated);
        }
        let etag = buf.get_u8();
        let id = buf.get_u32_le();
        let ktag = buf.get_u8();
        let value = buf.get_f64_le();
        let entity = entity_from(etag, id)?;
        let kind = KpiKind::from_tag(ktag).ok_or(WireError::BadKpiTag(ktag))?;
        records.push(WireRecord {
            key: KpiKey::new(entity, kind),
            value,
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
    fn peek_minute_reads_header_only() {
        let frame = encode_frame(777, 42, &sample_records());
        assert_eq!(peek_minute(&frame), Some(777));
        let cut = frame.slice(0..5);
        assert_eq!(peek_minute(&cut), None);
        // A frame that will fail full decode still yields its minute.
        let torn = frame.slice(0..10);
        assert_eq!(peek_minute(&torn), Some(777));
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
        assert_eq!(decode_frame(buf.freeze()), Err(WireError::BadEntityTag(9)));

        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_u8(0);
        buf.put_u32_le(0);
        buf.put_u8(99); // bad kpi tag
        buf.put_f64_le(0.0);
        assert_eq!(decode_frame(buf.freeze()), Err(WireError::BadKpiTag(99)));
    }
}
