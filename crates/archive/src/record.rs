//! On-flash record formats.
//!
//! Three record kinds cover the paper's archival needs:
//!
//! * **Scalar** — a raw sensor reading ("complete local archive of past
//!   data").
//! * **Event** — a semantic event blob ("signatures of detected vehicles
//!   would constitute useful sensor data that is archived locally").
//! * **Summary** — a wavelet-aged replacement for a reclaimed segment.
//!
//! Wire layout: `kind:u8 · ts_micros:u64 LE · len:u16 LE · payload`.

use presto_sim::SimTime;
use presto_wavelet::AgedSummary;

/// Data quality tag attached to query results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quality {
    /// Reconstructed from a raw record.
    Exact,
    /// Reconstructed from an aged summary at the given ladder level.
    Aged(u8),
}

impl Quality {
    /// The reconstruction error bound of a row of this quality: a raw
    /// record is exact; an aged summary at ladder level `l` carries the
    /// quantizer bound widened by the level's time-smoothing (each rung
    /// halves the resolution, so the bound doubles per level):
    /// `QUANT_STEP · 2^l`.
    pub fn error_bound(self) -> f64 {
        match self {
            Quality::Exact => 0.0,
            Quality::Aged(level) => crate::store::QUANT_STEP * (1u64 << level.min(32)) as f64,
        }
    }
}

/// Payload of an archive record.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordPayload {
    /// A scalar reading.
    Scalar(f64),
    /// An opaque semantic event (type id + application bytes).
    Event {
        /// Application-defined event type.
        event_type: u16,
        /// Application payload (e.g. a detection signature).
        data: Vec<u8>,
    },
    /// An aged summary covering `[start, end]` with `count` original
    /// samples.
    Summary {
        /// Aging ladder level.
        level: u8,
        /// First covered timestamp.
        start: SimTime,
        /// Last covered timestamp.
        end: SimTime,
        /// Number of original samples covered.
        count: u32,
        /// Serialized summary payload.
        bytes: Vec<u8>,
    },
}

/// A timestamped archive record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Acquisition (or summarization) time.
    pub timestamp: SimTime,
    /// The payload.
    pub payload: RecordPayload,
}

impl Record {
    /// A scalar reading record.
    pub fn scalar(t: SimTime, value: f64) -> Self {
        Record {
            timestamp: t,
            payload: RecordPayload::Scalar(value),
        }
    }

    /// A semantic event record.
    pub fn event(t: SimTime, event_type: u16, data: Vec<u8>) -> Self {
        Record {
            timestamp: t,
            payload: RecordPayload::Event { event_type, data },
        }
    }

    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, body): (u8, Vec<u8>) = match &self.payload {
            RecordPayload::Scalar(v) => (0, (*v as f32).to_le_bytes().to_vec()),
            RecordPayload::Event { event_type, data } => {
                let mut b = Vec::with_capacity(2 + data.len());
                b.extend_from_slice(&event_type.to_le_bytes());
                b.extend_from_slice(data);
                (1, b)
            }
            RecordPayload::Summary {
                level,
                start,
                end,
                count,
                bytes,
            } => {
                let mut b = Vec::with_capacity(21 + bytes.len());
                b.push(*level);
                b.extend_from_slice(&start.as_micros().to_le_bytes());
                b.extend_from_slice(&end.as_micros().to_le_bytes());
                b.extend_from_slice(&count.to_le_bytes());
                b.extend_from_slice(bytes);
                (2, b)
            }
        };
        let mut out = Vec::with_capacity(11 + body.len());
        out.push(kind);
        out.extend_from_slice(&self.timestamp.as_micros().to_le_bytes());
        out.extend_from_slice(&(body.len() as u16).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// The closed time span `[start, end]` this record can contribute
    /// query results for. Scalars and events cover their own timestamp;
    /// summaries cover the whole range they were folded from, which can
    /// reach far before the record's own (summarization-time) timestamp.
    /// The per-page time directory and the segment index are built from
    /// this span, so range queries never skip a page holding a summary
    /// of the requested era.
    pub fn covered_span(&self) -> (SimTime, SimTime) {
        match &self.payload {
            RecordPayload::Summary { start, end, .. } => {
                (self.timestamp.min(*start), self.timestamp.max(*end))
            }
            _ => (self.timestamp, self.timestamp),
        }
    }

    /// Encoded length without building the buffer.
    pub fn encoded_len(&self) -> usize {
        11 + match &self.payload {
            RecordPayload::Scalar(_) => 4,
            RecordPayload::Event { data, .. } => 2 + data.len(),
            RecordPayload::Summary { bytes, .. } => 21 + bytes.len(),
        }
    }

    /// Decodes one record from the front of `bytes`, returning it and the
    /// bytes consumed. `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<(Record, usize)> {
        if bytes.len() < 11 {
            return None;
        }
        let kind = bytes[0];
        let ts = u64::from_le_bytes(bytes[1..9].try_into().ok()?);
        let len = u16::from_le_bytes([bytes[9], bytes[10]]) as usize;
        if bytes.len() < 11 + len {
            return None;
        }
        let body = &bytes[11..11 + len];
        let payload = match kind {
            0 => {
                if len != 4 {
                    return None;
                }
                RecordPayload::Scalar(f32::from_le_bytes(body.try_into().ok()?) as f64)
            }
            1 => {
                if len < 2 {
                    return None;
                }
                RecordPayload::Event {
                    event_type: u16::from_le_bytes([body[0], body[1]]),
                    data: body[2..].to_vec(),
                }
            }
            2 => {
                if len < 21 {
                    return None;
                }
                RecordPayload::Summary {
                    level: body[0],
                    start: SimTime::from_micros(u64::from_le_bytes(body[1..9].try_into().ok()?)),
                    end: SimTime::from_micros(u64::from_le_bytes(body[9..17].try_into().ok()?)),
                    count: u32::from_le_bytes(body[17..21].try_into().ok()?),
                    bytes: body[21..].to_vec(),
                }
            }
            _ => return None,
        };
        Some((
            Record {
                timestamp: SimTime::from_micros(ts),
                payload,
            },
            11 + len,
        ))
    }
}

/// Builds a summary record from an [`AgedSummary`] produced by the aging
/// ladder. The summary's serialized form embeds its own quantizer step.
pub fn summary_record(
    t_now: SimTime,
    level: u8,
    start: SimTime,
    end: SimTime,
    count: u32,
    summary: &AgedSummary,
) -> Record {
    // Serialize: original_len:u32 · quant_step:f32 · level:u8 · packed.
    // AgedSummary exposes reconstruct(); to persist it we re-encode the
    // reconstruction compactly through the codec at matching tolerance.
    // Cheaper: store reconstructed values quantized — but that forfeits
    // the ladder. Instead store the reconstruction at the summary's
    // resolution: one value per 2^level original samples.
    let recon = summary.reconstruct();
    let stride = 1usize << summary.level;
    let decimated: Vec<f32> = recon
        .iter()
        .step_by(stride.max(1))
        .map(|&v| v as f32)
        .collect();
    let mut bytes = Vec::with_capacity(4 + decimated.len() * 4);
    bytes.extend_from_slice(&(decimated.len() as u32).to_le_bytes());
    for v in decimated {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    Record {
        timestamp: t_now,
        payload: RecordPayload::Summary {
            level,
            start,
            end,
            count,
            bytes,
        },
    }
}

/// Decodes the decimated values stored by [`summary_record`].
pub fn summary_values(bytes: &[u8]) -> Option<Vec<f64>> {
    if bytes.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    if bytes.len() != 4 + n * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let off = 4 + k * 4;
        out.push(f32::from_le_bytes(bytes[off..off + 4].try_into().ok()?) as f64);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let r = Record::scalar(SimTime::from_secs(1234), 21.5);
        let bytes = r.encode();
        assert_eq!(bytes.len(), r.encoded_len());
        let (back, used) = Record::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back.timestamp, r.timestamp);
        match back.payload {
            RecordPayload::Scalar(v) => assert!((v - 21.5).abs() < 1e-6),
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn event_roundtrip() {
        let r = Record::event(SimTime::from_mins(9), 7, vec![1, 2, 3, 4]);
        let (back, _) = Record::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn summary_roundtrip() {
        let r = Record {
            timestamp: SimTime::from_hours(3),
            payload: RecordPayload::Summary {
                level: 2,
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(500),
                count: 64,
                bytes: vec![9, 9, 9],
            },
        };
        let (back, _) = Record::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Record::decode(&[]).is_none());
        assert!(Record::decode(&[0; 10]).is_none());
        // Kind 0 with wrong body length.
        let mut bad = Record::scalar(SimTime::ZERO, 1.0).encode();
        bad[9] = 3; // corrupt length
        assert!(Record::decode(&bad).is_none());
        // Unknown kind.
        let mut unk = Record::scalar(SimTime::ZERO, 1.0).encode();
        unk[0] = 77;
        assert!(Record::decode(&unk).is_none());
    }

    #[test]
    fn consecutive_records_decode_in_sequence() {
        let a = Record::scalar(SimTime::from_secs(1), 1.0);
        let b = Record::event(SimTime::from_secs(2), 3, vec![5]);
        let mut buf = a.encode();
        buf.extend(b.encode());
        let (da, used) = Record::decode(&buf).unwrap();
        let (db, _) = Record::decode(&buf[used..]).unwrap();
        assert_eq!(da.timestamp, a.timestamp);
        assert_eq!(db, b);
    }

    #[test]
    fn summary_record_decimates_by_level() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ladder = presto_wavelet::AgingLadder::new(0.01);
        let s = ladder.summarize(&xs, 3);
        let rec = summary_record(
            SimTime::from_hours(1),
            3,
            SimTime::ZERO,
            SimTime::from_secs(63),
            64,
            &s,
        );
        match &rec.payload {
            RecordPayload::Summary { bytes, .. } => {
                let vals = summary_values(bytes).unwrap();
                assert_eq!(vals.len(), 8); // 64 / 2^3
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn summary_values_rejects_malformed() {
        assert!(summary_values(&[]).is_none());
        assert!(summary_values(&[2, 0, 0, 0, 1, 2]).is_none());
    }

    proptest! {
        #[test]
        fn roundtrip_any_event(
            ts in 0u64..u64::MAX / 2,
            ty in 0u16..u16::MAX,
            data in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let r = Record::event(SimTime::from_micros(ts), ty, data);
            let (back, used) = Record::decode(&r.encode()).unwrap();
            prop_assert_eq!(used, r.encoded_len());
            prop_assert_eq!(back, r);
        }
    }
}
