//! Compact binary (de)serialisation of segment datasets.
//!
//! The experiment harness regenerates circuits from seeds, but a
//! downstream user indexing *their own* reconstruction needs a way to get
//! segment soups in and out of the library without a heavyweight
//! dependency. The format is deliberately trivial: a magic header, a
//! count, then fixed-width little-endian records — 64 bytes per segment,
//! the sizing assumed by the page model (`neurospatial-storage`'s 8 KiB
//! pages at 128 objects).

use crate::object::NeuronSegment;
use neurospatial_geom::{Segment, Vec3};

/// File magic: "NSPZ" + format version 1.
const MAGIC: [u8; 4] = *b"NSPZ";
const VERSION: u32 = 1;

/// Size of one serialised segment record in bytes.
pub const RECORD_BYTES: usize = 8 + 4 + 4 + 4 + 4 + 7 * 8; // id, neuron, section, idx, pad, geometry

/// Errors arising while decoding a segment dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Header missing or wrong magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Payload length does not match the declared record count.
    Truncated { expected: usize, got: usize },
    /// A record contained non-finite geometry.
    CorruptRecord(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a neurospatial segment file"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated { expected, got } => {
                write!(f, "truncated payload: expected {expected} bytes, got {got}")
            }
            DecodeError::CorruptRecord(i) => write!(f, "record {i} has non-finite geometry"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append `s` as one record of [`RECORD_BYTES`] bytes: id, neuron,
/// section, index on section, a reserved `u32`, then the seven geometry
/// `f64`s (`p0`, `p1`, radius), all little-endian.
#[inline]
pub fn encode_record(s: &NeuronSegment, out: &mut Vec<u8>) {
    out.extend_from_slice(&s.id.to_le_bytes());
    out.extend_from_slice(&s.neuron.to_le_bytes());
    out.extend_from_slice(&s.section.to_le_bytes());
    out.extend_from_slice(&s.index_on_section.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // padding/reserved
    let g = &s.geom;
    for v in [g.p0.x, g.p0.y, g.p0.z, g.p1.x, g.p1.y, g.p1.z, g.radius] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode one record written by [`encode_record`]; `None` when its
/// geometry is not finite.
#[inline]
pub fn decode_record(r: &[u8; RECORD_BYTES]) -> Option<NeuronSegment> {
    let u32_at = |at: usize| u32::from_le_bytes(r[at..at + 4].try_into().expect("4 bytes"));
    let f64_at = |k: usize| {
        let at = 24 + 8 * k;
        f64::from_le_bytes(r[at..at + 8].try_into().expect("8 bytes"))
    };
    let geom = Segment {
        p0: Vec3::new(f64_at(0), f64_at(1), f64_at(2)),
        p1: Vec3::new(f64_at(3), f64_at(4), f64_at(5)),
        radius: f64_at(6),
    };
    geom.is_valid().then(|| NeuronSegment {
        id: u64::from_le_bytes(r[0..8].try_into().expect("8 bytes")),
        neuron: u32_at(8),
        section: u32_at(12),
        index_on_section: u32_at(16),
        geom,
    })
}

/// Serialise segments to the binary format.
pub fn encode_segments(segments: &[NeuronSegment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + segments.len() * RECORD_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(segments.len() as u64).to_le_bytes());
    for s in segments {
        encode_record(s, &mut out);
    }
    out
}

/// Decode a segment dataset produced by [`encode_segments`].
pub fn decode_segments(bytes: &[u8]) -> Result<Vec<NeuronSegment>, DecodeError> {
    if bytes.len() < 16 || bytes[0..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    // Checked arithmetic: a corrupted header can declare astronomical
    // counts; the expected size must not overflow (caught by the
    // failure-mode test suite).
    let expected = count
        .checked_mul(RECORD_BYTES)
        .and_then(|n| n.checked_add(16))
        .ok_or(DecodeError::Truncated { expected: usize::MAX, got: bytes.len() })?;
    if bytes.len() != expected {
        return Err(DecodeError::Truncated { expected, got: bytes.len() });
    }
    let (records, _) = bytes[16..].as_chunks::<RECORD_BYTES>();
    records
        .iter()
        .enumerate()
        .map(|(i, r)| decode_record(r).ok_or(DecodeError::CorruptRecord(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    #[test]
    fn roundtrip_is_lossless() {
        let c = CircuitBuilder::new(9).neurons(4).build();
        let bytes = encode_segments(c.segments());
        assert_eq!(bytes.len(), 16 + c.segments().len() * RECORD_BYTES);
        let back = decode_segments(&bytes).expect("decode");
        assert_eq!(back.len(), c.segments().len());
        for (a, b) in back.iter().zip(c.segments()) {
            assert_eq!(a, b, "bit-exact roundtrip");
        }
    }

    #[test]
    fn empty_dataset() {
        let bytes = encode_segments(&[]);
        assert_eq!(decode_segments(&bytes).expect("decode"), Vec::new());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode_segments(b"hello"), Err(DecodeError::BadMagic));
        assert_eq!(decode_segments(&[]), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_wrong_version() {
        let c = CircuitBuilder::new(1).neurons(1).build();
        let mut bytes = encode_segments(c.segments());
        bytes[4] = 99;
        assert_eq!(decode_segments(&bytes), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_and_padding() {
        let c = CircuitBuilder::new(1).neurons(1).build();
        let bytes = encode_segments(c.segments());
        assert!(matches!(
            decode_segments(&bytes[..bytes.len() - 3]),
            Err(DecodeError::Truncated { .. })
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(decode_segments(&padded), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn rejects_corrupt_geometry() {
        let c = CircuitBuilder::new(1).neurons(1).build();
        let mut bytes = encode_segments(&c.segments()[..2]);
        // Overwrite the first record's radius with NaN.
        let radius_off = 16 + RECORD_BYTES - 8;
        bytes[radius_off..radius_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_segments(&bytes), Err(DecodeError::CorruptRecord(0)));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(DecodeError::BadMagic.to_string().contains("not a neurospatial"));
        assert!(DecodeError::Truncated { expected: 10, got: 5 }.to_string().contains("10"));
        assert!(DecodeError::CorruptRecord(3).to_string().contains("3"));
    }
}
