//! The on-disk block frame: length-framed, CRC-checksummed records.
//!
//! Every byte the durable layer persists goes through one frame shape:
//!
//! ```text
//! ┌─────────┬──────────────┬──────────────┬─────────────────┐
//! │ tag: u8 │ len: u32 LE  │ crc32: u32 LE│ payload (len B) │
//! └─────────┴──────────────┴──────────────┴─────────────────┘
//! ```
//!
//! The CRC (IEEE 802.3 polynomial, the `cksum`/zlib one) covers the tag,
//! the length field and the payload, so a frame self-validates: a torn
//! tail — a partial header, a payload cut short by a crash, or bytes
//! scribbled by a failing device — fails the checksum and the decoder
//! stops at the last byte of the preceding valid frame. [`decode_frames`]
//! therefore never panics and never yields a wrong payload on *any*
//! input, a property pinned by proptest below (arbitrary payloads,
//! arbitrary truncation).
//!
//! Three tags exist (see [`FrameTag`]): `Record` carries one cell,
//! `Reset` marks "the tape was cleared for overwrite", and `Commit`
//! marks an atomic recovery point — the write-ahead journal's unit of
//! durability (see [`crate::durable::wal`]).

use st_core::StError;

/// Fixed header size: tag (1) + length (4) + crc (4).
pub const HEADER_LEN: usize = 9;

/// Frame kind, the first byte on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTag {
    /// One journaled cell (the payload is the cell's encoding).
    Record,
    /// An atomic recovery point; the payload is caller metadata (e.g.
    /// the merge pass a checkpoint belongs to).
    Commit,
    /// The tape was cleared; pending records before this frame are
    /// dropped from the reconstruction.
    Reset,
}

impl FrameTag {
    /// Stable wire byte.
    #[must_use]
    pub fn as_byte(self) -> u8 {
        match self {
            FrameTag::Record => 1,
            FrameTag::Commit => 2,
            FrameTag::Reset => 3,
        }
    }

    /// Inverse of [`FrameTag::as_byte`].
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameTag::Record,
            2 => FrameTag::Commit,
            3 => FrameTag::Reset,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame kind.
    pub tag: FrameTag,
    /// The payload bytes (empty for `Reset`, metadata for `Commit`).
    pub payload: Vec<u8>,
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table and
/// `CRC_TABLES[k][b]` advances `CRC_TABLES[k − 1][b]` over one more
/// zero byte, so eight table reads fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut i = 0;
        while i < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            i += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) over `bytes`, slicing-by-8 with compile-time tables —
/// no dependency. It guards every journal frame and every MPC net
/// frame, so it runs over each byte the exchange and the WAL move.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xff) as usize;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// Append one frame to `out`. Payloads longer than `u32::MAX` are a
/// caller bug (cells are small); this returns an error rather than
/// silently truncating.
pub fn encode_frame(tag: FrameTag, payload: &[u8], out: &mut Vec<u8>) -> Result<(), StError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| StError::Machine("frame payload exceeds u32::MAX bytes".into()))?;
    let start = out.len();
    out.push(tag.as_byte());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(payload);
    // CRC over tag + len + payload (skipping the placeholder itself).
    let mut hasher_input = Vec::with_capacity(5 + payload.len());
    hasher_input.extend_from_slice(&out[start..start + 5]);
    hasher_input.extend_from_slice(payload);
    let crc = crc32(&hasher_input);
    out[start + 5..start + 9].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Decode the longest valid frame prefix of `buf`.
///
/// Returns the decoded frames plus the byte length of that valid prefix;
/// everything after it (a torn frame, garbage, or nothing) is the
/// caller's to discard. Total on arbitrary input: an unknown tag, an
/// absurd length, a short payload, or a CRC mismatch all simply end the
/// prefix — no panic, no partial frame.
#[must_use]
pub fn decode_frames(buf: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= HEADER_LEN {
        let Some(tag) = FrameTag::from_byte(buf[pos]) else {
            break;
        };
        let len_bytes: [u8; 4] = buf[pos + 1..pos + 5].try_into().expect("4-byte slice");
        let len = u32::from_le_bytes(len_bytes) as usize;
        let crc_bytes: [u8; 4] = buf[pos + 5..pos + 9].try_into().expect("4-byte slice");
        let stored_crc = u32::from_le_bytes(crc_bytes);
        let Some(end) = pos.checked_add(HEADER_LEN).and_then(|p| p.checked_add(len)) else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let payload = &buf[pos + HEADER_LEN..end];
        let mut hasher_input = Vec::with_capacity(5 + len);
        hasher_input.extend_from_slice(&buf[pos..pos + 5]);
        hasher_input.extend_from_slice(payload);
        if crc32(&hasher_input) != stored_crc {
            break;
        }
        frames.push(Frame {
            tag,
            payload: payload.to_vec(),
        });
        pos = end;
    }
    (frames, pos)
}

/// How a cell type serializes into a journal record payload.
///
/// Implementations must round-trip (`decode(encode(x)) == x`) and reject
/// payloads of the wrong shape with an error — a truncated or corrupted
/// record that slipped past the CRC must never decode into a *different*
/// valid cell silently.
pub trait DurableRecord: Sized {
    /// Append this cell's encoding to `out`.
    fn encode_record(&self, out: &mut Vec<u8>);
    /// Parse one cell from exactly `bytes`.
    fn decode_record(bytes: &[u8]) -> Result<Self, StError>;
}

macro_rules! impl_durable_int {
    ($($t:ty),*) => {$(
        impl DurableRecord for $t {
            fn encode_record(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_record(bytes: &[u8]) -> Result<Self, StError> {
                let arr: [u8; std::mem::size_of::<$t>()] = bytes.try_into().map_err(|_| {
                    StError::Machine(format!(
                        "durable record: expected {} byte(s) for {}, got {}",
                        std::mem::size_of::<$t>(),
                        stringify!($t),
                        bytes.len()
                    ))
                })?;
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    )*};
}
impl_durable_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl DurableRecord for String {
    fn encode_record(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_record(bytes: &[u8]) -> Result<Self, StError> {
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StError::Machine(format!("durable record: invalid UTF-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_in_sequence() {
        let mut buf = Vec::new();
        encode_frame(FrameTag::Reset, &[], &mut buf).unwrap();
        encode_frame(FrameTag::Record, &[1, 2, 3], &mut buf).unwrap();
        encode_frame(FrameTag::Commit, b"pass=1", &mut buf).unwrap();
        let (frames, used) = decode_frames(&buf);
        assert_eq!(used, buf.len());
        assert_eq!(
            frames,
            vec![
                Frame {
                    tag: FrameTag::Reset,
                    payload: vec![]
                },
                Frame {
                    tag: FrameTag::Record,
                    payload: vec![1, 2, 3]
                },
                Frame {
                    tag: FrameTag::Commit,
                    payload: b"pass=1".to_vec()
                },
            ]
        );
    }

    #[test]
    fn truncation_rolls_back_to_the_last_whole_frame() {
        let mut buf = Vec::new();
        encode_frame(FrameTag::Record, &[9; 10], &mut buf).unwrap();
        let one = buf.len();
        encode_frame(FrameTag::Record, &[7; 10], &mut buf).unwrap();
        for cut in 0..buf.len() {
            let (frames, used) = decode_frames(&buf[..cut]);
            let expect = if cut >= one { 1 } else { 0 };
            assert_eq!(frames.len(), expect, "cut at {cut}");
            assert_eq!(used, expect * one, "cut at {cut}");
        }
    }

    #[test]
    fn corruption_anywhere_stops_the_prefix_before_the_bad_frame() {
        let mut clean = Vec::new();
        encode_frame(FrameTag::Record, &[1, 2, 3, 4], &mut clean).unwrap();
        encode_frame(FrameTag::Record, &[5, 6, 7, 8], &mut clean).unwrap();
        let one = clean.len() / 2;
        for i in 0..clean.len() {
            let mut buf = clean.clone();
            buf[i] ^= 0x40;
            let (frames, used) = decode_frames(&buf);
            // The flip lands in frame 0 or frame 1; the clean prefix is
            // everything before the damaged frame.
            if i < one {
                assert!(frames.is_empty(), "flip at {i}");
                assert_eq!(used, 0);
            } else {
                assert_eq!(frames.len(), 1, "flip at {i}");
                assert_eq!(frames[0].payload, vec![1, 2, 3, 4]);
                assert_eq!(used, one);
            }
        }
    }

    #[test]
    fn unknown_tag_and_absurd_length_end_the_prefix() {
        let (frames, used) = decode_frames(&[0xff; 64]);
        assert!(frames.is_empty());
        assert_eq!(used, 0);
        let mut buf = vec![FrameTag::Record.as_byte()];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 100]);
        let (frames, used) = decode_frames(&buf);
        assert!(frames.is_empty());
        assert_eq!(used, 0);
    }

    #[test]
    fn int_records_round_trip_and_reject_wrong_widths() {
        for v in [0i64, -1, i64::MAX, i64::MIN, 42] {
            let mut buf = Vec::new();
            v.encode_record(&mut buf);
            assert_eq!(i64::decode_record(&buf).unwrap(), v);
        }
        assert!(i64::decode_record(&[0; 7]).is_err());
        assert!(u8::decode_record(&[]).is_err());
        let mut buf = Vec::new();
        0xbeefu16.encode_record(&mut buf);
        assert_eq!(u16::decode_record(&buf).unwrap(), 0xbeef);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: CRC-32 bit by bit, eight shifts per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let low = crc & 1;
                crc >>= 1;
                if low != 0 {
                    crc ^= CRC_POLY;
                }
            }
        }
        !crc
    }

    proptest! {
        /// The table-driven crc equals the bitwise model on every input,
        /// across all eight remainders of the slicing-by-8 loop.
        #[test]
        fn table_crc_matches_the_bitwise_model(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        /// The satellite property: arbitrary payload sequences encode,
        /// and *any* truncation decodes without panicking to exactly the
        /// frames whose final byte survived — never a wrong payload.
        #[test]
        fn encode_decode_survives_arbitrary_truncation(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 0..8),
            cut_ppm in 0u32..=1_000_000,
        ) {
            let mut buf = Vec::new();
            let mut ends = Vec::new();
            for p in &payloads {
                encode_frame(FrameTag::Record, p, &mut buf).unwrap();
                ends.push(buf.len());
            }
            let cut = (buf.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
            let (frames, used) = decode_frames(&buf[..cut]);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(frames.len(), whole);
            prop_assert_eq!(used, if whole == 0 { 0 } else { ends[whole - 1] });
            for (f, p) in frames.iter().zip(payloads.iter()) {
                prop_assert_eq!(&f.payload, p);
            }
        }

        /// Decoding raw noise never panics and only yields frames whose
        /// checksum genuinely matches.
        #[test]
        fn decoding_noise_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
            let (frames, used) = decode_frames(&noise);
            prop_assert!(used <= noise.len());
            // Whatever decoded must re-encode to exactly the used prefix.
            let mut re = Vec::new();
            for f in &frames {
                encode_frame(f.tag, &f.payload, &mut re).unwrap();
            }
            prop_assert_eq!(&re[..], &noise[..used]);
        }
    }
}
