//! The exchange wire codec: length-framed messages between workers.
//!
//! Every message crossing the [`Exchange`](crate::engine::Exchange)
//! serializes through this codec, and its framed length is what the
//! communication meter charges — bytes-on-the-wire are codec bytes, not
//! an abstract record count. Frames are [`st_core::frame`]'s
//! `[u32 LE body length][body]`, the codec the `st-serve` protocol
//! uses too, re-exported here.
//!
//! The body is `[from u32][to u32][payload]` where the payload is one of
//! the [`Payload`] variants, tagged by a leading byte. Integers are
//! little-endian; records travel as `u32`-length-prefixed ASCII bit
//! strings (the instance alphabet), so empty values round-trip exactly.
//! They are written and read by `st-problems`' byte codec
//! ([`BitStr::write_ascii`], [`BitStr::parse_bytes`]); any byte other
//! than `0`/`1` in a record is a `bad record` error.

use st_core::frame::{checked_len, open_sealed, put_sealed, put_u32, put_u64, BodyReader};
pub use st_core::frame::{read_frame, write_frame, MAX_FRAME};
use st_problems::BitStr;
use std::io;

/// Full per-message wire overhead on the exchange: the `u32` length
/// prefix plus the [`seal_net`] header (`[seq u32][crc u32]`). The
/// communication meter charges `NET_HEADER + body.len()` per message —
/// faulted and fault-free runs alike, so `bytes_on_wire` stays
/// bit-identical under any fault plan.
pub const NET_HEADER: u64 = 12;

/// One message on the exchange: sender, receiver, and typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending worker index.
    pub from: u32,
    /// Receiving worker index.
    pub to: u32,
    /// The typed payload.
    pub payload: Payload,
}

/// What a worker can say to another worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Partial fingerprint sums `(Σ x^{eᵢ}, Σ x^{e′ᵢ}) mod p₂` over the
    /// sender's shard — the one-round commutative combine of the
    /// MULTISET-EQ decider.
    Residues {
        /// Partial first-half sum.
        sum_first: u64,
        /// Partial second-half sum.
        sum_second: u64,
    },
    /// A run of records bound for the receiver's tape `tape` (0 = first
    /// list, 1 = second list). For the CHECK-SORT merge tree the run is
    /// sorted and its first/last records are the boundary keys the
    /// receiver's handoff check reads.
    Records {
        /// Destination tape index on the receiving worker.
        tape: u8,
        /// The records, in tape order.
        records: Vec<BitStr>,
    },
    /// A scalar count (the gather phase of the Q′ evaluator reports the
    /// size of each worker's local symmetric difference).
    Count(u64),
}

/// `[u32 LE ASCII length][ASCII bits]` — the text form is one byte per
/// bit, so the prefix is the value's length.
fn put_record(out: &mut Vec<u8>, r: &BitStr) -> io::Result<()> {
    put_u32(out, checked_len(r.len())?);
    r.write_ascii(out);
    Ok(())
}

fn read_record(rd: &mut BodyReader<'_>) -> Result<BitStr, String> {
    BitStr::parse_bytes(rd.bytes()?).map_err(|e| format!("bad record: {e}"))
}

impl Envelope {
    /// Serialize to a frame body. Fails with `InvalidInput` when the
    /// body would exceed [`MAX_FRAME`] — the same cap [`read_frame`]
    /// enforces on the receive side.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        put_u32(&mut out, self.from);
        put_u32(&mut out, self.to);
        match &self.payload {
            Payload::Residues {
                sum_first,
                sum_second,
            } => {
                out.push(1);
                put_u64(&mut out, *sum_first);
                put_u64(&mut out, *sum_second);
            }
            Payload::Records { tape, records } => {
                // Reserve the rest of the body at once: tag, tape, count,
                // then a `u32` prefix and one byte per bit per record.
                out.reserve(6 + records.iter().map(|r| 4 + r.len()).sum::<usize>());
                out.push(2);
                out.push(*tape);
                put_u32(&mut out, checked_len(records.len())?);
                for r in records {
                    put_record(&mut out, r)?;
                }
            }
            Payload::Count(v) => {
                out.push(3);
                put_u64(&mut out, *v);
            }
        }
        checked_len(out.len())?;
        Ok(out)
    }

    /// Decode a frame body. Torn or trailing bytes are an error, never a
    /// panic.
    pub fn decode(body: &[u8]) -> Result<Self, String> {
        let mut rd = BodyReader::new(body);
        let from = rd.u32()?;
        let to = rd.u32()?;
        let payload = match rd.u8()? {
            1 => Payload::Residues {
                sum_first: rd.u64()?,
                sum_second: rd.u64()?,
            },
            2 => {
                let tape = rd.u8()?;
                let count = rd.u32()? as usize;
                // The cap bounds the pre-allocation: a lying count in a
                // torn frame fails on the first missing record instead
                // of reserving gigabytes.
                let mut records = Vec::with_capacity(count.min(65_536));
                for _ in 0..count {
                    records.push(read_record(&mut rd)?);
                }
                Payload::Records { tape, records }
            }
            3 => Payload::Count(rd.u64()?),
            tag => return Err(format!("unknown payload tag {tag}")),
        };
        rd.done()?;
        Ok(Envelope { from, to, payload })
    }
}

/// Encode worker `w`'s initial shard — its chunk of the first list
/// (tape 0) and the second list (tape 1) — as the loopback envelope
/// pair the [`Cluster`](crate::engine::Cluster) journals as the
/// worker's durable checkpoint and feeds back through the factory on
/// crash recovery.
#[must_use]
pub fn shard_envelopes(w: usize, xs: &[BitStr], ys: &[BitStr]) -> Vec<Envelope> {
    let w = w as u32;
    vec![
        Envelope {
            from: w,
            to: w,
            payload: Payload::Records {
                tape: 0,
                records: xs.to_vec(),
            },
        },
        Envelope {
            from: w,
            to: w,
            payload: Payload::Records {
                tape: 1,
                records: ys.to_vec(),
            },
        },
    ]
}

/// Inverse of [`shard_envelopes`]: split a shard envelope list back
/// into the tape-0 and tape-1 record lists. Unknown tapes or non-record
/// payloads are an error — a journal holding them is corrupt.
pub fn split_shard(envs: &[Envelope]) -> Result<(Vec<BitStr>, Vec<BitStr>), String> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for env in envs {
        match &env.payload {
            Payload::Records { tape: 0, records } => xs.extend(records.iter().cloned()),
            Payload::Records { tape: 1, records } => ys.extend(records.iter().cloned()),
            Payload::Records { tape, .. } => {
                return Err(format!("shard envelope names unknown tape {tape}"))
            }
            other => return Err(format!("non-record payload in shard: {other:?}")),
        }
    }
    Ok((xs, ys))
}

/// Seal an envelope body into a checksummed net frame:
/// `[seq u32 LE][crc32 u32 LE][body]`, [`st_core::frame`]'s sealed frame
/// with the head `[seq]`. The crc covers the seq bytes *and* the body —
/// a flip of any single byte anywhere in the frame, sequence number
/// included, fails verification on receipt.
#[must_use]
pub fn seal_net(seq: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    put_sealed(&mut out, &seq.to_le_bytes(), body);
    out
}

/// Open a sealed net frame: verify the crc and return `(seq, body)`.
/// A truncated header or a checksum mismatch is an error — the caller
/// treats it as a detected corruption and requests retransmission.
pub fn open_net(frame: &[u8]) -> Result<(u32, &[u8]), String> {
    open_sealed(frame)
        .map(|(seq, body)| (u32::from_le_bytes(seq), body))
        .ok_or_else(|| "net frame truncated or crc mismatch".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn bs(s: &str) -> BitStr {
        BitStr::parse(s).unwrap()
    }

    #[test]
    fn envelope_round_trips_every_payload() {
        let envs = [
            Envelope {
                from: 0,
                to: 0,
                payload: Payload::Residues {
                    sum_first: 12,
                    sum_second: u64::MAX,
                },
            },
            Envelope {
                from: 3,
                to: 1,
                payload: Payload::Records {
                    tape: 1,
                    records: vec![bs(""), bs("0101"), bs("1")],
                },
            },
            Envelope {
                from: 15,
                to: 0,
                payload: Payload::Count(7),
            },
        ];
        for env in envs {
            let body = env.encode().unwrap();
            assert_eq!(Envelope::decode(&body).unwrap(), env);
        }
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut buf = Vec::new();
        let env = Envelope {
            from: 2,
            to: 0,
            payload: Payload::Records {
                tape: 0,
                records: vec![bs("11"), bs("00")],
            },
        };
        let body = env.encode().unwrap();
        write_frame(&mut buf, &body).unwrap();
        write_frame(&mut buf, &body).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            Envelope::decode(&read_frame(&mut cur).unwrap().unwrap()).unwrap(),
            env
        );
        assert_eq!(
            Envelope::decode(&read_frame(&mut cur).unwrap().unwrap()).unwrap(),
            env
        );
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_bodies_error_on_decode() {
        let env = Envelope {
            from: 1,
            to: 0,
            payload: Payload::Records {
                tape: 0,
                records: vec![bs("010101"), bs("111")],
            },
        };
        let body = env.encode().unwrap();
        for cut in 0..body.len() {
            assert!(
                Envelope::decode(&body[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage is also an error, not silently ignored.
        let mut extended = body;
        extended.push(0);
        assert!(Envelope::decode(&extended).is_err());
    }

    #[test]
    fn non_bit_record_text_is_rejected() {
        // A hand-built Records body whose record text is not over {0,1}.
        let mut body = Vec::new();
        put_u32(&mut body, 0);
        put_u32(&mut body, 0);
        body.push(2); // Records
        body.push(0); // tape
        put_u32(&mut body, 1); // one record
        put_u32(&mut body, 3);
        body.extend_from_slice("0a1".as_bytes());
        assert!(Envelope::decode(&body).is_err());
    }

    #[test]
    fn sealed_net_frames_round_trip_and_detect_any_single_byte_flip() {
        let env = Envelope {
            from: 1,
            to: 3,
            payload: Payload::Records {
                tape: 1,
                records: vec![bs("0101"), bs(""), bs("1")],
            },
        };
        let body = env.encode().unwrap();
        let sealed = seal_net(0xdead_beef, &body);
        assert_eq!(sealed.len() as u64, 8 + body.len() as u64);
        let (seq, got) = open_net(&sealed).unwrap();
        assert_eq!(seq, 0xdead_beef);
        assert_eq!(got, body.as_slice());
        // Every single-byte corruption — seq field, crc field, body —
        // must fail verification.
        for i in 0..sealed.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = sealed.clone();
                bad[i] ^= mask;
                assert!(open_net(&bad).is_err(), "flip at byte {i} mask {mask:#x}");
            }
        }
        assert!(open_net(&sealed[..7]).is_err(), "short frame");
    }

    #[test]
    fn net_header_matches_the_seal_plus_length_prefix() {
        let body = b"xyz";
        let sealed = seal_net(7, body);
        assert_eq!(NET_HEADER, 4 + (sealed.len() - body.len()) as u64);
    }

    #[test]
    fn shard_envelopes_split_back_into_their_lists() {
        let xs = vec![bs("01"), bs("")];
        let ys = vec![bs("111")];
        let envs = shard_envelopes(3, &xs, &ys);
        assert!(envs.iter().all(|e| e.from == 3 && e.to == 3));
        assert_eq!(split_shard(&envs).unwrap(), (xs, ys));
        // A gather payload is not a shard.
        let bad = [Envelope {
            from: 0,
            to: 0,
            payload: Payload::Count(1),
        }];
        assert!(split_shard(&bad).is_err());
    }
}
