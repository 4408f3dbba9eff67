//! The batch record codec: many cells, one frame payload.
//!
//! Cell-at-a-time journaling (one WAL frame per record) would pay
//! [`super::frame::HEADER_LEN`] bytes of framing plus a CRC pass per
//! cell. At the block/page granularity the paper's external-memory model
//! works in, the durable layer instead moves **blocks** of records: this
//! module packs a slice of [`DurableRecord`]s into a single
//! self-describing payload that travels inside one checksummed WAL
//! frame, and unpacks it strictly on recovery.
//!
//! Wire shape (all integers `u32` little-endian):
//!
//! ```text
//! ┌────────────┬──────────────────────────────┐
//! │ count: u32 │ count × ( len: u32, bytes )  │
//! └────────────┴──────────────────────────────┘
//! ```
//!
//! Decoding is exact: a trailing byte, a short record, or a count
//! mismatch is an error, never a silent partial block — the outer frame
//! CRC already rejects corruption, so any mismatch here is a logic bug
//! or version skew worth surfacing loudly.

use super::frame::DurableRecord;
use st_core::frame::{put_u32, BodyReader};
use st_core::StError;

/// Pack `records` into one block payload.
///
/// Fails only if a single record encodes to more than `u32::MAX` bytes
/// or the block holds more than `u32::MAX` records (cells are small; a
/// block is bounded by the caller's block length).
pub fn encode_block<S: DurableRecord>(records: &[S]) -> Result<Vec<u8>, StError> {
    let count = u32::try_from(records.len())
        .map_err(|_| StError::Machine("record block exceeds u32::MAX records".into()))?;
    let mut out = Vec::with_capacity(4 + records.len() * 8);
    put_u32(&mut out, count);
    let mut scratch = Vec::new();
    for r in records {
        scratch.clear();
        r.encode_record(&mut scratch);
        let len = u32::try_from(scratch.len())
            .map_err(|_| StError::Machine("record encoding exceeds u32::MAX bytes".into()))?;
        put_u32(&mut out, len);
        out.extend_from_slice(&scratch);
    }
    Ok(out)
}

/// Unpack a payload produced by [`encode_block`], consuming every byte.
pub fn decode_block<S: DurableRecord>(bytes: &[u8]) -> Result<Vec<S>, StError> {
    let malformed = |e: String| StError::Machine(format!("record block: {e}"));
    let mut rd = BodyReader::new(bytes);
    let count = rd.u32().map_err(malformed)? as usize;
    let mut records = Vec::with_capacity(count.min(bytes.len() / 4));
    for _ in 0..count {
        records.push(S::decode_record(rd.bytes().map_err(malformed)?)?);
    }
    rd.done().map_err(malformed)?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_trip() {
        let records: Vec<u64> = (0..1000).collect();
        let block = encode_block(&records).unwrap();
        assert_eq!(decode_block::<u64>(&block).unwrap(), records);
        let empty: Vec<u64> = Vec::new();
        let block = encode_block(&empty).unwrap();
        assert_eq!(decode_block::<u64>(&block).unwrap(), empty);
    }

    #[test]
    fn string_records_round_trip_multibyte() {
        let records = vec![
            String::new(),
            "plain".to_string(),
            "U+3000 ideographic\u{3000}space".to_string(),
            "mixed \u{00e9}\u{4e16}\u{754c} \u{1f600}".to_string(),
        ];
        let block = encode_block(&records).unwrap();
        assert_eq!(decode_block::<String>(&block).unwrap(), records);
    }

    #[test]
    fn truncations_and_trailing_bytes_are_errors() {
        let block = encode_block(&[7u64, 8, 9]).unwrap();
        for cut in 0..block.len() {
            assert!(
                decode_block::<u64>(&block[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut padded = block.clone();
        padded.push(0);
        assert!(decode_block::<u64>(&padded).is_err());
        // A lying count is caught by the strict-consumption check.
        let mut lying = block;
        lying[0] = 2;
        assert!(decode_block::<u64>(&lying).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The satellite property: arbitrary record blocks — fixed-width
        /// ints and variable-length strings over arbitrary `char`s,
        /// including the U+3000 / multi-byte families that broke the
        /// query parsers before — round-trip exactly.
        #[test]
        fn int_blocks_round_trip(records in proptest::collection::vec(any::<i64>(), 0..200)) {
            let block = encode_block(&records).unwrap();
            prop_assert_eq!(decode_block::<i64>(&block).unwrap(), records);
        }

        #[test]
        fn string_blocks_round_trip(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<char>(), 0..12)
                    .prop_map(|cs| cs.into_iter().collect::<String>()),
                0..40),
        ) {
            let block = encode_block(&records).unwrap();
            prop_assert_eq!(decode_block::<String>(&block).unwrap(), records);
        }

        /// Decoding arbitrary noise never panics.
        #[test]
        fn decoding_noise_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_block::<u64>(&noise);
            let _ = decode_block::<String>(&noise);
        }
    }
}
