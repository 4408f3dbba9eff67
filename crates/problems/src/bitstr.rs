//! Fixed-length bitstrings with lexicographic order.
//!
//! The paper's values `vᵢ ∈ {0,1}ⁿ` are bitstrings compared
//! lexicographically; when all strings share the length `n` (as in every
//! proof construction) the lexicographic order coincides with the order
//! of the numbers they represent in binary — the identification
//! `I = {0,1}ⁿ ≅ {0,…,2ⁿ−1}` used by Lemma 21.
//!
//! Bits are stored most-significant-first, one byte per bit (values are
//! short in every experiment; clarity beats packing). `Ord` derives to
//! bitwise lexicographic order. Equal-length strings additionally expose
//! numeric conversions for `n ≤ 128`.
//!
//! The text form is a byte map: bit `b` is the ASCII byte `b'0' + b`.
//! [`BitStr::write_ascii`] appends it to a caller's buffer and
//! [`BitStr::parse_bytes`] reads it back after one validation sweep;
//! every other reader and writer of values (the instance word, the MPC
//! wire records, `Display` as a single `write_str`, [`BitStr::parse`])
//! goes through these two, so no value is ever formatted bit by bit.

use st_core::StError;
use std::fmt;

/// A bitstring over `{0,1}` of explicit length (possibly 0).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitStr {
    bits: Vec<u8>,
}

impl BitStr {
    /// The empty bitstring.
    #[must_use]
    pub fn empty() -> Self {
        BitStr { bits: Vec::new() }
    }

    /// Parse from ASCII `'0'`/`'1'`.
    pub fn parse(s: &str) -> Result<Self, StError> {
        Self::parse_bytes(s.as_bytes())
    }

    /// Parse from ASCII bytes `b'0'`/`b'1'`: one validation sweep, then
    /// the byte map `b - b'0'`. The error names the first offending
    /// character, or the raw byte where the input is not UTF-8 there.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, StError> {
        // `b'0'` and `b'1'` differ only in the low bit. The sweep has no
        // early exit so it vectorizes; only a bad input searches again.
        let is_bad = |b: u8| b | 1 != b'1';
        if !bytes.iter().fold(false, |bad, &b| bad | is_bad(b)) {
            return Ok(BitStr {
                bits: bytes.iter().map(|&b| b - b'0').collect(),
            });
        }
        let i = bytes.iter().position(|&b| is_bad(b)).unwrap_or_default();
        Err(StError::InvalidInstance(format!(
            "bitstring contains {}, expected 0/1",
            describe_symbol(&bytes[i..])
        )))
    }

    /// Append the ASCII text form (`b'0' + bit` per bit) to `out`.
    pub fn write_ascii(&self, out: &mut Vec<u8>) {
        out.extend(self.bits.iter().map(|&b| b'0' + b));
    }

    /// The `n`-bit binary representation of `value` (MSB first). Errors if
    /// `value ≥ 2ⁿ`.
    pub fn from_value(value: u128, n: usize) -> Result<Self, StError> {
        if n < 128 && value >> n != 0 {
            return Err(StError::InvalidInstance(format!(
                "value {value} does not fit in {n} bits"
            )));
        }
        let bits = (0..n).rev().map(|i| ((value >> i) & 1) as u8).collect();
        Ok(BitStr { bits })
    }

    /// The numeric value for `len ≤ 128`.
    pub fn to_value(&self) -> Result<u128, StError> {
        if self.bits.len() > 128 {
            return Err(StError::InvalidInstance(format!(
                "bitstring of length {} exceeds the u128 fast path",
                self.bits.len()
            )));
        }
        Ok(self
            .bits
            .iter()
            .fold(0u128, |acc, &b| (acc << 1) | u128::from(b)))
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` iff the string has length 0.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit `i` (0 = most significant).
    #[must_use]
    pub fn bit(&self, i: usize) -> u8 {
        self.bits[i]
    }

    /// Iterator over bits, MSB first.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().copied()
    }

    /// Flip bit `i` in place (adversarial no-instance construction).
    pub fn flip_bit(&mut self, i: usize) {
        self.bits[i] ^= 1;
    }

    /// Concatenate two bitstrings (used by the SHORT reduction's
    /// `BIN(i)·BIN′(j)·block` assembly).
    #[must_use]
    pub fn concat(&self, other: &BitStr) -> BitStr {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&other.bits);
        BitStr { bits }
    }

    /// The slice `[from, to)` as a new bitstring.
    #[must_use]
    pub fn slice(&self, from: usize, to: usize) -> BitStr {
        BitStr {
            bits: self.bits[from..to].to_vec(),
        }
    }

    /// Left-pad with zeros to length `n` (the Appendix E block padding).
    #[must_use]
    pub fn pad_left(&self, n: usize) -> BitStr {
        if self.bits.len() >= n {
            return self.clone();
        }
        let mut bits = vec![0u8; n - self.bits.len()];
        bits.extend_from_slice(&self.bits);
        BitStr { bits }
    }

    /// Does `prefix` prefix this string? (Interval membership reduces to a
    /// prefix test; see [`crate::checkphi`].)
    #[must_use]
    pub fn has_prefix(&self, prefix: &BitStr) -> bool {
        self.bits.len() >= prefix.bits.len() && self.bits[..prefix.bits.len()] == prefix.bits[..]
    }
}

/// The leading symbol of `rest` for an error message: the char in
/// `Debug` form when `rest` starts with a complete UTF-8 sequence (at
/// most four bytes), else the raw byte.
fn describe_symbol(rest: &[u8]) -> String {
    let window = &rest[..rest.len().min(4)];
    let valid = match std::str::from_utf8(window) {
        Ok(s) => s,
        Err(e) => std::str::from_utf8(&window[..e.valid_up_to()]).unwrap_or_default(),
    };
    match valid.chars().next() {
        Some(c) => format!("{c:?}"),
        None => format!("byte {:#04x}", rest[0]),
    }
}

impl fmt::Display for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Vec::with_capacity(self.bits.len());
        self.write_ascii(&mut text);
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

impl st_extmem::Corrupt for BitStr {
    /// Fault-injection damage: flip the bit selected by the entropy. The
    /// empty string (no bit to flip) grows a spurious `1` — still a value
    /// different from the original, as the `Corrupt` contract requires.
    fn corrupted(&self, entropy: u64) -> Self {
        let mut c = self.clone();
        if c.bits.is_empty() {
            c.bits.push(1);
        } else {
            let i = (entropy as usize) % c.bits.len();
            c.bits[i] ^= 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        for s in ["", "0", "1", "0101101", "000", "111"] {
            assert_eq!(BitStr::parse(s).unwrap().to_string(), s);
        }
        assert!(BitStr::parse("01x").is_err());
    }

    #[test]
    fn value_round_trip() {
        for n in [1usize, 4, 7, 64, 127] {
            for v in [0u128, 1, 2, 5] {
                if v >> n.min(127) == 0 {
                    let b = BitStr::from_value(v, n).unwrap();
                    assert_eq!(b.len(), n);
                    assert_eq!(b.to_value().unwrap(), v);
                }
            }
        }
        assert!(BitStr::from_value(4, 2).is_err());
    }

    #[test]
    fn lexicographic_order_matches_numeric_order_at_equal_length() {
        let n = 6;
        let mut prev = BitStr::from_value(0, n).unwrap();
        for v in 1u128..64 {
            let cur = BitStr::from_value(v, n).unwrap();
            assert!(prev < cur, "{prev} !< {cur}");
            prev = cur;
        }
    }

    #[test]
    fn shorter_prefix_sorts_first() {
        // Lexicographic string order: "01" < "010".
        assert!(BitStr::parse("01").unwrap() < BitStr::parse("010").unwrap());
        assert!(BitStr::parse("0").unwrap() < BitStr::parse("1").unwrap());
    }

    #[test]
    fn concat_slice_pad() {
        let a = BitStr::parse("101").unwrap();
        let b = BitStr::parse("01").unwrap();
        let c = a.concat(&b);
        assert_eq!(c.to_string(), "10101");
        assert_eq!(c.slice(1, 4).to_string(), "010");
        assert_eq!(b.pad_left(5).to_string(), "00001");
        assert_eq!(a.pad_left(2).to_string(), "101", "pad never truncates");
    }

    #[test]
    fn prefix_test() {
        let v = BitStr::parse("1101").unwrap();
        assert!(v.has_prefix(&BitStr::parse("11").unwrap()));
        assert!(v.has_prefix(&BitStr::empty()));
        assert!(!v.has_prefix(&BitStr::parse("10").unwrap()));
        assert!(!v.has_prefix(&BitStr::parse("11011").unwrap()));
    }

    #[test]
    fn corrupted_values_always_differ() {
        use st_extmem::Corrupt;
        let v = BitStr::parse("0110").unwrap();
        for entropy in 0..32u64 {
            let c = v.corrupted(entropy);
            assert_ne!(c, v, "entropy {entropy} produced an identical value");
            assert_eq!(c.len(), v.len(), "bit-flip corruption preserves length");
        }
        let empty = BitStr::empty();
        let c = empty.corrupted(7);
        assert_ne!(c, empty);
    }

    #[test]
    fn flip_bit_changes_exactly_one_position() {
        let mut v = BitStr::parse("0000").unwrap();
        v.flip_bit(2);
        assert_eq!(v.to_string(), "0010");
        v.flip_bit(2);
        assert_eq!(v.to_string(), "0000");
    }
}
