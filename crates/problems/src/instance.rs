//! Problem instances `v₁#…#v_m#v′₁#…#v′_m#` over `{0,1,#}`.
//!
//! Section 3 of the paper: the input of each decision problem is a string
//! over `{0,1,#}` encoding two lists of `m` bitstrings; the size measure
//! is `N = 2m + Σᵢ (|vᵢ| + |v′ᵢ|)` — exactly the length of the encoded
//! string.
//!
//! # Scanning a word
//!
//! Every reader of `{0,1,#}` bytes shares two scanners:
//! [`first_invalid`] validates a slice with one branch-free fold, and
//! [`find_hash`]/[`rfind_hash`] find `#` eight bytes at a time. Bit 4
//! is set in `b'0'` and `b'1'` and clear in `b'#'`, so a clear bit 4
//! marks a `#` only in a validated slice: a space, `"`, `A` or NUL
//! clears it too. The fingerprint stepper's ingest and its backward
//! residue fold use these and no other `#` search.
//! [`Instance::parse_bytes`] reads a well-formed word twice: one
//! branch-free fold validates it and counts its `#`s, and one walk with
//! [`find_hash`] packs the values.

use crate::bitstr::BitStr;
use st_core::StError;
use std::fmt;

/// An instance: the two lists `(v₁,…,v_m)` and `(v′₁,…,v′_m)`.
///
/// ```
/// use st_problems::Instance;
///
/// let inst = Instance::parse("01#10#10#01#")?;
/// assert_eq!(inst.m(), 2);
/// assert_eq!(inst.size(), 12);              // N = 2m + Σ|vᵢ| + Σ|v′ᵢ|
/// assert_eq!(inst.encode(), "01#10#10#01#");
/// # Ok::<(), st_core::StError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The first list `v₁,…,v_m`.
    pub xs: Vec<BitStr>,
    /// The second list `v′₁,…,v′_m`.
    pub ys: Vec<BitStr>,
}

impl Instance {
    /// Build from two lists; errors if their lengths differ (the problems
    /// are defined on equal-length lists).
    pub fn new(xs: Vec<BitStr>, ys: Vec<BitStr>) -> Result<Self, StError> {
        if xs.len() != ys.len() {
            return Err(StError::InvalidInstance(format!(
                "list lengths differ: {} vs {}",
                xs.len(),
                ys.len()
            )));
        }
        Ok(Instance { xs, ys })
    }

    /// The number of pairs `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.xs.len()
    }

    /// The input size `N = 2m + Σ(|vᵢ| + |v′ᵢ|)`.
    #[must_use]
    pub fn size(&self) -> usize {
        2 * self.m()
            + self.xs.iter().map(BitStr::len).sum::<usize>()
            + self.ys.iter().map(BitStr::len).sum::<usize>()
    }

    /// Encode as the paper's input word `v₁#…#v_m#v′₁#…#v′_m#`.
    #[must_use]
    pub fn encode(&self) -> String {
        String::from_utf8(self.encode_bytes()).expect("an input word is ASCII")
    }

    /// [`Instance::encode`] as bytes over `b"01#"` — the input-tape
    /// symbol sequence.
    #[must_use]
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size());
        write_values(&mut out, self.xs.iter().chain(self.ys.iter()));
        out
    }

    /// Decode an input word. The word must contain `2m` `#`-terminated
    /// blocks for some `m ≥ 0` (in particular it must end with `#` unless
    /// empty).
    pub fn parse(word: &str) -> Result<Self, StError> {
        Self::parse_bytes(word.as_bytes())
    }

    /// [`Instance::parse`] over raw bytes; each value goes through
    /// [`BitStr::parse_bytes`], so a non-UTF-8 word is an error like any
    /// other bad symbol.
    ///
    /// A well-formed word is read twice: one fold over the whole word
    /// validates it and counts its blocks, then a walk from `#` to `#`
    /// packs each value into its list. Any other word goes through the
    /// split-based parser, which reports its errors in the order and
    /// with the texts it always has.
    pub fn parse_bytes(word: &[u8]) -> Result<Self, StError> {
        match Self::parse_valid(word) {
            Some(inst) => Ok(inst),
            None => Self::parse_split(word),
        }
    }

    /// The parse of a word over `{0,1,#}` that ends with `#` and has an
    /// even number of blocks; `None` for any other word. The validating
    /// fold counts the blocks too, which sizes each list exactly before
    /// the packing walk.
    fn parse_valid(word: &[u8]) -> Option<Self> {
        if word.last() != Some(&b'#') {
            return None;
        }
        let blocks = valid_blocks(word).filter(|b| b.is_multiple_of(2))?;
        let mut rest = word;
        let mut next_value = || {
            let h = find_hash(rest).expect("every counted block ends with '#'");
            let value = BitStr::from_valid_bytes(&rest[..h]);
            rest = &rest[h + 1..];
            value
        };
        let xs = (0..blocks / 2).map(|_| next_value()).collect();
        let ys = (0..blocks / 2).map(|_| next_value()).collect();
        Some(Instance { xs, ys })
    }

    /// Split at every `#`, then parse each block.
    fn parse_split(word: &[u8]) -> Result<Self, StError> {
        let Some((&last, body)) = word.split_last() else {
            return Ok(Instance {
                xs: Vec::new(),
                ys: Vec::new(),
            });
        };
        if last != b'#' {
            return Err(StError::InvalidInstance(
                "input word must end with '#'".into(),
            ));
        }
        let blocks: Vec<&[u8]> = body.split(|&b| b == b'#').collect();
        if !blocks.len().is_multiple_of(2) {
            return Err(StError::InvalidInstance(format!(
                "odd number of blocks ({}) — cannot split into two lists",
                blocks.len()
            )));
        }
        let m = blocks.len() / 2;
        let xs = blocks[..m]
            .iter()
            .map(|b| BitStr::parse_bytes(b))
            .collect::<Result<Vec<_>, _>>()?;
        let ys = blocks[m..]
            .iter()
            .map(|b| BitStr::parse_bytes(b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Instance { xs, ys })
    }

    /// `true` iff every value (in both lists) has bit-length exactly `n`
    /// (the uniform-length instances all proofs use).
    #[must_use]
    pub fn uniform_length(&self, n: usize) -> bool {
        self.xs.iter().chain(self.ys.iter()).all(|v| v.len() == n)
    }
}

/// Append `v#` for each value to `out`, each value through
/// [`BitStr::write_ascii`] — the one writer of `{0,1,#}` words, shared by
/// [`Instance::encode_bytes`] and callers that hold the two lists apart
/// (an MPC worker's shard).
pub fn write_values<'a>(out: &mut Vec<u8>, values: impl IntoIterator<Item = &'a BitStr>) {
    for v in values {
        v.write_ascii(out);
        out.push(b'#');
    }
}

/// Bit 4 of every byte: set in `b'0'` (0x30) and `b'1'` (0x31), clear
/// in `b'#'` (0x23).
const VALUE_BIT: u64 = 0x1010_1010_1010_1010;

/// The position of the first byte outside the alphabet `{0,1,#}`. The
/// all-valid case is one fold with no early exit (so it vectorizes);
/// only a bad slice searches again.
#[must_use]
pub fn first_invalid(symbols: &[u8]) -> Option<usize> {
    if !symbols.iter().fold(false, |bad, &b| bad | is_bad(b)) {
        return None;
    }
    symbols.iter().position(|&b| is_bad(b))
}

/// `true` for a byte outside `{0,1,#}`, without a branch.
fn is_bad(b: u8) -> bool {
    (b != b'#') & (b | 1 != b'1')
}

/// The number of `#` in `symbols`, or `None` if a byte is outside
/// `{0,1,#}`: validation and count in one branch-free fold. Each chunk
/// counts into a byte lane, so the fold vectorizes. A chunk of 192
/// bytes, a multiple of 64, leaves no scalar tail but the last one;
/// it measured fastest among such sizes below 256.
fn valid_blocks(symbols: &[u8]) -> Option<usize> {
    let mut bad = false;
    let mut blocks = 0;
    for chunk in symbols.chunks(192) {
        let mut in_chunk = 0u8;
        for &b in chunk {
            bad |= is_bad(b);
            in_chunk += u8::from(b == b'#');
        }
        blocks += usize::from(in_chunk);
    }
    (!bad).then_some(blocks)
}

/// The `#` marks of eight validated symbols, one bit per `#`: the one
/// SWAR `#` scanner.
fn hash_marks(group: &[u8]) -> u64 {
    let group: [u8; 8] = group.try_into().expect("a group is eight bytes");
    !u64::from_le_bytes(group) & VALUE_BIT
}

/// The position of the first `#` in `symbols`, eight bytes per step.
/// The caller validates first ([`first_invalid`]): other bytes with
/// bit 4 clear would read as `#`.
#[must_use]
pub fn find_hash(symbols: &[u8]) -> Option<usize> {
    let mut groups = symbols.chunks_exact(8);
    for (i, group) in (&mut groups).enumerate() {
        let marks = hash_marks(group);
        if marks != 0 {
            return Some(8 * i + marks.trailing_zeros() as usize / 8);
        }
    }
    let tail = groups.remainder();
    let tail_start = symbols.len() - tail.len();
    tail.iter().position(|&b| b == b'#').map(|p| tail_start + p)
}

/// The position of the last `#` in validated `symbols`, eight bytes per
/// step.
#[must_use]
pub fn rfind_hash(symbols: &[u8]) -> Option<usize> {
    let mut groups = symbols.rchunks_exact(8);
    for (i, group) in (&mut groups).enumerate() {
        let marks = hash_marks(group);
        if marks != 0 {
            let in_group = (63 - marks.leading_zeros()) as usize / 8;
            return Some(symbols.len() - 8 * (i + 1) + in_group);
        }
    }
    groups.remainder().iter().rposition(|&b| b == b'#')
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitStr {
        BitStr::parse(s).unwrap()
    }

    #[test]
    fn encode_matches_paper_format() {
        let inst = Instance::new(vec![bs("01"), bs("10")], vec![bs("10"), bs("01")]).unwrap();
        assert_eq!(inst.encode(), "01#10#10#01#");
    }

    #[test]
    fn size_is_2m_plus_total_length() {
        let inst = Instance::new(vec![bs("01"), bs("10")], vec![bs("10"), bs("01")]).unwrap();
        // N = 2·2 + 4·2 = 12 = encoded length.
        assert_eq!(inst.size(), 12);
        assert_eq!(inst.size(), inst.encode().len());
    }

    #[test]
    fn parse_round_trip() {
        for word in ["", "0#1#", "01#10#10#01#", "#0##1#"] {
            let inst = Instance::parse(word).unwrap();
            assert_eq!(inst.encode(), word);
        }
    }

    #[test]
    fn parse_rejects_malformed_words() {
        assert!(Instance::parse("01#10").is_err(), "missing trailing #");
        assert!(Instance::parse("01#10#11#").is_err(), "odd block count");
        assert!(Instance::parse("0a#1#").is_err(), "bad symbol");
    }

    #[test]
    fn empty_strings_are_legal_values() {
        let inst = Instance::parse("##").unwrap();
        assert_eq!(inst.m(), 1);
        assert!(inst.xs[0].is_empty());
        assert_eq!(inst.size(), 2);
    }

    #[test]
    fn mismatched_lists_rejected() {
        assert!(Instance::new(vec![bs("0")], vec![]).is_err());
    }

    #[test]
    fn uniform_length_check() {
        let inst = Instance::parse("01#10#11#00#").unwrap();
        assert!(inst.uniform_length(2));
        assert!(!inst.uniform_length(3));
        let ragged = Instance::parse("0#10#").unwrap();
        assert!(!ragged.uniform_length(1));
    }
}
