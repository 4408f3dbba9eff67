//! Fixed-length bitstrings with lexicographic order.
//!
//! The paper's values `vᵢ ∈ {0,1}ⁿ` are bitstrings compared
//! lexicographically; when all strings share the length `n` (as in every
//! proof construction) the lexicographic order coincides with the order
//! of the numbers they represent in binary — the identification
//! `I = {0,1}ⁿ ≅ {0,…,2ⁿ−1}` used by Lemma 21. Equal-length strings
//! additionally expose numeric conversions for `n ≤ 128`.
//!
//! # Layout
//!
//! Bits are packed most-significant-first into `u64` words: bit `i` is
//! bit `63 − i mod 64` of word `⌊i/64⌋`. Strings of up to 128 bits keep
//! their two words inline, so moving a record through a sort pass, a
//! merge or an MPC exchange is a 32-byte copy with no allocation; longer
//! strings (the 511-bit fingerprint values) spill to a boxed slice of
//! `⌈len/64⌉` words. Which of the two a string uses is a function of its
//! length alone.
//!
//! **Invariant: padding bits are zero** — the bits past `len` in the last
//! word, and an unused inline word. Every constructor builds on zeroed
//! words, every whole-word write clears the padding again, and the bit
//! accessors panic at `i ≥ len` instead of reading padding.
//!
//! # Order
//!
//! `Ord` is the lexicographic order on bit sequences in which a proper
//! prefix sorts first (`"01" < "010"`). It is written by hand because
//! the derived order of the fields would compare lengths first. With
//! zero padding the comparison needs no masking: compare the word slices
//! as slices, then the lengths. Where the strings differ inside their
//! common prefix, the first differing word decides exactly as the first
//! differing bit does. Where one string prefixes the other, its padding
//! zeros are at most the other's bits, so the words tie or the shorter
//! slice is less, and the length puts the prefix first either way.
//! `Eq` and `Hash` read the same `(words, len)` pair, so they agree
//! with `Ord`.
//!
//! # Text form
//!
//! The text form is a byte map: bit `b` is the ASCII byte `b'0' + b`.
//! [`BitStr::write_ascii`] appends it to a caller's buffer a word at a
//! time, and [`BitStr::parse_bytes`] reads it back after one validation
//! sweep, eight bytes per multiply. A value's last word moves only the
//! `⌈len/8⌉` byte groups it holds, so a 32-bit value costs four table
//! entries out and four multiplies in. Every other reader and writer of
//! values (the MPC wire records, `Display` as a single `write_str`,
//! [`BitStr::parse`]) goes through these two, and the instance parser
//! validates a whole word once and then packs each value the same way,
//! so no value is ever formatted bit by bit.

use st_core::StError;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Bits per storage word.
const WORD: usize = 64;
/// Words kept inline before a string spills to the heap.
const INLINE_WORDS: usize = 2;

/// The storage words: inline for `len ≤ 128`, boxed beyond.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Spilled(Box<[u64]>),
}

/// A bitstring over `{0,1}` of explicit length (possibly 0).
#[derive(Clone)]
pub struct BitStr {
    len: usize,
    words: Words,
}

/// The mask of the top `bits` bits of a word, for `1 ≤ bits ≤ 64`.
fn high_mask(bits: usize) -> u64 {
    !0u64 << (WORD - bits)
}

/// `ASCII[b]`: the text bytes of byte `b`'s eight bits, MSB first, as a
/// little-endian word (its first byte in memory is `b`'s top bit).
const ASCII: [u64; 256] = ascii_table();

const fn ascii_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= (b'0' as u64 + ((b as u64 >> (7 - i)) & 1)) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
}

/// Eight `b'0'`/`b'1'` bytes as eight bits, the first byte most
/// significant. Only the low bit of each byte matters; one multiply by
/// `Σ 2^(63−9i)` moves byte `i`'s bit to bit `63 − i`, and since every
/// partial product lands on its own bit position nothing carries.
fn gather8(group: &[u8]) -> u64 {
    let group: [u8; 8] = group.try_into().expect("a group is eight bytes");
    let low_bits = u64::from_le_bytes(group) & 0x0101_0101_0101_0101;
    low_bits.wrapping_mul(0x8040_2010_0804_0201) >> 56
}

/// Up to 64 text bytes as the low bits of one word, the first byte most
/// significant: the leading `len mod 8` bytes one at a time, the rest
/// eight per multiply. Only the low bit of each byte is read, so the
/// caller validates (and keeps `b'#'` out).
#[must_use]
pub fn pack_bits(text: &[u8]) -> u64 {
    debug_assert!(text.len() <= WORD, "{} bytes do not fit a word", text.len());
    let (head, body) = text.split_at(text.len() % 8);
    let word = head
        .iter()
        .fold(0, |word, &b| (word << 1) | u64::from(b & 1));
    body.chunks_exact(8)
        .fold(word, |word, group| (word << 8) | gather8(group))
}

/// Up to 64 text bytes as the top bits of one word, the first byte at
/// bit 63: one multiply per group of eight, the last group padded with
/// `b'0'` bytes, which pack to zero bits.
fn pack_high(text: &[u8]) -> u64 {
    debug_assert!(text.len() <= WORD, "{} bytes do not fit a word", text.len());
    let mut groups = text.chunks_exact(8);
    let mut word = 0;
    for (k, group) in (&mut groups).enumerate() {
        word |= gather8(group) << (56 - 8 * k);
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut padded = [b'0'; 8];
        padded[..tail.len()].copy_from_slice(tail);
        word |= gather8(&padded) << (56 - 8 * (text.len() / 8));
    }
    word
}

/// One word's 64 text bytes, eight table entries at a time.
fn expand_word(word: u64) -> [u8; WORD] {
    let mut text = [0u8; WORD];
    for (k, slot) in text.chunks_exact_mut(8).enumerate() {
        slot.copy_from_slice(&ASCII[((word >> (56 - 8 * k)) & 0xff) as usize].to_le_bytes());
    }
    text
}

impl BitStr {
    /// The empty bitstring.
    #[must_use]
    pub fn empty() -> Self {
        Self::zeros(0)
    }

    /// The all-zero string of length `len`: the one place storage is
    /// chosen, so inline-or-spilled follows from the length alone.
    fn zeros(len: usize) -> Self {
        let words = if len <= INLINE_WORDS * WORD {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Spilled(vec![0; len.div_ceil(WORD)].into_boxed_slice())
        };
        BitStr { len, words }
    }

    /// The `⌈len/64⌉` words holding the bits.
    fn words(&self) -> &[u64] {
        let used = self.len.div_ceil(WORD);
        match &self.words {
            Words::Inline(w) => &w[..used],
            Words::Spilled(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        let used = self.len.div_ceil(WORD);
        match &mut self.words {
            Words::Inline(w) => &mut w[..used],
            Words::Spilled(w) => w,
        }
    }

    /// Restore the padding invariant after whole words were written.
    fn clear_padding(&mut self) {
        let tail = self.len % WORD;
        if tail != 0 {
            let words = self.words_mut();
            words[words.len() - 1] &= high_mask(tail);
        }
    }

    /// OR `src`'s bits into positions `[at, at + src.len)`, which must
    /// lie inside `self`. `src`'s padding is zero, so the bits it shifts
    /// past its end (or past `self`'s last word) add nothing.
    fn or_at(&mut self, at: usize, src: &BitStr) {
        debug_assert!(at + src.len <= self.len);
        let (base, shift) = (at / WORD, at % WORD);
        let dst = self.words_mut();
        for (k, &w) in src.words().iter().enumerate() {
            dst[base + k] |= w >> shift;
            if shift != 0 {
                if let Some(next) = dst.get_mut(base + k + 1) {
                    *next |= w << (WORD - shift);
                }
            }
        }
    }

    /// Panic unless `i` names a bit (never read or write padding).
    fn check_index(&self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range for a {}-bit string",
            self.len
        );
    }

    /// Parse from ASCII `'0'`/`'1'`.
    pub fn parse(s: &str) -> Result<Self, StError> {
        Self::parse_bytes(s.as_bytes())
    }

    /// Parse from ASCII bytes `b'0'`/`b'1'`: one validation sweep, then
    /// [`BitStr::from_valid_bytes`]. The error names the first offending
    /// character, or the raw byte where the input is not UTF-8 there.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, StError> {
        // `b'0'` and `b'1'` differ only in the low bit. The sweep has no
        // early exit so it vectorizes; only a bad input searches again.
        let is_bad = |b: u8| b | 1 != b'1';
        if !bytes.iter().fold(false, |bad, &b| bad | is_bad(b)) {
            return Ok(Self::from_valid_bytes(bytes));
        }
        let i = bytes.iter().position(|&b| is_bad(b)).unwrap_or_default();
        Err(StError::InvalidInstance(format!(
            "bitstring contains {}, expected 0/1",
            describe_symbol(&bytes[i..])
        )))
    }

    /// Pack validated text: each 64-byte chunk becomes one word, eight
    /// bytes per multiply, and a short chunk packs only the `⌈len/8⌉`
    /// groups it has. Only the low bit of each byte is read, so the
    /// caller validates ([`BitStr::parse_bytes`] does, as does the
    /// instance parser for a whole word).
    pub(crate) fn from_valid_bytes(bytes: &[u8]) -> Self {
        let mut out = Self::zeros(bytes.len());
        let words = out.words_mut();
        let mut chunks = bytes.chunks_exact(WORD);
        for (word, chunk) in words.iter_mut().zip(&mut chunks) {
            *word = pack_bits(chunk);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            words[words.len() - 1] = pack_high(tail);
        }
        out
    }

    /// Append the ASCII text form (`b'0' + bit` per bit) to `out`: each
    /// full word expands through the byte table into a 64-byte buffer
    /// that lands with one `extend_from_slice`; the last word writes
    /// only its `⌈len/8⌉` table entries.
    pub fn write_ascii(&self, out: &mut Vec<u8>) {
        let Some((&last, full)) = self.words().split_last() else {
            return;
        };
        // Reserve exactly: a caller that sized `out` for its whole word
        // must not see it grow on the last value.
        out.reserve(self.len);
        for &word in full {
            out.extend_from_slice(&expand_word(word));
        }
        let tail = self.len - full.len() * WORD;
        let entry = |k: usize| ASCII[((last >> (56 - 8 * k)) & 0xff) as usize].to_le_bytes();
        for k in 0..tail / 8 {
            out.extend_from_slice(&entry(k));
        }
        if !tail.is_multiple_of(8) {
            out.extend_from_slice(&entry(tail / 8)[..tail % 8]);
        }
    }

    /// The `n`-bit binary representation of `value` (MSB first). Errors if
    /// `value ≥ 2ⁿ`.
    pub fn from_value(value: u128, n: usize) -> Result<Self, StError> {
        if n < 128 && value >> n != 0 {
            return Err(StError::InvalidInstance(format!(
                "value {value} does not fit in {n} bits"
            )));
        }
        if n == 0 {
            return Ok(Self::empty());
        }
        // The low `bits` bits of `value`, left-aligned in two words.
        let bits = n.min(128);
        let aligned = value << (128 - bits);
        let low = BitStr {
            len: bits,
            words: Words::Inline([(aligned >> 64) as u64, aligned as u64]),
        };
        if n == bits {
            return Ok(low);
        }
        let mut out = Self::zeros(n);
        out.or_at(n - bits, &low);
        Ok(out)
    }

    /// The numeric value for `len ≤ 128`.
    pub fn to_value(&self) -> Result<u128, StError> {
        if self.len > 128 {
            return Err(StError::InvalidInstance(format!(
                "bitstring of length {} exceeds the u128 fast path",
                self.len
            )));
        }
        let Words::Inline([hi, lo]) = self.words else {
            unreachable!("strings of at most 128 bits are inline");
        };
        if self.len == 0 {
            return Ok(0);
        }
        Ok(((u128::from(hi) << 64) | u128::from(lo)) >> (128 - self.len))
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the string has length 0.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (0 = most significant). Panics if `i ≥ len`.
    #[must_use]
    pub fn bit(&self, i: usize) -> u8 {
        self.check_index(i);
        ((self.words()[i / WORD] >> (WORD - 1 - i % WORD)) & 1) as u8
    }

    /// Iterator over bits, MSB first.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        let words = self.words();
        (0..self.len).map(move |i| ((words[i / WORD] >> (WORD - 1 - i % WORD)) & 1) as u8)
    }

    /// Flip bit `i` in place (adversarial no-instance construction).
    /// Panics if `i ≥ len`.
    pub fn flip_bit(&mut self, i: usize) {
        self.check_index(i);
        self.words_mut()[i / WORD] ^= 1 << (WORD - 1 - i % WORD);
    }

    /// Concatenate two bitstrings (used by the SHORT reduction's
    /// `BIN(i)·BIN′(j)·block` assembly).
    #[must_use]
    pub fn concat(&self, other: &BitStr) -> BitStr {
        let mut out = Self::zeros(self.len + other.len);
        out.or_at(0, self);
        out.or_at(self.len, other);
        out
    }

    /// The slice `[from, to)` as a new bitstring. Panics unless
    /// `from ≤ to ≤ len`.
    #[must_use]
    pub fn slice(&self, from: usize, to: usize) -> BitStr {
        assert!(
            from <= to && to <= self.len,
            "slice [{from}, {to}) out of range for a {}-bit string",
            self.len
        );
        let mut out = Self::zeros(to - from);
        let src = self.words();
        let (base, shift) = (from / WORD, from % WORD);
        for (k, word) in out.words_mut().iter_mut().enumerate() {
            let next = match (shift, src.get(base + k + 1)) {
                (0, _) | (_, None) => 0,
                (_, Some(&n)) => n >> (WORD - shift),
            };
            *word = (src[base + k] << shift) | next;
        }
        out.clear_padding();
        out
    }

    /// Left-pad with zeros to length `n` (the Appendix E block padding).
    #[must_use]
    pub fn pad_left(&self, n: usize) -> BitStr {
        if self.len >= n {
            return self.clone();
        }
        let mut out = Self::zeros(n);
        out.or_at(n - self.len, self);
        out
    }

    /// Does `prefix` prefix this string? (Interval membership reduces to a
    /// prefix test; see [`crate::checkphi`].)
    #[must_use]
    pub fn has_prefix(&self, prefix: &BitStr) -> bool {
        if self.len < prefix.len {
            return false;
        }
        let (full, tail) = (prefix.len / WORD, prefix.len % WORD);
        let (mine, theirs) = (self.words(), prefix.words());
        mine[..full] == theirs[..full]
            && (tail == 0 || (mine[full] ^ theirs[full]) & high_mask(tail) == 0)
    }
}

impl Default for BitStr {
    fn default() -> Self {
        Self::empty()
    }
}

impl PartialEq for BitStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitStr {}

impl Ord for BitStr {
    /// Lexicographic, a proper prefix first; see the module doc for why
    /// the word slices need no mask.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let words = match (&self.words, &other.words) {
            // Unused inline words are zero padding too.
            (Words::Inline(a), Words::Inline(b)) => a.cmp(b),
            _ => self.words().cmp(other.words()),
        };
        words.then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for BitStr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for BitStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for BitStr {
    /// The bits as a list, `BitStr { bits: [0, 1, …] }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Bits<'a>(&'a BitStr);
        impl fmt::Debug for Bits<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("BitStr").field("bits", &Bits(self)).finish()
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
        let mut text = Vec::with_capacity(self.len);
        self.write_ascii(&mut text);
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

impl st_extmem::Corrupt for BitStr {
    /// Fault-injection damage: flip the bit selected by the entropy. The
    /// empty string (no bit to flip) grows a spurious `1` — still a value
    /// different from the original, as the `Corrupt` contract requires.
    fn corrupted(&self, entropy: u64) -> Self {
        if self.is_empty() {
            let mut one = Self::zeros(1);
            one.flip_bit(0);
            return one;
        }
        let mut c = self.clone();
        c.flip_bit((entropy as usize) % c.len);
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
