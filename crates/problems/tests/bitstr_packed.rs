//! The packed `BitStr` against a reference model: a `Vec<u8>` holding
//! one byte per bit, whose derived `Ord`/`Eq` is the order the packed
//! words must reproduce (lexicographic, a proper prefix first). Every
//! operation is checked against the model at random lengths 0..=300 and,
//! exhaustively, at the word and spill edges 0/1/63/64/65/127/128/129/511
//! and every pair of them.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_core::StError;
use st_extmem::Corrupt;
use st_problems::BitStr;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The word and inline/spill edges of the packed layout.
const EDGES: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 300, 511];

/// How the second string of a pair relates to the first.
const RELATIONS: u8 = 6;

fn random_bits(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| (rng.gen::<u64>() & 1) as u8).collect()
}

/// A string related to `a` by `relation`: independent, a prefix, an
/// extension, one bit flipped, equal, or extended by zeros — the last is
/// the case where real zero bits meet the other string's zero padding.
fn related(a: &[u8], relation: u8, len: usize, seed: u64) -> Vec<u8> {
    let mut b = a.to_vec();
    match relation {
        0 => return random_bits(len, seed),
        1 => b.truncate(len),
        2 => b.extend(random_bits(len, seed)),
        3 if !b.is_empty() => {
            let i = (seed as usize) % b.len();
            b[i] ^= 1;
        }
        5 => b.resize(a.len() + len, 0),
        _ => {}
    }
    b
}

fn text(model: &[u8]) -> Vec<u8> {
    model.iter().map(|&b| b'0' + b).collect()
}

fn packed(model: &[u8]) -> BitStr {
    BitStr::parse_bytes(&text(model)).unwrap()
}

fn hash_of(v: &BitStr) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The model's numeric value, for `len ≤ 128`.
fn value(model: &[u8]) -> u128 {
    model.iter().fold(0, |acc, &b| (acc << 1) | u128::from(b))
}

fn check_pair(a: &[u8], b: &[u8]) {
    let (pa, pb) = (packed(a), packed(b));
    let what = format!("{} vs {}", pa, pb);
    assert_eq!(pa.cmp(&pb), a.cmp(b), "Ord: {what}");
    assert_eq!(pa.partial_cmp(&pb), Some(a.cmp(b)), "PartialOrd: {what}");
    assert_eq!(pa == pb, a == b, "Eq: {what}");
    if pa == pb {
        assert_eq!(hash_of(&pa), hash_of(&pb), "Hash: {what}");
    }
    assert_eq!(pa.has_prefix(&pb), a.starts_with(b), "has_prefix: {what}");
    assert_eq!(pa.concat(&pb), packed(&[a, b].concat()), "concat: {what}");
}

fn check_one(a: &[u8], seed: u64) {
    let v = packed(a);
    let len = a.len();
    assert_eq!(v.len(), len);
    assert_eq!(v.is_empty(), len == 0);
    assert_eq!(v, v.clone());
    assert_eq!(v.iter().collect::<Vec<_>>(), a);
    assert!((0..len).all(|i| v.bit(i) == a[i]));

    // Codec: the exact text, appended after what the buffer holds.
    let mut out = b"#".to_vec();
    v.write_ascii(&mut out);
    assert_eq!(out[1..], text(a)[..]);
    assert_eq!(v.to_string().as_bytes(), &text(a)[..]);
    assert_eq!(BitStr::parse(&v.to_string()).unwrap(), v);

    // Numeric conversions.
    if len <= 128 {
        assert_eq!(v.to_value().unwrap(), value(a));
        assert_eq!(BitStr::from_value(value(a), len).unwrap(), v);
    } else {
        assert_eq!(
            v.to_value(),
            Err(StError::InvalidInstance(format!(
                "bitstring of length {len} exceeds the u128 fast path"
            )))
        );
        let low = &a[len - 128..];
        let mut padded = vec![0u8; len - 128];
        padded.extend_from_slice(low);
        assert_eq!(
            BitStr::from_value(value(low), len).unwrap(),
            packed(&padded)
        );
    }

    // Slices at every word offset near the ends and one drawn by seed.
    let cut = (seed as usize) % (len + 1);
    let mut bounds = vec![(0, len), (0, cut), (cut, len), (cut, cut)];
    for from in [1usize, 63, 64, 65] {
        if from <= len {
            bounds.push((from, len));
            bounds.push((from, from + (len - from) / 2));
        }
    }
    for (from, to) in bounds {
        assert_eq!(
            v.slice(from, to),
            packed(&a[from..to]),
            "slice [{from}, {to})"
        );
    }

    for n in [0, len, len + 1, len + 63, len + 64, len + 65, 130] {
        let mut want = vec![0u8; n.saturating_sub(len)];
        want.extend_from_slice(a);
        assert_eq!(v.pad_left(n), packed(&want), "pad_left({n})");
    }

    if len > 0 {
        for i in [0, len - 1, cut % len] {
            let mut flipped = v.clone();
            flipped.flip_bit(i);
            let mut want = a.to_vec();
            want[i] ^= 1;
            assert_eq!(flipped, packed(&want), "flip_bit({i})");
        }
    }

    // Corruption flips bit `entropy mod len`; the empty string grows a 1.
    let c = v.corrupted(seed);
    assert_ne!(c, v);
    if len == 0 {
        assert_eq!(c, packed(&[1]));
    } else {
        assert_eq!(c.len(), len);
        let mut want = a.to_vec();
        want[(seed as usize) % len] ^= 1;
        assert_eq!(c, packed(&want));
    }
}

/// Bad bytes and how the parse error names them.
const BAD: [(&[u8], &str); 7] = [
    (b"2", "'2'"),
    (b"#", "'#'"),
    (b" ", "' '"),
    (b"\n", "'\\n'"),
    ("é".as_bytes(), "'é'"),
    (&[0xff], "byte 0xff"),
    (&[0xc3], "byte 0xc3"),
];

fn check_parse_error(a: &[u8], seed: u64) {
    let at = (seed as usize) % (a.len() + 1);
    for (bad, named) in BAD {
        let mut word = text(a);
        word.splice(at..at, bad.iter().copied());
        assert_eq!(
            BitStr::parse_bytes(&word),
            Err(StError::InvalidInstance(format!(
                "bitstring contains {named}, expected 0/1"
            ))),
            "bad {bad:?} at {at} of {}",
            a.len()
        );
    }
}

fn length() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=300, (0usize..EDGES.len()).prop_map(|i| EDGES[i])]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pairs_order_hash_prefix_and_concat_like_the_model(
        la in length(),
        lb in length(),
        relation in 0u8..RELATIONS,
        seed in any::<u64>(),
    ) {
        let a = random_bits(la, seed);
        let b = related(&a, relation, lb, seed ^ 0x9e37);
        check_pair(&a, &b);
        check_pair(&b, &a);
    }

    #[test]
    fn single_strings_encode_convert_and_edit_like_the_model(
        len in length(),
        seed in any::<u64>(),
    ) {
        let a = random_bits(len, seed);
        check_one(&a, seed);
        check_parse_error(&a, seed);
    }
}

#[test]
fn every_pair_of_edge_lengths_in_every_relation() {
    for (k, &la) in EDGES.iter().enumerate() {
        let a = random_bits(la, k as u64);
        check_one(&a, 7 * k as u64 + 3);
        check_one(&vec![1; la], k as u64);
        check_parse_error(&a, k as u64);
        for &lb in &EDGES {
            for relation in 0..RELATIONS {
                let b = related(&a, relation, lb, lb as u64);
                check_pair(&a, &b);
                check_pair(&b, &a);
            }
        }
    }
}

#[test]
fn bit_access_past_the_end_panics_instead_of_reading_padding() {
    for &len in &EDGES {
        let v = packed(&random_bits(len, 5));
        for i in [len, len + 1, len.div_ceil(64) * 64, len + 64] {
            assert!(catch_unwind(|| v.bit(i)).is_err(), "bit({i}) of {len}");
            let mut w = v.clone();
            assert!(
                catch_unwind(AssertUnwindSafe(|| w.flip_bit(i))).is_err(),
                "flip_bit({i}) of {len}"
            );
        }
    }
}

#[test]
fn a_record_is_at_most_four_words() {
    assert!(std::mem::size_of::<BitStr>() <= 32);
}
