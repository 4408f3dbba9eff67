//! The byte-level word codec against the per-bit text path it replaced.
//!
//! `BitStr` and `Instance` write and read the `{0,1,#}` alphabet as a
//! byte map. These properties keep a reference copy of the old
//! formatting (one `write!` per bit) and the old `chars()` parser and
//! pin the byte codec to them: same bytes out, same values back, same
//! error text for the same bad input.

use proptest::prelude::*;
use st_core::StError;
use st_problems::instance::write_values;
use st_problems::{BitStr, Instance};
use std::fmt::Write;

/// The old `Display`: one `write!` per bit.
fn reference_value(v: &BitStr) -> String {
    let mut out = String::new();
    for b in v.iter() {
        write!(out, "{b}").unwrap();
    }
    out
}

/// The old `Instance::encode`: each value through the per-bit writer,
/// then `#`.
fn reference_word(inst: &Instance) -> String {
    let mut out = String::new();
    for v in inst.xs.iter().chain(inst.ys.iter()) {
        out.push_str(&reference_value(v));
        out.push('#');
    }
    out
}

/// The old `BitStr::parse`: a `chars()` walk naming the first bad char.
fn reference_parse(s: &str) -> Result<Vec<u8>, String> {
    s.chars()
        .map(|c| match c {
            '0' => Ok(0),
            '1' => Ok(1),
            other => Err(format!("bitstring contains {other:?}, expected 0/1")),
        })
        .collect()
}

fn bits(v: &BitStr) -> Vec<u8> {
    v.iter().collect()
}

fn value(raw: &[u8]) -> BitStr {
    let text: String = raw.iter().map(|&b| char::from(b'0' + b)).collect();
    BitStr::parse(&text).unwrap()
}

fn instance(pairs: &[(Vec<u8>, Vec<u8>)]) -> Instance {
    Instance::new(
        pairs.iter().map(|(x, _)| value(x)).collect(),
        pairs.iter().map(|(_, y)| value(y)).collect(),
    )
    .unwrap()
}

fn invalid(e: StError) -> String {
    match e {
        StError::InvalidInstance(msg) => msg,
        other => panic!("expected InvalidInstance, got {other:?}"),
    }
}

/// A value string that is mostly bits with the occasional junk char,
/// multi-byte ones included.
fn near_bits() -> impl Strategy<Value = String> {
    let symbol = prop_oneof![
        Just('0'),
        Just('1'),
        Just('0'),
        Just('1'),
        Just('#'),
        Just('é'),
        Just('\u{3000}'),
        any::<char>(),
    ];
    proptest::collection::vec(symbol, 0..12).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encoder_matches_the_per_bit_reference_byte_for_byte(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=1, 0..10), proptest::collection::vec(0u8..=1, 0..10)),
            0..8,
        ),
    ) {
        let inst = instance(&pairs);
        let reference = reference_word(&inst);
        prop_assert_eq!(inst.encode(), reference.clone());
        prop_assert_eq!(inst.encode_bytes(), reference.clone().into_bytes());
        prop_assert_eq!(inst.to_string(), reference.clone());
        let mut appended = b"prefix".to_vec();
        write_values(&mut appended, inst.xs.iter().chain(inst.ys.iter()));
        prop_assert_eq!(&appended[6..], reference.as_bytes());
        for v in inst.xs.iter().chain(inst.ys.iter()) {
            let mut out = Vec::new();
            v.write_ascii(&mut out);
            prop_assert_eq!(out, reference_value(v).into_bytes());
            prop_assert_eq!(v.to_string(), reference_value(v));
        }
    }

    #[test]
    fn parse_inverts_encode(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=1, 0..10), proptest::collection::vec(0u8..=1, 0..10)),
            0..8,
        ),
    ) {
        let inst = instance(&pairs);
        prop_assert_eq!(Instance::parse(&inst.encode()).unwrap(), inst.clone());
        prop_assert_eq!(Instance::parse_bytes(&inst.encode_bytes()).unwrap(), inst.clone());
        for v in inst.xs.iter().chain(inst.ys.iter()) {
            let mut out = Vec::new();
            v.write_ascii(&mut out);
            prop_assert_eq!(&BitStr::parse_bytes(&out).unwrap(), v);
        }
    }

    #[test]
    fn parser_agrees_with_the_chars_reference_on_junk(s in near_bits()) {
        let got = BitStr::parse(&s).map(|v| bits(&v)).map_err(invalid);
        prop_assert_eq!(got.clone(), reference_parse(&s));
        let from_bytes = BitStr::parse_bytes(s.as_bytes()).map(|v| bits(&v)).map_err(invalid);
        prop_assert_eq!(from_bytes, got);
    }
}

#[test]
fn empty_values_and_the_double_hash_round_trip() {
    for word in ["", "##", "####", "#0##1#", "0##1##", "01#10#10#01#"] {
        let inst = Instance::parse(word).unwrap();
        assert_eq!(inst.encode(), word);
        assert_eq!(inst.encode(), reference_word(&inst));
        assert_eq!(Instance::parse_bytes(word.as_bytes()).unwrap(), inst);
    }
    let inst = Instance::parse("##").unwrap();
    assert_eq!((inst.m(), inst.xs[0].len(), inst.ys[0].len()), (1, 0, 0));
    assert_eq!(BitStr::parse_bytes(b"").unwrap(), BitStr::empty());
    assert_eq!(BitStr::empty().to_string(), "");
}

#[test]
fn bad_symbols_inside_a_value_are_named_as_chars() {
    for (word, shown) in [
        ("01#0a1#", "'a'"),
        ("01#0é1#", "'é'"),
        ("01#0\u{3000}1#", "'\\u{3000}'"),
    ] {
        let expect = format!("bitstring contains {shown}, expected 0/1");
        assert_eq!(
            invalid(Instance::parse(word).unwrap_err()),
            expect,
            "{word:?}"
        );
        assert_eq!(
            invalid(Instance::parse_bytes(word.as_bytes()).unwrap_err()),
            expect,
            "{word:?}"
        );
        let value = &word[3..word.len() - 1];
        assert_eq!(invalid(BitStr::parse(value).unwrap_err()), expect);
        assert_eq!(reference_parse(value), Err(expect));
    }
}

#[test]
fn bytes_that_are_not_utf8_are_named_as_bytes() {
    assert_eq!(
        invalid(BitStr::parse_bytes(b"01\xff").unwrap_err()),
        "bitstring contains byte 0xff, expected 0/1"
    );
    // A torn two-byte sequence: the lead byte of 'é' without its tail.
    assert_eq!(
        invalid(BitStr::parse_bytes(b"0\xc3").unwrap_err()),
        "bitstring contains byte 0xc3, expected 0/1"
    );
    assert_eq!(
        invalid(Instance::parse_bytes(b"0#1\x80#").unwrap_err()),
        "bitstring contains byte 0x80, expected 0/1"
    );
    // `2` and every non-bit ASCII byte are still named as chars.
    assert_eq!(
        invalid(BitStr::parse_bytes(b"2").unwrap_err()),
        "bitstring contains '2', expected 0/1"
    );
}

#[test]
fn malformed_words_keep_their_errors() {
    assert_eq!(
        invalid(Instance::parse_bytes(b"01#10").unwrap_err()),
        "input word must end with '#'"
    );
    assert_eq!(
        invalid(Instance::parse_bytes(b"01#10#11#").unwrap_err()),
        "odd number of blocks (3) — cannot split into two lists"
    );
}
