//! `Instance::parse_bytes` against the split-based parser.
//!
//! A well-formed word parses in one pass: one validation fold, then a
//! SWAR walk from `#` to `#` (bit 4 is clear in `#`, and also in NUL,
//! space, `"`, `A` and `0x80`, so the walk is only right on validated
//! bytes). Every other word falls back to the split-based parser. The
//! reference below is that parser, kept here as it was: the parsed
//! instance and every error text must match it on valid words, on each
//! kind of malformed word, and on words with bytes the SWAR walk would
//! mistake for `#`.

use proptest::prelude::*;
use st_core::StError;
use st_problems::{BitStr, Instance};

/// The split-based parser: split the body at every `#`, then parse each
/// block.
fn reference_parse(word: &[u8]) -> Result<Instance, StError> {
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

fn assert_parses_like_the_reference(word: &[u8]) {
    let got = Instance::parse_bytes(word).map_err(|e| e.to_string());
    let want = reference_parse(word).map_err(|e| e.to_string());
    assert_eq!(got, want, "word {:?}", String::from_utf8_lossy(word));
}

/// A value length: short, around the word boundaries, or the 511 bits
/// of the fingerprint workload.
fn value_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=130, Just(511)]
}

/// A value as its bit length and the seed its bits are drawn from.
type Value = (usize, u64);

/// A `{0,1,#}` word of `pairs` values, the first of each pair in the
/// first list.
fn word_of(pairs: &[(Value, Value)]) -> Vec<u8> {
    let mut word = Vec::new();
    let values = pairs
        .iter()
        .map(|(x, _)| x)
        .chain(pairs.iter().map(|(_, y)| y));
    for &(len, seed) in values {
        let mut state = seed | 1;
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            word.push(b'0' + (state & 1) as u8);
        }
        word.push(b'#');
    }
    word
}

fn pairs() -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec(
        ((value_len(), any::<u64>()), (value_len(), any::<u64>())),
        0..=300,
    )
}

/// Bytes outside `{0,1,#}`: those with bit 4 clear (which the SWAR walk
/// would read as `#`), other ASCII, a UTF-8 lead byte and bytes that are
/// never UTF-8.
const BAD: [u8; 10] = [0, b' ', b'"', b'A', 0x80, b'a', b'2', 0xc3, 0xff, b'/'];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_words_parse_like_the_reference(pairs in pairs()) {
        let word = word_of(&pairs);
        assert_parses_like_the_reference(&word);
        let inst = Instance::parse_bytes(&word).unwrap();
        prop_assert_eq!(inst.encode_bytes(), word);
    }

    #[test]
    fn malformed_words_fail_like_the_reference(
        pairs in pairs(),
        cut in any::<usize>(),
        extra in (value_len(), any::<u64>()),
    ) {
        let word = word_of(&pairs);
        // No final `#`: cut anywhere inside the last block, or drop it.
        if let Some(end) = word.len().checked_sub(1) {
            assert_parses_like_the_reference(&word[..end]);
            let at = cut % word.len();
            if word[at] != b'#' {
                assert_parses_like_the_reference(&word[..=at]);
            }
        }
        // An odd block count: one value too many.
        let mut odd = word.clone();
        odd.extend_from_slice(&word_of(&[(extra, extra)])[..=extra.0]);
        assert_parses_like_the_reference(&odd);
    }

    #[test]
    fn bad_bytes_in_either_list_fail_like_the_reference(
        pairs in proptest::collection::vec(
            ((value_len(), any::<u64>()), (value_len(), any::<u64>())),
            1..=40,
        ),
        at in any::<usize>(),
        bad in 0usize..BAD.len(),
        second_list in any::<bool>(),
        replace in any::<bool>(),
    ) {
        let mut word = word_of(&pairs);
        // Aim at the first or the second half of the word, so the bad
        // byte sits in an xs value or in a ys value.
        let half = word.len() / 2;
        let pos = if second_list { half + at % (word.len() - half) } else { at % half.max(1) };
        if replace {
            word[pos] = BAD[bad];
        } else {
            word.insert(pos, BAD[bad]);
        }
        assert_parses_like_the_reference(&word);
    }
}

#[test]
fn edge_words_parse_like_the_reference() {
    let words: [&[u8]; 20] = [
        b"",
        b"#",
        b"##",
        b"###",
        b"####",
        b"0",
        b"01",
        b"0#1",
        b"0#1#",
        b"0#1#0",
        b"01#10#10#",
        b"#0##1#",
        b"0 #1#",
        b"0#1 #",
        b"\0#1#",
        b"0#\"#",
        b"A#A#",
        b"0#\x80#",
        b"\xff#0#",
        b"0#1#0#1#0#1#0#1#0#1#0#1#0#1#0#1#",
    ];
    for word in words {
        assert_parses_like_the_reference(word);
    }
    // Each bad byte at every position of a word longer than one SWAR
    // group, in both lists; the ones with bit 4 clear read as `#` to a
    // walk that skips validation.
    let word = b"0110100111#1000011110#1111100000#0000011111#";
    for bad in BAD {
        for pos in 0..word.len() {
            let mut w = word.to_vec();
            w[pos] = bad;
            assert_parses_like_the_reference(&w);
        }
    }
    // Non-UTF-8 input: a torn multi-byte char in a value.
    assert_parses_like_the_reference("0é#1#".as_bytes());
    assert_parses_like_the_reference(&"0é#1#".as_bytes()[..2]);
    assert_parses_like_the_reference(b"0\xc3#1#");
}
