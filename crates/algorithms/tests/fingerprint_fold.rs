//! The Theorem 8(a) residue-fold kernel against a per-bit reference.
//!
//! [`ResidueFold`] absorbs up to 64 bits per modular step, finds `#`
//! eight bytes at a time and raises `x` with a Montgomery ladder. The
//! reference here does none of that: [`lsb_first_mod`] walks each value
//! bit by bit and `x^e mod p₂` is a plain `u128` square-and-multiply.
//! Words, slice boundaries and moduli are random, weighted toward the
//! kernel's edges: value lengths around its 64-bit groups, one-symbol
//! slices, `p₁ = 2`, and `p₂ > 2⁶³`, where Montgomery reduction takes
//! its carry branch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_algo::fingerprint::{lsb_first_mod, ResidueFold};
use st_algo::FingerprintParams;
use st_core::math::{mul_mod, next_prime};
use st_core::StError;

/// Value lengths on both sides of the 64-bit groups.
const EDGE_LENGTHS: [usize; 7] = [63, 64, 65, 127, 128, 129, 511];

/// `p₁`: the even prime, small primes, and primes near 2⁵⁷ and 2⁶¹.
fn p1_choices() -> Vec<u64> {
    vec![
        2,
        3,
        5,
        7,
        13,
        257,
        65_521,
        next_prime((1 << 57) - 64),
        next_prime(1 << 57),
        (1 << 61) - 1,
        next_prime(1 << 61),
    ]
}

/// `p₂`: small, mid-range, and above 2⁶³ (up to the largest `u64`
/// prime).
fn p2_choices() -> Vec<u64> {
    vec![
        5,
        7,
        11,
        1_000_000_007,
        next_prime(1 << 62),
        next_prime(1 << 63),
        next_prime(3 << 62),
        u64::MAX - 58,
    ]
}

/// `x^e mod m` by the plain `u128` ladder.
fn slow_pow(mut x: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1 % m;
    x %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, x, m);
        }
        x = mul_mod(x, x, m);
        e >>= 1;
    }
    acc
}

/// The fold by definition: every value closed by a `#` contributes
/// `x^(v mod p₁) mod p₂`, the rightmost `second_half` of them to the
/// second sum. Bits after the last `#` close no value.
fn reference(word: &[u8], params: FingerprintParams, second_half: u64) -> (u64, u64) {
    let mut values: Vec<&[u8]> = word.split(|&b| b == b'#').collect();
    values.pop();
    let (mut first, mut second) = (0u128, 0u128);
    for (i, value) in values.iter().rev().enumerate() {
        let lsb_first: Vec<u8> = value.iter().rev().map(|&b| b - b'0').collect();
        let e = lsb_first_mod(&lsb_first, params.p1);
        let term = u128::from(slow_pow(params.x, e, params.p2));
        let sum = if (i as u64) < second_half {
            &mut second
        } else {
            &mut first
        };
        *sum = (*sum + term) % u128::from(params.p2);
    }
    (first as u64, second as u64)
}

/// A random word of `{0,1,#}`: values of random or edge lengths, each
/// closed by `#`, sometimes followed by stray bits with no `#`.
fn random_word(rng: &mut StdRng) -> (Vec<u8>, u64) {
    let values = rng.gen_range(0..=10u64);
    let mut word = Vec::new();
    for _ in 0..values {
        let len = if rng.gen_range(0..3) == 0 {
            EDGE_LENGTHS[rng.gen_range(0..EDGE_LENGTHS.len())]
        } else {
            rng.gen_range(0..=300)
        };
        word.extend((0..len).map(|_| b'0' + rng.gen_range(0..2u8)));
        word.push(b'#');
    }
    if rng.gen_range(0..4) == 0 {
        let stray = rng.gen_range(1..=70);
        word.extend((0..stray).map(|_| b'0' + rng.gen_range(0..2u8)));
    }
    (word, values)
}

/// Fold `word` from right to left in random slices; the longest slice
/// is chosen per run, down to one symbol.
fn fold_in_slices(
    word: &[u8],
    params: FingerprintParams,
    second_half: u64,
    rng: &mut StdRng,
) -> (u64, u64) {
    let longest = [1usize, 2, 7, 9, 64, 65, 512, 4096][rng.gen_range(0..8)];
    let mut fold = ResidueFold::new(params, second_half);
    let mut end = word.len();
    while end > 0 {
        let len = rng.gen_range(1..=longest).min(end);
        fold.fold(&word[end - len..end]).unwrap();
        end -= len;
    }
    fold.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_the_per_bit_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p1s, p2s) = (p1_choices(), p2_choices());
        let (word, values) = random_word(&mut rng);
        let p2 = p2s[rng.gen_range(0..p2s.len())];
        let params = FingerprintParams {
            k: 0,
            p1: p1s[rng.gen_range(0..p1s.len())],
            p2,
            x: rng.gen_range(1..p2),
        };
        let second_half = rng.gen_range(0..=values + 1);
        let want = reference(&word, params, second_half);
        prop_assert_eq!(
            fold_in_slices(&word, params, second_half, &mut rng),
            want,
            "word={:?} params={:?} second_half={}",
            String::from_utf8_lossy(&word),
            params,
            second_half
        );
    }

    #[test]
    fn slice_boundaries_do_not_change_the_sums(seed in any::<u64>()) {
        // One word, one parameter tuple: one-symbol slices, the whole
        // word at once and random slices all agree.
        let mut rng = StdRng::seed_from_u64(seed);
        let (word, values) = random_word(&mut rng);
        let params = FingerprintParams {
            k: 0,
            p1: next_prime(1 << 57),
            p2: u64::MAX - 58,
            x: rng.gen_range(1..u64::MAX - 58),
        };
        let second_half = values / 2;
        let mut whole = ResidueFold::new(params, second_half);
        whole.fold(&word).unwrap();
        let mut single = ResidueFold::new(params, second_half);
        for symbol in word.rchunks(1) {
            single.fold(symbol).unwrap();
        }
        let whole = whole.finish();
        prop_assert_eq!(single.finish(), whole);
        prop_assert_eq!(fold_in_slices(&word, params, second_half, &mut rng), whole);
    }
}

#[test]
fn empty_slices_and_words_fold_to_zero() {
    let params = FingerprintParams {
        k: 2,
        p1: 2,
        p2: 7,
        x: 1,
    };
    let mut fold = ResidueFold::new(params, 0);
    fold.fold(b"").unwrap();
    assert_eq!(fold.finish(), (0, 0));
}

#[test]
fn symbols_outside_the_alphabet_are_typed_errors() {
    let params = FingerprintParams {
        k: 0,
        p1: 3,
        p2: 7,
        x: 2,
    };
    for (slice, bad) in [(&b"01x#"[..], 'x'), (b"0101010101#2", '2'), (b"\n", '\n')] {
        let mut fold = ResidueFold::new(params, 0);
        match fold.fold(slice) {
            Err(StError::InvalidInstance(msg)) => {
                assert_eq!(msg, format!("unexpected tape symbol {bad:?}"));
            }
            other => panic!("{slice:?}: {other:?}"),
        }
    }
}
