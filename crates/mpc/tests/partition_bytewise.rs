//! `hash_partition` folds eight FNV steps into one table lookup per
//! byte of the packed record. This pins it to the definition, one step
//! per bit read through `BitStr::iter`, over every length up to 300
//! bits plus the byte, word and inline edges, across seeds and `p`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_mpc::hash_partition;
use st_problems::BitStr;

/// Lengths past 300 and on both sides of a byte, a word and the
/// 128-bit inline limit.
const EDGE_LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 511];

/// The per-bit FNV-1a the routing is defined by.
fn per_bit(seed: u64, record: &BitStr, p: usize) -> usize {
    let p = p.max(1);
    let prime = 0x0000_0100_0000_01b3u64;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    h = (h ^ record.len() as u64).wrapping_mul(prime);
    for bit in record.iter() {
        h = (h ^ u64::from(bit)).wrapping_mul(prime);
    }
    (h % p as u64) as usize
}

fn random_record(len: usize, rng: &mut StdRng) -> BitStr {
    let text: String = (0..len)
        .map(|_| if rng.gen_range(0..2u8) == 1 { '1' } else { '0' })
        .collect();
    BitStr::parse(&text).unwrap()
}

/// Worker counts: one, small, a power of two, and large enough that
/// the reduction keeps most of the hash.
const WORKERS: [usize; 6] = [0, 1, 3, 8, 1_000_003, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytewise_hash_routes_like_the_per_bit_hash(seed in any::<u64>(), draw in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(draw);
        let lengths = (0..=300).chain(EDGE_LENGTHS);
        for len in lengths {
            let record = random_record(len, &mut rng);
            for p in WORKERS {
                prop_assert_eq!(
                    hash_partition(seed, &record, p),
                    per_bit(seed, &record, p),
                    "seed {:#x}, {} bits, p {}",
                    seed,
                    len,
                    p
                );
            }
        }
    }
}

#[test]
fn all_ones_and_all_zeros_route_like_the_per_bit_hash() {
    // Constant records walk the table's two rows in lockstep with the
    // low bit of h: zeros keep it, ones flip it every step.
    for len in (0..=300).chain(EDGE_LENGTHS) {
        for bit in ['0', '1'] {
            let record = BitStr::parse(&bit.to_string().repeat(len)).unwrap();
            for seed in [0, 1, 0x2a, 0x51ed_c0de, u64::MAX] {
                for p in WORKERS {
                    assert_eq!(
                        hash_partition(seed, &record, p),
                        per_bit(seed, &record, p),
                        "seed {seed:#x}, {len} × {bit}, p {p}"
                    );
                }
            }
        }
    }
}
