//! Golden routing for the Q′ hash-join shuffle: `(seed, record, p) →
//! worker` for records whose lengths straddle the 64-bit word and the
//! 128-bit inline edges of the packed `BitStr`. The hash is FNV-1a over
//! the record's length and then its bits one at a time; a rewrite that
//! hashed storage words instead would re-route MPC shards, and these
//! values (taken from the per-bit implementation) catch it.

use st_mpc::hash_partition;
use st_problems::BitStr;

/// A fixed, non-periodic-looking record of `len` bits.
fn record(len: usize) -> BitStr {
    let text: String = (0..len)
        .map(|i| {
            if (i * 7 + len).is_multiple_of(3) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    BitStr::parse(&text).unwrap()
}

/// `(seed, record length, [worker at p = 3, 8, 1_000_003])`.
const GOLDEN: [(u64, usize, [usize; 3]); 18] = [
    (0x0, 0, [0, 7, 563408]),
    (0x0, 1, [1, 4, 908466]),
    (0x0, 32, [0, 2, 429399]),
    (0x0, 64, [2, 2, 700154]),
    (0x0, 65, [1, 6, 841676]),
    (0x0, 129, [2, 1, 601475]),
    (0x2a, 0, [2, 5, 310315]),
    (0x2a, 1, [1, 6, 881154]),
    (0x2a, 32, [1, 0, 126444]),
    (0x2a, 64, [2, 0, 870841]),
    (0x2a, 65, [1, 0, 335910]),
    (0x2a, 129, [1, 3, 552148]),
    // The Q′ shuffle's own seed.
    (0x51ed_c0de, 0, [2, 1, 242132]),
    (0x51ed_c0de, 1, [2, 2, 129826]),
    (0x51ed_c0de, 32, [0, 4, 925997]),
    (0x51ed_c0de, 64, [2, 4, 312949]),
    (0x51ed_c0de, 65, [2, 4, 58296]),
    (0x51ed_c0de, 129, [2, 7, 293380]),
];

#[test]
fn hash_partition_routes_to_the_pinned_workers() {
    for (seed, len, want) in GOLDEN {
        let r = record(len);
        let got = [3usize, 8, 1_000_003].map(|p| hash_partition(seed, &r, p));
        assert_eq!(got, want, "seed {seed:#x}, record of {len} bits");
    }
}
