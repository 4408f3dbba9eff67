//! Golden values of the seed tree: every fuzz iteration, serve session
//! RNG and perfbench input descends from `derive_seed`, so `corpus/`
//! replays depend on these staying bit-identical.

use st_conformance::prng::derive_seed;

#[test]
fn derive_seed_matches_the_golden_values() {
    let got = [
        derive_seed(0, "iter", 0),
        derive_seed(7, "session-rng", 3),
        derive_seed(u64::MAX, "", u64::MAX),
    ];
    assert_eq!(
        got,
        [
            0x7032_9987_6708_782e,
            0x9043_e124_3167_c485,
            0xea8b_3a55_487a_6e94
        ]
    );
}
