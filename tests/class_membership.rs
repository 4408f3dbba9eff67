//! Integration: measured algorithm runs witness the paper's class
//! memberships through `st_core::ClassSpec`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::algo::{fingerprint, nst, sortcheck};
use st_lab::core::{Bound, ClassSpec, ErrorSide, TapeCount};
use st_lab::problems::generate;
use st_trace::Tracer;

#[test]
fn fingerprint_witnesses_theorem8a_class() {
    let mut rng = StdRng::seed_from_u64(100);
    let spec = ClassSpec::theorem8a();
    for logm in 3..=8 {
        let inst = generate::yes_multiset(1 << logm, 14, &mut rng);
        let run = fingerprint::decide_multiset_equality(&inst, &mut rng).unwrap();
        let check = spec.check_usage(&run.usage);
        assert!(
            check.within_bounds(),
            "N={}: {:?}",
            inst.size(),
            check.violations
        );
    }
}

#[test]
fn nst_verifier_witnesses_theorem8b_class() {
    let mut rng = StdRng::seed_from_u64(101);
    let spec = ClassSpec::theorem8b();
    for m in [2usize, 4, 6] {
        let inst = generate::yes_multiset(m, 6, &mut rng);
        let id: Vec<usize> = (0..m).collect();
        let run = nst::verify_multiset_certificate(&inst, &id, false, &Tracer::disabled()).unwrap();
        let check = spec.check_usage(&run.usage);
        assert!(check.within_bounds(), "m={m}: {:?}", check.violations);
    }
}

#[test]
fn sort_decider_witnesses_a_log_scan_class() {
    // Our engine uses 4 record-level tapes and O(1) record buffers; the
    // scan budget is the Corollary 7 shape.
    let mut rng = StdRng::seed_from_u64(102);
    let spec = ClassSpec::st(
        Bound::Log {
            mul: 16.0,
            add: 32.0,
        },
        Bound::Const(512),
        TapeCount::Exactly(4),
    );
    for logm in 3..=9 {
        let inst = generate::yes_multiset(1 << logm, 12, &mut rng);
        let run = sortcheck::decide_multiset_equality(&inst).unwrap();
        let check = spec.check_usage(&run.usage);
        assert!(
            check.within_bounds(),
            "N={}: {:?}",
            inst.size(),
            check.violations
        );
    }
}

#[test]
fn error_side_semantics_match_measured_frequencies() {
    let mut rng = StdRng::seed_from_u64(103);
    let yes = generate::yes_multiset(10, 10, &mut rng);
    let no = generate::no_multiset_one_bit(10, 10, &mut rng);
    let p_yes =
        fingerprint::acceptance_frequency(&yes, 150, &mut rng, &Tracer::disabled()).unwrap();
    let p_no = fingerprint::acceptance_frequency(&no, 300, &mut rng, &Tracer::disabled()).unwrap();
    // The fingerprint decider is the co-RST side: never a false negative.
    assert!(
        ErrorSide::NoFalseNegatives.admits(p_yes, p_no),
        "p_yes={p_yes}, p_no={p_no}"
    );
    // And it is NOT an RST-side machine (it does make false positives on
    // *some* instance; admitting would require p_no == 0 — tolerate the
    // rare sample where no false positive occurred).
    if p_no > 0.0 {
        assert!(!ErrorSide::NoFalsePositives.admits(p_yes, p_no));
    }
}

#[test]
fn theorem6_class_rejects_nothing_we_built_but_flags_the_gap() {
    // No algorithm in the workspace solves (multi)set equality within the
    // excluded class RST(o(log N), O(⁴√N/log N), O(1)) *with the RST
    // error side* — the deterministic decider busts the scan budget at
    // large N, as Theorem 6 demands.
    let mut rng = StdRng::seed_from_u64(104);
    let excluded = ClassSpec::theorem6_excluded(4);
    assert!(excluded.theorem6_applies());
    let inst = generate::yes_multiset(1 << 10, 16, &mut rng);
    let det = sortcheck::decide_multiset_equality(&inst).unwrap();
    assert!(
        !excluded.check_usage(&det.usage).within_bounds(),
        "a Θ(log N)-scan run cannot sit inside an o(log N)-scan class"
    );
}
