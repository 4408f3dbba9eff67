//! The whole Theorem 6 story in one test: the Lemma 21 adversary's
//! fooling input, converted to a word-level instance, is rejected by
//! every *correct* decider in the workspace — while the bounded-scan
//! list machine accepted it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::algo::{nst, sortcheck};
use st_lab::lm::adversary::{find_fooling_input, WordFamily};
use st_lab::lm::library::one_scan_matcher;
use st_lab::problems::{perm::phi, predicates};
use st_lab::query::relalg::{evaluate, instance_database, sym_diff_query};
use st_lab::query::xquery::run_theorem12;
use st_trace::Tracer;

#[test]
fn fooling_input_fools_only_the_bounded_scan_machine() {
    let m = 8usize;
    let fam = WordFamily::new(m, 12).unwrap();
    let nlm = one_scan_matcher(m, phi(m));
    let mut rng = StdRng::seed_from_u64(2006);
    let res = find_fooling_input(&nlm, &fam, &mut rng, 24, &Tracer::disabled()).unwrap();

    // The bounded-scan machine says YES…
    assert!(res.run_u.accepted());
    assert!(res.run_u.scans() <= 2, "within its o(log N) scan budget");

    // …but the input is a genuine no-instance, and every Θ(log N)-scan
    // decider in the workspace correctly says NO.
    let inst = fam.to_instance(&res.u).unwrap();
    assert!(!predicates::is_set_equal(&inst));
    assert!(!predicates::is_multiset_equal(&inst));
    assert!(!predicates::is_check_sorted(&inst));

    let det = sortcheck::decide_multiset_equality(&inst).unwrap();
    assert!(!det.accepted, "Corollary 7 decider rejects");
    assert!(
        det.usage.scans() > res.run_u.scans(),
        "…at a higher scan price"
    );

    let cs = sortcheck::decide_check_sort(&inst).unwrap();
    assert!(!cs.accepted);

    // Even the "natural" certificate φ fails the NST verifier (m = 8 is
    // beyond the exhaustive-search guard, and on the CHECK-φ instance
    // space no certificate can exist for a no-instance).
    let cert =
        nst::verify_multiset_certificate(&inst, &phi(m), false, &Tracer::disabled()).unwrap();
    assert!(
        !cert.accepted,
        "the φ certificate must fail on a no-instance"
    );

    // The query layer agrees (Theorems 11 and 12 reductions).
    let (q, _) = evaluate(
        &sym_diff_query("R1", "R2"),
        &instance_database(&inst),
        &Tracer::disabled(),
    )
    .unwrap();
    assert!(!q.is_empty(), "symmetric difference is nonempty");
    assert!(!run_theorem12(&inst).unwrap().contains("<true>"));
}

#[test]
fn yes_instances_pass_everywhere() {
    // Control: a yes-instance of the same family is accepted by the
    // bounded machine AND by every decider.
    let m = 8usize;
    let fam = WordFamily::new(m, 12).unwrap();
    let mut rng = StdRng::seed_from_u64(2007);
    let input = fam.sample_yes(&mut rng);
    let inst = fam.to_instance(&input).unwrap();
    assert!(predicates::is_set_equal(&inst));
    assert!(sortcheck::decide_multiset_equality(&inst).unwrap().accepted);
    assert!(sortcheck::decide_check_sort(&inst).unwrap().accepted);
    let (q, _) = evaluate(
        &sym_diff_query("R1", "R2"),
        &instance_database(&inst),
        &Tracer::disabled(),
    )
    .unwrap();
    assert!(q.is_empty());
    assert!(run_theorem12(&inst).unwrap().contains("<true>"));
}
