//! Cross-crate integration: the Turing machine substrate, the list
//! machine simulation, and the algorithm layer must all agree on shared
//! instances.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::algo::{fingerprint, nst, sortcheck};
use st_lab::lm::run::run_with_choices;
use st_lab::lm::simulate::{simulate_tm, tm_input_word};
use st_lab::problems::{generate, predicates, Instance};
use st_lab::tm::library as tmlib;
use st_lab::tm::run::run_deterministic;
use st_trace::Tracer;

/// The deterministic TM for string equality, its Lemma 16 NLM simulation,
/// and the m = 1 multiset decider all answer identically.
#[test]
fn tm_nlm_and_algorithms_agree_on_string_equality() {
    let tm = tmlib::strings_equal_machine();
    for (a, b) in [
        (0b1010u64, 0b1010u64),
        (0b1010, 0b1011),
        (0, 0),
        (0b1111, 0b0000),
    ] {
        let n = 4usize;
        // TM verdict.
        let tm_run =
            run_deterministic(&tm, tm_input_word(&[a, b], n), 1 << 20, &Tracer::disabled())
                .unwrap();
        // NLM (Lemma 16 simulation) verdict.
        let sim = simulate_tm(&tm, 2, n, 1, 1 << 20).unwrap();
        let lm_run = run_with_choices(
            &sim.nlm,
            &[a, b],
            &vec![0; 1 << 13],
            1 << 13,
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(sim.take_error().is_none());
        // Algorithm-layer verdict on the same word as an m=1-pair instance.
        let inst = Instance::parse(&format!(
            "{}#{}#",
            st_lab::problems::BitStr::from_value(a as u128, n).unwrap(),
            st_lab::problems::BitStr::from_value(b as u128, n).unwrap()
        ))
        .unwrap();
        let det = sortcheck::decide_multiset_equality(&inst).unwrap();
        let expected = a == b;
        assert_eq!(tm_run.accepted(), expected, "TM on ({a:04b},{b:04b})");
        assert_eq!(lm_run.accepted(), expected, "NLM on ({a:04b},{b:04b})");
        assert_eq!(det.accepted, expected, "decider on ({a:04b},{b:04b})");
    }
}

/// Every decision layer agrees with the reference predicates on a shared
/// random instance pool.
#[test]
fn all_deciders_agree_with_reference_semantics() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..25 {
        for inst in [
            generate::yes_multiset(6, 5, &mut rng),
            generate::no_multiset_one_bit(6, 5, &mut rng),
            generate::random_instance(5, 4, &mut rng),
        ] {
            let truth = predicates::is_multiset_equal(&inst);
            // Deterministic sort-based decider.
            assert_eq!(
                sortcheck::decide_multiset_equality(&inst).unwrap().accepted,
                truth
            );
            // NST exhaustive certificate search.
            assert_eq!(
                nst::exists_certificate(&inst, false, &Tracer::disabled()).unwrap(),
                truth
            );
            // Fingerprint: completeness always; soundness only one-sided,
            // so we can only assert the yes-direction.
            if truth {
                assert!(
                    fingerprint::decide_multiset_equality(&inst, &mut rng)
                        .unwrap()
                        .accepted
                );
            }
        }
    }
}

/// One-sided error direction is preserved end to end: the fingerprint
/// never rejects a yes-instance, in 200 randomized attempts across
/// instances.
#[test]
fn fingerprint_completeness_is_never_violated() {
    let mut rng = StdRng::seed_from_u64(78);
    for _ in 0..200 {
        let m = 1 + (rand::Rng::gen_range(&mut rng, 0..12usize));
        let n = 1 + (rand::Rng::gen_range(&mut rng, 0..10usize));
        let inst = generate::yes_multiset(m, n, &mut rng);
        assert!(
            fingerprint::decide_multiset_equality(&inst, &mut rng)
                .unwrap()
                .accepted
        );
    }
}
