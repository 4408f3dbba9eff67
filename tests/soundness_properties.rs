//! Property-based soundness checks across layers: randomized inputs,
//! randomized certificates, exact semantics.

use proptest::prelude::*;
use st_lab::algo::nst::verify_multiset_certificate;
use st_lab::problems::{predicates, BitStr, Instance};
use st_lab::query::stream::streaming_set_equality;
use st_trace::Tracer;

fn arb_instance(max_m: usize, max_n: usize) -> impl Strategy<Value = Instance> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u8..2, 0..=max_n),
            proptest::collection::vec(0u8..2, 0..=max_n),
        ),
        0..=max_m,
    )
    .prop_map(|pairs| {
        let to_bs = |bits: &[u8]| {
            BitStr::parse(
                &bits
                    .iter()
                    .map(|b| char::from(b'0' + b))
                    .collect::<String>(),
            )
            .unwrap()
        };
        let xs = pairs.iter().map(|(a, _)| to_bs(a)).collect();
        let ys = pairs.iter().map(|(_, b)| to_bs(b)).collect();
        Instance::new(xs, ys).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The Theorem 8(b) verifier accepts a certificate π exactly when π
    /// maps the first list onto the second: accepted ⟺ π is an in-range
    /// injection with x_i = y_{π(i)} for all i.
    #[test]
    fn nst_verifier_accepts_exactly_valid_certificates(
        inst in arb_instance(5, 4),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let m = inst.m();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A random candidate certificate: sometimes a permutation,
        // sometimes not.
        let pi: Vec<usize> = if seed % 3 == 0 && m > 0 {
            (0..m).map(|_| (rng.next_u64() as usize) % (m + 1)).collect()
        } else {
            let mut p: Vec<usize> = (0..m).collect();
            p.shuffle(&mut rng);
            p
        };
        use rand::RngCore;
        let run = verify_multiset_certificate(&inst, &pi, false, &Tracer::disabled()).unwrap();
        let valid = {
            let mut seen = vec![false; m];
            let injective = pi.iter().all(|&p| {
                p < m && !std::mem::replace(&mut seen[p], true)
            });
            injective && (0..m).all(|i| inst.xs[i] == inst.ys[pi[i]])
        };
        prop_assert_eq!(run.accepted, valid, "pi = {:?} on {}", pi, inst.encode());
        // And the scan budget never varies (the empty instance writes no
        // copies at all, so only the implicit first scan is counted).
        prop_assert_eq!(run.usage.scans(), if m == 0 { 1 } else { 3 });
    }

    /// The streaming evaluator agrees with the reference predicate on
    /// arbitrary instances (including ragged and empty values).
    #[test]
    fn streaming_set_equality_matches_reference(inst in arb_instance(6, 4)) {
        let (got, usage) = streaming_set_equality(&inst, &Tracer::disabled()).unwrap();
        prop_assert_eq!(got, predicates::is_set_equal(&inst), "{}", inst.encode());
        prop_assert!(usage.total_reversals() > 0 || inst.m() <= 1);
    }

    /// Certificate verification is permutation-covariant: relabeling the
    /// second list by a permutation σ turns a valid certificate π into
    /// the valid certificate σ∘… — concretely, shuffling ys and composing
    /// keeps acceptance.
    #[test]
    fn nst_verifier_is_permutation_covariant(
        values in proptest::collection::vec(proptest::collection::vec(0u8..2, 1..4), 1..5),
        seed in 0u64..500,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let to_bs = |bits: &[u8]| {
            BitStr::parse(&bits.iter().map(|b| char::from(b'0' + b)).collect::<String>()).unwrap()
        };
        let xs: Vec<BitStr> = values.iter().map(|v| to_bs(v)).collect();
        let m = xs.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..m).collect();
        order.shuffle(&mut rng);
        // ys[order[i]] = xs[i] ⟹ certificate π = order is valid.
        let mut ys = xs.clone();
        for (i, &o) in order.iter().enumerate() {
            ys[o] = xs[i].clone();
        }
        let inst = Instance::new(xs, ys).unwrap();
        let run = verify_multiset_certificate(&inst, &order, false, &Tracer::disabled()).unwrap();
        prop_assert!(run.accepted);
    }
}
