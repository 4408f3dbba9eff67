//! Corollary 7: the deterministic sort-based deciders.
//!
//! All three problems reduce to "sort, then one parallel scan":
//!
//! * MULTISET-EQUALITY — sort both lists, compare cell-for-cell;
//! * CHECK-SORT — sort the first list, compare with the second *and*
//!   verify the second is sorted in the same scan;
//! * SET-EQUALITY — sort both lists, compare their deduplicated streams.
//!
//! The sorting engine is the reversal-bounded external merge sort of
//! `st-extmem` (`Θ(log N)` reversals). The paper's Corollary 7 states
//! `ST(O(log N), O(1), 2)` via the Chen–Yap 2-tape O(1)-space sort; our
//! machine uses 4 record-level tapes and buffers `O(1)` *records* — the
//! documented substitution (DESIGN.md) that preserves the measured
//! quantity of interest, the `Θ(log N)` scan count.

use crate::stepper::{drive_to_verdict, SortRoute, SortRouteStepper, Stepper};
use st_core::{ResourceUsage, StError};
use st_problems::Instance;
use st_trace::Tracer;

/// A decider verdict plus its resource accounting.
#[derive(Debug, Clone)]
pub struct DeciderRun {
    /// The verdict.
    pub accepted: bool,
    /// Tape and memory accounting.
    pub usage: ResourceUsage,
}

/// Run one sort route by driving the resumable [`SortRouteStepper`] with
/// an unlimited budget — the batch deciders and the streaming service
/// share this single code path, so their accounting is identical by
/// construction. The stepper takes the instance through
/// [`Stepper::feed_instance`], whose default encodes it and parses the
/// word again at [`Stepper::finish`]; only the fingerprint stepper skips
/// that round trip. The machine traces on `tracer`; the three batch
/// deciders below run untraced.
pub fn run_sort_route(
    inst: &Instance,
    route: SortRoute,
    tracer: &Tracer,
) -> Result<DeciderRun, StError> {
    let mut stepper = SortRouteStepper::new_traced(route, tracer.clone());
    let _ = stepper.feed_instance(inst)?;
    stepper.finish()?;
    drive_to_verdict(&mut stepper)
}

/// Decide MULTISET-EQUALITY deterministically: sort both lists, compare.
pub fn decide_multiset_equality(inst: &Instance) -> Result<DeciderRun, StError> {
    run_sort_route(inst, SortRoute::Multiset, &Tracer::disabled())
}

/// Decide CHECK-SORT deterministically: sort the first list, then one
/// parallel scan checks equality with the second list *and* that the
/// second list is ascending.
pub fn decide_check_sort(inst: &Instance) -> Result<DeciderRun, StError> {
    run_sort_route(inst, SortRoute::CheckSort, &Tracer::disabled())
}

/// Decide SET-EQUALITY deterministically: sort both lists, then compare
/// the deduplicated streams in one parallel scan.
pub fn decide_set_equality(inst: &Instance) -> Result<DeciderRun, StError> {
    run_sort_route(inst, SortRoute::SetEquality, &Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::{generate, predicates};

    fn inst(word: &str) -> Instance {
        Instance::parse(word).unwrap()
    }

    #[test]
    fn multiset_decider_matches_reference() {
        for word in [
            "",
            "0#0#",
            "0#1#1#0#",
            "0#0#1#0#1#1#",
            "01#10#11#11#01#10#",
            "01#01#10#01#10#10#",
        ] {
            let i = inst(word);
            assert_eq!(
                decide_multiset_equality(&i).unwrap().accepted,
                predicates::is_multiset_equal(&i),
                "{word}"
            );
        }
    }

    #[test]
    fn checksort_decider_matches_reference() {
        for word in [
            "",
            "10#01#11#01#10#11#",
            "10#01#11#01#11#10#",
            "10#01#11#00#10#11#",
            "1#0#1#0#1#1#",
            "1#0#1#0#1#0#",
        ] {
            let i = inst(word);
            assert_eq!(
                decide_check_sort(&i).unwrap().accepted,
                predicates::is_check_sorted(&i),
                "{word}"
            );
        }
    }

    #[test]
    fn set_decider_matches_reference() {
        for word in [
            "",
            "0#0#1#0#1#1#", // sets equal, multisets not
            "0#1#1#0#",     // equal
            "0#1#1#1#",     // {0,1} vs {1}
            "00#01#10#00#01#11#",
            "0#0#0#0#",
        ] {
            let i = inst(word);
            assert_eq!(
                decide_set_equality(&i).unwrap().accepted,
                predicates::is_set_equal(&i),
                "{word}"
            );
        }
    }

    #[test]
    fn deciders_agree_with_reference_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(50);
        for _ in 0..40 {
            for i in [
                generate::yes_multiset(9, 5, &mut rng),
                generate::no_multiset_one_bit(9, 5, &mut rng),
                generate::random_instance(7, 3, &mut rng),
                generate::yes_checksort(8, 4, &mut rng),
                generate::no_checksort_sorted_but_wrong(8, 4, &mut rng),
            ] {
                assert_eq!(
                    decide_multiset_equality(&i).unwrap().accepted,
                    predicates::is_multiset_equal(&i)
                );
                assert_eq!(
                    decide_check_sort(&i).unwrap().accepted,
                    predicates::is_check_sorted(&i)
                );
                assert_eq!(
                    decide_set_equality(&i).unwrap().accepted,
                    predicates::is_set_equal(&i)
                );
            }
        }
    }

    #[test]
    fn reversal_count_is_logarithmic_in_m() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut pts = Vec::new();
        for logm in 3..=9 {
            let m = 1usize << logm;
            let i = generate::yes_multiset(m, 8, &mut rng);
            let run = decide_multiset_equality(&i).unwrap();
            pts.push((i.size(), run.usage.total_reversals() as f64));
        }
        let (slope, _, r2) = st_core::math::log_fit(&pts);
        assert!(r2 > 0.98, "not log-shaped: r² = {r2}, {pts:?}");
        assert!(slope > 0.0 && slope < 30.0);
    }

    #[test]
    fn internal_memory_stays_small() {
        let mut rng = StdRng::seed_from_u64(52);
        let i = generate::yes_multiset(256, 8, &mut rng);
        let run = decide_multiset_equality(&i).unwrap();
        assert!(
            run.usage.internal_space <= 256,
            "O(1) records expected, got {} bits",
            run.usage.internal_space
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use st_problems::{predicates, BitStr};

    fn arb_word(max_m: usize, max_n: usize) -> impl Strategy<Value = Instance> {
        proptest::collection::vec(proptest::collection::vec(0u8..2, 0..=max_n), 0..=2 * max_m)
            .prop_map(|mut blocks| {
                if blocks.len() % 2 == 1 {
                    blocks.pop();
                }
                let m = blocks.len() / 2;
                let to_bs = |bits: &Vec<u8>| {
                    BitStr::parse(
                        &bits
                            .iter()
                            .map(|b| char::from(b'0' + b))
                            .collect::<String>(),
                    )
                    .unwrap()
                };
                let xs = blocks[..m].iter().map(to_bs).collect();
                let ys = blocks[m..].iter().map(to_bs).collect();
                Instance::new(xs, ys).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn all_three_deciders_match_reference(i in arb_word(10, 5)) {
            prop_assert_eq!(decide_multiset_equality(&i).unwrap().accepted, predicates::is_multiset_equal(&i));
            prop_assert_eq!(decide_check_sort(&i).unwrap().accepted, predicates::is_check_sorted(&i));
            prop_assert_eq!(decide_set_equality(&i).unwrap().accepted, predicates::is_set_equal(&i));
        }
    }
}
