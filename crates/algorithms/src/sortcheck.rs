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
use st_extmem::block;
use st_extmem::meter::bits_for;
use st_extmem::tape::Tape;
use st_extmem::TapeMachine;
use st_problems::{BitStr, Instance};

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
/// construction.
fn run_sort_route(inst: &Instance, route: SortRoute) -> Result<DeciderRun, StError> {
    let mut stepper = SortRouteStepper::new(route);
    let _ = stepper.feed(&inst.encode_bytes())?;
    stepper.finish()?;
    drive_to_verdict(&mut stepper)
}

/// Decide MULTISET-EQUALITY deterministically: sort both lists, compare.
pub fn decide_multiset_equality(inst: &Instance) -> Result<DeciderRun, StError> {
    run_sort_route(inst, SortRoute::Multiset)
}

/// Decide CHECK-SORT deterministically: sort the first list, then one
/// parallel scan checks equality with the second list *and* that the
/// second list is ascending.
pub fn decide_check_sort(inst: &Instance) -> Result<DeciderRun, StError> {
    run_sort_route(inst, SortRoute::CheckSort)
}

/// Decide SET-EQUALITY deterministically: sort both lists, then compare
/// the deduplicated streams in one parallel scan.
pub fn decide_set_equality(inst: &Instance) -> Result<DeciderRun, StError> {
    run_sort_route(inst, SortRoute::SetEquality)
}

/// Block-oriented [`decide_multiset_equality`]: the same machine layout
/// and bit-for-bit the same verdict, [`ResourceUsage`] and trace stream,
/// but every sort pass and compare scan moves records in `block_len`
/// slices via [`st_extmem::block`] instead of one cell per call.
pub fn decide_multiset_equality_block(
    inst: &Instance,
    block_len: usize,
) -> Result<DeciderRun, StError> {
    run_sort_route_block(inst, SortRoute::Multiset, block_len)
}

/// Block-oriented [`decide_check_sort`] (see
/// [`decide_multiset_equality_block`]).
pub fn decide_check_sort_block(inst: &Instance, block_len: usize) -> Result<DeciderRun, StError> {
    run_sort_route_block(inst, SortRoute::CheckSort, block_len)
}

/// Block-oriented [`decide_set_equality`] (see
/// [`decide_multiset_equality_block`]).
pub fn decide_set_equality_block(inst: &Instance, block_len: usize) -> Result<DeciderRun, StError> {
    run_sort_route_block(inst, SortRoute::SetEquality, block_len)
}

/// The block-path twin of [`run_sort_route`]: builds the identical
/// 4-tape machine (input, second, scratch1, scratch2), sorts via
/// [`block::merge_sort`] (pinned to the stepper's pass/charge/trace
/// sequence) and runs the route's compare scan through the zero-copy
/// slice API with the per-cell path's exact accounting.
fn run_sort_route_block(
    inst: &Instance,
    route: SortRoute,
    block_len: usize,
) -> Result<DeciderRun, StError> {
    assert!(block_len > 0, "block length must be positive");
    let n = inst.size();
    let mut machine = TapeMachine::with_input_traced(inst.xs.clone(), n, st_trace::current());
    machine.add_tape_with("second", inst.ys.clone());
    machine.add_tape("scratch1");
    machine.add_tape("scratch2");
    block::merge_sort(&mut machine, 0, 2, 3, block_len)?;
    let meter = machine.meter().clone();
    let accepted = match route {
        SortRoute::Multiset => {
            block::merge_sort(&mut machine, 1, 2, 3, block_len)?;
            let (a, b) = machine.pair_mut(0, 1);
            block::tapes_equal(a, b, &meter, block_len)
        }
        SortRoute::CheckSort => {
            // The *second* list is the one checked for sortedness, so it
            // is the `a` argument (and rewinds/reads first).
            let (second, first) = machine.pair_mut(1, 0);
            let (equal, sorted) = block::compare_sorted(second, first, &meter, block_len);
            equal && sorted
        }
        SortRoute::SetEquality => {
            block::merge_sort(&mut machine, 1, 2, 3, block_len)?;
            // The batch dedup compare holds its frontier charge until
            // after the usage snapshot; finish inside the helper.
            return set_equality_compare_block(machine, block_len);
        }
    };
    let usage = machine.usage();
    Ok(DeciderRun { accepted, usage })
}

/// Read the next record (if any) through the zero-copy API with the
/// exact accounting of `read_fwd`: one head move per record, the
/// trailing end-of-tape probe free.
fn next_record(t: &mut Tape<BitStr>) -> Option<BitStr> {
    let s = t.peek_slice(1);
    if s.is_empty() {
        return None;
    }
    let v = s[0].clone();
    t.advance_fwd(1);
    Some(v)
}

/// Advance past duplicates of `x` in `block_len` chunks, returning the
/// first differing record (the cell path's read-ahead) or `None` at the
/// end of the tape.
fn skip_duplicates(t: &mut Tape<BitStr>, x: &BitStr, block_len: usize) -> Option<BitStr> {
    loop {
        let s = t.peek_slice(block_len);
        if s.is_empty() {
            return None;
        }
        match s.iter().position(|v| v != x) {
            Some(k) => {
                let v = s[k].clone();
                t.advance_fwd(k + 1);
                return Some(v);
            }
            None => {
                let len = s.len();
                t.advance_fwd(len);
            }
        }
    }
}

/// The SET-EQUALITY dedup compare over sorted tapes 0/1, block-at-a-time
/// but move-for-move the incremental stepper's scan: rewinds, frontier
/// charge, one read-ahead per tape, skip runs of duplicates, early exit
/// on the first frontier mismatch. Batch order: the usage snapshot
/// precedes the frontier-charge release.
fn set_equality_compare_block(
    mut machine: TapeMachine<BitStr>,
    block_len: usize,
) -> Result<DeciderRun, StError> {
    let n = machine.input_len();
    let meter = machine.meter().clone();
    let charge;
    let mut equal = true;
    {
        let (a, b) = machine.pair_mut(0, 1);
        a.rewind();
        b.rewind();
        charge = meter.charge(2 + bits_for(n.max(2) as u64));
        let mut cur_a = next_record(a);
        let mut cur_b = next_record(b);
        loop {
            match (cur_a.take(), cur_b.take()) {
                (Some(x), Some(y)) => {
                    if x != y {
                        equal = false;
                        break;
                    }
                    cur_a = skip_duplicates(a, &x, block_len);
                    cur_b = skip_duplicates(b, &x, block_len);
                }
                (ca, cb) => {
                    if ca.is_some() || cb.is_some() {
                        equal = false;
                    }
                    break;
                }
            }
        }
    }
    let usage = machine.usage();
    drop(charge);
    Ok(DeciderRun {
        accepted: equal,
        usage,
    })
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
    fn block_deciders_are_bit_for_bit_the_cell_deciders() {
        type CellFn = fn(&Instance) -> Result<DeciderRun, StError>;
        type BlockFn = fn(&Instance, usize) -> Result<DeciderRun, StError>;
        let routes: [(CellFn, BlockFn); 3] = [
            (decide_multiset_equality, decide_multiset_equality_block),
            (decide_check_sort, decide_check_sort_block),
            (decide_set_equality, decide_set_equality_block),
        ];
        let mut rng = StdRng::seed_from_u64(53);
        let mut instances = vec![
            inst(""),
            inst("0#0#"),
            inst("0#0#1#0#1#1#"),
            inst("10#01#11#01#11#10#"),
            inst("0#0#0#0#"),
        ];
        for _ in 0..6 {
            instances.push(generate::yes_multiset(9, 5, &mut rng));
            instances.push(generate::no_multiset_one_bit(9, 5, &mut rng));
            instances.push(generate::random_instance(7, 3, &mut rng));
            instances.push(generate::yes_checksort(8, 4, &mut rng));
        }
        for i in &instances {
            for (cell, block) in routes {
                let (tr_cell, buf_cell) = st_trace::Tracer::in_memory();
                let cell_run = st_trace::scoped(tr_cell.clone(), || cell(i)).unwrap();
                for blk in [1usize, 2, 3, 7, 64, 4096] {
                    let (tr_blk, buf_blk) = st_trace::Tracer::in_memory();
                    let blk_run = st_trace::scoped(tr_blk, || block(i, blk)).unwrap();
                    assert_eq!(cell_run.accepted, blk_run.accepted, "verdict blk={blk}");
                    assert_eq!(cell_run.usage, blk_run.usage, "usage blk={blk}");
                    assert_eq!(
                        buf_cell.snapshot(),
                        buf_blk.snapshot(),
                        "trace stream diverged at blk={blk}"
                    );
                }
            }
        }
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
