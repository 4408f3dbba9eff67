//! Reversal-bounded external merge sort.
//!
//! The engine behind the paper's upper bounds: Corollary 7 (deciding
//! CHECK-SORT / (MULTI)SET-EQUALITY deterministically), Corollary 10
//! (sorting), and Theorem 11(a) (each relational-algebra operator = a
//! constant number of scans and sorts).
//!
//! [`merge_sort`] is the classic balanced 3-tape merge sort — the one
//! sort engine of the workspace, shared by the batch deciders, the
//! serving steppers and the MPC workers: each pass
//! distributes the current runs to two scratch tapes and merges pairs
//! back, doubling the run length; `⌈log₂ m⌉` passes, a constant number of
//! reversals per pass, hence `Θ(log m) = Θ(log N)` reversals total — the
//! exact shape Theorem 6 proves necessary.

use crate::machine::TapeMachine;
use crate::step::{SortStepper, StepBudget};
use st_core::{ResourceUsage, StError};
use st_trace::Tracer;

/// Sort the contents of tape `data_idx` of `machine` in place, using tapes
/// `scratch1_idx` and `scratch2_idx` as the merge scratch space.
///
/// Reversal cost: at most `12·⌈log₂ m⌉ + O(1)` reversals across the
/// three tapes (each pass pays up to a rewind + turn-around on each tape
/// in both phases), where `m` is the number of records. Internal memory:
/// a constant number of record buffers and counters.
///
/// This is the batch entry point of the resumable
/// [`SortStepper`](crate::step::SortStepper): it drives the stepper
/// with an unlimited [`StepBudget`], so a batch sort and an incremental
/// one perform the identical operation sequence by construction. The
/// passes run the block kernels `Distribute` and `Merge` of
/// [`crate::block`]; under a fault plan the tapes hand them one
/// cell at a time, so fault dice fall exactly where per-cell passes put
/// them.
pub fn merge_sort<S: Clone + Ord>(
    machine: &mut TapeMachine<S>,
    data_idx: usize,
    scratch1_idx: usize,
    scratch2_idx: usize,
) -> Result<(), StError> {
    let mut stepper = SortStepper::new(data_idx, scratch1_idx, scratch2_idx);
    let mut budget = StepBudget::unlimited();
    while !stepper.step(machine, &mut budget)?.is_done() {}
    Ok(())
}

/// Sort `items`, reporting the sorted sequence plus the full resource
/// usage of the 3-tape machine that produced it. `input_len` is the
/// Definition-1 input size `N` the usage record should carry (pass the
/// symbol count of the encoded instance; for standalone use,
/// `items.len()` is acceptable). The machine traces on `tracer`.
///
/// ```
/// use st_extmem::sort::sort_with_usage;
/// use st_trace::Tracer;
///
/// let (sorted, usage) = sort_with_usage(vec![3, 1, 4, 1, 5], 5, &Tracer::disabled())?;
/// assert_eq!(sorted, vec![1, 1, 3, 4, 5]);
/// // Θ(log N) reversals: at most 12·⌈log₂ 5⌉ + 12.
/// assert!(usage.total_reversals() <= 12 * 3 + 12);
/// # Ok::<(), st_core::StError>(())
/// ```
pub fn sort_with_usage<S: Clone + Ord>(
    items: Vec<S>,
    input_len: usize,
    tracer: &Tracer,
) -> Result<(Vec<S>, ResourceUsage), StError> {
    let mut machine = TapeMachine::with_input(items, input_len, tracer.clone());
    let s1 = machine.add_tape("scratch1");
    let s2 = machine.add_tape("scratch2");
    merge_sort(&mut machine, 0, s1, s2)?;
    let out = machine.tape(0).snapshot();
    Ok((out, machine.usage()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sorts(items: Vec<i64>) {
        let mut expect = items.clone();
        expect.sort();
        let (got, usage) =
            sort_with_usage(items, expect.len().max(1), &Tracer::disabled()).unwrap();
        assert_eq!(got, expect);
        assert_eq!(usage.external_tapes, 3);
    }

    #[test]
    fn sorts_basic_sequences() {
        check_sorts(vec![]);
        check_sorts(vec![42]);
        check_sorts(vec![2, 1]);
        check_sorts(vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]);
        check_sorts((0..100).rev().collect());
        check_sorts(vec![7; 50]);
    }

    #[test]
    fn reversal_count_grows_logarithmically() {
        // Reversals per pass are bounded by a constant; passes = ceil(log2 m).
        let mut samples = Vec::new();
        for logm in 4..=12 {
            let m = 1usize << logm;
            let items: Vec<i64> = (0..m as i64).rev().collect();
            let (_, usage) = sort_with_usage(items, m, &Tracer::disabled()).unwrap();
            samples.push((m, usage.total_reversals() as f64));
        }
        let (slope, _b, r2) = st_core::math::log_fit(&samples);
        assert!(r2 > 0.99, "reversals not log-linear: r² = {r2}");
        // Each pass costs at most 12 reversals (rewind + turn-around on
        // each of 3 tapes, twice per pass), so the slope sits in (0, 12].
        assert!(
            slope > 0.5 && slope <= 12.5,
            "slope {slope} out of the Θ(log N) band"
        );
    }

    #[test]
    fn reversals_bounded_by_constant_times_log() {
        for logm in 1..=12 {
            let m = 1usize << logm;
            let items: Vec<i64> = (0..m as i64).rev().collect();
            let (_, usage) = sort_with_usage(items, m, &Tracer::disabled()).unwrap();
            assert!(
                usage.total_reversals() <= 12 * logm as u64 + 12,
                "m=2^{logm}: {} reversals exceeds 12·log m + 12",
                usage.total_reversals()
            );
        }
    }

    #[test]
    fn internal_memory_stays_constant_in_m() {
        // The meter charges record buffers and counters; the high-water
        // mark must not grow with m beyond the log-sized counters.
        let mut highs = Vec::new();
        for logm in 4..=10 {
            let m = 1usize << logm;
            let items: Vec<i64> = (0..m as i64).rev().collect();
            let (_, usage) = sort_with_usage(items, m, &Tracer::disabled()).unwrap();
            highs.push(usage.internal_space);
        }
        let max = *highs.iter().max().unwrap();
        assert!(max <= 256, "internal memory {max} bits is not O(log N)-ish");
    }

    #[test]
    fn sorting_is_deterministic_on_duplicates() {
        let items = vec![(2, 'a'), (1, 'b'), (2, 'c'), (1, 'd')];
        let (got1, _) = sort_with_usage(items.clone(), 4, &Tracer::disabled()).unwrap();
        let (got2, _) = sort_with_usage(items, 4, &Tracer::disabled()).unwrap();
        assert_eq!(got1, got2);
        assert!(got1.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn merge_sort_agrees_with_std_sort(mut items in proptest::collection::vec(any::<i32>(), 0..300)) {
            let (got, _) = sort_with_usage(items.clone(), items.len().max(1), &Tracer::disabled()).unwrap();
            items.sort();
            prop_assert_eq!(got, items);
        }

        #[test]
        fn reversals_within_twelve_log_m(items in proptest::collection::vec(any::<u8>(), 2..400)) {
            let m = items.len();
            let (_, usage) = sort_with_usage(items, m, &Tracer::disabled()).unwrap();
            let logm = (m as f64).log2().ceil() as u64;
            prop_assert!(usage.total_reversals() <= 12 * logm + 12);
        }
    }

    #[test]
    fn run_len_growth_terminates_under_saturation() {
        // The width-narrowing audit for `SortStepper` (step.rs): the
        // pass loop grows run_len by `saturating_mul(2)` against
        // `run_len < m`. Walk the exact growth sequence for worst-case m
        // on both 32- and 64-bit-shaped bounds, at factor 2 and wider,
        // and prove it reaches a fixpoint ≥ m in ≤ ⌈log_k m⌉ + 1 steps —
        // i.e. saturation can never make the `while run_len < m` loop
        // spin.
        for m in [usize::MAX, usize::MAX - 1, u32::MAX as usize] {
            for k in [2usize, 3, 5] {
                let mut run_len = 1usize;
                let mut passes = 0u32;
                while run_len < m {
                    let next = run_len.saturating_mul(k);
                    assert!(next > run_len, "growth stalled at {run_len} (k={k})");
                    run_len = next;
                    passes += 1;
                    assert!(passes <= usize::BITS + 1, "pass loop failed to terminate");
                }
                assert!(run_len >= m);
            }
        }
    }
}
