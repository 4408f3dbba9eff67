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
//!
//! [`multiway_merge_sort`] generalizes to `k` scratch-tape pairs for the
//! ablation study (`log_k m` passes at `Θ(k)` reversals each).

use crate::machine::TapeMachine;
use crate::meter::{bits_for, MemoryMeter};
use crate::step::{SortStepper, StepBudget};
use st_core::{ResourceUsage, StError};
use st_trace::TraceEvent;

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
/// `items.len()` is acceptable).
///
/// ```
/// use st_extmem::sort::sort_with_usage;
///
/// let (sorted, usage) = sort_with_usage(vec![3, 1, 4, 1, 5], 5)?;
/// assert_eq!(sorted, vec![1, 1, 3, 4, 5]);
/// // Θ(log N) reversals: at most 12·⌈log₂ 5⌉ + 12.
/// assert!(usage.total_reversals() <= 12 * 3 + 12);
/// # Ok::<(), st_core::StError>(())
/// ```
pub fn sort_with_usage<S: Clone + Ord>(
    items: Vec<S>,
    input_len: usize,
) -> Result<(Vec<S>, ResourceUsage), StError> {
    let mut machine = TapeMachine::with_input(items, input_len);
    let s1 = machine.add_tape("scratch1");
    let s2 = machine.add_tape("scratch2");
    merge_sort(&mut machine, 0, s1, s2)?;
    let out = machine.tape(0).snapshot();
    Ok((out, machine.usage()))
}

/// `k`-way balanced merge sort for the ablation experiment: distributes
/// runs round-robin onto `k ≥ 2` scratch tapes and merges all `k` streams
/// per pass (`⌈log_k m⌉` passes). Returns the sorted data on tape
/// `data_idx`.
pub fn multiway_merge_sort<S: Clone + Ord>(
    machine: &mut TapeMachine<S>,
    data_idx: usize,
    scratch_idxs: &[usize],
) -> Result<(), StError> {
    let k = scratch_idxs.len();
    assert!(
        k >= 2,
        "multiway merge sort needs at least two scratch tapes"
    );
    let meter = machine.meter().clone();
    let m = machine.tape(data_idx).len();
    if m <= 1 {
        return Ok(());
    }
    let tracer = machine.tracer().clone();
    let mut run_len = 1usize;
    while run_len < m {
        tracer.emit(|| TraceEvent::PhaseBegin {
            name: format!("{k}-way pass run_len={run_len}"),
        });
        distribute_k(machine, data_idx, scratch_idxs, run_len, &meter)?;
        merge_k(machine, scratch_idxs, data_idx, run_len, &meter)?;
        tracer.emit(|| TraceEvent::PhaseEnd {
            name: format!("{k}-way pass run_len={run_len}"),
        });
        // Saturating by design: on a 32-bit usize the final pass of a
        // near-usize::MAX-record sort would overflow `run_len * k`;
        // saturation pins run_len at usize::MAX ≥ m so the `while
        // run_len < m` guard still terminates (pinned by the
        // `run_len_growth_terminates_under_saturation` test).
        run_len = run_len.saturating_mul(k);
    }
    Ok(())
}

/// Round-robin distribute runs of `run_len` from `src` to the `k` scratch
/// tapes.
fn distribute_k<S: Clone>(
    machine: &mut TapeMachine<S>,
    src_idx: usize,
    outs: &[usize],
    run_len: usize,
    meter: &MemoryMeter,
) -> Result<(), StError> {
    machine.tape_mut(src_idx).rewind();
    for &o in outs {
        machine.tape_mut(o).reset_for_overwrite();
    }
    let _buf = meter.charge(1 + bits_for(run_len as u64));
    let mut which = 0usize;
    let mut in_run = 0usize;
    loop {
        let x = match machine.tape_mut(src_idx).read_fwd() {
            Some(x) => x,
            None => break,
        };
        machine.tape_mut(outs[which]).write_fwd(x)?;
        in_run += 1;
        if in_run == run_len {
            in_run = 0;
            which = (which + 1) % outs.len();
        }
    }
    Ok(())
}

/// Merge groups of `k` runs (one per scratch tape) back onto `out`.
fn merge_k<S: Clone + Ord>(
    machine: &mut TapeMachine<S>,
    ins: &[usize],
    out_idx: usize,
    run_len: usize,
    meter: &MemoryMeter,
) -> Result<(), StError> {
    let k = ins.len();
    for &i in ins {
        machine.tape_mut(i).rewind();
    }
    machine.tape_mut(out_idx).reset_for_overwrite();
    // k record buffers + k run counters.
    let _buf = meter.charge(k as u64 * (1 + bits_for(run_len as u64)));

    let mut bufs: Vec<Option<S>> = Vec::with_capacity(k);
    let mut left: Vec<usize> = Vec::with_capacity(k);
    for &i in ins {
        let b = machine.tape_mut(i).read_fwd();
        left.push(if b.is_some() { run_len } else { 0 });
        bufs.push(b);
    }
    loop {
        // Merge one group of ≤ k runs.
        loop {
            let mut best: Option<(usize, &S)> = None;
            for (i, buf) in bufs.iter().enumerate() {
                let Some(cur) = buf.as_ref() else { continue };
                if left[i] == 0 {
                    continue;
                }
                match best {
                    Some((_, smallest)) if smallest <= cur => {}
                    _ => best = Some((i, cur)),
                }
            }
            let Some((i, _)) = best else { break };
            let rec = bufs[i]
                .take()
                .ok_or_else(|| StError::Machine("k-way merge selected an empty buffer".into()))?;
            machine.tape_mut(out_idx).write_fwd(rec)?;
            left[i] -= 1;
            if left[i] > 0 {
                bufs[i] = machine.tape_mut(ins[i]).read_fwd();
                if bufs[i].is_none() {
                    left[i] = 0;
                }
            }
        }
        // Refill for the next group.
        let mut any = false;
        for i in 0..k {
            if bufs[i].is_none() {
                bufs[i] = machine.tape_mut(ins[i]).read_fwd();
            }
            left[i] = if bufs[i].is_some() { run_len } else { 0 };
            any |= bufs[i].is_some();
        }
        if !any {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sorts(items: Vec<i64>) {
        let mut expect = items.clone();
        expect.sort();
        let (got, usage) = sort_with_usage(items, expect.len().max(1)).unwrap();
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
            let (_, usage) = sort_with_usage(items, m).unwrap();
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
            let (_, usage) = sort_with_usage(items, m).unwrap();
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
            let (_, usage) = sort_with_usage(items, m).unwrap();
            highs.push(usage.internal_space);
        }
        let max = *highs.iter().max().unwrap();
        assert!(max <= 256, "internal memory {max} bits is not O(log N)-ish");
    }

    #[test]
    fn multiway_sort_matches_two_way() {
        for k in [2usize, 3, 4, 8] {
            let items: Vec<i64> = (0..200).map(|i| (i * 7919) % 211).collect();
            let mut expect = items.clone();
            expect.sort();
            let mut machine = TapeMachine::with_input(items, 200);
            let scratch: Vec<usize> = (0..k).map(|i| machine.add_tape(format!("s{i}"))).collect();
            multiway_merge_sort(&mut machine, 0, &scratch).unwrap();
            assert_eq!(machine.tape(0).snapshot(), expect, "k = {k}");
        }
    }

    #[test]
    fn more_tapes_means_fewer_passes() {
        let items: Vec<i64> = (0..1024).rev().collect();
        let mut revs = Vec::new();
        for k in [2usize, 4, 8] {
            let mut machine = TapeMachine::with_input(items.clone(), 1024);
            let scratch: Vec<usize> = (0..k).map(|i| machine.add_tape(format!("s{i}"))).collect();
            multiway_merge_sort(&mut machine, 0, &scratch).unwrap();
            revs.push(machine.usage().total_reversals());
        }
        // log_4(1024) = 5 passes vs log_2(1024) = 10: the 4-tape machine
        // must win. At k = 8 the per-pass cost (Θ(k) rewinds) starts to
        // eat the saved passes — the crossover the ablation bench plots —
        // so we only require it not to blow up.
        assert!(
            revs[1] <= revs[0],
            "4-tape {} vs 2-tape {}",
            revs[1],
            revs[0]
        );
        assert!(
            revs[2] <= 2 * revs[0],
            "8-tape {} vs 2-tape {}",
            revs[2],
            revs[0]
        );
    }

    #[test]
    fn sorting_is_deterministic_on_duplicates() {
        let items = vec![(2, 'a'), (1, 'b'), (2, 'c'), (1, 'd')];
        let (got1, _) = sort_with_usage(items.clone(), 4).unwrap();
        let (got2, _) = sort_with_usage(items, 4).unwrap();
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
            let (got, _) = sort_with_usage(items.clone(), items.len().max(1)).unwrap();
            items.sort();
            prop_assert_eq!(got, items);
        }

        #[test]
        fn multiway_sort_agrees_with_std_sort(
            mut items in proptest::collection::vec(any::<i16>(), 0..200),
            k in 2usize..6,
        ) {
            let mut machine = TapeMachine::with_input(items.clone(), items.len().max(1));
            let scratch: Vec<usize> = (0..k).map(|i| machine.add_tape(format!("s{i}"))).collect();
            multiway_merge_sort(&mut machine, 0, &scratch).unwrap();
            items.sort();
            prop_assert_eq!(machine.tape(0).snapshot(), items);
        }

        #[test]
        fn reversals_within_twelve_log_m(items in proptest::collection::vec(any::<u8>(), 2..400)) {
            let m = items.len();
            let (_, usage) = sort_with_usage(items, m).unwrap();
            let logm = (m as f64).log2().ceil() as u64;
            prop_assert!(usage.total_reversals() <= 12 * logm + 12);
        }
    }

    #[test]
    fn run_len_growth_terminates_under_saturation() {
        // The width-narrowing audit for sort.rs:104 / step.rs: the pass
        // loop grows run_len by `saturating_mul(k)` against `run_len <
        // m`. Walk the exact growth sequence for worst-case m on both
        // 32- and 64-bit-shaped bounds and prove it reaches a fixpoint
        // ≥ m in ≤ ⌈log_k m⌉ + 1 steps — i.e. saturation can never make
        // the `while run_len < m` loop spin.
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
