//! Bounded-step resumable execution over a [`TapeMachine`].
//!
//! The serving layer multiplexes many sessions onto few worker threads,
//! so a long-running tape algorithm must be able to *yield*: run a
//! bounded batch of head operations, hand the thread back, and resume
//! later exactly where it stopped. [`StepBudget`] is the batch
//! allowance and [`SortStepper`] is the reversal-bounded merge sort of
//! [`crate::sort`] as a resumable state machine over the block kernels
//! `Distribute` and `Merge` of [`crate::block`].
//!
//! The stepper is **the** sort implementation — [`crate::sort::merge_sort`]
//! drives it with an unlimited budget — so batch and incremental runs
//! perform bit-for-bit the same tape operations, memory charges and
//! trace events by construction. Each kernel call moves one slice
//! capped by the remaining budget, at one unit per record moved and one
//! per scan boundary, so every budget yields at the same points.

use crate::block::{Distribute, Merge, DEFAULT_BLOCK};
use crate::machine::TapeMachine;
use crate::meter::{bits_for, MemoryCharge};
use st_core::StError;
use st_trace::TraceEvent;

/// An allowance of micro-operations for one [`SortStepper::step`] call
/// (one record moved, one scan boundary crossed ≈ one unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBudget {
    remaining: u64,
}

impl StepBudget {
    /// A budget of `units` micro-operations.
    #[must_use]
    pub fn new(units: u64) -> Self {
        StepBudget { remaining: units }
    }

    /// An effectively infinite budget (batch mode).
    #[must_use]
    pub fn unlimited() -> Self {
        StepBudget {
            remaining: u64::MAX,
        }
    }

    /// Consume one unit; `false` when the budget is exhausted.
    pub fn take(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }

    /// Consume up to `max` units; returns how many were actually taken
    /// (0 when the budget is exhausted). The block-oriented steppers use
    /// this to charge a whole slice of micro-operations at once while
    /// keeping yield points exactly where the per-cell loop would stop.
    pub fn take_up_to(&mut self, max: u64) -> u64 {
        let n = self.remaining.min(max);
        self.remaining -= n;
        n
    }

    /// Units left.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

/// What a bounded step call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepProgress {
    /// The budget ran out mid-computation; call again to resume.
    Yielded,
    /// The computation is complete.
    Done,
}

impl StepProgress {
    /// `true` iff the computation is complete.
    #[must_use]
    pub fn is_done(self) -> bool {
        matches!(self, StepProgress::Done)
    }
}

/// One pass of the balanced merge sort is a distribute scan followed by
/// a merge scan; the stepper holds the running kernel and its RAII memory
/// charge between yields — *not* the machine — so several steppers could
/// in principle time-share one machine's scratch space (they do not
/// today; one session owns one machine).
enum Phase<S> {
    /// Decide whether another pass is needed; open it if so.
    NextPass,
    /// Mid-distribute: alternating runs from `data` onto the scratch
    /// tapes.
    Distribute {
        scan: Distribute,
        _charge: MemoryCharge,
    },
    /// Mid-merge: pairing runs from the scratch tapes back onto `data`.
    Merge {
        scan: Merge<S>,
        _charge: MemoryCharge,
    },
    /// Sorted; further steps are no-ops.
    Done,
}

/// The balanced 3-tape merge sort of [`crate::sort::merge_sort`] as a
/// resumable state machine: `step` advances by at most
/// `budget.remaining()` micro-operations and reports whether it
/// yielded or finished.
///
/// ```
/// use st_extmem::step::{SortStepper, StepBudget, StepProgress};
/// use st_extmem::TapeMachine;
/// use st_trace::Tracer;
///
/// let mut m = TapeMachine::with_input(vec![3, 1, 2], 3, Tracer::disabled());
/// let s1 = m.add_tape("scratch1");
/// let s2 = m.add_tape("scratch2");
/// let mut stepper = SortStepper::new(0, s1, s2);
/// let mut yields = 0;
/// while !stepper.step(&mut m, &mut StepBudget::new(4))?.is_done() {
///     yields += 1; // the thread is free to serve another session here
/// }
/// assert_eq!(m.tape(0).snapshot(), vec![1, 2, 3]);
/// assert!(yields > 0);
/// # Ok::<(), st_core::StError>(())
/// ```
pub struct SortStepper<S> {
    data: usize,
    s1: usize,
    s2: usize,
    run_len: usize,
    m: Option<usize>,
    phase: Phase<S>,
}

impl<S: Clone + Ord> SortStepper<S> {
    /// A stepper that will sort tape `data` of the machine it is
    /// stepped against, using tapes `s1`/`s2` as merge scratch.
    #[must_use]
    pub fn new(data: usize, s1: usize, s2: usize) -> Self {
        SortStepper {
            data,
            s1,
            s2,
            run_len: 1,
            m: None,
            phase: Phase::NextPass,
        }
    }

    /// Advance by at most the budget's allowance of micro-operations.
    ///
    /// Returns [`StepProgress::Done`] once the data tape is sorted
    /// (subsequent calls keep returning `Done` without touching the
    /// machine). A zero budget yields immediately without progress.
    pub fn step(
        &mut self,
        machine: &mut TapeMachine<S>,
        budget: &mut StepBudget,
    ) -> Result<StepProgress, StError> {
        let (data, s1, s2) = (self.data, self.s1, self.s2);
        loop {
            match &mut self.phase {
                Phase::Done => return Ok(StepProgress::Done),
                Phase::NextPass => {
                    if !budget.take() {
                        return Ok(StepProgress::Yielded);
                    }
                    self.open_pass(machine);
                }
                Phase::Distribute { scan, .. } => {
                    let (d, o1, o2) = machine.trio_mut(data, s1, s2);
                    if !scan.step(d, o1, o2, budget)? {
                        return Ok(StepProgress::Yielded);
                    }
                    let tracer = machine.tracer().clone();
                    tracer.emit(|| TraceEvent::ScanEnd {
                        op: "distribute_runs".to_string(),
                    });
                    // Release the distribute charge before the merge
                    // takes its own.
                    self.phase = Phase::Done;
                    tracer.emit(|| TraceEvent::ScanStart {
                        op: "merge_runs".to_string(),
                    });
                    let meter = machine.meter().clone();
                    let (in1, in2, out) = machine.trio_mut(s1, s2, data);
                    in1.rewind();
                    in2.rewind();
                    out.reset_for_overwrite();
                    let charge = meter.charge(2 + 2 * bits_for(self.run_len as u64));
                    self.phase = Phase::Merge {
                        scan: Merge::open(in1, in2, self.run_len, DEFAULT_BLOCK),
                        _charge: charge,
                    };
                }
                Phase::Merge { scan, .. } => {
                    let (in1, in2, out) = machine.trio_mut(s1, s2, data);
                    if !scan.step(in1, in2, out, budget)? {
                        return Ok(StepProgress::Yielded);
                    }
                    machine.tracer().emit(|| TraceEvent::ScanEnd {
                        op: "merge_runs".to_string(),
                    });
                    self.phase = Phase::NextPass;
                    let run_len = self.run_len;
                    machine.tracer().emit(|| TraceEvent::PhaseEnd {
                        name: format!("merge pass run_len={run_len}"),
                    });
                    // Saturating like sort.rs: once run_len covers the
                    // data the NextPass check stops the loop, and on
                    // 32-bit usize the last doubling near usize::MAX
                    // must not wrap.
                    self.run_len = run_len.saturating_mul(2);
                }
            }
        }
    }

    /// The `NextPass` unit: finish, or open the next pass's distribute
    /// scan.
    fn open_pass(&mut self, machine: &mut TapeMachine<S>) {
        let m = *self.m.get_or_insert_with(|| machine.tape(self.data).len());
        if m <= 1 || self.run_len >= m {
            self.phase = Phase::Done;
            return;
        }
        let run_len = self.run_len;
        machine.tracer().emit(|| TraceEvent::PhaseBegin {
            name: format!("merge pass run_len={run_len}"),
        });
        machine.tracer().emit(|| TraceEvent::ScanStart {
            op: "distribute_runs".to_string(),
        });
        let meter = machine.meter().clone();
        let (data, s1, s2) = machine.trio_mut(self.data, self.s1, self.s2);
        data.rewind();
        s1.reset_for_overwrite();
        s2.reset_for_overwrite();
        let charge = meter.charge(1 + bits_for(data.len() as u64));
        self.phase = Phase::Distribute {
            scan: Distribute::new(run_len),
            _charge: charge,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_with(items: Vec<i64>) -> TapeMachine<i64> {
        let n = items.len().max(1);
        let mut m = TapeMachine::with_input(items, n, st_trace::Tracer::disabled());
        m.add_tape("scratch1");
        m.add_tape("scratch2");
        m
    }

    fn run_to_done(
        machine: &mut TapeMachine<i64>,
        stepper: &mut SortStepper<i64>,
        per_call: u64,
    ) -> u64 {
        let mut yields = 0;
        loop {
            let mut budget = StepBudget::new(per_call);
            match stepper.step(machine, &mut budget).unwrap() {
                StepProgress::Done => return yields,
                StepProgress::Yielded => yields += 1,
            }
        }
    }

    #[test]
    fn stepper_sorts_and_matches_batch_usage_at_every_granularity() {
        let items: Vec<i64> = (0..57).map(|i| (i * 7919) % 101).collect();
        let mut expect = items.clone();
        expect.sort();

        let mut batch = machine_with(items.clone());
        crate::sort::merge_sort(&mut batch, 0, 1, 2).unwrap();
        let batch_usage = batch.usage();

        for per_call in [1u64, 3, 16, 1024] {
            let mut m = machine_with(items.clone());
            let mut stepper = SortStepper::new(0, 1, 2);
            let yields = run_to_done(&mut m, &mut stepper, per_call);
            assert_eq!(m.tape(0).snapshot(), expect, "budget {per_call}");
            assert_eq!(m.usage(), batch_usage, "budget {per_call}");
            if per_call == 1 {
                assert!(yields > 0, "single-unit budgets must yield");
            }
        }
    }

    #[test]
    fn stepper_emits_the_same_trace_as_the_batch_sort() {
        let items: Vec<i64> = (0..23).rev().collect();

        let (batch_tracer, batch_buf) = st_trace::Tracer::in_memory();
        let mut batch = TapeMachine::with_input(items.clone(), items.len(), batch_tracer);
        batch.add_tape("scratch1");
        batch.add_tape("scratch2");
        crate::sort::merge_sort(&mut batch, 0, 1, 2).unwrap();
        let _ = batch.usage();

        let (inc_tracer, inc_buf) = st_trace::Tracer::in_memory();
        let mut inc = TapeMachine::with_input(items, 23, inc_tracer);
        inc.add_tape("scratch1");
        inc.add_tape("scratch2");
        let mut stepper = SortStepper::new(0, 1, 2);
        run_to_done(&mut inc, &mut stepper, 5);
        let _ = inc.usage();

        assert_eq!(batch_buf.snapshot(), inc_buf.snapshot());
        let report = st_trace::audit(&inc_buf.snapshot());
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn zero_budget_yields_without_touching_the_machine() {
        let mut m = machine_with(vec![2, 1]);
        let mut stepper = SortStepper::new(0, 1, 2);
        let mut budget = StepBudget::new(0);
        assert_eq!(
            stepper.step(&mut m, &mut budget).unwrap(),
            StepProgress::Yielded
        );
        assert_eq!(m.tape(0).snapshot(), vec![2, 1]);
        assert_eq!(m.usage().steps, 0);
    }

    #[test]
    fn done_is_sticky_and_trivial_inputs_finish_instantly() {
        for items in [vec![], vec![9]] {
            let mut m = machine_with(items);
            let mut stepper = SortStepper::new(0, 1, 2);
            let mut budget = StepBudget::new(1);
            assert_eq!(
                stepper.step(&mut m, &mut budget).unwrap(),
                StepProgress::Done
            );
            // Steps after Done are no-ops.
            assert_eq!(
                stepper.step(&mut m, &mut StepBudget::new(10)).unwrap(),
                StepProgress::Done
            );
        }
    }
}
