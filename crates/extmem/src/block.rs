//! The scan combinators and merge-pass kernels: the one production
//! implementation, moving records in slices.
//!
//! The paper's external-memory model moves data in blocks/pages, and it
//! meters a computation in cells, reversals and internal memory — never
//! in call granularity. The functions here drive [`Tape`]s through the
//! slice API ([`Tape::peek_slice`]/[`Tape::read_slice_fwd`]/
//! [`Tape::write_slice_fwd`]/`Tape::append_with`), charging each
//! sustained sweep **once per block**, while every observable is
//! exactly that of the cell-at-a-time reference in [`crate::scan`]:
//!
//! * **verdicts/content** — each combinator computes the identical
//!   function (same tie-breaking in merges, same early-exit points in
//!   compares);
//! * **`ResourceUsage`** — `moves`, reversal counts, and memory charges
//!   are bit-for-bit those of the per-cell path (a bulk slice op is one
//!   sustained sweep, which is how [`Tape`] already accounts `rewind`);
//! * **trace stream** — the same `ScanStart`/`ScanEnd`/`MemCharge`/
//!   `Reversal`/`Fault` events in the same order. Within a scan every
//!   head moves one way, so the only order-sensitive head events are
//!   each tape's first moves; the kernels replay the per-cell openings
//!   literally (the merge reads one opening record per input, the
//!   lockstep compare reads its first pair cell by cell).
//!
//! **Faults.** The tape owns fault injection: under a plan its slice
//! reads hand out one cell at a time and roll each cell's dice when it
//! is first handed out, and its slice writes degrade to per-cell
//! writes. The kernels peek a side only when the per-cell loop would
//! read it, so fault dice and `Fault` events fall exactly where the
//! reference puts them — without any caller branching on the plan.
//!
//! **Budgets.** The kernels are resumable: [`Lockstep`], `Distribute`
//! and `Merge` advance by at most a [`StepBudget`], at the per-cell
//! price of one unit per record moved (or pair compared) and one per
//! scan boundary, so a stepped run yields at the same points whatever
//! the block length. The batch combinators run them with an unlimited
//! budget; [`crate::step::SortStepper`] and the sort-route stepper of
//! `st-algo` run them under the caller's budget.
//!
//! **Runs in bulk.** The sort passes move records per slice, not per
//! run: a distribute call splits one source slice into its run pieces
//! and appends each output's pieces once, and a merge call merges
//! across as many run pairs as its two input slices hold. The early
//! passes of a sort (runs of 1, 2, 4 … records) therefore cost a few
//! kernel calls per block instead of one or more per run.
//!
//! Nothing here buffers more than one opening record per merge input:
//! merges stream straight from the input slices onto the output tape.

use crate::meter::{bits_for, MemoryMeter};
use crate::step::StepBudget;
use crate::tape::Tape;
use st_core::StError;
use st_trace::{TraceEvent, Tracer};

/// Default block length, in records: large enough to amortize per-block
/// bookkeeping, small enough that a slice stays cache-friendly.
pub const DEFAULT_BLOCK: usize = 4096;

/// The tracer a combinator's `ScanStart`/`ScanEnd` events go to: the
/// thread's ambient [`st_trace::scoped`] tracer when one is installed,
/// else the first enabled tracer among the tapes being driven. Emitting
/// only on the *source* tape's tracer loses the events whenever the
/// destination belongs to a different tracer scope (e.g. a cross-machine
/// `copy_tape` whose source machine is untraced).
#[must_use]
pub fn scan_tracer(tapes: &[&Tracer]) -> Tracer {
    let ambient = st_trace::current();
    if ambient.is_enabled() {
        return ambient;
    }
    tapes
        .iter()
        .find(|t| t.is_enabled())
        .map_or_else(Tracer::disabled, |t| (*t).clone())
}

fn scan_start(tracer: &Tracer, op: &str) {
    tracer.emit(|| TraceEvent::ScanStart { op: op.to_string() });
}

fn scan_end(tracer: &Tracer, op: &str) {
    tracer.emit(|| TraceEvent::ScanEnd { op: op.to_string() });
}

/// The budget's remaining units, capped at `max`, as a slice length.
fn cap(budget: &StepBudget, max: usize) -> usize {
    usize::try_from(budget.remaining()).map_or(max, |r| r.min(max))
}

/// Charge `n` units a kernel has just spent.
fn spend(budget: &mut StepBudget, n: usize) {
    budget.take_up_to(n as u64);
}

const UNLIMITED: &str = "an unlimited budget never yields";

/// Copy all of `src` onto `dst` (overwriting `dst` from its start).
///
/// Cost: ≤ 1 reversal on `src` (rewind) + ≤ 1 on `dst` (rewind), then one
/// forward scan of each. Internal memory: one record buffer.
pub fn copy_tape<S: Clone>(
    src: &mut Tape<S>,
    dst: &mut Tape<S>,
    meter: &MemoryMeter,
    block: usize,
) -> Result<(), StError> {
    assert!(block > 0, "block length must be positive");
    let tracer = scan_tracer(&[src.tracer(), dst.tracer()]);
    scan_start(&tracer, "copy_tape");
    src.rewind();
    dst.reset_for_overwrite();
    let _buf = meter.charge(1);
    loop {
        let chunk = src.read_slice_fwd(block);
        if chunk.is_empty() {
            break;
        }
        dst.write_slice_fwd(chunk)?;
    }
    scan_end(&tracer, "copy_tape");
    Ok(())
}

/// Compare `a` and `b` cell-for-cell in one parallel forward scan.
///
/// Returns `true` iff they hold identical sequences; the scan stops
/// right after the first mismatching pair. Cost: ≤ 1 reversal on each
/// tape (rewind), then one forward scan of each. Internal memory: two
/// record buffers.
pub fn tapes_equal<S: Clone + PartialEq>(
    a: &mut Tape<S>,
    b: &mut Tape<S>,
    meter: &MemoryMeter,
    block: usize,
) -> bool {
    assert!(block > 0, "block length must be positive");
    let tracer = scan_tracer(&[a.tracer(), b.tracer()]);
    scan_start(&tracer, "tapes_equal");
    a.rewind();
    b.rewind();
    let _buf = meter.charge(2);
    let equal = Lockstep::new(block)
        .step_equal(a, b, &mut StepBudget::unlimited())
        .expect(UNLIMITED);
    scan_end(&tracer, "tapes_equal");
    equal
}

/// Check in one parallel forward scan that `a` is sorted and equal to `b`
/// (the final phase of CHECK-SORT after sorting): returns
/// `(equal, a_sorted)`. Only a length mismatch ends the scan early.
///
/// Cost: ≤ 1 reversal on each tape + one forward scan. Internal memory:
/// three record buffers (current of each tape + previous of `a`).
pub fn compare_sorted<S: Clone + Ord>(
    a: &mut Tape<S>,
    b: &mut Tape<S>,
    meter: &MemoryMeter,
    block: usize,
) -> (bool, bool) {
    assert!(block > 0, "block length must be positive");
    let tracer = scan_tracer(&[a.tracer(), b.tracer()]);
    scan_start(&tracer, "compare_sorted");
    a.rewind();
    b.rewind();
    let _buf = meter.charge(3);
    let flags = Lockstep::new(block)
        .step_sorted(a, b, &mut StepBudget::unlimited())
        .expect(UNLIMITED);
    scan_end(&tracer, "compare_sorted");
    flags
}

/// Distribute the runs of `src` (blocks of length `run_len`; the final
/// run may be shorter) alternately onto `out1` and `out2`.
///
/// Cost: ≤ 1 reversal on each of the three tapes (rewinds), then one
/// forward scan of each. Internal memory: one record buffer + one run
/// counter of `O(log N)` bits.
pub fn distribute_runs<S: Clone>(
    src: &mut Tape<S>,
    out1: &mut Tape<S>,
    out2: &mut Tape<S>,
    run_len: usize,
    meter: &MemoryMeter,
) -> Result<(), StError> {
    let tracer = scan_tracer(&[src.tracer(), out1.tracer(), out2.tracer()]);
    scan_start(&tracer, "distribute_runs");
    src.rewind();
    out1.reset_for_overwrite();
    out2.reset_for_overwrite();
    let _buf = meter.charge(1 + bits_for(src.len() as u64));
    let done = Distribute::new(run_len).step(src, out1, out2, &mut StepBudget::unlimited())?;
    debug_assert!(done, "{UNLIMITED}");
    scan_end(&tracer, "distribute_runs");
    Ok(())
}

/// Merge paired runs of length `run_len` from `in1`/`in2` onto `out`,
/// producing runs of length `2·run_len`. Assumes the layout produced by
/// [`distribute_runs`]: the `i`-th run of `in1` pairs with the `i`-th run
/// of `in2` (which may be missing or short at the tail). Ties go to
/// `in1`, so the merge is stable.
///
/// Cost: ≤ 1 reversal on each of the three tapes + one forward scan of
/// each. Internal memory: two record buffers + two run counters.
pub fn merge_runs<S: Clone + Ord>(
    in1: &mut Tape<S>,
    in2: &mut Tape<S>,
    out: &mut Tape<S>,
    run_len: usize,
    meter: &MemoryMeter,
    block: usize,
) -> Result<(), StError> {
    let tracer = scan_tracer(&[in1.tracer(), in2.tracer(), out.tracer()]);
    scan_start(&tracer, "merge_runs");
    in1.rewind();
    in2.rewind();
    out.reset_for_overwrite();
    let _buf = meter.charge(2 + 2 * bits_for(run_len as u64));
    let mut merge = Merge::open(in1, in2, run_len, block);
    let done = merge.step(in1, in2, out, &mut StepBudget::unlimited())?;
    debug_assert!(done, "{UNLIMITED}");
    scan_end(&tracer, "merge_runs");
    Ok(())
}

/// The resumable parallel forward scan behind [`tapes_equal`] and
/// [`compare_sorted`]. The caller positions the tapes (rewinds) first.
/// One budget unit per pair read, including the final read that finds
/// a mismatch or the end of a tape.
#[derive(Debug, Clone)]
pub struct Lockstep<S> {
    block: usize,
    opened: bool,
    equal: bool,
    sorted: bool,
    prev: Option<S>,
}

impl<S: Clone> Lockstep<S> {
    /// A fresh scan moving up to `block` records per slice.
    #[must_use]
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block length must be positive");
        Lockstep {
            block,
            opened: false,
            equal: true,
            sorted: true,
            prev: None,
        }
    }

    /// Walk both tapes in lockstep, handing each common chunk to
    /// `inspect`, which returns the index of a pair that ends the scan.
    /// `None` when the budget ran out; `Some(true)` iff both tapes ended
    /// together without `inspect` stopping the scan.
    fn walk(
        &mut self,
        a: &mut Tape<S>,
        b: &mut Tape<S>,
        budget: &mut StepBudget,
        mut inspect: impl FnMut(&mut Self, &[S], &[S]) -> Option<usize>,
    ) -> Option<bool> {
        if !self.opened {
            // The first pair is read cell by cell, `a` then `b`, so each
            // tape's turn-around reversal (and a fault on its first
            // cell) lands where the per-cell loop puts it.
            if !budget.take() {
                return None;
            }
            self.opened = true;
            let x = a.read_slice_fwd(1);
            let y = b.read_slice_fwd(1);
            return match (x.is_empty(), y.is_empty()) {
                (true, true) => Some(true),
                (false, false) if inspect(self, x, y).is_none() => self.walk(a, b, budget, inspect),
                _ => Some(false),
            };
        }
        loop {
            let max = cap(budget, self.block);
            if max == 0 {
                return None;
            }
            let ca = a.peek_slice(max);
            let cb = b.peek_slice(max);
            let n = ca.len().min(cb.len());
            if let Some(k) = inspect(self, &ca[..n], &cb[..n]) {
                a.advance_fwd(k + 1);
                b.advance_fwd(k + 1);
                spend(budget, k + 1);
                return Some(false);
            }
            a.advance_fwd(n);
            b.advance_fwd(n);
            spend(budget, n);
            let (a_end, b_end) = (a.at_end(), b.at_end());
            if !a_end && !b_end {
                continue;
            }
            // The read that finds an end: the longer tape pays one more
            // cell, like the per-cell `(Some, None)` arm.
            if !budget.take() {
                return None;
            }
            if !a_end {
                a.advance_fwd(1);
            } else if !b_end {
                b.advance_fwd(1);
            }
            return Some(a_end && b_end);
        }
    }
}

impl<S: Clone + PartialEq> Lockstep<S> {
    /// Advance the [`tapes_equal`] scan; `Some(equal)` once it is over.
    pub fn step_equal(
        &mut self,
        a: &mut Tape<S>,
        b: &mut Tape<S>,
        budget: &mut StepBudget,
    ) -> Option<bool> {
        self.walk(a, b, budget, |_, x, y| {
            x.iter().zip(y).position(|(p, q)| p != q)
        })
    }
}

impl<S: Clone + Ord> Lockstep<S> {
    /// Advance the [`compare_sorted`] scan; `Some((equal, a_sorted))`
    /// once it is over.
    pub fn step_sorted(
        &mut self,
        a: &mut Tape<S>,
        b: &mut Tape<S>,
        budget: &mut StepBudget,
    ) -> Option<(bool, bool)> {
        let same_length = self.walk(a, b, budget, |st, x, y| {
            let last = x.last()?;
            st.equal &= x == y;
            if st.sorted {
                let after_prev = st.prev.as_ref().is_none_or(|p| p <= &x[0]);
                st.sorted = after_prev && x.windows(2).all(|w| w[0] <= w[1]);
            }
            st.prev = Some(last.clone());
            None
        })?;
        Some((self.equal && same_length, self.sorted))
    }
}

/// The resumable distribute pass: runs of `run_len` records from a
/// rewound `src` go alternately onto the reset `out1`/`out2`. Each call
/// reads one slice of up to [`DEFAULT_BLOCK`] records, however many runs
/// it spans, and appends its run pieces to each output once, `out1`
/// first. One budget unit per record, and one for the read that finds
/// the end of `src`.
#[derive(Debug, Clone)]
pub(crate) struct Distribute {
    run_len: usize,
    to_first: bool,
    in_run: usize,
}

impl Distribute {
    /// A fresh pass over runs of `run_len` records.
    #[must_use]
    pub fn new(run_len: usize) -> Self {
        assert!(run_len > 0, "run length must be positive");
        Distribute {
            run_len,
            to_first: true,
            in_run: 0,
        }
    }

    /// Advance within the budget; `true` once `src` is exhausted.
    pub fn step<S: Clone>(
        &mut self,
        src: &mut Tape<S>,
        out1: &mut Tape<S>,
        out2: &mut Tape<S>,
        budget: &mut StepBudget,
    ) -> Result<bool, StError> {
        loop {
            let max = cap(budget, DEFAULT_BLOCK);
            if max == 0 {
                return Ok(false);
            }
            let chunk = src.read_slice_fwd(max);
            if chunk.is_empty() {
                budget.take();
                return Ok(true);
            }
            spend(budget, chunk.len());
            // The slice starts `in_run` records into a run of the output
            // `to_first` names; the pieces after that run alternate.
            let head = chunk.len().min(self.run_len - self.in_run);
            let (first, rest) = chunk.split_at(head);
            let pieces = |to_first: bool, cells: &mut Vec<S>| {
                let owns_head = to_first == self.to_first;
                if owns_head {
                    cells.extend_from_slice(first);
                }
                let skip = usize::from(owns_head);
                for piece in rest.chunks(self.run_len).skip(skip).step_by(2) {
                    cells.extend_from_slice(piece);
                }
            };
            out1.append_with(|cells| pieces(true, cells))?;
            out2.append_with(|cells| pieces(false, cells))?;
            let pos = self.in_run + chunk.len();
            self.to_first ^= (pos / self.run_len) % 2 == 1;
            self.in_run = pos % self.run_len;
        }
    }
}

/// The resumable merge pass: pairs the `i`-th runs of `in1`/`in2` and
/// merges each pair onto `out`, ties to `in1`. One budget unit per record
/// written and one per run-pair boundary (the last boundary ends the
/// pass).
///
/// The merge streams from input slices straight onto `out`; the only
/// records it holds are the two it reads when the pass opens (the
/// per-cell merge's opening reads, which fix the order of the inputs'
/// turn-around reversals). After them, a side is peeked only when the
/// per-cell loop would read it: right after its previous record is
/// written, or at a run-pair boundary. While both runs of a pair are
/// live and no opening record is pending, one call merges across as
/// many run pairs as the two peeked slices and the budget cover, and
/// stops where its next step would need a record it did not peek.
#[derive(Debug, Clone)]
pub(crate) struct Merge<S> {
    run_len: usize,
    block: usize,
    /// The opening record of each input, until it is written.
    carry: [Option<S>; 2],
    /// Records of each input written so far.
    done: [usize; 2],
    /// Records of each input left in the current run pair.
    rem: [usize; 2],
}

impl<S: Clone + Ord> Merge<S> {
    /// Open a pass over the rewound inputs: read the first record of
    /// `in1`, then of `in2`.
    pub fn open(in1: &mut Tape<S>, in2: &mut Tape<S>, run_len: usize, block: usize) -> Self {
        assert!(run_len > 0, "run length must be positive");
        assert!(block > 0, "block length must be positive");
        let carry = [
            in1.read_slice_fwd(1).first().cloned(),
            in2.read_slice_fwd(1).first().cloned(),
        ];
        Merge {
            run_len,
            block,
            carry,
            done: [0, 0],
            rem: [run_len.min(in1.len()), run_len.min(in2.len())],
        }
    }

    /// Advance within the budget; `true` once both inputs are spent.
    pub fn step(
        &mut self,
        in1: &mut Tape<S>,
        in2: &mut Tape<S>,
        out: &mut Tape<S>,
        budget: &mut StepBudget,
    ) -> Result<bool, StError> {
        loop {
            if self.rem == [0, 0] {
                if !budget.take() {
                    return Ok(false);
                }
                self.rem = [
                    self.run_len.min(in1.len() - self.done[0]),
                    self.run_len.min(in2.len() - self.done[1]),
                ];
                if self.rem == [0, 0] {
                    return Ok(true);
                }
            }
            let max = cap(budget, usize::MAX);
            if max == 0 {
                return Ok(false);
            }
            if matches!(self.carry, [None, None]) && self.rem[0] > 0 && self.rem[1] > 0 {
                self.merge_pairs(in1, in2, out, budget)?;
                continue;
            }
            let taken = self.write_some(in1, in2, out, max)?;
            spend(budget, taken[0] + taken[1]);
            for (side, n) in taken.into_iter().enumerate() {
                self.done[side] += n;
                self.rem[side] -= n;
            }
        }
    }

    /// The batched merge: with both runs live and nothing carried, peek
    /// one slice of each input and merge across run pairs until a slice
    /// or the budget runs out, or the pass ends (whose boundary unit is
    /// left to [`Merge::step`]). Inside a pair one record is picked per
    /// step by a pointer select; once a run is spent the rest of the
    /// other goes in one piece.
    fn merge_pairs(
        &mut self,
        in1: &mut Tape<S>,
        in2: &mut Tape<S>,
        out: &mut Tape<S>,
        budget: &mut StepBudget,
    ) -> Result<(), StError> {
        let left = [in1.len() - self.done[0], in2.len() - self.done[1]];
        let (run_len, mut rem) = (self.run_len, self.rem);
        let mut units = cap(budget, usize::MAX);
        let ca = in1.peek_slice(self.block);
        let cb = in2.peek_slice(self.block);
        let (mut i, mut j, mut boundaries) = (0usize, 0usize, 0usize);
        out.append_with(|cells| loop {
            if rem[0] > 0 && rem[1] > 0 {
                let (i0, j0) = (i, j);
                let end_i = i + rem[0].min(ca.len() - i);
                let end_j = j + rem[1].min(cb.len() - j);
                let steps = units.min(end_i - i + end_j - j);
                let stop = i + j + steps;
                while i < end_i && j < end_j && i + j < stop {
                    let (x, y) = (&ca[i], &cb[j]);
                    let take_b = x > y;
                    cells.push(if take_b { y } else { x }.clone());
                    i += usize::from(!take_b);
                    j += usize::from(take_b);
                }
                rem = [rem[0] - (i - i0), rem[1] - (j - j0)];
                units -= i - i0 + j - j0;
                if rem[0] > 0 && rem[1] > 0 {
                    return;
                }
            }
            for (side, slice, pos) in [(0, ca, &mut i), (1, cb, &mut j)] {
                let n = rem[side].min(slice.len() - *pos).min(units);
                cells.extend_from_slice(&slice[*pos..*pos + n]);
                *pos += n;
                rem[side] -= n;
                units -= n;
            }
            if rem != [0, 0] || units == 0 {
                return;
            }
            let next = [run_len.min(left[0] - i), run_len.min(left[1] - j)];
            if next == [0, 0] {
                return;
            }
            rem = next;
            units -= 1;
            boundaries += 1;
        })?;
        in1.advance_fwd(i);
        in2.advance_fwd(j);
        spend(budget, i + j + boundaries);
        self.done = [self.done[0] + i, self.done[1] + j];
        self.rem = rem;
        Ok(())
    }

    /// Write between 1 and `max` records of the current run pair while
    /// one run is spent or an opening record is pending; returns how
    /// many came from each input.
    fn write_some(
        &mut self,
        in1: &mut Tape<S>,
        in2: &mut Tape<S>,
        out: &mut Tape<S>,
        max: usize,
    ) -> Result<[usize; 2], StError> {
        let [rem1, rem2] = self.rem;
        let block = self.block;
        if rem2 == 0 {
            return Ok([
                drain(in1, &mut self.carry[0], out, rem1.min(max), block)?,
                0,
            ]);
        }
        if rem1 == 0 {
            return Ok([
                0,
                drain(in2, &mut self.carry[1], out, rem2.min(max), block)?,
            ]);
        }
        match (&self.carry[0], &self.carry[1]) {
            (Some(x), Some(y)) => {
                let side = usize::from(x > y);
                let rec = self.carry[side].take().expect("matched above");
                out.write_fwd(rec)?;
                let mut taken = [0, 0];
                taken[side] = 1;
                Ok(taken)
            }
            (Some(x), None) => {
                // `in2` records strictly below the pending `in1` record
                // go first; the first one that is not lets it out.
                let cb = in2.peek_slice(rem2.min(block).min(max));
                let n = cb.iter().take_while(|y| *y < x).count();
                let lets_out = n < cb.len();
                out.write_slice_fwd(&cb[..n])?;
                in2.advance_fwd(n);
                if lets_out {
                    out.write_fwd(self.carry[0].take().expect("matched above"))?;
                    return Ok([1, n]);
                }
                Ok([0, n])
            }
            (None, Some(y)) => {
                let ca = in1.peek_slice(rem1.min(block).min(max));
                let n = ca.iter().take_while(|x| *x <= y).count();
                let lets_out = n < ca.len();
                out.write_slice_fwd(&ca[..n])?;
                in1.advance_fwd(n);
                if lets_out {
                    out.write_fwd(self.carry[1].take().expect("matched above"))?;
                    return Ok([n, 1]);
                }
                Ok([n, 0])
            }
            (None, None) => unreachable!("both runs live with nothing carried: merge_pairs"),
        }
    }
}

/// Copy up to `max` records of one input's run onto `out` once the other
/// run of the pair is spent: its pending opening record first, then one
/// slice. Returns how many records moved.
fn drain<S: Clone>(
    input: &mut Tape<S>,
    carry: &mut Option<S>,
    out: &mut Tape<S>,
    max: usize,
    block: usize,
) -> Result<usize, StError> {
    if let Some(rec) = carry.take() {
        out.write_fwd(rec)?;
        return Ok(1);
    }
    let chunk = input.peek_slice(max.min(block));
    out.write_slice_fwd(chunk)?;
    let n = chunk.len();
    input.advance_fwd(n);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tape(items: &[i32]) -> Tape<i32> {
        Tape::from_items("t", items.to_vec())
    }

    #[test]
    fn cross_machine_copy_traces_via_the_ambient_scope() {
        // Regression: neither tape carries an enabled tracer (they belong
        // to no traced machine), so emitting only on the source tape's
        // tracer would lose both scan events. The ambient scoped tracer
        // must receive them.
        let (tracer, buf) = st_trace::Tracer::in_memory();
        st_trace::scoped(tracer, || {
            let meter = MemoryMeter::new();
            let mut src = tape(&[3, 1, 2]);
            let mut dst: Tape<i32> = Tape::new("dst");
            copy_tape(&mut src, &mut dst, &meter, DEFAULT_BLOCK).unwrap();
            assert_eq!(dst.snapshot(), vec![3, 1, 2]);
        });
        let events = buf.snapshot();
        let starts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ScanStart { op } if op == "copy_tape"))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ScanEnd { op } if op == "copy_tape"))
            .count();
        assert_eq!((starts, ends), (1, 1), "events: {events:?}");
    }

    #[test]
    fn explicitly_traced_tapes_still_emit_outside_any_scope() {
        // The fallback path: no ambient scope, but the destination tape
        // carries a tracer (e.g. its machine was built `_traced`). The
        // old code looked only at the source and dropped the events.
        let (tracer, buf) = st_trace::Tracer::in_memory();
        let meter = MemoryMeter::new();
        let mut src = tape(&[1, 2]);
        let mut dst: Tape<i32> = Tape::new("dst");
        dst.set_tracer(tracer, 1);
        copy_tape(&mut src, &mut dst, &meter, DEFAULT_BLOCK).unwrap();
        let events = buf.snapshot();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::ScanStart { op } if op == "copy_tape")),
            "events: {events:?}"
        );
    }
}
