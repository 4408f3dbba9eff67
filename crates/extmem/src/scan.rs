//! The cell-at-a-time reference for the scan combinators.
//!
//! Production code runs the block kernels of [`crate::block`]; nothing
//! outside tests and benchmarks calls this module. It stays as the
//! specification those kernels are pinned to: each combinator here reads
//! and writes one cell per call through [`Tape::read_fwd`]/
//! [`Tape::write_fwd`], the literal form of the per-record loops whose
//! reversal costs the doc comments state. The parity tests of
//! `st-extmem` (and the `bt1` throughput bench's "cell" column) compare
//! [`crate::block`] against these functions on content, `ResourceUsage`,
//! fault statistics and the full trace stream, clean and under fault
//! plans.

use crate::block::scan_tracer;
use crate::meter::{bits_for, MemoryMeter};
use crate::tape::Tape;
use st_core::StError;
use st_trace::TraceEvent;

/// Copy all of `src` onto `dst` (overwriting `dst` from its start).
///
/// Cost: ≤ 1 reversal on `src` (rewind) + ≤ 1 on `dst` (rewind), then one
/// forward scan of each. Internal memory: one record buffer.
pub fn copy_tape<S: Clone>(
    src: &mut Tape<S>,
    dst: &mut Tape<S>,
    meter: &MemoryMeter,
) -> Result<(), StError> {
    let tracer = scan_tracer(&[src.tracer(), dst.tracer()]);
    tracer.emit(|| TraceEvent::ScanStart {
        op: "copy_tape".to_string(),
    });
    src.rewind();
    dst.reset_for_overwrite();
    let _buf = meter.charge(1);
    while let Some(x) = src.read_fwd() {
        dst.write_fwd(x)?;
    }
    tracer.emit(|| TraceEvent::ScanEnd {
        op: "copy_tape".to_string(),
    });
    Ok(())
}

/// Compare `a` and `b` cell-for-cell in one parallel forward scan.
///
/// Returns `true` iff they hold identical sequences. Cost: ≤ 1 reversal on
/// each tape (rewind), then one forward scan of each. Internal memory: two
/// record buffers.
pub fn tapes_equal<S: Clone + PartialEq>(
    a: &mut Tape<S>,
    b: &mut Tape<S>,
    meter: &MemoryMeter,
) -> bool {
    let tracer = scan_tracer(&[a.tracer(), b.tracer()]);
    tracer.emit(|| TraceEvent::ScanStart {
        op: "tapes_equal".to_string(),
    });
    a.rewind();
    b.rewind();
    let _buf = meter.charge(2);
    let equal = loop {
        match (a.read_fwd(), b.read_fwd()) {
            (None, None) => break true,
            (Some(x), Some(y)) if x == y => {}
            _ => break false,
        }
    };
    tracer.emit(|| TraceEvent::ScanEnd {
        op: "tapes_equal".to_string(),
    });
    equal
}

/// Check in one parallel forward scan that `a` is sorted and equal to `b`
/// (the final phase of CHECK-SORT after sorting): returns
/// `(equal, a_sorted)`.
///
/// Cost: ≤ 1 reversal on each tape + one forward scan. Internal memory:
/// three record buffers (current of each tape + previous of `a`).
pub fn compare_sorted<S: Clone + Ord>(
    a: &mut Tape<S>,
    b: &mut Tape<S>,
    meter: &MemoryMeter,
) -> (bool, bool) {
    let tracer = scan_tracer(&[a.tracer(), b.tracer()]);
    tracer.emit(|| TraceEvent::ScanStart {
        op: "compare_sorted".to_string(),
    });
    a.rewind();
    b.rewind();
    let _buf = meter.charge(3);
    let mut equal = true;
    let mut sorted = true;
    let mut prev: Option<S> = None;
    loop {
        match (a.read_fwd(), b.read_fwd()) {
            (None, None) => break,
            (Some(x), Some(y)) => {
                if x != y {
                    equal = false;
                }
                if let Some(p) = &prev {
                    if *p > x {
                        sorted = false;
                    }
                }
                prev = Some(x);
            }
            _ => {
                equal = false;
                break;
            }
        }
    }
    tracer.emit(|| TraceEvent::ScanEnd {
        op: "compare_sorted".to_string(),
    });
    (equal, sorted)
}

/// Distribute the runs of `src` (sorted blocks of length `run_len`; the
/// final run may be shorter) alternately onto `out1` and `out2`.
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
    assert!(run_len > 0, "run length must be positive");
    let tracer = scan_tracer(&[src.tracer(), out1.tracer(), out2.tracer()]);
    tracer.emit(|| TraceEvent::ScanStart {
        op: "distribute_runs".to_string(),
    });
    src.rewind();
    out1.reset_for_overwrite();
    out2.reset_for_overwrite();
    let _buf = meter.charge(1 + bits_for(src.len() as u64));
    let mut to_first = true;
    let mut in_run = 0usize;
    while let Some(x) = src.read_fwd() {
        if to_first {
            out1.write_fwd(x)?;
        } else {
            out2.write_fwd(x)?;
        }
        in_run += 1;
        if in_run == run_len {
            in_run = 0;
            to_first = !to_first;
        }
    }
    tracer.emit(|| TraceEvent::ScanEnd {
        op: "distribute_runs".to_string(),
    });
    Ok(())
}

/// Merge paired runs of length `run_len` from `in1`/`in2` onto `out`,
/// producing runs of length `2·run_len`. Assumes the layout produced by
/// [`distribute_runs`]: the `i`-th run of `in1` pairs with the `i`-th run
/// of `in2` (which may be missing or short at the tail).
///
/// Cost: ≤ 1 reversal on each of the three tapes + one forward scan of
/// each. Internal memory: two record buffers + two run counters.
pub fn merge_runs<S: Clone + Ord>(
    in1: &mut Tape<S>,
    in2: &mut Tape<S>,
    out: &mut Tape<S>,
    run_len: usize,
    meter: &MemoryMeter,
) -> Result<(), StError> {
    assert!(run_len > 0, "run length must be positive");
    let tracer = scan_tracer(&[in1.tracer(), in2.tracer(), out.tracer()]);
    tracer.emit(|| TraceEvent::ScanStart {
        op: "merge_runs".to_string(),
    });
    in1.rewind();
    in2.rewind();
    out.reset_for_overwrite();
    let _buf = meter.charge(2 + 2 * bits_for(run_len as u64));

    let mut a: Option<S> = in1.read_fwd();
    let mut b: Option<S> = in2.read_fwd();
    // Remaining cells in the current run (counting the buffered one).
    let mut left1 = if a.is_some() { run_len } else { 0 };
    let mut left2 = if b.is_some() { run_len } else { 0 };

    loop {
        // Merge one pair of runs.
        while left1 > 0 || left2 > 0 {
            let take_first = match (&a, &b) {
                (Some(x), Some(y)) if left1 > 0 && left2 > 0 => x <= y,
                (Some(_), _) if left1 > 0 => true,
                (_, Some(_)) if left2 > 0 => false,
                _ => break,
            };
            if take_first {
                let rec = a.take().ok_or_else(|| {
                    StError::Machine("merge selected an empty first buffer".into())
                })?;
                out.write_fwd(rec)?;
                left1 -= 1;
                if left1 > 0 {
                    a = in1.read_fwd();
                    if a.is_none() {
                        left1 = 0;
                    }
                }
            } else {
                let rec = b.take().ok_or_else(|| {
                    StError::Machine("merge selected an empty second buffer".into())
                })?;
                out.write_fwd(rec)?;
                left2 -= 1;
                if left2 > 0 {
                    b = in2.read_fwd();
                    if b.is_none() {
                        left2 = 0;
                    }
                }
            }
        }
        // Refill for the next pair of runs.
        if a.is_none() {
            a = in1.read_fwd();
        }
        if b.is_none() {
            b = in2.read_fwd();
        }
        if a.is_none() && b.is_none() {
            tracer.emit(|| TraceEvent::ScanEnd {
                op: "merge_runs".to_string(),
            });
            return Ok(());
        }
        left1 = if a.is_some() { run_len } else { 0 };
        left2 = if b.is_some() { run_len } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tape(items: &[i32]) -> Tape<i32> {
        Tape::from_items("t", items.to_vec())
    }

    #[test]
    fn copy_preserves_content_and_costs_one_scan() {
        let meter = MemoryMeter::new();
        let mut a = tape(&[3, 1, 2]);
        let mut b: Tape<i32> = Tape::new("b");
        copy_tape(&mut a, &mut b, &meter).unwrap();
        assert_eq!(b.snapshot(), vec![3, 1, 2]);
        assert_eq!(a.reversals(), 0);
        assert_eq!(b.reversals(), 0);
    }

    #[test]
    fn tapes_equal_detects_equality_and_mismatch() {
        let meter = MemoryMeter::new();
        assert!(tapes_equal(
            &mut tape(&[1, 2, 3]),
            &mut tape(&[1, 2, 3]),
            &meter
        ));
        assert!(!tapes_equal(
            &mut tape(&[1, 2, 3]),
            &mut tape(&[1, 2, 4]),
            &meter
        ));
        assert!(!tapes_equal(
            &mut tape(&[1, 2]),
            &mut tape(&[1, 2, 3]),
            &meter
        ));
        assert!(!tapes_equal(
            &mut tape(&[1, 2, 3]),
            &mut tape(&[1, 2]),
            &meter
        ));
        assert!(tapes_equal(&mut tape(&[]), &mut tape(&[]), &meter));
    }

    #[test]
    fn compare_sorted_reports_both_flags() {
        let meter = MemoryMeter::new();
        let (eq, sorted) = compare_sorted(&mut tape(&[1, 2, 3]), &mut tape(&[1, 2, 3]), &meter);
        assert!(eq && sorted);
        let (eq, sorted) = compare_sorted(&mut tape(&[2, 1]), &mut tape(&[2, 1]), &meter);
        assert!(eq && !sorted);
        let (eq, sorted) = compare_sorted(&mut tape(&[1, 2]), &mut tape(&[1, 3]), &meter);
        assert!(!eq && sorted);
    }

    #[test]
    fn distribute_alternates_runs() {
        let meter = MemoryMeter::new();
        let mut src = tape(&[1, 2, 3, 4, 5, 6, 7]);
        let mut o1: Tape<i32> = Tape::new("o1");
        let mut o2: Tape<i32> = Tape::new("o2");
        distribute_runs(&mut src, &mut o1, &mut o2, 2, &meter).unwrap();
        assert_eq!(o1.snapshot(), vec![1, 2, 5, 6]);
        assert_eq!(o2.snapshot(), vec![3, 4, 7]);
    }

    #[test]
    fn merge_runs_doubles_run_length() {
        let meter = MemoryMeter::new();
        // Runs of length 2, already sorted within runs.
        let mut i1 = tape(&[1, 4, 2, 9]);
        let mut i2 = tape(&[2, 3, 5, 8]);
        let mut out: Tape<i32> = Tape::new("out");
        merge_runs(&mut i1, &mut i2, &mut out, 2, &meter).unwrap();
        assert_eq!(out.snapshot(), vec![1, 2, 3, 4, 2, 5, 8, 9]);
    }

    #[test]
    fn merge_runs_handles_ragged_tails() {
        let meter = MemoryMeter::new();
        // in1 has runs [1,7] and [5]; in2 has run [2,3] only.
        let mut i1 = tape(&[1, 7, 5]);
        let mut i2 = tape(&[2, 3]);
        let mut out: Tape<i32> = Tape::new("out");
        merge_runs(&mut i1, &mut i2, &mut out, 2, &meter).unwrap();
        assert_eq!(out.snapshot(), vec![1, 2, 3, 7, 5]);
    }

    #[test]
    fn merge_runs_with_empty_second_input() {
        let meter = MemoryMeter::new();
        let mut i1 = tape(&[1, 2, 3]);
        let mut i2: Tape<i32> = Tape::new("i2");
        let mut out: Tape<i32> = Tape::new("out");
        merge_runs(&mut i1, &mut i2, &mut out, 4, &meter).unwrap();
        assert_eq!(out.snapshot(), vec![1, 2, 3]);
    }

    #[test]
    fn combinator_reversal_costs_match_contract() {
        let meter = MemoryMeter::new();
        let mut src = tape(&[4, 3, 2, 1, 0, 9]);
        let mut o1: Tape<i32> = Tape::new("o1");
        let mut o2: Tape<i32> = Tape::new("o2");
        // Fresh tapes, heads at 0: distribute costs 0 reversals.
        distribute_runs(&mut src, &mut o1, &mut o2, 1, &meter).unwrap();
        assert_eq!(src.reversals() + o1.reversals() + o2.reversals(), 0);
        // Now heads are at the ends; merging back costs one rewind each.
        let mut out: Tape<i32> = Tape::new("out");
        merge_runs(&mut o1, &mut o2, &mut out, 1, &meter).unwrap();
        // Each input tape pays the rewind sweep (1) plus the turn-around
        // when the forward merge read begins (1) = 2 reversals.
        assert_eq!(o1.reversals(), 2);
        assert_eq!(o2.reversals(), 2);
        assert_eq!(out.reversals(), 0);
    }
}
