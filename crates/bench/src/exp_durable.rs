//! Experiments E21–E22: the durable journal and the price of crash recovery.
//!
//! The fault layer (E19–E20) corrupts *data*; the durable layer loses
//! the *process*. These experiments measure the recovery story of
//! `st_algo::durable_sort` end to end:
//!
//! * **E21** runs the checkpointable merge sort under a deterministic
//!   crash storm and checks the recovery contract: the recovered output
//!   is byte-identical to the uninterrupted run at every size, and the
//!   replayed work is visible as a reversal surcharge.
//! * **E22** sweeps the number of planned crashes at a fixed size and
//!   plots the recovery-overhead curve: total work (steps summed over
//!   every incarnation) grows with the crash count while the answer
//!   never changes.
//!
//! Determinism: crash points are derived from the fault-free run's
//! committed journal length, so both experiments are reproducible and
//! byte-identical across `--jobs` — no timing, no paths, no randomness
//! in any table cell.

use crate::report::Report;
use st_algo::durable_sort::{durable_sort, sort_with_crashes};
use st_trace::Tracer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A private journal path per call, so concurrent experiment runs (the
/// parallel harness, repeated test invocations) never share a file.
fn journal(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("st_bench_durable_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!("{tag}_{n}.wal"))
}

/// Deterministic unsorted workload of `m` records.
fn workload(m: usize) -> Vec<i64> {
    (0..m as i64)
        .map(|i| (i * 7919 + 13) % (m as i64))
        .collect()
}

/// E21 — sort under a crash storm vs fault-free: byte-identical output,
/// charged replays.
pub fn e21_crash_storm(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e21",
        "Durable sort under a crash storm vs fault-free",
        "the journaled merge sort killed at planned crash points recovers from the last \
         committed pass and produces output byte-identical to the uninterrupted run, \
         with every recovered replay charged as extra reversals",
        &[
            "m",
            "baseline revs",
            "crashes",
            "recoveries",
            "storm revs",
            "overhead",
            "identical",
        ],
    );
    let mut all_identical = true;
    let mut all_charged = true;
    for m in [16usize, 48, 96] {
        let items = workload(m);
        let mut expect = items.clone();
        expect.sort();

        let base_path = journal("e21_base");
        let baseline = durable_sort(&base_path, items.clone(), m, tracer).expect("baseline sort");
        std::fs::remove_file(&base_path).ok();
        assert_eq!(baseline.sorted, expect, "baseline must sort");

        // Five crashes spread over the journal: early, three mid-file,
        // and one just before the end.
        let total = baseline.journal_bytes;
        let storm = [total / 7, total / 3, total / 2, 2 * total / 3, total - 1];
        let storm_path = journal("e21_storm");
        let stormed = sort_with_crashes(&storm_path, items, m, &storm, tracer).expect("storm sort");
        std::fs::remove_file(&storm_path).ok();

        let identical = stormed.sorted == baseline.sorted;
        all_identical &= identical;
        let base_rev = baseline.usage.total_reversals();
        let storm_rev = stormed.usage.total_reversals();
        all_charged &= stormed.crashes > 0 && storm_rev > base_rev;
        r.row(vec![
            m.to_string(),
            base_rev.to_string(),
            stormed.crashes.to_string(),
            stormed.recoveries.to_string(),
            storm_rev.to_string(),
            format!("{:.2}x", storm_rev as f64 / base_rev as f64),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    r.verdict(
        all_identical && all_charged,
        "storm output byte-identical to the fault-free run at every size, with the \
         recovered replays visible as a reversal surcharge",
    );
    r
}

/// E22 — recovery-overhead curve: total work vs number of crashes.
pub fn e22_recovery_overhead(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e22",
        "Recovery overhead vs crash count",
        "summed work across incarnations (steps, reversals) grows with the number of \
         planned crashes while the sorted output never changes — recovery costs \
         overhead, never correctness",
        &[
            "crashes planned",
            "crashes fired",
            "recoveries",
            "total revs",
            "total steps",
            "step overhead",
        ],
    );
    let m = 64usize;
    let items = workload(m);
    let mut expect = items.clone();
    expect.sort();

    let base_path = journal("e22_base");
    let baseline = durable_sort(&base_path, items.clone(), m, tracer).expect("baseline sort");
    std::fs::remove_file(&base_path).ok();
    let total = baseline.journal_bytes;
    let base_steps = baseline.usage.steps;

    let mut all_correct = baseline.sorted == expect;
    let mut monotone = true;
    let mut prev_steps = 0u64;
    for k in [0usize, 1, 2, 4, 8] {
        // k planned crashes evenly spread over the committed journal.
        let points: Vec<u64> = (1..=k).map(|i| i as u64 * total / (k as u64 + 1)).collect();
        let path = journal("e22_storm");
        let run = sort_with_crashes(&path, items.clone(), m, &points, tracer).expect("crash sweep");
        std::fs::remove_file(&path).ok();

        all_correct &= run.sorted == expect;
        monotone &= run.usage.steps >= prev_steps;
        prev_steps = run.usage.steps;
        r.row(vec![
            k.to_string(),
            run.crashes.to_string(),
            run.recoveries.to_string(),
            run.usage.total_reversals().to_string(),
            run.usage.steps.to_string(),
            format!("{:.2}x", run.usage.steps as f64 / base_steps as f64),
        ]);
    }
    r.verdict(
        all_correct && monotone,
        format!(
            "output correct at every crash count and total steps grow monotonically \
             with the storm ({:.2}x at 8 crashes)",
            prev_steps as f64 / base_steps as f64
        ),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e21_reproduces() {
        let r = e21_crash_storm(&Tracer::disabled());
        assert!(r.reproduced(), "{r}");
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn e22_reproduces() {
        let r = e22_recovery_overhead(&Tracer::disabled());
        assert!(r.reproduced(), "{r}");
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        // The parallel harness requires byte-identical artifacts across
        // --jobs; that reduces to run-to-run determinism of each report.
        let a = format!("{}", e21_crash_storm(&Tracer::disabled()));
        let b = format!("{}", e21_crash_storm(&Tracer::disabled()));
        assert_eq!(a, b);
        let a = format!("{}", e22_recovery_overhead(&Tracer::disabled()));
        let b = format!("{}", e22_recovery_overhead(&Tracer::disabled()));
        assert_eq!(a, b);
    }
}
