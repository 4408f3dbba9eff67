//! Integration: the parallel experiment runner is deterministic.
//!
//! The acceptance gate of the parallel harness: whatever `--jobs` value
//! drives the pool, the `BENCH_report.json` document and the text report
//! must be **byte-identical** to a serial (`--jobs 1`) run, and every
//! per-experiment JSONL trace must still pass the `st_trace` replay
//! audit. A panicking registry entry must degrade to a `NOT REPRODUCED`
//! verdict without killing the run (covered here end-to-end through the
//! same `run_experiments` entry point the `report` binary uses).

use st_bench::report::{to_json, write_text};
use st_bench::runner::{run_experiments, select_experiments, RunOptions, RunOutcome, TimingMode};
use st_bench::{all_experiments, Experiment, Report};
use st_trace::Tracer;
use std::path::PathBuf;

fn run(jobs: usize, trace_dir: PathBuf, ids: &[&str]) -> RunOutcome {
    std::fs::remove_dir_all(&trace_dir).ok();
    let args: Vec<String> = ids.iter().map(|s| (*s).to_string()).collect();
    let selected = select_experiments(all_experiments(), &args).expect("known ids");
    run_experiments(
        &selected,
        &RunOptions {
            jobs,
            trace_dir: Some(trace_dir),
            // Suppressed timing is the determinism contract this test
            // enforces; Measured output is allowed to differ.
            timing: TimingMode::Suppressed,
        },
    )
    .expect("runner must not fail on harness errors")
}

fn text_bytes(outcome: &RunOutcome) -> Vec<u8> {
    let mut buf = Vec::new();
    write_text(&mut buf, &outcome.reports).unwrap();
    buf
}

#[test]
fn jobs_1_and_jobs_4_produce_byte_identical_artifacts() {
    // A registry slice spanning every substrate (tape sort, TM, list
    // machine, query, fault layer) keeps the test minutes-fast while
    // still exercising cross-substrate trace segregation across workers.
    let ids = ["e3", "e6", "e9", "e10", "e15", "e19", "f2"];
    let base = std::env::temp_dir().join("st_parallel_report_test");
    let serial = run(1, base.join("j1"), &ids);
    let parallel = run(4, base.join("j4"), &ids);

    assert_eq!(
        to_json(&serial.reports),
        to_json(&parallel.reports),
        "BENCH_report.json must be byte-identical across --jobs values"
    );
    assert_eq!(
        text_bytes(&serial),
        text_bytes(&parallel),
        "the text report must be byte-identical across --jobs values"
    );

    for outcome in [&serial, &parallel] {
        assert_eq!(outcome.reports.len(), ids.len());
        assert_eq!(outcome.audits.len(), ids.len());
        for audit in &outcome.audits {
            assert!(
                audit.ok,
                "trace audit failed for {}: {}",
                audit.id, audit.summary
            );
        }
        // The substrate-driving experiments must have produced events
        // (e9's stream-query layer is legitimately untraced).
        for traced in ["e3", "e6", "e10", "e15", "e19"] {
            let audit = outcome.audits.iter().find(|a| a.id == traced).unwrap();
            assert!(audit.events > 0, "empty trace for {traced}");
        }
        // Audits come back in selection order, like the reports.
        let audit_ids: Vec<&str> = outcome.audits.iter().map(|a| a.id.as_str()).collect();
        assert_eq!(audit_ids, ids);
    }
    std::fs::remove_dir_all(&base).ok();
}

fn deliberate_panic(_: &Tracer) -> Report {
    panic!("deliberate parallel_report test panic");
}

#[test]
fn panicking_entry_yields_not_reproduced_without_killing_the_run() {
    // A test-only registry: one real experiment bracketed by panicking
    // entries, so a worker dies first and last and the pool must survive.
    let mut registry = vec![Experiment {
        id: "px1",
        title: "panics first",
        cost: 99,
        run: deliberate_panic,
    }];
    registry.extend(
        all_experiments()
            .into_iter()
            .filter(|e| e.id == "e3" || e.id == "f2"),
    );
    registry.push(Experiment {
        id: "px2",
        title: "panics last",
        cost: 1,
        run: deliberate_panic,
    });

    let outcome = run_experiments(
        &registry,
        &RunOptions {
            jobs: 4,
            trace_dir: None,
            timing: TimingMode::default(),
        },
    )
    .unwrap();

    assert_eq!(outcome.reports.len(), 4);
    let ids: Vec<&str> = outcome.reports.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["px1", "e3", "f2", "px2"], "registry order survives");
    for i in [0, 3] {
        assert!(!outcome.reports[i].reproduced());
        assert!(
            outcome.reports[i]
                .verdict
                .contains("panicked: deliberate parallel_report test panic"),
            "{}",
            outcome.reports[i].verdict
        );
    }
    assert!(outcome.reports[1].reproduced(), "{}", outcome.reports[1]);
    assert!(outcome.reports[2].reproduced(), "{}", outcome.reports[2]);
    assert_eq!(outcome.failures(), 2);
}
