//! The experiment report generator.
//!
//! ```text
//! cargo run -p st-bench --bin report                    # every experiment
//! cargo run -p st-bench --bin report e3 e9              # a selection
//! cargo run -p st-bench --bin report --list             # the registry
//! cargo run -p st-bench --bin report --out FILE         # also save as text
//! cargo run -p st-bench --bin report --trace-dir DIR    # JSONL trace per experiment
//! cargo run -p st-bench --bin report --jobs 4           # parallel runner
//! ```
//!
//! Always writes `BENCH_report.json` (experiment id → metrics) next to
//! the text report (or into the current directory without `--out`).
//!
//! Experiments run on the work-stealing pool of [`st_bench::runner`]
//! (`--jobs N`; default: available parallelism). Output is emitted in
//! registry order whatever the pool does, so every artifact is
//! byte-identical to a `--jobs 1` run. A panicking experiment becomes a
//! `NOT REPRODUCED` verdict instead of aborting the report.
//!
//! With `--trace-dir DIR` every experiment runs under its own JSONL
//! tracer; after the pool joins, each trace is read back and audited —
//! the replayed `ResourceUsage` must match every checkpoint the
//! substrates claimed. An audit mismatch is a hard failure, like a
//! NOT-REPRODUCED verdict. Unknown experiment ids (`report e3 e99`) and
//! an `--out` path whose directory does not exist are usage errors
//! (exit 2), caught before any experiment runs.

use st_bench::all_experiments;
use st_bench::cli::{take_jobs_flag, take_path_flag};
use st_bench::report::{atomic_write, merge_json, save_json, save_text};
use st_bench::runner::{run_experiments, select_experiments, RunOptions, TimingMode};
use std::path::{Path, PathBuf};

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let registry = all_experiments();
    if args.iter().any(|a| a == "--list") {
        for e in &registry {
            println!("{:>4}  {}", e.id, e.title);
        }
        return;
    }
    let out_path = take_path_flag(&mut args, "--out").unwrap_or_else(|e| usage_error(&e));
    let trace_dir = take_path_flag(&mut args, "--trace-dir").unwrap_or_else(|e| usage_error(&e));
    let jobs = take_jobs_flag(&mut args).unwrap_or_else(|e| usage_error(&e));
    if let Some(stray) = args.iter().find(|a| a.starts_with("--")) {
        usage_error(&format!("unknown flag {stray}"));
    }
    let selected = select_experiments(registry, &args).unwrap_or_else(|e| usage_error(&e));
    // `BENCH_report.json` and the text report land in `--out`'s directory:
    // refuse a missing one before any experiment runs.
    let out_dir = out_path
        .as_deref()
        .and_then(Path::parent)
        .filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = out_dir.filter(|d| !d.is_dir()) {
        usage_error(&format!(
            "--out: directory {} does not exist",
            dir.display()
        ));
    }
    // The CLI wants durations in its artifacts; the determinism gates
    // compare suppressed-timing runs instead (see TimingMode).
    let opts = RunOptions {
        jobs,
        trace_dir,
        timing: TimingMode::Measured,
    };
    let outcome = match run_experiments(&selected, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    for audit in &outcome.audits {
        if audit.ok {
            eprintln!(
                "[{}] trace: {} event(s), {}",
                audit.id, audit.events, audit.summary
            );
        } else {
            eprintln!("[{}] trace audit FAILED: {}", audit.id, audit.summary);
        }
    }
    for report in &outcome.reports {
        println!("{report}");
    }
    let json_path = out_dir.map_or_else(
        || PathBuf::from("BENCH_report.json"),
        |d| d.join("BENCH_report.json"),
    );
    // A subset run (`report e3 e23`) merges into an existing document so
    // it never clobbers the other registry entries; a full run (or a
    // missing/corrupt document) rewrites it from scratch.
    let saved = if args.is_empty() {
        save_json(&json_path, &outcome.reports)
    } else {
        match std::fs::read_to_string(&json_path)
            .ok()
            .and_then(|doc| merge_json(&doc, &outcome.reports).ok())
        {
            Some(merged) => atomic_write(&json_path, merged.as_bytes()),
            None => save_json(&json_path, &outcome.reports),
        }
    };
    if let Err(e) = saved {
        eprintln!("{e}");
        std::process::exit(1);
    }
    eprintln!(
        "saved {} report(s) to {}",
        outcome.reports.len(),
        json_path.display()
    );
    if let Some(path) = out_path {
        if let Err(e) = save_text(&path, &outcome.reports) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        eprintln!("saved text report to {}", path.display());
    }
    let audit_failures = outcome.audit_failures();
    let failures = outcome.failures();
    if audit_failures > 0 {
        eprintln!("{audit_failures} experiment trace(s) failed the replay audit");
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) NOT reproduced");
    }
    if failures > 0 || audit_failures > 0 {
        std::process::exit(1);
    }
}
