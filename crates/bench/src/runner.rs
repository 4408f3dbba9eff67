//! The work-stealing parallel experiment runner.
//!
//! Every registry entry owns independent machine state (`TapeMachine`s,
//! list machines, meters), so the registry is embarrassingly parallel.
//! [`run_experiments`] executes a selection on [`pool_map`] with
//! `--jobs N` worker threads (`0` = available parallelism; one job runs
//! on the calling thread) pulling indices from one shared queue: an
//! idle worker always steals the next unstarted experiment, so the pool
//! stays busy until the queue drains. The queue is ordered by each
//! entry's [`cost`](crate::Experiment::cost) hint, costliest first
//! (longest-processing-time scheduling), so a straggler started last
//! cannot serialize the tail of the run.
//!
//! Determinism is an acceptance gate, not a hope: results are collected
//! out-of-order but emitted in **registry order**, so the JSON document,
//! the text report, and the per-experiment audit log are byte-identical
//! across any `--jobs` value — `--jobs 1` is the serial reference.
//!
//! Isolation guarantees per experiment:
//!
//! * each experiment is handed its **own** tracer as an argument, so
//!   concurrent experiments never share an event stream, whichever
//!   thread runs them;
//! * each experiment runs under a `catch_unwind` boundary — a panic
//!   becomes an explicit `NOT REPRODUCED — panicked: …` verdict instead
//!   of aborting the whole report;
//! * with a trace directory, each experiment writes its own JSONL file,
//!   and every file is read back and replay-audited **after** the pool
//!   joins, in registry order.

use crate::report::Report;
use crate::Experiment;
use st_core::StError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

// The pool itself now lives in `st_core::pool` so the MPC layer can use
// it without a dependency cycle; the runner re-exports it for its
// historical callers.
pub use st_core::pool::pool_map;

/// Whether the runner stamps wall-clock measurements onto its reports.
///
/// Timing is inherently nondeterministic, so it is opt-in: the default is
/// [`Suppressed`](TimingMode::Suppressed), which keeps every artifact
/// byte-identical across `--jobs` **by construction** (the determinism
/// gates compare Suppressed-mode output). Binaries that want durations in
/// `BENCH_report.json` opt into [`Measured`](TimingMode::Measured), which
/// records each experiment's duration as a coarse decade bucket
/// ([`duration_bucket`](crate::report::duration_bucket)) — wide enough
/// that repeated runs almost always agree, but never guaranteed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Measure each experiment's wall clock and stamp
    /// `Report.duration` with its decade bucket.
    Measured,
    /// Leave `Report.duration` unset (`None`); artifacts depend only on
    /// the seedable computation.
    #[default]
    Suppressed,
}

/// Options for [`run_experiments`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads. `0` means "available parallelism".
    pub jobs: usize,
    /// When set, experiment `id` runs under a JSONL tracer writing
    /// `DIR/id.jsonl`, and each file is replay-audited after the join.
    pub trace_dir: Option<PathBuf>,
    /// Whether reports carry wall-clock duration buckets (default:
    /// suppressed, keeping artifacts deterministic).
    pub timing: TimingMode,
}

/// The replay-audit outcome of one experiment's JSONL trace.
#[derive(Debug, Clone)]
pub struct TraceAudit {
    /// Experiment id the trace belongs to.
    pub id: String,
    /// Events read back from the file (0 if the file was unreadable).
    pub events: usize,
    /// Human summary: the [`st_trace::AuditReport`] display, or the read
    /// error.
    pub summary: String,
    /// `true` iff the file was readable and every checkpoint matched.
    pub ok: bool,
}

/// Everything one [`run_experiments`] call produced, in registry order.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// One report per selected experiment, in selection (registry) order
    /// regardless of completion order.
    pub reports: Vec<Report>,
    /// One audit per selected experiment when tracing was on; empty
    /// otherwise.
    pub audits: Vec<TraceAudit>,
}

impl RunOutcome {
    /// Experiments whose verdict is not `REPRODUCED` (including panicked
    /// and verdict-never-set reports).
    #[must_use]
    pub fn failures(&self) -> usize {
        self.reports.iter().filter(|r| !r.reproduced()).count()
    }

    /// Traces that failed the replay audit (or could not be read back).
    #[must_use]
    pub fn audit_failures(&self) -> usize {
        self.audits.iter().filter(|a| !a.ok).count()
    }
}

/// Resolve command-line `args` against the registry: no args selects
/// everything; otherwise each arg must match a registry id
/// (case-insensitively), and any arg matching nothing is an error
/// listing every unknown id — `report e3 e99` must fail loudly, not
/// silently drop `e99`.
pub fn select_experiments(
    registry: Vec<Experiment>,
    args: &[String],
) -> Result<Vec<Experiment>, String> {
    if args.is_empty() {
        return Ok(registry);
    }
    let unknown: Vec<&str> = args
        .iter()
        .filter(|a| !registry.iter().any(|e| a.eq_ignore_ascii_case(e.id)))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown experiment id(s): {}; try --list",
            unknown.join(", ")
        ));
    }
    Ok(registry
        .into_iter()
        .filter(|e| args.iter().any(|a| a.eq_ignore_ascii_case(e.id)))
        .collect())
}

/// While any runner is executing, replace the process panic hook with a
/// no-op so a deliberately-panicking experiment does not spray a
/// backtrace across the report. Depth-counted and restored on drop, so
/// nested/concurrent runners compose. Obtain one via [`hush_panics`].
pub struct PanicHookSilencer;

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync + 'static>;

static SAVED_HOOK: std::sync::Mutex<(usize, Option<PanicHook>)> = std::sync::Mutex::new((0, None));

fn saved_hook() -> std::sync::MutexGuard<'static, (usize, Option<PanicHook>)> {
    SAVED_HOOK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl PanicHookSilencer {
    fn install() -> Self {
        let mut g = saved_hook();
        if g.0 == 0 {
            g.1 = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|_| {}));
        }
        g.0 += 1;
        PanicHookSilencer
    }
}

impl Drop for PanicHookSilencer {
    fn drop(&mut self) {
        let mut g = saved_hook();
        g.0 -= 1;
        if g.0 == 0 {
            if let Some(hook) = g.1.take() {
                std::panic::set_hook(hook);
            }
        }
    }
}

/// Silence the process panic hook until the returned guard drops. Used by
/// the experiment runner and by other harnesses (the conformance fuzzer)
/// that convert caught panics into explicit verdicts and do not want each
/// one spraying a backtrace.
#[must_use]
pub fn hush_panics() -> PanicHookSilencer {
    PanicHookSilencer::install()
}

/// Render a `catch_unwind` payload as a message.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one experiment on its own tracer, inside an unwind boundary.
fn run_one(
    exp: &Experiment,
    trace_dir: Option<&Path>,
    timing: TimingMode,
) -> Result<Report, StError> {
    let tracer = match trace_dir {
        Some(dir) => st_trace::Tracer::jsonl(&dir.join(format!("{}.jsonl", exp.id)))?,
        None => st_trace::Tracer::disabled(),
    };
    let run = exp.run;
    let started = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run(&tracer)));
    let elapsed = started.elapsed();
    tracer.flush();
    let mut report = match result {
        Ok(report) => report,
        Err(payload) => {
            let mut report = Report::new(exp.id, exp.title, "(experiment panicked)", &[]);
            report.verdict(false, format!("panicked: {}", panic_message(&*payload)));
            report
        }
    };
    if timing == TimingMode::Measured {
        report.duration = Some(crate::report::duration_bucket(elapsed.as_nanos()).to_string());
    }
    Ok(report)
}

/// Read back and replay-audit one experiment's JSONL trace. A torn final
/// line (a run killed mid-write) drops that line with a warning in the
/// summary instead of failing the whole audit.
fn audit_one(id: &str, dir: &Path) -> TraceAudit {
    let path = dir.join(format!("{id}.jsonl"));
    match st_trace::read_jsonl_lossy(&path) {
        Ok((events, warning)) => {
            let audit = st_trace::audit(&events);
            let mut summary = audit.to_string();
            if let Some(w) = warning {
                summary.push_str(&format!(" [warning: {w}]"));
            }
            TraceAudit {
                id: id.to_string(),
                events: events.len(),
                summary,
                ok: audit.ok(),
            }
        }
        Err(e) => TraceAudit {
            id: id.to_string(),
            events: 0,
            summary: format!("trace unreadable: {e}"),
            ok: false,
        },
    }
}

/// Execute `selected` across a worker pool (see the module docs for the
/// scheduling and determinism contract). Fails only on harness errors —
/// an unwritable trace directory or an unreadable trace file is reported
/// per-experiment in [`RunOutcome::audits`], while a panicking experiment
/// becomes a `NOT REPRODUCED` report.
pub fn run_experiments(selected: &[Experiment], opts: &RunOptions) -> Result<RunOutcome, StError> {
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| StError::Io(format!("create {}: {e}", dir.display())))?;
    }
    if selected.is_empty() {
        return Ok(RunOutcome::default());
    }

    // Longest-processing-time schedule: indices into `selected`, costliest
    // first; the sort is stable so equal costs keep registry order.
    let mut schedule: Vec<usize> = (0..selected.len()).collect();
    schedule.sort_by_key(|&i| std::cmp::Reverse(selected[i].cost));

    let _quiet = PanicHookSilencer::install();
    let trace_dir = opts.trace_dir.as_deref();
    let outcomes = pool_map(selected.len(), opts.jobs, Some(&schedule), |i| {
        run_one(&selected[i], trace_dir, opts.timing)
    });
    let mut reports = Vec::with_capacity(selected.len());
    for outcome in outcomes {
        reports.push(outcome?);
    }

    // Audit every per-experiment trace after the join, in registry order.
    let audits = match &opts.trace_dir {
        Some(dir) => selected.iter().map(|e| audit_one(e.id, dir)).collect(),
        None => Vec::new(),
    };
    Ok(RunOutcome { reports, audits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_trace::Tracer;

    fn fake(id: &'static str, cost: u32, run: fn(&Tracer) -> Report) -> Experiment {
        Experiment {
            id,
            title: "fake",
            cost,
            run,
        }
    }

    fn ok_report(_: &Tracer) -> Report {
        let mut r = Report::new("x", "fake", "claim", &["col"]);
        r.row(vec!["1".into()]);
        r.verdict(true, "fine");
        r
    }

    fn panicky(_: &Tracer) -> Report {
        panic!("deliberate test panic");
    }

    #[test]
    fn selection_accepts_known_ids_case_insensitively() {
        let reg = vec![fake("e1", 1, ok_report), fake("e2", 1, ok_report)];
        let picked = select_experiments(reg, &["E2".to_string()]).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].id, "e2");
    }

    #[test]
    fn selection_with_no_args_takes_everything_in_order() {
        let reg = vec![fake("e1", 1, ok_report), fake("e2", 1, ok_report)];
        let picked = select_experiments(reg, &[]).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.id).collect::<Vec<_>>(),
            ["e1", "e2"]
        );
    }

    #[test]
    fn selection_rejects_unknown_ids_listing_all_of_them() {
        let reg = vec![fake("e1", 1, ok_report)];
        let err =
            select_experiments(reg, &["e1".into(), "e99".into(), "bogus".into()]).unwrap_err();
        assert!(err.contains("e99"), "{err}");
        assert!(err.contains("bogus"), "{err}");
        assert!(!err.contains("e1,"), "known ids must not be listed: {err}");
    }

    #[test]
    fn panicking_experiment_becomes_not_reproduced_without_killing_the_run() {
        let reg = vec![
            fake("p1", 5, panicky),
            fake("o1", 1, ok_report),
            fake("p2", 1, panicky),
        ];
        let outcome = run_experiments(
            &reg,
            &RunOptions {
                jobs: 2,
                trace_dir: None,
                timing: TimingMode::default(),
            },
        )
        .unwrap();
        assert_eq!(outcome.reports.len(), 3);
        assert_eq!(outcome.reports[0].id, "p1");
        assert!(!outcome.reports[0].reproduced());
        assert!(
            outcome.reports[0]
                .verdict
                .contains("panicked: deliberate test panic"),
            "{}",
            outcome.reports[0].verdict
        );
        assert!(outcome.reports[1].reproduced());
        assert_eq!(outcome.failures(), 2);
    }

    fn report_a(_: &Tracer) -> Report {
        named_report("a")
    }
    fn report_b(_: &Tracer) -> Report {
        named_report("b")
    }
    fn report_c(_: &Tracer) -> Report {
        named_report("c")
    }
    fn named_report(id: &str) -> Report {
        let mut r = Report::new(id, "fake", "claim", &["col"]);
        r.verdict(true, "fine");
        r
    }

    #[test]
    fn results_come_back_in_registry_order_not_schedule_order() {
        // Costs force the schedule to invert the registry order.
        let reg = vec![
            fake("a", 1, report_a),
            fake("b", 50, report_b),
            fake("c", 10, report_c),
        ];
        let outcome = run_experiments(
            &reg,
            &RunOptions {
                jobs: 3,
                trace_dir: None,
                timing: TimingMode::default(),
            },
        )
        .unwrap();
        let ids: Vec<&str> = outcome.reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c"]);
    }

    #[test]
    fn measured_timing_stamps_a_bucket_and_suppressed_leaves_none() {
        let reg = vec![fake("e1", 1, ok_report)];
        let suppressed = run_experiments(&reg, &RunOptions::default()).unwrap();
        assert_eq!(suppressed.reports[0].duration, None);
        let measured = run_experiments(
            &reg,
            &RunOptions {
                timing: TimingMode::Measured,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let bucket = measured.reports[0].duration.as_deref().expect("duration");
        assert!(
            bucket.starts_with('<') || bucket.starts_with('≥'),
            "{bucket}"
        );
    }

    #[test]
    fn tracing_writes_and_audits_one_file_per_experiment() {
        let dir = std::env::temp_dir().join("st_runner_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        let reg = vec![fake("t1", 1, traced_report), fake("t2", 1, traced_report)];
        let outcome = run_experiments(
            &reg,
            &RunOptions {
                jobs: 2,
                trace_dir: Some(dir.clone()),
                timing: TimingMode::default(),
            },
        )
        .unwrap();
        assert_eq!(outcome.audits.len(), 2);
        assert_eq!(outcome.audits[0].id, "t1");
        assert!(outcome.audits.iter().all(|a| a.ok), "{outcome:?}");
        assert!(outcome.audits.iter().all(|a| a.events > 0), "{outcome:?}");
        assert_eq!(outcome.audit_failures(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_tolerates_a_torn_final_trace_line() {
        let dir = std::env::temp_dir().join(format!("st_runner_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let whole = st_trace::TraceEvent::StepBatch { steps: 4 }.to_json_line();
        std::fs::write(dir.join("torn.jsonl"), format!("{whole}\n{{\"ev\":\"st")).unwrap();
        let audit = audit_one("torn", &dir);
        assert!(audit.ok, "{}", audit.summary);
        assert_eq!(audit.events, 1);
        assert!(
            audit.summary.contains("truncated final line"),
            "{}",
            audit.summary
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn traced_report(tracer: &Tracer) -> Report {
        // Touch a real substrate so the trace has events to audit.
        let mut m: st_extmem::TapeMachine<u8> =
            st_extmem::TapeMachine::with_input(vec![3, 1, 2], 3, tracer.clone());
        while m.tape_mut(0).read_fwd().is_some() {}
        let _ = m.usage();
        ok_report(tracer)
    }
}
