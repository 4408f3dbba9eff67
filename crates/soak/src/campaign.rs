//! The budgeted campaign engine and its deterministic report.
//!
//! Iterations run in blocks over the st-bench work-stealing pool; the
//! per-iteration outcomes come back in **iteration order** whatever the
//! workers did, and every counter folds associatively, so the rendered
//! [`SoakReport`] is byte-identical across `--jobs` values. Wall-clock
//! latency is the deliberate exception: histograms are always collected
//! but rendered only under [`TimingMode::Measured`], so the determinism
//! gates compare suppressed-timing artifacts (the same contract the
//! experiment runner uses).

use crate::scenario::{
    all_scenarios, run_iteration, scenario_for_iteration, Failure, Injection, IterationOutcome,
    Scenario, SoakContext,
};
use crate::stats::{LatencyHistogram, ScenarioStats};
use st_bench::report::duration_bucket;
use st_bench::runner::{hush_panics, panic_message, pool_map, RunOptions, TimingMode};
use st_bench::Report;
use st_conformance::corpus::write_repro;
use st_core::StError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CAMPAIGN_ID: AtomicU64 = AtomicU64::new(0);

/// Iterations dispatched to the pool per block. Soak iterations are
/// heavier than conformance fuzz cases (durable sorts, fault storms),
/// so blocks are smaller; the block boundary is also where a time
/// budget is checked.
const BLOCK: u64 = 16;

/// Options for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Iteration cap (the campaign's deterministic budget).
    pub iters: u64,
    /// Optional wall-clock budget in milliseconds: checked at block
    /// boundaries, so a campaign stops within one block of the limit.
    /// Time-budgeted runs trade the fixed iteration count away — only
    /// `--iters`-bounded campaigns are run-to-run deterministic.
    pub budget_ms: Option<u64>,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Master seed: with the scenario and iteration index, the complete
    /// identity of every random choice the campaign makes.
    pub seed: u64,
    /// Where shrunk failure repros persist (grows-only, deduplicated).
    /// `None` disables persistence.
    pub corpus_dir: Option<PathBuf>,
    /// Whether the report renders latency percentiles and a campaign
    /// duration (suppressed by default for byte-identical artifacts).
    pub timing: TimingMode,
    /// Active failure injection, if any.
    pub inject: Option<Injection>,
    /// Scratch directory for WAL journals. `None` = a per-campaign
    /// directory under the system temp dir, removed after the campaign.
    pub scratch_dir: Option<PathBuf>,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            iters: 256,
            budget_ms: None,
            jobs: 0,
            seed: 0,
            corpus_dir: None,
            timing: TimingMode::default(),
            inject: None,
            scratch_dir: None,
        }
    }
}

/// One scenario's accumulated view of a campaign.
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// The scenario.
    pub scenario: Scenario,
    /// Deterministic counters, folded in iteration order.
    pub stats: ScenarioStats,
    /// Per-instance wall-clock latency (rendered only under measured
    /// timing).
    pub latency: LatencyHistogram,
    /// Per-session wall-clock latency for service scenarios (empty for
    /// scenarios that run no sessions; rendered only under measured
    /// timing).
    pub session_latency: LatencyHistogram,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The master seed the campaign ran under.
    pub master_seed: u64,
    /// Iterations actually run (≤ the requested cap under a time
    /// budget).
    pub iterations: u64,
    /// Per-scenario summaries, in [`all_scenarios`] order.
    pub scenarios: Vec<ScenarioSummary>,
    /// Hard failures, in iteration order.
    pub failures: Vec<Failure>,
    /// Corpus fixtures persisted (deduplicated), in iteration order.
    pub repro_paths: Vec<PathBuf>,
    /// Whether the wall-clock budget stopped the campaign early.
    pub stopped_by_budget: bool,
    /// The timing mode the campaign ran under (gates latency rendering).
    pub timing: TimingMode,
    /// Campaign wall-clock, bucketed; `None` under suppressed timing.
    pub duration: Option<String>,
}

impl SoakReport {
    /// Total disagreements across scenarios.
    #[must_use]
    pub fn disagreements(&self) -> u64 {
        self.scenarios.iter().map(|s| s.stats.disagreements).sum()
    }

    /// Is the campaign clean (no hard failures)?
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render as a [`Report`] (id `soak`) for `BENCH_report.json` — one
    /// row per scenario plus a totals row. Byte-identical across
    /// `--jobs` under suppressed timing.
    #[must_use]
    pub fn to_report(&self) -> Report {
        let mut r = Report::new(
            "soak",
            "chaos/soak campaign over mixed scenarios",
            "sustained skewed/bursty/duplicated traffic with crash, fault, and \
             concurrency storms produces zero disagreements and byte-identical recoveries",
            &[
                "scenario",
                "iters",
                "compares",
                "disagree",
                "crashes",
                "recoveries",
                "wal-discarded-B",
                "faults",
                "exhausted",
                "adm-rej",
                "net-retries",
                "mpc-crashes",
                "p50",
                "p99",
                "sess-p99",
            ],
        );
        let mut total = ScenarioStats::default();
        let mut total_latency = LatencyHistogram::default();
        let mut total_session_latency = LatencyHistogram::default();
        for s in &self.scenarios {
            r.row(self.stats_row(s.scenario.id(), &s.stats, &s.latency, &s.session_latency));
            total.merge(&s.stats);
            total_latency.merge(&s.latency);
            total_session_latency.merge(&s.session_latency);
        }
        r.row(self.stats_row("total", &total, &total_latency, &total_session_latency));
        let ok = self.clean();
        r.verdict(
            ok,
            format!(
                "{} iteration(s), seed {}, {} failure(s), {} disagreement(s), {} recovery(ies){}",
                self.iterations,
                self.master_seed,
                self.failures.len(),
                self.disagreements(),
                total.crash_recoveries,
                if self.stopped_by_budget {
                    " — stopped by wall-clock budget"
                } else {
                    ""
                }
            ),
        );
        r.duration = self.duration.clone();
        r
    }

    fn stats_row(
        &self,
        id: &str,
        s: &ScenarioStats,
        latency: &LatencyHistogram,
        session_latency: &LatencyHistogram,
    ) -> Vec<String> {
        let percentile = |h: &LatencyHistogram, p: f64| -> String {
            if self.timing == TimingMode::Measured {
                h.percentile(p).to_string()
            } else {
                "-".to_string()
            }
        };
        vec![
            id.to_string(),
            s.iterations.to_string(),
            s.comparisons.to_string(),
            s.disagreements.to_string(),
            s.crashes_injected.to_string(),
            s.crash_recoveries.to_string(),
            s.wal_discarded_bytes.to_string(),
            s.faults_injected.to_string(),
            s.retry_exhaustions.to_string(),
            s.admission_rejections.to_string(),
            s.mpc_retries.to_string(),
            s.mpc_worker_crashes.to_string(),
            percentile(latency, 50.0),
            percentile(latency, 99.0),
            percentile(session_latency, 99.0),
        ]
    }

    /// Human rendering: the report table plus one line per failure and
    /// persisted fixture.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = self.to_report().to_string();
        for f in &self.failures {
            out.push_str(&format!(
                "   FAILURE {}:i{:05} — {}\n",
                f.scenario.id(),
                f.iteration,
                f.detail
            ));
        }
        for p in &self.repro_paths {
            out.push_str(&format!("   repro persisted: {}\n", p.display()));
        }
        out
    }
}

/// Run a campaign. Failures never abort the run — they are collected
/// (and persisted when a corpus directory is set); only harness errors
/// (an unwritable corpus) surface as `Err`.
pub fn run_campaign(opts: &SoakOptions) -> Result<SoakReport, StError> {
    let started = std::time::Instant::now();
    let owns_scratch = opts.scratch_dir.is_none();
    // The default dir is unique per campaign, not just per process: it
    // is removed when the campaign ends, which must not pull journals
    // from under a concurrent campaign in the same process.
    let scratch = opts.scratch_dir.clone().unwrap_or_else(|| {
        let id = CAMPAIGN_ID.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("st-soak-{}-{id}", std::process::id()))
    });
    std::fs::create_dir_all(&scratch)
        .map_err(|e| StError::Io(format!("create {}: {e}", scratch.display())))?;
    let ctx = SoakContext {
        scratch: scratch.clone(),
        inject: opts.inject,
    };

    let _quiet = hush_panics();
    let jobs = RunOptions {
        jobs: opts.jobs,
        ..RunOptions::default()
    }
    .effective_jobs(BLOCK as usize);

    let mut outcomes: Vec<IterationOutcome> = Vec::new();
    let mut next = 0u64;
    let mut stopped_by_budget = false;
    while next < opts.iters {
        if let Some(budget_ms) = opts.budget_ms {
            if started.elapsed().as_millis() >= u128::from(budget_ms) {
                stopped_by_budget = true;
                break;
            }
        }
        let block = BLOCK.min(opts.iters - next);
        let base = next;
        let master = opts.seed;
        let ctx_ref = &ctx;
        outcomes.extend(pool_map(block as usize, jobs, None, move |i| {
            let iteration = base + i as u64;
            let scenario = scenario_for_iteration(iteration);
            catch_unwind(AssertUnwindSafe(|| {
                run_iteration(scenario, master, iteration, ctx_ref)
            }))
            .unwrap_or_else(|payload| IterationOutcome {
                scenario,
                iteration,
                stats: ScenarioStats {
                    iterations: 1,
                    ..ScenarioStats::default()
                },
                failure: Some(Failure {
                    scenario,
                    iteration,
                    detail: format!("iteration panicked: {}", panic_message(&*payload)),
                    repro: None,
                }),
                latency_nanos: 0,
                session_latency_nanos: Vec::new(),
            })
        }));
        next += block;
    }

    // Fold per-scenario in iteration order (outcomes are already in
    // iteration order — pool_map returns index order per block).
    let mut scenarios: Vec<ScenarioSummary> = all_scenarios()
        .into_iter()
        .map(|scenario| ScenarioSummary {
            scenario,
            stats: ScenarioStats::default(),
            latency: LatencyHistogram::default(),
            session_latency: LatencyHistogram::default(),
        })
        .collect();
    let mut failures = Vec::new();
    for outcome in &outcomes {
        let slot = scenarios
            .iter_mut()
            .find(|s| s.scenario == outcome.scenario)
            .expect("every scenario is pre-registered");
        slot.stats.merge(&outcome.stats);
        slot.latency.record(outcome.latency_nanos);
        for &nanos in &outcome.session_latency_nanos {
            slot.session_latency.record(nanos);
        }
        if let Some(failure) = &outcome.failure {
            failures.push(failure.clone());
        }
    }

    // Persist shrunk repros (write_repro deduplicates on content, so a
    // re-run of the same campaign grows the corpus by nothing).
    let mut repro_paths = Vec::new();
    if let Some(dir) = &opts.corpus_dir {
        for failure in &failures {
            if let Some(repro) = &failure.repro {
                let stem = format!("{}-soak-i{:05}", repro.oracle, failure.iteration);
                repro_paths.push(write_repro(dir, &stem, repro)?);
            }
        }
    }

    if owns_scratch {
        std::fs::remove_dir_all(&scratch).ok();
    }

    let duration = (opts.timing == TimingMode::Measured)
        .then(|| duration_bucket(started.elapsed().as_nanos()).to_string());
    Ok(SoakReport {
        master_seed: opts.seed,
        iterations: outcomes.len() as u64,
        scenarios,
        failures,
        repro_paths,
        stopped_by_budget,
        timing: opts.timing,
        duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(iters: u64, jobs: usize) -> SoakOptions {
        SoakOptions {
            iters,
            jobs,
            seed: 1,
            ..SoakOptions::default()
        }
    }

    #[test]
    fn campaign_runs_every_scenario_and_stays_clean() {
        let report = run_campaign(&opts(48, 2)).unwrap();
        assert_eq!(report.iterations, 48);
        assert!(report.clean(), "{:?}", report.failures);
        for s in &report.scenarios {
            assert_eq!(s.stats.iterations, 8, "{}", s.scenario.id());
        }
        let serve = report
            .scenarios
            .iter()
            .find(|s| s.scenario == crate::scenario::Scenario::Serve)
            .unwrap();
        assert!(serve.stats.admission_rejections > 0);
        assert_eq!(serve.session_latency.total(), serve.stats.sessions);
        let chaos = report
            .scenarios
            .iter()
            .find(|s| s.scenario == crate::scenario::Scenario::MpcChaos)
            .unwrap();
        assert!(chaos.stats.mpc_retries > 0, "chaos storms never retried");
        let rendered = report.to_report();
        assert!(rendered.reproduced(), "{rendered}");
        // Suppressed timing renders no percentiles and no duration.
        assert!(rendered.to_string().contains("| -"), "{rendered}");
        assert_eq!(rendered.duration, None);
    }

    #[test]
    fn zero_iterations_yield_an_empty_clean_report() {
        let report = run_campaign(&opts(0, 1)).unwrap();
        assert_eq!(report.iterations, 0);
        assert!(report.clean());
        assert!(report.to_report().reproduced());
    }

    #[test]
    fn wall_clock_budget_stops_at_a_block_boundary() {
        let report = run_campaign(&SoakOptions {
            iters: u64::MAX / 2,
            budget_ms: Some(0),
            jobs: 1,
            seed: 0,
            ..SoakOptions::default()
        })
        .unwrap();
        assert!(report.stopped_by_budget);
        assert_eq!(report.iterations, 0, "a 0ms budget stops before block 1");
        assert!(report
            .to_report()
            .verdict
            .contains("stopped by wall-clock budget"));
    }

    #[test]
    fn measured_timing_renders_percentiles_and_duration() {
        let report = run_campaign(&SoakOptions {
            timing: TimingMode::Measured,
            ..opts(10, 2)
        })
        .unwrap();
        let rendered = report.to_report();
        assert!(rendered.duration.is_some());
        // Iteration percentiles (p50/p99) chart real buckets on every
        // row; sess-p99 charts only on rows with service sessions (the
        // serve row and the total) and stays `-` elsewhere.
        let col = |name: &str| {
            rendered
                .columns
                .iter()
                .position(|c| c == name)
                .expect("column exists")
        };
        let (p50, p99, sess) = (col("p50"), col("p99"), col("sess-p99"));
        for row in &rendered.rows {
            assert_ne!(row[p50], "-", "{row:?}");
            assert_ne!(row[p99], "-", "{row:?}");
            match row[0].as_str() {
                "serve" | "total" => assert_ne!(row[sess], "-", "{row:?}"),
                _ => assert_eq!(row[sess], "-", "{row:?}"),
            }
        }
    }
}
