//! The chaos/soak campaign CLI.
//!
//! ```text
//! cargo run -p st-soak --bin soak -- --iters 300 --jobs 2 --seed 0
//! cargo run -p st-soak --bin soak -- --budget-ms 5000            # time budget
//! cargo run -p st-soak --bin soak -- --replay crash-storm:00042  # one iteration
//! cargo run -p st-soak --bin soak -- --inject-broken-oracle      # prove the pipeline
//! cargo run -p st-soak --bin soak -- --iters 300 --no-timing      # diffable output
//! ```
//!
//! A campaign merges a `soak` entry into `BENCH_report.json`
//! (`--bench-json`, atomic rename) and persists shrunk disagreement
//! repros under `--corpus-dir`. The report counters are byte-identical
//! for a given `(--iters, --seed)` whatever `--jobs` is; only the
//! latency/duration fields vary run to run (coarse decade buckets).
//! `--no-timing` renders those fields as `-` and drops the `duration:`
//! line, so two runs of one campaign print the same bytes.
//! Exit status: 0 on a clean campaign, 1 when any scenario failed,
//! 2 on usage errors.

use st_bench::cli::{take_flag, take_jobs_flag, take_switch, take_u64_flag};
use st_bench::report::merge_json;
use st_bench::report::{atomic_write, to_json};
use st_bench::runner::TimingMode;
use st_soak::{replay_iteration, run_campaign, Injection, Scenario, SoakOptions};
use std::path::PathBuf;

/// Parse a `SCENARIO:ITERATION` replay target.
fn parse_replay(spec: &str) -> Result<(Scenario, u64), String> {
    let Some((id, iter)) = spec.split_once(':') else {
        return Err(format!(
            "--replay requires SCENARIO:ITERATION (e.g. crash-storm:00042), got `{spec}`"
        ));
    };
    let scenario = Scenario::from_id(id).ok_or_else(|| {
        format!(
            "unknown scenario `{id}` (try fuzz, crash-storm, fault-storm, concurrent, serve, \
             mpc-chaos)"
        )
    })?;
    let iteration = iter
        .parse::<u64>()
        .map_err(|_| format!("--replay iteration must be an integer, got `{iter}`"))?;
    Ok((scenario, iteration))
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: soak [--iters N] [--budget-ms MS] [--jobs J] [--seed S] \
         [--corpus-dir DIR] [--bench-json FILE] [--inject-broken-oracle] \
         [--no-timing] [--replay SCENARIO:ITER]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let iters = take_u64_flag(&mut args, "--iters", 256).unwrap_or_else(|e| usage_error(&e));
    let seed = take_u64_flag(&mut args, "--seed", 0).unwrap_or_else(|e| usage_error(&e));
    let jobs = take_jobs_flag(&mut args).unwrap_or_else(|e| usage_error(&e));
    let budget_ms = take_flag(&mut args, "--budget-ms")
        .unwrap_or_else(|e| usage_error(&e))
        .map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                usage_error(&format!("--budget-ms requires an integer, got `{v}`"))
            })
        });
    let corpus_dir = take_flag(&mut args, "--corpus-dir")
        .unwrap_or_else(|e| usage_error(&e))
        .map(PathBuf::from);
    let bench_json = take_flag(&mut args, "--bench-json")
        .unwrap_or_else(|e| usage_error(&e))
        .map(PathBuf::from);
    let inject =
        take_switch(&mut args, "--inject-broken-oracle").then_some(Injection::BrokenSortOracle);
    let timing = if take_switch(&mut args, "--no-timing") {
        TimingMode::Suppressed
    } else {
        TimingMode::Measured
    };
    let replay = take_flag(&mut args, "--replay")
        .unwrap_or_else(|e| usage_error(&e))
        .map(|spec| parse_replay(&spec).unwrap_or_else(|e| usage_error(&e)));
    if let Some(stray) = args.first() {
        usage_error(&format!("unexpected argument {stray}"));
    }

    if let Some((scenario, iteration)) = replay {
        let outcome = replay_iteration(scenario, seed, iteration, inject);
        match outcome.failure {
            None => {
                println!(
                    "{}:i{iteration:05} seed {seed}: clean ({:?})",
                    scenario.id(),
                    outcome.stats
                );
            }
            Some(f) => {
                println!(
                    "{}:i{iteration:05} seed {seed}: FAILURE — {}",
                    scenario.id(),
                    f.detail
                );
                if let Some(repro) = &f.repro {
                    print!("{}", repro.render());
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let opts = SoakOptions {
        iters,
        budget_ms,
        jobs,
        seed,
        corpus_dir,
        timing,
        inject,
        scratch_dir: None,
    };
    match run_campaign(&opts) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = bench_json {
                let bench = report.to_report();
                let result = match std::fs::read_to_string(&path) {
                    Ok(existing) => merge_json(&existing, std::slice::from_ref(&bench))
                        .and_then(|doc| atomic_write(&path, doc.as_bytes())),
                    Err(_) => atomic_write(&path, to_json(std::slice::from_ref(&bench)).as_bytes()),
                };
                if let Err(e) = result {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
                println!("   merged into {}", path.display());
            }
            if !report.clean() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_specs_parse_scenario_and_iteration() {
        assert_eq!(
            parse_replay("crash-storm:00042").unwrap(),
            (Scenario::CrashStorm, 42)
        );
        assert_eq!(parse_replay("fuzz:7").unwrap(), (Scenario::Fuzz, 7));
        assert!(parse_replay("crash-storm").is_err());
        assert!(parse_replay("warp-storm:3").is_err());
        assert!(parse_replay("fuzz:many").is_err());
    }
}
