//! The differential fuzzer CLI.
//!
//! ```text
//! cargo run -p st-conformance --bin fuzz -- --iters 1000 --jobs 4 --seed 0
//! cargo run -p st-conformance --bin fuzz -- --list              # the registry
//! cargo run -p st-conformance --bin fuzz -- --corpus-dir corpus # persist repros
//! cargo run -p st-conformance --bin fuzz -- --trace-dir DIR     # JSONL per run
//! ```
//!
//! The report on stdout is byte-identical for a given `(--iters,
//! --seed)` whatever `--jobs` is — see `st_conformance::prng`. Exit
//! status: 0 on a clean run, 1 when any oracle disagreed, 2 on usage
//! errors.

use st_bench::cli::{take_flag, take_jobs_flag, take_u64_flag};
use st_conformance::engine::{fuzz, FuzzOptions};
use st_conformance::oracle::all_oracles;

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: fuzz [--iters N] [--jobs J] [--seed S] [--corpus-dir DIR] [--trace-dir DIR] [--list]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for o in all_oracles() {
            println!("{:26}  {}  [{}]", o.id, o.title, o.guards);
        }
        return;
    }
    let iters = take_u64_flag(&mut args, "--iters", 1000).unwrap_or_else(|e| usage_error(&e));
    let seed = take_u64_flag(&mut args, "--seed", 0).unwrap_or_else(|e| usage_error(&e));
    let jobs = take_jobs_flag(&mut args).unwrap_or_else(|e| usage_error(&e));
    let corpus_dir = take_flag(&mut args, "--corpus-dir")
        .unwrap_or_else(|e| usage_error(&e))
        .map(std::path::PathBuf::from);
    let trace_dir = take_flag(&mut args, "--trace-dir")
        .unwrap_or_else(|e| usage_error(&e))
        .map(std::path::PathBuf::from);
    if let Some(stray) = args.first() {
        usage_error(&format!("unexpected argument {stray}"));
    }
    let opts = FuzzOptions {
        iters,
        jobs,
        seed,
        corpus_dir,
        trace_dir,
    };
    match fuzz(&opts) {
        Ok(report) => {
            print!("{}", report.render());
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn u64_flags_parse_with_defaults() {
        let mut a = args(&["--iters", "200", "--seed", "7"]);
        assert_eq!(take_u64_flag(&mut a, "--iters", 1000).unwrap(), 200);
        assert_eq!(take_u64_flag(&mut a, "--seed", 0).unwrap(), 7);
        assert_eq!(take_jobs_flag(&mut a).unwrap(), 0);
        assert!(a.is_empty());
        let mut bad = args(&["--iters", "lots"]);
        assert!(take_u64_flag(&mut bad, "--iters", 0).is_err());
    }

    #[test]
    fn flag_values_may_not_be_flags() {
        let mut a = args(&["--corpus-dir", "--trace-dir"]);
        assert!(take_flag(&mut a, "--corpus-dir").is_err());
    }
}
