//! The deterministic fuzz loop.
//!
//! Iterations are partitioned into fixed-size blocks and the blocks run
//! on `st-bench`'s work-stealing pool. Because every word and every
//! decider seed is a pure function of `(master seed, iteration)` (see
//! [`crate::prng`]) and block results are reassembled in index order,
//! the report is **byte-identical across `--jobs` settings** — the
//! thread schedule can change which core computes a block, never what
//! the block computes.
//!
//! Panics inside a decider are caught (with the process-wide hook
//! silenced, depth-counted, exactly as `st-bench` does for experiment
//! isolation) and reported as disagreements — a fuzzer that dies on the
//! first panic cannot minimize it.

use crate::corpus::{escape_word, write_repro, Repro};
use crate::generator::{family_for_iteration, generate_word};
use crate::oracle::{all_oracles, compare, compare_traced, Agreement, Oracle};
use crate::prng::derive_seed;
use crate::shrink::shrink_word;
use st_bench::runner::{hush_panics, panic_message, pool_map};
use st_core::StError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Iterations per pool work item. Small enough to parallelize short
/// runs, large enough that claim-counter traffic is noise.
const BLOCK: u64 = 64;

/// Fuzz run configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of iterations (each iteration runs every oracle once).
    pub iters: u64,
    /// Worker threads; `0` = one per available core.
    pub jobs: usize,
    /// Master seed — the whole run is a pure function of it.
    pub seed: u64,
    /// Where to persist repro files for disagreements (`None` = don't).
    pub corpus_dir: Option<PathBuf>,
    /// Where to write JSONL traces of both runs of each disagreement.
    pub trace_dir: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            iters: 1000,
            jobs: 0,
            seed: 0,
            corpus_dir: None,
            trace_dir: None,
        }
    }
}

/// Per-oracle tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleStats {
    /// Oracle id.
    pub id: String,
    /// Verdicts agreed (possibly after amplification).
    pub agree: u64,
    /// Pair did not apply to the word.
    pub abstain: u64,
    /// Conformance violations (including decider panics).
    pub disagree: u64,
}

/// One minimized conformance violation.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Iteration that produced the word.
    pub iteration: u64,
    /// Oracle id.
    pub oracle: String,
    /// Generator family id.
    pub generator: String,
    /// The case seed both deciders ran under.
    pub seed: u64,
    /// The original fuzzed word.
    pub word: String,
    /// The greedily minimized word (still disagreeing).
    pub shrunk: String,
    /// What the comparator said.
    pub detail: String,
    /// Repro file written for this disagreement, if persistence is on.
    pub repro: Option<PathBuf>,
}

/// The deterministic run summary.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Master seed.
    pub seed: u64,
    /// Per-oracle tallies, in registry order.
    pub stats: Vec<OracleStats>,
    /// Every disagreement, in `(iteration, registry index)` order.
    pub disagreements: Vec<Disagreement>,
}

impl FuzzReport {
    /// `true` when the run found no conformance violations.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Render the report. Byte-identical for identical `(iters, seed,
    /// oracle set, corpus_dir)` whatever the `--jobs` setting.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "st-conformance fuzz: iters={} seed={}\n",
            self.iters, self.seed
        ));
        let width = self
            .stats
            .iter()
            .map(|s| s.id.len())
            .max()
            .unwrap_or(6)
            .max("oracle".len());
        out.push_str(&format!(
            "{:width$}  {:>8}  {:>8}  {:>8}\n",
            "oracle", "agree", "abstain", "disagree"
        ));
        for s in &self.stats {
            out.push_str(&format!(
                "{:width$}  {:>8}  {:>8}  {:>8}\n",
                s.id, s.agree, s.abstain, s.disagree
            ));
        }
        for d in &self.disagreements {
            out.push_str(&format!(
                "DISAGREE [{}] iter={} gen={} seed={}\n  word   = \"{}\"\n  shrunk = \"{}\"\n  {}\n",
                d.oracle,
                d.iteration,
                d.generator,
                d.seed,
                escape_word(&d.word),
                escape_word(&d.shrunk),
                d.detail
            ));
            if let Some(path) = &d.repro {
                out.push_str(&format!("  repro: {}\n", path.display()));
            }
        }
        out.push_str(&format!(
            "{} disagreement(s) in {} iteration(s)\n",
            self.disagreements.len(),
            self.iters
        ));
        out
    }
}

struct RawDisagreement {
    iteration: u64,
    oracle_idx: usize,
    seed: u64,
    word: String,
    detail: String,
}

struct BlockResult {
    // [agree, abstain, disagree] per oracle, registry order.
    tallies: Vec<[u64; 3]>,
    raw: Vec<RawDisagreement>,
}

fn run_block(oracles: &[Oracle], master: u64, lo: u64, hi: u64) -> BlockResult {
    let mut tallies = vec![[0u64; 3]; oracles.len()];
    let mut raw = Vec::new();
    for iteration in lo..hi {
        let family = family_for_iteration(iteration);
        let word = generate_word(family, master, iteration);
        for (k, oracle) in oracles.iter().enumerate() {
            let case_seed = derive_seed(master, oracle.id, iteration);
            let outcome = catch_unwind(AssertUnwindSafe(|| compare(oracle, &word, case_seed)));
            let agreement = match outcome {
                Ok(c) => c.agreement,
                Err(payload) => Agreement::Disagree {
                    detail: format!("decider panicked: {}", panic_message(payload.as_ref())),
                },
            };
            match agreement {
                Agreement::Agree => tallies[k][0] += 1,
                Agreement::Abstain { .. } => tallies[k][1] += 1,
                Agreement::Disagree { detail } => {
                    tallies[k][2] += 1;
                    raw.push(RawDisagreement {
                        iteration,
                        oracle_idx: k,
                        seed: case_seed,
                        word: word.clone(),
                        detail,
                    });
                }
            }
        }
    }
    BlockResult { tallies, raw }
}

/// Run the full registry under `opts`.
pub fn fuzz(opts: &FuzzOptions) -> Result<FuzzReport, StError> {
    fuzz_with(opts, &all_oracles())
}

/// Run an explicit oracle set under `opts` (the registry for real runs,
/// scratch oracles in tests).
pub fn fuzz_with(opts: &FuzzOptions, oracles: &[Oracle]) -> Result<FuzzReport, StError> {
    let _quiet = hush_panics();
    let blocks = opts.iters.div_ceil(BLOCK) as usize;
    let results = pool_map(blocks, opts.jobs, None, |b| {
        let lo = b as u64 * BLOCK;
        let hi = (lo + BLOCK).min(opts.iters);
        run_block(oracles, opts.seed, lo, hi)
    });

    let mut stats: Vec<OracleStats> = oracles
        .iter()
        .map(|o| OracleStats {
            id: o.id.to_string(),
            agree: 0,
            abstain: 0,
            disagree: 0,
        })
        .collect();
    let mut disagreements = Vec::new();
    for block in results {
        for (k, t) in block.tallies.iter().enumerate() {
            stats[k].agree += t[0];
            stats[k].abstain += t[1];
            stats[k].disagree += t[2];
        }
        for raw in block.raw {
            let oracle = &oracles[raw.oracle_idx];
            let shrunk = shrink_word(oracle, &raw.word, raw.seed);
            let stem = format!("{}-i{:05}", oracle.id, raw.iteration);
            let repro = match &opts.corpus_dir {
                Some(dir) => Some(write_repro(
                    dir,
                    &stem,
                    &Repro {
                        oracle: oracle.id.to_string(),
                        generator: family_for_iteration(raw.iteration).id().to_string(),
                        seed: raw.seed,
                        word: shrunk.clone(),
                    },
                )?),
                None => None,
            };
            if let Some(dir) = &opts.trace_dir {
                write_traces(dir, &stem, oracle, &shrunk, raw.seed)?;
            }
            disagreements.push(Disagreement {
                iteration: raw.iteration,
                oracle: oracle.id.to_string(),
                generator: family_for_iteration(raw.iteration).id().to_string(),
                seed: raw.seed,
                word: raw.word,
                shrunk,
                detail: raw.detail,
                repro,
            });
        }
    }
    Ok(FuzzReport {
        iters: opts.iters,
        seed: opts.seed,
        stats,
        disagreements,
    })
}

/// Re-run both sides of `oracle` on the shrunk word, each on its own
/// JSONL tracer, so the disagreement ships with a record of each run.
/// Panicking deciders simply leave a truncated trace behind.
fn write_traces(
    dir: &std::path::Path,
    stem: &str,
    oracle: &Oracle,
    word: &str,
    seed: u64,
) -> Result<(), StError> {
    std::fs::create_dir_all(dir)?;
    let left = st_trace::Tracer::jsonl(&dir.join(format!("{stem}.left.jsonl")))?;
    let right = st_trace::Tracer::jsonl(&dir.join(format!("{stem}.right.jsonl")))?;
    let _ = catch_unwind(AssertUnwindSafe(|| {
        compare_traced(oracle, word, seed, &left, &right)
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::read_repro;
    use crate::oracle::{predicate_multiset, ErrorModel};
    use st_problems::Instance;
    use st_trace::Tracer;

    #[test]
    fn registry_is_clean_and_reports_are_byte_identical_across_jobs() {
        let base = FuzzOptions {
            iters: 130,
            jobs: 1,
            seed: 0,
            corpus_dir: None,
            trace_dir: None,
        };
        let sequential = fuzz(&base).unwrap();
        assert!(
            sequential.clean(),
            "registry disagreed on main:\n{}",
            sequential.render()
        );
        // Every oracle must actually fire — a registry entry that only
        // ever abstains guards nothing.
        for s in &sequential.stats {
            assert!(s.agree > 0, "oracle {} never applied", s.id);
        }
        let parallel = fuzz(&FuzzOptions {
            jobs: 4,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(sequential.render(), parallel.render());
        let auto = fuzz(&FuzzOptions { jobs: 0, ..base }).unwrap();
        assert_eq!(sequential.render(), auto.render());
    }

    /// Off-by-one sort decider: never compares the smallest record pair.
    fn broken_sort(word: &str, _seed: u64, _: &Tracer) -> Result<Option<bool>, StError> {
        let Ok(inst) = Instance::parse(word) else {
            return Ok(None);
        };
        let mut xs = inst.xs.clone();
        let mut ys = inst.ys.clone();
        xs.sort();
        ys.sort();
        Ok(Some(xs.iter().skip(1).eq(ys.iter().skip(1))))
    }

    #[test]
    fn planted_off_by_one_is_caught_and_shrunk_within_1000_iters() {
        let oracle = Oracle {
            id: "scratch-broken-sort",
            title: "deliberately planted off-by-one",
            guards: "none — acceptance demo",
            left: "broken_sort",
            right: "predicates::is_multiset_equal",
            model: ErrorModel::Exact,
            left_run: broken_sort,
            right_run: predicate_multiset,
        };
        let dir =
            std::env::temp_dir().join(format!("st-conformance-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = fuzz_with(
            &FuzzOptions {
                iters: 1000,
                jobs: 2,
                seed: 0,
                corpus_dir: Some(dir.clone()),
                trace_dir: None,
            },
            &[oracle],
        )
        .unwrap();
        assert!(
            !report.disagreements.is_empty(),
            "planted bug escaped 1000 iterations"
        );
        let first = &report.disagreements[0];
        assert!(first.iteration < 1000);
        // The shrunk repro is minimal: a single pair, at most one bit.
        let inst = Instance::parse(&first.shrunk).unwrap();
        assert_eq!(
            inst.m(),
            1,
            "shrunk word kept irrelevant pairs: {:?}",
            first.shrunk
        );
        let bits = inst.xs[0].len() + inst.ys[0].len();
        assert!(bits <= 1, "shrunk word kept bits: {:?}", first.shrunk);
        // The repro file is self-contained and round-trips.
        let path = first.repro.as_ref().expect("corpus persistence was on");
        let repro = read_repro(path).unwrap();
        assert_eq!(repro.oracle, "scratch-broken-sort");
        assert_eq!(repro.word, first.shrunk);
        assert_eq!(repro.seed, first.seed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_iterations_yield_an_empty_clean_report() {
        let report = fuzz(&FuzzOptions {
            iters: 0,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert!(report.clean());
        assert!(report
            .stats
            .iter()
            .all(|s| s.agree + s.abstain + s.disagree == 0));
    }
}
