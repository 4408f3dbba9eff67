//! # st-bench — the experiment harness
//!
//! The paper's "evaluation" is its theorems; every experiment here
//! regenerates the measurable *shape* of one claim (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for recorded outputs).
//!
//! Run everything with `cargo run -p st-bench --bin report`, or one
//! experiment with `… --bin report e3`. Criterion wall-time benches live
//! in `crates/bench/benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod exp_durable;
pub mod exp_fault;
pub mod exp_lowerbound;
pub mod exp_model;
pub mod exp_mpc;
pub mod exp_query;
pub mod exp_upper;
pub mod report;
pub mod runner;

pub use report::Report;
use st_trace::Tracer;

/// One experiment registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable id (e.g. `e3`) used on the command line and as the trace
    /// file stem.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Relative wall-clock cost hint (1 = cheapest). The parallel runner
    /// schedules costlier experiments first (longest-processing-time
    /// order) so a straggler started last cannot serialize the tail of
    /// the run; the hint never affects output order or content.
    pub cost: u32,
    /// The experiment body; every machine, run and journal it builds
    /// traces on the tracer it is handed.
    pub run: fn(&Tracer) -> Report,
}

/// The experiment registry, in report order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    let e = |id, title, cost, run: fn(&Tracer) -> Report| Experiment {
        id,
        title,
        cost,
        run,
    };
    vec![
        e(
            "e1",
            "Theorem 6 / Lemma 21: the fooling-input adversary",
            5,
            exp_lowerbound::e1_adversary,
        ),
        e(
            "e2",
            "Corollary 7: deterministic deciders at Θ(log N) scans",
            20,
            exp_upper::e2_sort_deciders,
        ),
        e(
            "e3",
            "Theorem 8(a): fingerprinting in co-RST(2, O(log N), 1)",
            200,
            exp_upper::e3_fingerprint,
        ),
        e(
            "e4",
            "Theorem 8(b): the NST(3, O(log N), 2) verifier",
            25,
            exp_upper::e4_nst,
        ),
        e(
            "e5",
            "Corollary 9: the separation table",
            10,
            exp_upper::e5_separation,
        ),
        e(
            "e6",
            "Corollary 10: sorting and CHECK-SORT via sorting",
            12,
            exp_upper::e6_sorting,
        ),
        e(
            "e7",
            "Theorem 11: relational algebra on streams",
            40,
            exp_query::e7_relalg,
        ),
        e(
            "e8",
            "Theorem 12: the XQuery query",
            5,
            exp_query::e8_xquery,
        ),
        e(
            "e9",
            "Theorem 13 / Figure 1: the XPath filter",
            5,
            exp_query::e9_xpath,
        ),
        e(
            "e10",
            "Lemma 16: TM → NLM simulation",
            25,
            exp_model::e10_simulation,
        ),
        e(
            "e11",
            "Remark 20: sortedness of the bit-reversal permutation",
            5,
            exp_lowerbound::e11_sortedness,
        ),
        e(
            "e12",
            "Lemma 32: skeleton counting",
            15,
            exp_lowerbound::e12_skeletons,
        ),
        e(
            "e13",
            "Lemma 38: compared φ-pairs vs the merge-lemma budget",
            5,
            exp_lowerbound::e13_merge_lemma,
        ),
        e(
            "e14",
            "Claim 1: residue-fingerprint collision probability",
            50,
            exp_model::e14_collisions,
        ),
        e(
            "e15",
            "Lemma 3: run length of (r,s,t)-bounded machines",
            5,
            exp_model::e15_run_length,
        ),
        e(
            "e16",
            "Corollary 7 (SHORT) / Appendix E: the reduction f",
            5,
            exp_model::e16_short_reduction,
        ),
        e(
            "e17",
            "Extension: disk economics of the scan/seek trade-off",
            5,
            exp_model::e17_disk_economics,
        ),
        e(
            "e18",
            "Lemmas 26/30/31: derandomization and structural bounds",
            5,
            exp_model::e18_structural_bounds,
        ),
        e(
            "e19",
            "Fault injection: resilient sort across fault rates",
            25,
            exp_fault::e19_fault_sweep,
        ),
        e(
            "e20",
            "Retry budgets vs the OR-amplification bound",
            70,
            exp_fault::e20_retry_budget,
        ),
        e(
            "e21",
            "Durable sort under a crash storm vs fault-free",
            15,
            exp_durable::e21_crash_storm,
        ),
        e(
            "e22",
            "Recovery overhead vs crash count",
            15,
            exp_durable::e22_recovery_overhead,
        ),
        e(
            "e23",
            "Out-of-core scale: block substrate at 10⁸ symbols",
            150,
            exp_upper::e23_out_of_core,
        ),
        e(
            "e24",
            "MPC flat families: fingerprint and Q′ rounds vs workers",
            30,
            exp_mpc::e24_mpc_flat_rounds,
        ),
        e(
            "e25",
            "MPC logarithmic family: CHECK-SORT merge-tree rounds vs workers",
            30,
            exp_mpc::e25_mpc_sort_rounds,
        ),
        e(
            "e26",
            "MPC under packet loss: retry overhead vs drop rate",
            30,
            exp_mpc::e26_mpc_retry_overhead,
        ),
        e(
            "e27",
            "MPC worker crashes: kill-at-every-round recovery sweep",
            30,
            exp_mpc::e27_mpc_crash_sweep,
        ),
        e(
            "f2",
            "Figure 2: one NLM transition, reproduced",
            5,
            exp_lowerbound::f2_figure2,
        ),
    ]
}
