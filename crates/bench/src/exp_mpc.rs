//! Experiments E24–E27: the reversal→round correspondence, measured —
//! and kept under network faults.
//!
//! The Beame–Koutris–Suciu MPC model charges synchronization rounds
//! and bytes on the wire where the ST model charges head reversals.
//! `st-mpc` makes the correspondence executable, and these experiments
//! measure its two signature shapes across worker counts
//! `p ∈ {1, 2, 4, 8, 16}`:
//!
//! * **E24** — the *flat* family: the Theorem 8(a) fingerprint is a
//!   commutative combine, so MULTISET-EQ costs exactly **1 round** at
//!   every `p`; the Theorem 11(b) query Q′ is one hash-join shuffle
//!   plus a gather, so SET-EQ costs exactly **2 rounds** at every `p`.
//!   Only the byte volume moves. Residues are checked bit-identical to
//!   the same-seed single-tape decider at every `p`.
//! * **E25** — the *logarithmic* family: CHECK-SORT climbs a binary
//!   merge tree, so its round count is exactly `⌈log₂p⌉` — the
//!   distributed image of the sort deciders' `Θ(log N)` reversals
//!   (Corollary 7).
//! * **E26** — retry overhead vs drop rate: a seeded `NetFaultPlan`
//!   drops (and corrupts) frames at increasing rates; the ack/retry
//!   exchange pays for the storm in retransmissions and redundant
//!   bytes, while every *published* meter — verdict, clean comm
//!   tallies, per-worker usage, traces — stays bit-identical to the
//!   fault-free run.
//! * **E27** — crash-at-every-round sweep: for every decider and every
//!   round, a worker is killed after that round and recovered by
//!   deterministic re-execution from its durable journal; the recovered
//!   run reproduces the fault-free artifacts bit for bit and bills the
//!   dead incarnation's work to the recovery counters.
//!
//! Determinism: instances and seeds are fixed; the MPC engine's
//! verdicts, communication tallies, and per-worker usage are
//! byte-identical across `--jobs` by construction, so every table cell
//! is reproducible.

use crate::report::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::SortRoute;
use st_mpc::{
    decide_check_sort, decide_multiset_equality, evaluate_sym_diff, MpcOptions, MpcRun,
    NetFaultPlan,
};
use st_problems::generate;
use st_trace::Tracer;

const WORKER_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// `⌈log₂p⌉` — the merge tree's predicted round count.
fn ceil_log2(p: usize) -> u64 {
    u64::from((p.max(1) as u64).next_power_of_two().trailing_zeros())
}

/// E24 — flat round counts: fingerprint (1) and Q′ (2) at every p.
pub fn e24_mpc_flat_rounds(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e24",
        "MPC flat families: fingerprint and Q\u{2032} rounds vs workers",
        "the commutative fingerprint decides MULTISET-EQ in exactly 1 communication \
         round and the Q\u{2032} hash-join decides SET-EQ in exactly 2, for every worker \
         count; only bytes on the wire grow with p, and the combined residues stay \
         bit-identical to the same-seed single-tape decider",
        &[
            "p",
            "fp rounds",
            "fp msgs",
            "fp wire",
            "residues ok",
            "q rounds",
            "q msgs",
            "q wire",
            "verdicts ok",
        ],
    );
    let inst_fp = generate::yes_multiset(48, 10, &mut StdRng::seed_from_u64(2401));
    let inst_fp_no = generate::no_multiset_one_bit(48, 10, &mut StdRng::seed_from_u64(2402));
    let inst_q = generate::yes_set_distinct(32, 10, &mut StdRng::seed_from_u64(2403));
    let inst_q_no = generate::no_multiset_one_bit(32, 10, &mut StdRng::seed_from_u64(2404));
    let seed = 77_2401u64;

    let single_yes =
        st_algo::fingerprint::run_fingerprint(&inst_fp, &mut StdRng::seed_from_u64(seed), tracer)
            .expect("single-tape fingerprint");
    let single_no = st_algo::fingerprint::run_fingerprint(
        &inst_fp_no,
        &mut StdRng::seed_from_u64(seed),
        tracer,
    )
    .expect("single-tape fingerprint");

    let mut flat_fp = true;
    let mut flat_q = true;
    let mut residues_ok = true;
    let mut verdicts_ok = true;
    for p in WORKER_SWEEP {
        let opts = MpcOptions {
            tracer: tracer.clone(),
            ..MpcOptions::with_workers(p)
        };
        let fp_yes = decide_multiset_equality(&inst_fp, &mut StdRng::seed_from_u64(seed), &opts)
            .expect("mpc fingerprint");
        let fp_no = decide_multiset_equality(&inst_fp_no, &mut StdRng::seed_from_u64(seed), &opts)
            .expect("mpc fingerprint");
        let q_yes = evaluate_sym_diff(&inst_q, &opts).expect("mpc query");
        let q_no = evaluate_sym_diff(&inst_q_no, &opts).expect("mpc query");

        flat_fp &= fp_yes.run.comm.rounds == 1 && fp_no.run.comm.rounds == 1;
        flat_q &= q_yes.run.comm.rounds == 2 && q_no.run.comm.rounds == 2;
        let res_ok = fp_yes.residues == single_yes.residues
            && fp_no.residues == single_no.residues
            && fp_yes.params == single_yes.params;
        residues_ok &= res_ok;
        let verd_ok = fp_yes.run.accepted == single_yes.accepted
            && fp_no.run.accepted == single_no.accepted
            && q_yes.run.accepted
            && !q_no.run.accepted;
        verdicts_ok &= verd_ok;
        r.row(vec![
            p.to_string(),
            fp_yes.run.comm.rounds.to_string(),
            fp_yes.run.comm.messages.to_string(),
            format!("{} B", fp_yes.run.comm.bytes_on_wire),
            if res_ok { "yes" } else { "NO" }.to_string(),
            q_yes.run.comm.rounds.to_string(),
            q_yes.run.comm.messages.to_string(),
            format!("{} B", q_yes.run.comm.bytes_on_wire),
            if verd_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    r.verdict(
        flat_fp && flat_q && residues_ok && verdicts_ok,
        "fingerprint rounds flat at 1 and Q\u{2032} rounds flat at 2 across \
         p \u{2208} {1,2,4,8,16}, with residues and verdicts pinned to the \
         single-tape deciders",
    );
    r
}

/// E25 — logarithmic round counts: the CHECK-SORT merge tree at ⌈log₂p⌉.
pub fn e25_mpc_sort_rounds(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e25",
        "MPC logarithmic family: CHECK-SORT merge-tree rounds vs workers",
        "the distributed CHECK-SORT decider spends exactly \u{2308}log\u{2082}p\u{2309} \
         communication rounds climbing its binary merge tree — the round-model image \
         of the sort deciders' \u{0398}(log N) reversals — while verdicts on yes- and \
         no-instances match the single-tape decider at every p",
        &[
            "p",
            "rounds",
            "predicted",
            "msgs",
            "wire",
            "yes ok",
            "no ok",
        ],
    );
    let inst_yes = generate::yes_checksort(64, 10, &mut StdRng::seed_from_u64(2501));
    let inst_no = generate::no_checksort_sorted_but_wrong(64, 10, &mut StdRng::seed_from_u64(2502));
    let single_yes = st_algo::sortcheck::run_sort_route(&inst_yes, SortRoute::CheckSort, tracer)
        .expect("single-tape");
    let single_no = st_algo::sortcheck::run_sort_route(&inst_no, SortRoute::CheckSort, tracer)
        .expect("single-tape");

    let mut shape_ok = true;
    let mut verdicts_ok = true;
    for p in WORKER_SWEEP {
        let opts = MpcOptions {
            tracer: tracer.clone(),
            ..MpcOptions::with_workers(p)
        };
        let yes = decide_check_sort(&inst_yes, &opts).expect("mpc check-sort");
        let no = decide_check_sort(&inst_no, &opts).expect("mpc check-sort");
        let predicted = ceil_log2(p);
        shape_ok &= yes.comm.rounds == predicted && no.comm.rounds == predicted;
        let yes_ok = yes.accepted == single_yes.accepted;
        let no_ok = no.accepted == single_no.accepted;
        verdicts_ok &= yes_ok && no_ok;
        r.row(vec![
            p.to_string(),
            yes.comm.rounds.to_string(),
            predicted.to_string(),
            yes.comm.messages.to_string(),
            format!("{} B", yes.comm.bytes_on_wire),
            if yes_ok { "yes" } else { "NO" }.to_string(),
            if no_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    r.verdict(
        shape_ok && verdicts_ok,
        "rounds exactly \u{2308}log\u{2082}p\u{2309} (0 at p=1) with single-tape verdict \
         parity on yes- and no-instances at every worker count",
    );
    r
}

/// The faulted run equals the clean run in every published artifact.
fn transparent(clean: &MpcRun, faulted: &MpcRun) -> bool {
    faulted.accepted == clean.accepted
        && faulted.comm.clean() == clean.comm.clean()
        && faulted.per_worker == clean.per_worker
        && faulted.usage == clean.usage
        && faulted.traces == clean.traces
}

/// E26 — retry overhead vs drop rate: transparency has a price, and it
/// is billed entirely to the recovery counters.
pub fn e26_mpc_retry_overhead(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e26",
        "MPC under packet loss: retry overhead vs drop rate",
        "with frames dropped and corrupted at increasing seeded rates, the ack/retry \
         exchange converges and every published artifact — verdict, clean comm meters, \
         per-worker usage, traces — is bit-identical to the fault-free run; the storm's \
         entire cost appears as retransmissions and redundant bytes in the recovery \
         counters, which grow with the drop rate",
        &[
            "drop rate",
            "rounds",
            "msgs",
            "clean wire",
            "retries",
            "redundant",
            "acks",
            "backoff",
            "identical",
        ],
    );
    let inst = generate::yes_checksort(64, 10, &mut StdRng::seed_from_u64(2601));
    let opts = MpcOptions {
        tracer: tracer.clone(),
        ..MpcOptions::with_workers(8)
    };
    let clean = decide_check_sort(&inst, &opts).expect("clean mpc check-sort");

    let mut ok = true;
    let mut prev_retries = 0u64;
    let mut monotone = true;
    for (i, rate) in [0.0, 0.1, 0.25, 0.5].into_iter().enumerate() {
        let plan = NetFaultPlan::new(2602)
            .with_drop(rate)
            .with_corrupt(rate / 2.0);
        let faulted = decide_check_sort(&inst, &opts.clone().with_fault_plan(plan))
            .expect("faulted mpc check-sort");
        let same = transparent(&clean, &faulted);
        ok &= same;
        ok &= (rate == 0.0) == (faulted.comm.retries == 0);
        if i > 0 {
            monotone &= faulted.comm.retries >= prev_retries;
        }
        prev_retries = faulted.comm.retries;
        r.row(vec![
            format!("{rate:.2}"),
            faulted.comm.rounds.to_string(),
            faulted.comm.messages.to_string(),
            format!("{} B", faulted.comm.clean().bytes_on_wire),
            faulted.comm.retries.to_string(),
            format!("{} B", faulted.comm.redundant_bytes),
            faulted.comm.acks.to_string(),
            faulted.comm.backoff_ticks.to_string(),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
    }
    r.verdict(
        ok && monotone,
        "bit-identical artifacts at every drop rate, zero retries only at rate 0, \
         and retry volume non-decreasing in the drop rate",
    );
    r
}

/// E27 — crash-at-every-round sweep: deterministic re-execution from
/// the durable journal makes worker death invisible everywhere but the
/// recovery bill.
pub fn e27_mpc_crash_sweep(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e27",
        "MPC worker crashes: kill-at-every-round recovery sweep",
        "for each decider and each communication round, one worker is killed after \
         that round and rebuilt by re-executing its journalled inputs; the recovered \
         run reproduces the fault-free verdict, residues, usage, and traces bit for \
         bit, while the dead incarnation's reversals and cells are billed to the \
         recovery counters",
        &[
            "decider",
            "round killed",
            "worker",
            "replayed rounds",
            "lost reversals",
            "lost cells",
            "identical",
        ],
    );
    let inst = generate::yes_checksort(64, 10, &mut StdRng::seed_from_u64(2701));
    let p = 8usize;
    let opts = MpcOptions {
        tracer: tracer.clone(),
        ..MpcOptions::with_workers(p)
    };
    let fp_seed = 2702u64;

    let clean_cs = decide_check_sort(&inst, &opts).expect("clean check-sort");
    let clean_q = evaluate_sym_diff(&inst, &opts).expect("clean query");
    let clean_fp = decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(fp_seed), &opts)
        .expect("clean fingerprint");

    let mut ok = true;
    let mut row = |decider: &str, round: u64, clean: &MpcRun, faulted: &MpcRun| -> bool {
        let worker = (round as usize + 1) % p;
        let same = transparent(clean, faulted) && faulted.comm.worker_crashes == 1;
        r.row(vec![
            decider.to_string(),
            round.to_string(),
            worker.to_string(),
            faulted.comm.recovery_rounds.to_string(),
            faulted.comm.lost_reversals.to_string(),
            faulted.comm.lost_cells.to_string(),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
        same
    };
    for round in 0..clean_cs.comm.rounds {
        let plan = NetFaultPlan::new(2703).kill_worker_after((round as usize + 1) % p, round);
        let faulted = decide_check_sort(&inst, &opts.clone().with_fault_plan(plan))
            .expect("faulted check-sort");
        ok &= row("check-sort", round, &clean_cs, &faulted);
    }
    for round in 0..clean_q.run.comm.rounds {
        let plan = NetFaultPlan::new(2703).kill_worker_after((round as usize + 1) % p, round);
        let faulted =
            evaluate_sym_diff(&inst, &opts.clone().with_fault_plan(plan)).expect("faulted query");
        ok &= faulted.symdiff == clean_q.symdiff;
        ok &= row("query Q\u{2032}", round, &clean_q.run, &faulted.run);
    }
    for round in 0..clean_fp.run.comm.rounds {
        let plan = NetFaultPlan::new(2703).kill_worker_after((round as usize + 1) % p, round);
        let faulted = decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(fp_seed),
            &opts.clone().with_fault_plan(plan),
        )
        .expect("faulted fingerprint");
        ok &= faulted.residues == clean_fp.residues;
        ok &= row("fingerprint", round, &clean_fp.run, &faulted.run);
    }
    r.verdict(
        ok,
        "every (decider, round) crash recovered to bit-identical artifacts with \
         exactly one crash billed per run",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::report::entry_json;

    #[test]
    fn e24_reproduces() {
        let r = e24_mpc_flat_rounds(&Tracer::disabled());
        assert!(r.reproduced(), "{}", r.verdict_line());
    }

    #[test]
    fn e25_reproduces() {
        let r = e25_mpc_sort_rounds(&Tracer::disabled());
        assert!(r.reproduced(), "{}", r.verdict_line());
    }

    #[test]
    fn e26_reproduces() {
        let r = e26_mpc_retry_overhead(&Tracer::disabled());
        assert!(r.reproduced(), "{}", r.verdict_line());
    }

    #[test]
    fn e27_reproduces() {
        let r = e27_mpc_crash_sweep(&Tracer::disabled());
        assert!(r.reproduced(), "{}", r.verdict_line());
        // One row per (decider, round): 3 for the merge tree at p=8,
        // 2 for the query shuffle, 1 for the fingerprint.
        assert_eq!(r.rows.len(), 6, "{r}");
    }

    #[test]
    fn experiments_are_deterministic_run_to_run() {
        assert_eq!(
            entry_json(&e24_mpc_flat_rounds(&Tracer::disabled())),
            entry_json(&e24_mpc_flat_rounds(&Tracer::disabled()))
        );
        assert_eq!(
            entry_json(&e25_mpc_sort_rounds(&Tracer::disabled())),
            entry_json(&e25_mpc_sort_rounds(&Tracer::disabled()))
        );
        assert_eq!(
            entry_json(&e26_mpc_retry_overhead(&Tracer::disabled())),
            entry_json(&e26_mpc_retry_overhead(&Tracer::disabled()))
        );
        assert_eq!(
            entry_json(&e27_mpc_crash_sweep(&Tracer::disabled())),
            entry_json(&e27_mpc_crash_sweep(&Tracer::disabled()))
        );
    }
}
