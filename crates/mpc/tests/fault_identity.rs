//! The fault-transparency invariant, pinned: under any seeded
//! `NetFaultPlan` with a finite retry budget, all three MPC deciders
//! produce verdicts, fingerprint residues, symmetric-difference counts,
//! per-worker `ResourceUsage`, and trace streams bit-identical to the
//! fault-free run — only the `CommUsage` recovery counters may differ,
//! and the clean projection of the meter must match exactly.
//!
//! This is what makes fault injection a reproduction instrument: a
//! drop/corrupt/duplicate storm, or a worker crash recovered from its
//! durable journal, is *invisible* in every published artifact except
//! the recovery bill.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_mpc::{
    decide_check_sort, decide_multiset_equality, evaluate_sym_diff, MpcOptions, MpcRun,
    NetFaultPlan,
};
use st_problems::generate;
use st_trace::{TraceEvent, Tracer};

const WORKER_SWEEP: [usize; 5] = [1, 2, 3, 7, 16];

/// A storm plan: every fault kind at a nonzero rate, derived from one
/// seed. Rates stay below the point where even the attempt-decayed
/// retry budget could plausibly exhaust.
fn storm(seed: u64) -> NetFaultPlan {
    let r = |salt: u64| 0.05 + ((seed ^ salt) % 50) as f64 / 100.0;
    NetFaultPlan::new(seed)
        .with_drop(r(1))
        .with_duplicate(r(2))
        .with_reorder(r(3))
        .with_corrupt(r(4))
        .with_delay(r(5))
}

/// Assert the faulted run equals the clean run everywhere but the
/// recovery counters.
fn assert_transparent(clean: &MpcRun, faulted: &MpcRun, ctx: &str) {
    assert_eq!(faulted.accepted, clean.accepted, "verdict drifted: {ctx}");
    assert_eq!(
        faulted.comm.clean(),
        clean.comm.clean(),
        "clean meters drifted: {ctx}"
    );
    assert_eq!(
        faulted.per_worker, clean.per_worker,
        "per-worker usage drifted: {ctx}"
    );
    assert_eq!(faulted.usage, clean.usage, "aggregate usage drifted: {ctx}");
    assert_eq!(faulted.traces, clean.traces, "traces drifted: {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multiset_eq_is_fault_transparent(seed in 0u64..10_000, pick in 0usize..5, yes in any::<bool>()) {
        let p = WORKER_SWEEP[pick];
        let mut gen = StdRng::seed_from_u64(seed);
        let inst = if yes {
            generate::yes_multiset(10, 7, &mut gen)
        } else {
            generate::no_multiset_one_bit(10, 7, &mut gen)
        };
        let opts = MpcOptions::with_workers(p);
        let clean =
            decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(seed), &opts).unwrap();
        let mut plan = storm(seed);
        if p > 1 {
            plan = plan.kill_worker_after(seed as usize % p, 0);
        }
        let faulted = decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(seed),
            &opts.clone().with_fault_plan(plan),
        )
        .unwrap();
        prop_assert_eq!(faulted.residues, clean.residues, "residues drifted");
        prop_assert_eq!(faulted.params, clean.params);
        assert_transparent(&clean.run, &faulted.run, &format!("multiset p={p} seed={seed}"));
        prop_assert!(faulted.run.comm.recovery_total() > 0, "storm left no recovery trace");
    }

    #[test]
    fn check_sort_is_fault_transparent(seed in 0u64..10_000, pick in 0usize..5, kind in 0usize..3) {
        let p = WORKER_SWEEP[pick];
        let mut gen = StdRng::seed_from_u64(seed);
        let inst = match kind {
            0 => generate::yes_checksort(12, 7, &mut gen),
            1 => generate::no_checksort_sorted_but_wrong(12, 7, &mut gen),
            _ => generate::random_instance(12, 7, &mut gen),
        };
        let opts = MpcOptions::with_workers(p);
        let clean = decide_check_sort(&inst, &opts).unwrap();
        let rounds = clean.comm.rounds;
        let mut plan = storm(seed);
        if rounds > 0 {
            plan = plan.kill_worker_after(seed as usize % p, seed % rounds);
        }
        let faulted =
            decide_check_sort(&inst, &opts.clone().with_fault_plan(plan)).unwrap();
        assert_transparent(&clean, &faulted, &format!("checksort p={p} seed={seed}"));
    }

    #[test]
    fn query_is_fault_transparent(seed in 0u64..10_000, pick in 0usize..5, kind in 0usize..3) {
        let p = WORKER_SWEEP[pick];
        let mut gen = StdRng::seed_from_u64(seed);
        let inst = match kind {
            0 => generate::yes_set_distinct(9, 6, &mut gen),
            1 => generate::no_multiset_one_bit(9, 6, &mut gen),
            _ => generate::random_instance(9, 6, &mut gen),
        };
        let opts = MpcOptions::with_workers(p);
        let clean = evaluate_sym_diff(&inst, &opts).unwrap();
        let plan = storm(seed).kill_worker_after(seed as usize % p, seed % 2);
        let faulted =
            evaluate_sym_diff(&inst, &opts.clone().with_fault_plan(plan)).unwrap();
        prop_assert_eq!(faulted.symdiff, clean.symdiff, "symdiff drifted");
        assert_transparent(&clean.run, &faulted.run, &format!("query p={p} seed={seed}"));
    }
}

/// Crash-at-every-round exhaustive sweep: for each decider, kill every
/// worker at every round (one at a time) and demand full transparency
/// plus an actual recorded crash.
#[test]
fn crash_at_every_round_recovers_bit_identically() {
    let mut gen = StdRng::seed_from_u64(404);
    let inst = generate::yes_checksort(16, 7, &mut gen);
    let p = 8usize;
    let opts = MpcOptions::with_workers(p);

    let clean_cs = decide_check_sort(&inst, &opts).unwrap();
    for round in 0..clean_cs.comm.rounds {
        for worker in 0..p {
            let plan = NetFaultPlan::new(1).kill_worker_after(worker, round);
            let faulted = decide_check_sort(&inst, &opts.clone().with_fault_plan(plan)).unwrap();
            assert_transparent(
                &clean_cs,
                &faulted,
                &format!("checksort kill w{worker} after r{round}"),
            );
            assert_eq!(faulted.comm.worker_crashes, 1);
            assert!(
                faulted.comm.recovery_rounds >= 1,
                "kill w{worker} r{round} replayed nothing"
            );
        }
    }

    let clean_q = evaluate_sym_diff(&inst, &opts).unwrap();
    for round in 0..clean_q.run.comm.rounds {
        for worker in 0..p {
            let plan = NetFaultPlan::new(2).kill_worker_after(worker, round);
            let faulted = evaluate_sym_diff(&inst, &opts.clone().with_fault_plan(plan)).unwrap();
            assert_eq!(faulted.symdiff, clean_q.symdiff);
            assert_transparent(
                &clean_q.run,
                &faulted.run,
                &format!("query kill w{worker} after r{round}"),
            );
            assert_eq!(faulted.run.comm.worker_crashes, 1);
        }
    }

    let clean_fp = decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(9), &opts).unwrap();
    for worker in 0..p {
        let plan = NetFaultPlan::new(3).kill_worker_after(worker, 0);
        let faulted = decide_multiset_equality(
            &inst,
            &mut StdRng::seed_from_u64(9),
            &opts.clone().with_fault_plan(plan),
        )
        .unwrap();
        assert_eq!(faulted.residues, clean_fp.residues);
        assert_transparent(
            &clean_fp.run,
            &faulted.run,
            &format!("fingerprint kill w{worker}"),
        );
        assert_eq!(faulted.run.comm.worker_crashes, 1);
    }
}

/// One tracer rule: every worker event goes to the tracer of the machine
/// that owns the tapes — the serial combine and a recovery replay
/// included — so the cluster's own tracer (`MpcOptions::tracer`) changes
/// no worker trace. It sees only what the cluster itself owns: the
/// `Recovery` event of each killed worker's journal reopen. Worker traces
/// and journal events are byte-equal at one job and at three.
#[test]
fn a_cluster_tracer_changes_no_worker_trace_at_any_jobs() {
    let inst = generate::yes_checksort(20, 8, &mut StdRng::seed_from_u64(9));
    let clean = MpcOptions::with_workers(4);
    let killed = clean
        .clone()
        .with_fault_plan(NetFaultPlan::new(1).kill_worker_after(1, 0));
    let runs = |opts: &MpcOptions| -> Vec<MpcRun> {
        vec![
            decide_check_sort(&inst, opts).unwrap(),
            decide_multiset_equality(&inst, &mut StdRng::seed_from_u64(9), opts)
                .unwrap()
                .run,
            evaluate_sym_diff(&inst, opts).unwrap().run,
        ]
    };
    for (opts, kills) in [(&clean, 0), (&killed, 1)] {
        let bare = runs(opts);
        let mut journal_events = Vec::new();
        for jobs in [1usize, 3] {
            let (tracer, outer) = Tracer::in_memory();
            let traced = runs(&MpcOptions {
                jobs,
                tracer,
                ..opts.clone()
            });
            for (decider, (b, t)) in ["checksort", "fingerprint", "query"]
                .iter()
                .zip(bare.iter().zip(&traced))
            {
                assert_eq!(t.traces, b.traces, "{decider} kills={kills} jobs={jobs}");
                assert_eq!(t.comm.worker_crashes, kills as u64, "{decider}");
            }
            journal_events.push(outer.snapshot());
        }
        assert!(
            bare[0].traces[0].contains("compare_sorted"),
            "the combine scan belongs to worker 0"
        );
        let outer = &journal_events[0];
        assert_eq!(
            st_trace::to_jsonl(outer),
            st_trace::to_jsonl(&journal_events[1]),
            "kills={kills}"
        );
        assert_eq!(outer.len(), 3 * kills, "cluster tracer got {outer:?}");
        assert!(
            outer
                .iter()
                .all(|e| matches!(e, TraceEvent::Recovery { .. })),
            "cluster tracer got {outer:?}"
        );
    }
}

/// Double kill: two different workers die at different rounds of the
/// same run; recovery composes.
#[test]
fn two_crashes_in_one_run_both_recover() {
    let mut gen = StdRng::seed_from_u64(77);
    let inst = generate::yes_checksort(20, 7, &mut gen);
    let opts = MpcOptions::with_workers(8);
    let clean = decide_check_sort(&inst, &opts).unwrap();
    let plan = NetFaultPlan::new(5)
        .kill_worker_after(1, 0)
        .kill_worker_after(2, 1);
    let faulted = decide_check_sort(&inst, &opts.clone().with_fault_plan(plan)).unwrap();
    assert_transparent(&clean, &faulted, "double kill");
    assert_eq!(faulted.comm.worker_crashes, 2);
}

/// The same worker can die more than once — each incarnation's bill is
/// absorbed and the final artifacts still match.
#[test]
fn repeated_crashes_of_one_worker_recover() {
    let mut gen = StdRng::seed_from_u64(78);
    let inst = generate::yes_checksort(20, 7, &mut gen);
    let opts = MpcOptions::with_workers(4);
    let clean = decide_check_sort(&inst, &opts).unwrap();
    let plan = NetFaultPlan::new(6)
        .kill_worker_after(0, 0)
        .kill_worker_after(0, 1);
    let faulted = decide_check_sort(&inst, &opts.clone().with_fault_plan(plan)).unwrap();
    assert_transparent(&clean, &faulted, "repeated kill");
    assert_eq!(faulted.comm.worker_crashes, 2);
    assert!(faulted.comm.lost_reversals > 0, "dead work went unbilled");
}

/// A full-storm run with every rate at 1.0 still converges (the
/// attempt-decayed thresholds guarantee termination in expectation) or
/// fails with the typed retry-budget error — never a wrong verdict.
#[test]
fn saturated_storm_converges_or_fails_typed() {
    let mut gen = StdRng::seed_from_u64(101);
    let inst = generate::yes_checksort(10, 6, &mut gen);
    let opts = MpcOptions::with_workers(4);
    let clean = decide_check_sort(&inst, &opts).unwrap();
    let plan = NetFaultPlan::new(11)
        .with_drop(1.0)
        .with_corrupt(1.0)
        .with_duplicate(1.0);
    match decide_check_sort(&inst, &opts.clone().with_fault_plan(plan)) {
        Ok(faulted) => assert_transparent(&clean, &faulted, "saturated storm"),
        Err(e) => assert!(
            e.to_string().contains("retry budget"),
            "unexpected failure mode: {e}"
        ),
    }
}
