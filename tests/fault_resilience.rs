//! Integration: the fault-injection layer and the resilient algorithms,
//! end to end across crates. The safety contract under test is the one
//! ISSUE-level acceptance criterion: under injected faults a resilient
//! algorithm returns the correct answer or an explicit `Unverified` —
//! never a silently wrong verdict — and every retry is charged into the
//! shared `ResourceUsage` record.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_algo::resilient::{
    decide_check_sort_resilient, decide_multiset_equality_resilient, resilient_sort,
};
use st_core::{RetryBudget, Verdict};
use st_extmem::{Corrupt, FaultPlan, TapeMachine};
use st_problems::{generate, predicates, BitStr};
use st_trace::Tracer;

fn workload(count: u64, bits: usize, seed: u64) -> Vec<BitStr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| BitStr::from_value(u128::from(rng.gen_range(0..(1u64 << bits))), bits).unwrap())
        .collect()
}

#[test]
fn corrupt_impl_reaches_the_tape_layer_across_crates() {
    // st-problems provides Corrupt for BitStr; st-extmem consumes it.
    let items = workload(16, 6, 1);
    let mut machine: TapeMachine<BitStr> =
        TapeMachine::with_input(items.clone(), 16, Tracer::disabled());
    machine.enable_faults(0, &FaultPlan::uniform(3, 0.5));
    let mut read_back = Vec::new();
    while let Some(v) = machine.tape_mut(0).read_fwd() {
        read_back.push(v);
    }
    assert_eq!(
        read_back.len(),
        items.len(),
        "faults never change tape length"
    );
    assert!(
        machine.fault_stats().total_injected() > 0,
        "rate 0.5 must inject"
    );
    assert_ne!(
        read_back, items,
        "rate 0.5 over 16 reads must corrupt something"
    );
    // Corruption preserves each value's bit width (bit flips only).
    for (orig, got) in items.iter().zip(&read_back) {
        assert_eq!(orig.len(), got.len());
    }
    let _ = BitStr::empty().corrupted(0); // the trait is nameable downstream
}

#[test]
fn resilient_sort_is_correct_or_explicitly_unverified() {
    let items = workload(40, 8, 2);
    let mut expect = items.clone();
    expect.sort();
    for (i, rate) in [0.0, 1e-3, 1e-2, 0.08].into_iter().enumerate() {
        for seed in 0..4u64 {
            let plan = FaultPlan::uniform(100 * i as u64 + seed, rate);
            let mut rng = StdRng::seed_from_u64(seed + 40);
            let run = resilient_sort(
                &items,
                items.len(),
                &plan,
                RetryBudget::new(4),
                &mut rng,
                &Tracer::disabled(),
            )
            .unwrap();
            match &run.verdict {
                Verdict::Verified(v) => {
                    assert_eq!(
                        v, &expect,
                        "wrong verified sort at rate {rate}, seed {seed}"
                    )
                }
                Verdict::Unverified { attempts, reason } => {
                    assert_eq!(*attempts, 4);
                    assert!(!reason.is_empty());
                }
            }
        }
    }
}

#[test]
fn retry_reversals_show_up_in_the_scan_count() {
    let items = workload(64, 8, 3);
    // Clean run: the single-attempt baseline scan count.
    let mut rng = StdRng::seed_from_u64(5);
    let clean = resilient_sort(
        &items,
        items.len(),
        &FaultPlan::new(1),
        RetryBudget::default(),
        &mut rng,
        &Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(clean.attempts, 1);
    // Hostile run: every retry re-copies, re-sorts and re-verifies, and
    // scans() = 1 + total reversals must grow accordingly.
    let mut rng = StdRng::seed_from_u64(5);
    let faulty = resilient_sort(
        &items,
        items.len(),
        &FaultPlan::uniform(2, 0.05),
        RetryBudget::new(5),
        &mut rng,
        &Tracer::disabled(),
    )
    .unwrap();
    assert!(
        faulty.attempts > 1,
        "rate 0.05 must force at least one retry"
    );
    assert!(
        faulty.usage.scans() > clean.usage.scans(),
        "retries must be visible in the scan count: {} vs clean {}",
        faulty.usage.scans(),
        clean.usage.scans()
    );
}

#[test]
fn resilient_deciders_never_contradict_the_reference_predicates() {
    let mut gen_rng = StdRng::seed_from_u64(7);
    for rate in [0.0, 1e-3, 2e-2] {
        for round in 0..3u64 {
            let instances = [
                generate::yes_multiset(8, 5, &mut gen_rng),
                generate::no_multiset_one_bit(8, 5, &mut gen_rng),
                generate::yes_checksort(8, 5, &mut gen_rng),
                generate::no_checksort_sorted_but_wrong(8, 5, &mut gen_rng),
                generate::random_instance(6, 4, &mut gen_rng),
            ];
            for inst in &instances {
                let plan = FaultPlan::uniform(round * 31 + 11, rate);
                let mut rng = StdRng::seed_from_u64(round + 70);
                let eq = decide_multiset_equality_resilient(
                    inst,
                    &plan,
                    RetryBudget::new(4),
                    &mut rng,
                    &Tracer::disabled(),
                )
                .unwrap();
                if let Verdict::Verified(got) = eq.verdict {
                    assert_eq!(got, predicates::is_multiset_equal(inst), "rate {rate}");
                }
                let cs = decide_check_sort_resilient(
                    inst,
                    &plan,
                    RetryBudget::new(4),
                    &mut rng,
                    &Tracer::disabled(),
                )
                .unwrap();
                if let Verdict::Verified(got) = cs.verdict {
                    assert_eq!(got, predicates::is_check_sorted(inst), "rate {rate}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn verified_sorts_are_right_for_any_seed_and_rate(
        plan_seed in 0u64..1_000_000,
        rng_seed in 0u64..1_000_000,
        rate_mil in 0u64..50_000, // 0 .. 0.05 in millionths
    ) {
        let items = workload(24, 6, 9);
        let mut expect = items.clone();
        expect.sort();
        let plan = FaultPlan::uniform(plan_seed, rate_mil as f64 / 1e6);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let run = resilient_sort(&items, items.len(), &plan, RetryBudget::new(3), &mut rng, &Tracer::disabled())
            .unwrap();
        if let Verdict::Verified(v) = &run.verdict {
            prop_assert_eq!(v, &expect);
        }
        prop_assert!(run.attempts >= 1 && run.attempts <= 3);
    }
}
