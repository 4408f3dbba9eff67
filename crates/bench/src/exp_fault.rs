//! Experiments E19–E20: fault injection and the price of resilience.
//!
//! The paper's randomized machines already pay reversals for confidence
//! (amplification, `st_algo::amplify`); the fault layer adds a second
//! error source — the medium — and the resilient algorithms respond with
//! verify-and-retry. These experiments measure both sides of that trade:
//!
//! * **E19** sweeps the per-cell fault rate and checks the safety
//!   contract: a `Verified` answer is *never* wrong; rising fault rates
//!   surface as retries and explicit `Unverified` outcomes, with the
//!   retry cost visible in the reversal bill.
//! * **E20** sweeps the retry budget at a fixed hostile fault rate and
//!   compares the measured `Unverified` frequency against the
//!   OR-amplification bound `p^k` (a budget of `k` attempts is exactly
//!   `k`-fold OR-amplification of the single-attempt success event, run
//!   through [`st_algo::amplify::amplify_no_false_positives`]).

use crate::report::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_algo::amplify::amplify_no_false_positives;
use st_algo::resilient::resilient_sort;
use st_core::{RetryBudget, Verdict};
use st_extmem::FaultPlan;
use st_problems::BitStr;
use st_trace::Tracer;

/// Workload shared by both experiments: `count` random `bits`-bit values.
fn workload(count: u64, bits: usize, seed: u64) -> Vec<BitStr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            BitStr::from_value(u128::from(rng.gen_range(0..(1u64 << bits))), bits)
                .expect("value fits its bit width")
        })
        .collect()
}

/// E19 — fault-rate sweep: detection and false-accept rates of the
/// resilient sorter, with the retry cost in reversals.
pub fn e19_fault_sweep(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e19",
        "Fault injection: resilient sort across fault rates",
        "over a faulty medium (bit-flip/transient/stuck/torn at rate q per access) the \
         fingerprint-verified sorter returns the correct sorted sequence or an explicit \
         Unverified — never a wrong answer — and pays for every retry in reversals",
        &[
            "fault rate",
            "trials",
            "verified",
            "unverified",
            "wrong",
            "mean attempts",
            "mean reversals",
            "faults injected",
        ],
    );
    let items = workload(48, 8, 1);
    let mut expect = items.to_vec();
    expect.sort();
    let trials = 20u32;
    let budget = RetryBudget::new(4);

    let mut total_wrong = 0u32;
    let mut detection_visible = false;
    let mut clean_reversals = 0.0f64;
    let mut hostile_reversals = 0.0f64;
    for rate in [0.0, 1e-4, 1e-3, 1e-2, 0.05] {
        let mut verified = 0u32;
        let mut unverified = 0u32;
        let mut wrong = 0u32;
        let mut attempts = 0u64;
        let mut reversals = 0u64;
        let mut injected = 0u64;
        for trial in 0..trials {
            let plan = FaultPlan::uniform(u64::from(trial) * 7919 + 1, rate);
            let mut rng = StdRng::seed_from_u64(u64::from(trial) + 100);
            let run = resilient_sort(&items, items.len(), &plan, budget, &mut rng, tracer)
                .expect("resilient sort");
            attempts += u64::from(run.attempts);
            reversals += run.usage.total_reversals();
            injected += run.faults.total_injected();
            match &run.verdict {
                Verdict::Verified(v) if *v == expect => verified += 1,
                Verdict::Verified(_) => wrong += 1,
                Verdict::Unverified { .. } => unverified += 1,
            }
        }
        total_wrong += wrong;
        detection_visible |= rate > 0.0 && (unverified > 0 || attempts > u64::from(trials));
        let mean_rev = reversals as f64 / f64::from(trials);
        if rate == 0.0 {
            clean_reversals = mean_rev;
        } else {
            hostile_reversals = mean_rev;
        }
        r.row(vec![
            format!("{rate:.0e}"),
            trials.to_string(),
            verified.to_string(),
            unverified.to_string(),
            wrong.to_string(),
            format!("{:.2}", attempts as f64 / f64::from(trials)),
            format!("{mean_rev:.1}"),
            injected.to_string(),
        ]);
    }
    r.verdict(
        total_wrong == 0 && detection_visible && hostile_reversals > clean_reversals,
        format!(
            "0 wrong verdicts across every rate; faults surface as retries/Unverified, and \
             the retry cost is priced in reversals ({clean_reversals:.0} clean vs \
             {hostile_reversals:.0} at the highest rate)"
        ),
    );
    r
}

/// E20 — retry-budget sweep at a hostile fault rate, against the
/// OR-amplification bound.
pub fn e20_retry_budget(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e20",
        "Retry budgets vs the OR-amplification bound",
        "a budget of k attempts OR-amplifies the single-attempt verification event: the \
         Unverified frequency falls like p^k (p = single-attempt failure rate), matching \
         amplify_no_false_positives run over single-attempt sorts",
        &[
            "budget k",
            "trials",
            "unverified freq",
            "p^k bound",
            "amplified freq",
            "mean reversals",
        ],
    );
    let items = workload(48, 8, 2);
    let mut expect = items.to_vec();
    expect.sort();
    // One attempt touches ~2·10³ faulty cells, so this rate puts the
    // single-attempt failure probability mid-range — the regime where a
    // budget sweep is informative (at 10× this rate every attempt fails).
    let rate = 2.5e-4;
    let trials = 30u32;

    // Estimate the single-attempt verification-failure probability p.
    let mut failures = 0u32;
    let probe_trials = 60u32;
    for trial in 0..probe_trials {
        let plan = FaultPlan::uniform(u64::from(trial) * 104_729 + 3, rate);
        let mut rng = StdRng::seed_from_u64(u64::from(trial) + 500);
        let run = resilient_sort(
            &items,
            items.len(),
            &plan,
            RetryBudget::none(),
            &mut rng,
            tracer,
        )
        .expect("probe sort");
        if !run.verdict.is_verified() {
            failures += 1;
        }
    }
    let p = f64::from(failures) / f64::from(probe_trials);

    let mut all_ok = true;
    let mut prev_freq = f64::INFINITY;
    for k in [1u32, 2, 3, 4, 5] {
        let budget = RetryBudget::new(k);
        let mut unverified = 0u32;
        let mut amplified_ok = 0u32;
        let mut reversals = 0u64;
        for trial in 0..trials {
            let plan = FaultPlan::uniform(u64::from(k * 1000 + trial) * 7919 + 5, rate);
            let mut rng = StdRng::seed_from_u64(u64::from(k * 100 + trial) + 900);
            let run = resilient_sort(&items, items.len(), &plan, budget, &mut rng, tracer)
                .expect("budgeted sort");
            reversals += run.usage.total_reversals();
            if !run.verdict.is_verified() {
                unverified += 1;
            }
            // The same event through the amplify.rs combinator: one
            // single-attempt sort per amplification round, fresh fault
            // stream each round.
            let mut round = 0u64;
            let (accepted, _) = amplify_no_false_positives(k, || {
                round += 1;
                let plan = FaultPlan::uniform(u64::from(k * 1000 + trial) * 7919 + 5 + round, rate);
                let mut rng = StdRng::seed_from_u64(u64::from(k * 100 + trial) + 900 + round);
                let run = resilient_sort(
                    &items,
                    items.len(),
                    &plan,
                    RetryBudget::none(),
                    &mut rng,
                    tracer,
                )?;
                Ok((run.verdict.is_verified(), run.usage))
            })
            .expect("amplified sort");
            if accepted {
                amplified_ok += 1;
            }
        }
        let freq = f64::from(unverified) / f64::from(trials);
        let bound = p.powi(k as i32);
        let amp_freq = 1.0 - f64::from(amplified_ok) / f64::from(trials);
        // Sampling slack: 30 trials put ~±0.15 of noise on the frequency.
        all_ok &= freq <= bound + 0.2 && freq <= prev_freq + 0.1;
        prev_freq = freq;
        r.row(vec![
            k.to_string(),
            trials.to_string(),
            format!("{freq:.3}"),
            format!("{bound:.3}"),
            format!("{amp_freq:.3}"),
            format!("{:.1}", reversals as f64 / f64::from(trials)),
        ]);
    }
    r.verdict(
        all_ok,
        format!(
            "Unverified frequency tracks the OR-amplification bound p^k (single-attempt \
             failure p = {p:.2}) and falls monotonically with the budget"
        ),
    );
    r
}
