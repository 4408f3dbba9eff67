//! Acceptance probabilities: exact enumeration and Monte-Carlo estimation.
//!
//! Section 2 defines `Pr(T accepts w)` as the sum over accepting runs of
//! the per-run probability `∏ 1/|Next_T(γ)|`. For the small machines the
//! experiments enumerate, [`exact_acceptance`] computes this sum exactly
//! (every run is finite by Definition 1; a step cutoff guards buggy
//! machines and reports the unresolved mass separately).
//! [`estimate_acceptance`] samples runs in parallel (on
//! [`st_core::pool_map`]) and reports a Wilson confidence interval.

use crate::machine::Tm;
use crate::run::{enumerate_runs, run_sampled, RunOutcome};
use crate::Sym;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_core::math::wilson_interval;
use st_core::{pool_map, StError};
use st_trace::Tracer;

/// Exact probability masses of the three outcome groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceProbability {
    /// Mass of accepting runs.
    pub accept: f64,
    /// Mass of rejecting (including jammed) runs.
    pub reject: f64,
    /// Mass of runs cut off by the step limit (0 for genuinely
    /// Definition-1-finite machines under a sufficient limit).
    pub unresolved: f64,
}

/// Compute exact outcome probabilities by weighted run enumeration.
pub fn exact_acceptance(
    tm: &Tm,
    input: Vec<Sym>,
    max_steps: u64,
) -> Result<AcceptanceProbability, StError> {
    let mut acc = 0.0;
    let mut rej = 0.0;
    let mut unres = 0.0;
    enumerate_runs(tm, input, max_steps, &mut |r, p| match r.outcome {
        RunOutcome::Accept => acc += p,
        RunOutcome::Reject | RunOutcome::Jam => rej += p,
        RunOutcome::StepLimit => unres += p,
    })?;
    Ok(AcceptanceProbability {
        accept: acc,
        reject: rej,
        unresolved: unres,
    })
}

/// A Monte-Carlo acceptance estimate with a 95% Wilson interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceEstimate {
    /// Accepting samples.
    pub accepted: u64,
    /// Total samples.
    pub trials: u64,
    /// Point estimate.
    pub p_hat: f64,
    /// 95% Wilson interval.
    pub interval: (f64, f64),
}

/// Estimate `Pr(T accepts input)` from `trials` independent sampled runs,
/// split into `threads` shares run on [`pool_map`] with `threads` jobs
/// (deterministic given `seed`: share `i` uses seed `seed + i`). The runs
/// of share 0, every run at one thread, trace on `tracer`; the other
/// shares run untraced, so the trace never interleaves two threads.
pub fn estimate_acceptance(
    tm: &Tm,
    input: &[Sym],
    trials: u64,
    max_steps: u64,
    seed: u64,
    threads: usize,
    tracer: &Tracer,
) -> Result<AcceptanceEstimate, StError> {
    let threads = threads.max(1);
    let per = trials / threads as u64;
    let extra = trials % threads as u64;
    let counts = pool_map(threads, threads, None, |i| -> Result<u64, StError> {
        let quota = per + u64::from((i as u64) < extra);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let untraced = Tracer::disabled();
        let tracer = if i == 0 { tracer } else { &untraced };
        let mut acc = 0u64;
        for _ in 0..quota {
            let r = run_sampled(tm, input.to_vec(), max_steps, &mut rng, tracer)?;
            if r.accepted() {
                acc += 1;
            }
        }
        Ok(acc)
    });

    let mut accepted = 0u64;
    for c in counts {
        accepted += c?;
    }
    let p_hat = if trials == 0 {
        0.0
    } else {
        accepted as f64 / trials as f64
    };
    Ok(AcceptanceEstimate {
        accepted,
        trials,
        p_hat,
        interval: wilson_interval(accepted, trials),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn exact_probability_of_coin_flip() {
        let tm = library::coin_flip_machine();
        let p = exact_acceptance(&tm, vec![1], 100).unwrap();
        assert!((p.accept - 0.5).abs() < 1e-12);
        assert!((p.reject - 0.5).abs() < 1e-12);
        assert_eq!(p.unresolved, 0.0);
    }

    #[test]
    fn exact_probability_masses_sum_to_one() {
        let tm = library::randomized_strings_equal_machine();
        for input in ["0101#0101", "0101#0111", "#"] {
            let p = exact_acceptance(&tm, library::encode(input), 100_000).unwrap();
            let total = p.accept + p.reject + p.unresolved;
            assert!((total - 1.0).abs() < 1e-9, "mass {total} for {input}");
        }
    }

    #[test]
    fn unresolved_mass_reported_for_diverging_machines() {
        let tm = library::diverging_machine();
        let p = exact_acceptance(&tm, vec![1], 25).unwrap();
        assert_eq!(p.unresolved, 1.0);
    }

    #[test]
    fn estimate_matches_exact_within_interval() {
        let tm = library::randomized_strings_equal_machine();
        let input = library::encode("0110#0110");
        let exact = exact_acceptance(&tm, input.clone(), 100_000)
            .unwrap()
            .accept;
        let est =
            estimate_acceptance(&tm, &input, 4000, 100_000, 42, 4, &Tracer::disabled()).unwrap();
        assert!(
            est.interval.0 <= exact && exact <= est.interval.1,
            "exact {exact} outside interval {:?}",
            est.interval
        );
        assert_eq!(est.trials, 4000);
    }

    #[test]
    fn estimate_is_deterministic_given_seed() {
        let tm = library::coin_flip_machine();
        let a = estimate_acceptance(&tm, &[1], 1000, 100, 7, 3, &Tracer::disabled()).unwrap();
        let b = estimate_acceptance(&tm, &[1], 1000, 100, 7, 3, &Tracer::disabled()).unwrap();
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn no_false_positives_property_of_half_zero_rtm() {
        // Definition 4(a): on every no-instance, acceptance mass is 0 —
        // checked exactly, over all runs, on several no-instances.
        let tm = library::randomized_strings_equal_machine();
        for input in ["0#1", "00#01", "1111#1110", "01#010"] {
            let p = exact_acceptance(&tm, library::encode(input), 100_000).unwrap();
            assert_eq!(p.accept, 0.0, "false positive on {input}");
        }
    }
}
