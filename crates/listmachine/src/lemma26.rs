//! Lemma 26, executable: derandomizing the choice sequence.
//!
//! If a randomized NLM accepts every input of a set `J` with probability
//! `≥ ½`, then *one* fixed choice sequence `c ∈ C^ℓ` makes the
//! deterministic runs `ρ_M(v, c)` accept at least half of `J` — the
//! averaging step that turns the randomized lower bound into a
//! deterministic pigeonhole. [`find_good_choice_sequence`] searches for
//! such a `c` by sampling candidates and scoring them over `J`; the
//! lemma guarantees the search target exists, and on the machines in
//! this workspace a few dozen candidates suffice.

use crate::machine::Nlm;
use crate::run::run_with_choices;
use crate::{Choice, Val};
use rand::Rng;
use st_core::StError;
use st_trace::Tracer;

/// The result of the Lemma 26 search.
#[derive(Debug, Clone)]
pub struct GoodSequence {
    /// The fixed choice sequence.
    pub choices: Vec<Choice>,
    /// How many inputs of `J` the sequence accepts.
    pub accepted: usize,
    /// `|J|`.
    pub total: usize,
}

impl GoodSequence {
    /// Did the sequence hit the Lemma 26 target `|J_acc,c| ≥ |J|/2`?
    #[must_use]
    pub fn meets_lemma26(&self) -> bool {
        2 * self.accepted >= self.total
    }
}

/// Search for a choice sequence accepting at least half of `inputs`.
///
/// `seq_len` must upper-bound the machine's run length. Tries up to
/// `candidates` uniformly random sequences and returns the best found
/// (early exit once the Lemma 26 threshold is met). Every run traces on
/// `tracer`.
pub fn find_good_choice_sequence<R: Rng>(
    nlm: &Nlm,
    inputs: &[Vec<Val>],
    seq_len: usize,
    candidates: usize,
    rng: &mut R,
    tracer: &Tracer,
) -> Result<GoodSequence, StError> {
    if inputs.is_empty() {
        return Err(StError::Precondition(
            "Lemma 26 needs a nonempty input set J".into(),
        ));
    }
    let mut best: Option<GoodSequence> = None;
    for _ in 0..candidates.max(1) {
        let c: Vec<Choice> = (0..seq_len)
            .map(|_| rng.gen_range(0..nlm.num_choices))
            .collect();
        let mut acc = 0usize;
        for v in inputs {
            if run_with_choices(nlm, v, &c, seq_len, tracer)?.accepted() {
                acc += 1;
            }
        }
        let cand = GoodSequence {
            choices: c,
            accepted: acc,
            total: inputs.len(),
        };
        let better = best.as_ref().is_none_or(|b| cand.accepted > b.accepted);
        if better {
            let done = cand.meets_lemma26();
            best = Some(cand);
            if done {
                break;
            }
        }
    }
    Ok(best.expect("at least one candidate was scored"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::WordFamily;
    use crate::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coin_machine_has_a_perfect_sequence() {
        // The coin machine accepts iff the first choice is 0; the fixed
        // sequence (0, …) accepts EVERY input — far above the ½ target.
        let nlm = library::coin_machine();
        let inputs: Vec<Vec<u64>> = (0..10u64).map(|v| vec![v]).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let good = find_good_choice_sequence(
            &nlm,
            &inputs,
            8,
            64,
            &mut rng,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(good.meets_lemma26());
        assert_eq!(good.accepted, 10, "choice 0 accepts everything");
        assert_eq!(good.choices[0], 0);
    }

    #[test]
    fn coin_prefixed_matcher_derandomizes() {
        // The coin-prefixed matcher is a genuine (½,0)-style machine on
        // yes-instances: Pr(accept) = ½. Lemma 26 finds a sequence
        // accepting at least half the yes-instance pool — here, all of
        // it, since choice 0 commits to the deterministic matcher.
        let m = 4usize;
        let fam = WordFamily::new(m, 8).unwrap();
        let nlm = library::coin_prefixed_matcher(m, st_problems::perm::phi(m));
        let mut rng = StdRng::seed_from_u64(2);
        let inputs: Vec<Vec<u64>> = (0..12).map(|_| fam.sample_yes(&mut rng)).collect();
        let good = find_good_choice_sequence(
            &nlm,
            &inputs,
            1 << 10,
            64,
            &mut rng,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert!(
            good.meets_lemma26(),
            "accepted {}/{}",
            good.accepted,
            good.total
        );
    }

    #[test]
    fn empty_input_set_is_an_error() {
        let nlm = library::coin_machine();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(find_good_choice_sequence(
            &nlm,
            &[],
            8,
            8,
            &mut rng,
            &st_trace::Tracer::disabled()
        )
        .is_err());
    }

    #[test]
    fn deterministic_machines_trivially_meet_the_target_on_yes_inputs() {
        let m = 4usize;
        let fam = WordFamily::new(m, 8).unwrap();
        let nlm = library::one_scan_matcher(m, st_problems::perm::phi(m));
        let mut rng = StdRng::seed_from_u64(4);
        let inputs: Vec<Vec<u64>> = (0..8).map(|_| fam.sample_yes(&mut rng)).collect();
        let good = find_good_choice_sequence(
            &nlm,
            &inputs,
            1 << 10,
            1,
            &mut rng,
            &st_trace::Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(good.accepted, 8);
    }
}
