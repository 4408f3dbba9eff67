//! Error amplification and derandomization, live:
//!
//! 1. a `(½,0)`-RTM built mechanically from a deterministic decider
//!    (`Tm::with_coin_prefix`),
//! 2. OR-amplification lifting its completeness from ½ toward 1
//!    (the closing move of Theorem 13's proof),
//! 3. Lemma 26 pinning one fixed choice sequence that accepts at least
//!    half of an input pool — the first step of the lower-bound proof.
//!
//! ```text
//! cargo run --example amplification
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::algo::amplify::amplify_no_false_positives;
use st_lab::core::ResourceUsage;
use st_lab::lm::adversary::WordFamily;
use st_lab::lm::lemma26::find_good_choice_sequence;
use st_lab::lm::library::coin_prefixed_matcher;
use st_lab::problems::perm::phi;
use st_lab::tm::library::{encode, strings_equal_machine};
use st_lab::tm::prob::exact_acceptance;
use st_lab::tm::run::run_sampled;
use st_trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A (½,0)-RTM from a deterministic decider. -------------------
    let det = strings_equal_machine();
    let rtm = det.with_coin_prefix();
    let yes = encode("0101#0101");
    let p = exact_acceptance(&rtm, yes.clone(), 1 << 20)?;
    println!(
        "coin(strings-equal) on a yes-instance: Pr[accept] = {:.3}",
        p.accept
    );
    let p_no = exact_acceptance(&rtm, encode("0101#0100"), 1 << 20)?;
    println!(
        "…and on a no-instance:                Pr[accept] = {:.3}",
        p_no.accept
    );

    // --- 2. OR-amplify the completeness. --------------------------------
    let mut rng = StdRng::seed_from_u64(9);
    for k in [1u32, 2, 4] {
        let trials = 400;
        let mut acc = 0;
        for _ in 0..trials {
            let (a, _) = amplify_no_false_positives(k, || {
                let r = run_sampled(&rtm, yes.clone(), 1 << 20, &mut rng, &Tracer::disabled())?;
                Ok((r.accepted(), ResourceUsage::default()))
            })?;
            if a {
                acc += 1;
            }
        }
        println!(
            "k = {k} independent runs: measured completeness {:.3} (theory 1 − 2^−{k} = {:.3})",
            f64::from(acc) / f64::from(trials),
            1.0 - 0.5f64.powi(k as i32)
        );
    }

    // --- 3. Lemma 26 on a randomized list machine. -----------------------
    let m = 4usize;
    let fam = WordFamily::new(m, 8)?;
    let nlm = coin_prefixed_matcher(m, phi(m));
    let pool: Vec<Vec<u64>> = (0..16).map(|_| fam.sample_yes(&mut rng)).collect();
    let good = find_good_choice_sequence(&nlm, &pool, 1 << 10, 64, &mut rng, &Tracer::disabled())?;
    println!(
        "\nLemma 26: fixed choice sequence accepts {}/{} of the yes-pool (target ≥ {})",
        good.accepted,
        good.total,
        good.total / 2
    );
    println!("…which is what lets the lower-bound proof treat the machine as deterministic.");
    Ok(())
}
