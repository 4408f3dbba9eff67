//! Experiments E10, E14, E15, E16: the model-level lemmas.

use crate::report::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::fingerprint::residues_collide;
use st_algo::SortRoute;
use st_core::math::wilson_interval;
use st_core::theorems::{lemma3_run_length_log2, theorem8a_k};
use st_lm::run::{run_sampled, run_with_choices};
use st_lm::simulate::{simulate_tm, tm_input_word};
use st_problems::checkphi::CheckPhi;
use st_problems::predicates;
use st_problems::short::reduce_to_short;
use st_tm::library as tmlib;
use st_tm::prob::exact_acceptance;
use st_tm::run::run_deterministic;
use st_trace::Tracer;

/// E10 — Lemma 16: TM → NLM simulation preserves acceptance and
/// reversal bounds.
pub fn e10_simulation(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e10",
        "Lemma 16: TM → NLM simulation",
        "Every (r,s,t)-bounded TM is simulated by an (r,t)-bounded NLM with identical \
         acceptance behaviour (probabilities for randomized machines)",
        &[
            "machine",
            "inputs",
            "agreements",
            "NLM rev ≤ TM rev",
            "NLM states",
        ],
    );
    let mut all_ok = true;

    // Deterministic: exhaustive agreement at n = 3.
    let tm = tmlib::strings_equal_machine();
    let mut agree = 0usize;
    let mut rev_ok = true;
    let mut states = 0usize;
    let total = 64usize;
    for a in 0..8u64 {
        for b in 0..8u64 {
            let sim = simulate_tm(&tm, 2, 3, 1, 1 << 20).expect("sim");
            let lm = run_with_choices(&sim.nlm, &[a, b], &vec![0; 1 << 13], 1 << 13, tracer)
                .expect("run");
            assert!(sim.take_error().is_none());
            let tmr =
                run_deterministic(&tm, tm_input_word(&[a, b], 3), 1 << 20, tracer).expect("tm");
            if lm.accepted() == tmr.accepted() {
                agree += 1;
            }
            rev_ok &= lm.reversals.iter().sum::<u64>() <= tmr.usage.total_reversals();
            states = states.max(sim.states_materialized());
        }
    }
    all_ok &= agree == total && rev_ok;
    r.row(vec![
        "strings-equal (det)".into(),
        format!("{total} (exhaustive n=3)"),
        format!("{agree}/{total}"),
        rev_ok.to_string(),
        states.to_string(),
    ]);

    // Randomized: probability transfer with a Wilson interval against the
    // TM's exact probability.
    let tm = tmlib::randomized_strings_equal_machine();
    let exact = exact_acceptance(&tm, tm_input_word(&[0b101, 0b101], 3), 1 << 20)
        .expect("exact")
        .accept;
    let sim = simulate_tm(&tm, 2, 3, 2, 1 << 20).expect("sim");
    let mut rng = StdRng::seed_from_u64(31);
    let trials = 1200u64;
    let mut acc = 0u64;
    for _ in 0..trials {
        if run_sampled(&sim.nlm, &[0b101, 0b101], &mut rng, 1 << 13, tracer)
            .expect("run")
            .accepted()
        {
            acc += 1;
        }
    }
    let (lo, hi) = wilson_interval(acc, trials);
    let prob_ok = lo <= exact && exact <= hi;
    all_ok &= prob_ok;
    r.row(vec![
        "rand-strings-equal".into(),
        format!("{trials} sampled runs"),
        format!("exact {exact:.2} ∈ [{lo:.2},{hi:.2}] = {prob_ok}"),
        "-".into(),
        sim.states_materialized().to_string(),
    ]);

    r.verdict(all_ok, "acceptance agrees exhaustively (det) and within CI (randomized); reversal budget transfers");
    r
}

/// E14 — Claim 1: residue collision probability decays like O(1/m).
pub fn e14_collisions(_: &Tracer) -> Report {
    let mut r = Report::new(
        "e14",
        "Claim 1: residue-fingerprint collision probability",
        "For distinct v, w and a random prime p ≤ k = m³·n·loġ(m³n), \
         Pr[v ≡ w mod p] = O(1/m) — measured collision rates fall with m",
        &["m", "k", "trials", "collisions", "rate", "c/m reference"],
    );
    let mut rng = StdRng::seed_from_u64(41);
    let n = 48u64;
    let mut rates = Vec::new();
    for m in [2u64, 4, 8, 16, 32] {
        let k = theorem8a_k(m, n).expect("k");
        let trials = 4000u32;
        let mut coll = 0u32;
        for i in 0..trials {
            // Adversarial pair: differ by a smooth number with many prime
            // factors (worst case for residue tests).
            let v = 0xDEAD_BEEF_u128 + u128::from(i);
            let w = v + 720_720; // 2^4·3^2·5·7·11·13
            if residues_collide(v, w, k, &mut rng) {
                coll += 1;
            }
        }
        let rate = f64::from(coll) / f64::from(trials);
        rates.push(rate);
        r.row(vec![
            m.to_string(),
            k.to_string(),
            trials.to_string(),
            coll.to_string(),
            format!("{rate:.4}"),
            format!("{:.4}", 1.0 / m as f64),
        ]);
    }
    // Monotone-ish decay and small at the largest m.
    let ok = rates.last().copied().unwrap_or(1.0) < 0.02
        && rates.first().copied().unwrap_or(0.0) >= rates.last().copied().unwrap_or(0.0);
    r.verdict(
        ok,
        "collision rate decays with m and is far below the 1/m envelope at m = 32",
    );
    r
}

/// E15 — Lemma 3: run lengths stay below `N·2^{O(r(t+s))}`.
pub fn e15_run_length(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e15",
        "Lemma 3: run length of (r,s,t)-bounded machines",
        "Every run of an (r,s,t)-bounded TM has length ≤ N·2^{O(r·(t+s))}",
        &[
            "machine",
            "N",
            "r (scans)",
            "s",
            "steps",
            "log₂ bound (c=4)",
        ],
    );
    let mut all_ok = true;
    let cases: Vec<(&str, st_tm::Tm, Vec<st_tm::Sym>)> = vec![
        (
            "parity",
            tmlib::parity_machine(),
            tmlib::encode(&"01".repeat(64)),
        ),
        (
            "copy",
            tmlib::copy_machine(),
            tmlib::encode(&"10".repeat(50)),
        ),
        (
            "strings-equal",
            tmlib::strings_equal_machine(),
            tmlib::encode(&format!("{0}#{0}", "0110".repeat(8))),
        ),
        (
            "ping-pong-8",
            tmlib::ping_pong_machine(8),
            tmlib::encode(&"1".repeat(64)),
        ),
    ];
    for (name, tm, input) in cases {
        let n = input.len();
        let run = run_deterministic(&tm, input, 1 << 22, tracer).expect("run");
        let usage = &run.usage;
        let bound_log2 = lemma3_run_length_log2(
            n,
            usage.scans(),
            usage.internal_space.max(1),
            usage.external_tapes as u64,
            4.0,
        );
        let ok = (usage.steps.max(1) as f64).log2() <= bound_log2;
        all_ok &= ok;
        r.row(vec![
            name.into(),
            n.to_string(),
            usage.scans().to_string(),
            usage.internal_space.to_string(),
            usage.steps.to_string(),
            format!("{bound_log2:.1}"),
        ]);
    }
    r.verdict(
        all_ok,
        "measured run lengths sit far below the Lemma 3 ceiling",
    );
    r
}

/// E16 — the Appendix E reduction to the SHORT variants.
pub fn e16_short_reduction(_: &Tracer) -> Report {
    let mut r = Report::new(
        "e16",
        "Corollary 7 (SHORT) / Appendix E: the reduction f",
        "f maps CHECK-φ to SHORT-(MULTI)SET-EQ / SHORT-CHECK-SORT: yes ⟺ yes, strings of \
         length O(log m′), linear blow-up",
        &[
            "m",
            "n",
            "m′",
            "string len",
            "4·log₂ m′",
            "blow-up",
            "yes/no preserved",
        ],
    );
    let mut rng = StdRng::seed_from_u64(42);
    let mut all_ok = true;
    for (m, n) in [(4usize, 6usize), (8, 9), (16, 12)] {
        let fam = CheckPhi::new(m, n).expect("family");
        let yes = fam.yes_instance(&mut rng);
        let no = fam.no_instance(&mut rng).expect("no-instance");
        let ry = reduce_to_short(&fam, &yes).expect("reduce");
        let rn = reduce_to_short(&fam, &no).expect("reduce");
        let preserved = predicates::is_multiset_equal(&ry.instance)
            && predicates::is_set_equal(&ry.instance)
            && predicates::is_check_sorted(&ry.instance)
            && !predicates::is_multiset_equal(&rn.instance)
            && !predicates::is_check_sorted(&rn.instance);
        let m_prime = ry.instance.m();
        let len = ry.string_len();
        let len_bound = 4.0 * (m_prime.max(2) as f64).log2();
        let ok = preserved && (len as f64) <= len_bound;
        all_ok &= ok;
        r.row(vec![
            m.to_string(),
            n.to_string(),
            m_prime.to_string(),
            len.to_string(),
            format!("{len_bound:.1}"),
            format!("{:.2}", ry.blowup(&yes)),
            preserved.to_string(),
        ]);
    }
    r.verdict(
        all_ok,
        "reduction preserves answers, produces short strings, linear blow-up",
    );
    r
}

/// E17 — (extension) disk economics: pricing measured runs on three
/// device models. Not a paper table; quantifies the introduction's
/// motivation that seeks dominate at Θ(log N) scans.
pub fn e17_disk_economics(tracer: &Tracer) -> Report {
    use st_extmem::disk::DiskModel;
    let mut r = Report::new(
        "e17",
        "Extension: disk economics of the scan/seek trade-off",
        "Pricing the measured runs on device models shows why the paper counts \
         reversals: at 10 ms seeks the 2-scan fingerprint beats the Θ(log N)-scan \
         decider by orders of magnitude at equal streamed volume",
        &[
            "algorithm",
            "scans",
            "HDD (2006)",
            "NVMe",
            "tape library",
            "seek-bound on HDD",
        ],
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(51);
    let inst = st_problems::generate::yes_multiset(512, 24, &mut rng);
    let fp = st_algo::fingerprint::run_fingerprint(&inst, &mut rng, tracer).expect("fp");
    let det = st_algo::sortcheck::run_sort_route(&inst, SortRoute::Multiset, tracer).expect("det");
    let hdd = DiskModel::hdd_2006();
    let nvme = DiskModel::nvme();
    let tape = DiskModel::tape_library();
    let mut rows = Vec::new();
    for (name, usage) in [
        ("fingerprint (Thm 8a)", &fp.usage),
        ("merge-sort decider (Cor 7)", &det.usage),
    ] {
        let c = hdd.price(usage);
        rows.push((
            name,
            usage.scans(),
            c.total(),
            nvme.price(usage).total(),
            tape.price(usage).total(),
            c.seek_bound(),
        ));
    }
    for (name, scans, h, n, t, sb) in &rows {
        r.row(vec![
            (*name).into(),
            scans.to_string(),
            format!("{h:?}"),
            format!("{n:?}"),
            format!("{t:?}"),
            sb.to_string(),
        ]);
    }
    let ok = rows[0].2 < rows[1].2 && rows[0].4 < rows[1].4;
    r.verdict(ok, "the 2-scan algorithm wins on every seek-priced device — reversals are the right cost measure");
    r
}

/// E18 — Lemmas 26, 30, 31: the structural bookkeeping, measured.
pub fn e18_structural_bounds(tracer: &Tracer) -> Report {
    use st_lm::bounds::observe_run;
    use st_lm::lemma26::find_good_choice_sequence;
    use st_lm::{adversary::WordFamily, library};
    let mut r = Report::new(
        "e18",
        "Lemmas 26/30/31: choice derandomization and structural bounds",
        "One fixed choice sequence accepts ≥ half of J (Lemma 26); list length, cell \
         size and run length stay within the Lemma 30/31 formulas",
        &["machine", "check", "observed", "bound / target", "holds"],
    );
    let mut all_ok = true;
    let mut rng = StdRng::seed_from_u64(52);

    // Lemma 26 on the coin-prefixed matcher.
    let m = 4usize;
    let fam = WordFamily::new(m, 8).expect("family");
    let nlm = library::coin_prefixed_matcher(m, st_problems::perm::phi(m));
    let inputs: Vec<Vec<u64>> = (0..16).map(|_| fam.sample_yes(&mut rng)).collect();
    let good =
        find_good_choice_sequence(&nlm, &inputs, 1 << 10, 64, &mut rng, tracer).expect("search");
    all_ok &= good.meets_lemma26();
    r.row(vec![
        "coin-matcher".into(),
        "Lemma 26 |J_acc,c| ≥ |J|/2".into(),
        format!("{}/{}", good.accepted, good.total),
        format!("≥ {}", good.total / 2),
        good.meets_lemma26().to_string(),
    ]);

    // Lemma 30/31 across machines.
    for (name, nlm, inputs, k) in [
        (
            "sweep-right",
            library::sweep_right_machine(2, 16),
            (0..16u64).collect::<Vec<_>>(),
            18u64,
        ),
        (
            "zigzag×3",
            library::zigzag_machine(2, 8, 3),
            (0..8u64).collect(),
            140,
        ),
        (
            "matcher m=8",
            library::one_scan_matcher(8, (0..8).collect()),
            (0..16u64).map(|i| 100 + i % 8).collect(),
            20,
        ),
    ] {
        let obs = observe_run(&nlm, &inputs, &vec![0; 1 << 14], 1 << 14).expect("observe");
        let violations = obs.check(inputs.len() as u64, k, 2);
        let ok = violations.is_empty();
        all_ok &= ok;
        r.row(vec![
            name.into(),
            "Lemma 30/31 (list len, cell size, run len)".into(),
            format!(
                "len {}, cell {}, run {}",
                obs.max_total_list_len, obs.max_cell_size, obs.run_len
            ),
            "per formulas".into(),
            ok.to_string(),
        ]);
    }
    r.verdict(
        all_ok,
        "derandomization target met; all structural maxima inside the formulas",
    );
    r
}

/// Helper for integration tests: run every experiment and return the ids
/// of any that failed to reproduce.
#[must_use]
pub fn failed_experiments() -> Vec<String> {
    crate::all_experiments()
        .into_iter()
        .filter_map(|e| {
            let rep = (e.run)(&Tracer::disabled());
            if rep.reproduced() {
                None
            } else {
                Some(e.id.to_string())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_uses_distinct_pairs() {
        // The adversarial pair construction must never produce v == w.
        let v = 0xDEAD_BEEF_u128;
        assert_ne!(v, v + 720_720);
    }

    #[test]
    fn instance_parse_helper_is_linked() {
        // Smoke-check the cross-crate wiring used by the experiments.
        let inst = st_problems::Instance::parse("0#1#1#0#").unwrap();
        assert!(predicates::is_set_equal(&inst));
    }
}
