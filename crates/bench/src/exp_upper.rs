//! Experiments E2–E6 and E23: the upper bounds, measured.

use crate::report::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::baseline::one_pass_multiset_equality;
use st_algo::fingerprint::{acceptance_frequency, run_fingerprint};
use st_algo::nst::{exists_certificate, verify_multiset_certificate};
use st_algo::sortcheck;
use st_algo::sorting::check_sort_via_sorting;
use st_algo::SortRoute;
use st_core::math::log_fit;
use st_problems::generate;
use st_trace::Tracer;

/// E2 — Corollary 7: sort-based deterministic deciders use `Θ(log N)`
/// scans and `O(1)` record buffers.
pub fn e2_sort_deciders(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e2",
        "Corollary 7: deterministic deciders at Θ(log N) scans",
        "SET-EQ / MULTISET-EQ / CHECK-SORT are decidable deterministically with O(log N) \
         head reversals and constant record buffers (paper: ST(O(log N), O(1), 2))",
        &[
            "m",
            "N",
            "multiset scans",
            "checksort scans",
            "set-eq scans",
            "internal bits",
        ],
    );
    let mut rng = StdRng::seed_from_u64(1);
    let mut pts = Vec::new();
    for logm in 3..=10 {
        let m = 1usize << logm;
        let inst = generate::yes_multiset(m, 16, &mut rng);
        let a = sortcheck::run_sort_route(&inst, SortRoute::Multiset, tracer).expect("decider");
        let b = sortcheck::run_sort_route(&inst, SortRoute::CheckSort, tracer).expect("decider");
        let c = sortcheck::run_sort_route(&inst, SortRoute::SetEquality, tracer).expect("decider");
        pts.push((inst.size(), a.usage.scans() as f64));
        r.row(vec![
            m.to_string(),
            inst.size().to_string(),
            a.usage.scans().to_string(),
            b.usage.scans().to_string(),
            c.usage.scans().to_string(),
            a.usage.internal_space.to_string(),
        ]);
    }
    let (slope, _, r2) = log_fit(&pts);
    r.verdict(
        r2 > 0.97 && slope > 0.0,
        format!("scans fit {slope:.2}·log₂N (r² = {r2:.4}) — the Θ(log N) upper bound"),
    );
    r
}

/// E3 — Theorem 8(a): two scans, O(log N) internal bits, one-sided error
/// on the co-RST side.
pub fn e3_fingerprint(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e3",
        "Theorem 8(a): fingerprinting multiset equality",
        "MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1): 2 scans, 1 tape, O(log N) internal \
         bits, no false negatives, false positives ≤ 1/2",
        &[
            "m",
            "N",
            "scans",
            "tapes",
            "internal bits",
            "yes-acceptance",
            "no-acceptance (≤0.5)",
        ],
    );
    let mut rng = StdRng::seed_from_u64(2);
    let mut all_ok = true;
    let mut mem_pts = Vec::new();
    for logm in 3..=8 {
        let m = 1usize << logm;
        let yes = generate::yes_multiset(m, 12, &mut rng);
        let no = generate::no_multiset_one_bit(m, 12, &mut rng);
        let run = run_fingerprint(&yes, &mut rng, tracer).expect("run");
        let yes_freq = acceptance_frequency(&yes, 100, &mut rng, tracer).expect("freq");
        let no_freq = acceptance_frequency(&no, 200, &mut rng, tracer).expect("freq");
        all_ok &= run.usage.scans() == 2
            && run.usage.external_tapes == 1
            && (yes_freq - 1.0).abs() < f64::EPSILON
            && no_freq <= 0.5;
        mem_pts.push((yes.size(), run.usage.internal_space as f64));
        r.row(vec![
            m.to_string(),
            yes.size().to_string(),
            run.usage.scans().to_string(),
            run.usage.external_tapes.to_string(),
            run.usage.internal_space.to_string(),
            format!("{yes_freq:.3}"),
            format!("{no_freq:.3}"),
        ]);
    }
    let (_, _, r2) = log_fit(&mem_pts);
    r.verdict(
        all_ok,
        format!("2 scans / 1 tape everywhere, completeness 1.0, error ≤ ½; memory log-shaped (r² = {r2:.3})"),
    );
    r
}

/// E4 — Theorem 8(b): the 3-scan verifier.
pub fn e4_nst(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e4",
        "Theorem 8(b): the NST(3, O(log N), 2) verifier",
        "(MULTI)SET-EQUALITY and CHECK-SORT have nondeterministic 3-scan / 2-tape \
         verifiers (the write-ℓ-copies construction); ∃certificate ⟺ yes-instance",
        &[
            "m",
            "n",
            "copies ℓ",
            "scans",
            "tapes",
            "∃cert = truth (multiset)",
            "∃cert = truth (checksort)",
        ],
    );
    let mut rng = StdRng::seed_from_u64(3);
    let mut all_ok = true;
    for (m, n) in [(2usize, 3usize), (3, 4), (4, 4), (5, 3)] {
        let yes = generate::yes_multiset(m, n, &mut rng);
        let no = generate::no_multiset_one_bit(m, n, &mut rng);
        let id: Vec<usize> = (0..m).collect();
        let run = verify_multiset_certificate(&yes, &id, false, tracer).expect("verify");
        let ok_ms = exists_certificate(&yes, false, tracer).expect("search")
            && !exists_certificate(&no, false, tracer).expect("search");
        let cs_yes = generate::yes_checksort(m, n, &mut rng);
        let cs_no = generate::no_checksort_sorted_but_wrong(m, n, &mut rng);
        let ok_cs = exists_certificate(&cs_yes, true, tracer).expect("search")
            && !exists_certificate(&cs_no, true, tracer).expect("search");
        all_ok &= run.usage.scans() == 3 && run.usage.external_tapes == 2 && ok_ms && ok_cs;
        r.row(vec![
            m.to_string(),
            n.to_string(),
            run.copies.to_string(),
            run.usage.scans().to_string(),
            run.usage.external_tapes.to_string(),
            ok_ms.to_string(),
            ok_cs.to_string(),
        ]);
    }
    r.verdict(
        all_ok,
        "3 scans, 2 tapes, certificate existence ⟺ ground truth",
    );
    r
}

/// E5 — Corollary 9: the separation table across machine models.
pub fn e5_separation(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e5",
        "Corollary 9: the separation table",
        "On one instance family, the four models trade scans / memory / error sides \
         exactly as ST ⊊ RST ⊊ NST and RST ≠ co-RST require",
        &["algorithm", "model", "scans", "internal bits", "error side"],
    );
    let mut rng = StdRng::seed_from_u64(4);
    let m = 512usize;
    let inst = generate::yes_multiset(m, 32, &mut rng);

    let det = sortcheck::run_sort_route(&inst, SortRoute::Multiset, tracer).expect("det");
    r.row(vec![
        "merge-sort compare".into(),
        "ST (deterministic)".into(),
        det.usage.scans().to_string(),
        det.usage.internal_space.to_string(),
        "none".into(),
    ]);
    let fp = run_fingerprint(&inst, &mut rng, tracer).expect("fp");
    r.row(vec![
        "fingerprint".into(),
        "co-RST (no false negatives)".into(),
        fp.usage.scans().to_string(),
        fp.usage.internal_space.to_string(),
        "false positives ≤ ½".into(),
    ]);
    let small = generate::yes_multiset(4, 4, &mut rng);
    let id: Vec<usize> = (0..4).collect();
    let nst = verify_multiset_certificate(&small, &id, false, tracer).expect("nst");
    r.row(vec![
        "ℓ-copies verifier".into(),
        "NST (nondeterministic)".into(),
        nst.usage.scans().to_string(),
        nst.usage.internal_space.to_string(),
        "none (∃ certificate)".into(),
    ]);
    let (_, hash) = one_pass_multiset_equality(&inst, tracer).expect("hash");
    r.row(vec![
        "one-pass hash".into(),
        "unbounded internal memory".into(),
        hash.scans().to_string(),
        hash.internal_space.to_string(),
        "none".into(),
    ]);
    let separated = fp.usage.scans() < det.usage.scans()
        && nst.usage.scans() <= 3
        && hash.internal_space > 10 * fp.usage.internal_space;
    r.verdict(
        separated,
        "randomized beats deterministic on scans (2 vs Θ(log N)); hash pays Θ(N) memory — \
         the trade-off Theorem 6 proves unavoidable",
    );
    r
}

/// E6 — Corollary 10: sorting and CHECK-SORT via sorting.
pub fn e6_sorting(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e6",
        "Corollary 10: sorting at Θ(log N) scans; CHECK-SORT reduces to sorting",
        "The sorting upper bound matches the CHECK-SORT lower bound, so sorting ∉ \
         LasVegas-RST(o(log N), O(⁴√N/log N), O(1)); reduction verified correct",
        &[
            "m",
            "N",
            "sort reversals",
            "12·log₂N bound",
            "reduction correct",
        ],
    );
    let mut rng = StdRng::seed_from_u64(5);
    let mut all_ok = true;
    let mut pts = Vec::new();
    for logm in 3..=10 {
        let m = 1usize << logm;
        let yes = generate::yes_checksort(m, 10, &mut rng);
        let no = generate::no_checksort_sorted_but_wrong(m, 10, &mut rng);
        let (ok_yes, usage) = check_sort_via_sorting(&yes, tracer).expect("reduction");
        let (ok_no, _) = check_sort_via_sorting(&no, tracer).expect("reduction");
        let bound = 12.0 * (yes.size() as f64).log2() + 12.0;
        let correct = ok_yes && !ok_no;
        all_ok &= correct && (usage.total_reversals() as f64) <= bound;
        pts.push((yes.size(), usage.total_reversals() as f64));
        r.row(vec![
            m.to_string(),
            yes.size().to_string(),
            usage.total_reversals().to_string(),
            format!("{bound:.0}"),
            correct.to_string(),
        ]);
    }
    let (slope, _, r2) = log_fit(&pts);
    r.verdict(
        all_ok,
        format!("reversals ≈ {slope:.2}·log₂N (r² = {r2:.4}), within the 12·log₂N budget"),
    );
    r
}

/// E23's full-grid fingerprint instance `(m, n)`: m = 2¹⁴, n = 3052
/// gives N = 2m(n+1) = 100 040 704 symbols and k ≈ 7.2×10¹⁷, so the
/// Bertrand bound 6k ≈ 4.3×10¹⁸ still fits `u64` (2⁶⁴ ≈ 1.8×10¹⁹).
const E23_FULL_FP: (usize, usize) = (1 << 14, 3052);

/// E23 — out-of-core scale: the block-oriented substrate re-verifies the
/// E2/E6 log-shape fits at N far beyond the small-m grids above, topped
/// by a Theorem 8(a) fingerprint run at ≥10⁸ input symbols.
///
/// The full grid is gated on `ST_E23_FULL=1`. Without it a reduced grid
/// (the committed `BENCH_report.json` row) keeps the registry-wide
/// regression tests fast while still pinning the same log shape and
/// bounds.
pub fn e23_out_of_core(tracer: &Tracer) -> Report {
    use st_extmem::{sort, TapeMachine};
    let full = std::env::var("ST_E23_FULL").is_ok_and(|v| v != "0");
    let mut r = Report::new(
        "e23",
        "Out-of-core scale: block substrate at 10⁸ symbols",
        "The block tape substrate preserves the Θ(log N) sort reversal shape (within \
         12·log₂N + 12) and the 2-scan/1-tape fingerprint bound at out-of-core N",
        &[
            "workload",
            "N",
            "reversals",
            "12·log₂N+12 bound",
            "within bound",
        ],
    );
    let mut all_ok = true;
    let mut pts = Vec::new();
    let sort_logn = if full { 16..=22u32 } else { 12..=16u32 };
    for logn in sort_logn {
        let n = 1usize << logn;
        // Worst-case (reversed) input; the reversal count of the balanced
        // merge is data-oblivious, so one deterministic input suffices.
        let data: Vec<i64> = (0..n as i64).rev().collect();
        let mut machine = TapeMachine::with_input(data, n, tracer.clone());
        machine.add_tape("scratch1");
        machine.add_tape("scratch2");
        sort::merge_sort(&mut machine, 0, 1, 2).expect("block sort");
        let usage = machine.usage();
        let sorted = (0..n as i64).collect::<Vec<_>>();
        assert_eq!(machine.tape(0).snapshot(), sorted, "block sort must sort");
        let bound = 12.0 * (n as f64).log2() + 12.0;
        let ok = (usage.total_reversals() as f64) <= bound;
        all_ok &= ok;
        pts.push((n, usage.total_reversals() as f64));
        r.row(vec![
            format!("merge sort 2^{logn}"),
            n.to_string(),
            usage.total_reversals().to_string(),
            format!("{bound:.0}"),
            ok.to_string(),
        ]);
    }
    let (slope, _, r2) = log_fit(&pts);
    let shape_ok = r2 > 0.97 && slope > 0.0;
    all_ok &= shape_ok;

    // Theorem 8(a) at out-of-core N: one yes-instance through the batch
    // fingerprint decider (block backward scan). N = 2m(n+1) symbols.
    let mut rng = StdRng::seed_from_u64(23);
    let (fp_m, fp_n) = if full { E23_FULL_FP } else { (1 << 13, 24) };
    let inst = generate::yes_multiset(fp_m, fp_n, &mut rng);
    let run = run_fingerprint(&inst, &mut rng, tracer).expect("fingerprint");
    let fp_ok = run.accepted
        && run.usage.scans() <= 2
        && run.usage.external_tapes <= 1
        && run.usage.internal_space <= 64 * (inst.size() as f64).log2() as u64;
    all_ok &= fp_ok;
    r.row(vec![
        "fingerprint (Thm 8a)".into(),
        inst.size().to_string(),
        run.usage.total_reversals().to_string(),
        format!(
            "{} scans / {} tape",
            run.usage.scans(),
            run.usage.external_tapes
        ),
        fp_ok.to_string(),
    ]);
    let top_n = inst.size().max(pts.last().map_or(0, |p| p.0));
    r.verdict(
        all_ok,
        format!(
            "sort reversals ≈ {slope:.2}·log₂N (r² = {r2:.4}) within 12·log₂N+12, \
             fingerprint 2 scans / 1 tape at N = {top_n}{}",
            if full {
                ""
            } else {
                " (reduced grid; ST_E23_FULL=1 for the 10⁸ row)"
            }
        ),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_algo::fingerprint::sample_params;

    #[test]
    fn e23_full_fingerprint_row_fits_the_bertrand_bound_at_1e8_symbols() {
        let (m, n) = E23_FULL_FP;
        let params =
            sample_params(m as u64, n as u64, &mut StdRng::seed_from_u64(23)).expect("6k fits u64");
        assert!(params.k.checked_mul(6).is_some());
        assert!(2 * m * (n + 1) >= 100_000_000);
    }
}
