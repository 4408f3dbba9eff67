//! Experiments E7–E9: the query-evaluation transfer (Section 4).

use crate::report::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_core::math::log_fit;
use st_problems::{generate, predicates};
use st_query::relalg::{evaluate, instance_database, sym_diff_query};
use st_query::xml::{instance_document, parse};
use st_query::xpath::{figure1_query, set_equality_via_two_filter_runs, DocContext};
use st_query::xquery::run_theorem12;
use st_trace::Tracer;

/// E7 — Theorem 11: relational algebra within Θ(log N) reversals; Q′
/// decides SET-EQUALITY.
pub fn e7_relalg(tracer: &Tracer) -> Report {
    let mut r = Report::new(
        "e7",
        "Theorem 11: relational algebra on streams",
        "(a) every fixed query evaluates within c_Q scans-and-sorts → Θ(log N) reversals; \
         (b) Q′ = (R₁−R₂) ∪ (R₂−R₁) decides SET-EQUALITY, so o(log N) scans are impossible",
        &[
            "m",
            "N",
            "Q′ reversals",
            "Q′ empty ⟺ set-equal",
            "internal bits",
        ],
    );
    let mut rng = StdRng::seed_from_u64(21);
    let mut all_ok = true;
    let mut pts = Vec::new();
    for logm in 3..=9 {
        let m = 1usize << logm;
        let yes = generate::yes_set_distinct(m, 12, &mut rng);
        let no = generate::random_instance(m, 12, &mut rng);
        let q = sym_diff_query("R1", "R2");
        let (res_yes, usage) = evaluate(&q, &instance_database(&yes), tracer).expect("eval");
        let (res_no, _) = evaluate(&q, &instance_database(&no), tracer).expect("eval");
        let decides = res_yes.is_empty() == predicates::is_set_equal(&yes)
            && res_no.is_empty() == predicates::is_set_equal(&no);
        all_ok &= decides;
        pts.push((usage.input_len, usage.total_reversals() as f64));
        r.row(vec![
            m.to_string(),
            usage.input_len.to_string(),
            usage.total_reversals().to_string(),
            decides.to_string(),
            usage.internal_space.to_string(),
        ]);
    }
    let (slope, _, r2) = log_fit(&pts);
    all_ok &= r2 > 0.9;
    r.verdict(
        all_ok,
        format!("Q′ decides set equality; reversals ≈ {slope:.1}·log₂N (r² = {r2:.3})"),
    );
    r
}

/// E8 — Theorem 12: the XQuery query computes set equality on the XML
/// encoding.
pub fn e8_xquery(_: &Tracer) -> Report {
    let mut r = Report::new(
        "e8",
        "Theorem 12: the XQuery query",
        "The every/some query returns <result><true/></result> ⟺ the encoded sets are \
         equal, so evaluating it is at least as hard as SET-EQUALITY",
        &[
            "m",
            "n",
            "instance kind",
            "query output",
            "matches predicate",
        ],
    );
    let mut rng = StdRng::seed_from_u64(22);
    let mut all_ok = true;
    for (m, n) in [(4usize, 4usize), (8, 6), (16, 8)] {
        for (kind, inst) in [
            ("yes", generate::yes_set_distinct(m, n, &mut rng)),
            ("no", generate::random_instance(m, n, &mut rng)),
            ("dup-collapse", generate::yes_multiset(m, n, &mut rng)),
        ] {
            let out = run_theorem12(&inst).expect("xquery");
            let got = out.contains("<true>");
            let want = predicates::is_set_equal(&inst);
            all_ok &= got == want;
            let short = if got {
                "<result><true/></result>"
            } else {
                "<result/>"
            };
            r.row(vec![
                m.to_string(),
                n.to_string(),
                kind.into(),
                short.into(),
                (got == want).to_string(),
            ]);
        }
    }
    r.verdict(
        all_ok,
        "query output ⟺ SET-EQUALITY on every tested instance",
    );
    r
}

/// E9 — Theorem 13 / Figure 1: the XPath filter and the two-run
/// reduction.
pub fn e9_xpath(_: &Tracer) -> Report {
    let mut r = Report::new(
        "e9",
        "Theorem 13 / Figure 1: the XPath filter",
        "The Figure-1 query selects X−Y, so filtering decides X ⊆ Y; two filter runs \
         decide SET-EQUALITY (the reduction in Theorem 13's proof)",
        &[
            "m",
            "n",
            "|X−Y| selected",
            "filter = (X ⊄ Y)",
            "2-run = set-equal",
        ],
    );
    let mut rng = StdRng::seed_from_u64(23);
    let mut all_ok = true;
    for (m, n) in [(4usize, 4usize), (8, 6), (16, 8)] {
        for inst in [
            generate::yes_set_distinct(m, n, &mut rng),
            generate::random_instance(m, n, &mut rng),
        ] {
            let doc = parse(&instance_document(&inst)).expect("doc");
            let ctx = DocContext::new(&doc);
            let selected = ctx.select(&figure1_query()).len();
            let filter = ctx.filter(&figure1_query());
            // Ground truth: item nodes below set1 whose string does not
            // occur below set2 (duplicates in X select multiple items).
            let yset: std::collections::BTreeSet<_> = inst.ys.iter().collect();
            let diff = inst.xs.iter().filter(|x| !yset.contains(x)).count();
            let two_run = set_equality_via_two_filter_runs(&inst).expect("reduction");
            let ok = selected == diff
                && filter == (diff > 0)
                && two_run == predicates::is_set_equal(&inst);
            all_ok &= ok;
            r.row(vec![
                m.to_string(),
                n.to_string(),
                format!("{selected} (truth {diff})"),
                filter.to_string(),
                two_run.to_string(),
            ]);
        }
    }
    r.verdict(
        all_ok,
        "selection = X−Y exactly; the two-run reduction decides set equality",
    );
    r
}
