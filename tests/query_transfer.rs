//! Integration: Section 4's three query systems all reduce to / from
//! SET-EQUALITY consistently on shared instances.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::problems::{generate, predicates};
use st_lab::query::relalg::{evaluate, instance_database, sym_diff_query};
use st_lab::query::xpath::set_equality_via_two_filter_runs;
use st_lab::query::xquery::run_theorem12;
use st_trace::Tracer;

#[test]
fn three_query_systems_agree_on_set_equality() {
    let mut rng = StdRng::seed_from_u64(200);
    for _ in 0..20 {
        for inst in [
            generate::yes_set_distinct(6, 6, &mut rng),
            generate::random_instance(5, 4, &mut rng),
            generate::yes_multiset(5, 4, &mut rng),
        ] {
            let truth = predicates::is_set_equal(&inst);
            // Theorem 11: relational algebra.
            let (res, _) = evaluate(
                &sym_diff_query("R1", "R2"),
                &instance_database(&inst),
                &Tracer::disabled(),
            )
            .unwrap();
            assert_eq!(res.is_empty(), truth, "relalg on {}", inst.encode());
            // Theorem 12: XQuery.
            let xq = run_theorem12(&inst).unwrap().contains("<true>");
            assert_eq!(xq, truth, "xquery on {}", inst.encode());
            // Theorem 13: XPath two-run reduction.
            let xp = set_equality_via_two_filter_runs(&inst).unwrap();
            assert_eq!(xp, truth, "xpath on {}", inst.encode());
        }
    }
}

#[test]
fn relalg_reversals_grow_logarithmically_as_theorem11a_promises() {
    let mut rng = StdRng::seed_from_u64(201);
    let mut pts = Vec::new();
    for logm in 3..=8 {
        let inst = generate::yes_set_distinct(1 << logm, 10, &mut rng);
        let (_, usage) = evaluate(
            &sym_diff_query("R1", "R2"),
            &instance_database(&inst),
            &Tracer::disabled(),
        )
        .unwrap();
        pts.push((usage.input_len, usage.total_reversals() as f64));
    }
    let (slope, _, r2) = st_lab::core::math::log_fit(&pts);
    assert!(r2 > 0.9, "not log-shaped: r² = {r2} ({pts:?})");
    assert!(slope > 0.0);
}

#[test]
fn empty_and_degenerate_instances() {
    let empty = st_lab::problems::Instance::parse("").unwrap();
    assert!(set_equality_via_two_filter_runs(&empty).unwrap());
    assert!(run_theorem12(&empty).unwrap().contains("<true>"));
    let (res, _) = evaluate(
        &sym_diff_query("R1", "R2"),
        &instance_database(&empty),
        &Tracer::disabled(),
    )
    .unwrap();
    assert!(res.is_empty());

    let single = st_lab::problems::Instance::parse("0#1#").unwrap();
    assert!(!set_equality_via_two_filter_runs(&single).unwrap());
    assert!(!run_theorem12(&single).unwrap().contains("<true>"));
}
