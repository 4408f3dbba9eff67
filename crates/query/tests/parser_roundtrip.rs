//! Round-trip property tests for the three query-language parsers:
//! `parse(ast.to_string()) == ast` on generated ASTs, plus totality
//! regressions for the multi-byte-whitespace inputs the hand-rolled
//! parsers used to slice mid-char on.
//!
//! Name strategies dodge each grammar's keyword positions: relalg base
//! relations start with `r`/`q` (never `sigma`/`pi`), and the bounded
//! lengths keep quantifier variables and path parts shorter than any
//! keyword that could be mis-lexed (`satisfies`, `intersect`, …).

use proptest::prelude::*;
use st_core::StError;
use st_query::relalg::{Pred, RaExpr};
use st_query::relalg_parser::parse_relalg;
use st_query::xpath::{Axis, Path, Predicate, Step};
use st_query::xpath_parser::parse_xpath;
use st_query::xquery::{AbsPath, Cond, XqExpr};
use st_query::xquery_parser::parse_xquery;

// ---------------------------------------------------------------- relalg

fn arb_pred() -> BoxedStrategy<Pred> {
    prop_oneof![
        // The parser reads constants verbatim up to the closing quote,
        // so anything without a '"' round-trips (spaces included).
        (0usize..4, "[a-z0-9 ]{0,4}").prop_map(|(i, c)| Pred::AttrEqConst(i, c)),
        (0usize..4, 0usize..4).prop_map(|(i, j)| Pred::AttrEqAttr(i, j)),
    ]
    .boxed()
}

fn arb_relalg(depth: u32) -> BoxedStrategy<RaExpr> {
    let leaf = "[rq][a-z0-9_]{0,3}".prop_map(RaExpr::Rel).boxed();
    if depth == 0 {
        return leaf;
    }
    let a = arb_relalg(depth - 1);
    let b = arb_relalg(depth - 1);
    prop_oneof![
        leaf,
        (a.clone(), b.clone()).prop_map(|(x, y)| RaExpr::Union(Box::new(x), Box::new(y))),
        (a.clone(), b.clone()).prop_map(|(x, y)| RaExpr::Diff(Box::new(x), Box::new(y))),
        (a.clone(), b.clone()).prop_map(|(x, y)| RaExpr::Intersect(Box::new(x), Box::new(y))),
        (a.clone(), b.clone()).prop_map(|(x, y)| RaExpr::Product(Box::new(x), Box::new(y))),
        (arb_pred(), a.clone()).prop_map(|(p, e)| RaExpr::Select(p, Box::new(e))),
        (proptest::collection::vec(0usize..4, 1..4), a.clone())
            .prop_map(|(cols, e)| RaExpr::Project(cols, Box::new(e))),
    ]
    .boxed()
}

// ----------------------------------------------------------------- xpath

fn arb_axis() -> BoxedStrategy<Axis> {
    prop_oneof![
        Just(Axis::Child),
        Just(Axis::Descendant),
        Just(Axis::Ancestor),
    ]
    .boxed()
}

fn arb_xpath_step(depth: u32) -> BoxedStrategy<Step> {
    let name = "[a-z_][a-z0-9_-]{0,3}";
    if depth == 0 {
        (arb_axis(), name)
            .prop_map(|(axis, name)| Step {
                axis,
                name,
                predicate: None,
            })
            .boxed()
    } else {
        (
            arb_axis(),
            name,
            0u8..2,
            any::<bool>(),
            (arb_xpath_path(depth - 1), arb_xpath_path(depth - 1)),
        )
            .prop_map(|(axis, name, has_pred, negated, (left, right))| Step {
                axis,
                name,
                predicate: (has_pred == 1).then_some(Predicate {
                    negated,
                    left,
                    right,
                }),
            })
            .boxed()
    }
}

fn arb_xpath_path(depth: u32) -> BoxedStrategy<Path> {
    proptest::collection::vec(arb_xpath_step(depth), 1..4)
        .prop_map(|steps| Path { steps })
        .boxed()
}

// ---------------------------------------------------------------- xquery

fn arb_abspath() -> BoxedStrategy<AbsPath> {
    proptest::collection::vec("[a-z][a-z0-9]{0,3}", 1..4)
        .prop_map(AbsPath)
        .boxed()
}

fn arb_cond(depth: u32) -> BoxedStrategy<Cond> {
    let var = "[a-z][a-z0-9_]{0,3}";
    let leaf = (var, var).prop_map(|(a, b)| Cond::VarEq(a, b)).boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_cond(depth - 1);
    prop_oneof![
        leaf,
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Cond::And(Box::new(l), Box::new(r))),
        (var, arb_abspath(), inner.clone()).prop_map(|(var, path, c)| Cond::Every {
            var,
            path,
            satisfies: Box::new(c),
        }),
        (var, arb_abspath(), inner.clone()).prop_map(|(var, path, c)| Cond::Some_ {
            var,
            path,
            satisfies: Box::new(c),
        }),
    ]
    .boxed()
}

fn arb_xquery(depth: u32) -> BoxedStrategy<XqExpr> {
    let name = "[a-z][a-z0-9]{0,3}";
    let leaf = prop_oneof![
        Just(XqExpr::Empty),
        name.prop_map(|name| XqExpr::Element {
            name,
            children: vec![],
        }),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_xquery(depth - 1);
    prop_oneof![
        leaf,
        (name, proptest::collection::vec(inner.clone(), 0..3))
            .prop_map(|(name, children)| XqExpr::Element { name, children }),
        (arb_cond(depth - 1), inner.clone(), inner.clone()).prop_map(|(cond, t, e)| {
            XqExpr::If {
                cond,
                then: Box::new(t),
                els: Box::new(e),
            }
        }),
    ]
    .boxed()
}

// ----------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn relalg_print_parse_identity(e in arb_relalg(3)) {
        let text = e.to_string();
        let back = parse_relalg(&text).unwrap();
        prop_assert_eq!(back, e, "text was {:?}", text);
    }

    #[test]
    fn xpath_print_parse_identity(p in arb_xpath_path(2)) {
        let text = p.to_string();
        let back = parse_xpath(&text).unwrap();
        prop_assert_eq!(back, p, "text was {:?}", text);
    }

    #[test]
    fn xquery_print_parse_identity(e in arb_xquery(3)) {
        let text = e.to_string();
        let back = parse_xquery(&text).unwrap();
        prop_assert_eq!(back, e, "text was {:?}", text);
    }

    #[test]
    fn parsers_are_total_on_junk(indices in proptest::collection::vec(0usize..JUNK.len(), 0..16)) {
        // Err is fine; panicking is the bug.
        let word: String = indices.iter().map(|&i| JUNK[i]).collect();
        let _ = parse_relalg(&word);
        let _ = parse_xpath(&word);
        let _ = parse_xquery(&word);
    }
}

/// The junk alphabet st-conformance fuzzes with, multi-byte whitespace
/// included.
const JUNK: &[char] = &[
    '0', '1', '#', '<', '>', '/', '=', '[', ']', '(', ')', ':', '$', 'a', 'b', 'r', 's', 'x', ' ',
    '\u{00a0}', '\u{2003}', '\u{3000}', 'λ',
];

/// Every junk string of at most four characters (292 561 inputs), in all
/// three parsers: each parses or fails with a typed query error, and
/// none panics. The proptest above samples the longer strings.
#[test]
fn parsers_are_total_on_every_short_junk_string() {
    let base = JUNK.len();
    for len in 0..=4u32 {
        for code in 0..base.pow(len) {
            let word: String = (0..len)
                .scan(code, |rest, _| {
                    let c = JUNK[*rest % base];
                    *rest /= base;
                    Some(c)
                })
                .collect();
            for result in [
                parse_relalg(&word).map(drop),
                parse_xpath(&word).map(drop),
                parse_xquery(&word).map(drop),
            ] {
                if let Err(e) = result {
                    assert!(matches!(e, StError::Query(_)), "{word:?}: {e}");
                }
            }
        }
    }
}

/// The canonical queries survive a full print → parse cycle too.
#[test]
fn builtin_queries_round_trip() {
    let q = st_query::relalg::sym_diff_query("R1", "R2");
    assert_eq!(parse_relalg(&q.to_string()).unwrap(), q);
    let p = st_query::xpath::figure1_query();
    assert_eq!(parse_xpath(&p.to_string()).unwrap(), p);
    let x = st_query::xquery::theorem12_query();
    assert_eq!(parse_xquery(&x.to_string()).unwrap(), x);
}

/// Regression: multi-byte whitespace (U+3000, U+00A0, U+2003) used to
/// panic every parser's `ws()` loop, which advanced one *byte* per
/// whitespace char and then sliced mid-char.
#[test]
fn multibyte_whitespace_is_skipped_not_sliced() {
    let e = parse_relalg("\u{3000}R1\u{00a0}union\u{2003}R2\u{3000}").unwrap();
    assert!(matches!(e, RaExpr::Union(_, _)));
    let p = parse_xpath("\u{3000}child\u{00a0}::\u{2003}a\u{3000}").unwrap();
    assert_eq!(p.steps[0].name, "a");
    let x = parse_xquery("\u{3000}(\u{00a0})\u{2003}").unwrap();
    assert_eq!(x, XqExpr::Empty);
    // Whitespace-then-garbage must error cleanly, not slice mid-char.
    assert!(parse_relalg("\u{3000}").is_err());
    assert!(parse_xpath("\u{3000}[").is_err());
    assert!(parse_xquery("\u{3000}<").is_err());
}
