//! A parser for relational-algebra expressions, so the Theorem 11 query
//! `(R1 - R2) union (R2 - R1)` can be written as text.
//!
//! Grammar (precedence low → high: `union`/`-`/`intersect` are
//! left-associative at one level; `x` (product) binds tighter; `sigma`
//! and `pi` are prefix operators):
//!
//! ```text
//! expr    := term ( ('union' | '-' | 'intersect') term )*
//! term    := factor ( 'x' factor )*
//! factor  := name
//!          | '(' expr ')'
//!          | 'sigma' '[' atom '=' atom ']' '(' expr ')'
//!          | 'pi' '[' num ( ',' num )* ']' '(' expr ')'
//! atom    := '#' num | '"' chars '"'
//! ```

use crate::cursor::Cursor;
use crate::relalg::{Pred, RaExpr};
use st_core::StError;

/// Relation names: `[A-Za-z0-9_]+`.
fn ident_char(_: usize, c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn expr(p: &mut Cursor<'_>) -> Result<RaExpr, StError> {
    let mut left = term(p)?;
    loop {
        if p.keyword("union") {
            let right = term(p)?;
            left = RaExpr::Union(Box::new(left), Box::new(right));
        } else if p.keyword("intersect") {
            let right = term(p)?;
            left = RaExpr::Intersect(Box::new(left), Box::new(right));
        } else if p.eat("-") {
            let right = term(p)?;
            left = RaExpr::Diff(Box::new(left), Box::new(right));
        } else {
            return Ok(left);
        }
    }
}

fn term(p: &mut Cursor<'_>) -> Result<RaExpr, StError> {
    let mut left = factor(p)?;
    while p.keyword("x") {
        let right = factor(p)?;
        left = RaExpr::Product(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn factor(p: &mut Cursor<'_>) -> Result<RaExpr, StError> {
    if p.eat("(") {
        let e = expr(p)?;
        p.expect(")")?;
        return Ok(e);
    }
    if p.keyword("sigma") {
        p.expect("[")?;
        p.expect("#")?;
        let i = p.number()?;
        p.expect("=")?;
        let pred = if p.eat("#") {
            Pred::AttrEqAttr(i, p.number()?)
        } else {
            p.expect("\"")?;
            let rest = p.rest();
            let end = rest.find('"').ok_or_else(|| p.err("unterminated string"))?;
            p.pos += end + 1;
            Pred::AttrEqConst(i, rest[..end].to_string())
        };
        p.expect("]")?;
        p.expect("(")?;
        let e = expr(p)?;
        p.expect(")")?;
        return Ok(RaExpr::Select(pred, Box::new(e)));
    }
    if p.keyword("pi") {
        p.expect("[")?;
        let mut cols = vec![p.number()?];
        while p.eat(",") {
            cols.push(p.number()?);
        }
        p.expect("]")?;
        p.expect("(")?;
        let e = expr(p)?;
        p.expect(")")?;
        return Ok(RaExpr::Project(cols, Box::new(e)));
    }
    Ok(RaExpr::Rel(p.ident()?))
}

/// Parse a relational-algebra expression.
pub fn parse_relalg(src: &str) -> Result<RaExpr, StError> {
    let mut p = Cursor::new(src, "relalg", ident_char);
    let e = expr(&mut p)?;
    p.end("trailing input")?;
    Ok(e)
}

/// The Theorem 11(b) query in surface syntax.
pub const SYM_DIFF_TEXT: &str = "(R1 - R2) union (R2 - R1)";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relalg::{evaluate, evaluate_reference, sym_diff_query, Database, Relation};

    #[test]
    fn sym_diff_text_parses_to_the_builtin() {
        assert_eq!(
            parse_relalg(SYM_DIFF_TEXT).unwrap(),
            sym_diff_query("R1", "R2")
        );
    }

    #[test]
    fn operators_and_precedence() {
        // product binds tighter than union.
        let e = parse_relalg("A x B union C").unwrap();
        assert!(matches!(e, RaExpr::Union(_, _)));
        let e = parse_relalg("A union B x C").unwrap();
        match e {
            RaExpr::Union(_, r) => assert!(matches!(*r, RaExpr::Product(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn selection_and_projection_parse() {
        let e = parse_relalg("pi[1](sigma[#0 = \"x\"](S))").unwrap();
        match e {
            RaExpr::Project(cols, inner) => {
                assert_eq!(cols, vec![1]);
                assert!(matches!(*inner, RaExpr::Select(Pred::AttrEqConst(0, _), _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_relalg("sigma[#0 = #1](S)").unwrap();
        assert!(matches!(e, RaExpr::Select(Pred::AttrEqAttr(0, 1), _)));
    }

    #[test]
    fn parsed_queries_evaluate_like_reference() {
        let mut db = Database::new();
        db.insert(
            "R1".into(),
            Relation::new(1, vec![vec!["a".into()], vec!["b".into()]]).unwrap(),
        );
        db.insert(
            "R2".into(),
            Relation::new(1, vec![vec!["b".into()], vec!["c".into()]]).unwrap(),
        );
        for text in [SYM_DIFF_TEXT, "R1 intersect R2", "R1 x R2", "R1 - R2 - R2"] {
            let q = parse_relalg(text).unwrap();
            let (got, _) = evaluate(&q, &db, &st_trace::Tracer::disabled()).unwrap();
            let want = evaluate_reference(&q, &db).unwrap();
            assert_eq!(got, want, "{text}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_relalg("").is_err());
        assert!(parse_relalg("(R1").is_err(), "unbalanced paren");
        assert!(parse_relalg("R1 union").is_err(), "dangling operator");
        assert!(parse_relalg("sigma[#0](R)").is_err(), "predicate needs =");
        assert!(parse_relalg("pi[](R)").is_err(), "empty projection list");
        assert!(parse_relalg("R1 R2").is_err(), "trailing input");
    }

    #[test]
    fn left_associativity_of_difference() {
        // A - B - C ≡ (A - B) - C.
        let e = parse_relalg("A - B - C").unwrap();
        match e {
            RaExpr::Diff(l, _) => assert!(matches!(*l, RaExpr::Diff(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }
}
