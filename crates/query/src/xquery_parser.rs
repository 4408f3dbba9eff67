//! A parser for the XQuery fragment — the Theorem 12 query parses from
//! its literal paper text.
//!
//! Grammar (whitespace-insensitive; exactly the paper's surface syntax):
//!
//! ```text
//! expr    := element | if | '(' ')'
//! element := '<' name '/>' | '<' name '>' expr* '</' name '>'
//! if      := 'if' '(' cond ')' 'then' expr 'else' expr
//! cond    := conj ( 'and' conj )*
//! conj    := '(' cond ')'
//!          | ('every'|'some') '$'var 'in' abspath 'satisfies' cond
//!          | '$'var '=' '$'var
//! abspath := ( '/' name )+
//! ```

use crate::cursor::Cursor;
use crate::xquery::{AbsPath, Cond, XqExpr};
use st_core::StError;

/// Element, path-step and variable names: `[A-Za-z0-9_-]+`.
fn ident_char(_: usize, c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

fn abspath(p: &mut Cursor<'_>) -> Result<AbsPath, StError> {
    let mut parts = Vec::new();
    if !p.eat("/") {
        return Err(p.err("expected an absolute path starting with '/'"));
    }
    parts.push(p.ident()?);
    while p.peek("/") && !p.peek("/>") {
        p.expect("/")?;
        parts.push(p.ident()?);
    }
    Ok(AbsPath(parts))
}

fn var(p: &mut Cursor<'_>) -> Result<String, StError> {
    p.expect("$")?;
    p.ident()
}

fn cond_atom(p: &mut Cursor<'_>) -> Result<Cond, StError> {
    if p.eat("(") {
        let c = cond(p)?;
        p.expect(")")?;
        return Ok(c);
    }
    if p.keyword("every") {
        return quantified(p, true);
    }
    if p.keyword("some") {
        return quantified(p, false);
    }
    // $a = $b
    let a = var(p)?;
    p.expect("=")?;
    let b = var(p)?;
    Ok(Cond::VarEq(a, b))
}

fn quantified(p: &mut Cursor<'_>, every: bool) -> Result<Cond, StError> {
    let var = var(p)?;
    if !p.keyword("in") {
        return Err(p.err("expected 'in'"));
    }
    let path = abspath(p)?;
    if !p.keyword("satisfies") {
        return Err(p.err("expected 'satisfies'"));
    }
    let body = Box::new(cond(p)?);
    Ok(if every {
        Cond::Every {
            var,
            path,
            satisfies: body,
        }
    } else {
        Cond::Some_ {
            var,
            path,
            satisfies: body,
        }
    })
}

fn cond(p: &mut Cursor<'_>) -> Result<Cond, StError> {
    let mut left = cond_atom(p)?;
    while p.keyword("and") {
        let right = cond_atom(p)?;
        left = Cond::And(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn expr(p: &mut Cursor<'_>) -> Result<XqExpr, StError> {
    if p.eat("()") {
        return Ok(XqExpr::Empty);
    }
    if p.peek("(") {
        // Parenthesized empty sequence with inner space: ( ).
        let save = p.pos;
        p.expect("(")?;
        if p.eat(")") {
            return Ok(XqExpr::Empty);
        }
        p.pos = save;
        return Err(p.err("unexpected '(' — only the empty sequence () is an expression here"));
    }
    if p.peek("<") {
        return element(p);
    }
    if p.keyword("if") {
        // XQuery writes `if (cond) then …`; in the paper's query the
        // condition itself is `( … ) and ( … )`, so the parentheses
        // belong to the condition grammar (cond_atom), not to `if`.
        let cond = cond(p)?;
        if !p.keyword("then") {
            return Err(p.err("expected 'then'"));
        }
        let then = Box::new(expr(p)?);
        if !p.keyword("else") {
            return Err(p.err("expected 'else'"));
        }
        let els = Box::new(expr(p)?);
        return Ok(XqExpr::If { cond, then, els });
    }
    Err(p.err("expected an element constructor, if-expression, or ()"))
}

fn element(p: &mut Cursor<'_>) -> Result<XqExpr, StError> {
    p.expect("<")?;
    let name = p.ident()?;
    if p.eat("/>") {
        return Ok(XqExpr::Element {
            name,
            children: Vec::new(),
        });
    }
    p.expect(">")?;
    let mut children = Vec::new();
    while !p.peek("</") {
        children.push(expr(p)?);
    }
    p.expect("</")?;
    let close = p.ident()?;
    if close != name {
        return Err(p.err(&format!("<{name}> closed by </{close}>")));
    }
    p.expect(">")?;
    Ok(XqExpr::Element { name, children })
}

/// Parse an XQuery expression of the fragment.
pub fn parse_xquery(src: &str) -> Result<XqExpr, StError> {
    let mut p = Cursor::new(src, "xquery", ident_char);
    let e = expr(&mut p)?;
    p.end("trailing input after expression")?;
    Ok(e)
}

/// The Theorem 12 query, as printed in the paper.
pub const THEOREM12_TEXT: &str = "<result>
  if ( every $x in /instance/set1/item/string satisfies
         some $y in /instance/set2/item/string satisfies
         $x = $y )
     and
     ( every $y in /instance/set2/item/string satisfies
         some $x in /instance/set1/item/string satisfies
         $x = $y )
  then <true/>
  else ()
</result>";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xquery::{evaluate, theorem12_query};

    #[test]
    fn theorem12_text_parses_to_the_builtin_ast() {
        let parsed = parse_xquery(THEOREM12_TEXT).unwrap();
        assert_eq!(parsed, theorem12_query());
    }

    #[test]
    fn parsed_query_evaluates_identically() {
        let inst = st_problems::Instance::parse("01#10#10#01#").unwrap();
        let doc = crate::xml::parse(&crate::xml::instance_document(&inst)).unwrap();
        let parsed = parse_xquery(THEOREM12_TEXT).unwrap();
        let a = evaluate(&parsed, &doc).unwrap();
        let b = evaluate(&theorem12_query(), &doc).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn element_constructors() {
        assert_eq!(
            parse_xquery("<r></r>").unwrap(),
            XqExpr::Element {
                name: "r".into(),
                children: vec![]
            }
        );
        assert_eq!(
            parse_xquery("<r/>").unwrap(),
            XqExpr::Element {
                name: "r".into(),
                children: vec![]
            }
        );
        let nested = parse_xquery("<a><b/><c/></a>").unwrap();
        match nested {
            XqExpr::Element { name, children } => {
                assert_eq!(name, "a");
                assert_eq!(children.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(parse_xquery("()").unwrap(), XqExpr::Empty);
        assert_eq!(parse_xquery("( )").unwrap(), XqExpr::Empty);
    }

    #[test]
    fn conjunctions_are_left_associative() {
        let q =
            parse_xquery("<r>if ($a = $b and $c = $d and $e = $f) then <t/> else ()</r>").unwrap();
        let XqExpr::Element { children, .. } = q else {
            panic!()
        };
        let XqExpr::If { cond, .. } = &children[0] else {
            panic!()
        };
        // ((a=b and c=d) and e=f)
        let Cond::And(l, _) = cond else {
            panic!("top is not And")
        };
        assert!(matches!(**l, Cond::And(_, _)));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_xquery("<a></b>").is_err(), "mismatched tags");
        assert!(
            parse_xquery("if ($x = $y) then <t/>").is_err(),
            "missing else"
        );
        assert!(parse_xquery("<r>every $x in satisfies $x = $x</r>").is_err());
        assert!(
            parse_xquery("$x = $y").is_err(),
            "bare condition is not an expression"
        );
        assert!(parse_xquery("<r/><r/>").is_err(), "trailing input");
    }

    #[test]
    fn quantifier_paths_parse() {
        let q = parse_xquery("<r>if (some $v in /a/b/c satisfies $v = $v) then <t/> else ()</r>")
            .unwrap();
        let XqExpr::Element { children, .. } = q else {
            panic!()
        };
        let XqExpr::If { cond, .. } = &children[0] else {
            panic!()
        };
        let Cond::Some_ { path, .. } = cond else {
            panic!("not Some_")
        };
        assert_eq!(path.0, vec!["a".to_string(), "b".into(), "c".into()]);
    }
}
