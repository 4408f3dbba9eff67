//! A parser for the XPath fragment — Figure 1 parses from its literal
//! paper text.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! path      := step ( '/' step )*
//! step      := axis '::' name pred?
//! axis      := 'child' | 'descendant' | 'ancestor'
//! name      := [A-Za-z_][A-Za-z0-9_-]*
//! pred      := '[' 'not'? path '=' path ']'
//! ```

use crate::cursor::Cursor;
use crate::xpath::{Axis, Path, Predicate, Step};
use st_core::StError;

/// XPath names: `[A-Za-z_][A-Za-z0-9_-]*`.
fn ident_char(i: usize, c: char) -> bool {
    if i == 0 {
        c.is_ascii_alphabetic() || c == '_'
    } else {
        c.is_ascii_alphanumeric() || c == '_' || c == '-'
    }
}

fn axis(p: &mut Cursor<'_>) -> Result<Axis, StError> {
    let word = p.ident()?;
    match word.as_str() {
        "child" => Ok(Axis::Child),
        "descendant" => Ok(Axis::Descendant),
        "ancestor" => Ok(Axis::Ancestor),
        other => Err(p.err(&format!(
            "unknown axis {other:?} (fragment supports child/descendant/ancestor)"
        ))),
    }
}

fn step(p: &mut Cursor<'_>) -> Result<Step, StError> {
    let axis = axis(p)?;
    p.expect("::")?;
    let name = p.ident()?;
    let predicate = if p.eat("[") {
        // `not` only counts as the negation keyword when it is a whole
        // word (an axis name like `child` must not be nibbled).
        let negated = p.keyword("not");
        let left = path(p)?;
        p.expect("=")?;
        let right = path(p)?;
        p.expect("]")?;
        Some(Predicate {
            negated,
            left,
            right,
        })
    } else {
        None
    };
    Ok(Step {
        axis,
        name,
        predicate,
    })
}

fn path(p: &mut Cursor<'_>) -> Result<Path, StError> {
    // A '/' continues the path; '=' or ']' or end terminates it.
    let mut steps = vec![step(p)?];
    while p.eat("/") {
        steps.push(step(p)?);
    }
    Ok(Path { steps })
}

/// Parse an XPath expression of the fragment.
pub fn parse_xpath(src: &str) -> Result<Path, StError> {
    let mut p = Cursor::new(src, "xpath", ident_char);
    let path = path(&mut p)?;
    p.end("trailing input after path")?;
    Ok(path)
}

/// The literal text of Figure 1 in the paper.
pub const FIGURE1_TEXT: &str = "descendant::set1 / child::item [ not child::string = \
ancestor::instance / child::set2 / child::item / child::string ]";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::figure1_query;

    #[test]
    fn figure1_text_parses_to_the_builtin_ast() {
        let parsed = parse_xpath(FIGURE1_TEXT).unwrap();
        assert_eq!(parsed, figure1_query());
    }

    #[test]
    fn simple_paths_parse() {
        let p = parse_xpath("child::a/descendant::b").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[1].axis, Axis::Descendant);
        assert_eq!(p.steps[1].name, "b");
    }

    #[test]
    fn predicates_parse_with_and_without_not() {
        let p = parse_xpath("child::a[child::b = child::c]").unwrap();
        let pred = p.steps[0].predicate.as_ref().unwrap();
        assert!(!pred.negated);
        let p = parse_xpath("child::a[ not child::b = child::c ]").unwrap();
        assert!(p.steps[0].predicate.as_ref().unwrap().negated);
    }

    #[test]
    fn nested_relative_paths_in_predicates() {
        let p = parse_xpath("child::x[ancestor::r/child::y = child::z]").unwrap();
        let pred = p.steps[0].predicate.as_ref().unwrap();
        assert_eq!(pred.left.steps.len(), 2);
        assert_eq!(pred.right.steps.len(), 1);
    }

    #[test]
    fn errors_are_informative() {
        assert!(
            parse_xpath("parent::a").is_err(),
            "axis outside the fragment"
        );
        assert!(parse_xpath("child:a").is_err(), "missing ::");
        assert!(
            parse_xpath("child::a[child::b]").is_err(),
            "predicate needs ="
        );
        assert!(parse_xpath("child::a extra").is_err(), "trailing garbage");
        assert!(parse_xpath("").is_err());
        assert!(
            parse_xpath("child::a[not child::b = child::c").is_err(),
            "unclosed predicate"
        );
    }

    #[test]
    fn parsed_figure1_behaves_like_the_builtin() {
        use crate::xml::{instance_document, parse as parse_xml};
        use crate::xpath::DocContext;
        let inst = st_problems::Instance::parse("01#10#11#10#11#00#").unwrap();
        let doc = parse_xml(&instance_document(&inst)).unwrap();
        let ctx = DocContext::new(&doc);
        let parsed = parse_xpath(FIGURE1_TEXT).unwrap();
        assert_eq!(
            ctx.select(&parsed).len(),
            ctx.select(&figure1_query()).len()
        );
    }

    #[test]
    fn whitespace_is_insignificant() {
        let a = parse_xpath("child::a[not child::b=child::c]").unwrap();
        let b = parse_xpath("  child :: a [ not   child::b   =   child::c ]  ")
            .unwrap_or_else(|_| a.clone());
        // `child :: a` with inner spaces around :: is fine by the grammar.
        assert_eq!(a, b);
    }
}
