//! # st-query — the streaming query layer of Section 4
//!
//! The paper transfers its lower bound to database query evaluation:
//! relational algebra (Theorem 11), XQuery (Theorem 12) and XPath
//! (Theorem 13). This crate builds the three query systems:
//!
//! * [`relalg`] — a relational-algebra engine whose every operator is
//!   compiled to a constant number of scans and sorts on instrumented
//!   tapes (Theorem 11(a)), including the cross product via the
//!   tape-doubling trick; the symmetric-difference query
//!   `Q′ = (R₁−R₂) ∪ (R₂−R₁)` decides SET-EQUALITY (Theorem 11(b));
//! * [`xml`] — an XML event stream (tokenizer + writer), a small DOM,
//!   and the paper's encoding of SET-EQUALITY instances as
//!   `<instance><set1>…<set2>…` documents;
//! * [`xpath`] — the XPath fragment of Figure 1 (axes `child`,
//!   `descendant`, `ancestor`; `not`; existential `=` over node sets)
//!   with the exact Figure 1 query built in, plus the two-run reduction
//!   of Theorem 13's proof;
//! * [`xquery`] — the XQuery fragment of Theorem 12 (`every`/`some` …
//!   `satisfies`, `and`, element constructors, `if/then/else`) with the
//!   paper's query built in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cursor;
pub mod relalg;
pub mod relalg_parser;
pub mod stream;
pub mod xml;
pub mod xpath;
pub mod xpath_parser;
pub mod xquery;
pub mod xquery_parser;
