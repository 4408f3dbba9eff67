//! Relational algebra on instrumented tapes (Theorem 11).
//!
//! Relations are *sets* of equal-arity tuples. Every operator is
//! evaluated with a constant number of sequential scans and sorting
//! steps on the `st-extmem` substrate, so a fixed query `Q` runs within
//! `c_Q` scans-and-sorts — i.e. `O(log N)` head reversals total, the
//! Theorem 11(a) upper bound. The cross product uses the tape-doubling
//! trick (`⌈log₂ k⌉` duplication passes) to stay within `O(log N)` scans
//! instead of the `Θ(N)` reversals of a naive nested loop.
//!
//! Theorem 11(b)'s query is [`sym_diff_query`]: its result is empty iff
//! `R₁ = R₂`, so any evaluator decides SET-EQUALITY — which is why
//! `o(log N)`-scan evaluation is impossible (Theorem 6).

use st_core::{ResourceUsage, StError};
use st_extmem::meter::bits_for;
use st_extmem::sort::merge_sort;
use st_extmem::TapeMachine;
use st_trace::Tracer;
use std::collections::BTreeMap;
use std::fmt;

/// A tuple: a fixed-arity vector of string attribute values.
pub type Tuple = Vec<String>;

/// A named relation: a set of equal-arity tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Attribute count.
    pub arity: usize,
    /// The tuples (kept sorted + deduplicated as the set representation).
    pub tuples: Vec<Tuple>,
}

impl Relation {
    /// Build a relation, normalizing to set semantics (sort + dedup).
    /// Errors if tuples disagree on arity.
    pub fn new(arity: usize, mut tuples: Vec<Tuple>) -> Result<Self, StError> {
        if let Some(bad) = tuples.iter().find(|t| t.len() != arity) {
            return Err(StError::Query(format!(
                "tuple {bad:?} has arity {}, relation declares {arity}",
                bad.len()
            )));
        }
        tuples.sort();
        tuples.dedup();
        Ok(Relation { arity, tuples })
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total size in attribute symbols (the stream length contribution).
    #[must_use]
    pub fn stream_size(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| t.iter().map(String::len).sum::<usize>() + t.len())
            .sum()
    }
}

/// A database: named relations.
pub type Database = BTreeMap<String, Relation>;

/// A selection predicate of the fragment: compare an attribute with a
/// constant or another attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// `attr[i] = "const"`.
    AttrEqConst(usize, String),
    /// `attr[i] = attr[j]`.
    AttrEqAttr(usize, usize),
}

/// A relational-algebra expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaExpr {
    /// A base relation by name.
    Rel(String),
    /// Set union.
    Union(Box<RaExpr>, Box<RaExpr>),
    /// Set difference.
    Diff(Box<RaExpr>, Box<RaExpr>),
    /// Set intersection.
    Intersect(Box<RaExpr>, Box<RaExpr>),
    /// Selection.
    Select(Pred, Box<RaExpr>),
    /// Projection onto the listed attribute indices.
    Project(Vec<usize>, Box<RaExpr>),
    /// Cross product.
    Product(Box<RaExpr>, Box<RaExpr>),
}

impl fmt::Display for Pred {
    /// Prints in [`crate::relalg_parser`] surface syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::AttrEqConst(i, c) => write!(f, "#{i} = \"{c}\""),
            Pred::AttrEqAttr(i, j) => write!(f, "#{i} = #{j}"),
        }
    }
}

impl fmt::Display for RaExpr {
    /// Prints in [`crate::relalg_parser`] surface syntax, fully
    /// parenthesized, so `parse_relalg(e.to_string()) == e`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaExpr::Rel(n) => write!(f, "{n}"),
            RaExpr::Union(a, b) => write!(f, "({a} union {b})"),
            RaExpr::Diff(a, b) => write!(f, "({a} - {b})"),
            RaExpr::Intersect(a, b) => write!(f, "({a} intersect {b})"),
            RaExpr::Select(p, e) => write!(f, "sigma[{p}]({e})"),
            RaExpr::Project(cols, e) => {
                write!(f, "pi[")?;
                for (k, c) in cols.iter().enumerate() {
                    if k > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]({e})")
            }
            RaExpr::Product(a, b) => write!(f, "({a} x {b})"),
        }
    }
}

/// The Theorem 11(b) query: `Q′ = (R₁ − R₂) ∪ (R₂ − R₁)`.
#[must_use]
pub fn sym_diff_query(r1: &str, r2: &str) -> RaExpr {
    RaExpr::Union(
        Box::new(RaExpr::Diff(
            Box::new(RaExpr::Rel(r1.into())),
            Box::new(RaExpr::Rel(r2.into())),
        )),
        Box::new(RaExpr::Diff(
            Box::new(RaExpr::Rel(r2.into())),
            Box::new(RaExpr::Rel(r1.into())),
        )),
    )
}

/// The tape-level evaluation context.
struct Ctx {
    machine: TapeMachine<Tuple>,
    data: usize,
    aux: usize,
    s1: usize,
    s2: usize,
}

impl Ctx {
    fn new(input_len: usize, tracer: &Tracer) -> Self {
        let mut machine: TapeMachine<Tuple> = TapeMachine::new(input_len, tracer.clone());
        let data = machine.add_tape("data");
        let aux = machine.add_tape("aux");
        let s1 = machine.add_tape("scratch1");
        let s2 = machine.add_tape("scratch2");
        Ctx {
            machine,
            data,
            aux,
            s1,
            s2,
        }
    }

    /// Load tuples onto a fresh region of tape `idx` (overwriting).
    fn load(&mut self, idx: usize, tuples: &[Tuple]) -> Result<(), StError> {
        let tape = self.machine.tape_mut(idx);
        tape.reset_for_overwrite();
        for t in tuples {
            tape.write_fwd(t.clone())?;
        }
        Ok(())
    }

    fn unload(&mut self, idx: usize) -> Vec<Tuple> {
        self.machine.tape(idx).snapshot()
    }

    /// Sort tape `idx` (one merge sort = O(log) scans).
    fn sort(&mut self, idx: usize) -> Result<(), StError> {
        let (a, b) = (self.s1, self.s2);
        merge_sort(&mut self.machine, idx, a, b)
    }
}

/// Evaluate `expr` against `db`, reporting the result relation and the
/// full tape accounting. `N` (the usage record's input size) is the
/// total stream size of the database. The machine traces on `tracer`.
pub fn evaluate(
    expr: &RaExpr,
    db: &Database,
    tracer: &Tracer,
) -> Result<(Relation, ResourceUsage), StError> {
    let n: usize = db.values().map(Relation::stream_size).sum();
    let mut ctx = Ctx::new(n.max(1), tracer);
    let rel = eval_rec(expr, db, &mut ctx)?;
    Ok((rel, ctx.machine.usage()))
}

fn eval_rec(expr: &RaExpr, db: &Database, ctx: &mut Ctx) -> Result<Relation, StError> {
    match expr {
        RaExpr::Rel(name) => db
            .get(name)
            .cloned()
            .ok_or_else(|| StError::Query(format!("unknown relation '{name}'"))),
        RaExpr::Union(a, b) => {
            let (ra, rb) = eval_pair(a, b, db, ctx)?;
            require_same_arity(&ra, &rb)?;
            merge_scan(ctx, &ra.tuples, &rb.tuples, ra.arity, MergeOp::Union)
        }
        RaExpr::Diff(a, b) => {
            let (ra, rb) = eval_pair(a, b, db, ctx)?;
            require_same_arity(&ra, &rb)?;
            merge_scan(ctx, &ra.tuples, &rb.tuples, ra.arity, MergeOp::Diff)
        }
        RaExpr::Intersect(a, b) => {
            let (ra, rb) = eval_pair(a, b, db, ctx)?;
            require_same_arity(&ra, &rb)?;
            merge_scan(ctx, &ra.tuples, &rb.tuples, ra.arity, MergeOp::Intersect)
        }
        RaExpr::Select(pred, e) => {
            let r = eval_rec(e, db, ctx)?;
            check_pred_arity(pred, r.arity)?;
            // One scan: filter.
            ctx.load(ctx.data, &r.tuples)?;
            let meter = ctx.machine.meter().clone();
            let _buf = meter.charge(1);
            let data = ctx.data;
            let aux = ctx.aux;
            {
                let (dt, at) = ctx.machine.pair_mut(data, aux);
                dt.rewind();
                at.reset_for_overwrite();
                while let Some(t) = dt.read_fwd() {
                    let keep = match pred {
                        Pred::AttrEqConst(i, c) => &t[*i] == c,
                        Pred::AttrEqAttr(i, j) => t[*i] == t[*j],
                    };
                    if keep {
                        at.write_fwd(t)?;
                    }
                }
            }
            Relation::new(r.arity, ctx.unload(aux))
        }
        RaExpr::Project(cols, e) => {
            let r = eval_rec(e, db, ctx)?;
            if let Some(&bad) = cols.iter().find(|&&c| c >= r.arity) {
                return Err(StError::Query(format!(
                    "projection column {bad} out of range for arity {}",
                    r.arity
                )));
            }
            // One scan projecting, then a sort-dedup pass (set semantics).
            ctx.load(ctx.data, &r.tuples)?;
            let data = ctx.data;
            let aux = ctx.aux;
            {
                let (dt, at) = ctx.machine.pair_mut(data, aux);
                dt.rewind();
                at.reset_for_overwrite();
                while let Some(t) = dt.read_fwd() {
                    at.write_fwd(cols.iter().map(|&c| t[c].clone()).collect())?;
                }
            }
            ctx.sort(aux)?;
            let deduped = dedup_scan(ctx, aux)?;
            Relation::new(cols.len(), deduped)
        }
        RaExpr::Product(a, b) => {
            let (ra, rb) = eval_pair(a, b, db, ctx)?;
            product(ctx, &ra, &rb)
        }
    }
}

fn eval_pair(
    a: &RaExpr,
    b: &RaExpr,
    db: &Database,
    ctx: &mut Ctx,
) -> Result<(Relation, Relation), StError> {
    let ra = eval_rec(a, db, ctx)?;
    let rb = eval_rec(b, db, ctx)?;
    Ok((ra, rb))
}

fn require_same_arity(a: &Relation, b: &Relation) -> Result<(), StError> {
    if a.arity != b.arity {
        return Err(StError::Query(format!(
            "arity mismatch: {} vs {}",
            a.arity, b.arity
        )));
    }
    Ok(())
}

fn check_pred_arity(pred: &Pred, arity: usize) -> Result<(), StError> {
    let ok = match pred {
        Pred::AttrEqConst(i, _) => *i < arity,
        Pred::AttrEqAttr(i, j) => *i < arity && *j < arity,
    };
    if ok {
        Ok(())
    } else {
        Err(StError::Query(format!(
            "predicate {pred:?} out of range for arity {arity}"
        )))
    }
}

#[derive(Clone, Copy)]
enum MergeOp {
    Union,
    Diff,
    Intersect,
}

/// Sort both inputs on tapes, then one parallel merge scan applying the
/// set operation.
fn merge_scan(
    ctx: &mut Ctx,
    a: &[Tuple],
    b: &[Tuple],
    arity: usize,
    op: MergeOp,
) -> Result<Relation, StError> {
    ctx.load(ctx.data, a)?;
    ctx.load(ctx.aux, b)?;
    ctx.sort(ctx.data)?;
    ctx.sort(ctx.aux)?;
    let meter = ctx.machine.meter().clone();
    let _buf = meter.charge(2 + bits_for(ctx.machine.input_len() as u64));
    let mut out: Vec<Tuple> = Vec::new();
    {
        let (dt, at) = ctx.machine.pair_mut(ctx.data, ctx.aux);
        dt.rewind();
        at.rewind();
        let mut x = dt.read_fwd();
        let mut y = at.read_fwd();
        loop {
            match (&x, &y) {
                (None, None) => break,
                (Some(tx), Some(ty)) => {
                    use std::cmp::Ordering::*;
                    match tx.cmp(ty) {
                        Less => {
                            if matches!(op, MergeOp::Union | MergeOp::Diff) {
                                out.push(tx.clone());
                            }
                            x = dt.read_fwd();
                        }
                        Greater => {
                            if matches!(op, MergeOp::Union) {
                                out.push(ty.clone());
                            }
                            y = at.read_fwd();
                        }
                        Equal => {
                            if matches!(op, MergeOp::Union | MergeOp::Intersect) {
                                out.push(tx.clone());
                            }
                            x = dt.read_fwd();
                            y = at.read_fwd();
                        }
                    }
                }
                (Some(tx), None) => {
                    if matches!(op, MergeOp::Union | MergeOp::Diff) {
                        out.push(tx.clone());
                    }
                    x = dt.read_fwd();
                }
                (None, Some(ty)) => {
                    if matches!(op, MergeOp::Union) {
                        out.push(ty.clone());
                    }
                    y = at.read_fwd();
                }
            }
        }
    }
    Relation::new(arity, out)
}

/// One scan removing adjacent duplicates of a sorted tape.
fn dedup_scan(ctx: &mut Ctx, idx: usize) -> Result<Vec<Tuple>, StError> {
    let meter = ctx.machine.meter().clone();
    let _buf = meter.charge(2);
    let tape = ctx.machine.tape_mut(idx);
    tape.rewind();
    let mut out: Vec<Tuple> = Vec::new();
    let mut prev: Option<Tuple> = None;
    while let Some(t) = tape.read_fwd() {
        if prev.as_ref() != Some(&t) {
            out.push(t.clone());
            prev = Some(t);
        }
    }
    Ok(out)
}

/// Cross product within `O(log N)` scans via tape doubling:
/// `A′ = A` repeated `|B|` times (whole-tape doubling), `B′ = B` with
/// each tuple repeated `|A|` times (per-tuple doubling), then one zip
/// scan concatenates.
fn product(ctx: &mut Ctx, ra: &Relation, rb: &Relation) -> Result<Relation, StError> {
    let ka = ra.len();
    let kb = rb.len();
    if ka == 0 || kb == 0 {
        return Relation::new(ra.arity + rb.arity, Vec::new());
    }
    // A′: double the whole tape ⌈log₂ kb⌉ times, then trim to ka·kb.
    ctx.load(ctx.data, &ra.tuples)?;
    let mut copies = 1usize;
    while copies < kb {
        let (src, dst) = (ctx.data, ctx.s1);
        {
            let (st, dt) = ctx.machine.pair_mut(src, dst);
            st.rewind();
            dt.reset_for_overwrite();
            while let Some(t) = st.read_fwd() {
                dt.write_fwd(t)?;
            }
            st.rewind();
            while let Some(t) = st.read_fwd() {
                dt.write_fwd(t)?;
            }
        }
        // Copy back (one scan each way).
        {
            let (dt, st) = ctx.machine.pair_mut(ctx.data, ctx.s1);
            st.rewind();
            dt.reset_for_overwrite();
            while let Some(t) = st.read_fwd() {
                dt.write_fwd(t)?;
            }
        }
        copies *= 2;
    }
    let a_rep: Vec<Tuple> = ctx.unload(ctx.data).into_iter().take(ka * kb).collect();

    // B′: per-tuple doubling ⌈log₂ ka⌉ times, trim each group to ka.
    ctx.load(ctx.aux, &rb.tuples)?;
    let mut reps = 1usize;
    while reps < ka {
        let (src, dst) = (ctx.aux, ctx.s1);
        {
            let (st, dt) = ctx.machine.pair_mut(src, dst);
            st.rewind();
            dt.reset_for_overwrite();
            while let Some(t) = st.read_fwd() {
                dt.write_fwd(t.clone())?;
                dt.write_fwd(t)?;
            }
        }
        {
            let (dt, st) = ctx.machine.pair_mut(ctx.aux, ctx.s1);
            st.rewind();
            dt.reset_for_overwrite();
            while let Some(t) = st.read_fwd() {
                dt.write_fwd(t)?;
            }
        }
        reps *= 2;
    }
    // Trim groups to exactly ka repetitions.
    let b_all = ctx.unload(ctx.aux);
    let group = reps;
    let mut b_rep: Vec<Tuple> = Vec::with_capacity(ka * kb);
    for g in 0..kb {
        for i in 0..ka {
            b_rep.push(b_all[g * group + i].clone());
        }
    }

    // A′ is (A repeated kb times) = groups of ka in original order; B′ is
    // each b repeated ka times. Zip so that group g pairs A with b_g.
    let mut out: Vec<Tuple> = Vec::with_capacity(ka * kb);
    for (x, y) in a_rep.into_iter().zip(b_rep) {
        let mut t = x;
        t.extend(y);
        out.push(t);
    }
    Relation::new(ra.arity + rb.arity, out)
}

/// Reference (oracle) evaluation entirely in memory — the specification
/// the tape evaluator is tested against.
pub fn evaluate_reference(expr: &RaExpr, db: &Database) -> Result<Relation, StError> {
    match expr {
        RaExpr::Rel(name) => db
            .get(name)
            .cloned()
            .ok_or_else(|| StError::Query(format!("unknown relation '{name}'"))),
        RaExpr::Union(a, b) => {
            let (x, y) = (evaluate_reference(a, db)?, evaluate_reference(b, db)?);
            require_same_arity(&x, &y)?;
            let mut ts = x.tuples;
            ts.extend(y.tuples);
            Relation::new(x.arity, ts)
        }
        RaExpr::Diff(a, b) => {
            let (x, y) = (evaluate_reference(a, db)?, evaluate_reference(b, db)?);
            require_same_arity(&x, &y)?;
            let keep: Vec<Tuple> = x
                .tuples
                .into_iter()
                .filter(|t| !y.tuples.contains(t))
                .collect();
            Relation::new(x.arity, keep)
        }
        RaExpr::Intersect(a, b) => {
            let (x, y) = (evaluate_reference(a, db)?, evaluate_reference(b, db)?);
            require_same_arity(&x, &y)?;
            let keep: Vec<Tuple> = x
                .tuples
                .into_iter()
                .filter(|t| y.tuples.contains(t))
                .collect();
            Relation::new(x.arity, keep)
        }
        RaExpr::Select(p, e) => {
            let x = evaluate_reference(e, db)?;
            check_pred_arity(p, x.arity)?;
            let keep: Vec<Tuple> = x
                .tuples
                .into_iter()
                .filter(|t| match p {
                    Pred::AttrEqConst(i, c) => &t[*i] == c,
                    Pred::AttrEqAttr(i, j) => t[*i] == t[*j],
                })
                .collect();
            Relation::new(x.arity, keep)
        }
        RaExpr::Project(cols, e) => {
            let x = evaluate_reference(e, db)?;
            if cols.iter().any(|&c| c >= x.arity) {
                return Err(StError::Query("projection out of range".into()));
            }
            let ts: Vec<Tuple> = x
                .tuples
                .into_iter()
                .map(|t| cols.iter().map(|&c| t[c].clone()).collect())
                .collect();
            Relation::new(cols.len(), ts)
        }
        RaExpr::Product(a, b) => {
            let (x, y) = (evaluate_reference(a, db)?, evaluate_reference(b, db)?);
            let mut out = Vec::new();
            for tx in &x.tuples {
                for ty in &y.tuples {
                    let mut t = tx.clone();
                    t.extend(ty.clone());
                    out.push(t);
                }
            }
            Relation::new(x.arity + y.arity, out)
        }
    }
}

/// Build the Theorem 11 database for a SET-EQUALITY instance: `R1` holds
/// the first list as unary tuples, `R2` the second.
#[must_use]
pub fn instance_database(inst: &st_problems::Instance) -> Database {
    let to_rel = |vs: &[st_problems::BitStr]| {
        Relation::new(1, vs.iter().map(|v| vec![v.to_string()]).collect())
            .expect("unary tuples are well-formed")
    };
    let mut db = Database::new();
    db.insert("R1".into(), to_rel(&inst.xs));
    db.insert("R2".into(), to_rel(&inst.ys));
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(vals: &[&str]) -> Relation {
        Relation::new(1, vals.iter().map(|v| vec![(*v).to_string()]).collect()).unwrap()
    }

    fn db2(a: &[&str], b: &[&str]) -> Database {
        let mut db = Database::new();
        db.insert("R1".into(), rel(a));
        db.insert("R2".into(), rel(b));
        db
    }

    #[test]
    fn relations_have_set_semantics() {
        let r = rel(&["b", "a", "b"]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples, vec![vec!["a".to_string()], vec!["b".to_string()]]);
    }

    #[test]
    fn union_diff_intersect_match_reference() {
        let db = db2(&["a", "b", "c"], &["b", "c", "d"]);
        for expr in [
            RaExpr::Union(
                Box::new(RaExpr::Rel("R1".into())),
                Box::new(RaExpr::Rel("R2".into())),
            ),
            RaExpr::Diff(
                Box::new(RaExpr::Rel("R1".into())),
                Box::new(RaExpr::Rel("R2".into())),
            ),
            RaExpr::Intersect(
                Box::new(RaExpr::Rel("R1".into())),
                Box::new(RaExpr::Rel("R2".into())),
            ),
        ] {
            let (got, _) = evaluate(&expr, &db, &Tracer::disabled()).unwrap();
            let want = evaluate_reference(&expr, &db).unwrap();
            assert_eq!(got, want, "{expr}");
        }
    }

    #[test]
    fn sym_diff_decides_set_equality() {
        let q = sym_diff_query("R1", "R2");
        let (r, _) = evaluate(&q, &db2(&["a", "b"], &["b", "a"]), &Tracer::disabled()).unwrap();
        assert!(r.is_empty(), "equal sets → empty symmetric difference");
        let (r, _) = evaluate(&q, &db2(&["a", "b"], &["b", "c"]), &Tracer::disabled()).unwrap();
        assert_eq!(r.len(), 2);
        // Duplicates collapse: {a,a,b} vs {a,b} are equal as sets.
        let (r, _) =
            evaluate(&q, &db2(&["a", "a", "b"], &["a", "b"]), &Tracer::disabled()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn select_and_project() {
        let mut db = Database::new();
        db.insert(
            "S".into(),
            Relation::new(
                2,
                vec![
                    vec!["x".into(), "1".into()],
                    vec!["y".into(), "2".into()],
                    vec!["x".into(), "3".into()],
                ],
            )
            .unwrap(),
        );
        let q = RaExpr::Project(
            vec![1],
            Box::new(RaExpr::Select(
                Pred::AttrEqConst(0, "x".into()),
                Box::new(RaExpr::Rel("S".into())),
            )),
        );
        let (got, _) = evaluate(&q, &db, &Tracer::disabled()).unwrap();
        assert_eq!(
            got,
            Relation::new(1, vec![vec!["1".into()], vec!["3".into()]]).unwrap()
        );
    }

    #[test]
    fn self_equality_selection() {
        let mut db = Database::new();
        db.insert(
            "S".into(),
            Relation::new(
                2,
                vec![vec!["a".into(), "a".into()], vec!["a".into(), "b".into()]],
            )
            .unwrap(),
        );
        let q = RaExpr::Select(Pred::AttrEqAttr(0, 1), Box::new(RaExpr::Rel("S".into())));
        let (got, _) = evaluate(&q, &db, &Tracer::disabled()).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn product_matches_reference() {
        let db = db2(&["a", "b", "c"], &["x", "y"]);
        let q = RaExpr::Product(
            Box::new(RaExpr::Rel("R1".into())),
            Box::new(RaExpr::Rel("R2".into())),
        );
        let (got, _) = evaluate(&q, &db, &Tracer::disabled()).unwrap();
        let want = evaluate_reference(&q, &db).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.len(), 6);
        assert_eq!(got.arity, 2);
    }

    #[test]
    fn product_with_empty_operand() {
        let db = db2(&[], &["x", "y"]);
        let q = RaExpr::Product(
            Box::new(RaExpr::Rel("R1".into())),
            Box::new(RaExpr::Rel("R2".into())),
        );
        let (got, _) = evaluate(&q, &db, &Tracer::disabled()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let db = db2(&["a"], &["b"]);
        assert!(evaluate(&RaExpr::Rel("nope".into()), &db, &Tracer::disabled()).is_err());
        let mut db2m = db.clone();
        db2m.insert(
            "W".into(),
            Relation::new(2, vec![vec!["a".into(), "b".into()]]).unwrap(),
        );
        let bad = RaExpr::Union(
            Box::new(RaExpr::Rel("R1".into())),
            Box::new(RaExpr::Rel("W".into())),
        );
        assert!(
            evaluate(&bad, &db2m, &Tracer::disabled()).is_err(),
            "arity mismatch must error"
        );
        let bad = RaExpr::Project(vec![5], Box::new(RaExpr::Rel("R1".into())));
        assert!(evaluate(&bad, &db2m, &Tracer::disabled()).is_err());
    }

    #[test]
    fn sym_diff_reversals_are_logarithmic() {
        let mut pts = Vec::new();
        for logm in 3..=9 {
            let m = 1usize << logm;
            let vals: Vec<String> = (0..m).map(|i| format!("{i:06}")).collect();
            let shifted: Vec<String> = (0..m).map(|i| format!("{:06}", i + 1)).collect();
            let mut db = Database::new();
            db.insert(
                "R1".into(),
                Relation::new(1, vals.iter().map(|v| vec![v.clone()]).collect()).unwrap(),
            );
            db.insert(
                "R2".into(),
                Relation::new(1, shifted.iter().map(|v| vec![v.clone()]).collect()).unwrap(),
            );
            let (_, usage) =
                evaluate(&sym_diff_query("R1", "R2"), &db, &Tracer::disabled()).unwrap();
            pts.push((usage.input_len, usage.total_reversals() as f64));
        }
        let (slope, _, r2) = st_core::math::log_fit(&pts);
        assert!(r2 > 0.95, "reversals not log-shaped: r²={r2} {pts:?}");
        assert!(slope > 0.0 && slope < 120.0);
    }

    #[test]
    fn instance_database_round_trip() {
        let inst = st_problems::Instance::parse("01#10#10#01#").unwrap();
        let db = instance_database(&inst);
        let (r, _) = evaluate(&sym_diff_query("R1", "R2"), &db, &Tracer::disabled()).unwrap();
        assert!(r.is_empty());
        let inst = st_problems::Instance::parse("01#10#10#11#").unwrap();
        let db = instance_database(&inst);
        let (r, _) = evaluate(&sym_diff_query("R1", "R2"), &db, &Tracer::disabled()).unwrap();
        assert!(!r.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rel(max: usize) -> impl Strategy<Value = Relation> {
        proptest::collection::vec(proptest::collection::vec("[ab]{0,2}", 1), 0..max)
            .prop_map(|ts| Relation::new(1, ts).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tape_eval_matches_reference(a in arb_rel(8), b in arb_rel(8)) {
            let mut db = Database::new();
            db.insert("R1".into(), a);
            db.insert("R2".into(), b);
            for expr in [
                sym_diff_query("R1", "R2"),
                RaExpr::Intersect(Box::new(RaExpr::Rel("R1".into())), Box::new(RaExpr::Rel("R2".into()))),
                RaExpr::Product(Box::new(RaExpr::Rel("R1".into())), Box::new(RaExpr::Rel("R2".into()))),
            ] {
                let (got, _) = evaluate(&expr, &db, &Tracer::disabled()).unwrap();
                let want = evaluate_reference(&expr, &db).unwrap();
                prop_assert_eq!(got, want);
            }
        }

        #[test]
        fn sym_diff_empty_iff_equal(a in arb_rel(6), b in arb_rel(6)) {
            let mut db = Database::new();
            db.insert("R1".into(), a.clone());
            db.insert("R2".into(), b.clone());
            let (r, _) = evaluate(&sym_diff_query("R1", "R2"), &db, &Tracer::disabled()).unwrap();
            prop_assert_eq!(r.is_empty(), a == b);
        }
    }
}
