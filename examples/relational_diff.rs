//! Theorem 11: evaluate the symmetric-difference query
//! `Q′ = (R₁ − R₂) ∪ (R₂ − R₁)` on tuple streams with full reversal
//! accounting.
//!
//! ```text
//! cargo run --example relational_diff
//! ```

use st_lab::query::relalg::{evaluate, sym_diff_query, Database, Relation};
use st_trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.insert(
        "R1".into(),
        Relation::new(
            1,
            ["alice", "bob", "carol", "dave"]
                .iter()
                .map(|s| vec![(*s).to_string()])
                .collect(),
        )?,
    );
    db.insert(
        "R2".into(),
        Relation::new(
            1,
            ["bob", "carol", "dave", "erin"]
                .iter()
                .map(|s| vec![(*s).to_string()])
                .collect(),
        )?,
    );

    let q = sym_diff_query("R1", "R2");
    println!("query: {q}");
    let (result, usage) = evaluate(&q, &db, &Tracer::disabled())?;
    println!("\nresult ({} tuple(s)):", result.len());
    for t in &result.tuples {
        println!("  {t:?}");
    }
    println!("\nR1 = R2 ⟺ result empty: {}", result.is_empty());
    println!("tape accounting: {usage}");
    println!(
        "\nTheorem 11(b): because Q′ decides SET-EQUALITY, no evaluator can run in \
         o(log N) scans with sublinear internal memory — the {} reversals here are \
         not an implementation artifact.",
        usage.total_reversals()
    );
    Ok(())
}
