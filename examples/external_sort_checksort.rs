//! Corollary 7 / Corollary 10: external merge sort under reversal
//! accounting, and CHECK-SORT via sorting — watch the Θ(log N) scans.
//!
//! ```text
//! cargo run --example external_sort_checksort
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::algo::sorting::check_sort_via_sorting;
use st_lab::extmem::sort::sort_with_usage;
use st_lab::problems::generate;
use st_trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("external merge sort (3 tapes): reversals vs N\n");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "m", "N", "reversals", "12·log₂N"
    );
    for logm in 4..=14 {
        let m = 1usize << logm;
        let items: Vec<u64> = (0..m as u64).rev().collect();
        let (sorted, usage) = sort_with_usage(items, m, &Tracer::disabled())?;
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        println!(
            "{:>8} {:>12} {:>14} {:>12.0}",
            m,
            usage.input_len,
            usage.total_reversals(),
            12.0 * (usage.input_len as f64).log2()
        );
    }

    println!("\nCHECK-SORT via sorting (the Corollary 10 reduction):");
    let mut rng = StdRng::seed_from_u64(1);
    for (label, inst) in [
        (
            "sorted copy (yes)",
            generate::yes_checksort(256, 12, &mut rng),
        ),
        (
            "sorted but wrong (no)",
            generate::no_checksort_sorted_but_wrong(256, 12, &mut rng),
        ),
    ] {
        let (verdict, usage) = check_sort_via_sorting(&inst, &Tracer::disabled())?;
        println!(
            "  {label:<22} verdict = {verdict:<5}  scans = {:<4} internal = {} bits",
            usage.scans(),
            usage.internal_space
        );
    }
    Ok(())
}
