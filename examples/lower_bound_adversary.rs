//! The Lemma 21 adversary, end to end: take an honest bounded-scan list
//! machine for CHECK-φ, pin its skeleton, find the uncompared pair, and
//! splice a **no**-instance it accepts.
//!
//! ```text
//! cargo run --example lower_bound_adversary
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lab::lm::adversary::{find_fooling_input, WordFamily};
use st_lab::lm::library::one_scan_matcher;
use st_lab::problems::perm::phi;
use st_trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = 8usize;
    let fam = WordFamily::new(m, 12)?;
    let nlm = one_scan_matcher(m, phi(m));
    println!(
        "machine: '{}' — accepts every CHECK-φ yes-instance within 2 scans on 2 lists",
        nlm.name
    );

    let mut rng = StdRng::seed_from_u64(42);
    let res = find_fooling_input(&nlm, &fam, &mut rng, 24, &Tracer::disabled())?;

    println!("\npinned skeleton group size: {}", res.group_size);
    println!(
        "uncompared index i₀ = {} (pair ({}, {}) never co-visible)",
        res.i0,
        res.i0,
        m + phi(m)[res.i0]
    );
    println!("\naccepted yes-instance v: {:?}", res.v);
    println!("accepted yes-instance w: {:?}", res.w);
    println!("spliced input u        : {:?}", res.u);
    println!("\nu is a CHECK-φ yes-instance: {}", fam.holds(&res.u));
    println!("machine accepts u:           {}", res.run_u.accepted());
    println!("machine scans on u:          {}", res.run_u.scans());
    println!(
        "\n⇒ the machine answers 'equal' on an unequal input — Theorem 6's verdict on \
         every o(log N)-scan machine with no false positives."
    );
    Ok(())
}
