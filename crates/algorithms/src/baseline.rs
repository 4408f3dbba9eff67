//! Baselines anchoring the separation table (Corollary 9 experiment).
//!
//! Theorem 6 says the scan/space trade-off is real: below `Θ(log N)`
//! scans, randomized machines with no-false-positive error cannot decide
//! (multi)set equality with sublinear internal memory. The obvious way to
//! buy scans with memory is the **one-pass hash join**: a single forward
//! scan, but internal memory `Θ(N)` — it stores a whole list. These
//! baselines make the other corner of the trade-off measurable.

use st_core::{ResourceUsage, StError};
use st_extmem::meter::bits_for;
use st_extmem::TapeMachine;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;
use std::collections::HashMap;

/// One-pass multiset-equality via an internal hash multiset: 1 scan,
/// `Θ(N)` internal bits (every value of the first list is stored).
pub fn one_pass_multiset_equality(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(bool, ResourceUsage), StError> {
    let records: Vec<BitStr> = inst.xs.iter().chain(inst.ys.iter()).cloned().collect();
    let m = inst.m();
    let mut machine = TapeMachine::with_input(records, inst.size(), tracer.clone());
    let meter = machine.meter().clone();

    let mut counts: HashMap<BitStr, i64> = HashMap::new();
    let mut stored_bits: u64 = 0;
    let mut idx = 0usize;
    let tape = machine.tape_mut(0);
    let mut balanced = true;
    while let Some(v) = tape.read_fwd() {
        let bits = v.len() as u64 + 1;
        if idx < m {
            let e = counts.entry(v).or_insert(0);
            if *e == 0 {
                stored_bits += bits + bits_for(m as u64);
                meter.note_peak(0); // peak recomputed below via charge_static
            }
            *e += 1;
        } else {
            match counts.get_mut(&v) {
                Some(e) if *e > 0 => *e -= 1,
                _ => balanced = false,
            }
        }
        idx += 1;
    }
    meter.charge_static(stored_bits + bits_for(inst.size().max(2) as u64));
    let equal = balanced && counts.values().all(|&c| c == 0);
    Ok((equal, machine.usage()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::{generate, predicates};

    #[test]
    fn one_pass_baseline_is_correct() {
        let mut rng = StdRng::seed_from_u64(80);
        for _ in 0..30 {
            for inst in [
                generate::yes_multiset(10, 6, &mut rng),
                generate::no_multiset_one_bit(10, 6, &mut rng),
                generate::random_instance(6, 4, &mut rng),
            ] {
                let (got, _) = one_pass_multiset_equality(&inst, &Tracer::disabled()).unwrap();
                assert_eq!(got, predicates::is_multiset_equal(&inst));
            }
        }
    }

    #[test]
    fn one_pass_uses_one_scan_but_linear_memory() {
        let mut rng = StdRng::seed_from_u64(81);
        let inst = generate::yes_multiset(64, 16, &mut rng);
        let (_, usage) = one_pass_multiset_equality(&inst, &Tracer::disabled()).unwrap();
        assert_eq!(usage.scans(), 1, "single forward scan");
        // Internal memory stores the whole first list: Ω(m·n) bits.
        assert!(
            usage.internal_space >= 64 * 16,
            "expected Θ(N) internal bits, got {}",
            usage.internal_space
        );
    }

    #[test]
    fn memory_grows_linearly_not_logarithmically() {
        let mut rng = StdRng::seed_from_u64(82);
        let small = generate::yes_set_distinct(32, 12, &mut rng);
        let large = generate::yes_set_distinct(256, 12, &mut rng);
        let (_, u_small) = one_pass_multiset_equality(&small, &Tracer::disabled()).unwrap();
        let (_, u_large) = one_pass_multiset_equality(&large, &Tracer::disabled()).unwrap();
        let ratio = u_large.internal_space as f64 / u_small.internal_space as f64;
        assert!(
            ratio > 4.0,
            "memory should scale ~8x with m, got {ratio:.2}x"
        );
    }
}
