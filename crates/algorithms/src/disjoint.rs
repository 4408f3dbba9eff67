//! DISJOINT-SETS — the paper's open problem (Section 9).
//!
//! "A specific problem for which we could not prove lower bounds, even
//! though it looks very similar to the set equality problem, is the
//! disjoint sets problem." The obstruction is visible in the
//! fingerprinting toolbox: equality has *order-insensitive, locally
//! aggregable* witnesses (`Σ x^{eᵢ}`), while disjointness asks whether
//! two residue multisets *intersect* — a property a sum does not expose.
//! This module provides what *is* known:
//!
//! * [`decide_disjoint_det`] — the deterministic sort-based decider at
//!   `Θ(log N)` scans (the same upper bound as equality);
//! * [`decide_disjoint_one_pass`] — the 1-scan, `Θ(N)`-memory hash
//!   baseline;
//! * [`residue_overlap_heuristic`] — the natural fingerprint *attempt*:
//!   compare residue **sets** modulo a random prime. It is complete on
//!   the "intersecting" side (never misses a common element) but its
//!   false-"intersecting" rate does **not** vanish with one prime at
//!   small moduli — the tests quantify the gap that leaves the problem
//!   open rather than pretending to close it.

use rand::Rng;
use st_core::math::is_prime;
use st_core::{ResourceUsage, StError};
use st_extmem::meter::bits_for;
use st_extmem::sort::merge_sort;
use st_extmem::TapeMachine;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;
use std::collections::BTreeSet;

/// Deterministic disjointness: sort both lists, one parallel merge scan
/// looking for a common element. `Θ(log N)` scans.
pub fn decide_disjoint_det(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(bool, ResourceUsage), StError> {
    let n = inst.size();
    let mut m = TapeMachine::with_input(inst.xs.clone(), n.max(1), tracer.clone());
    m.add_tape_with("second", inst.ys.clone());
    m.add_tape("scratch1");
    m.add_tape("scratch2");
    merge_sort(&mut m, 0, 2, 3)?;
    merge_sort(&mut m, 1, 2, 3)?;
    let meter = m.meter().clone();
    let _buf = meter.charge(2 + bits_for(n.max(2) as u64));
    let mut disjoint = true;
    {
        let (a, b) = m.pair_mut(0, 1);
        a.rewind();
        b.rewind();
        let mut x = a.read_fwd();
        let mut y = b.read_fwd();
        while let (Some(vx), Some(vy)) = (&x, &y) {
            use std::cmp::Ordering::*;
            match vx.cmp(vy) {
                Equal => {
                    disjoint = false;
                    break;
                }
                Less => x = a.read_fwd(),
                Greater => y = b.read_fwd(),
            }
        }
    }
    Ok((disjoint, m.usage()))
}

/// One-pass hash baseline: single scan, internal memory `Θ(N)`.
pub fn decide_disjoint_one_pass(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(bool, ResourceUsage), StError> {
    let records: Vec<BitStr> = inst.xs.iter().chain(inst.ys.iter()).cloned().collect();
    let m_count = inst.m();
    let mut machine = TapeMachine::with_input(records, inst.size().max(1), tracer.clone());
    let meter = machine.meter().clone();
    let mut seen: BTreeSet<BitStr> = BTreeSet::new();
    let mut stored_bits = 0u64;
    let mut disjoint = true;
    let mut idx = 0usize;
    let tape = machine.tape_mut(0);
    while let Some(v) = tape.read_fwd() {
        if idx < m_count {
            stored_bits += v.len() as u64 + 1;
            seen.insert(v);
        } else if seen.contains(&v) {
            disjoint = false;
        }
        idx += 1;
    }
    meter.charge_static(stored_bits);
    Ok((disjoint, machine.usage()))
}

/// The natural-but-insufficient fingerprint attempt: map both sides to
/// residue **sets** modulo a random prime `p ≤ k` and report "disjoint"
/// iff the residue sets are disjoint.
///
/// One-sided in the wrong-for-free direction: if the sets intersect, the
/// residue sets intersect (never a false "disjoint"→"intersect" miss —
/// i.e. `true` answers are unreliable, `false` answers… also unreliable:
/// two disjoint sets can collide modulo `p`). The point — demonstrated
/// in the tests — is that the collision rate here scales with `m²/π(k)`
/// per prime and, unlike the equality fingerprint, there is no algebraic
/// aggregation trick known to drive it below constant within
/// `o(log N)` scans. Hence the open problem.
pub fn residue_overlap_heuristic<R: Rng>(
    inst: &Instance,
    k: u64,
    rng: &mut R,
) -> Result<bool, StError> {
    let p = {
        let mut tries = 0;
        loop {
            let c = rng.gen_range(2..=k.max(2));
            if is_prime(c) {
                break c;
            }
            tries += 1;
            if tries > 4096 {
                break 2;
            }
        }
    };
    let residues = |vs: &[BitStr]| -> Result<BTreeSet<u64>, StError> {
        vs.iter()
            .map(|v| {
                let mut e = 0u64;
                for b in v.iter() {
                    e = (e.wrapping_mul(2).wrapping_add(u64::from(b))) % p;
                }
                Ok(e)
            })
            .collect()
    };
    let a = residues(&inst.xs)?;
    let b = residues(&inst.ys)?;
    Ok(a.is_disjoint(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::{generate, predicates};

    #[test]
    fn deterministic_decider_matches_reference() {
        let mut rng = StdRng::seed_from_u64(60);
        for _ in 0..40 {
            let inst = generate::random_instance(8, 4, &mut rng);
            let (got, _) = decide_disjoint_det(&inst, &Tracer::disabled()).unwrap();
            assert_eq!(got, predicates::are_disjoint(&inst), "{}", inst.encode());
        }
        let (got, _) =
            decide_disjoint_det(&Instance::parse("").unwrap(), &Tracer::disabled()).unwrap();
        assert!(got, "empty sets are disjoint");
    }

    #[test]
    fn one_pass_matches_reference_with_linear_memory() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..30 {
            let inst = generate::random_instance(10, 5, &mut rng);
            let (got, usage) = decide_disjoint_one_pass(&inst, &Tracer::disabled()).unwrap();
            assert_eq!(got, predicates::are_disjoint(&inst));
            assert_eq!(usage.scans(), 1);
        }
        let big = generate::yes_set_distinct(128, 16, &mut rng);
        let (_, usage) = decide_disjoint_one_pass(&big, &Tracer::disabled()).unwrap();
        assert!(usage.internal_space >= 128 * 16, "Θ(N) memory expected");
    }

    #[test]
    fn deterministic_decider_is_log_scan() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut pts = Vec::new();
        for logm in 3..=9 {
            let inst = generate::random_instance(1 << logm, 12, &mut rng);
            let (_, usage) = decide_disjoint_det(&inst, &Tracer::disabled()).unwrap();
            pts.push((usage.input_len, usage.total_reversals() as f64));
        }
        let (_, _, r2) = st_core::math::log_fit(&pts);
        assert!(r2 > 0.97, "r² = {r2}");
    }

    #[test]
    fn heuristic_never_reports_disjoint_on_intersecting_sets() {
        // Intersecting sets share a value, hence a residue: the heuristic
        // must answer "not disjoint" (false) every time.
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..50 {
            let mut inst = generate::random_instance(6, 10, &mut rng);
            inst.ys[0] = inst.xs[0].clone(); // force an intersection
            assert!(!residue_overlap_heuristic(&inst, 1 << 16, &mut rng).unwrap());
        }
    }

    #[test]
    fn heuristic_false_alarm_rate_is_substantial_at_small_moduli() {
        // Disjoint sets collide modulo small primes often — the gap that
        // keeps DISJOINT-SETS open. With k = 251 and m = 12 per side,
        // birthday collisions are near-certain.
        let mut rng = StdRng::seed_from_u64(64);
        let mut false_alarms = 0u32;
        let trials = 100u32;
        for _ in 0..trials {
            let inst = loop {
                let cand = generate::random_instance(12, 16, &mut rng);
                if predicates::are_disjoint(&cand) {
                    break cand;
                }
            };
            if !residue_overlap_heuristic(&inst, 251, &mut rng).unwrap() {
                false_alarms += 1;
            }
        }
        assert!(
            false_alarms > trials / 3,
            "expected pervasive residue collisions at tiny moduli, got {false_alarms}/{trials}"
        );
    }

    #[test]
    fn heuristic_improves_with_larger_moduli_but_needs_poly_k() {
        // With k = m³·n·log(m³n)-scale moduli the false-alarm rate drops —
        // but correctness would need union-bounding over all m² pairs,
        // which is exactly what works for equality and is not known to
        // compose into an o(log N)-scan disjointness algorithm.
        let mut rng = StdRng::seed_from_u64(65);
        let mut false_alarms = 0u32;
        let trials = 100u32;
        for _ in 0..trials {
            let inst = loop {
                let cand = generate::random_instance(8, 16, &mut rng);
                if predicates::are_disjoint(&cand) {
                    break cand;
                }
            };
            if !residue_overlap_heuristic(&inst, 1 << 22, &mut rng).unwrap() {
                false_alarms += 1;
            }
        }
        assert!(
            false_alarms < trials / 4,
            "large moduli should mostly avoid collisions"
        );
    }
}
