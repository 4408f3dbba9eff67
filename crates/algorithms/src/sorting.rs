//! Corollary 10: sorting, and CHECK-SORT via sorting.
//!
//! The paper derives the PODS'05 sorting lower bound from the CHECK-SORT
//! lower bound: a `LasVegas-RST(o(log N), O(⁴√N/log N), O(1))` sorter
//! would yield a `(½,0)`-RTM for CHECK-SORT in the same class,
//! contradicting Theorem 6. This module provides the two executable
//! halves of that reduction:
//!
//! * [`sort_first_list`] — sort `v₁,…,v_m` on the reversal-bounded tape
//!   machine (`Θ(log N)` scans — the matching upper bound);
//! * [`check_sort_via_sorting`] — the Corollary 10 reduction: sort the
//!   first list, then one parallel scan against the second list.
//!
//! [`las_vegas_sort`] wraps the sorter in the Las-Vegas interface of
//! Definition 4(b) (output or "I don't know") so the class machinery has
//! a concrete inhabitant; our deterministic sorter never needs to say "I
//! don't know", which is the best possible Las-Vegas behaviour.

use rand::Rng;
use st_core::{ResourceUsage, StError};
use st_extmem::block::{tapes_equal, DEFAULT_BLOCK};
use st_extmem::sort::sort_with_usage;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;

/// Sort the first list of `inst`; returns the sorted values and usage.
pub fn sort_first_list(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(Vec<BitStr>, ResourceUsage), StError> {
    sort_with_usage(inst.xs.clone(), inst.size(), tracer)
}

/// A Las-Vegas computation outcome (Definition 4(b)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LasVegas<T> {
    /// The (always correct) output.
    Output(T),
    /// The machine declined to answer — allowed with probability ≤ ½.
    DontKnow,
}

/// Sort `items` in the Las-Vegas interface. The underlying sorter is
/// deterministic and always correct, so `DontKnow` never occurs; the
/// wrapper exists so class-membership checks and the Corollary 10
/// experiments exercise the Definition 4(b) contract. (`_rng` documents
/// that a Las-Vegas machine may consume randomness.)
pub fn las_vegas_sort<R: Rng>(
    items: Vec<BitStr>,
    input_len: usize,
    _rng: &mut R,
    tracer: &Tracer,
) -> Result<(LasVegas<Vec<BitStr>>, ResourceUsage), StError> {
    let (sorted, usage) = sort_with_usage(items, input_len, tracer)?;
    Ok((LasVegas::Output(sorted), usage))
}

/// Corollary 10's reduction, executably: decide CHECK-SORT by sorting the
/// first list and comparing with the second in one parallel scan.
pub fn check_sort_via_sorting(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(bool, ResourceUsage), StError> {
    let (sorted, mut usage) = sort_with_usage(inst.xs.clone(), inst.size(), tracer)?;
    let meter = st_extmem::MemoryMeter::new();
    let mut a = st_extmem::Tape::from_items("sorted", sorted);
    let mut b = st_extmem::Tape::from_items("second", inst.ys.clone());
    let equal = tapes_equal(&mut a, &mut b, &meter, DEFAULT_BLOCK);
    let extra = ResourceUsage {
        input_len: inst.size(),
        reversals_per_tape: vec![a.reversals(), b.reversals()],
        external_tapes: 2,
        internal_space: meter.high_water_bits(),
        steps: 0,
        external_cells: (a.len() + b.len()) as u64,
    };
    usage.absorb(&extra);
    Ok((equal, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::{generate, predicates};

    #[test]
    fn sorting_first_list_is_correct() {
        let inst = Instance::parse("10#01#11#00#00#01#10#11#").unwrap();
        let (sorted, usage) = sort_first_list(&inst, &Tracer::disabled()).unwrap();
        let mut expect = inst.xs.clone();
        expect.sort();
        assert_eq!(sorted, expect);
        assert!(usage.total_reversals() > 0);
    }

    #[test]
    fn las_vegas_sorter_always_outputs() {
        let mut rng = StdRng::seed_from_u64(70);
        let inst = generate::yes_checksort(20, 6, &mut rng);
        let (out, _) =
            las_vegas_sort(inst.xs.clone(), inst.size(), &mut rng, &Tracer::disabled()).unwrap();
        match out {
            LasVegas::Output(sorted) => assert_eq!(sorted, inst.ys),
            LasVegas::DontKnow => panic!("deterministic sorter must not abstain"),
        }
    }

    #[test]
    fn reduction_decides_checksort() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..30 {
            for inst in [
                generate::yes_checksort(10, 5, &mut rng),
                generate::no_checksort_sorted_but_wrong(10, 5, &mut rng),
                generate::random_instance(8, 4, &mut rng),
            ] {
                let (got, _) = check_sort_via_sorting(&inst, &Tracer::disabled()).unwrap();
                assert_eq!(got, predicates::is_check_sorted(&inst));
            }
        }
    }

    #[test]
    fn reduction_reversals_are_logarithmic() {
        let mut rng = StdRng::seed_from_u64(72);
        let mut pts = Vec::new();
        for logm in 3..=9 {
            let m = 1usize << logm;
            let inst = generate::yes_checksort(m, 8, &mut rng);
            let (_, usage) = check_sort_via_sorting(&inst, &Tracer::disabled()).unwrap();
            pts.push((inst.size(), usage.total_reversals() as f64));
        }
        let (slope, _, r2) = st_core::math::log_fit(&pts);
        assert!(r2 > 0.98, "r² = {r2}");
        assert!(slope > 0.0 && slope < 30.0);
    }
}
