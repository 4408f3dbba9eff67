//! Theorem 8(b): the nondeterministic 3-scan verifier.
//!
//! The paper's NTM guesses a permutation `π` and writes
//! `ℓ = m·n + m` copies of the string `u := π#w` onto **two** external
//! tapes in a single forward sweep; while writing copy `c ≤ m·n` it
//! verifies one bit of one pair (`v_j` vs `v′_{π(j)}`), and while writing
//! the last `m` copies it verifies injectivity of `π`. A final *backward*
//! sweep over both tapes (offset by one copy) verifies that all copies
//! are identical and the first matches the input. Cost: one reversal per
//! tape → `1 + 2 = 3` sequential scans, two tapes, `O(log N)` internal
//! registers — `NST(3, O(log N), 2)`.
//!
//! Executably, the nondeterministic guess is a **certificate**: the
//! permutation `π`. [`verify_multiset_certificate`] runs the paper's
//! machine for a fixed `π`; [`exists_certificate`] realizes the
//! NST acceptance condition (`∃π` accepted) by exhaustive search for
//! small `m`. The sortedness side-condition of CHECK-SORT is checked with
//! a one-record buffer (documented substitution for the paper's
//! quadratic-copies bitwise scheme; the scan count is unchanged).

use st_core::{ResourceUsage, StError};
use st_extmem::meter::bits_for;
use st_extmem::TapeMachine;
use st_problems::{BitStr, Instance};
use st_trace::Tracer;

/// One cell of the written string `u = π # v₁..v_m # v′₁..v′_m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UCell {
    /// An entry `π(j)` of the guessed permutation (1-based).
    Pi(usize),
    /// A first-list value.
    X(BitStr),
    /// A second-list value.
    Y(BitStr),
}

/// The verifier's verdict plus accounting.
#[derive(Debug, Clone)]
pub struct VerifierRun {
    /// `true` iff every check passed for this certificate.
    pub accepted: bool,
    /// Tape and memory accounting of the two-tape machine.
    pub usage: ResourceUsage,
    /// Number of copies of `u` written (`ℓ`).
    pub copies: usize,
}

fn bit_at(v: &BitStr, b: usize) -> Option<u8> {
    if b < v.len() {
        Some(v.bit(b))
    } else {
        None
    }
}

/// Run the Theorem 8(b) verifier for MULTISET-EQUALITY with certificate
/// `pi` (0-based: `pi[i] = π(i+1) − 1`). When `check_sorted` is set the
/// CHECK-SORT side-condition (second list ascending) is verified too.
///
/// Errors on arity mismatch between `pi` and the instance.
pub fn verify_multiset_certificate(
    inst: &Instance,
    pi: &[usize],
    check_sorted: bool,
    tracer: &Tracer,
) -> Result<VerifierRun, StError> {
    let m = inst.m();
    if pi.len() != m {
        return Err(StError::InvalidInstance(format!(
            "certificate arity {} does not match m = {m}",
            pi.len()
        )));
    }
    let n_max = inst
        .xs
        .iter()
        .chain(inst.ys.iter())
        .map(BitStr::len)
        .max()
        .unwrap_or(0);
    let copies = m * n_max + m;
    let cells_per_copy = 3 * m;

    let mut machine: TapeMachine<UCell> = TapeMachine::new(inst.size(), tracer.clone());
    let t1 = machine.add_tape("u-copies-1");
    let t2 = machine.add_tape("u-copies-2");
    let meter = machine.meter().clone();
    // Registers: copy counter, section indices (O(log ℓ)), one held π
    // value (O(log m)), one held bit. Plus, for the sortedness check, one
    // record buffer of n bits (documented substitution).
    meter.charge_static(
        2 * bits_for(copies.max(2) as u64)
            + bits_for(m.max(2) as u64)
            + 1
            + if check_sorted { n_max as u64 } else { 0 },
    );

    let mut ok = true;

    // ---- Forward sweep: write ℓ copies, checking as we go. ------------
    for c in 1..=copies {
        // Which check does this copy carry?
        let bit_check: Option<(usize, usize)> = if n_max > 0 && c <= m * n_max {
            Some(((c - 1) / n_max, (c - 1) % n_max)) // (j 0-based, bit b)
        } else {
            None
        };
        let inj_check: Option<usize> = if c > m * n_max {
            Some(c - m * n_max - 1)
        } else {
            None
        }; // i 0-based

        let mut held_pi: Option<usize> = None;
        let mut held_bit: Option<Option<u8>> = None;
        let mut prev_y: Option<BitStr> = None;

        // Section 1: the permutation entries.
        for (j, &pj) in pi.iter().enumerate() {
            if pj >= m {
                ok = false; // out-of-range entry: not a permutation
            }
            if let Some((jj, _)) = bit_check {
                if j == jj {
                    held_pi = Some(pj);
                }
            }
            if let Some(i) = inj_check {
                if j == i {
                    held_pi = Some(pj);
                } else if j > i && held_pi == Some(pj) {
                    ok = false; // injectivity violated
                }
            }
            let cell = UCell::Pi(pj + 1);
            let (a, b) = machine.pair_mut(t1, t2);
            a.write_fwd(cell.clone())?;
            b.write_fwd(cell)?;
        }
        // Section 2: the first list.
        for (j, x) in inst.xs.iter().enumerate() {
            if let Some((jj, b)) = bit_check {
                if j == jj {
                    held_bit = Some(bit_at(x, b));
                }
            }
            let cell = UCell::X(x.clone());
            let (a, b2) = machine.pair_mut(t1, t2);
            a.write_fwd(cell.clone())?;
            b2.write_fwd(cell)?;
        }
        // Section 3: the second list.
        for (j, y) in inst.ys.iter().enumerate() {
            if let (Some((_, b)), Some(target)) = (bit_check, held_pi) {
                if j == target && held_bit != Some(bit_at(y, b)) {
                    ok = false; // the checked bit differs
                }
            }
            if check_sorted && c == 1 {
                if let Some(p) = &prev_y {
                    if p > y {
                        ok = false; // second list not ascending
                    }
                }
                prev_y = Some(y.clone());
            }
            let cell = UCell::Y(y.clone());
            let (a, b2) = machine.pair_mut(t1, t2);
            a.write_fwd(cell.clone())?;
            b2.write_fwd(cell)?;
        }
    }

    // ---- Backward sweep: all copies identical, first copy = input. ----
    {
        let total = copies * cells_per_copy;
        let (a, b) = machine.pair_mut(t1, t2);
        // Offset tape 2's head one copy earlier; the leftward seek and the
        // subsequent leftward reads form one sustained sweep (1 reversal).
        if total > 0 {
            a.seek(total)?;
            a.move_left()?;
            b.seek(total.saturating_sub(cells_per_copy))?;
            if !b.at_start() {
                b.move_left()?;
            }
            // Compare tape1[p] with tape2[p − 3m] for p ≥ 3m.
            for p in (0..total).rev() {
                let ca = a.read_bwd().ok_or_else(|| {
                    StError::Machine("backward sweep ran past the cells written forward".into())
                })?;
                if p >= cells_per_copy {
                    let cb = b.read_bwd().ok_or_else(|| {
                        StError::Machine("offset copy ended before the backward sweep".into())
                    })?;
                    if ca != cb {
                        ok = false;
                    }
                } else {
                    // First copy: compare against the actual input.
                    let expect = if p < m {
                        UCell::Pi(pi[p] + 1)
                    } else if p < 2 * m {
                        UCell::X(inst.xs[p - m].clone())
                    } else {
                        UCell::Y(inst.ys[p - 2 * m].clone())
                    };
                    if ca != expect {
                        ok = false;
                    }
                }
            }
        }
    }

    // Finally the certificate must actually assert equality: every bit
    // check passed means v_j and v′_{π(j)} agree on every bit position —
    // plus equal lengths, which the bit checks cover via Option equality
    // only up to n_max; a length mismatch where both bits are absent needs
    // the explicit length comparison the paper folds into padding:
    for (j, &pj) in pi.iter().enumerate() {
        if pj < m && inst.xs[j].len() != inst.ys[pj].len() {
            ok = false;
        }
    }

    Ok(VerifierRun {
        accepted: ok,
        usage: machine.usage(),
        copies,
    })
}

/// The NST acceptance condition: does *some* certificate make the
/// verifier accept? Exhaustive over all `m!` permutations; guarded to
/// `m ≤ 7` (5040 verifier runs), each traced on `tracer`.
pub fn exists_certificate(
    inst: &Instance,
    check_sorted: bool,
    tracer: &Tracer,
) -> Result<bool, StError> {
    let m = inst.m();
    if m > 7 {
        return Err(StError::Precondition(format!(
            "exhaustive certificate search is limited to m ≤ 7, got {m}"
        )));
    }
    let mut perm: Vec<usize> = (0..m).collect();
    loop {
        if verify_multiset_certificate(inst, &perm, check_sorted, tracer)?.accepted {
            return Ok(true);
        }
        if !next_permutation(&mut perm) {
            return Ok(false);
        }
    }
}

/// In-place next lexicographic permutation; `false` when wrapped.
fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_problems::perm::{inverse, phi};
    use st_problems::predicates;

    fn inst(word: &str) -> Instance {
        Instance::parse(word).unwrap()
    }

    #[test]
    fn correct_certificate_accepts() {
        // ys is xs reversed: π(i) = m − i + 1.
        let i = inst("00#01#10#10#01#00#");
        let pi = vec![2usize, 1, 0];
        let run = verify_multiset_certificate(&i, &pi, false, &Tracer::disabled()).unwrap();
        assert!(run.accepted);
    }

    #[test]
    fn wrong_certificate_rejects() {
        let i = inst("00#01#10#10#01#00#");
        let id = vec![0usize, 1, 2];
        assert!(
            !verify_multiset_certificate(&i, &id, false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn non_permutation_certificates_reject() {
        let i = inst("0#0#0#0#");
        // All-same values: any *permutation* works, but a non-injective
        // map must be caught by the injectivity copies.
        assert!(
            verify_multiset_certificate(&i, &[0, 1], false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
        assert!(
            !verify_multiset_certificate(&i, &[0, 0], false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
        assert!(
            !verify_multiset_certificate(&i, &[0, 5], false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn three_scans_two_tapes() {
        let i = inst("00#01#10#10#01#00#");
        let run = verify_multiset_certificate(&i, &[2, 1, 0], false, &Tracer::disabled()).unwrap();
        assert_eq!(run.usage.external_tapes, 2);
        assert_eq!(run.usage.scans(), 3, "{:?}", run.usage);
        // ℓ = m·n + m = 3·2 + 3 = 9 copies.
        assert_eq!(run.copies, 9);
    }

    #[test]
    fn exists_certificate_matches_multiset_reference() {
        for word in [
            "",
            "0#0#",
            "0#1#1#0#",
            "0#0#1#0#1#1#",
            "01#10#11#11#01#10#",
            "01#01#10#01#10#10#",
            "01#10#01#10#",
        ] {
            let i = inst(word);
            assert_eq!(
                exists_certificate(&i, false, &Tracer::disabled()).unwrap(),
                predicates::is_multiset_equal(&i),
                "{word}"
            );
        }
    }

    #[test]
    fn exists_certificate_with_sortedness_matches_checksort() {
        for word in [
            "10#01#11#01#10#11#",
            "10#01#11#01#11#10#",
            "1#0#1#0#1#1#",
            "1#0#1#0#1#0#",
            "",
        ] {
            let i = inst(word);
            assert_eq!(
                exists_certificate(&i, true, &Tracer::disabled()).unwrap(),
                predicates::is_check_sorted(&i),
                "{word}"
            );
        }
    }

    #[test]
    fn length_mismatches_are_caught() {
        // v = "0", v' = "00": every defined bit position matches but the
        // lengths differ.
        let i = inst("0#00#");
        assert!(
            !verify_multiset_certificate(&i, &[0], false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn bit_reversal_certificate_on_checkphi_instances() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let fam = st_problems::checkphi::CheckPhi::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(60);
        let i = fam.yes_instance(&mut rng);
        // x_i = y_{φ(i)}: the correct certificate is φ itself (0-based).
        let pi = phi(4);
        assert!(
            verify_multiset_certificate(&i, &pi, false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
        // And, φ being an involution, so is its inverse.
        assert!(
            verify_multiset_certificate(&i, &inverse(&pi), false, &Tracer::disabled())
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn exhaustive_search_guard() {
        let i = Instance::new(
            vec![BitStr::parse("0").unwrap(); 8],
            vec![BitStr::parse("0").unwrap(); 8],
        )
        .unwrap();
        assert!(exists_certificate(&i, false, &Tracer::disabled()).is_err());
    }

    #[test]
    fn next_permutation_enumerates_all() {
        let mut p = vec![0usize, 1, 2];
        let mut count = 1;
        while next_permutation(&mut p) {
            count += 1;
        }
        assert_eq!(count, 6);
        assert_eq!(p, vec![2, 1, 0]);
    }
}
