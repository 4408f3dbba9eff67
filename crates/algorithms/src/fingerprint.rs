//! Theorem 8(a): MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1).
//!
//! The algorithm, exactly as in the paper:
//!
//! 1. one forward scan determines `n`, `m`, `N`;
//! 2. choose a prime `p₁ ≤ k := m³·n·loġ(m³·n)` uniformly at random;
//! 3. choose a prime `p₂` with `3k < p₂ ≤ 6k` (Bertrand);
//! 4. choose `x ∈ {1,…,p₂−1}` uniformly;
//! 5. compute `eᵢ = vᵢ mod p₁`, `e′ᵢ = v′ᵢ mod p₁` and accept iff
//!    `Σ x^{eᵢ} ≡ Σ x^{e′ᵢ} (mod p₂)`.
//!
//! Step 5 runs as a single **backward** scan: reading each value
//! LSB-first lets `vᵢ mod p₁` accumulate with a running power of two, and
//! the two sums are order-insensitive, so one forward plus one backward
//! scan — two sequential scans, one head reversal, one external tape —
//! suffices. Internal state is a fixed set of `O(log N)`-bit registers,
//! charged to the memory meter.
//!
//! # The residue-fold kernel
//!
//! [`ResidueFold`] is the one implementation of step 5. The incremental
//! [`FingerprintStepper`] (and so the batch decider) and `st-mpc`'s
//! fingerprint worker both hand it tape slices from their backward
//! scans. It is word-parallel, and its per-cell cost is a constant
//! factor below the per-bit recurrence it computes exactly:
//!
//! * *`e = v mod p₁`:* the bits between two `#`s are taken from the
//!   right in groups of up to 64, packed eight bytes per multiply
//!   ([`st_problems::bitstr::pack_bits`]). A group of `t` bits with
//!   value `g` costs `e += g·pow2` and `pow2 ·= 2ᵗ`: two `u128`
//!   reductions per group, where the per-bit loop needs one or two per
//!   bit. Plain `u128`
//!   arithmetic is right for every `p₁`, `p₁ = 2` included.
//! * *`x^e mod p₂`:* one [`MontModulus`] ladder per value. `p₂` is odd,
//!   its Montgomery constants and `x`'s Montgomery form are computed
//!   once per run, and the two sums stay in Montgomery form until
//!   [`ResidueFold::finish`].
//! * *Scanning:* a slice is validated by one branch-free fold, and `#`
//!   is found eight bytes at a time, by the word scanners of
//!   [`st_problems::instance`] that the instance parser uses too.
//!
//! The kernel holds only the charged registers (`e`, `pow2`, the `#`
//! counter, the two sums) plus constants derived from `p₁`, `p₂` and
//! `x`. It deliberately keeps no table of powers of `x`: a fixed-base or
//! windowed table would be an uncharged register file, or `Θ(log² N)`
//! bits, and the run would no longer be the `O(log N)`-space machine the
//! theorem describes.
//!
//! Correctness (paper, Claim 1 + polynomial identity testing): if the
//! multisets are equal the test **always** accepts; if they differ it
//! accepts with probability `≤ ⅓ + O(1/m)` — a one-sided error on the
//! *positive* side, i.e. the `co-RST` error model.

use crate::stepper::{drive_to_verdict, FingerprintStepper, Stepper};
use rand::Rng;
use st_core::math::{add_mod, add_mod_reduced, is_prime, mul_mod, next_prime, MontModulus};
use st_core::theorems::theorem8a_k;
use st_core::{ResourceUsage, StError};
use st_problems::bitstr::pack_bits;
use st_problems::instance::{first_invalid, rfind_hash};
use st_problems::Instance;

/// The sampled randomness and derived moduli of one fingerprint run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintParams {
    /// The residue modulus bound `k = m³·n·loġ(m³·n)`.
    pub k: u64,
    /// The random prime `p₁ ≤ k`.
    pub p1: u64,
    /// The fixed prime `3k < p₂ ≤ 6k`.
    pub p2: u64,
    /// The random evaluation point `x ∈ {1,…,p₂−1}`.
    pub x: u64,
}

impl FingerprintParams {
    /// `true` iff prime sampling failed (`p1 == 0`): the run must accept
    /// unconditionally so a yes-instance is never rejected.
    #[must_use]
    pub fn degenerate(&self) -> bool {
        self.p1 == 0
    }
}

/// The outcome of one fingerprint run.
#[derive(Debug, Clone)]
pub struct FingerprintRun {
    /// The verdict: `true` = "multisets equal" (may be a false positive
    /// with probability ≤ ½; never a false negative).
    pub accepted: bool,
    /// Sampled parameters.
    pub params: FingerprintParams,
    /// The two polynomial-fingerprint sums `(Σ x^{eᵢ}, Σ x^{e′ᵢ}) mod p₂`
    /// (first half, second half). The verdict is `residues.0 ==
    /// residues.1`; the distributed combiner pins its merged residues
    /// against these bit for bit.
    pub residues: (u64, u64),
    /// Tape and internal-memory accounting.
    pub usage: ResourceUsage,
}

/// Encode an instance as the input-tape symbol sequence (bytes over
/// `b"01#"`).
#[must_use]
pub fn tape_encoding(inst: &Instance) -> Vec<u8> {
    inst.encode_bytes()
}

/// Sample a uniform prime `≤ k` by rejection; `None` after `tries`
/// failures (probability `e^{-Ω(tries/ln k)}` — negligible at the default).
/// Shared with the resilient layer, which samples fresh verification
/// primes per attempt.
pub(crate) fn sample_prime<R: Rng>(k: u64, tries: u32, rng: &mut R) -> Option<u64> {
    for _ in 0..tries {
        let c = rng.gen_range(2..=k.max(2));
        if is_prime(c) {
            return Some(c);
        }
    }
    None
}

/// Sample the full Theorem 8(a) parameter tuple for an instance with `m`
/// value pairs and maximum value length `n_max`, drawing from `rng` in
/// **exactly** the sequence the decider does (one prime rejection walk,
/// then one `gen_range` for `x`). This is the single source of truth
/// shared by the batch decider, the incremental stepper, and the `st-mpc`
/// sharded decider — same seed in, bit-identical parameters out.
///
/// `m == 0` fixes the degenerate-but-valid tuple `{k:2, p1:2, p2:7, x:1}`
/// without touching `rng`; a prime-sampling failure returns a
/// [degenerate](FingerprintParams::degenerate) tuple (`p1 == 0`) telling
/// the caller to accept unconditionally.
///
/// Errors with [`StError::Precondition`] when `k` or the Bertrand bound
/// `6k` overflows `u64` (for example at `m = 2¹⁶, n = 511`), before
/// drawing from `rng`.
pub fn sample_params<R: Rng>(
    m: u64,
    n_max: u64,
    rng: &mut R,
) -> Result<FingerprintParams, StError> {
    if m == 0 {
        return Ok(FingerprintParams {
            k: 2,
            p1: 2,
            p2: 7,
            x: 1,
        });
    }
    let k = theorem8a_k(m, n_max.max(1))?;
    // p₂ ≤ 6k by Bertrand, so a 6k that fits keeps next_prime(3k) and the
    // callers' 7·bits_for(6k) register charge in range.
    if k.checked_mul(6).is_none() {
        return Err(StError::Precondition(format!(
            "Bertrand bound 6k overflows u64 for k={k} (m={m}, n={n_max})"
        )));
    }
    let Some(p1) = sample_prime(k, 4096, rng) else {
        return Ok(FingerprintParams {
            k,
            p1: 0,
            p2: 0,
            x: 0,
        });
    };
    let p2 = next_prime(3 * k);
    let x = rng.gen_range(1..p2);
    Ok(FingerprintParams { k, p1, p2, x })
}

/// Run the Theorem 8(a) decider on `inst` with randomness from `rng`.
///
/// Errors only on parameter overflow (`k` or `6k` beyond `u64`, see
/// [`sample_params`]); never on instance content.
///
/// ```
/// use rand::SeedableRng;
/// use st_algo::fingerprint::decide_multiset_equality;
/// use st_problems::Instance;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let yes = Instance::parse("01#10#10#01#")?;
/// let run = decide_multiset_equality(&yes, &mut rng)?;
/// assert!(run.accepted);                 // never a false negative
/// assert_eq!(run.usage.scans(), 2);      // co-RST(2, O(log N), 1)
/// assert_eq!(run.usage.external_tapes, 1);
/// # Ok::<(), st_core::StError>(())
/// ```
pub fn decide_multiset_equality<R: Rng>(
    inst: &Instance,
    rng: &mut R,
) -> Result<FingerprintRun, StError> {
    // The batch entry point drives the resumable stepper with an
    // unlimited budget, so batch and incremental runs are the same code
    // path and account identically.
    let mut stepper = FingerprintStepper::new(&mut *rng);
    let _ = stepper.feed_owned(tape_encoding(inst))?;
    stepper.finish()?;
    let run = drive_to_verdict(&mut stepper)?;
    let params = stepper
        .params()
        .ok_or_else(|| StError::Machine("finished fingerprint run has no parameters".into()))?;
    let residues = stepper
        .residues()
        .ok_or_else(|| StError::Machine("finished fingerprint run has no residues".into()))?;
    Ok(FingerprintRun {
        accepted: run.accepted,
        params,
        residues,
        usage: run.usage,
    })
}

/// Empirical error estimation: run the decider `trials` times on `inst`
/// and report the acceptance frequency. On a yes-instance this is exactly
/// 1 (completeness is deterministic); on a no-instance it estimates the
/// false-positive probability.
pub fn acceptance_frequency<R: Rng>(
    inst: &Instance,
    trials: u32,
    rng: &mut R,
) -> Result<f64, StError> {
    let mut acc = 0u32;
    for _ in 0..trials {
        if decide_multiset_equality(inst, rng)?.accepted {
            acc += 1;
        }
    }
    Ok(f64::from(acc) / f64::from(trials))
}

/// Claim 1 measurement support: the probability that two *distinct*
/// values collide modulo a random prime `p ≤ k`. Returns the collision
/// indicator for one sampled prime.
pub fn residues_collide<R: Rng>(v: u128, w: u128, k: u64, rng: &mut R) -> bool {
    let p = sample_prime(k, 4096, rng).unwrap_or(2);
    (v % u128::from(p)) == (w % u128::from(p))
}

/// Expose the second-scan residue computation for testing: `v mod p`
/// computed LSB-first from a bit iterator, exactly as the backward scan
/// does.
#[must_use]
pub fn lsb_first_mod(bits_lsb_first: &[u8], p: u64) -> u64 {
    let mut e = 0u64;
    let mut pow2 = 1u64;
    for &b in bits_lsb_first {
        if b == 1 {
            e = add_mod(e, pow2, p);
        }
        pow2 = mul_mod(pow2, 2, p);
    }
    e
}

/// The error for a byte outside the tape alphabet.
pub(crate) fn unexpected_symbol(b: u8) -> StError {
    StError::InvalidInstance(format!("unexpected tape symbol {:?}", b as char))
}

/// Step 5 of Theorem 8(a), the backward fold, as one word-parallel
/// kernel (see the [module docs](self#the-residue-fold-kernel)).
///
/// A word `v₁#v₂#…#v₂ₘ#` is handed over as consecutive tape slices from
/// right to left, the way the backward scan reads it. Every `#` but the
/// rightmost ends the value to its right; the leftmost value ends at
/// [`ResidueFold::finish`]. The rightmost `second_half` values fold into
/// the second sum, the rest into the first.
#[derive(Debug, Clone, Copy)]
pub struct ResidueFold {
    p1: u64,
    p2: MontModulus,
    /// `x` in Montgomery form.
    x: u64,
    second_half: u64,
    /// `v mod p₁` of the bits read so far of the current value.
    e: u64,
    /// `2^(bits read so far of the current value) mod p₁`.
    pow2: u64,
    seen_hashes: u64,
    /// The two sums, in Montgomery form until [`ResidueFold::finish`].
    sum_first: u64,
    sum_second: u64,
}

impl ResidueFold {
    /// A fold under non-[degenerate](FingerprintParams::degenerate)
    /// `params`, whose rightmost `second_half` values are the second
    /// list.
    #[must_use]
    pub fn new(params: FingerprintParams, second_half: u64) -> Self {
        let p2 = MontModulus::new(params.p2);
        ResidueFold {
            p1: params.p1,
            x: p2.to_mont(params.x),
            p2,
            second_half,
            e: 0,
            pow2: 1,
            seen_hashes: 0,
            sum_first: 0,
            sum_second: 0,
        }
    }

    /// Fold the next slice leftward, given in tape order. A slice may
    /// start or end anywhere, inside a value too. A symbol outside
    /// `{0,1,#}` is an [`StError::InvalidInstance`].
    pub fn fold(&mut self, slice: &[u8]) -> Result<(), StError> {
        if let Some(i) = first_invalid(slice) {
            return Err(unexpected_symbol(slice[i]));
        }
        let mut end = slice.len();
        loop {
            let start = rfind_hash(&slice[..end]).map_or(0, |h| h + 1);
            self.absorb_bits(&slice[start..end]);
            if start == 0 {
                return Ok(());
            }
            self.flush();
            self.seen_hashes += 1;
            self.e = 0;
            self.pow2 = 1;
            end = start - 1;
        }
    }

    /// Flush the leftmost value (no `#` precedes it) and return the sums
    /// `(Σ first, Σ second) mod p₂`.
    #[must_use]
    pub fn finish(mut self) -> (u64, u64) {
        self.flush();
        (
            self.p2.from_mont(self.sum_first),
            self.p2.from_mont(self.sum_second),
        )
    }

    /// Add `x^e` for the value just completed, if a `#` closed one.
    fn flush(&mut self) {
        if self.seen_hashes == 0 {
            return;
        }
        let term = self.p2.pow(self.x, self.e);
        let sum = if self.seen_hashes <= self.second_half {
            &mut self.sum_second
        } else {
            &mut self.sum_first
        };
        *sum = self.p2.add(*sum, term);
    }

    /// Bits of the current value in tape order, continuing leftward from
    /// the bits already folded: groups of up to 64 from the right, the
    /// rightmost bit of each group at weight `pow2`.
    fn absorb_bits(&mut self, bits: &[u8]) {
        let p1 = u128::from(self.p1);
        for group in bits.rchunks(64) {
            let term = u128::from(pack_bits(group)) * u128::from(self.pow2) % p1;
            self.e = add_mod_reduced(self.e, term as u64, self.p1);
            self.pow2 = ((u128::from(self.pow2) << group.len()) % p1) as u64;
        }
    }
}

/// Ablation baseline: the *sum-of-residues* test — accept iff
/// `Σ vᵢ ≡ Σ v′ᵢ (mod p₁)` for one random prime `p₁ ≤ k`.
///
/// Same scan structure as the paper's algorithm but **without** the
/// polynomial-identity layer (`x^{eᵢ}` over `F_{p₂}`). It is complete
/// (no false negatives) but much weaker against adversarial inputs:
/// swapping bits between two values can preserve the plain sum, which the
/// `fingerprint_ablation` bench demonstrates.
pub fn decide_sum_only<R: Rng>(inst: &Instance, rng: &mut R) -> Result<bool, StError> {
    let m = inst.m() as u64;
    if m == 0 {
        return Ok(true);
    }
    let n_max = inst
        .xs
        .iter()
        .chain(inst.ys.iter())
        .map(st_problems::BitStr::len)
        .max()
        .unwrap_or(1);
    let k = theorem8a_k(m, n_max.max(1) as u64)?;
    let p1 = sample_prime(k, 4096, rng).unwrap_or(2);
    let residue = |v: &st_problems::BitStr| -> u64 {
        // MSB-first Horner evaluation of the value modulo p₁.
        v.iter()
            .fold(0u64, |e, b| add_mod(mul_mod(e, 2, p1), u64::from(b), p1))
    };
    let sum = |vs: &[st_problems::BitStr]| vs.iter().fold(0u64, |a, v| add_mod(a, residue(v), p1));
    Ok(sum(&inst.xs) == sum(&inst.ys))
}

/// Convenience: assert the run respected the Theorem 8(a) resource class
/// `co-RST(2, O(log N), 1)` (2 scans, 1 tape); returns the violations.
#[must_use]
pub fn check_theorem8a_bounds(run: &FingerprintRun) -> Vec<st_core::Violation> {
    use st_core::{Bound, TapeCount};
    run.usage
        .check(
            &Bound::Const(2),
            // Seven O(log k) registers + three counters: generous constant.
            &Bound::Log {
                mul: 64.0,
                add: 64.0,
            },
            TapeCount::Exactly(1),
        )
        .violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::generate;

    #[test]
    fn lsb_first_mod_matches_direct_computation() {
        // v = 0b1011 = 11; bits LSB-first = [1,1,0,1].
        assert_eq!(lsb_first_mod(&[1, 1, 0, 1], 7), 11 % 7);
        assert_eq!(lsb_first_mod(&[], 7), 0);
        assert_eq!(lsb_first_mod(&[1; 20], 97), ((1u64 << 20) - 1) % 97);
    }

    #[test]
    fn never_a_false_negative() {
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..40 {
            let inst = generate::yes_multiset(12, 10, &mut rng);
            let run = decide_multiset_equality(&inst, &mut rng).unwrap();
            assert!(run.accepted, "false negative on a multiset-equal instance");
        }
    }

    #[test]
    fn false_positive_rate_at_most_half() {
        let mut rng = StdRng::seed_from_u64(31);
        let inst = generate::no_multiset_one_bit(12, 10, &mut rng);
        let freq = acceptance_frequency(&inst, 300, &mut rng).unwrap();
        assert!(freq <= 0.5, "false-positive frequency {freq} exceeds 1/2");
    }

    #[test]
    fn exactly_two_scans_one_tape() {
        let mut rng = StdRng::seed_from_u64(32);
        let inst = generate::yes_multiset(16, 12, &mut rng);
        let run = decide_multiset_equality(&inst, &mut rng).unwrap();
        assert_eq!(run.usage.scans(), 2, "{:?}", run.usage);
        assert_eq!(run.usage.external_tapes, 1);
        assert!(check_theorem8a_bounds(&run).is_empty(), "{:?}", run.usage);
    }

    #[test]
    fn internal_memory_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut points = Vec::new();
        for logm in 2..=7 {
            let m = 1usize << logm;
            let inst = generate::yes_multiset(m, 16, &mut rng);
            let run = decide_multiset_equality(&inst, &mut rng).unwrap();
            points.push((run.usage.input_len, run.usage.internal_space as f64));
        }
        let (slope, _, r2) = st_core::math::log_fit(&points);
        assert!(
            r2 > 0.8,
            "internal memory not log-shaped: r²={r2}, {points:?}"
        );
        assert!(
            slope < 80.0,
            "internal memory slope {slope} too steep for O(log N)"
        );
    }

    #[test]
    fn parameters_match_paper_formulas() {
        let mut rng = StdRng::seed_from_u64(34);
        let inst = generate::yes_multiset(4, 6, &mut rng);
        let run = decide_multiset_equality(&inst, &mut rng).unwrap();
        let k = theorem8a_k(4, 6).unwrap();
        assert_eq!(run.params.k, k);
        assert!(run.params.p1 <= k);
        assert!(is_prime(run.params.p1));
        assert!(run.params.p2 > 3 * k && run.params.p2 <= 6 * k);
        assert!(is_prime(run.params.p2));
        assert!(run.params.x >= 1 && run.params.x < run.params.p2);
    }

    #[test]
    fn parameters_past_the_bertrand_bound_are_a_precondition_error() {
        // From these (m, n) on, 6k no longer fits a u64 (k itself still
        // does), so the prime p₂ ∈ (3k, 6k] has no u64 home.
        for (m, n) in [(1u64 << 16, 511u64), (1 << 17, 32), (1 << 19, 1)] {
            let k = theorem8a_k(m, n).unwrap();
            assert!(k.checked_mul(6).is_none(), "m={m} n={n} k={k}");
            let mut rng = StdRng::seed_from_u64(40);
            match sample_params(m, n, &mut rng) {
                Err(StError::Precondition(msg)) => assert!(msg.contains("6k"), "{msg}"),
                other => panic!("m={m} n={n}: {other:?}"),
            }
        }
        // Just below: the largest power-of-two m at n = 1 still samples
        // a p₂ inside (3k, 6k].
        let mut rng = StdRng::seed_from_u64(41);
        let params = sample_params(1 << 18, 1, &mut rng).unwrap();
        assert!(params.p2 > 3 * params.k && params.p2 <= 6 * params.k);
    }

    #[test]
    fn empty_instance_accepts() {
        let mut rng = StdRng::seed_from_u64(35);
        let inst = Instance::parse("").unwrap();
        let run = decide_multiset_equality(&inst, &mut rng).unwrap();
        assert!(run.accepted);
    }

    #[test]
    fn single_pair_instances() {
        let mut rng = StdRng::seed_from_u64(36);
        let yes = Instance::parse("0101#0101#").unwrap();
        assert!(decide_multiset_equality(&yes, &mut rng).unwrap().accepted);
        let no = Instance::parse("0101#0100#").unwrap();
        let freq = acceptance_frequency(&no, 200, &mut rng).unwrap();
        assert!(freq <= 0.5);
    }

    #[test]
    fn reordering_does_not_affect_acceptance() {
        let mut rng = StdRng::seed_from_u64(37);
        // Same multiset in wildly different orders must always accept.
        let inst = Instance::parse("111#000#101#101#000#111#").unwrap();
        for _ in 0..50 {
            assert!(decide_multiset_equality(&inst, &mut rng).unwrap().accepted);
        }
    }

    #[test]
    fn detects_multiplicity_differences() {
        let mut rng = StdRng::seed_from_u64(38);
        // {a,a,b} vs {a,b,b}: sets equal, multisets differ — the case
        // separating MULTISET from SET equality.
        let inst = Instance::parse("01#01#10#01#10#10#").unwrap();
        let freq = acceptance_frequency(&inst, 300, &mut rng).unwrap();
        assert!(
            freq <= 0.5,
            "multiplicity difference accepted with frequency {freq}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::generate;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn completeness_is_deterministic(seed in 0u64..10_000, m in 1usize..20, n in 1usize..16) {
            // No false negatives, for any multiset-equal instance and any
            // randomness.
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = generate::yes_multiset(m, n, &mut rng);
            let run = decide_multiset_equality(&inst, &mut rng).unwrap();
            prop_assert!(run.accepted);
        }

        #[test]
        fn two_scans_always(seed in 0u64..10_000, m in 1usize..16, n in 1usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = generate::random_instance(m, n, &mut rng);
            let run = decide_multiset_equality(&inst, &mut rng).unwrap();
            prop_assert_eq!(run.usage.scans(), 2);
        }
    }
}
