//! Shared integer and statistical helpers.
//!
//! * exact integer logs and roots used by the parameter calculators;
//! * deterministic Miller–Rabin primality for `u64` (the fingerprinting
//!   algorithm of Theorem 8(a) samples random primes `p₁ ≤ k` and needs a
//!   Bertrand prime `3k < p₂ ≤ 6k`);
//! * modular arithmetic that cannot overflow (`u128` intermediates);
//! * least-squares fits against `log₂ N` used by the experiment harness to
//!   verify the Θ(log N) *shape* of reversal counts.

/// `⌈log₂ x⌉` for `x ≥ 1`; `0` for `x ≤ 1`.
#[must_use]
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// `⌊log₂ x⌋` for `x ≥ 1`. Panics on `x = 0`.
#[must_use]
pub fn floor_log2(x: u64) -> u32 {
    assert!(x > 0, "floor_log2(0) is undefined");
    63 - x.leading_zeros()
}

/// The paper's `loġ x` ("dot-log"): `max(1, ⌈log₂ x⌉)`, so that the
/// fingerprint modulus `k = m³ · n · loġ(m³ n)` is never zero.
#[must_use]
pub fn dot_log2(x: u64) -> u64 {
    u64::from(ceil_log2(x)).max(1)
}

/// Largest `y` with `y⁴ ≤ x` (integer fourth root).
#[must_use]
pub fn fourth_root(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut y = (x as f64).powf(0.25) as u64;
    // Fix up floating error in both directions.
    while y.checked_pow(4).is_none_or(|p| p > x) {
        y -= 1;
    }
    while (y + 1).checked_pow(4).is_some_and(|p| p <= x) {
        y += 1;
    }
    y
}

/// Largest `y` with `y² ≤ x` (integer square root).
#[must_use]
pub fn isqrt(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut y = (x as f64).sqrt() as u64;
    while y.checked_mul(y).is_none_or(|p| p > x) {
        y -= 1;
    }
    while (y + 1).checked_mul(y + 1).is_some_and(|p| p <= x) {
        y += 1;
    }
    y
}

/// `(a + b) mod m` without overflow.
#[must_use]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 + b as u128) % m as u128) as u64
}

/// `(a + b) mod m` for already reduced `a, b < m`: one add and a
/// conditional subtract instead of a division.
#[inline]
#[must_use]
pub fn add_mod_reduced(a: u64, b: u64, m: u64) -> u64 {
    let (sum, carry) = a.overflowing_add(b);
    let (reduced, borrow) = sum.overflowing_sub(m);
    if carry | !borrow {
        reduced
    } else {
        sum
    }
}

/// `(a · b) mod m` without overflow.
#[must_use]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `a^e mod m` by square-and-multiply. `m = 1` yields 0.
///
/// Odd moduli go through [`MontModulus`]: every ladder step is
/// 64×64→128 multiplies and a shift instead of a 128-bit division.
/// Even moduli use the plain `u128` ladder.
#[must_use]
pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    if m & 1 == 1 {
        let mont = MontModulus::new(m);
        return mont.from_mont(mont.pow(mont.to_mont(a), e));
    }
    let mut acc: u64 = 1;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    acc
}

/// Montgomery arithmetic modulo one odd `m`, with `R = 2⁶⁴`.
///
/// `−m⁻¹ mod 2⁶⁴` and `R² mod m` are computed once in
/// [`MontModulus::new`]; afterwards a modular multiply is two
/// 64×64→128 multiplies, an add and a shift, with no division. Values
/// in Montgomery form are `a·R mod m`: convert in with
/// [`MontModulus::to_mont`], out with [`MontModulus::from_mont`].
/// Sums of Montgomery forms are the Montgomery form of the sum, so an
/// accumulator can stay in Montgomery form until it is read.
///
/// # Lazy reduction
///
/// REDC of `t < m·2⁶⁴` is below `2m`, and its last step is a
/// conditional subtraction of `m`. For `m < 2⁶²` the ladders of
/// [`MontModulus::pow`] and [`MontModulus::pow_pair`] skip it: with
/// operands below `2m` and `4m ≤ 2⁶⁴`, every product is below
/// `4m² ≤ m·2⁶⁴`, so its REDC is below `2m` again and the sum inside
/// REDC cannot carry. A power is brought into `[0, m)` once, at the
/// end. From `2⁶²` on that bound fails, and the ladders take the strict
/// REDC, which is also what every other method uses. [`MontModulus::new`]
/// picks the mode from `m`; every method returns values below `m` in
/// both.
#[derive(Debug, Clone, Copy)]
pub struct MontModulus {
    m: u64,
    neg_inv: u64,
    r2: u64,
    one: u64,
    /// `m < 2⁶²`: the ladders reduce lazily.
    lazy: bool,
}

impl MontModulus {
    /// Moduli below this bound reduce lazily inside the ladders.
    const LAZY_BELOW: u64 = 1 << 62;

    /// The constants for odd `m`. Panics if `m` is even.
    #[must_use]
    pub fn new(m: u64) -> Self {
        assert!(
            m & 1 == 1,
            "Montgomery arithmetic needs an odd modulus, got {m}"
        );
        // m⁻¹ mod 2⁶⁴ by Newton iteration: m·m ≡ 1 (mod 8) seeds three
        // correct bits and five steps double them past 64.
        let mut inv: u64 = m;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        let r1 = ((u128::from(u64::MAX) + 1) % u128::from(m)) as u64;
        let r2 = mul_mod(r1, r1, m);
        MontModulus {
            m,
            neg_inv: inv.wrapping_neg(),
            r2,
            one: r1,
            lazy: m < Self::LAZY_BELOW,
        }
    }

    /// Montgomery REDC: `t · 2⁻⁶⁴ mod m` for `t < m · 2⁶⁴`. `LAZY`
    /// returns it in `[0, 2m)` and is only exact for `m < 2⁶²` (see
    /// the [type docs](Self#lazy-reduction)); strict returns `[0, m)`.
    #[inline]
    fn redc<const LAZY: bool>(&self, t: u128) -> u64 {
        let q = (t as u64).wrapping_mul(self.neg_inv);
        let (sum, carry) = t.overflowing_add(u128::from(q) * u128::from(self.m));
        let hi = (sum >> 64) as u64;
        if LAZY {
            return hi;
        }
        // The true value is hi + carry·2⁶⁴ and is < 2m; a carry implies
        // m > 2⁶³, so the wrapping subtraction lands back in [0, m).
        let (reduced, borrow) = hi.overflowing_sub(self.m);
        if carry | !borrow {
            reduced
        } else {
            hi
        }
    }

    /// `a · R mod m`, the Montgomery form of any `a` (also `a ≥ m`).
    #[inline]
    #[must_use]
    pub fn to_mont(&self, a: u64) -> u64 {
        self.redc::<false>(u128::from(a) * u128::from(self.r2))
    }

    /// The plain value of Montgomery-form `a`.
    #[inline]
    #[must_use]
    pub fn from_mont(&self, a: u64) -> u64 {
        self.redc::<false>(u128::from(a))
    }

    /// Product of two Montgomery-form values `< m`, in Montgomery form.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc::<false>(u128::from(a) * u128::from(b))
    }

    /// `(a + b) mod m` for `a, b < m` (either form), without a division.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        add_mod_reduced(a, b, self.m)
    }

    /// `base^e` for Montgomery-form `base < m`, in Montgomery form.
    #[must_use]
    pub fn pow(&self, base: u64, e: u64) -> u64 {
        if self.lazy {
            self.ladder::<true, 1>([base], [e])
        } else {
            self.ladder::<false, 1>([base], [e])
        }
    }

    /// `a^ea · b^eb` for Montgomery-form `a, b < m`, in Montgomery form.
    ///
    /// One loop over the longer exponent with two independent squaring
    /// chains, so each step waits on one multiply latency instead of
    /// two ladders' worth: splitting `e = lo + 2ʰ·hi` and passing
    /// `b = a^(2ʰ)` computes `a^e` in about half the dependent steps.
    #[must_use]
    pub fn pow_pair(&self, a: u64, ea: u64, b: u64, eb: u64) -> u64 {
        if self.lazy {
            self.ladder::<true, 2>([a, b], [ea, eb])
        } else {
            self.ladder::<false, 2>([a, b], [ea, eb])
        }
    }

    /// The one ladder body: `Π bases[i]^exps[i]`, in Montgomery form
    /// and below `m`.
    ///
    /// The ladder multiplies on every exponent bit and keeps the product
    /// through a mask, so the bits of an exponent never steer a branch:
    /// the exponents of a fingerprint scan are random, and a branch on
    /// each bit would mispredict about half the time. Under `LAZY` every
    /// register stays in `[0, 2m)` and only the result is normalized.
    #[inline]
    fn ladder<const LAZY: bool, const N: usize>(
        &self,
        mut bases: [u64; N],
        mut exps: [u64; N],
    ) -> u64 {
        let mut accs = [self.one; N];
        while exps.iter().fold(0, |any, &e| any | e) != 0 {
            for i in 0..N {
                let product = self.redc::<LAZY>(u128::from(accs[i]) * u128::from(bases[i]));
                let keep = (exps[i] & 1).wrapping_neg();
                accs[i] = (product & keep) | (accs[i] & !keep);
                bases[i] = self.redc::<LAZY>(u128::from(bases[i]) * u128::from(bases[i]));
                exps[i] >>= 1;
            }
        }
        let acc = accs[1..].iter().fold(accs[0], |acc, &a| {
            self.redc::<LAZY>(u128::from(acc) * u128::from(a))
        });
        if LAZY && acc >= self.m {
            acc - self.m
        } else {
            acc
        }
    }
}

/// Deterministic Miller–Rabin for `u64`.
///
/// Uses the base set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`, which
/// is known to be exact for all `n < 3.3 · 10^24` — far beyond `u64`.
#[must_use]
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d · 2^s with d odd.
    let mut d = n - 1;
    let s = d.trailing_zeros();
    d >>= s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Smallest prime `> n` (Bertrand's postulate guarantees one `≤ 2n` for
/// `n ≥ 1`; the paper uses it to pick `p₂` with `3k < p₂ ≤ 6k`).
#[must_use]
pub fn next_prime(n: u64) -> u64 {
    let mut c = n + 1;
    if c <= 2 {
        return 2;
    }
    if c.is_multiple_of(2) {
        c += 1;
    }
    while !is_prime(c) {
        c += 2;
    }
    c
}

/// Least-squares fit `y ≈ a·x + b`; returns `(a, b, r²)`.
///
/// The experiment harness fits reversal counts against `x = log₂ N` to
/// verify the Θ(log N) shape of Corollary 7 / Theorem 11 measurements.
#[must_use]
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, points.first().map_or(0.0, |p| p.1), 1.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (0.0, sy / n, 0.0);
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a * p.0 + b)).powi(2)).sum();
    let r2 = if ss_tot < f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

/// Fit `y` against `log₂ N` for `(N, y)` samples; returns `(slope,
/// intercept, r²)`. A near-1 `r²` with positive slope certifies a
/// logarithmic growth shape.
#[must_use]
pub fn log_fit(points: &[(usize, f64)]) -> (f64, f64, f64) {
    let xs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, y)| ((n.max(2) as f64).log2(), y))
        .collect();
    linear_fit(&xs)
}

/// Wilson score interval (95%) for a Bernoulli proportion from `successes`
/// out of `trials`. Returns `(low, high)`. Used to report Monte-Carlo
/// acceptance-probability estimates with honest uncertainty.
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((center - margin) / denom).max(0.0),
        ((center + margin) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference ladder, always via `u128` division.
    fn slow_pow(mut a: u64, mut e: u64, m: u64) -> u64 {
        let mut acc = 1 % m;
        a %= m;
        while e > 0 {
            if e & 1 == 1 {
                acc = mul_mod(acc, a, m);
            }
            a = mul_mod(a, a, m);
            e >>= 1;
        }
        acc
    }

    /// xorshift: a cheap deterministic operand stream.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Odd moduli from 3 to `u64::MAX`: on both sides of 2⁶², where the
    /// ladders switch from lazy to strict REDC (the largest prime below
    /// it, and 2⁶² + 1), and of 2⁶³, above which REDC's carry path fires.
    const ODD_MODULI: [u64; 15] = [
        3,
        5,
        7,
        97,
        65_537,
        1_000_000_007,
        (1 << 57) - 13,
        (1 << 61) - 1,
        LARGEST_PRIME_BELOW_2_62,
        (1 << 62) + 1,
        (1 << 63) - 1,
        (1 << 63) + 29,
        u64::MAX - 58,
        u64::MAX - 2,
        u64::MAX,
    ];

    /// `2⁶² − 57`, the largest modulus the lazy ladders see in a prime
    /// field.
    const LARGEST_PRIME_BELOW_2_62: u64 = (1 << 62) - 57;

    #[test]
    fn lazy_reduction_covers_exactly_the_moduli_below_2_62() {
        assert!(is_prime(LARGEST_PRIME_BELOW_2_62));
        assert!(((LARGEST_PRIME_BELOW_2_62 + 2)..(1 << 62)).all(|n| !is_prime(n)));
        for &m in &ODD_MODULI {
            assert_eq!(MontModulus::new(m).lazy, m < 1 << 62, "m={m}");
        }
        assert!(MontModulus::new((1 << 62) - 1).lazy);
    }

    #[test]
    fn mont_modulus_matches_u128_arithmetic() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for &m in &ODD_MODULI {
            let mont = MontModulus::new(m);
            assert_eq!(mont.from_mont(mont.to_mont(1)), 1, "m={m}");
            for _ in 0..64 {
                // Raw operands reach far above m: to_mont reduces them.
                let (a, b) = (xorshift(&mut x), xorshift(&mut x));
                let (am, bm) = (mont.to_mont(a), mont.to_mont(b));
                assert!(am < m && bm < m, "m={m}");
                assert_eq!(mont.from_mont(am), a % m, "a={a} m={m}");
                assert_eq!(mont.from_mont(mont.mul(am, bm)), mul_mod(a, b, m));
                assert_eq!(
                    mont.add(a % m, b % m),
                    add_mod(a, b, m),
                    "a={a} b={b} m={m}"
                );
                assert_eq!(mont.from_mont(mont.add(am, bm)), add_mod(a, b, m));
            }
            // The largest residues: sums that carry out of u64 when m > 2⁶³.
            assert_eq!(mont.add(m - 1, m - 1), add_mod(m - 1, m - 1, m));
            assert_eq!(
                mont.from_mont(mont.mul(mont.to_mont(m - 1), mont.to_mont(m - 1))),
                1 % m
            );
        }
    }

    #[test]
    fn montgomery_pow_matches_the_plain_ladder() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for &m in &ODD_MODULI {
            let mont = MontModulus::new(m);
            for e in [0u64, 1, 2, 3, 63, 64, 65, 1 << 20, (1 << 57) - 1, u64::MAX] {
                for a in [
                    0,
                    1,
                    m - 1,
                    m,
                    m.wrapping_add(1),
                    u64::MAX,
                    xorshift(&mut x),
                ] {
                    // from_mont reduces any input, so check the
                    // Montgomery-form result is normalized on its own.
                    let power = mont.pow(mont.to_mont(a), e);
                    assert!(power < m, "a={a} e={e} m={m}");
                    let got = mont.from_mont(power);
                    assert_eq!(got, slow_pow(a, e, m), "a={a} e={e} m={m}");
                }
            }
        }
    }

    #[test]
    fn two_base_power_matches_two_plain_ladders() {
        let mut x = 0x4528_21E6_38D0_1377u64;
        let exps = [0u64, 1, 2, 63, 64, (1 << 29) - 1, 1 << 32, u64::MAX];
        for &m in &ODD_MODULI {
            let mont = MontModulus::new(m);
            for &ea in &exps {
                for &eb in &exps {
                    for (a, b) in [
                        (0, 1),
                        (m - 1, m - 1),
                        (u64::MAX, m),
                        (xorshift(&mut x), xorshift(&mut x)),
                    ] {
                        let got = mont.pow_pair(mont.to_mont(a), ea, mont.to_mont(b), eb);
                        assert!(got < m, "a={a} ea={ea} b={b} eb={eb} m={m}");
                        let want = mul_mod(slow_pow(a, ea, m), slow_pow(b, eb, m), m);
                        assert_eq!(
                            mont.from_mont(got),
                            want,
                            "a={a} ea={ea} b={b} eb={eb} m={m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn split_exponent_power_equals_the_single_ladder() {
        // a^e = a^(e mod 2ʰ) · (a^(2ʰ))^(e >> h), the residue fold's
        // split, for every h the fold can pick.
        let mut x = 0x1319_8A2E_0370_7344u64;
        for &m in &ODD_MODULI {
            let mont = MontModulus::new(m);
            for h in 1..=32u32 {
                let a = mont.to_mont(xorshift(&mut x));
                let y = mont.pow(a, 1 << h);
                for e in [0, 1, (1 << h) - 1, 1 << h, xorshift(&mut x), u64::MAX] {
                    let split = mont.pow_pair(a, e & ((1 << h) - 1), y, e >> h);
                    assert_eq!(split, mont.pow(a, e), "e={e} h={h} m={m}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn mont_modulus_rejects_even_moduli() {
        let _ = MontModulus::new(1 << 40);
    }

    #[test]
    fn pow_mod_keeps_even_and_unit_moduli() {
        let mut x = 0x1357_9BDF_2468_ACE0u64;
        for m in [2u64, 4, 6, 1 << 40, u64::MAX - 1] {
            for e in [0u64, 1, 2, 63, 64, 1 << 20, u64::MAX] {
                let a = xorshift(&mut x);
                assert_eq!(pow_mod(a, e, m), slow_pow(a, e, m), "a={a} e={e} m={m}");
            }
        }
        for e in [0u64, 1, 117, u64::MAX] {
            assert_eq!(pow_mod(5, e, 1), 0, "e={e}");
        }
    }

    #[test]
    fn logs() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(1023), 9);
        assert_eq!(floor_log2(1024), 10);
        assert_eq!(dot_log2(1), 1);
        assert_eq!(dot_log2(9), 4);
    }

    #[test]
    fn roots() {
        assert_eq!(fourth_root(0), 0);
        assert_eq!(fourth_root(15), 1);
        assert_eq!(fourth_root(16), 2);
        assert_eq!(fourth_root(u64::MAX), 65535);
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(35), 5);
        assert_eq!(isqrt(36), 6);
        assert_eq!(isqrt(u64::MAX), u32::MAX as u64);
    }

    #[test]
    fn modular_arithmetic_no_overflow() {
        let m = u64::MAX - 58; // large prime-ish modulus
        assert_eq!(add_mod(m - 1, m - 1, m), m - 2);
        assert_eq!(mul_mod(u64::MAX - 1, u64::MAX - 1, 97), {
            let a = ((u64::MAX - 1) % 97) as u128;
            ((a * a) % 97) as u64
        });
        assert_eq!(pow_mod(2, 10, 1000), 24);
        assert_eq!(pow_mod(7, 0, 13), 1);
        assert_eq!(pow_mod(5, 117, 1), 0);
    }

    #[test]
    fn primality_small_table() {
        let primes: Vec<u64> = (0..60u64).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        );
    }

    #[test]
    fn primality_large_known_values() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1, Mersenne
        assert!(is_prime(1_000_000_007));
        assert!(!is_prime(1_000_000_007u64 * 3));
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(18_446_744_073_709_551_615)); // u64::MAX = 3·5·17·257·641·65537·6700417
    }

    #[test]
    fn next_prime_respects_bertrand() {
        for n in [1u64, 2, 10, 100, 1000, 1 << 20] {
            let p = next_prime(n);
            assert!(
                p > n && p <= 2 * n.max(1) + 2,
                "Bertrand violated at {n}: {p}"
            );
            assert!(is_prime(p));
        }
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|x| (x as f64, 3.0 * x as f64 + 2.0)).collect();
        let (a, b, r2) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_fit_detects_logarithmic_growth() {
        // y = 4·log2(N) + 7 exactly.
        let pts: Vec<(usize, f64)> = (4..=20)
            .map(|k| (1usize << k, 4.0 * k as f64 + 7.0))
            .collect();
        let (a, b, r2) = log_fit(&pts);
        assert!((a - 4.0).abs() < 1e-9, "slope {a}");
        assert!((b - 7.0).abs() < 1e-6);
        assert!(r2 > 0.999999);
    }

    #[test]
    fn wilson_interval_contains_true_p() {
        let (lo, hi) = wilson_interval(500, 1000);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.07, "interval too wide: [{lo}, {hi}]");
        let (lo, hi) = wilson_interval(0, 0);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, _) = wilson_interval(1000, 1000);
        assert!(lo > 0.99);
    }
}
