//! The executable Lemma 21 adversary.
//!
//! Given a deterministic `(r,t)`-bounded NLM that *claims* to solve
//! CHECK-φ (accepts every yes-instance of the interval family), the
//! pipeline of Section 7 constructs a **fooling input**: a no-instance
//! the machine accepts. Steps, exactly as in the proof:
//!
//! 1. fix the choice sequence (trivial for deterministic machines; for
//!    randomized ones Lemma 26 guarantees a good sequence exists — we
//!    sample candidates);
//! 2. run the machine on sampled yes-instances and group them by
//!    **skeleton**; keep the largest group `ζ` (the pigeonhole step that
//!    Lemma 32's skeleton count makes quantitative);
//! 3. find an index `i₀` whose pair `(i₀, m+φ(i₀))` is **not compared**
//!    in `ζ` (guaranteed by the Merge Lemma / Lemma 38 when
//!    `m > t^{2r}·sortedness(φ)`);
//! 4. take two accepted inputs `v, w` from the group that differ only in
//!    coordinates `{i₀, m+φ(i₀)}`;
//! 5. splice them (Lemma 34): `u := v` with the `y`-side coordinate
//!    taken from `w` — a **no**-instance with the same skeleton, which
//!    the machine therefore also accepts.

use crate::machine::Nlm;
use crate::run::{run_with_choices, LmRun};
use crate::skeleton::{compared_pairs, skeleton_of, Skeleton};
use crate::Val;
use rand::Rng;
use st_core::StError;
use st_problems::perm::{phi, sortedness};
use st_trace::Tracer;
use std::collections::HashMap;

/// The CHECK-φ instance family over machine words: values are `n`-bit
/// integers, interval `I_j` = values whose top `log₂ m` bits spell `j`
/// (0-based here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordFamily {
    /// Number of values per list (a power of two).
    pub m: usize,
    /// Bit width of values (`log₂ m ≤ n ≤ 63`).
    pub n: u32,
}

impl WordFamily {
    /// Validate and build.
    pub fn new(m: usize, n: u32) -> Result<Self, StError> {
        if !m.is_power_of_two() {
            return Err(StError::Precondition(format!(
                "m = {m} must be a power of 2"
            )));
        }
        let logm = m.trailing_zeros();
        if n < logm || n > 63 {
            return Err(StError::Precondition(format!(
                "need log₂ m = {logm} ≤ n ≤ 63, got n = {n}"
            )));
        }
        Ok(WordFamily { m, n })
    }

    /// `log₂ m`.
    #[must_use]
    pub fn log_m(&self) -> u32 {
        self.m.trailing_zeros()
    }

    /// Sample a uniform element of interval `I_j` (0-based `j`).
    pub fn sample_interval<R: Rng>(&self, j: usize, rng: &mut R) -> Val {
        let low_bits = self.n - self.log_m();
        let prefix = (j as Val) << low_bits;
        let suffix: Val = if low_bits == 0 {
            0
        } else {
            rng.gen_range(0..(1u64 << low_bits))
        };
        prefix | suffix
    }

    /// The interval (0-based) a value belongs to.
    #[must_use]
    pub fn interval_of(&self, v: Val) -> usize {
        (v >> (self.n - self.log_m())) as usize
    }

    /// Sample a yes-instance as the flat NLM input
    /// `(x₀,…,x_{m−1}, y₀,…,y_{m−1})` with `xᵢ = y_{φ(i)}`.
    pub fn sample_yes<R: Rng>(&self, rng: &mut R) -> Vec<Val> {
        let ph = phi(self.m);
        let ys: Vec<Val> = (0..self.m).map(|j| self.sample_interval(j, rng)).collect();
        let xs: Vec<Val> = (0..self.m).map(|i| ys[ph[i]]).collect();
        xs.into_iter().chain(ys).collect()
    }

    /// The CHECK-φ predicate on a flat input.
    #[must_use]
    pub fn holds(&self, input: &[Val]) -> bool {
        let ph = phi(self.m);
        input.len() == 2 * self.m && (0..self.m).all(|i| input[i] == input[self.m + ph[i]])
    }

    /// Convert a flat NLM input to a word-level [`st_problems::Instance`]
    /// (values become `n`-bit strings), so adversary outputs can flow into
    /// the algorithm and query layers.
    pub fn to_instance(&self, input: &[Val]) -> Result<st_problems::Instance, StError> {
        if input.len() != 2 * self.m {
            return Err(StError::InvalidInstance(format!(
                "expected {} values, got {}",
                2 * self.m,
                input.len()
            )));
        }
        let bs = |v: Val| st_problems::BitStr::from_value(u128::from(v), self.n as usize);
        let xs = input[..self.m]
            .iter()
            .map(|&v| bs(v))
            .collect::<Result<Vec<_>, _>>()?;
        let ys = input[self.m..]
            .iter()
            .map(|&v| bs(v))
            .collect::<Result<Vec<_>, _>>()?;
        st_problems::Instance::new(xs, ys)
    }

    /// Convert a word-level instance back to the flat NLM input. Errors
    /// unless every value has exactly `n` bits.
    pub fn from_instance(&self, inst: &st_problems::Instance) -> Result<Vec<Val>, StError> {
        if inst.m() != self.m || !inst.uniform_length(self.n as usize) {
            return Err(StError::InvalidInstance(
                "instance shape does not match the family".into(),
            ));
        }
        inst.xs
            .iter()
            .chain(inst.ys.iter())
            .map(|v| v.to_value().map(|x| x as Val))
            .collect()
    }

    /// Structural membership in the instance space.
    #[must_use]
    pub fn in_space(&self, input: &[Val]) -> bool {
        if input.len() != 2 * self.m {
            return false;
        }
        let ph = phi(self.m);
        (0..self.m).all(|i| self.interval_of(input[i]) == ph[i])
            && (0..self.m).all(|j| self.interval_of(input[self.m + j]) == j)
    }
}

/// The adversary's product: a fooling no-instance and the evidence trail.
#[derive(Debug)]
pub struct FoolingResult {
    /// The uncompared index `i₀` (0-based).
    pub i0: usize,
    /// First accepted yes-instance.
    pub v: Vec<Val>,
    /// Second accepted yes-instance (differs from `v` exactly in
    /// coordinates `i₀` and `m+φ(i₀)`).
    pub w: Vec<Val>,
    /// The spliced **no**-instance the machine accepts.
    pub u: Vec<Val>,
    /// The machine's (accepting) run on `u`.
    pub run_u: LmRun,
    /// The pinned skeleton `ζ`.
    pub skeleton: Skeleton,
    /// Number of yes-instances sampled into the pinned skeleton group.
    pub group_size: usize,
}

/// Run the Lemma 21 pipeline against a **deterministic** NLM claiming to
/// solve CHECK-φ on `fam`'s instances. `samples` yes-instances are drawn
/// to populate the skeleton groups.
///
/// Errors if the machine breaks its contract (rejects a yes-instance),
/// if every φ-pair is compared in the pinned skeleton (machine too
/// powerful — pick a larger `m` per the Lemma 21 preconditions), or if
/// skeleton pinning fails after retries. Every run of the pipeline
/// traces on `tracer`.
pub fn find_fooling_input<R: Rng>(
    nlm: &Nlm,
    fam: &WordFamily,
    rng: &mut R,
    samples: usize,
    tracer: &Tracer,
) -> Result<FoolingResult, StError> {
    if !nlm.is_deterministic() {
        return Err(StError::Precondition(
            "the executable pipeline handles deterministic NLMs (Lemma 26 reduces the randomized case to a fixed choice sequence)"
                .into(),
        ));
    }
    if nlm.m != 2 * fam.m {
        return Err(StError::Precondition(format!(
            "machine expects {} inputs, family provides {}",
            nlm.m,
            2 * fam.m
        )));
    }
    let m = fam.m;
    let ph = phi(m);
    let max_steps = 1 << 16;
    let zeros = vec![0u32; max_steps];

    // Steps 1–2: sample yes-instances, group by skeleton.
    let mut groups: HashMap<Skeleton, Vec<Vec<Val>>> = HashMap::new();
    for _ in 0..samples {
        let input = fam.sample_yes(rng);
        let run = run_with_choices(nlm, &input, &zeros, max_steps, tracer)?;
        if !run.accepted() {
            return Err(StError::Machine(format!(
                "machine '{}' rejected a yes-instance — it does not satisfy the Lemma 21 contract",
                nlm.name
            )));
        }
        groups.entry(skeleton_of(&run)).or_default().push(input);
    }
    let (skeleton, group) = groups
        .into_iter()
        .max_by_key(|(_, v)| v.len())
        .ok_or_else(|| StError::Precondition("no samples drawn".into()))?;
    let group_size = group.len();

    // Step 3: find an uncompared φ-pair.
    let pairs = compared_pairs(&skeleton);
    let i0 = (0..m)
        .find(|&i| !pairs.contains(&(i, m + ph[i])))
        .ok_or_else(|| {
            StError::Precondition(format!(
                "every pair (i, m+φ(i)) is compared in ζ — the machine exceeds the \
                 Merge-Lemma budget t^2r·sortedness(φ) = {}·{}; enlarge m",
                1, // t^{2r} not recomputed here; informational only
                sortedness(&ph)
            ))
        })?;

    // Step 4: produce v, w in the group differing only at {i₀, m+φ(i₀)}.
    let v = group[0].clone();
    let phi_i0 = ph[i0];
    let mut w = v.clone();
    let mut found_w = false;
    for _ in 0..256 {
        let fresh = fam.sample_interval(ph[i0], rng);
        if fresh == v[i0] {
            continue;
        }
        w[i0] = fresh;
        w[m + phi_i0] = fresh;
        let run_w = run_with_choices(nlm, &w, &zeros, max_steps, tracer)?;
        if !run_w.accepted() {
            return Err(StError::Machine(format!(
                "machine '{}' rejected a yes-instance — contract violated",
                nlm.name
            )));
        }
        if skeleton_of(&run_w) == skeleton {
            found_w = true;
            break;
        }
    }
    if !found_w {
        return Err(StError::Precondition(
            "could not pin a second accepted input onto the same skeleton; \
             increase the interval width n or the sample count"
                .into(),
        ));
    }

    // Step 5: splice (Lemma 34): keep v's x-side, take w's y-side value.
    let mut u = v.clone();
    u[m + phi_i0] = w[m + phi_i0];
    debug_assert!(!fam.holds(&u), "the splice must be a no-instance");
    debug_assert!(
        fam.in_space(&u),
        "the splice must stay in the instance space"
    );
    let run_u = run_with_choices(nlm, &u, &zeros, max_steps, tracer)?;

    Ok(FoolingResult {
        i0,
        v,
        w,
        u,
        run_u,
        skeleton,
        group_size,
    })
}

/// Lemma 34's statement in isolation: splice two inputs at positions
/// `(i, i′)` — used by tests to verify skeleton preservation directly.
#[must_use]
pub fn splice(v: &[Val], w: &[Val], i: usize, i_prime: usize) -> Vec<Val> {
    let mut u = v.to_vec();
    u[i_prime] = w[i_prime];
    let _ = i; // x-side coordinate kept from v
    u
}

/// The quantitative heart of Claim 3: with `t` lists, `r` scans and the
/// Remark-20 permutation, every run misses some φ-pair once
/// `m > t^{2r}·(2√m − 1)`. Returns the smallest power-of-two `m`
/// satisfying that inequality.
#[must_use]
pub fn minimal_m_for_gap(t: u64, r: u32) -> usize {
    let mut m = 2usize;
    loop {
        let budget = (t as f64).powi(2 * r as i32) * (2.0 * (m as f64).sqrt() - 1.0);
        if (m as f64) > budget {
            return m;
        }
        m *= 2;
        assert!(
            m < 1 << 40,
            "no feasible m below 2^40 — parameters out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn family_sampling_respects_intervals() {
        let fam = WordFamily::new(8, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(100);
        for j in 0..8 {
            for _ in 0..10 {
                let v = fam.sample_interval(j, &mut rng);
                assert_eq!(fam.interval_of(v), j);
                assert!(v < 1 << 9);
            }
        }
        let yes = fam.sample_yes(&mut rng);
        assert!(fam.holds(&yes));
        assert!(fam.in_space(&yes));
    }

    #[test]
    fn family_validation() {
        assert!(WordFamily::new(6, 9).is_err());
        assert!(WordFamily::new(8, 2).is_err());
        assert!(WordFamily::new(8, 64).is_err());
        assert!(WordFamily::new(8, 3).is_ok());
    }

    #[test]
    fn adversary_defeats_the_always_accepter() {
        let fam = WordFamily::new(4, 8).unwrap();
        let nlm = library::always_accept_machine(2, 8);
        let mut rng = StdRng::seed_from_u64(101);
        let res =
            find_fooling_input(&nlm, &fam, &mut rng, 16, &st_trace::Tracer::disabled()).unwrap();
        assert!(res.run_u.accepted(), "the fooling input must be accepted");
        assert!(
            !fam.holds(&res.u),
            "the fooling input must be a no-instance"
        );
        assert!(fam.in_space(&res.u));
    }

    #[test]
    fn adversary_defeats_the_one_scan_matcher() {
        // The honest bounded-scan matcher accepts all yes-instances but
        // must accept some no-instance — the pipeline constructs it.
        let m = 8usize;
        let fam = WordFamily::new(m, 12).unwrap();
        let ph = phi(m);
        let nlm = library::one_scan_matcher(m, ph);
        let mut rng = StdRng::seed_from_u64(102);
        let res =
            find_fooling_input(&nlm, &fam, &mut rng, 24, &st_trace::Tracer::disabled()).unwrap();
        assert!(res.run_u.accepted());
        assert!(!fam.holds(&res.u));
        // Lemma 34's skeleton-preservation: the fooling run has skeleton ζ.
        assert_eq!(skeleton_of(&res.run_u), res.skeleton);
        // The machine was (r,t)-bounded throughout.
        assert!(res.run_u.scans() <= 3);
    }

    #[test]
    fn adversary_reports_contract_violations() {
        // A machine rejecting everything violates the yes-contract.
        let fam = WordFamily::new(4, 8).unwrap();
        let nlm = crate::machine::Nlm {
            name: "reject-all".into(),
            t: 1,
            m: 8,
            num_choices: 1,
            start: 0,
            is_final: Box::new(|s| s == library::REJECT || s == library::ACCEPT),
            is_accepting: Box::new(|s| s == library::ACCEPT),
            delta: Box::new(|_s, _h: &[&[crate::Tok]], _c| {
                (library::REJECT, vec![crate::machine::Movement::STAY_R])
            }),
        };
        let mut rng = StdRng::seed_from_u64(103);
        let err = find_fooling_input(&nlm, &fam, &mut rng, 4, &st_trace::Tracer::disabled());
        assert!(err.is_err());
    }

    #[test]
    fn instance_bridge_round_trips() {
        let fam = WordFamily::new(8, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(105);
        let input = fam.sample_yes(&mut rng);
        let inst = fam.to_instance(&input).unwrap();
        assert_eq!(fam.from_instance(&inst).unwrap(), input);
        assert!(st_problems::predicates::is_set_equal(&inst));
        // A no-input converts to a word-level no-instance.
        let mut no = input.clone();
        no[8] ^= 1; // flip a low bit of y_0 (stays in interval I_0)
        let inst_no = fam.to_instance(&no).unwrap();
        assert!(!st_problems::predicates::is_multiset_equal(&inst_no));
    }

    #[test]
    fn splice_changes_exactly_one_coordinate() {
        let v = vec![1u64, 2, 3, 4];
        let w = vec![1u64, 9, 3, 8];
        let u = splice(&v, &w, 1, 3);
        assert_eq!(u, vec![1, 2, 3, 8]);
    }

    #[test]
    fn minimal_m_matches_hand_computation() {
        // t=2, r=1: budget = 4·(2√m − 1); m = 64 → 4·15 = 60 < 64. And
        // m = 32 → 4·(2·5.66−1) ≈ 41.3 > 32. So minimal m = 64.
        assert_eq!(minimal_m_for_gap(2, 1), 64);
        // Larger r needs much larger m.
        assert!(minimal_m_for_gap(2, 2) > minimal_m_for_gap(2, 1));
    }

    use st_problems::perm::inverse;

    #[test]
    fn inverse_relation_between_phi_and_instances() {
        // x_i = y_{φ(i)} ⟺ y_j = x_{φ⁻¹(j)}; with φ an involution the
        // two views coincide — sanity for the family construction.
        let fam = WordFamily::new(8, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(104);
        let input = fam.sample_yes(&mut rng);
        let ph = phi(8);
        let inv = inverse(&ph);
        assert_eq!(ph, inv);
        for j in 0..8 {
            assert_eq!(input[8 + j], input[inv[j]]);
        }
    }
}
