//! Seeded input generation and the load digest.
//!
//! Every input a workload sends is a pure function of `--seed`: values
//! come from `StdRng` streams derived with the conformance crate's
//! splittable `derive_seed`, so two runs with one seed send byte-identical
//! load, and the FNV-1a digest printed at setup proves it.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use st_conformance::prng::derive_seed;
use st_problems::{predicates, BitStr, Instance};

/// The decision problem a workload's instances pose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// CHECK-SORT: the second list is the sorted first list.
    CheckSort,
    /// MULTISET-EQUALITY: the second list is a shuffle of the first.
    Multiset,
    /// SET-EQUALITY (Q′ = ∅): the second list is a shuffle of the first.
    SetEq,
}

impl Problem {
    /// The `st-serve` decider id that answers this problem.
    pub fn decider_id(self) -> &'static str {
        match self {
            Problem::CheckSort => "check-sort",
            Problem::Multiset => "fingerprint",
            Problem::SetEq => "set-eq",
        }
    }

    /// The reference answer from `st_problems::predicates`.
    pub fn expected(self, inst: &Instance) -> bool {
        match self {
            Problem::CheckSort => predicates::is_check_sorted(inst),
            Problem::Multiset => predicates::is_multiset_equal(inst),
            Problem::SetEq => predicates::is_set_equal(inst),
        }
    }
}

/// One generated input: the word as sent, and its reference verdict.
pub struct Input {
    /// The input word `v₁#…#v_m#v′₁#…#v′_m#`.
    pub word: String,
    /// The verdict `st_problems::predicates` gives for it.
    pub expected: bool,
}

/// A deterministic generator for stream `label`, item `index`.
pub fn rng(seed: u64, label: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, label, index))
}

fn random_value(rng: &mut StdRng, n: usize) -> BitStr {
    let mut s = String::with_capacity(n);
    while s.len() < n {
        let word = rng.next_u64();
        for bit in 0..(n - s.len()).min(64) {
            s.push(if (word >> bit) & 1 == 1 { '1' } else { '0' });
        }
    }
    BitStr::parse(&s).expect("generated 0/1 string")
}

/// An instance of `problem` with `m` uniform `n`-bit values per list: a
/// yes-instance, or with `spoil` the same with the last bit of the last
/// `ys` value flipped, so a decider must scan to the end to reject it.
pub fn instance(problem: Problem, m: usize, n: usize, spoil: bool, rng: &mut StdRng) -> Instance {
    let xs: Vec<BitStr> = (0..m).map(|_| random_value(rng, n)).collect();
    let mut ys = xs.clone();
    match problem {
        Problem::CheckSort => ys.sort(),
        Problem::Multiset | Problem::SetEq => {
            for i in (1..ys.len()).rev() {
                ys.swap(i, rng.gen_range(0..=i));
            }
        }
    }
    if spoil {
        if let Some(last) = ys.last_mut() {
            last.flip_bit(n - 1);
        }
    }
    Instance::new(xs, ys).expect("equal list lengths")
}

/// Every `NO_EVERY`-th input of a deterministic problem is spoiled.
const NO_EVERY: usize = 4;

/// `count` instances of one shape, each from its own seeded stream, with
/// the reference verdict computed from the instance itself. MULTISET-EQ
/// gets yes-instances only, because Theorem 8(a) may accept a
/// no-instance; the other problems get one no-instance in `NO_EVERY`.
pub fn inputs(seed: u64, problem: Problem, m: usize, n: usize, count: usize) -> Vec<Input> {
    (0..count)
        .map(|i| {
            let spoil = problem != Problem::Multiset && i % NO_EVERY == NO_EVERY - 1;
            let mut rng = rng(seed, "perfbench-input", i as u64);
            let inst = instance(problem, m, n, spoil, &mut rng);
            Input {
                word: inst.encode(),
                expected: problem.expected(&inst),
            }
        })
        .collect()
}

/// FNV-1a 64 over every word and reference verdict, in order: equal
/// digests mean identical load. (Per-request fault-plan and RNG seeds
/// derive from `--seed` alone.)
pub fn digest(inputs: &[Input]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for input in inputs {
        for &b in input
            .word
            .as_bytes()
            .iter()
            .chain([&u8::from(input.expected)])
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
