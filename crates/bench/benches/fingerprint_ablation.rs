//! Ablation 1 (DESIGN.md): the paper's two-prime polynomial fingerprint
//! vs the naive sum-of-residues test.
//!
//! Wall time is close; the point is the *error rate* on
//! permutation-masking adversarial inputs, printed once per run.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::fingerprint::{decide_multiset_equality, decide_sum_only};
use st_problems::{BitStr, Instance};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

/// An adversarial no-instance the sum-only test cannot see: the second
/// list redistributes value mass (a+1 and b−1), preserving Σvᵢ exactly.
fn sum_preserving_no_instance(m: usize, n: usize) -> Instance {
    let xs: Vec<BitStr> = (0..m)
        .map(|i| BitStr::from_value((2 * i + 2) as u128, n).unwrap())
        .collect();
    let mut ys = xs.clone();
    ys[0] = BitStr::from_value(3, n).unwrap(); // 2 → 3
    ys[1] = BitStr::from_value(3, n).unwrap(); // 4 → 3
    Instance::new(xs, ys).unwrap()
}

fn bench_strategies(c: &mut Criterion) {
    let inst = sum_preserving_no_instance(64, 12);
    // One-shot error-rate comparison (printed alongside the timings).
    let mut rng = StdRng::seed_from_u64(5);
    let trials = 300;
    let mut fp_false = 0u32;
    let mut sum_false = 0u32;
    for _ in 0..trials {
        if decide_multiset_equality(&inst, &mut rng).unwrap().accepted {
            fp_false += 1;
        }
        if decide_sum_only(&inst, &mut rng).unwrap() {
            sum_false += 1;
        }
    }
    println!(
        "fingerprint_ablation: false-positive rate on sum-preserving no-instance — \
         two-prime {:.3}, sum-only {:.3}",
        f64::from(fp_false) / f64::from(trials),
        f64::from(sum_false) / f64::from(trials),
    );

    let mut group = c.benchmark_group("fingerprint_ablation");
    group.bench_function("two_prime_paper", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| decide_multiset_equality(&inst, &mut rng).unwrap().accepted)
    });
    group.bench_function("sum_only", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| decide_sum_only(&inst, &mut rng).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_strategies
}
criterion_main!(benches);
