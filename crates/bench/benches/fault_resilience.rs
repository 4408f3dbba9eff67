//! Bench E19/E20: the wall-time price of resilience. Complements the
//! reversal accounting of `report e19/e20`: how much slower is the
//! fingerprint-verified sorter than the trusting one, and how does the
//! cost grow with the fault rate (more retries) and the retry budget?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_algo::resilient::{decide_multiset_equality_resilient, resilient_sort};
use st_algo::sortcheck;
use st_core::RetryBudget;
use st_extmem::FaultPlan;
use st_problems::{generate, BitStr};
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn workload(count: u64, bits: usize) -> Vec<BitStr> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..count)
        .map(|_| {
            BitStr::from_value(u128::from(rng.gen_range(0..(1u64 << bits))), bits)
                .expect("value fits its bit width")
        })
        .collect()
}

fn bench_resilient_sort(c: &mut Criterion) {
    let items = workload(256, 10);
    let mut group = c.benchmark_group("resilient_sort_by_fault_rate");
    for rate in [0.0f64, 1e-3, 1e-2] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let plan = FaultPlan::uniform(seed, rate);
                let mut rng = StdRng::seed_from_u64(seed);
                resilient_sort(
                    &items,
                    items.len(),
                    &plan,
                    RetryBudget::new(4),
                    &mut rng,
                    &Tracer::disabled(),
                )
                .expect("resilient sort")
            });
        });
    }
    group.finish();
}

fn bench_decider_overhead(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let inst = generate::yes_multiset(128, 10, &mut rng);
    let mut group = c.benchmark_group("multiset_eq_trusting_vs_resilient");
    group.bench_function("trusting", |b| {
        b.iter(|| sortcheck::decide_multiset_equality(&inst).expect("decider"))
    });
    group.bench_function("resilient_clean", |b| {
        let plan = FaultPlan::new(17);
        let mut rng = StdRng::seed_from_u64(17);
        b.iter(|| {
            decide_multiset_equality_resilient(
                &inst,
                &plan,
                RetryBudget::default(),
                &mut rng,
                &Tracer::disabled(),
            )
            .expect("resilient decider")
        });
    });
    group.bench_function("resilient_faulty", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let plan = FaultPlan::uniform(seed, 1e-2);
            let mut rng = StdRng::seed_from_u64(seed);
            decide_multiset_equality_resilient(
                &inst,
                &plan,
                RetryBudget::default(),
                &mut rng,
                &Tracer::disabled(),
            )
            .expect("resilient decider")
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_resilient_sort, bench_decider_overhead
}
criterion_main!(benches);
