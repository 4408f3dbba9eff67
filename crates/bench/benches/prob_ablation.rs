//! Ablation 2 (DESIGN.md): exact run-tree enumeration vs Monte-Carlo
//! estimation of acceptance probabilities.

use criterion::{criterion_group, criterion_main, Criterion};
use st_tm::library as tmlib;
use st_tm::prob::{estimate_acceptance, exact_acceptance};
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_probability(c: &mut Criterion) {
    let tm = tmlib::randomized_strings_equal_machine();
    let input = tmlib::encode("010101#010101");
    let mut group = c.benchmark_group("prob_ablation");
    group.bench_function("exact_enumeration", |b| {
        b.iter(|| {
            exact_acceptance(&tm, input.clone(), 1 << 20)
                .unwrap()
                .accept
        })
    });
    group.bench_function("monte_carlo_500", |b| {
        b.iter(|| {
            estimate_acceptance(&tm, &input, 500, 1 << 20, 42, 4, &Tracer::disabled())
                .unwrap()
                .p_hat
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_probability
}
criterion_main!(benches);
