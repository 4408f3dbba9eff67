//! Bench E10/E15: the Lemma 16 TM→NLM simulation vs direct TM execution.

use criterion::{criterion_group, criterion_main, Criterion};
use st_lm::run::run_with_choices;
use st_lm::simulate::{simulate_tm, tm_input_word};
use st_tm::library as tmlib;
use st_tm::run::run_deterministic;
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_simulation(c: &mut Criterion) {
    let tm = tmlib::strings_equal_machine();
    let values = [0b10110101u64, 0b10110101];
    let mut group = c.benchmark_group("lemma16_simulation");
    group.bench_function("tm_direct", |b| {
        let word = tm_input_word(&values, 8);
        b.iter(|| {
            run_deterministic(&tm, word.clone(), 1 << 20, &Tracer::disabled())
                .unwrap()
                .accepted()
        });
    });
    group.bench_function("nlm_simulated", |b| {
        b.iter(|| {
            let sim = simulate_tm(&tm, 2, 8, 1, 1 << 20).unwrap();
            run_with_choices(
                &sim.nlm,
                &values,
                &vec![0; 1 << 13],
                1 << 13,
                &Tracer::disabled(),
            )
            .unwrap()
            .accepted()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_simulation
}
criterion_main!(benches);
