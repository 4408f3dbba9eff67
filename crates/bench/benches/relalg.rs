//! Bench E7: the Theorem 11 symmetric-difference query on tape streams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_problems::generate;
use st_query::relalg::{evaluate, instance_database, sym_diff_query};
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_sym_diff(c: &mut Criterion) {
    let mut group = c.benchmark_group("relalg_sym_diff");
    for logm in [6usize, 8, 10] {
        let m = 1usize << logm;
        let mut rng = StdRng::seed_from_u64(logm as u64);
        let inst = generate::yes_set_distinct(m, 12, &mut rng);
        let db = instance_database(&inst);
        let q = sym_diff_query("R1", "R2");
        group.bench_with_input(BenchmarkId::from_parameter(m), &db, |b, db| {
            b.iter(|| evaluate(&q, db, &Tracer::disabled()).unwrap().0.is_empty());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sym_diff
}
criterion_main!(benches);
