//! Bench E2/E6: reversal-bounded external merge sort and the Corollary 7
//! deciders. Wall time complements the reversal counts of `report e2/e6`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::sortcheck;
use st_algo::sorting::check_sort_via_sorting;
use st_extmem::sort::sort_with_usage;
use st_problems::generate;
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_sort");
    for logm in [8usize, 10, 12] {
        let m = 1usize << logm;
        let items: Vec<i64> = (0..m as i64).rev().collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &items, |b, items| {
            b.iter(|| sort_with_usage(items.clone(), items.len(), &Tracer::disabled()).unwrap());
        });
    }
    group.finish();
}

fn bench_deciders(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let inst = generate::yes_multiset(512, 16, &mut rng);
    let cs = generate::yes_checksort(512, 16, &mut rng);
    let mut group = c.benchmark_group("corollary7_deciders");
    group.bench_function("multiset_eq", |b| {
        b.iter(|| sortcheck::decide_multiset_equality(&inst).unwrap())
    });
    group.bench_function("set_eq", |b| {
        b.iter(|| sortcheck::decide_set_equality(&inst).unwrap())
    });
    group.bench_function("check_sort", |b| {
        b.iter(|| sortcheck::decide_check_sort(&cs).unwrap())
    });
    group.bench_function("check_sort_via_sorting", |b| {
        b.iter(|| check_sort_via_sorting(&cs, &Tracer::disabled()).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sort, bench_deciders
}
criterion_main!(benches);
