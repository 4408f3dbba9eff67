//! Ablation 3 (DESIGN.md): skeleton extraction and hashing cost on runs
//! of growing length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_lm::library;
use st_lm::run::run_with_choices;
use st_lm::skeleton::skeleton_of;
use st_trace::Tracer;
use std::collections::HashSet;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_skeletons(c: &mut Criterion) {
    let mut group = c.benchmark_group("skeleton_ablation");
    for passes in [1usize, 2, 3] {
        let m = 8usize;
        let nlm = library::zigzag_matcher(m, (0..m).collect(), passes);
        let input: Vec<u64> = (0..2 * m as u64).map(|i| 100 + i).collect();
        let run = run_with_choices(
            &nlm,
            &input,
            &vec![0; 1 << 16],
            1 << 16,
            &Tracer::disabled(),
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("extract", passes), &run, |b, run| {
            b.iter(|| skeleton_of(run));
        });
        group.bench_with_input(
            BenchmarkId::new("extract_and_hash", passes),
            &run,
            |b, run| {
                b.iter(|| {
                    let mut set = HashSet::new();
                    set.insert(skeleton_of(run));
                    set.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_skeletons
}
criterion_main!(benches);
