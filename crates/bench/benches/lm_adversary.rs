//! Bench E1/E12/E13: list-machine runs, skeleton extraction, and the
//! Lemma 21 adversary pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_lm::adversary::{find_fooling_input, WordFamily};
use st_lm::library;
use st_lm::run::run_with_choices;
use st_lm::skeleton::{compared_pairs, skeleton_of};
use st_problems::perm::phi;
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_lm_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("lm_matcher_run");
    for m in [8usize, 32] {
        let nlm = library::one_scan_matcher(m, phi(m));
        let ys: Vec<u64> = (0..m as u64).map(|j| 1000 + j).collect();
        let xs: Vec<u64> = (0..m).map(|i| ys[phi(m)[i]]).collect();
        let input: Vec<u64> = xs.into_iter().chain(ys).collect();
        let choices = vec![0u32; 1 << 14];
        group.bench_with_input(BenchmarkId::from_parameter(m), &input, |b, input| {
            b.iter(|| {
                let run =
                    run_with_choices(&nlm, input, &choices, 1 << 14, &Tracer::disabled()).unwrap();
                compared_pairs(&skeleton_of(&run)).len()
            });
        });
    }
    group.finish();
}

fn bench_adversary(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma21_adversary");
    group.bench_function("matcher_m8", |b| {
        b.iter(|| {
            let fam = WordFamily::new(8, 12).unwrap();
            let nlm = library::one_scan_matcher(8, phi(8));
            let mut rng = StdRng::seed_from_u64(1);
            find_fooling_input(&nlm, &fam, &mut rng, 12, &Tracer::disabled())
                .unwrap()
                .i0
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_lm_run, bench_adversary
}
criterion_main!(benches);
