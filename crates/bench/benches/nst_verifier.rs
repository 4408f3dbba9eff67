//! Bench E4: the Theorem 8(b) ℓ-copies verifier (whose tape traffic is
//! Θ(m²·n) — cheap in scans, expensive in cells, as the paper intends).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::nst::verify_multiset_certificate;
use st_problems::generate;
use st_trace::Tracer;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_verifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("nst_verifier");
    for m in [4usize, 8, 16] {
        let mut rng = StdRng::seed_from_u64(m as u64);
        let inst = generate::yes_multiset(m, 8, &mut rng);
        let id: Vec<usize> = (0..m).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &inst, |b, inst| {
            b.iter(|| {
                verify_multiset_certificate(inst, &id, false, &Tracer::disabled())
                    .unwrap()
                    .accepted
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_verifier
}
criterion_main!(benches);
