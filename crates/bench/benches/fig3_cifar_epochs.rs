//! Figure 3 bench: per-algorithm cost of the CIFAR-like training pipeline
//! (epoch-denominated learning curves; `repro-all fig3` prints the series).

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_cifar");
    g.sample_size(10);
    for algo in Algorithm::ALL {
        let m = if algo == Algorithm::Sgd { 1 } else { 8 };
        g.bench_function(algo.name(), |b| {
            b.iter(|| black_box(quick::cifar_run(algo, m).final_test_error()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
