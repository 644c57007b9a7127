//! Figure 5 bench: per-algorithm cost of the ImageNet-like pipeline
//! (`repro-all fig5` prints the series).

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_imagenet");
    g.sample_size(10);
    for algo in Algorithm::DISTRIBUTED {
        g.bench_function(algo.name(), |b| {
            b.iter(|| black_box(quick::imagenet_run(algo, 8).final_test_error()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
