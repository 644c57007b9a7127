//! Figure 2 bench: cost of a short DC-ASGD training run as the worker
//! count grows (the experiment whose full-length series `repro-all fig2`
//! regenerates).

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_dcasgd");
    g.sample_size(10);
    for m in [4usize, 8, 16] {
        g.bench_function(format!("dc_asgd_m{m}"), |b| {
            b.iter(|| black_box(quick::cifar_run(Algorithm::DcAsgd, m).final_test_error()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
