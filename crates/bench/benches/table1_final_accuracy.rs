//! Table 1 bench: cost of one table cell (a full short training run) per
//! algorithm and BN mode. `repro-all table1` prints the accuracy grid.

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use lcasgd_core::bnmode::BnMode;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_cells");
    g.sample_size(10);
    for bn in [BnMode::Regular, BnMode::Async] {
        for algo in [Algorithm::Ssgd, Algorithm::LcAsgd] {
            g.bench_function(format!("{}_{}", algo.name(), bn.name()), |b| {
                b.iter(|| black_box(quick::cifar_run_bn(algo, 8, bn).final_test_error()));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
