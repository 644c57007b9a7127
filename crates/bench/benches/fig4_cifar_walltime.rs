//! Figure 4 bench: simulated wall-clock throughput — virtual seconds per
//! applied update for each algorithm (the quantity Figure 4's x-axis is
//! built from; `repro-all fig4` prints the full curves).

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Report the virtual time per update once (stdout), then time the
    // simulation pipeline itself.
    for algo in Algorithm::DISTRIBUTED {
        let r = quick::cifar_run(algo, 8);
        println!(
            "fig4: {} M=8 virtual {:.1} ms/update over {} updates",
            algo,
            r.avg_iteration_ms(),
            r.iterations
        );
    }
    let mut g = c.benchmark_group("fig4_walltime_pipeline");
    g.sample_size(10);
    for m in [4usize, 16] {
        g.bench_function(format!("asgd_m{m}"), |b| {
            b.iter(|| black_box(quick::cifar_run(Algorithm::Asgd, m).total_time));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
