//! Figure 6 bench: ImageNet-like wall-clock scaling of LC-ASGD with the
//! worker count (`repro-all fig6` prints the full curves).

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for m in [4usize, 8, 16] {
        let r = quick::imagenet_run(Algorithm::LcAsgd, m);
        println!(
            "fig6: LC-ASGD M={m} virtual total {:.1}s for {} updates",
            r.total_time, r.iterations
        );
    }
    let mut g = c.benchmark_group("fig6_imagenet_walltime");
    g.sample_size(10);
    for m in [4usize, 16] {
        g.bench_function(format!("lc_asgd_m{m}"), |b| {
            b.iter(|| black_box(quick::imagenet_run(Algorithm::LcAsgd, m).total_time));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
