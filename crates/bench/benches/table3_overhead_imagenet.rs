//! Table 3 bench: LC-ASGD predictor overhead relative to an ImageNet-like
//! training iteration — the measured quantities behind `repro-all table3`.

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::algorithms::Algorithm;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for m in [4usize, 8, 16] {
        let r = quick::imagenet_run(Algorithm::LcAsgd, m);
        let o = r.overhead.expect("LC reports overhead");
        println!(
            "table3: M={m} measured loss-pred {:.3} ms, step-pred {:.3} ms per iteration",
            o.avg_loss_pred_ms(),
            o.avg_step_pred_ms()
        );
    }
    let mut g = c.benchmark_group("table3_lc_pipeline");
    g.sample_size(10);
    g.bench_function("lc_asgd_m8_imagenet", |b| {
        b.iter(|| black_box(quick::imagenet_run(Algorithm::LcAsgd, 8).iterations));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
