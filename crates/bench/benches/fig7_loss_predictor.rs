//! Figure 7 bench: the loss predictor's per-arrival cost (online train +
//! k-step rollout) at the paper's hidden size and rollout horizons.
//! `repro-all fig7` prints the forecast-vs-actual series.

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_core::predictor::LossPredictor;
use lcasgd_tensor::Rng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_loss_predictor");
    for k in [4usize, 8, 16] {
        g.bench_function(format!("observe_and_predict_k{k}"), |b| {
            let mut rng = Rng::seed_from_u64(7);
            let mut p = LossPredictor::new(&mut rng);
            let mut loss = 2.3f32;
            b.iter(|| {
                loss *= 0.999;
                black_box(p.observe_and_predict(loss, k).l_delay)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
