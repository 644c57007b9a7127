//! Figure 8 bench: the step predictor's per-arrival cost (online train +
//! one-step forecast) at the paper's hidden size, as the worker count
//! grows. `repro-all fig8` prints the forecast-vs-actual series.

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_core::predictor::StepPredictor;
use lcasgd_tensor::Rng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_step_predictor");
    for m in [4usize, 8, 16] {
        g.bench_function(format!("observe_and_predict_m{m}"), |b| {
            let mut rng = Rng::seed_from_u64(8);
            let mut p = StepPredictor::new(m, &mut rng);
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(p.observe_and_predict(i % m, (m - 1) as f32, 0.002, 0.03))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
