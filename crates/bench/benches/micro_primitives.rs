//! Microbenchmarks of the computational primitives every experiment rests
//! on: matmul, convolution (forward + backward), BatchNorm, LSTM steps
//! and a full tiny-ResNet training iteration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lcasgd_autograd::Graph;
use lcasgd_nn::lstm::Lstm;
use lcasgd_nn::resnet::ResNetConfig;
use lcasgd_tensor::ops::conv::{conv2d, Conv2dSpec};
use lcasgd_tensor::{Rng, Tensor};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    let mut rng = Rng::seed_from_u64(1);
    for &n in &[16usize, 64, 128] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        g.bench_function(format!("{n}x{n}"), |bench| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    let mut rng = Rng::seed_from_u64(2);
    let spec = Conv2dSpec { in_channels: 8, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
    let x = Tensor::randn(&[16, 8, 10, 10], 1.0, &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], 0.2, &mut rng);
    g.bench_function("forward_16x8x10x10", |bench| {
        bench.iter(|| black_box(conv2d(&x, &w, &spec)));
    });
    g.bench_function("forward_backward_autograd", |bench| {
        bench.iter(|| {
            let mut graph = Graph::new();
            let xv = graph.leaf(x.clone());
            let wv = graph.leaf(w.clone());
            let y = graph.conv2d(xv, wv, spec);
            let s = graph.mean(y);
            graph.backward(s);
            black_box(graph.grad(wv).map(|t| t.norm()))
        });
    });
    g.finish();
}

fn bench_lstm(c: &mut Criterion) {
    let mut g = c.benchmark_group("lstm");
    let mut rng = Rng::seed_from_u64(3);
    for &hidden in &[64usize, 128] {
        let mut lstm = Lstm::new(3, hidden, 2, 1, &mut rng);
        let state = lstm.zero_state();
        let x = [0.1, 0.2, 0.3];
        g.bench_function(format!("predict_h{hidden}"), |bench| {
            bench.iter(|| black_box(lstm.predict(&x, &state)[0]));
        });
        g.bench_function(format!("train_step_h{hidden}"), |bench| {
            bench.iter_batched(
                || (Lstm::new(3, hidden, 2, 1, &mut Rng::seed_from_u64(4)), state.clone()),
                |(mut l, mut st)| black_box(l.train_step(&x, &[0.5], &mut st, 0.02)),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_resnet_iteration(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(5);
    let mut net = ResNetConfig::tiny(3, 10).build(&mut rng);
    let x = Tensor::randn(&[16, 3, 8, 8], 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    c.bench_function("tiny_resnet_train_iteration", |bench| {
        bench.iter(|| {
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, x.clone(), true);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.backward(loss);
            let grads = net.flat_grads(&mut g);
            net.axpy_params(&grads, -1e-4);
            black_box(g.value(loss).item())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv, bench_lstm, bench_resnet_iteration
}
criterion_main!(benches);
