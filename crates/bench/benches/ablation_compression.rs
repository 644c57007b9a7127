//! Ablation: the wire codec on the worker→server push (int8 and bf16 with
//! error feedback against the paper's dense f32). Prints accuracy and push
//! size per codec, and times the push encodings.

use criterion::{criterion_group, criterion_main, Criterion};
use lcasgd_bench::quick;
use lcasgd_core::comm::Compression;
use lcasgd_simcluster::WireCodec;
use lcasgd_tensor::{Rng, Tensor};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(21);
    let grads = Tensor::randn(&[20_000], 0.01, &mut rng).into_vec();
    for codec in [WireCodec::F32, WireCodec::Bf16, WireCodec::Int8] {
        let r = quick::cifar_run_codec(8, codec);
        let bytes = Compression::for_codec(codec).compress(&grads, None).wire_bytes();
        println!(
            "ablation_compression: {} short-run test error {:.2}%  (ratio ~{:.1}x)",
            codec.name(),
            r.final_test_error() * 100.0,
            (grads.len() * 4) as f32 / bytes as f32
        );
    }

    let mut g = c.benchmark_group("compression_kernels");
    for codec in [WireCodec::Bf16, WireCodec::Int8] {
        let scheme = Compression::for_codec(codec);
        g.bench_function(codec.name(), |b| {
            let mut residual = vec![0.0f32; grads.len()];
            b.iter(|| black_box(scheme.compress(&grads, Some(&mut residual)).wire_bytes()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
