//! Golden checksums of the convolution and BatchNorm kernels, and of the
//! flat gradient a whole training step hands over.
//!
//! `kernel_differential` bounds the kernels' distance from naive reference
//! loops; this suite pins their *bits*. Every expected value below was
//! produced by running this same test body at the parent of the PR that
//! introduced the implicit-GEMM convolutions (commit `21dd3fb`, the
//! pack-then-multiply kernels and the `channel_of` BatchNorm loops), so a
//! kernel rewrite that changes one rounding anywhere — a different
//! summation order, a different `KC` blocking of a kernel's `k` dimension, a
//! reassociated fold — fails here even when it stays inside the
//! differential tolerance. Each case runs at 1 and at 4 forced threads and
//! both must reproduce the constant.
//!
//! The flat-gradient constants were taken the same way at commit `0cd55c6`,
//! the parent of the PR that made `backward` write every parameter's
//! gradient into one arena instead of gathering per-parameter tensors:
//! the vector a learner pushes is bit for bit the one that commit pushed.
//!
//! The convolution constants belong to the AVX2+FMA micro-kernel: fused
//! rounding is a per-machine property (DESIGN.md §8.4), so on a host
//! without FMA that half reports itself skipped and the portable path
//! stays covered by `kernel_differential`. BatchNorm uses no fused
//! operation, and the inputs are drawn with integer-to-float arithmetic
//! only (no libm call), so its constants hold everywhere.

use lc_asgd::autograd::Graph;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::simcluster::codec::crc32;
use lc_asgd::tensor::ops::conv::{conv2d, conv2d_dw, conv2d_dx, Conv2dSpec};
use lc_asgd::tensor::{Rng, Tensor};

fn uniform(dims: &[usize], seed: u64) -> Tensor {
    Tensor::rand_uniform(dims, -1.0, 1.0, &mut Rng::seed_from_u64(seed))
}

/// CRC-32 of the tensor's values as little-endian `f32` bytes.
fn crc(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    crc32(&bytes)
}

/// `(n, cin, cout, h, w, kernel, stride, padding)`.
type ConvCase = (usize, usize, usize, usize, usize, usize, usize, usize);

const CONV_CASES: [ConvCase; 15] = [
    // ResNet-tiny's nine convolutions at the benchmark's batch 16, in
    // forward order: stem; stage 1 (two 3×3); stage 2 (strided 3×3, 3×3,
    // 1×1 projection); stage 3 likewise.
    (16, 3, 8, 10, 10, 3, 1, 1),
    (16, 8, 8, 10, 10, 3, 1, 1),
    (16, 8, 8, 10, 10, 3, 1, 1),
    (16, 8, 16, 10, 10, 3, 2, 1),
    (16, 16, 16, 5, 5, 3, 1, 1),
    (16, 8, 16, 10, 10, 1, 2, 0),
    (16, 16, 32, 5, 5, 3, 2, 1),
    (16, 32, 32, 3, 3, 3, 1, 1),
    (16, 16, 32, 5, 5, 1, 2, 0),
    // The epoch-end evaluation's batch.
    (64, 8, 8, 10, 10, 3, 1, 1),
    // Stride 2, odd non-square size, no padding, off-tile channel counts.
    (2, 5, 7, 9, 11, 3, 2, 0),
    // One case per kernel whose `k` dimension straddles KC = 256:
    // plen = 288 (forward), oh·ow = 289 (dW), cout = 260 (dX).
    (2, 32, 4, 6, 6, 3, 1, 1),
    (2, 3, 5, 17, 17, 3, 1, 1),
    (1, 2, 260, 5, 5, 3, 1, 1),
    // Large enough to fan out over images at 4 threads.
    (4, 32, 32, 24, 24, 3, 1, 1),
];

/// `[conv2d, conv2d_dw, conv2d_dx]` per entry of [`CONV_CASES`].
const CONV_GOLDEN: [[u32; 3]; 15] = [
    [0x846331a8, 0x35167fea, 0x1067d8a0],
    [0x17f68b9f, 0x7939d3d6, 0x4c1e6f9b],
    [0x0683f653, 0xd289d820, 0x8e152934],
    [0x77a55905, 0x18b6c284, 0xfdbf32a7],
    [0xd95901c3, 0xc101b4ff, 0x5b14e307],
    [0xe37e4a96, 0x4f4fa829, 0xc9aa34fb],
    [0x92274513, 0x72594f7c, 0x9682b5a6],
    [0xf26eb5e2, 0x2872602b, 0x71c72481],
    [0x523c9e60, 0x0e39ea6c, 0x0217aef9],
    [0x08859b41, 0xbf1b69bd, 0xbb195b35],
    [0x26df91a6, 0xae3492fb, 0x582e6f87],
    [0x49167cc4, 0x0782cfea, 0x1171e663],
    [0xd20aef6a, 0xd54c8a94, 0x6ef76d6d],
    [0x86b53cd8, 0x23e77ce6, 0x2eb53885],
    [0x2f820ac5, 0x12db8b33, 0xe54df5e7],
];

fn conv_checksums() -> Vec<[u32; 3]> {
    CONV_CASES
        .iter()
        .enumerate()
        .map(|(i, &(n, cin, cout, h, w, kernel, stride, padding))| {
            let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel, stride, padding };
            let (oh, ow) = spec.out_hw(h, w);
            let seed = 1000 + 10 * i as u64;
            let x = uniform(&[n, cin, h, w], seed);
            let wt = uniform(&[cout, cin, kernel, kernel], seed + 1);
            let dy = uniform(&[n, cout, oh, ow], seed + 2);
            [
                crc(&conv2d(&x, &wt, &spec)),
                crc(&conv2d_dw(&dy, &x, &spec)),
                crc(&conv2d_dx(&dy, &wt, &spec, h, w)),
            ]
        })
        .collect()
}

/// Whether the GEMM micro-kernel with fused rounding is the one that runs.
fn fused_kernels() -> bool {
    #[cfg(target_arch = "x86_64")]
    let fused =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fused = false;
    fused
}

#[test]
fn convolutions_reproduce_the_parent_commits_bits() {
    if !fused_kernels() {
        eprintln!("kernel_golden: no AVX2+FMA on this host; convolution constants skipped");
        return;
    }
    for threads in [1, 4] {
        let got = rayon::with_num_threads(threads, conv_checksums);
        assert_eq!(got, CONV_GOLDEN, "at {threads} threads, got {got:#010x?}");
    }
}

/// Forward output and the three gradients of one BatchNorm application
/// under the loss `Σ y ⊙ r` (so `dy = r`, a dense random tensor).
fn bn_checksums(dims: &[usize], seed: u64, inference: bool) -> [u32; 4] {
    let c = dims[1];
    let mut g = Graph::new();
    // Off-centre, non-unit-variance activations, as a layer sees them.
    let x = g.leaf(uniform(dims, seed).scale(1.7).add_scalar(0.3));
    let gamma = g.leaf(uniform(&[c], seed + 1).add_scalar(1.5));
    let beta = g.leaf(uniform(&[c], seed + 2));
    let y = if inference {
        let mean = uniform(&[c], seed + 3);
        let var = uniform(&[c], seed + 4).add_scalar(1.5);
        g.batch_norm_inference(x, gamma, beta, &mean, &var, 1e-5)
    } else if dims.len() == 4 {
        g.batch_norm2d(x, gamma, beta, 1e-5).0
    } else {
        g.batch_norm1d(x, gamma, beta, 1e-5).0
    };
    let r = g.leaf(uniform(dims, seed + 5));
    let weighted = g.mul(y, r);
    let loss = g.sum(weighted);
    g.backward(loss);
    [
        crc(g.value(y)),
        crc(g.grad(x).expect("dx")),
        crc(g.grad(gamma).expect("dgamma")),
        crc(g.grad(beta).expect("dbeta")),
    ]
}

/// `(dims, inference)`: the first residual stage's BN at batch 16 and at
/// the evaluation batch, the last stage's 3×3 maps, a `[b, n]` layer, and
/// inference mode in both layouts.
const BN_CASES: [(&[usize], bool); 6] = [
    (&[16, 8, 10, 10], false),
    (&[64, 8, 10, 10], false),
    (&[16, 32, 3, 3], false),
    (&[16, 40], false),
    (&[64, 8, 10, 10], true),
    (&[16, 40], true),
];

/// `[y, dx, dgamma, dbeta]` per entry of [`BN_CASES`].
const BN_GOLDEN: [[u32; 4]; 6] = [
    [0x3e289996, 0xe2a4bc26, 0xae10ad5d, 0x7a9133a8],
    [0x6d27825a, 0xeb7e6f52, 0x5f3ef36d, 0x8402aaf5],
    [0x1531d70c, 0x0c20ad29, 0x5cf46cda, 0x643a9f5f],
    [0x84c00a48, 0x50b4ca5d, 0x6595d8e7, 0x6cbce1d7],
    [0x205bba7b, 0xeb0820c3, 0x62f0dc1b, 0x58a6d88c],
    [0xa12275ea, 0xb9a72fca, 0x0da1abc1, 0x575fbb87],
];

#[test]
fn batch_norm_reproduces_the_parent_commits_bits() {
    for threads in [1, 4] {
        let got: Vec<[u32; 4]> = rayon::with_num_threads(threads, || {
            BN_CASES
                .iter()
                .enumerate()
                .map(|(i, &(dims, inference))| bn_checksums(dims, 2000 + 10 * i as u64, inference))
                .collect()
        });
        assert_eq!(got, BN_GOLDEN, "at {threads} threads, got {got:#010x?}");
    }
}

/// The flat gradient of one training step, as the learner pushes it:
/// `(model, batch input dims, classes, backward seed)`.
type GradCase = (&'static str, &'static [usize], usize, f32);

const GRAD_CASES: [GradCase; 4] = [
    // The benchmark's two models at its batch, the second under an LC-ASGD
    // compensation seed.
    ("resnet-tiny", &[16, 3, 10, 10], 10, 1.0),
    ("resnet-tiny", &[16, 3, 10, 10], 10, 1.375),
    // The two MLP flavours: small GEMMs on the serial path with BatchNorm
    // between them, and wide ones on the packed, banded path without.
    ("mlp-bn", &[16, 20], 5, 0.75),
    ("mlp-wide", &[16, 256], 10, 1.0),
];

fn grad_checksums() -> Vec<u32> {
    GRAD_CASES
        .iter()
        .enumerate()
        .map(|(i, &(model, dims, classes, seed))| {
            let mut rng = Rng::seed_from_u64(3000 + i as u64);
            let net = match model {
                "resnet-tiny" => ResNetConfig::tiny(3, classes).build(&mut rng),
                "mlp-bn" => mlp(&[20, 32, 16, classes], true, &mut rng),
                _ => mlp(&[256, 1024, 1024, classes], false, &mut rng),
            };
            let labels: Vec<usize> = (0..dims[0]).map(|j| (7 * j + i) % classes).collect();
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, uniform(dims, 3100 + i as u64), true);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.backward_with_seed(loss, seed);
            let grads = net.flat_grads(&mut g);
            assert_eq!(grads.len(), net.num_params());
            crc32(&grads.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
        })
        .collect()
}

/// One entry per [`GRAD_CASES`].
const GRAD_GOLDEN: [u32; 4] = [0x095c94ff, 0xd6bd72fc, 0x43556804, 0xd9f223ea];

#[test]
fn flat_gradients_reproduce_the_parent_commits_bits() {
    if !fused_kernels() {
        eprintln!("kernel_golden: no AVX2+FMA on this host; gradient constants skipped");
        return;
    }
    for threads in [1, 4] {
        let got = rayon::with_num_threads(threads, grad_checksums);
        assert_eq!(got, GRAD_GOLDEN, "at {threads} threads, got {got:#010x?}");
    }
}
