//! Differential tests: optimized kernels vs the naive reference kernels.
//!
//! Every optimized code path (packed GEMM for the three matmul variants,
//! the implicit-GEMM conv forward/backward, the fused EMA update) is compared
//! against the deliberately-naive loops in `ops::reference` over randomized
//! shapes chosen to hit the blocking edge cases: tails smaller than the
//! MR/NR register tile, k = 1, single rows/columns, shapes straddling the
//! MC/KC/NC cache-block boundaries, strided + padded and 1×1 convolutions.
//! A slice of the cases additionally runs under a forced 4-thread fan-out
//! so the banded dispatch path is exercised even on single-core CI hosts.
//!
//! Tolerance is relative (1e-4 with an absolute floor), since blocked
//! accumulation reassociates sums relative to the reference loops.

use lcasgd_tensor::ops::conv::{conv2d, conv2d_dw, conv2d_dx, Conv2dSpec};
use lcasgd_tensor::ops::reference;
use lcasgd_tensor::{Rng, Tensor};
use proptest::prelude::*;

const REL_TOL: f32 = 1e-4;

fn randn(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor::randn(dims, 1.0, &mut rng)
}

fn rel_close(
    got: &Tensor,
    want: &Tensor,
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.dims(), want.dims());
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        let denom = w.abs().max(1.0);
        prop_assert!(
            (g - w).abs() <= REL_TOL * denom,
            "{} diverges at flat index {}: optimized {} vs reference {}",
            what,
            i,
            g,
            w
        );
    }
    Ok(())
}

/// Biases a raw dimension draw toward blocking edges: tile-multiples,
/// one-off-tile tails, and 1.
fn edgey(raw: usize, kind: usize) -> usize {
    match kind % 4 {
        0 => raw,                      // arbitrary
        1 => (raw / 8).max(1) * 8,     // NR multiple
        2 => (raw / 8).max(1) * 8 + 1, // just past a tile boundary
        _ => 1,                        // degenerate single row/col
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_variants_match_reference(
        m_raw in 1usize..90,
        n_raw in 1usize..90,
        k_raw in 1usize..300,
        m_kind in 0usize..4,
        n_kind in 0usize..4,
        k_kind in 0usize..3, // keep k >= 1 but allow k = 1 via kind 2
        seed in any::<u64>(),
        forced_threads in 0usize..2,
    ) {
        let m = edgey(m_raw, m_kind);
        let n = edgey(n_raw, n_kind);
        let k = if k_kind == 2 { 1 } else { k_raw };
        let a = randn(&[m, k], seed);
        let b = randn(&[k, n], seed ^ 0x9e37_79b9);
        let at = randn(&[k, m], seed ^ 0x517c_c1b7);
        let bt = randn(&[n, k], seed ^ 0x2545_f491);
        let run = || -> Result<(), proptest::test_runner::TestCaseError> {
            rel_close(&a.matmul(&b), &reference::matmul_ref(&a, &b), "matmul")?;
            rel_close(&at.matmul_tn(&b), &reference::matmul_tn_ref(&at, &b), "matmul_tn")?;
            rel_close(&a.matmul_nt(&bt), &reference::matmul_nt_ref(&a, &bt), "matmul_nt")?;
            Ok(())
        };
        if forced_threads == 1 {
            rayon::with_num_threads(4, run)?;
        } else {
            run()?;
        }
    }

    #[test]
    fn conv_forward_and_backward_match_reference(
        n in 1usize..3,
        cin in 1usize..6,
        cout in 1usize..10,
        h in 3usize..12,
        w in 3usize..12,
        kernel_ix in 0usize..2,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in any::<u64>(),
        forced_threads in 0usize..2,
    ) {
        let kernel = [1, 3][kernel_ix];
        // Skip geometrically-invalid combinations (kernel must fit).
        if h + 2 * padding < kernel || w + 2 * padding < kernel {
            return Ok(());
        }
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel, stride, padding };
        let (oh, ow) = spec.out_hw(h, w);
        let x = randn(&[n, cin, h, w], seed);
        let wt = randn(&[cout, cin, kernel, kernel], seed ^ 0xabcd_ef01);
        let dy = randn(&[n, cout, oh, ow], seed ^ 0x1357_9bdf);
        let run = || -> Result<(), proptest::test_runner::TestCaseError> {
            rel_close(&conv2d(&x, &wt, &spec), &reference::conv2d_ref(&x, &wt, &spec), "conv2d")?;
            rel_close(&conv2d_dw(&dy, &x, &spec), &reference::conv2d_dw_ref(&dy, &x, &spec), "conv2d_dw")?;
            rel_close(
                &conv2d_dx(&dy, &wt, &spec, h, w),
                &reference::conv2d_dx_ref(&dy, &wt, &spec, h, w),
                "conv2d_dx",
            )?;
            Ok(())
        };
        if forced_threads == 1 {
            rayon::with_num_threads(4, run)?;
        } else {
            run()?;
        }
    }

    #[test]
    fn fused_ema_matches_two_pass(
        len in 1usize..5000,
        momentum in 0.01f32..0.99,
        seed in any::<u64>(),
    ) {
        let dst = randn(&[len], seed);
        let src = randn(&[len], seed ^ 0xfeed_beef);
        let mut fused = dst.clone();
        fused.scale_add_inplace(1.0 - momentum, &src, momentum);
        let want = reference::ema_ref(&dst, &src, momentum);
        // Per-element arithmetic is identical to the two-pass form, so
        // this comparison is exact, not tolerance-based.
        prop_assert_eq!(fused.data(), want.data());
    }
}

/// Deterministic shapes that pin every structural edge of the blocking:
/// single row/col, k = 1, tails just below/above MR, NR, and spans across
/// the MC = 64, KC = 256, NC = 256 block boundaries.
#[test]
fn matmul_blocking_edges_exhaustive() {
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 64, 17),    // single output row
        (64, 1, 17),    // single output column
        (3, 7, 1),      // k = 1
        (4, 8, 256),    // exactly one register tile, k at KC boundary
        (5, 9, 257),    // tails just past tile/block boundaries
        (63, 255, 12),  // just below MC / NC
        (65, 257, 12),  // just above MC / NC
        (64, 256, 300), // k spans two KC blocks
        (67, 9, 31),
    ];
    for &(m, n, k) in shapes {
        let a = randn(&[m, k], 1000 + (m * 31 + n * 7 + k) as u64);
        let b = randn(&[k, n], 2000 + (m + n * 13 + k * 3) as u64);
        let got = a.matmul(&b);
        let want = reference::matmul_ref(&a, &b);
        for (i, (&g, &wv)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g - wv).abs() <= REL_TOL * wv.abs().max(1.0),
                "({m},{n},{k}) flat index {i}: {g} vs {wv}"
            );
        }
    }
}

/// Conv configs pinned deterministically: stride 2 + padding, non-square,
/// 1×1, a CIFAR-like 3×3 block — and the shapes `tests/kernel_golden.rs`
/// checksums (what the benchmark trains, plus one case per kernel whose
/// `k` dimension straddles KC). On a host without AVX2+FMA the golden
/// constants do not apply; there this is what holds those shapes.
#[test]
fn conv_specialized_configs_exhaustive() {
    // (n, cin, cout, h, w, kernel, stride, padding)
    type ConvConfig = (usize, usize, usize, usize, usize, usize, usize, usize);
    let configs: &[ConvConfig] = &[
        (2, 3, 4, 8, 8, 3, 1, 1),
        (1, 2, 3, 9, 7, 3, 2, 1),   // strided + padded, non-square
        (2, 4, 6, 5, 5, 1, 1, 0),   // 1×1
        (1, 1, 1, 3, 3, 3, 1, 0),   // minimal valid
        (1, 5, 7, 6, 11, 3, 2, 0),  // no padding, stride 2, off-tile cout
        (2, 8, 8, 16, 16, 3, 1, 1), // CIFAR-like block (scaled down)
        // ResNet-tiny on 10×10 images at batch 16: stem, stage 1, then the
        // strided 3×3 / 3×3 / 1×1 projection of stages 2 and 3.
        (16, 3, 8, 10, 10, 3, 1, 1),
        (16, 8, 8, 10, 10, 3, 1, 1),
        (16, 8, 16, 10, 10, 3, 2, 1),
        (16, 16, 16, 5, 5, 3, 1, 1),
        (16, 8, 16, 10, 10, 1, 2, 0),
        (16, 16, 32, 5, 5, 3, 2, 1),
        (16, 32, 32, 3, 3, 3, 1, 1),
        (16, 16, 32, 5, 5, 1, 2, 0),
        (64, 8, 8, 10, 10, 3, 1, 1), // the evaluation batch
        (2, 5, 7, 9, 11, 3, 2, 0),   // stride 2, odd non-square, no padding
        (2, 32, 4, 6, 6, 3, 1, 1),   // plen = 288: forward's k straddles KC
        (2, 3, 5, 17, 17, 3, 1, 1),  // oh·ow = 289: dW's k straddles KC
        (1, 2, 260, 5, 5, 3, 1, 1),  // cout = 260: dX's k straddles KC
    ];
    for &(n, cin, cout, h, w, kernel, stride, padding) in configs {
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel, stride, padding };
        let (oh, ow) = spec.out_hw(h, w);
        let seed = (n * 131 + cout * 17 + h * 3 + w) as u64;
        let x = randn(&[n, cin, h, w], seed);
        let wt = randn(&[cout, cin, kernel, kernel], seed + 1);
        let dy = randn(&[n, cout, oh, ow], seed + 2);

        // (optimized, reference, name, terms per output sum)
        for (got, want, what, terms) in [
            (
                conv2d(&x, &wt, &spec),
                reference::conv2d_ref(&x, &wt, &spec),
                "forward",
                cin * kernel * kernel,
            ),
            (
                conv2d_dw(&dy, &x, &spec),
                reference::conv2d_dw_ref(&dy, &x, &spec),
                "dw",
                n * oh * ow,
            ),
            (
                conv2d_dx(&dy, &wt, &spec, h, w),
                reference::conv2d_dx_ref(&dy, &wt, &spec, h, w),
                "dx",
                cout * kernel * kernel,
            ),
        ] {
            // The rounding error of an f32 sum of unit-normal products —
            // the reference's straight one most of all — grows with the
            // root of its length (a batch-64 dW entry sums 6400 terms
            // through partial sums near 80), so the absolute floor does
            // too; it is the usual 1.0 up to 64 terms.
            let floor = (terms as f32 / 64.0).sqrt().max(1.0);
            for (i, (&g, &wv)) in got.data().iter().zip(want.data()).enumerate() {
                assert!(
                    (g - wv).abs() <= REL_TOL * wv.abs().max(floor),
                    "{what} {spec:?} on {h}x{w}: flat index {i}: {g} vs {wv}"
                );
            }
        }
    }
}
