//! Differential suite: the vectorizing int8 quantizer (`codec::int8_pack`,
//! `Compression::Int8` and `Compression::Bf16` with error feedback)
//! against the loops it replaced (`bench::kernels::seed`), bit for bit —
//! levels, scales, message bytes and residuals — on inputs that hold every
//! value the rounding can get wrong: NaN, ±∞, ±0, subnormals, exact
//! half-way ties and entries past the clamp. (The whole `f32` range of the
//! one-entry quantizer `codec::level` is checked in `lcasgd-simcluster`.)

use lcasgd_bench::kernels::seed;
use lcasgd_core::shard::shard_wire_grads;
use lcasgd_core::{Compression, ShardSpec};
use lcasgd_simcluster::codec::{int8_pack, INT8_BLOCK};
use lcasgd_simcluster::WireMsg;
use lcasgd_tensor::{Rng, Tensor};

/// The wide benchmark model's parameter count.
const WIDE: usize = 1_323_018;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn randn(len: usize, std: f32, seed: u64) -> Vec<f32> {
    Tensor::randn(&[len], std, &mut Rng::seed_from_u64(seed)).data().to_vec()
}

/// Every value the rounding can get wrong: half-way ties on both sides of
/// each level and their neighbours, the clamp bound and just past it, and
/// the special values. Placed where a block's scale is 1, each tie is
/// exactly a tie after the division too.
fn hard_values() -> Vec<f32> {
    let mut v = vec![0.0, -0.0, 1e-40, -1e-40, 1e-45, -1e-45, f32::MIN_POSITIVE, 127.0];
    v.extend([127.5, -127.5, 128.0, -128.5, 126.5, -126.5, 0.5, -0.5, 1.5, -1.5]);
    for k in -128..128 {
        let t = k as f32 + 0.5;
        v.extend([t, t.next_down(), t.next_up()]);
    }
    v
}

/// A `len`-entry vector of unit-normal values, with the blocks `int8_pack`
/// sees seeded in turn with a NaN, an infinity (scale 1: every hard value
/// is exact), the hard values under a max of 127 (scale 1 again), ±0 and
/// subnormals only, or nothing — so every block kind occurs at every length.
fn packed_input(len: usize, seed: u64) -> Vec<f32> {
    let mut vals = randn(len, 1.0, seed);
    let hard = hard_values();
    for (b, block) in vals.chunks_mut(INT8_BLOCK).enumerate() {
        let n = block.len();
        match b % 6 {
            0 => block[n / 2] = f32::NAN,
            1 => {
                block.iter_mut().zip(hard.iter().cycle()).for_each(|(v, &h)| *v = h);
                block[n - 1] = if b % 12 == 1 { f32::INFINITY } else { f32::NEG_INFINITY };
            }
            2 => block.iter_mut().zip(hard.iter().cycle().skip(8 * b)).for_each(|(v, &h)| {
                *v = h.clamp(-127.0, 127.0);
            }),
            3 => block
                .iter_mut()
                .zip([0.0, -0.0, 1e-40, -1e-45].iter().cycle())
                .for_each(|(v, &h)| *v = h),
            4 => block.iter_mut().for_each(|v| *v *= 1e-30),
            _ => {}
        }
    }
    vals
}

#[test]
fn int8_pack_reproduces_the_seed_levels_and_scales() {
    for len in [0, 1, 255, 256, 257, 2 * INT8_BLOCK * 6 + 3, WIDE] {
        let vals = packed_input(len, len as u64);
        let (levels, scales) = int8_pack(&vals);
        let (want_levels, want_scales) = seed::int8_pack(&vals);
        assert_eq!(levels, want_levels, "len {len}");
        assert_eq!(bits(&scales), bits(&want_scales), "len {len}");
    }
    // One entry of each hard value alone, and under a max of 127 or ∞.
    for h in hard_values().into_iter().chain([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]) {
        for vals in [vec![h], vec![h, 127.0], vec![h, f32::INFINITY]] {
            assert_eq!(int8_pack(&vals), seed::int8_pack(&vals), "{vals:?}");
        }
    }
}

/// Finite gradients for the uplink: normal values at `std` clamped to
/// `±127/16`, one of them exactly `−127/16` — so the scale is exactly 2⁻⁴ —
/// and every third entry a hard value within `±127` over 16, which the
/// quantizer's division turns back into exactly that value.
fn finite_grads(len: usize, std: f32, seed: u64) -> Vec<f32> {
    let max = 127.0 / 16.0;
    let mut g: Vec<f32> = randn(len, std, seed).into_iter().map(|v| v.clamp(-max, max)).collect();
    let hard = hard_values().into_iter().filter(|h| h.abs() <= 127.0);
    g.iter_mut().step_by(3).zip(hard).for_each(|(v, h)| *v = h / 16.0);
    if let Some(v) = g.last_mut() {
        *v = -max;
    }
    g
}

#[test]
fn int8_without_a_residual_reproduces_the_seed_message() {
    for len in [0, 1, 255, 256, 257, 4099] {
        for (std, seed) in [(1e-3, 1), (1.0, 2), (40.0, 3)] {
            let g = finite_grads(len, std, seed);
            let got = Compression::Int8.compress(&g, None).encoded();
            assert_eq!(got, seed::int8(&g, None).encoded(), "len {len}");
        }
    }
}

#[test]
fn int8_and_bf16_error_feedback_reproduce_the_seed_through_the_push_path() {
    let reference = |scheme: Compression, g: &[f32], r: &mut [f32]| match scheme {
        Compression::Int8 => seed::int8(g, Some(r)),
        _ => seed::bf16(g, Some(r)),
    };
    for (len, pushes) in [(4099, 6), (WIDE, 2)] {
        for shards in [1, 4] {
            let spec = ShardSpec::even(len, shards).unwrap();
            for scheme in [Compression::Int8, Compression::Bf16] {
                let mut residual = Vec::new();
                let mut want_residual = vec![0.0; len];
                for push in 0..pushes {
                    let g = finite_grads(len, 1e-2, 10 + push);
                    let (slices, _) = shard_wire_grads(&scheme, &spec, g.clone(), &mut residual);
                    assert_eq!(slices.len(), shards);
                    for (s, slice) in slices.iter().enumerate() {
                        let r = spec.range(s);
                        let want = reference(scheme, &g[r.clone()], &mut want_residual[r]);
                        let what = format!("{scheme:?}, {shards} shards, len {len}, push {push}");
                        assert_eq!(slice.encoded(), want.encoded(), "{what}, shard {s}");
                    }
                    assert_eq!(bits(&residual), bits(&want_residual), "{scheme:?} {shards}");
                }
            }
        }
    }
}
