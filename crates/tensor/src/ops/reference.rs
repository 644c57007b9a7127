//! Deliberately-naive reference kernels for differential testing.
//!
//! These are the "obviously correct" textbook loops — serial, unblocked,
//! unpacked — that the optimized kernels are checked against in
//! `tests/kernel_differential.rs`. They are compiled only for test builds
//! and under the `reference-kernels` feature, so they can never end up on
//! a hot path by accident. Do not optimize them: their value is that a
//! reader can verify them by inspection.
//!
//! [`conv2d_dx_fold`] is the exception: not naive, but the blocked kernel
//! `conv2d_dx` replaced, kept verbatim as the oracle the transposed
//! convolution is compared with *bit for bit*.

use super::conv::{for_each_image, macs, Conv2dSpec, Patches};
use super::gemm::{gemm_gather, GatherMap, MatRef, PackedB};
use super::tune::conv_threads;
use crate::tensor::Tensor;

/// Triple-loop `[m, k] × [k, n]` matrix product.
pub fn matmul_ref(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_ref inner dims");
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a.at(&[i, l]) * b.at(&[l, j]);
            }
            *out.at_mut(&[i, j]) = acc;
        }
    }
    out
}

/// `aᵀ × b` with `a: [k, m]`, `b: [k, n]`, via explicit indexing.
pub fn matmul_tn_ref(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn_ref inner dims");
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a.at(&[l, i]) * b.at(&[l, j]);
            }
            *out.at_mut(&[i, j]) = acc;
        }
    }
    out
}

/// `a × bᵀ` with `a: [m, k]`, `b: [n, k]`, via explicit indexing.
pub fn matmul_nt_ref(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt_ref inner dims");
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a.at(&[i, l]) * b.at(&[j, l]);
            }
            *out.at_mut(&[i, j]) = acc;
        }
    }
    out
}

/// Seven-loop direct convolution: `input` NCHW, `weight`
/// `[cout, cin, k, k]`, zero padding.
pub fn conv2d_ref(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    assert_eq!(c, spec.in_channels, "conv2d_ref channel mismatch");
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    for img in 0..n {
        for co in 0..spec.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    acc += input.at(&[img, ci, iy as usize, ix as usize])
                                        * weight.at(&[co, ci, ky, kx]);
                                }
                            }
                        }
                    }
                    *out.at_mut(&[img, co, oy, ox]) = acc;
                }
            }
        }
    }
    out
}

/// Weight gradient of [`conv2d_ref`]: `dW[co, ci, ky, kx] = Σ dY · x`.
pub fn conv2d_dw_ref(dy: &Tensor, input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    assert_eq!(dy.dims(), &[n, spec.out_channels, oh, ow], "conv2d_dw_ref dy shape");
    let mut dw = Tensor::zeros(&[spec.out_channels, c, k, k]);
    for img in 0..n {
        for co in 0..spec.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy.at(&[img, co, oy, ox]);
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    *dw.at_mut(&[co, ci, ky, kx]) +=
                                        g * input.at(&[img, ci, iy as usize, ix as usize]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    dw
}

/// Input gradient of [`conv2d_ref`]: the transposed convolution of `dy`
/// with `weight`.
pub fn conv2d_dx_ref(
    dy: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    h: usize,
    w: usize,
) -> Tensor {
    let n = dy.dims()[0];
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(dy.dims(), &[n, spec.out_channels, oh, ow], "conv2d_dx_ref dy shape");
    let k = spec.kernel;
    let mut dx = Tensor::zeros(&[n, spec.in_channels, h, w]);
    for img in 0..n {
        for co in 0..spec.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy.at(&[img, co, oy, ox]);
                    for ci in 0..spec.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    *dx.at_mut(&[img, ci, iy as usize, ix as usize]) +=
                                        g * weight.at(&[co, ci, ky, kx]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// The input gradient as `conv2d_dx` computed it before it became a
/// transposed convolution: per image, the patch-major
/// `dcolsᵀ [plen, oh·ow] = Wᵀ × dY_img` as an implicit GEMM (A read in
/// place from the weights, B = that image's `dY`), folded onto a padded
/// image and the interior copied out. `dy` is `[n, cout, oh, ow]`;
/// returns `[n, cin, h, w]`.
///
/// The fold is the col2im adjoint in shifted-row form: patch entry
/// `(ch, ky, kx)` adds its whole `oh × ow` plane at offset `(ky, kx)` of
/// channel `ch`. An input pixel is reached from output pixels in
/// ascending order exactly when `ky`, then `kx`, *descend* — so visiting
/// the entries of a channel in reverse reproduces `col2im`'s
/// (pixel, patch) summation order element for element, while the inner
/// loop is a contiguous row add instead of a bounds-tested scatter.
pub fn conv2d_dx_fold(
    dy: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    h: usize,
    w: usize,
) -> Tensor {
    let n = dy.dims()[0];
    let (oh, ow) = spec.out_hw(h, w);
    let (ohw, plen, cout) = (oh * ow, spec.patch_len(), spec.out_channels);
    assert_eq!(dy.dims(), &[n, cout, oh, ow], "conv2d_dx dy shape");
    assert_eq!(
        weight.dims(),
        &[cout, spec.in_channels, spec.kernel, spec.kernel],
        "conv2d_dx weight shape"
    );
    let mut dx = Tensor::zeros(&[n, spec.in_channels, h, w]);
    let dyd = dy.data();
    let wd = weight.data();
    let patches = Patches::new(spec, h, w);
    // A[l, co] = W[co, l], in place; dcols is row-major [plen, ohw].
    let map = GatherMap::new(
        (0..plen).collect(),
        (0..cout).map(|co| co * plen).collect(),
        (0..plen).map(|l| l * ohw).collect(),
    );
    let img_stride = spec.in_channels * h * w;
    let threads = conv_threads(n, macs(n, ohw, spec));
    let scratch = || (PackedB::new(cout, ohw), vec![0.0f32; plen * ohw], patches.scratch());
    for_each_image(dx.data_mut(), img_stride, threads, scratch, |state, img, dst| {
        let (dy_img, dcols, padded) = state;
        dy_img.pack(MatRef::row_major(&dyd[img * cout * ohw..][..cout * ohw], ohw));
        dcols.fill(0.0);
        gemm_gather(dcols, 1, &map, wd, dy_img);
        patches.fold(dst, padded, dcols);
    });
    dx
}

impl Patches {
    /// The adjoint of the gather: folds patch-major `dcols [plen, oh·ow]`
    /// onto `dst [c·h·w]` (zero on entry), through `scratch` when the image
    /// is padded. See [`conv2d_dx_fold`] for why the reverse walk over a
    /// channel's patch entries is `col2im`'s summation order.
    fn fold(&self, dst: &mut [f32], scratch: &mut [f32], dcols: &[f32]) {
        if self.spec.padding == 0 {
            return self.add_planes(dst, dcols);
        }
        scratch.fill(0.0);
        self.add_planes(scratch, dcols);
        for (ch, plane) in dst.chunks_exact_mut(self.h * self.w).enumerate() {
            for (y, row) in plane.chunks_exact_mut(self.w).enumerate() {
                row.copy_from_slice(&scratch[self.interior(ch, y)]);
            }
        }
    }

    /// Adds plane `(ch, ky, kx)` of `dcols` at offset `(ky, kx)` of channel
    /// `ch` of the padded image `acc`, last plane first.
    fn add_planes(&self, acc: &mut [f32], dcols: &[f32]) {
        let (k, s) = (self.spec.kernel, self.spec.stride);
        let (oh, ow) = self.spec.out_hw(self.h, self.w);
        for (l, plane) in dcols.chunks_exact(oh * ow).enumerate().rev() {
            let (ch, ky, kx) = (l / (k * k), l / k % k, l % k);
            for (oy, row) in plane.chunks_exact(ow).enumerate() {
                let at = (ch * self.hp + oy * s + ky) * self.wp + kx;
                if s == 1 {
                    for (d, &v) in acc[at..at + ow].iter_mut().zip(row) {
                        *d += v;
                    }
                } else {
                    for (ox, &v) in row.iter().enumerate() {
                        acc[at + ox * s] += v;
                    }
                }
            }
        }
    }
}

/// Two-pass (unfused) EMA update: `dst = (1−m)·dst`, then `dst += m·src`.
/// Reference for the fused `scale_add_inplace` kernel.
pub fn ema_ref(dst: &Tensor, src: &Tensor, momentum: f32) -> Tensor {
    let mut out = dst.clone();
    out.scale_inplace(1.0 - momentum);
    out.add_assign_scaled(src, momentum);
    out
}
