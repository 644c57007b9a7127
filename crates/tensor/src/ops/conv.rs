//! Convolution kernels: implicit-GEMM forward/backward plus im2col / col2im
//! helpers.
//!
//! No pass materializes or packs the `[n·oh·ow, cin·k·k]` im2col matrix.
//! Over a zero-padded copy of one image (`hp × wp` planes; the image
//! itself when `padding = 0`) element (pixel `j`, patch entry `l`) of that
//! matrix is `padded[base[j] + off[l]]` with
//! `base[j] = oy·s·wp + ox·s` and `off[l] = ch·hp·wp + ky·wp + kx` — two
//! small tables built once per call ([`Patches`]), after which no inner
//! loop holds a bounds test, a division or a copy, for any stride. The
//! GEMM micro-kernel gathers its A operand through those tables
//! ([`gemm_gather`]):
//!
//! * [`conv2d`]: rows = pixels, `k` = patch entries, B = `Wᵀ` packed once
//!   per call; each tile is stored transposed, straight into the image's
//!   `[cout, oh·ow]` NCHW slab.
//! * [`conv2d_dw`]: the same operand transposed — rows = patch entries,
//!   `k` = pixels — against that image's `dY`, packed per image;
//!   accumulated over images in order, transposed once at the end.
//! * [`conv2d_dx`]: `dcolsᵀ = Wᵀ·dY` with A read in place from the
//!   weights and B = that image's `dY`, then folded onto a padded image by
//!   shifted row adds and the interior copied out.
//!
//! Every output element sees the products and the summation order of the
//! pack-then-multiply kernels these replaced, so results are bitwise
//! theirs (`tests/kernel_golden.rs`, DESIGN.md §8.2).
//!
//! `im2col`/`col2im` remain public for tests, the kernel benchmark's seed
//! kernels and external users; no convolution pass calls them.

use super::gemm::{gemm_gather, GatherMap, MatRef, PackedB};
use super::tune::conv_threads;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Static description of a 2-D convolution's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of `h × w`. Panics when the kernel
    /// does not fit (misconfigured network).
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding)
            .checked_sub(self.kernel)
            .expect("kernel larger than padded input")
            / self.stride
            + 1;
        let ow = (w + 2 * self.padding)
            .checked_sub(self.kernel)
            .expect("kernel larger than padded input")
            / self.stride
            + 1;
        (oh, ow)
    }

    /// Number of columns of the im2col matrix (`cin·kh·kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// The padded image one call's virtual im2col operand is read from
/// (module docs): its geometry, its offset tables, and the copies in and
/// out of it.
struct Patches {
    spec: Conv2dSpec,
    h: usize,
    w: usize,
    hp: usize,
    wp: usize,
}

impl Patches {
    fn new(spec: &Conv2dSpec, h: usize, w: usize) -> Self {
        Patches { spec: *spec, h, w, hp: h + 2 * spec.padding, wp: w + 2 * spec.padding }
    }

    /// `(base, off)`: `base[j]` per output pixel, `off[l]` per patch entry.
    fn tables(&self) -> (Vec<usize>, Vec<usize>) {
        let (c, k, s) = (self.spec.in_channels, self.spec.kernel, self.spec.stride);
        let (oh, ow) = self.spec.out_hw(self.h, self.w);
        let mut base = Vec::with_capacity(oh * ow);
        for oy in 0..oh {
            base.extend((0..ow).map(|ox| (oy * self.wp + ox) * s));
        }
        let mut off = Vec::with_capacity(c * k * k);
        for ch in 0..c {
            for ky in 0..k {
                off.extend((0..k).map(|kx| (ch * self.hp + ky) * self.wp + kx));
            }
        }
        (base, off)
    }

    /// A zeroed padded image (empty when there is no padding to add).
    fn scratch(&self) -> Vec<f32> {
        let planes = if self.spec.padding == 0 { 0 } else { self.spec.in_channels };
        vec![0.0; planes * self.hp * self.wp]
    }

    /// Where row `y` of channel `ch` of the plain image sits in the padded one.
    fn interior(&self, ch: usize, y: usize) -> std::ops::Range<usize> {
        let at = (ch * self.hp + y + self.spec.padding) * self.wp + self.spec.padding;
        at..at + self.w
    }

    /// The image as the tables address it: `img` itself without padding,
    /// else `scratch` with `img` copied into its interior (the border
    /// stays zero from [`scratch`](Self::scratch)).
    fn padded<'a>(&self, scratch: &'a mut [f32], img: &'a [f32]) -> &'a [f32] {
        if self.spec.padding == 0 {
            return img;
        }
        for (ch, plane) in img.chunks_exact(self.h * self.w).enumerate() {
            for (y, row) in plane.chunks_exact(self.w).enumerate() {
                scratch[self.interior(ch, y)].copy_from_slice(row);
            }
        }
        scratch
    }

    /// The adjoint of the gather: folds patch-major `dcols [plen, oh·ow]`
    /// onto `dst [c·h·w]` (zero on entry), through `scratch` when the image
    /// is padded. See [`conv2d_dx`] for why the reverse walk over a
    /// channel's patch entries is [`col2im`]'s summation order.
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

/// Runs `f(scratch, image, slab)` for every `slab`-long stretch of `data`
/// (one per image): on the calling thread when `threads ≤ 1`, else on
/// contiguous bands of images, one per thread. `scratch()` is called once
/// per band, so what it allocates is never paid per image. Images never
/// share output, so the split cannot change a result.
fn for_each_image<S>(
    data: &mut [f32],
    slab: usize,
    threads: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [f32]) + Sync,
) {
    let images = data.len() / slab;
    let band = images.div_ceil(threads.clamp(1, images.max(1)));
    let run = |(bi, chunk): (usize, &mut [f32])| {
        let mut state = scratch();
        for (i, dst) in chunk.chunks_exact_mut(slab).enumerate() {
            f(&mut state, bi * band + i, dst);
        }
    };
    if band >= images {
        run((0, data));
    } else {
        data.par_chunks_mut(band * slab).enumerate().for_each(run);
    }
}

/// Unfolds `input` (NCHW) into patch rows: output is
/// `[n·oh·ow, cin·k·k]`, where row `(img, oy, ox)` holds the receptive
/// field of output pixel `(oy, ox)` of image `img`, zero-padded.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col expects NCHW, got {:?}", input.shape());
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "im2col channel mismatch");
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let plen = spec.patch_len();
    let mut out = Tensor::zeros(&[n * oh * ow, plen]);
    let src = input.data();
    let img_stride = c * h * w;
    let slab = oh * ow * plen;

    for_each_image(
        out.data_mut(),
        slab,
        conv_threads(n, n * slab),
        || (),
        |(), img, img_rows| {
            let base = img * img_stride;
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = &mut img_rows[(oy * ow + ox) * plen..(oy * ow + ox + 1) * plen];
                    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                    let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                    for ch in 0..c {
                        for ky in 0..k {
                            let iy = iy0 + ky as isize;
                            let dst = &mut row[(ch * k + ky) * k..(ch * k + ky + 1) * k];
                            if iy < 0 || iy >= h as isize {
                                dst.fill(0.0);
                                continue;
                            }
                            let src_row = base + ch * h * w + iy as usize * w;
                            for (kx, d) in dst.iter_mut().enumerate() {
                                let ix = ix0 + kx as isize;
                                *d = if ix < 0 || ix >= w as isize {
                                    0.0
                                } else {
                                    src[src_row + ix as usize]
                                };
                            }
                        }
                    }
                }
            }
        },
    );
    out
}

/// Folds patch-row gradients back onto the input: the adjoint of
/// [`im2col`]. `cols` is `[n·oh·ow, cin·k·k]`; the result is NCHW with the
/// given spatial size. Overlapping patches accumulate.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let plen = spec.patch_len();
    assert_eq!(cols.dims(), &[n * oh * ow, plen], "col2im shape");
    let mut out = Tensor::zeros(&[n, spec.in_channels, h, w]);
    let img_stride = spec.in_channels * h * w;
    let rows_per_img = oh * ow;
    let src = cols.data();

    let threads = conv_threads(n, n * rows_per_img * plen);
    for_each_image(
        out.data_mut(),
        img_stride,
        threads,
        || (),
        |(), img, dst| {
            let img_rows = &src[img * rows_per_img * plen..][..rows_per_img * plen];
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = &img_rows[(oy * ow + ox) * plen..(oy * ow + ox + 1) * plen];
                    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                    let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                    for ch in 0..spec.in_channels {
                        for ky in 0..k {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst_row = ch * h * w + iy as usize * w;
                            let srow = &row[(ch * k + ky) * k..(ch * k + ky + 1) * k];
                            for (kx, &v) in srow.iter().enumerate() {
                                let ix = ix0 + kx as isize;
                                if ix >= 0 && ix < w as isize {
                                    dst[dst_row + ix as usize] += v;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    out
}

/// Multiply-adds of one convolution pass (any of the three): the work
/// measure [`conv_threads`] dispatches on.
fn macs(n: usize, ohw: usize, spec: &Conv2dSpec) -> usize {
    n * ohw * spec.patch_len() * spec.out_channels
}

/// Convolution forward pass as an implicit GEMM (module docs).
/// `input` is NCHW, `weight` is `[cout, cin, k, k]`.
/// Returns `[n, cout, oh, ow]`. Per call: two offset tables and `Wᵀ`
/// packed once; per band of images: one padded-image scratch.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "conv2d input channel mismatch");
    assert_eq!(
        weight.dims(),
        &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
        "conv2d weight shape"
    );
    let (oh, ow) = spec.out_hw(h, w);
    let (ohw, plen, cout) = (oh * ow, spec.patch_len(), spec.out_channels);
    let mut out = Tensor::zeros(&[n, cout, oh, ow]);
    let src = input.data();
    let patches = Patches::new(spec, h, w);
    let (base, off) = patches.tables();
    let map = GatherMap::new(base, off);
    // B[l, co] = W[co, l]: the weight matrix is already [cout, plen].
    let mut wt = PackedB::new(plen, cout);
    wt.pack(MatRef::transposed(weight.data(), plen));
    let img_stride = c * h * w;
    let threads = conv_threads(n, macs(n, ohw, spec));
    let scratch = || patches.scratch();
    for_each_image(out.data_mut(), cout * ohw, threads, scratch, |scratch, img, dst| {
        let img = &src[img * img_stride..][..img_stride];
        // Rows are pixels, columns channels; the slab is [cout, ohw].
        gemm_gather(dst, 1, ohw, &map, patches.padded(scratch, img), &wt);
    });
    out
}

/// Convolution weight gradient as an implicit GEMM:
/// `dWᵀ [plen, cout] = Σ_img cols_imgᵀ [plen, oh·ow] × dY_imgᵀ [oh·ow, cout]`
/// with `colsᵀ` read in place from the padded image and that image's `dY`
/// packed per image. `dy` is `[n, cout, oh, ow]`; returns
/// `[cout, cin, k, k]`.
pub fn conv2d_dw(dy: &Tensor, input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let mut dw = Tensor::zeros(&[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel]);
    conv2d_dw_into(dy, input, spec, dw.data_mut());
    dw
}

/// [`conv2d_dw`] written over `dw` (`[cout, cin, k, k]`, flat): every
/// element is stored, whatever `dw` held.
pub fn conv2d_dw_into(dy: &Tensor, input: &Tensor, spec: &Conv2dSpec, dw: &mut [f32]) {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "conv2d_dw input channel mismatch");
    let (oh, ow) = spec.out_hw(h, w);
    let (ohw, plen, cout) = (oh * ow, spec.patch_len(), spec.out_channels);
    assert_eq!(dy.dims(), &[n, cout, oh, ow], "conv2d_dw dy shape");
    assert_eq!(dw.len(), cout * plen, "conv2d_dw output length");
    let patches = Patches::new(spec, h, w);
    let (base, off) = patches.tables();
    let map = GatherMap::new(off, base);
    let mut scratch = patches.scratch();
    let mut dy_img = PackedB::new(ohw, cout);
    // Images accumulate serially into dWᵀ (fixed order — thread-count
    // invariant).
    let mut dwt = vec![0.0f32; plen * cout];
    let images = input.data().chunks_exact(c * h * w).zip(dy.data().chunks_exact(cout * ohw));
    for (img, dy_slab) in images {
        // B[j, co] = dY[co, j].
        dy_img.pack(MatRef::transposed(dy_slab, ohw));
        gemm_gather(&mut dwt, cout, 1, &map, patches.padded(&mut scratch, img), &dy_img);
    }
    for (co, row) in dw.chunks_exact_mut(plen).enumerate() {
        for (l, v) in row.iter_mut().enumerate() {
            *v = dwt[l * cout + co];
        }
    }
}

/// Convolution input gradient: per image, the patch-major
/// `dcolsᵀ [plen, oh·ow] = Wᵀ × dY_img` as an implicit GEMM (A read in
/// place from the weights, B = that image's `dY`), folded onto a padded
/// image and the interior copied out. `dy` is `[n, cout, oh, ow]`;
/// returns `[n, cin, h, w]`.
///
/// The fold is the col2im adjoint in shifted-row form: patch entry
/// `(ch, ky, kx)` adds its whole `oh × ow` plane at offset `(ky, kx)` of
/// channel `ch`. An input pixel is reached from output pixels in
/// ascending order exactly when `ky`, then `kx`, *descend* — so visiting
/// the entries of a channel in reverse reproduces [`col2im`]'s
/// (pixel, patch) summation order element for element, while the inner
/// loop is a contiguous row add instead of a bounds-tested scatter.
pub fn conv2d_dx(dy: &Tensor, weight: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
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
    // A[l, co] = W[co, l], in place.
    let map = GatherMap::new((0..plen).collect(), (0..cout).map(|co| co * plen).collect());
    let img_stride = spec.in_channels * h * w;
    let threads = conv_threads(n, macs(n, ohw, spec));
    let scratch = || (PackedB::new(cout, ohw), vec![0.0f32; plen * ohw], patches.scratch());
    for_each_image(dx.data_mut(), img_stride, threads, scratch, |state, img, dst| {
        let (dy_img, dcols, padded) = state;
        dy_img.pack(MatRef::row_major(&dyd[img * cout * ohw..][..cout * ohw], ohw));
        dcols.fill(0.0);
        gemm_gather(dcols, ohw, 1, &map, wd, dy_img);
        patches.fold(dst, padded, dcols);
    });
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference;
    use crate::{assert_close, Rng};

    fn random(dims: &[usize], rng: &mut Rng) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.normal() as f32).collect(), dims)
    }

    #[test]
    fn out_hw_formula() {
        let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        assert_eq!(spec.out_hw(8, 8), (8, 8)); // same-padding 3x3
        let spec2 = Conv2dSpec { kernel: 3, stride: 2, padding: 1, ..spec };
        assert_eq!(spec2.out_hw(8, 8), (4, 4));
        let spec3 = Conv2dSpec { kernel: 1, stride: 1, padding: 0, ..spec };
        assert_eq!(spec3.out_hw(5, 7), (5, 7));
    }

    #[test]
    fn conv_matches_naive_3x3_pad1() {
        let mut rng = Rng::seed_from_u64(11);
        let spec = Conv2dSpec { in_channels: 3, out_channels: 4, kernel: 3, stride: 1, padding: 1 };
        let x = random(&[2, 3, 6, 6], &mut rng);
        let w = random(&[4, 3, 3, 3], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_strided() {
        let mut rng = Rng::seed_from_u64(12);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let x = random(&[1, 2, 7, 7], &mut rng);
        let w = random(&[3, 2, 3, 3], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_1x1() {
        let mut rng = Rng::seed_from_u64(13);
        let spec = Conv2dSpec { in_channels: 4, out_channels: 2, kernel: 1, stride: 1, padding: 0 };
        let x = random(&[2, 4, 5, 5], &mut rng);
        let w = random(&[2, 4, 1, 1], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_nonsquare_blocksized() {
        // Non-square input, oh·ow and plen straddling the NC/KC boundaries.
        let mut rng = Rng::seed_from_u64(15);
        let spec = Conv2dSpec { in_channels: 5, out_channels: 6, kernel: 3, stride: 1, padding: 1 };
        let x = random(&[1, 5, 9, 13], &mut rng);
        let w = random(&[6, 5, 3, 3], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn fused_dw_matches_naive() {
        let mut rng = Rng::seed_from_u64(16);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let x = random(&[2, 2, 7, 6], &mut rng);
        let (oh, ow) = spec.out_hw(7, 6);
        let dy = random(&[2, 3, oh, ow], &mut rng);
        assert_close(&conv2d_dw(&dy, &x, &spec), &reference::conv2d_dw_ref(&dy, &x, &spec), 1e-4);
    }

    #[test]
    fn fused_dx_matches_naive() {
        let mut rng = Rng::seed_from_u64(17);
        let spec = Conv2dSpec { in_channels: 3, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let w = random(&[2, 3, 3, 3], &mut rng);
        let (oh, ow) = spec.out_hw(5, 8);
        let dy = random(&[2, 2, oh, ow], &mut rng);
        assert_close(
            &conv2d_dx(&dy, &w, &spec, 5, 8),
            &reference::conv2d_dx_ref(&dy, &w, &spec, 5, 8),
            1e-4,
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // checked with random tensors.
        let mut rng = Rng::seed_from_u64(14);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 2, padding: 1 };
        let x = random(&[2, 2, 5, 5], &mut rng);
        let cols = im2col(&x, &spec);
        let y = random(cols.dims(), &mut rng);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 2, 5, 5);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_identity_kernel1() {
        // kernel 1, stride 1, no padding: im2col rows are just the pixels
        // in channel-major order.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 1, kernel: 1, stride: 1, padding: 0 };
        let cols = im2col(&x, &spec);
        assert_eq!(cols.dims(), &[4, 2]);
        // pixel (0,0): channels (0, 4); pixel (0,1): (1, 5)...
        assert_eq!(cols.data(), &[0., 4., 1., 5., 2., 6., 3., 7.]);
    }
}
