//! Convolution kernels: implicit-GEMM forward/backward plus im2col / col2im
//! helpers.
//!
//! No pass materializes or packs the `[n·oh·ow, cin·k·k]` im2col matrix.
//! Over a zero-padded copy of one image (`hp × wp` planes; the image
//! itself when `padding = 0`) element (pixel `j`, patch entry `l`) of that
//! matrix is `padded[base[j] + off[l]]` with
//! `base[j] = oy·s·wp + ox·s` and `off[l] = ch·hp·wp + ky·wp + kx` — two
//! small tables built once per call (`Patches`), after which no inner
//! loop holds a bounds test, a division or a copy, for any stride. The
//! GEMM micro-kernel gathers its A operand through those tables
//! (`gemm_gather`):
//!
//! * [`conv2d`]: rows = pixels, `k` = patch entries, B = `Wᵀ` packed once
//!   per call; each tile is stored transposed, straight into the image's
//!   `[cout, oh·ow]` NCHW slab.
//! * [`conv2d_dw`]: the same operand transposed — rows = patch entries,
//!   `k` = pixels — against that image's `dY`, packed per image;
//!   accumulated over images in order, transposed once at the end.
//! * [`conv2d_dx`]: the transposed convolution — rows = input pixels, one
//!   GEMM per stride parity class, `k` = (tap, `co`) read from a
//!   zero-padded window of that image's `dY` (`DyWindow`), B = the
//!   flipped weights packed once per call; each tile is stored transposed
//!   into the image's `[cin, h·w]` slab.
//!
//! Every output element sees the products and the summation order of the
//! pack-then-multiply kernels these replaced — for the input gradient,
//! those of the col2im fold in between (`reference::conv2d_dx_fold`) — so
//! results are bitwise theirs for finite inputs (`tests/kernel_golden.rs`,
//! DESIGN.md §8.2).
//!
//! `im2col`/`col2im` remain public for tests, the kernel benchmark's seed
//! kernels and external users; no convolution pass calls them.

use super::gemm::{gemm_gather, GatherMap, MatRef, PackedB};
use super::tune::conv_threads;
use crate::buffer::Buffer;
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
/// (module docs): its geometry, its offset tables, and the copy into it.
pub(super) struct Patches {
    pub(super) spec: Conv2dSpec,
    pub(super) h: usize,
    pub(super) w: usize,
    pub(super) hp: usize,
    pub(super) wp: usize,
}

impl Patches {
    pub(super) fn new(spec: &Conv2dSpec, h: usize, w: usize) -> Self {
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
    pub(super) fn scratch(&self) -> Buffer {
        let planes = if self.spec.padding == 0 { 0 } else { self.spec.in_channels };
        Buffer::zeroed(planes * self.hp * self.wp)
    }

    /// Where row `y` of channel `ch` of the plain image sits in the padded one.
    pub(super) fn interior(&self, ch: usize, y: usize) -> std::ops::Range<usize> {
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
}

/// Runs `f(scratch, image, slab)` for every `slab`-long stretch of `data`
/// (one per image): on the calling thread when `threads ≤ 1`, else on
/// contiguous bands of images, one per thread. `scratch()` is called once
/// per band, so what it allocates is never paid per image. Images never
/// share output, so the split cannot change a result.
pub(super) fn for_each_image<S>(
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
pub(super) fn macs(n: usize, ohw: usize, spec: &Conv2dSpec) -> usize {
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
    let map = GatherMap::new(base, off, (0..ohw).collect());
    // B[l, co] = W[co, l]: the weight matrix is already [cout, plen].
    let mut wt = PackedB::new(plen, cout);
    wt.pack(MatRef::transposed(weight.data(), plen));
    let img_stride = c * h * w;
    let threads = conv_threads(n, macs(n, ohw, spec));
    let scratch = || patches.scratch();
    for_each_image(out.data_mut(), cout * ohw, threads, scratch, |scratch, img, dst| {
        let img = &src[img * img_stride..][..img_stride];
        // Rows are pixels, columns channels; the slab is [cout, ohw].
        gemm_gather(dst, ohw, &map, patches.padded(scratch, img), &wt);
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
    let map = GatherMap::new(off, base, (0..plen).map(|l| l * cout).collect());
    let mut scratch = patches.scratch();
    let mut dy_img = PackedB::new(ohw, cout);
    // Images accumulate serially into dWᵀ (fixed order — thread-count
    // invariant).
    let mut dwt = Buffer::zeroed(plen * cout);
    let images = input.data().chunks_exact(c * h * w).zip(dy.data().chunks_exact(cout * ohw));
    for (img, dy_slab) in images {
        // B[j, co] = dY[co, j].
        dy_img.pack(MatRef::transposed(dy_slab, ohw));
        gemm_gather(&mut dwt, 1, &map, patches.padded(&mut scratch, img), &dy_img);
    }
    for (co, row) in dw.chunks_exact_mut(plen).enumerate() {
        for (l, v) in row.iter_mut().enumerate() {
            *v = dwt[l * cout + co];
        }
    }
}

/// One axis of [`conv2d_dx`]'s `dY` window: the input and output extents
/// and the output indices `lo .. lo + win` that some input pixel's taps
/// reach. `lo < 0` or `lo + win > out` pads `dY` with zeros on that side;
/// `lo > 0` or `lo + win < out` crops rows no tap reaches (when
/// `p ≥ k`).
#[derive(Clone, Copy)]
struct Axis {
    len: usize,
    out: usize,
    lo: isize,
    win: usize,
}

impl Axis {
    fn new(len: usize, out: usize, spec: &Conv2dSpec) -> Self {
        let (k, s, p) = (spec.kernel as isize, spec.stride as isize, spec.padding as isize);
        // Input index i reaches output (i + p − kk) / s for kernel index kk:
        // the least is ⌈(p − k + 1) / s⌉ (at i = 0), the greatest
        // ⌊(len − 1 + p) / s⌋.
        let least = p - k + 1;
        let lo = if least <= 0 { -(-least / s) } else { (least + s - 1) / s };
        let hi = (len as isize - 1 + p) / s + 1;
        Axis { len, out, lo, win: (hi - lo).max(0) as usize }
    }

    /// `(taps, pixels)` of parity class `r`: the input indices `i` with
    /// `(i + p) mod s = r`, each with the window index its last tap reads,
    /// and how many taps they have — kernel indices `r, r + s, …` below
    /// `k`. Tap `m` of pixel `i` reads output `(i + p) / s − m`.
    fn class(&self, spec: &Conv2dSpec, r: usize) -> (usize, Vec<(usize, usize)>) {
        let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
        if r >= k {
            return (0, Vec::new());
        }
        let taps = (k - 1 - r) / s + 1;
        let pixels = (0..self.len)
            .filter(|i| (i + p) % s == r)
            .map(|i| {
                let last = ((i + p) / s) as isize - taps as isize + 1;
                (i, (last - self.lo) as usize)
            })
            .collect();
        (taps, pixels)
    }

    /// The stretch of `dY` inside the window: `(first output index, its
    /// window index, count)`.
    fn overlap(&self) -> (usize, usize, usize) {
        let first = self.lo.max(0);
        let end = (self.lo + self.win as isize).min(self.out as isize);
        (first as usize, (first - self.lo) as usize, (end - first).max(0) as usize)
    }

    fn is_whole(&self) -> bool {
        self.lo == 0 && self.win == self.out
    }
}

/// The `dY` image [`conv2d_dx`] gathers from: both axes' windows, `cout`
/// planes of `y.win × x.win`.
struct DyWindow {
    cout: usize,
    y: Axis,
    x: Axis,
}

impl DyWindow {
    /// Whether the window is all of `dY`, which is then read in place.
    fn in_place(&self) -> bool {
        self.y.is_whole() && self.x.is_whole()
    }

    /// A zeroed window (empty when `dY` is read in place).
    fn scratch(&self) -> Buffer {
        if self.in_place() {
            return Buffer::zeroed(0);
        }
        Buffer::zeroed(self.cout * self.y.win * self.x.win)
    }

    /// The window over `dy` (one image): `dy` itself when the window is
    /// all of it, else `scratch` with `dy`'s overlap copied in (the rest
    /// stays zero from [`scratch`](Self::scratch)).
    fn fill<'a>(&self, scratch: &'a mut [f32], dy: &'a [f32]) -> &'a [f32] {
        if self.in_place() {
            return dy;
        }
        let ((y0, wy0, ny), (x0, wx0, nx)) = (self.y.overlap(), self.x.overlap());
        let plane = self.y.win * self.x.win;
        for (co, src) in dy.chunks_exact(self.y.out * self.x.out).enumerate() {
            for r in 0..ny {
                let from = &src[(y0 + r) * self.x.out + x0..][..nx];
                scratch[co * plane + (wy0 + r) * self.x.win + wx0..][..nx].copy_from_slice(from);
            }
        }
        scratch
    }

    /// Parity class `(ry, rx)` as one implicit GEMM over the window: rows
    /// its pixels in raster order, stored at their place in the `[cin,
    /// h·w]` slab; depth its taps in descending `(ky, kx)`, `cout` rows
    /// each; B the flipped weights `B[(tap, co), ci] = W[co, ci, ky, kx]`,
    /// packed straight from `W`. `None` when no pixel or no tap is in the class.
    fn class(
        &self,
        spec: &Conv2dSpec,
        ry: usize,
        rx: usize,
        w: &[f32],
    ) -> Option<(GatherMap, PackedB)> {
        let ((ty, ys), (tx, xs)) = (self.y.class(spec, ry), self.x.class(spec, rx));
        if ty * tx == 0 || ys.is_empty() || xs.is_empty() {
            return None;
        }
        let (cin, k, s) = (spec.in_channels, spec.kernel, spec.stride);
        let (ww, plane) = (self.x.win, self.y.win * self.x.win);
        let mut row_off = Vec::with_capacity(ys.len() * xs.len());
        let mut out_off = Vec::with_capacity(ys.len() * xs.len());
        for &(iy, wy) in &ys {
            for &(ix, wx) in &xs {
                row_off.push(wy * ww + wx);
                out_off.push(iy * self.x.len + ix);
            }
        }
        let mut k_off = Vec::with_capacity(ty * tx * self.cout);
        let mut b = PackedB::new(ty * tx * self.cout, cin);
        for my in (0..ty).rev() {
            for mx in (0..tx).rev() {
                let (ky, kx) = (ry + my * s, rx + mx * s);
                // Tap m reads m rows above the last tap's row.
                let shift = (ty - 1 - my) * ww + (tx - 1 - mx);
                k_off.extend((0..self.cout).map(|co| co * plane + shift));
                // This tap's [cout, cin] block of W, read in place.
                let tap = MatRef { data: &w[ky * k + kx..], rs: cin * k * k, cs: k * k };
                b.pack_rows(k_off.len() - self.cout, tap, self.cout);
            }
        }
        Some((GatherMap::new(row_off, k_off, out_off).taps(self.cout), b))
    }
}

/// Convolution input gradient as a transposed convolution: an implicit
/// GEMM whose rows are input pixels, columns `cin` and depth (tap, `co`),
/// with A gathered in place from one zero-padded `dY` image per band
/// (`DyWindow`) and B the flipped weights, packed once per call. `dy`
/// is `[n, cout, oh, ow]`; returns `[n, cin, h, w]`.
///
/// **Parity classes.** Input pixel `(y, x)` is reached by tap `(ky, kx)`
/// when `ky ≡ y + p` and `kx ≡ x + p (mod s)`, so the pixels split into
/// `s²` classes with one tap set each, and each class is one gathered GEMM
/// whose tiles are stored straight into the image's slab. A class no tap
/// reaches (`s > k`) is skipped: its pixels stay +0.
///
/// **Bitwise the col2im fold it replaced** (`reference::conv2d_dx_fold`)
/// for finite inputs. There, `dcols[(ch, ky, kx), j]` was an fma chain
/// over ascending `co` from zero, restarted at every `KC` boundary, and
/// folding visited a channel's patch entries in descending `(ky, kx)` —
/// ascending output pixel — onto +0. Here a tap is the same chain, the
/// pieces of a tap are summed the same way, and a pixel's taps are added
/// in the same descending `(ky, kx)` to a total that starts at +0
/// (`GatherMap::taps`). The rows `dY` lacks — taps that reach past its
/// edge, which the fold never formed — read the window's zeros: each such
/// product is ±0, its chain from +0 stays +0, and +0 added to a total
/// that is never −0 (it starts at +0, and a sum is −0 only when both
/// addends are) changes nothing. With a non-finite weight, though, that
/// product is NaN: the output is non-finite wherever the fold's is, and
/// possibly at pixels the fold left finite.
pub fn conv2d_dx(dy: &Tensor, weight: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
    let n = dy.dims()[0];
    let (oh, ow) = spec.out_hw(h, w);
    let (ohw, cin, cout) = (oh * ow, spec.in_channels, spec.out_channels);
    assert_eq!(dy.dims(), &[n, cout, oh, ow], "conv2d_dx dy shape");
    assert_eq!(
        weight.dims(),
        &[cout, spec.in_channels, spec.kernel, spec.kernel],
        "conv2d_dx weight shape"
    );
    let mut dx = Tensor::zeros(&[n, cin, h, w]);
    let dyd = dy.data();
    let window = DyWindow { cout, y: Axis::new(h, oh, spec), x: Axis::new(w, ow, spec) };
    let s = spec.stride;
    let classes: Vec<_> =
        (0..s * s).filter_map(|c| window.class(spec, c / s, c % s, weight.data())).collect();
    let threads = conv_threads(n, macs(n, ohw, spec));
    for_each_image(
        dx.data_mut(),
        cin * h * w,
        threads,
        || window.scratch(),
        |scratch, img, dst| {
            let src = window.fill(scratch, &dyd[img * cout * ohw..][..cout * ohw]);
            for (map, b) in &classes {
                gemm_gather(dst, h * w, map, src, b);
            }
        },
    );
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
    fn non_finite_inputs_give_non_finite_outputs_wherever_the_fold_does() {
        let mut rng = Rng::seed_from_u64(18);
        for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 1), (2, 3, 2), (5, 1, 0), (1, 2, 0)] {
            let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel, stride, padding };
            let (h, w) = (7, 6);
            let (oh, ow) = spec.out_hw(h, w);
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                // A corner, an interior element, then the same in dY.
                for (in_w, at) in [(true, 0), (true, 13), (false, 0), (false, 2 * oh * ow + 5)] {
                    let mut wt = random(&[3, 2, kernel, kernel], &mut rng);
                    let mut dy = random(&[2, 3, oh, ow], &mut rng);
                    let target = if in_w { &mut wt } else { &mut dy };
                    let at = at % target.numel();
                    target.data_mut()[at] = bad;
                    let got = conv2d_dx(&dy, &wt, &spec, h, w);
                    let fold = reference::conv2d_dx_fold(&dy, &wt, &spec, h, w);
                    for (i, (g, f)) in got.data().iter().zip(fold.data()).enumerate() {
                        assert!(
                            f.is_finite() || !g.is_finite(),
                            "{spec:?}, {bad} in {}[{at}]: element {i} is {g}, the fold's {f}",
                            if in_w { "W" } else { "dY" }
                        );
                    }
                }
            }
        }
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
