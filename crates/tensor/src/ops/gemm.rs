//! Cache-blocked, register-tiled GEMM with panel packing.
//!
//! Two drivers share one blocking scheme. `gemm` is the packed product
//! behind `matmul`, `matmul_tn` and `matmul_nt`: the operand layout is
//! abstracted as a [`MatRef`] (base slice plus row/column strides), so a
//! transposed operand is handled by the packing routine rather than by a
//! materialized transpose. `gemm_gather` is the implicit GEMM behind the
//! convolutions (`ops::conv`), and behind a `matmul` or `matmul_nt` of at
//! most `MC` rows with the roles swapped (`ops::matmul`, whose weight
//! matrix it reads in place): its A operand is never packed at all — the
//! micro-kernel fetches element `(i, l)` as `src[row_off[i] + k_off[l]]`
//! through a `GatherMap`, which is how an im2col matrix is read straight
//! out of a padded image — and its B operand is packed once, whole, into a
//! `PackedB` the caller owns. The map also says where each row's result
//! goes and how its depth is summed (`GatherMap::taps`), and on AVX2 hosts
//! its register tile follows B's width (`gemm_gather`).
//!
//! Blocking follows the classic three-loop structure (Goto/BLIS): the
//! output is swept in `NC`-wide column slabs; for each slab, `KC`-deep
//! panels of B are packed once into a contiguous `NR`-lane layout; `MC`-row
//! panels of A are packed into `MR`-row micro-panels; and an `MR × NR`
//! register-tile micro-kernel accumulates over the packed panels with
//! unit-stride loads the auto-vectorizer turns into packed FMAs.
//!
//! # Thread-count invariance
//!
//! Parallelism splits only the output rows into contiguous bands (sized
//! with `div_ceil` so the last band is never larger than the others). The
//! value of output element `(i, j)` is accumulated in `pc`-block order and,
//! within a block, in ascending `k` order — neither depends on which band
//! `i` landed in, so results are bitwise identical for any thread count.
//! `tests/properties.rs` pins this contract.

use super::tune::{KC, MC, MR, NC, NR};
use crate::buffer::Buffer;
use rayon::prelude::*;

/// A strided view of an `f32` matrix: element `(i, j)` lives at
/// `data[i * rs + j * cs]`. A row-major `[m, k]` matrix is
/// `rs = k, cs = 1`; its transpose is viewed with `rs = 1, cs = k` —
/// no data movement.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major view of a `[rows, cols]` matrix.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        MatRef { data, rs: cols, cs: 1 }
    }

    /// Transposed view of a row-major `[rows, cols]` matrix (logical shape
    /// `[cols, rows]`).
    pub fn transposed(data: &'a [f32], cols: usize) -> Self {
        MatRef { data, rs: 1, cs: cols }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// View advanced by `rows` logical rows.
    fn offset_rows(&self, rows: usize) -> MatRef<'a> {
        MatRef { data: &self.data[rows * self.rs..], rs: self.rs, cs: self.cs }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR`-lane panels: panel `p`, at
/// `dst[p·stride ..]`, holds columns `jc + p·NR ..`, laid out k-major
/// (`kc` rows of `NR` lanes each), zero-padded past `nc` so the
/// micro-kernel never branches on tails.
///
/// Inlined into both callers: a shared out-of-line copy measured ≈ 10 %
/// slower on products whose time is mostly B packing.
#[inline(always)]
fn pack_b_strided(
    dst: &mut [f32],
    b: MatRef<'_>,
    (pc, kc): (usize, usize),
    (jc, nc): (usize, usize),
    stride: usize,
) {
    let panels = nc.div_ceil(NR);
    for p in 0..panels {
        let j0 = jc + p * NR;
        let lanes = NR.min(jc + nc - j0);
        let panel = &mut dst[p * stride..p * stride + kc * NR];
        for l in 0..kc {
            let row = &mut panel[l * NR..l * NR + NR];
            for (lane, r) in row.iter_mut().enumerate().take(lanes) {
                *r = b.at(pc + l, j0 + lane);
            }
            row[lanes..].fill(0.0);
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into `MR`-row micro-panels: panel `q`
/// holds rows `ic + q·MR ..`, laid out k-major (`kc` columns of `MR` rows
/// each), zero-padded past `mc`.
fn pack_a_strided(dst: &mut [f32], a: MatRef<'_>, ic: usize, mc: usize, pc: usize, kc: usize) {
    let panels = mc.div_ceil(MR);
    for q in 0..panels {
        let i0 = ic + q * MR;
        let rows = MR.min(ic + mc - i0);
        let panel = &mut dst[q * kc * MR..(q + 1) * kc * MR];
        for l in 0..kc {
            let col = &mut panel[l * MR..l * MR + MR];
            for (r, c) in col.iter_mut().enumerate().take(rows) {
                *c = a.at(i0 + r, pc + l);
            }
            col[rows..].fill(0.0);
        }
    }
}

/// The register-tile micro-kernel: `acc[r][c] += Σ_l ap[l][r] · bp[l][c]`
/// over one packed A micro-panel (`kc × MR`, k-major) and one packed B
/// panel (`kc × NR`, k-major). The whole accumulator block stays in
/// registers; the `NR`-wide inner loop is a unit-stride FMA the
/// auto-vectorizer packs into SIMD.
#[inline(always)]
fn micro_kernel(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    // Const-size array refs (not slices) so every lane access is
    // bounds-check-free and the r/c loops fully unroll.
    for l in 0..kc {
        let av: &[f32; MR] = ap[l * MR..l * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = bp[l * NR..l * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let a = av[r];
            for c in 0..NR {
                acc[r][c] += a * bv[c];
            }
        }
    }
}

/// AVX2+FMA build of the same micro-kernel, selected at runtime and written
/// with explicit intrinsics: under thin LTO the surrounding loop nest is
/// cloned into every caller and the autovectorizer's choices vary per clone
/// (measured 2× swings between binaries); intrinsics pin the codegen. The
/// accumulator block is `MR × NR/8 = 8` `ymm` registers — enough
/// independent chains to cover FMA latency at two issues per cycle.
///
/// Each output element still accumulates in ascending-`l` order, one
/// `fmadd` per step, so results are bitwise identical across thread counts
/// (and across this kernel vs. any scalar `mul_add` formulation). Numerics
/// differ from the portable non-FMA kernel by the fused multiply's skipped
/// intermediate rounding — a per-*machine* property, constant within a
/// process, so thread-count invariance is unaffected.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA (see
/// [`avx2_fma_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    const { assert!(MR == 4 && NR == 16, "intrinsic kernel is tiled for MR=4, NR=16") };
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    // SAFETY: panel extents checked above; lane offsets stay within one
    // kc-row of the packed panels.
    unsafe {
        let mut accv = [[_mm256_setzero_ps(); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            accv[r][0] = _mm256_loadu_ps(row.as_ptr());
            accv[r][1] = _mm256_loadu_ps(row.as_ptr().add(8));
        }
        for l in 0..kc {
            let bptr = bp.as_ptr().add(l * NR);
            let b0 = _mm256_loadu_ps(bptr);
            let b1 = _mm256_loadu_ps(bptr.add(8));
            let aptr = ap.as_ptr().add(l * MR);
            for (r, accr) in accv.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*aptr.add(r));
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_ps(row.as_mut_ptr(), accv[r][0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), accv[r][1]);
        }
    }
}

/// One-time CPUID probe for the fast micro-kernel. A process-global
/// constant: every thread sees the same answer, so kernel selection can
/// never vary across a parallel band split.
#[cfg(target_arch = "x86_64")]
fn avx2_fma_available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[inline(always)]
fn micro_kernel_dispatch(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: guarded by the CPUID probe above.
        unsafe { micro_kernel_avx2(ap, bp, kc, acc) };
        return;
    }
    micro_kernel(ap, bp, kc, acc)
}

/// Serial blocked GEMM over a band of output rows:
/// `c[0..rows, 0..n] += A[0..rows, 0..k] · B[0..k, 0..n]`.
fn gemm_band(c: &mut [f32], rows: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>) {
    debug_assert_eq!(c.len(), rows * n);
    // Size the packing buffers to the problem (capped at one full block) so
    // small GEMMs don't pay for a 320 KB allocation they won't use.
    let kc_max = KC.min(k).max(1);
    let nc_max = NC.min(n.div_ceil(NR) * NR).max(NR);
    let mc_max = MC.min(rows.div_ceil(MR) * MR).max(MR);
    let mut apack = vec![0.0f32; mc_max * kc_max];
    let mut bpack = vec![0.0f32; kc_max * nc_max];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let jpanels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b_strided(&mut bpack, b, (pc, kc), (jc, nc), kc * NR);
            for ic in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ic);
                pack_a_strided(&mut apack, a, ic, mc, pc, kc);
                let ipanels = mc.div_ceil(MR);
                for p in 0..jpanels {
                    let bp = &bpack[p * kc * NR..(p + 1) * kc * NR];
                    let j0 = jc + p * NR;
                    let lanes = NR.min(jc + nc - j0);
                    for q in 0..ipanels {
                        let ap = &apack[q * kc * MR..(q + 1) * kc * MR];
                        let i0 = ic + q * MR;
                        let tile_rows = MR.min(ic + mc - i0);
                        let mut acc = [[0.0f32; NR]; MR];
                        micro_kernel_dispatch(ap, bp, kc, &mut acc);
                        for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                            let out = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + lanes];
                            for (o, &v) in out.iter_mut().zip(acc_row) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packed, blocked, optionally banded GEMM:
/// `c[0..m, 0..n] += A · B` with both operands as strided views.
///
/// `threads` > 1 splits the output rows into `div_ceil`-sized contiguous
/// bands, one per thread; each band packs its own panels, so no
/// synchronization (and no cross-band floating-point reassociation)
/// occurs.
pub(crate) fn gemm(
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    threads: usize,
) {
    if threads <= 1 || m < 2 {
        gemm_band(c, m, n, k, a, b);
        return;
    }
    // Round the band size *up* so the last band can only be smaller than
    // the others, never (nearly) twice as large.
    let band = m.div_ceil(threads.min(m));
    c.par_chunks_mut(band * n).enumerate().for_each(|(bi, c_band)| {
        let rows = c_band.len() / n;
        gemm_band(c_band, rows, n, k, a.offset_rows(bi * band), b);
    });
}

/// A whole `k × n` B operand in micro-kernel layout, packed once and then
/// read by every [`gemm_gather`] call that shares it (all images of a
/// convolution, all bands of a forked one). The `NR`-lane panels follow
/// each other, each `k` rows deep and laid out as [`pack_b_strided`]
/// writes them, dead lanes zeroed, so any depth range of a panel — a `KC`
/// block or one tap of a transposed convolution — is one contiguous slice.
pub(crate) struct PackedB {
    data: Buffer,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Storage for a `k × n` operand; [`pack`](Self::pack) fills it.
    pub(crate) fn new(k: usize, n: usize) -> Self {
        PackedB { data: Buffer::zeroed(k * n.div_ceil(NR) * NR), k, n }
    }

    /// (Re)packs `b`, a view of logical shape `k × n`.
    pub(crate) fn pack(&mut self, b: MatRef<'_>) {
        self.pack_rows(0, b, self.k);
    }

    /// Packs `b`, a view of logical shape `rows × n`, as rows `at .. at +
    /// rows` of the operand.
    pub(crate) fn pack_rows(&mut self, at: usize, b: MatRef<'_>, rows: usize) {
        assert!(at + rows <= self.k, "rows {at}..{} of a {}-row operand", at + rows, self.k);
        pack_b_strided(&mut self.data[at * NR..], b, (0, rows), (0, self.n), self.k * NR);
    }

    /// Panel `p`: rows `0..k` of columns `p·NR ..`, `NR` floats per row.
    fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * NR..(p + 1) * self.k * NR]
    }
}

/// The index half of a virtual A operand, and where its product goes:
/// element `(i, l)` of the `row_off.len() × k_off.len()` matrix lives at
/// `src[row_off[i] + k_off[l]]` of whatever slice [`gemm_gather`] is
/// handed, and row `i` of the product is added to `c[out_off[i] + j·c_cs]`.
/// Separable offsets are what make an im2col matrix readable in place:
/// pixel `j` of patch entry `l` sits at `base[j] + off[l]` of the
/// zero-padded image, for any stride, with no bounds test, division or
/// copy.
///
/// The fields are private so that [`limit`](Self::limit) — the one bound
/// the micro-kernel's unchecked reads rest on — cannot go stale.
pub(crate) struct GatherMap {
    row_off: Vec<usize>,
    k_off: Vec<usize>,
    out_off: Vec<usize>,
    /// Depth rows per tap; 0 when the depth is not tapped ([`taps`](Self::taps)).
    tap: usize,
    /// One past the largest index any `(i, l)` pair can form.
    limit: usize,
}

impl GatherMap {
    pub(crate) fn new(row_off: Vec<usize>, k_off: Vec<usize>, out_off: Vec<usize>) -> Self {
        assert_eq!(row_off.len(), out_off.len(), "one output offset per gathered row");
        let max = |v: &[usize]| v.iter().copied().max().unwrap_or(0);
        let limit = max(&row_off)
            .checked_add(max(&k_off))
            .and_then(|m| m.checked_add(1))
            .expect("gather offsets overflow usize");
        GatherMap { row_off, k_off, out_off, tap: 0, limit }
    }

    /// Sums the depth as consecutive taps of `len` rows (the depth must be
    /// whole taps) instead of in `KC` blocks added to C one by one: see
    /// [`gather_tiles`].
    pub(crate) fn taps(self, len: usize) -> Self {
        assert!(len > 0 && self.k_off.len().is_multiple_of(len), "depth must be whole taps");
        GatherMap { tap: len, ..self }
    }
}

/// The `MR × NR` accumulator block of the portable gathered kernel.
type Tile = [[f32; NR]; MR];

/// The gathered-A twin of [`micro_kernel`]: the same ascending-`l` chain
/// from zero, with the `MR` A values of step `l` read as `src[ro[r] +
/// k_off[l]]` instead of from a packed micro-panel.
#[inline(always)]
fn gather_kernel(src: &[f32], ro: &[usize; MR], k_off: &[usize], bp: &[f32]) -> Tile {
    let mut chain = [[0.0f32; NR]; MR];
    for (l, &ko) in k_off.iter().enumerate() {
        let bv: &[f32; NR] = bp[l * NR..l * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let a = src[ro[r] + ko];
            for c in 0..NR {
                chain[r][c] += a * bv[c];
            }
        }
    }
    chain
}

/// `a + b`, element by element.
#[inline(always)]
fn add_tile(mut a: Tile, b: Tile) -> Tile {
    for (a, b) in a.iter_mut().zip(b) {
        for (a, b) in a.iter_mut().zip(b) {
            *a += b;
        }
    }
    a
}

/// Adds the live `lanes` of each tile row to C: row `r` at `out[r]`,
/// column `j0 + j` at `j·c_cs` past it.
#[inline(always)]
fn add_to_c(c: &mut [f32], c_cs: usize, tile: &[[f32; NR]], out: &[usize], (j0, lanes): Span) {
    for (&o, row) in out.iter().zip(tile) {
        let at = o + j0 * c_cs;
        if c_cs == 1 {
            for (o, &v) in c[at..at + lanes].iter_mut().zip(row) {
                *o += v;
            }
        } else {
            for (j, &v) in row.iter().enumerate().take(lanes) {
                c[at + j * c_cs] += v;
            }
        }
    }
}

/// The gathered-A twin of [`micro_kernel_avx2`] over an `R`-row tile of
/// `V` `ymm`s per row: one `fmadd` per step and element in ascending `l`,
/// from zero, broadcasting `src[ro[r] + k_off[l]]` against the first
/// `8·V` lanes of B row `l`. A chain is therefore bitwise the packed
/// kernel's (the two differ only in where the broadcast loads from), for
/// any `R` and `V`. Kept beside it rather than sharing a body: a shared,
/// closure-fed body cost the packed matmul path 3–10 %.
///
/// # Safety
/// The host must support AVX2 and FMA; `bp` must point at `k_off.len() ·
/// NR` values; every `ro[r] + k_off[l]` must be below `src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn gather_chain_avx2<const R: usize, const V: usize>(
    src: &[f32],
    ro: &[usize; R],
    k_off: &[usize],
    bp: *const f32,
) -> Ymm<R, V> {
    use std::arch::x86_64::*;
    const { assert!(V * 8 <= NR, "a row is at most one B panel wide") };
    // SAFETY: panel extent and gather bound are the caller's contract.
    unsafe {
        let mut chain = [[_mm256_setzero_ps(); V]; R];
        for (l, &ko) in k_off.iter().enumerate() {
            let bptr = bp.add(l * NR);
            let b: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(bptr.add(8 * v)));
            for (r, ch) in chain.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*src.as_ptr().add(ro[r] + ko));
                for (ch, &b) in ch.iter_mut().zip(&b) {
                    *ch = _mm256_fmadd_ps(a, b, *ch);
                }
            }
        }
        chain
    }
}

/// An `R × 8V` tile in `ymm` registers.
#[cfg(target_arch = "x86_64")]
type Ymm<const R: usize, const V: usize> = [[std::arch::x86_64::__m256; V]; R];

/// Adds an `R × 8V` register tile to C, as [`add_to_c`] does. Row-major
/// with every lane live, each row is `V` vector adds in place. When the
/// rows are consecutive and stored transposed (`R` pixels of a
/// convolution's NCHW slab), each 8-lane group goes through an in-register
/// 8 × 8 transpose, and each live column is one vector add of its `R`
/// values (masked below 8). Anything else goes through memory and
/// [`add_to_c`]. Each element of C gets the same one addition either way.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn add_ymm_to_c<const R: usize, const V: usize>(
    c: &mut [f32],
    c_cs: usize,
    tile: Ymm<R, V>,
    out: &[usize],
    (j0, lanes): Span,
) {
    use std::arch::x86_64::*;
    const { assert!(R <= 8, "a tile is at most 8 rows") };
    // SAFETY: every pointer comes from a bounds-checked slice of the
    // length it is read and written at; the mask keeps lanes `R..` of a
    // short column untouched.
    unsafe {
        let add = |dst: &mut [f32], v| {
            let p = dst.as_mut_ptr();
            if dst.len() == 8 {
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v));
            } else {
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(dst.len() as i32), lane);
                _mm256_maskstore_ps(p, mask, _mm256_add_ps(_mm256_maskload_ps(p, mask), v));
            }
        };
        if c_cs == 1 && lanes == 8 * V {
            for (&o, row) in out.iter().zip(tile) {
                for (v, row) in row.into_iter().enumerate() {
                    add(&mut c[o + j0 + 8 * v..][..8], row);
                }
            }
        } else if c_cs != 1 && out.len() == R && out.windows(2).all(|w| w[1] == w[0] + 1) {
            for v in 0..V {
                let rows =
                    std::array::from_fn(|r| if r < R { tile[r][v] } else { _mm256_setzero_ps() });
                for (j, col) in transpose8(rows).into_iter().enumerate() {
                    if 8 * v + j < lanes {
                        add(&mut c[out[0] + (j0 + 8 * v + j) * c_cs..][..R], col);
                    }
                }
            }
        } else {
            let mut mem = [[0.0f32; NR]; R];
            for (m, row) in mem.iter_mut().zip(tile) {
                for (v, row) in row.into_iter().enumerate() {
                    _mm256_storeu_ps(m[8 * v..][..8].as_mut_ptr(), row);
                }
            }
            add_to_c(c, c_cs, &mem, out, (j0, lanes));
        }
    }
}

/// The transpose of an 8 × 8 block held as eight rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let lo = |a, b| _mm256_unpacklo_ps(a, b);
    let hi = |a, b| _mm256_unpackhi_ps(a, b);
    let t = [lo(r[0], r[1]), hi(r[0], r[1]), lo(r[2], r[3]), hi(r[2], r[3])];
    let u = [lo(r[4], r[5]), hi(r[4], r[5]), lo(r[6], r[7]), hi(r[6], r[7])];
    // Rows 0–3 (and 4–7) of columns 0, 1, 2, 3 in the low halves, of
    // columns 4, 5, 6, 7 in the high ones.
    let quad = |t: [__m256; 4]| {
        [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xee>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xee>(t[1], t[3]),
        ]
    };
    let (s, q) = (quad(t), quad(u));
    std::array::from_fn(|j| {
        if j < 4 {
            _mm256_permute2f128_ps::<0x20>(s[j], q[j])
        } else {
            _mm256_permute2f128_ps::<0x31>(s[j - 4], q[j - 4])
        }
    })
}

/// Where a tile's columns are: its first column and how many are live.
type Span = (usize, usize);

/// A tile's block total: `+0 + tap₀ + tap₁ + …` over the consecutive
/// `tap`-row taps of its depth `k`, a tap being `chain(rows)` when it is
/// at most `KC` deep and else `+0 + piece₀ + piece₁ + …` over its
/// `KC`-deep pieces — the order of a transposed convolution's col2im fold
/// over its `KC`-blocked `dcols` (`ops::conv`). Untapped, `tap = KC` and a
/// block is at most `KC` deep: the total is `+0 + chain`.
#[inline(always)]
fn block_total<T: Copy>(
    k: usize,
    tap: usize,
    zero: T,
    add: impl Fn(T, T) -> T,
    chain: impl Fn(std::ops::Range<usize>) -> T,
) -> T {
    debug_assert!(tap > 0);
    // `while` rather than `step_by`, whose zero-step panic path would keep
    // values live across the chain and cost it registers.
    let (mut total, mut t0) = (zero, 0);
    while t0 < k {
        let t1 = k.min(t0 + tap);
        let sum = if t1 - t0 <= KC {
            chain(t0..t1)
        } else {
            let (mut sum, mut pc) = (zero, t0);
            while pc < t1 {
                let pe = t1.min(pc + KC);
                sum = add(sum, chain(pc..pe));
                pc = pe;
            }
            sum
        };
        total = add(total, sum);
        t0 = t1;
    }
    total
}

/// Implicit GEMM: `C += A · B` with A read in place through `map` from
/// `src` and B pre-packed. Row `i` of C starts at `c[map.out_off[i]]` and
/// its columns are `c_cs` apart, so a tile can be stored row-major,
/// transposed (the `[cout, oh·ow]` NCHW slab of a convolution whose GEMM
/// rows are pixels) or scattered (one parity class of a strided
/// transposed convolution).
///
/// Untapped, blocking and accumulation order are [`gemm_band`]'s:
/// `KC`-deep blocks in ascending order, each summed from zero in ascending
/// `k` and then added to C, so a product computed here is bitwise the
/// product the packed driver computes for the same operands (in either A/B
/// role — `fma(a, b, c)` is symmetric in `a` and `b`). Tapped, see
/// [`gather_tiles`].
///
/// On AVX2 hosts the register tile follows the width of B: with at most 8
/// columns (a convolution with 8 output, or input, channels) 8 rows × one
/// `ymm`, so no `fmadd` computes a dead lane; otherwise 6 rows × two
/// `ymm`s. Tapped tiles are 4 rows of one or two `ymm`s: their running
/// total lives in registers beside the chain. No tile shape changes an
/// element's arithmetic.
pub(crate) fn gemm_gather(c: &mut [f32], c_cs: usize, map: &GatherMap, src: &[f32], b: &PackedB) {
    assert_eq!(map.k_off.len(), b.k, "gather depth vs packed B depth");
    // The bound every unchecked read of the AVX2 kernel relies on.
    assert!(map.limit <= src.len(), "gather map reaches {} of {}", map.limit, src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: guarded by the CPUID probe and the assert above.
        unsafe {
            match (map.tap != 0, b.n > 8) {
                (false, false) => gemm_gather_avx2::<8, 1>(c, c_cs, map, src, b),
                (false, true) => gemm_gather_avx2::<6, 2>(c, c_cs, map, src, b),
                (true, false) => gemm_gather_avx2::<4, 1>(c, c_cs, map, src, b),
                (true, true) => gemm_gather_avx2::<4, 2>(c, c_cs, map, src, b),
            }
        }
        return;
    }
    gemm_gather_portable(c, c_cs, map, src, b)
}

/// [`gemm_gather`] on `MR × NR` tiles of [`gather_kernel`].
fn gemm_gather_portable(c: &mut [f32], c_cs: usize, map: &GatherMap, src: &[f32], b: &PackedB) {
    gather_tiles(map, b, |ro, k_off, bp, tap, out, span| {
        let total = block_total(k_off.len(), tap, [[0.0; NR]; MR], add_tile, |rows| {
            gather_kernel(src, ro, &k_off[rows.clone()], &bp[rows.start * NR..rows.end * NR])
        });
        add_to_c(c, c_cs, &total, out, span)
    })
}

/// [`gemm_gather`] on `R × 8V` tiles of [`gather_tile_avx2`].
///
/// # Safety
/// The host must support AVX2 and FMA, and `map.limit ≤ src.len()`.
#[cfg(target_arch = "x86_64")]
unsafe fn gemm_gather_avx2<const R: usize, const V: usize>(
    c: &mut [f32],
    c_cs: usize,
    map: &GatherMap,
    src: &[f32],
    b: &PackedB,
) {
    gather_tiles(map, b, |ro, k_off, bp, tap, out, span| {
        // SAFETY: the caller's contract.
        unsafe { gather_tile_avx2::<R, V>(c, c_cs, src, ro, k_off, bp, tap, out, span) }
    })
}

/// One tile of [`gemm_gather_avx2`], from its first `fmadd` to the C
/// update with the tile in registers throughout. Out of line, so that the
/// chain has the general-purpose registers to itself: inlined into the
/// tile loop, the eight row offsets of an 8-row tile were reloaded from
/// the stack at every step.
///
/// # Safety
/// The host must support AVX2 and FMA; `bp` must hold `k_off.len() · NR`
/// values; every `ro[r] + k_off[l]` must be below `src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_tile_avx2<const R: usize, const V: usize>(
    c: &mut [f32],
    c_cs: usize,
    src: &[f32],
    ro: &[usize; R],
    k_off: &[usize],
    bp: &[f32],
    tap: usize,
    out: &[usize],
    span: Span,
) {
    use std::arch::x86_64::*;
    let add = |a: Ymm<R, V>, b: Ymm<R, V>| -> Ymm<R, V> {
        std::array::from_fn(|r| std::array::from_fn(|v| _mm256_add_ps(a[r][v], b[r][v])))
    };
    debug_assert!(bp.len() >= k_off.len() * NR);
    let total = block_total(k_off.len(), tap, [[_mm256_setzero_ps(); V]; R], add, |rows| {
        // SAFETY: features are this function's own; `rows` lies within
        // `k_off` (`block_total`), whose `NR`-float B rows `bp` holds, and
        // the gather bound is the caller's contract. Unchecked, because a
        // panic path here costs the chain registers.
        unsafe {
            let bp = bp.as_ptr().add(rows.start * NR);
            gather_chain_avx2(src, ro, k_off.get_unchecked(rows), bp)
        }
    });
    // SAFETY: features are this function's own.
    unsafe { add_ymm_to_c(c, c_cs, total, out, span) }
}

/// The tile loop shared by every build of [`gemm_gather`]: per depth block
/// and `R`-row tile, `tile(ro, k_off, bp, tap, out, (j0, lanes))` adds to
/// C the tile's block total over the block's `k_off` and B rows (see
/// [`block_total`]), for the live rows, at `out`, and the live lanes.
///
/// The depth is cut into blocks; each block's total starts at +0 and is
/// added to C when the block ends. Untapped, a block is `KC` deep and is
/// one chain. Tapped ([`GatherMap::taps`]), the whole depth is one block,
/// whose total adds the taps in order; a tap is its own chain from zero,
/// restarted at every `KC` boundary inside the tap with the pieces summed
/// in order before the tap is added — the order in which a transposed
/// convolution's col2im fold accumulates its `KC`-blocked `dcols`
/// (`ops::conv`).
#[inline(always)]
fn gather_tiles<const R: usize>(
    map: &GatherMap,
    b: &PackedB,
    mut tile: impl FnMut(&[usize; R], &[usize], &[f32], usize, &[usize], Span),
) {
    let (rows, k, n) = (map.row_off.len(), map.k_off.len(), b.n);
    if rows == 0 || k == 0 {
        return;
    }
    let (block, tap) = if map.tap == 0 { (KC, KC) } else { (k, map.tap) };
    // Row blocks of whole tiles, at most `MC` rows.
    let mc = MC / R * R;
    for pb in (0..k).step_by(block) {
        let pe = k.min(pb + block);
        for ic in (0..rows).step_by(mc) {
            for p in 0..n.div_ceil(NR) {
                let bp = &b.panel(p)[pb * NR..pe * NR];
                let j0 = p * NR;
                let lanes = NR.min(n - j0);
                for i0 in (ic..rows.min(ic + mc)).step_by(R) {
                    let live = R.min(rows - i0);
                    // Dead rows of a tail tile re-read the last live row.
                    let ro = std::array::from_fn(|r| map.row_off[i0 + r.min(live - 1)]);
                    let out = &map.out_off[i0..i0 + live];
                    tile(&ro, &map.k_off[pb..pe], bp, tap, out, (j0, lanes));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.normal() as f32).collect()
    }

    fn check(m: usize, n: usize, k: usize, threads: usize) {
        let a = filled(m * k, 7 + m as u64);
        let b = filled(k * n, 11 + n as u64);
        let mut c = vec![0.0f32; m * n];
        gemm(&mut c, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), threads);
        let want = naive(m, n, k, &a, &b);
        for (i, (x, y)) in c.iter().zip(&want).enumerate() {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "({m},{n},{k}) idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_across_tail_shapes() {
        // Hit every blocking edge: tails < MR/NR, single row/col, k=1,
        // shapes straddling the MC/KC/NC block boundaries.
        for &(m, n, k) in &[
            (1, 1, 1),
            (1, 9, 5),
            (3, 7, 1),
            (4, 8, 16),
            (5, 9, 3),
            (7, 17, 33),
            (63, 65, 31),
            (64, 8, 257),
            (65, 9, 256),
            (130, 20, 70),
        ] {
            check(m, n, k, 1);
        }
    }

    #[test]
    fn banded_matches_serial_bitwise() {
        let (m, n, k) = (37, 19, 23);
        let a = filled(m * k, 3);
        let b = filled(k * n, 5);
        let mut serial = vec![0.0f32; m * n];
        gemm(&mut serial, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), 1);
        for threads in [2, 3, 5, 8] {
            let mut banded = vec![0.0f32; m * n];
            gemm(&mut banded, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), threads);
            assert_eq!(serial, banded, "threads={threads}");
        }
    }

    #[test]
    fn transposed_views_match_explicit_transpose() {
        let (m, n, k) = (13, 21, 17);
        let a_t = filled(k * m, 9); // stored [k, m]
        let b = filled(k * n, 10);
        let mut c = vec![0.0f32; m * n];
        gemm(&mut c, m, n, k, MatRef::transposed(&a_t, m), MatRef::row_major(&b, n), 1);
        // Explicitly transpose A and compare.
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for l in 0..k {
                a[i * k + l] = a_t[l * m + i];
            }
        }
        let want = naive(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    /// Gather offsets over a random buffer, their matrix materialized
    /// row-major, and a random B: `(row_off, k_off, src, a, b)`.
    type Gathered = (Vec<usize>, Vec<usize>, Vec<f32>, Vec<f32>, Vec<f32>);

    fn gathered(rows: usize, k: usize, n: usize) -> Gathered {
        // Non-monotone, overlapping offsets, as a strided conv's are.
        let row_off: Vec<usize> = (0..rows).map(|i| (i * 7) % 50 + i / 3).collect();
        let k_off: Vec<usize> = (0..k).map(|l| (l * 13) % 90 + 2 * l).collect();
        let src = filled(rows + 2 * k + 200, 31);
        let a = row_off.iter().flat_map(|&r| k_off.iter().map(move |&o| r + o)).collect::<Vec<_>>();
        let a = a.into_iter().map(|i| src[i]).collect();
        (row_off, k_off, src, a, filled(k * n, 32))
    }

    fn packed(k: usize, n: usize, b: &[f32]) -> PackedB {
        let mut packed = PackedB::new(k, n);
        packed.pack(MatRef::row_major(b, n));
        packed
    }

    /// Rows (`GatherMap` rows) and lanes (B columns) on either side of every
    /// tile height and width the AVX2 build uses (4, 6, 8 rows; 8 and 16
    /// lanes), and past an `MC` row block.
    const TAIL_ROWS: [usize; 8] = [1, 5, 6, 7, 8, 9, 13, 100];
    const TAIL_LANES: [usize; 8] = [1, 5, 7, 8, 9, 16, 17, 21];

    /// The three ways the convolutions store a gathered product, as
    /// `(out_off, c_cs, c.len())`: row-major (`conv2d_dw`), transposed into
    /// a contiguous `[n, rows]` slab (`conv2d`), and scattered over one
    /// stride-2 parity class of an 11-pixel-wide image (`conv2d_dx`).
    fn layouts(rows: usize, n: usize) -> [(Vec<usize>, usize, usize); 3] {
        let class = (0..rows).map(|i| (2 * (i / 6) + 1) * 11 + 2 * (i % 6)).collect();
        let plane = (2 * (rows / 6) + 2) * 11;
        [
            ((0..rows).map(|i| i * n).collect(), 1, rows * n),
            ((0..rows).collect(), rows, rows * n),
            (class, plane, plane * n),
        ]
    }

    /// Runs `map` (without its `out_off`) in each of the [`layouts`] over a
    /// C that holds random values, and asserts that the `rows × n` elements
    /// it stores end as `product` leaves them when handed them row-major,
    /// and that no other element moved.
    fn assert_stores(
        (rows, n): (usize, usize),
        map: impl Fn(Vec<usize>) -> GatherMap,
        src: &[f32],
        b: &PackedB,
        product: impl Fn(&mut [f32]),
    ) {
        for (layout, (out_off, c_cs, len)) in layouts(rows, n).into_iter().enumerate() {
            let mut c = filled(len, 77);
            let mut expected = c.clone();
            let at = |e: usize| out_off[e / n] + (e % n) * c_cs;
            let mut row_major: Vec<f32> = (0..rows * n).map(|e| c[at(e)]).collect();
            product(&mut row_major);
            for (e, v) in row_major.into_iter().enumerate() {
                expected[at(e)] = v;
            }
            gemm_gather(&mut c, c_cs, &map(out_off.clone()), src, b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c), bits(&expected), "{rows} rows, {n} lanes, layout {layout}");
        }
    }

    #[test]
    fn gather_is_bitwise_the_packed_product() {
        // Tails in every dimension; k = 300 spans two KC blocks.
        let tails = TAIL_ROWS.iter().flat_map(|&r| TAIL_LANES.iter().map(move |&n| (r, 300, n)));
        for (rows, k, n) in [(1, 1, 1), (4, 16, 16), (70, 33, 5)].into_iter().chain(tails) {
            let (row_off, k_off, src, a, b) = gathered(rows, k, n);
            let map = |out_off| GatherMap::new(row_off.clone(), k_off.clone(), out_off);
            assert_stores((rows, n), map, &src, &packed(k, n, &b), |c| {
                gemm(c, rows, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), 1)
            });
        }
    }

    #[test]
    fn taps_sum_their_chains_then_the_total() {
        // Taps of 3 and of 300 (> KC, so each tap restarts at KC): the
        // total is +0 + tap 0 + tap 1 + …, a tap its KC pieces in order.
        let shapes = TAIL_ROWS.iter().flat_map(|&r| TAIL_LANES.iter().map(move |&n| (r, n)));
        for (rows, n) in shapes {
            for (tap, taps) in [(3, 5), (300, 2)] {
                let k = tap * taps;
                let (row_off, k_off, src, a, b) = gathered(rows, k, n);
                let chain = |i: usize, j: usize, from: usize, to: usize| {
                    (from..to).fold(0.0f32, |acc, l| a[i * k + l].mul_add(b[l * n + j], acc))
                };
                let want: Vec<f32> = (0..rows * n)
                    .map(|e| {
                        let (i, j) = (e / n, e % n);
                        (0..taps).fold(0.0f32, |total, t| {
                            let pieces = (t * tap..(t + 1) * tap).step_by(KC);
                            total
                                + pieces.fold(0.0, |s, pc| {
                                    s + chain(i, j, pc, (pc + KC).min((t + 1) * tap))
                                })
                        })
                    })
                    .collect();
                let packed = packed(k, n, &b);
                let map =
                    |out_off| GatherMap::new(row_off.clone(), k_off.clone(), out_off).taps(tap);
                #[cfg(target_arch = "x86_64")]
                if avx2_fma_available() {
                    assert_stores((rows, n), map, &src, &packed, |c| {
                        c.iter_mut().zip(&want).for_each(|(c, w)| *c += w)
                    });
                    continue;
                }
                let mut c = vec![0.0f32; rows * n];
                gemm_gather(&mut c, 1, &map((0..rows).map(|i| i * n).collect()), &src, &packed);
                for (&got, &want) in c.iter().zip(&want) {
                    assert!((got - want).abs() <= 1e-4 * (1.0 + want.abs()), "{got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn portable_gather_kernel_matches_naive() {
        // The build of the tile loop that AVX2 hosts never dispatch to.
        let (rows, k, n) = (9, 270, 19);
        let (row_off, k_off, src, a, b) = gathered(rows, k, n);
        let map = GatherMap::new(row_off, k_off, (0..rows).map(|i| i * n).collect());
        let mut c = vec![0.0f32; rows * n];
        gemm_gather_portable(&mut c, 1, &map, &src, &packed(k, n, &b));
        for (x, y) in c.iter().zip(&naive(rows, n, k, &a, &b)) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "gather map reaches")]
    fn gather_past_the_source_is_refused() {
        let map = GatherMap::new(vec![0, 5], vec![0, 4], vec![0, 1]);
        gemm_gather(&mut [0.0; 2], 1, &map, &[0.0; 9], &packed(2, 1, &[1.0, 1.0]));
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, n, k) = (6, 10, 4);
        let a = filled(m * k, 21);
        let b = filled(k * n, 22);
        let mut c = vec![1.0f32; m * n];
        gemm(&mut c, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), 1);
        let want = naive(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - (y + 1.0)).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }
}
