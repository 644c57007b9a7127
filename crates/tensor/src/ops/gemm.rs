//! Cache-blocked, register-tiled GEMM with panel packing.
//!
//! One register tile serves two drivers. `gemm` is the packed product
//! behind `matmul`, `matmul_tn` and `matmul_nt`: the operand layout is
//! abstracted as a [`MatRef`] (base slice plus row/column strides), so a
//! transposed operand is handled by the packing routine rather than by a
//! materialized transpose. `gemm_gather` is the implicit GEMM behind the
//! convolutions (`ops::conv`): its A operand is never packed at all — the
//! micro-kernel fetches element `(i, l)` as `src[row_off[i] + k_off[l]]`
//! through a `GatherMap`, which is how an im2col matrix is read straight
//! out of a padded image — and its B operand is packed once, whole, into a
//! `PackedB` the caller owns. The map also says where each row's result
//! goes and how its depth is summed (`GatherMap::taps`).
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
/// Inlined into both callers: left as a shared out-of-line function it
/// cost the `[16, 1024] × [1024, 1024]` products, which are mostly B
/// packing, ≈ 10 % against the copy each GEMM instance used to get.
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
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Storage for a `k × n` operand; [`pack`](Self::pack) fills it.
    pub(crate) fn new(k: usize, n: usize) -> Self {
        PackedB { data: vec![0.0; k * n.div_ceil(NR) * NR], k, n }
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

/// The `MR × NR` accumulator block of one micro-kernel call.
type Tile = [[f32; NR]; MR];

/// The gathered-A twin of [`micro_kernel`]: the same ascending-`l` chain
/// from zero, with the `MR` A values of step `l` read as `src[ro[r] +
/// k_off[l]]` instead of from a packed micro-panel — one chain per
/// consecutive `tap` rows of `k_off`, each added to `acc` in order.
#[inline(always)]
fn gather_kernel(
    src: &[f32],
    ro: &[usize; MR],
    k_off: &[usize],
    bp: &[f32],
    tap: usize,
    acc: &mut Tile,
) {
    for (t, offs) in k_off.chunks(tap).enumerate() {
        let mut chain = [[0.0f32; NR]; MR];
        for (l, &ko) in offs.iter().enumerate() {
            let at = (t * tap + l) * NR;
            let bv: &[f32; NR] = bp[at..at + NR].try_into().unwrap();
            for r in 0..MR {
                let a = src[ro[r] + ko];
                for c in 0..NR {
                    chain[r][c] += a * bv[c];
                }
            }
        }
        add_tile(acc, &chain);
    }
}

/// `acc += t`, element by element.
#[inline(always)]
fn add_tile(acc: &mut Tile, t: &Tile) {
    for (a, t) in acc.iter_mut().zip(t) {
        for (a, t) in a.iter_mut().zip(t) {
            *a += t;
        }
    }
}

/// The gathered-A twin of [`micro_kernel_avx2`]: one `fmadd` per step and
/// element in ascending `l`, from zero, so a chain computed through it is
/// bitwise the packed kernel's (the two differ only in where the broadcast
/// loads from); the chain is then added to `acc`. Kept beside it rather
/// than sharing a body: a shared, closure-fed body cost the packed matmul
/// path 3–10 %.
///
/// # Safety
/// The host must support AVX2 and FMA; `bp` must hold `k_off.len() · NR`
/// values; every `ro[r] + k_off[l]` must be below `src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn gather_kernel_avx2(
    src: &[f32],
    ro: &[usize; MR],
    k_off: &[usize],
    bp: &[f32],
    acc: &mut Tile,
) {
    use std::arch::x86_64::*;
    const { assert!(MR == 4 && NR == 16, "intrinsic kernel is tiled for MR=4, NR=16") };
    debug_assert!(bp.len() >= k_off.len() * NR);
    // SAFETY: panel extent and gather bound are the caller's contract;
    // `acc` rows are `NR = 16` floats, two `ymm` each.
    unsafe {
        let mut chain = [[_mm256_setzero_ps(); 2]; MR];
        for (l, &ko) in k_off.iter().enumerate() {
            let bptr = bp.as_ptr().add(l * NR);
            let b0 = _mm256_loadu_ps(bptr);
            let b1 = _mm256_loadu_ps(bptr.add(8));
            for (r, ch) in chain.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*src.as_ptr().add(ro[r] + ko));
                ch[0] = _mm256_fmadd_ps(av, b0, ch[0]);
                ch[1] = _mm256_fmadd_ps(av, b1, ch[1]);
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let (lo, hi) = (row.as_mut_ptr(), row.as_mut_ptr().add(8));
            _mm256_storeu_ps(lo, _mm256_add_ps(_mm256_loadu_ps(lo), chain[r][0]));
            _mm256_storeu_ps(hi, _mm256_add_ps(_mm256_loadu_ps(hi), chain[r][1]));
        }
    }
}

/// [`gather_kernel_avx2`] over consecutive taps of `tap` rows: each tap a
/// chain from zero, added in order to a running total that starts from
/// `acc` and goes back there at the end. With at most 8 live lanes
/// (`lanes ≤ 8`: a panel of a convolution with 8 input channels) only the
/// low `ymm` of each row is computed, which halves the `fmadd`s and lets
/// the total stay in registers beside the chain; otherwise each tap goes
/// through [`gather_kernel_avx2`] and the total through `acc`. A lane's
/// arithmetic is the same either way.
///
/// # Safety
/// As for [`gather_kernel_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn gather_taps_avx2(
    src: &[f32],
    ro: &[usize; MR],
    k_off: &[usize],
    bp: &[f32],
    tap: usize,
    lanes: usize,
    acc: &mut Tile,
) {
    use std::arch::x86_64::*;
    debug_assert!(bp.len() >= k_off.len() * NR);
    if lanes > 8 {
        for (t, offs) in k_off.chunks(tap).enumerate() {
            // SAFETY: the caller's contract, for a sub-range of it.
            unsafe { gather_kernel_avx2(src, ro, offs, &bp[t * tap * NR..], acc) };
        }
        return;
    }
    // SAFETY: as in `gather_kernel_avx2`; only the first 8 floats of each
    // `NR`-float row of `bp` and `acc` are touched.
    unsafe {
        let mut total: [__m256; MR] = std::array::from_fn(|r| _mm256_loadu_ps(acc[r].as_ptr()));
        for (t, offs) in k_off.chunks(tap).enumerate() {
            let mut chain = [_mm256_setzero_ps(); MR];
            for (l, &ko) in offs.iter().enumerate() {
                let b0 = _mm256_loadu_ps(bp.as_ptr().add((t * tap + l) * NR));
                for (r, ch) in chain.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*src.as_ptr().add(ro[r] + ko));
                    *ch = _mm256_fmadd_ps(av, b0, *ch);
                }
            }
            for (tot, ch) in total.iter_mut().zip(chain) {
                *tot = _mm256_add_ps(*tot, ch);
            }
        }
        for (row, tot) in acc.iter_mut().zip(total) {
            _mm256_storeu_ps(row.as_mut_ptr(), tot);
        }
    }
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
pub(crate) fn gemm_gather(c: &mut [f32], c_cs: usize, map: &GatherMap, src: &[f32], b: &PackedB) {
    assert_eq!(map.k_off.len(), b.k, "gather depth vs packed B depth");
    // The bound every unchecked read of the AVX2 kernel relies on.
    assert!(map.limit <= src.len(), "gather map reaches {} of {}", map.limit, src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: guarded by the CPUID probe and the assert above.
        unsafe { gemm_gather_avx2(c, c_cs, map, src, b) };
        return;
    }
    gather_tiles(c, c_cs, map, b, |ro, k_off, bp, tap, _, acc| {
        gather_kernel(src, ro, k_off, bp, tap, acc)
    })
}

/// [`gemm_gather`]'s loop nest compiled with AVX2+FMA enabled, so the
/// intrinsic kernel inlines into it and a tile stays in registers from its
/// first `fmadd` to the C update — at the `kc` of 8–32 one tap of a small
/// convolution's input gradient has, a call and two trips through memory
/// per tile cost as much as the tile.
///
/// # Safety
/// The host must support AVX2 and FMA, and `map.limit ≤ src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_gather_avx2(c: &mut [f32], c_cs: usize, map: &GatherMap, src: &[f32], b: &PackedB) {
    gather_tiles(c, c_cs, map, b, |ro, k_off, bp, tap, lanes, acc| {
        assert!(bp.len() >= k_off.len() * NR, "B panel shorter than kc rows");
        // SAFETY: features are this function's own; the panel length was
        // just checked; `ro` and `k_off` hold entries of `map`, whose
        // largest sum is below `map.limit ≤ src.len()` (caller's contract).
        unsafe {
            if map.tap != 0 {
                gather_taps_avx2(src, ro, k_off, bp, tap, lanes, acc)
            } else {
                gather_kernel_avx2(src, ro, k_off, bp, acc)
            }
        }
    })
}

/// The tile loop shared by both builds of [`gemm_gather`]: `tile(ro,
/// k_off, bp, tap, lanes, acc)` adds to `acc`, in order, one `MR × NR`
/// fma chain started from zero per consecutive `tap` rows of `k_off`, of
/// which the first `lanes` columns are live.
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
fn gather_tiles(
    c: &mut [f32],
    c_cs: usize,
    map: &GatherMap,
    b: &PackedB,
    tile: impl Fn(&[usize; MR], &[usize], &[f32], usize, usize, &mut Tile),
) {
    let (rows, k, n) = (map.row_off.len(), map.k_off.len(), b.n);
    if rows == 0 || k == 0 {
        return;
    }
    let (block, tap) = if map.tap == 0 { (KC, KC) } else { (k, map.tap) };
    for pb in (0..k).step_by(block) {
        let pe = k.min(pb + block);
        for ic in (0..rows).step_by(MC) {
            for p in 0..n.div_ceil(NR) {
                let bp = b.panel(p);
                let j0 = p * NR;
                let lanes = NR.min(n - j0);
                for i0 in (ic..rows.min(ic + MC)).step_by(MR) {
                    let tile_rows = MR.min(rows - i0);
                    // Dead rows of a tail tile re-read the last live row.
                    let ro = std::array::from_fn(|r| map.row_off[i0 + r.min(tile_rows - 1)]);
                    let chains = |from: usize, to: usize, tap: usize, acc: &mut Tile| {
                        tile(&ro, &map.k_off[from..to], &bp[from * NR..to * NR], tap, lanes, acc)
                    };
                    let mut total = [[0.0f32; NR]; MR];
                    if tap <= KC {
                        chains(pb, pe, tap.min(pe - pb), &mut total);
                    } else {
                        for t0 in (pb..pe).step_by(tap) {
                            let mut sum = [[0.0f32; NR]; MR];
                            for pc in (t0..t0 + tap).step_by(KC) {
                                let to = (pc + KC).min(t0 + tap);
                                chains(pc, to, to - pc, &mut sum);
                            }
                            add_tile(&mut total, &sum);
                        }
                    }
                    for (r, acc_row) in total.iter().enumerate().take(tile_rows) {
                        let at = map.out_off[i0 + r] + j0 * c_cs;
                        if c_cs == 1 {
                            for (o, &v) in c[at..at + lanes].iter_mut().zip(acc_row) {
                                *o += v;
                            }
                        } else {
                            for (j, &v) in acc_row.iter().enumerate().take(lanes) {
                                c[at + j * c_cs] += v;
                            }
                        }
                    }
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

    #[test]
    fn gather_is_bitwise_the_packed_product() {
        // Tails in every dimension; k = 300 spans two KC blocks.
        for &(rows, k, n) in &[(1, 1, 1), (4, 16, 16), (7, 300, 21), (70, 33, 5)] {
            let (row_off, k_off, src, a, b) = gathered(rows, k, n);
            let mut want = vec![0.0f32; rows * n];
            gemm(&mut want, rows, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), 1);
            let packed = packed(k, n, &b);
            let row_major =
                GatherMap::new(row_off.clone(), k_off.clone(), (0..rows).map(|i| i * n).collect());
            let mut c = vec![0.0f32; rows * n];
            gemm_gather(&mut c, 1, &row_major, &src, &packed);
            assert_eq!(c, want, "({rows},{k},{n}) row-major store");
            let transposed = GatherMap::new(row_off, k_off, (0..rows).collect());
            let mut c = vec![0.0f32; rows * n];
            gemm_gather(&mut c, rows, &transposed, &src, &packed);
            for (i, row) in want.chunks(n).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    assert_eq!(c[j * rows + i], v, "({rows},{k},{n}) transposed store");
                }
            }
        }
    }

    #[test]
    fn taps_sum_their_chains_then_the_total() {
        // Taps of 3 and of 300 (> KC, so each tap restarts at KC): the
        // total is +0 + tap 0 + tap 1 + …, a tap its KC pieces in order.
        for &(rows, tap, taps, n) in &[(9, 3, 5, 19), (5, 300, 2, 7)] {
            let k = tap * taps;
            let (row_off, k_off, src, a, b) = gathered(rows, k, n);
            let map = GatherMap::new(row_off, k_off, (0..rows).map(|i| i * n).collect()).taps(tap);
            let mut c = vec![0.0f32; rows * n];
            gemm_gather(&mut c, 1, &map, &src, &packed(k, n, &b));
            let chain = |i: usize, j: usize, from: usize, to: usize| {
                (from..to).fold(0.0f32, |acc, l| a[i * k + l].mul_add(b[l * n + j], acc))
            };
            for i in 0..rows {
                for j in 0..n {
                    let want = (0..taps).fold(0.0f32, |total, t| {
                        let pieces = (t * tap..(t + 1) * tap).step_by(KC);
                        total
                            + pieces.fold(0.0, |s, pc| {
                                s + chain(i, j, pc, (pc + KC).min((t + 1) * tap))
                            })
                    });
                    let got = c[i * n + j];
                    #[cfg(target_arch = "x86_64")]
                    if avx2_fma_available() {
                        assert_eq!(got.to_bits(), want.to_bits(), "tap {tap}: ({i}, {j})");
                        continue;
                    }
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
        gather_tiles(&mut c, 1, &map, &packed(k, n, &b), |ro, k_off, bp, tap, _, acc| {
            gather_kernel(&src, ro, k_off, bp, tap, acc)
        });
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
