//! Central tuning knobs for kernel dispatch and cache blocking.
//!
//! Every size threshold that decides *how* a kernel runs (serial fast path
//! vs packed/blocked vs rayon-parallel) lives here, so the matmul and conv
//! kernels agree on one set of numbers instead of each carrying a private
//! copy. (Elementwise ops have no threshold: they never fork — see
//! `ops::elementwise`.) The values are sized for a generic x86-64 cache
//! hierarchy (32 KiB L1d, 256 KiB–1 MiB L2) and for this workspace's two
//! extremes: the LSTM predictors' tiny `[1, h] × [h, 4h]` products, which
//! must never pay packing or thread-dispatch overhead, and the ResNet conv
//! GEMMs, which are large enough that cache misses dominate.
//!
//! Changing a blocking parameter cannot change results across thread
//! counts: parallel kernels split only the output-row dimension, and a
//! single output element is always accumulated in the same order (see
//! DESIGN.md §8).

/// The thread count kernels fan out to, and its scoped override, for the
/// crates above this one: the training engine budgets kernel bands per
/// worker through them without a dependency of its own on the pool.
pub use rayon::{current_num_threads, with_num_threads};

/// Kernel bands each of `workers` concurrently computing threads may fork
/// when `threads` are available in all: `workers × bands ≤ threads`, and
/// never less than one. Derived, not configured — `RAYON_NUM_THREADS`
/// stays the one global cap — and free of consequences for results, since
/// kernels split only output rows (DESIGN.md §8.3).
pub fn band_budget(threads: usize, workers: usize) -> usize {
    (threads / workers.max(1)).max(1)
}

/// Rows-of-output threshold before a matmul dispatches to the thread pool.
/// A single LSTM predictor step multiplies `[1, h] × [h, 4h]`; those must
/// stay serial.
pub const PAR_ROWS: usize = 8;

/// Minimum total FLOPs (`m·n·k`) before a matmul parallelizes.
pub const PAR_FLOPS: usize = 1 << 18;

/// Minimum multiply-adds before a convolution pass fans its images out
/// over threads.
///
/// The rayon shim forks and joins OS threads per parallel call, running
/// the first band on the calling thread: a no-op `par_chunks_mut` over 16
/// chunks on two cores measures 10–13 µs at its minimum, 16–22 µs at the
/// median, 18–23 µs at p75 and 35–53 µs at p99 (3 × 2000 calls; the
/// `fork_join` row of `BENCH_kernels.json` tracks the minimum), and two
/// bands can at most halve a call. Forking therefore pays only when the
/// serial call lasts several times that; at the ≈ 10 multiply-adds/ns the
/// implicit-GEMM kernels sustain on one core this constant is ≈ 0.6 ms of
/// work — about ten median fork/joins of the shim that spawned every band
/// (21 µs minimum, 35–57 µs median), against which it was sized, and
/// about thirty of today's. It sits
/// between the two populations the workspace has: ResNet-tiny's
/// convolutions (at most 5.3 M multiply-adds at the evaluation batch of
/// 64, 1.3 M at batch 16 — 18 calls per training iteration that used to
/// fork) stay on the calling thread, CIFAR-scale ones (8.4 M for the
/// 64→128 1×1 row of `BENCH_kernels.json`, break-even between forked and
/// serial, and 151 M for the 64→64 3×3 one) still fork. A constant over
/// the call's shape, never a run-time timing, so the dispatch cannot
/// break thread-count invariance.
pub const CONV_PAR_MACS: usize = 6 << 20;

/// Minimum total FLOPs before a matmul takes the packed/blocked GEMM path.
/// Below this the panel-packing overhead is not amortized and the simple
/// serial kernel wins.
pub const GEMM_PACK_FLOPS: usize = 1 << 15;

/// Micro-kernel register tile height (rows of A per micro-panel). The
/// micro-kernel keeps an `MR × NR` f32 accumulator block in registers.
pub const MR: usize = 4;

/// Micro-kernel register tile width (columns of B per micro-panel).
/// Sixteen f32 lanes — two AVX `ymm` vectors per accumulator row, giving
/// the AVX2+FMA micro-kernel `MR × NR/8 = 8` independent accumulator
/// chains, enough to cover FMA latency at two issues per cycle. (With one
/// vector per row the kernel is latency-bound at half peak.)
pub const NR: usize = 16;

/// Rows of A packed per cache block (`MC × KC` panel, L2-resident).
/// Must be a multiple of [`MR`].
pub const MC: usize = 64;

/// Depth of one packed panel pair (shared k-extent of the A and B panels,
/// L1-friendly inner loop length).
pub const KC: usize = 256;

/// Columns of B packed per cache block (`KC × NC` panel). Must be a
/// multiple of [`NR`].
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Whether an `m × k · k × n` product should take the packed/blocked GEMM
/// path. Depends only on the shape — never on the thread count — so the
/// dispatch decision itself cannot break thread-count invariance.
pub fn use_packed_gemm(m: usize, n: usize, k: usize) -> bool {
    m >= MR && n >= NR && m * n * k >= GEMM_PACK_FLOPS
}

/// Number of threads an `m`-row GEMM should fan out to (1 = stay serial).
pub fn gemm_threads(m: usize, n: usize, k: usize) -> usize {
    if m >= PAR_ROWS && m * n * k >= PAR_FLOPS {
        rayon::current_num_threads().max(1)
    } else {
        1
    }
}

/// Number of threads a convolution pass over `images` images doing `macs`
/// multiply-adds in total should fan out to (1 = stay on the calling
/// thread). `im2col`/`col2im` count one per element moved.
pub fn conv_threads(images: usize, macs: usize) -> usize {
    if images >= 2 && macs >= CONV_PAR_MACS {
        rayon::current_num_threads().max(1)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_matmuls_stay_serial_and_unpacked() {
        // The largest LSTM predictor gate product is [1, 128] × [128, 512];
        // it must never pay packing or thread-dispatch overhead.
        assert!(!use_packed_gemm(1, 512, 128));
        assert_eq!(gemm_threads(1, 512, 128), 1);
    }

    #[test]
    fn band_budget_fits_the_cores_and_never_starves_a_worker() {
        for threads in [1, 2, 4, 8] {
            for workers in [1, 2, 4, 8] {
                let bands = band_budget(threads, workers);
                assert!(bands >= 1, "{threads} threads, {workers} workers");
                assert!(bands == 1 || workers * bands <= threads, "{threads} / {workers}");
                // No band is left unused while a worker could take one more.
                assert!(workers * (bands + 1) > threads, "{threads} / {workers}");
            }
        }
        assert_eq!(band_budget(2, 2), 1);
        assert_eq!(band_budget(8, 2), 4);
        assert_eq!(band_budget(2, 1), 2);
    }

    #[test]
    fn small_convolutions_stay_serial_and_cifar_ones_fork() {
        // (cin, cout, kernel, oh·ow) of ResNet-tiny's nine convolutions on
        // the benchmark's 10×10 images.
        let tiny = [
            (3, 8, 3, 100),
            (8, 8, 3, 100),
            (8, 8, 3, 100),
            (8, 16, 3, 25),
            (16, 16, 3, 25),
            (8, 16, 1, 25),
            (16, 32, 3, 9),
            (32, 32, 3, 9),
            (16, 32, 1, 9),
        ];
        let macs = |n: usize, (cin, cout, k, ohw): (usize, usize, usize, usize)| {
            n * ohw * cin * k * k * cout
        };
        rayon::with_num_threads(4, || {
            for conv in tiny {
                for batch in [16, 64] {
                    assert_eq!(conv_threads(batch, macs(batch, conv)), 1, "{conv:?} at {batch}");
                }
            }
            // The CIFAR-scale rows of BENCH_kernels.json.
            assert_eq!(conv_threads(4, macs(4, (64, 64, 3, 1024))), 4);
            assert_eq!(conv_threads(4, macs(4, (64, 128, 1, 256))), 4);
            // One image has nothing to fan out over.
            assert_eq!(conv_threads(1, usize::MAX), 1);
        });
    }

    #[test]
    fn resnet_gemms_take_the_packed_path() {
        // Per-image CIFAR conv3x3 GEMM: cout=64, plen=576, oh·ow=1024.
        assert!(use_packed_gemm(64, 1024, 576));
    }

    #[test]
    fn blocking_fits_reasonable_caches() {
        // A panel (MC×KC) + B panel (KC×NC) in f32 stay under 1 MiB.
        const { assert!((MC * KC + KC * NC) * 4 <= 1 << 20) };
    }
}
