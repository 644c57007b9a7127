//! In-workspace stand-in for `rayon`.
//!
//! The build environment has no access to crates.io, so this crate
//! reimplements the slice-parallelism subset the tensor kernels use —
//! `par_iter`, `par_iter_mut`, `par_chunks`, `par_chunks_mut` with the
//! `zip`/`enumerate`/`for_each` adapters — over `std::thread::scope`.
//!
//! The model is rayon's *indexed* parallel iterator: every producer knows
//! its length and can hand out the item at index `i`; disjointness of
//! mutable items is guaranteed by construction (distinct indices map to
//! non-overlapping slice regions). Work is split into one contiguous index
//! band per thread — the callers already chunk at coarse granularity
//! (bands of matmul rows, whole images), so band splitting loses nothing
//! to rayon's work stealing at this workspace's sizes.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel operations fan out to.
///
/// Defaults to the machine's available parallelism (overridable with the
/// `RAYON_NUM_THREADS` environment variable, like real rayon). A
/// [`with_num_threads`] scope on the current thread takes precedence —
/// that is how the determinism tests run the same kernel at 1 and N
/// threads within one process.
pub fn current_num_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(|c| c.get());
    if forced > 0 {
        return forced;
    }
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Runs `f` with [`current_num_threads`] pinned to `n` on the current
/// thread. Threads a parallel loop spawns inside the scope still see the
/// global count (the calling thread, which runs the loop's first band
/// itself, sees `n`), but fan-out decisions are made by the calling
/// thread, which is what matters. The previous override is restored on
/// exit, including on panic.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be positive");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// An indexed source of independent items.
///
/// # Safety contract (internal)
/// `get(i)` must be safe to call concurrently from multiple threads as
/// long as each index in `0..len()` is requested **at most once** across
/// the whole iteration — producers of `&mut` items rely on this to hand
/// out aliasing-free references.
pub trait IndexedParallelIterator: Sized + Sync {
    type Item;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// # Safety
    /// Each index may be claimed at most once per iteration (see the trait
    /// docs); callers must stay within `0..len()`.
    unsafe fn get(&self, i: usize) -> Self::Item;

    /// Pairs this iterator with another, truncating to the shorter.
    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Attaches the item index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Consumes every item, in parallel when the pool has >1 thread.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let n = self.len();
        let threads = current_num_threads().min(n);
        if threads <= 1 {
            for i in 0..n {
                // SAFETY: single-threaded pass touches each index once.
                f(unsafe { self.get(i) });
            }
            return;
        }
        let band = |t: usize| {
            for i in t * n / threads..(t + 1) * n / threads {
                // SAFETY: bands are disjoint, so each index is claimed
                // exactly once across all threads.
                f(unsafe { self.get(i) });
            }
        };
        // Bands 1.. on spawned threads, band 0 on the calling one, which
        // would otherwise sit idle until the join.
        std::thread::scope(|scope| {
            for t in 1..threads {
                scope.spawn(move || band(t));
            }
            band(0);
        });
    }
}

/// Shared-slice producer (`par_iter`).
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn get(&self, i: usize) -> &'a T {
        self.slice.get_unchecked(i)
    }
}

/// Mutable-slice producer (`par_iter_mut`).
pub struct ParIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: distinct indices yield references to distinct elements, so
// sharing the producer across threads is sound when `T: Send`.
unsafe impl<T: Send> Sync for ParIterMut<'_, T> {}

impl<'a, T: Send> IndexedParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn get(&self, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

/// Shared-chunks producer (`par_chunks`).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> IndexedParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    unsafe fn get(&self, i: usize) -> &'a [T] {
        let lo = i * self.chunk;
        let hi = (lo + self.chunk).min(self.slice.len());
        self.slice.get_unchecked(lo..hi)
    }
}

/// Mutable-chunks producer (`par_chunks_mut`).
pub struct ParChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: chunks at distinct indices cover disjoint index ranges.
unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}

impl<'a, T: Send> IndexedParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    unsafe fn get(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.chunk;
        let hi = (lo + self.chunk).min(self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }
}

/// `zip` adapter.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    unsafe fn get(&self, i: usize) -> Self::Item {
        (self.a.get(i), self.b.get(i))
    }
}

/// `enumerate` adapter.
pub struct Enumerate<A> {
    inner: A,
}

impl<A: IndexedParallelIterator> IndexedParallelIterator for Enumerate<A> {
    type Item = (usize, A::Item);

    fn len(&self) -> usize {
        self.inner.len()
    }

    unsafe fn get(&self, i: usize) -> Self::Item {
        (i, self.inner.get(i))
    }
}

/// Slice extension methods mirroring `rayon::slice::ParallelSlice*`.
pub trait ParallelSlice<T> {
    fn par_iter(&self) -> ParIter<'_, T>;
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
}

pub trait ParallelSliceMut<T> {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }

    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunks { slice: self, chunk }
    }
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { ptr: self.as_mut_ptr(), len: self.len(), _marker: std::marker::PhantomData }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk,
            _marker: std::marker::PhantomData,
        }
    }
}

pub mod prelude {
    pub use crate::{IndexedParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_mut_touches_every_element_once() {
        let mut v = vec![0u64; 10_000];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn zip_of_mut_and_shared() {
        let mut a = vec![0f32; 4096];
        let b: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        a.par_iter_mut().zip(b.par_iter()).for_each(|(x, &y)| *x = 2.0 * y);
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(x, 2.0 * i as f32);
        }
    }

    #[test]
    fn chunks_mut_enumerate_disjoint_and_complete() {
        let mut v = vec![0usize; 1003]; // non-multiple of chunk size
        v.par_chunks_mut(100).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[1002], 11); // 11th chunk holds the 3-element tail
    }

    #[test]
    fn chunks_zip_chunks_matches_sequential() {
        let a: Vec<f32> = (0..900).map(|i| i as f32).collect();
        let mut out = vec![0f32; 900];
        out.par_chunks_mut(64).zip(a.par_chunks(64)).for_each(|(o, src)| {
            for (x, &y) in o.iter_mut().zip(src) {
                *x = y * y;
            }
        });
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i * i) as f32);
        }
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut v: Vec<u8> = Vec::new();
        v.par_iter_mut().for_each(|_| unreachable!());
        let w: Vec<u8> = Vec::new();
        w.par_iter().for_each(|_| unreachable!());
    }

    #[test]
    fn thread_count_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn with_num_threads_overrides_and_restores() {
        let outer = super::current_num_threads();
        let inner = super::with_num_threads(7, || {
            // Nesting: innermost override wins, then unwinds.
            assert_eq!(super::with_num_threads(3, super::current_num_threads), 3);
            super::current_num_threads()
        });
        assert_eq!(inner, 7);
        assert_eq!(super::current_num_threads(), outer);
    }

    #[test]
    fn forced_fanout_still_covers_all_elements() {
        let mut v = vec![0u32; 1000];
        super::with_num_threads(8, || {
            v.par_iter_mut().for_each(|x| *x += 1);
        });
        assert!(v.iter().all(|&x| x == 1));
    }
}
