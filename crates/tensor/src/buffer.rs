//! Tensor storage, recycled through a per-thread cache.
//!
//! A training iteration builds a tape of activation-sized tensors, drops
//! it whole, and asks for the same lengths again in the next iteration.
//! Taken straight from the heap, those buffers lie at the top of glibc's
//! heap when the tape drops; glibc trims the freed top and hands its pages
//! back to the kernel, and the next iteration faults every one of them in
//! again, zero-filled.
//!
//! [`Buffer`] is the storage of every [`Tensor`](crate::Tensor) and of the
//! GEMM's packed operands. A thread's request takes a free buffer of that
//! exact length from the thread's cache if there is one; dropped on the
//! same thread, the buffer goes back there. What a thread keeps is bounded
//! by construction, and by one constant:
//!
//! * only buffers it handed out itself and that come back to it: a thread
//!   that receives tensors but never makes any (a parameter server's)
//!   keeps nothing, and a thread never keeps more buffers of a length than
//!   it once had live at the same time;
//! * at most [`RETAIN_BYTES`] in all; a buffer that would go over is freed;
//! * nothing once the thread's locals are being torn down.
//!
//! A buffer made elsewhere (`From<Vec<f32>>`, e.g. by
//! [`Tensor::from_vec`](crate::Tensor::from_vec)) has no home and is freed
//! when dropped. This is not `mallopt` or a global allocator on purpose: a
//! library does not own the allocator of the program that links it
//! (DESIGN.md §12.6).

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The most bytes of free buffers one thread keeps. Between two
/// steady-state ResNet-tiny iterations at batch 16 (the benchmark's), a
/// learner thread holds 2.06 MB of them, its whole working set; this is
/// the next power of two above that, so that working set stays while a
/// thread that cycles more cannot hoard it.
pub(crate) const RETAIN_BYTES: usize = 4 << 20;

/// A thread's free buffers, one shelf per length it has kept.
struct Cache {
    shelves: Vec<Shelf>,
    /// Capacity, in bytes, of every buffer on a shelf.
    bytes: usize,
}

struct Shelf {
    len: usize,
    free: Vec<Vec<f32>>,
}

thread_local! {
    static CACHE: RefCell<Cache> = const { RefCell::new(Cache { shelves: Vec::new(), bytes: 0 }) };
    /// This thread's home id; 0 until its first request.
    static HOME: Cell<usize> = const { Cell::new(0) };
}

/// The last home id handed to a thread. Ids never repeat, so a buffer
/// outliving its thread is never taken in by a later one.
static LAST_HOME: AtomicUsize = AtomicUsize::new(0);

/// This thread's home id, taking the next one on first use.
fn home() -> usize {
    HOME.with(|h| {
        if h.get() == 0 {
            h.set(LAST_HOME.fetch_add(1, Ordering::Relaxed) + 1);
        }
        h.get()
    })
}

impl Cache {
    /// A free buffer of `len` elements, if there is one.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let shelf = self.shelves.iter_mut().find(|s| s.len == len)?;
        let v = shelf.free.pop()?;
        self.bytes -= bytes_of(&v);
        Some(v)
    }

    /// Keeps `v`, one of this thread's own buffers, if it fits the bound;
    /// frees it otherwise.
    fn give(&mut self, v: Vec<f32>) {
        let bytes = bytes_of(&v);
        if self.bytes + bytes > RETAIN_BYTES {
            return;
        }
        self.bytes += bytes;
        match self.shelves.iter_mut().find(|s| s.len == v.len()) {
            Some(shelf) => shelf.free.push(v),
            None => self.shelves.push(Shelf { len: v.len(), free: vec![v] }),
        }
    }
}

fn bytes_of(v: &Vec<f32>) -> usize {
    v.capacity() * std::mem::size_of::<f32>()
}

/// This thread's free buffer of `len` elements if it has one, and the
/// home of a buffer made for this request.
fn request(len: usize) -> (Option<Vec<f32>>, usize) {
    let free = |c: &RefCell<Cache>| c.try_borrow_mut().ok()?.take(len);
    (CACHE.try_with(free).ok().flatten(), home())
}

/// A buffer of `f32`s that goes back to the cache of the thread that
/// handed it out, if it is dropped there (module docs). Dereferences to a
/// slice, so its length — the key it is shelved under — never changes.
pub(crate) struct Buffer {
    data: Vec<f32>,
    /// The [`home`] of the thread that made it; 0 for a buffer made
    /// elsewhere.
    home: usize,
}

impl Buffer {
    /// `len` elements whose values are unspecified (a recycled buffer's
    /// stale ones), for a caller that writes every element.
    pub(crate) fn for_overwrite(len: usize) -> Self {
        let (free, home) = request(len);
        Buffer { data: free.unwrap_or_else(|| vec![0.0; len]), home }
    }

    /// `len` copies of `value` (`+0.0` bits for zeros, whatever the buffer
    /// held before).
    pub(crate) fn filled(len: usize, value: f32) -> Self {
        let (free, home) = request(len);
        let data = match free {
            Some(mut v) => {
                v.fill(value);
                v
            }
            None => vec![value; len],
        };
        Buffer { data, home }
    }

    /// `len` zeros.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self::filled(len, 0.0)
    }

    /// Hands the storage out of the cache's reach, without a copy.
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }
}

impl From<Vec<f32>> for Buffer {
    fn from(data: Vec<f32>) -> Self {
        Buffer { data, home: 0 }
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        let mut copy = Buffer::for_overwrite(self.data.len());
        copy.data.copy_from_slice(&self.data);
        copy
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.home == 0 || self.data.capacity() == 0 {
            return;
        }
        if HOME.try_with(Cell::get) != Ok(self.home) {
            return;
        }
        let v = std::mem::take(&mut self.data);
        // During the thread's teardown (`try_with` fails) and on a
        // re-entrant drop, `v` is freed with the closure.
        let _ = CACHE.try_with(move |c| {
            if let Ok(mut cache) = c.try_borrow_mut() {
                cache.give(v);
            }
        });
    }
}

impl Deref for Buffer {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Bytes of free buffers this thread holds now.
#[cfg(test)]
fn retained() -> usize {
    CACHE.with(|c| c.borrow().bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    // Each test runs on a thread of its own, so each starts with an empty
    // cache; lengths are odd ones no other code in a test asks for.

    #[test]
    fn zeros_from_a_reused_buffer_are_positive_zero_bits() {
        let len = 1031;
        let dirty: Vec<f32> = (0..len).map(|i| if i % 2 == 0 { f32::NAN } else { -0.0 }).collect();
        let at = {
            let mut t = Tensor::zeros(&[len]);
            t.data_mut().copy_from_slice(&dirty);
            t.data().as_ptr()
        };
        let z = Tensor::zeros(&[len]);
        assert_eq!(z.data().as_ptr(), at, "the dropped buffer is reused");
        assert!(z.data().iter().all(|x| x.to_bits() == 0), "all +0.0");
    }

    #[test]
    fn a_buffer_a_clone_still_shares_is_never_recycled() {
        let len = 1033;
        let original = Tensor::full(&[len], 7.5);
        let clone = original.clone();
        drop(original);
        let z = Tensor::zeros(&[len]);
        assert_ne!(z.data().as_ptr(), clone.data().as_ptr());
        assert!(clone.data().iter().all(|&x| x == 7.5), "the clone's data is intact");
        assert!(z.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn a_thread_keeps_only_buffers_it_handed_out() {
        let len = 1039;
        let made = std::thread::spawn(move || Tensor::full(&[len], 1.0)).join().unwrap();
        let before = retained();
        drop(made);
        assert_eq!(retained(), before, "a length this thread never asked for is freed");
        let mine = Tensor::zeros(&[len]);
        drop(mine);
        assert_eq!(retained(), before + len * 4, "one it asked for is kept");
        // Nor does a length it has asked for let in buffers made elsewhere:
        // a stream of them would pile up on the shelf.
        let theirs = std::thread::spawn(move || Tensor::full(&[len], 2.0)).join().unwrap();
        drop(theirs);
        drop(Tensor::from_vec(vec![3.0; len], &[len]));
        assert_eq!(retained(), before + len * 4);
    }

    #[test]
    fn a_later_thread_never_gets_an_exited_threads_home() {
        // Sequential threads may reuse one another's stacks, and with them
        // the addresses of their thread-locals; their ids still differ.
        let ids: Vec<usize> = (0..4).map(|_| std::thread::spawn(home).join().unwrap()).collect();
        assert!(ids[0] != 0 && ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn retained_bytes_stay_within_the_bound() {
        std::thread::spawn(|| {
            let len = (RETAIN_BYTES / 4) / 3 + 1; // three of these do not fit
            let tensors: Vec<_> = (0..8).map(|_| Tensor::zeros(&[len])).collect();
            drop(tensors);
            assert_eq!(retained(), 2 * len * 4, "as many as fit are kept");
            // A buffer larger than the whole bound is never kept.
            drop(Tensor::zeros(&[RETAIN_BYTES / 4 + 1]));
            assert_eq!(retained(), 2 * len * 4);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn into_vec_of_a_unique_tensor_does_not_copy() {
        let t = Tensor::from_vec((0..1049).map(|i| i as f32).collect(), &[1049]);
        let at = t.data().as_ptr();
        let v = t.into_vec();
        assert_eq!(v.as_ptr(), at);
        let t = Tensor::zeros(&[1051]);
        let at = t.data().as_ptr();
        let v = t.into_vec();
        assert_eq!(v.as_ptr(), at, "nor of one from the cache");
    }

    #[test]
    fn a_drop_during_thread_teardown_does_not_panic() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static CACHE_WAS_GONE: AtomicBool = AtomicBool::new(false);
        struct DropsATensor(Option<Tensor>);
        impl Drop for DropsATensor {
            fn drop(&mut self) {
                CACHE_WAS_GONE.store(CACHE.try_with(|_| ()).is_err(), Ordering::Relaxed);
                drop(self.0.take());
            }
        }
        thread_local! {
            static LATE: RefCell<DropsATensor> = const { RefCell::new(DropsATensor(None)) };
        }
        std::thread::spawn(|| {
            // `LATE` is set up before the cache, so it is torn down after it.
            LATE.with(|l| l.borrow_mut().0 = Some(Tensor::zeros(&[1061])));
        })
        .join()
        .expect("the thread exits cleanly");
        assert!(CACHE_WAS_GONE.load(Ordering::Relaxed), "the drop ran after the cache's teardown");
    }
}
