//! Reusable read-buffer pool for the reactor.
//!
//! Every reactor connection owns one growable byte buffer that incoming
//! stream data lands in and frames are parsed out of. Connections churn
//! (reconnects, reaps, crash-restart fault plans), but their buffers
//! should not: the pool hands buffers out on accept and takes them back on
//! close, so a storm of reconnects settles into a steady state with zero
//! allocation.
//!
//! A buffer grows to the largest frame its peer ever sent, which for a
//! gradient push is the size of the model. The free list is therefore
//! bounded twice: at most `MAX_FREE` (64) buffers and at most
//! `MAX_FREE_BYTES` (4 MiB) of capacity. A returned buffer that does not fit is
//! dropped, not kept — idle model-sized buffers would pin more memory than
//! re-growing one on the next connection costs.
//!
//! The pool is deliberately single-threaded (the reactor owns it — no
//! locks) and audited: `outstanding()` counts buffers currently lent out,
//! and the reactor asserts it returns to zero at serve teardown. A
//! poisoned connection (bad frame, CRC failure, dead socket) returns its
//! buffer through exactly the same close path as a clean goodbye, so no
//! failure mode leaks.

/// Initial capacity of a fresh pool buffer: big enough for the protocol's
/// control frames and small requests without a grow.
const INITIAL_CAPACITY: usize = 4 * 1024;

/// Buffers kept in reserve; beyond this, returned buffers are dropped so
/// a one-off 1024-connection burst doesn't pin memory forever.
const MAX_FREE: usize = 64;

/// Total capacity the free list may hold. Enough for `MAX_FREE` buffers
/// that grew to 64 KiB; a multi-megabyte buffer is never retained.
const MAX_FREE_BYTES: usize = 4 << 20;

/// A pool of reusable read buffers. See the module docs.
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    free_bytes: usize,
    outstanding: usize,
    reuses: u64,
    allocations: u64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    pub fn new() -> Self {
        BufferPool { free: Vec::new(), free_bytes: 0, outstanding: 0, reuses: 0, allocations: 0 }
    }

    /// Lends a cleared buffer out. Reuses a pooled one when available.
    pub fn get(&mut self) -> Vec<u8> {
        self.outstanding += 1;
        match self.free.pop() {
            Some(mut buf) => {
                self.reuses += 1;
                self.free_bytes -= buf.capacity();
                buf.clear();
                buf
            }
            None => {
                self.allocations += 1;
                Vec::with_capacity(INITIAL_CAPACITY)
            }
        }
    }

    /// Takes a buffer back. Must be called exactly once per [`get`], on
    /// every close path — clean or poisoned.
    ///
    /// [`get`]: BufferPool::get
    pub fn put(&mut self, buf: Vec<u8>) {
        debug_assert!(self.outstanding > 0, "pool returned more buffers than it lent");
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.free.len() < MAX_FREE && self.free_bytes + buf.capacity() <= MAX_FREE_BYTES {
            self.free_bytes += buf.capacity();
            self.free.push(buf);
        }
    }

    /// Bytes of capacity held by the free list; never above
    /// `MAX_FREE_BYTES` (4 MiB).
    pub fn retained_bytes(&self) -> usize {
        self.free_bytes
    }

    /// Buffers currently lent out. Zero once every connection is closed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// How many `get`s were served from the free list.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many `get`s had to allocate.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Buffers sitting in the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_returns_every_buffer_and_reuses_instead_of_allocating() {
        let mut pool = BufferPool::new();
        // Warm-up: 8 concurrent connections.
        let mut held: Vec<Vec<u8>> = (0..8).map(|_| pool.get()).collect();
        assert_eq!(pool.outstanding(), 8);
        assert_eq!(pool.allocations(), 8);
        for buf in held.drain(..) {
            pool.put(buf);
        }
        assert_eq!(pool.outstanding(), 0);

        // Churn: 100 sequential reconnects must never allocate again.
        for i in 0..100u8 {
            let mut buf = pool.get();
            buf.extend_from_slice(&[i; 128]);
            pool.put(buf);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.allocations(), 8);
        assert_eq!(pool.reuses(), 100);
    }

    #[test]
    fn reissued_buffers_come_back_empty_but_keep_their_capacity() {
        let mut pool = BufferPool::new();
        let mut buf = pool.get();
        buf.resize(1 << 16, 0xAB); // grown by a large frame
        pool.put(buf);
        let buf = pool.get();
        assert!(buf.is_empty(), "stale bytes must not leak between connections");
        assert!(buf.capacity() >= 1 << 16, "growth must be retained across reuse");
        pool.put(buf);
    }

    #[test]
    fn poisoned_connection_close_path_returns_the_in_flight_buffer() {
        // Models the reactor's poison path: a connection dies mid-frame
        // with bytes still in its buffer; close returns it regardless.
        let mut pool = BufferPool::new();
        let mut buf = pool.get();
        buf.extend_from_slice(&[0xFF; 13]); // half a header
        assert_eq!(pool.outstanding(), 1);
        pool.put(buf); // the poison/close path
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn a_model_sized_buffer_is_dropped_not_retained() {
        let mut pool = BufferPool::new();
        let mut big = pool.get();
        big.resize(8 << 20, 0); // one 8 MB frame went through it
        pool.put(big);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.retained_bytes(), 0);
        // The next connection starts from a fresh small buffer.
        let buf = pool.get();
        assert!(buf.capacity() < 8 << 20);
        pool.put(buf);
    }

    #[test]
    fn retained_bytes_track_the_free_list_and_respect_the_byte_cap() {
        let mut pool = BufferPool::new();
        // 1 MiB buffers: the byte cap, not the count cap, is what binds.
        let held: Vec<Vec<u8>> = (0..8)
            .map(|_| {
                let mut buf = pool.get();
                buf.resize(1 << 20, 0);
                buf
            })
            .collect();
        for buf in held {
            pool.put(buf);
        }
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.retained_bytes() <= MAX_FREE_BYTES);
        assert_eq!(pool.idle(), MAX_FREE_BYTES >> 20);
        // Handing a buffer back out releases its share of the budget.
        let before = pool.retained_bytes();
        let buf = pool.get();
        assert_eq!(pool.retained_bytes(), before - buf.capacity());
        pool.put(buf);
        assert_eq!(pool.retained_bytes(), before);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = BufferPool::new();
        let held: Vec<Vec<u8>> = (0..MAX_FREE + 40).map(|_| pool.get()).collect();
        for buf in held {
            pool.put(buf);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.idle(), MAX_FREE);
    }
}
