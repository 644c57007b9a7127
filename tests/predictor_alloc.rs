//! Both predictors run on the parameter server's thread, once per arriving
//! worker state, while that worker waits for the reply: a steady-state
//! `observe_and_predict` must not touch the heap. (The autograd LSTM they
//! used to run on cloned every weight tensor twice per call — 524 KB and
//! 268 KB for the step predictor, both above glibc's 128 KB mmap threshold,
//! so every call paid for mapping, faulting in and unmapping the pages;
//! DESIGN.md §13.4.)
//!
//! The file holds one test: the counting allocator is the whole binary's.

use lc_asgd::core::predictor::{LossPredictor, StepPredictor};
use lc_asgd::tensor::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap requests made by this thread (the test harness has others).
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one being implemented; the counter is a `const`-initialised
// thread-local `Cell` without a destructor, so touching it never allocates
// and never runs during thread teardown (`try_with` covers the rest).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_predictor_calls_do_not_allocate() {
    let workers = 4;
    let mut rng = Rng::seed_from_u64(17);
    let mut loss = LossPredictor::new(&mut rng);
    let mut step = StepPredictor::new(workers, &mut rng);
    let mut call = |i: usize| {
        // A slowly falling loss at the forecast horizon M − 1; every worker
        // in turn reporting M − 1 steps.
        let l = loss.observe_and_predict(2.0 / (1.0 + i as f32 * 0.01), workers - 1);
        let k = step.observe_and_predict(i % workers, (workers - 1) as f32, 1e-3, 1e-2);
        assert!(l.l_delay.is_finite() && k.is_finite());
    };
    // Warm-up: the first rollout sizes its buffer, and each worker's stream
    // needs a previous observation before its calls train.
    (0..2 * workers).for_each(&mut call);
    let before = REQUESTS.with(Cell::get);
    (2 * workers..2 * workers + 100).for_each(&mut call);
    assert_eq!(REQUESTS.with(Cell::get) - before, 0, "heap requests across 100 calls of each");
}
