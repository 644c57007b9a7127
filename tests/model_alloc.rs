//! A model-sized buffer has one owner that outlives the iteration
//! (DESIGN.md §12.6): a learner in steady state asks the heap for nothing
//! of that size, and a whole TCP run for a bounded handful per update.
//!
//! The model is the benchmark's wide one, `mlp(&[256, 1024, 1024, 10])` at
//! batch 16: 5.3 MB of parameters, whose two large weight matrices are
//! 1 MB and 4 MB — so "model-sized" is a request of at least [`BIG`] bytes,
//! all of them beyond glibc's mmap threshold, where each one costs a
//! mapping, its page faults and an unmapping. (Before the learner's
//! buffers had owners an iteration made 5 of them, an applied update of
//! the f32 run 11.8 and of the int8 + 4 shards + standby run 38.)
//!
//! The counting allocator is the whole binary's and counts every thread's
//! requests, so the tests take turns.

use lc_asgd::core::worker::WorkerNode;
use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What counts as model-sized.
const BIG: usize = 1 << 20;
const BATCH: usize = 16;

/// Heap requests of at least [`BIG`] bytes, over all threads, and the bytes
/// of them now live and at their highest since [`footprint_of`] last reset
/// it. `Relaxed`: statistics, read after the threads that bump them have
/// been joined.
static BIG_REQUESTS: AtomicU64 = AtomicU64::new(0);
static BIG_LIVE: AtomicU64 = AtomicU64::new(0);
static BIG_PEAK: AtomicU64 = AtomicU64::new(0);
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

fn born(size: usize) {
    if size >= BIG {
        BIG_REQUESTS.fetch_add(1, Ordering::Relaxed);
        let live = BIG_LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        BIG_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn gone(size: usize) {
    if size >= BIG {
        BIG_LIVE.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one being implemented; the counters are static atomics,
// so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        born(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        gone(layout.size());
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        gone(layout.size());
        born(new_size);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn wide(rng: &mut Rng) -> lc_asgd::nn::Network {
    mlp(&[256, 1024, 1024, 10], false, rng)
}

fn task() -> (Dataset, Dataset) {
    blobs_split(10, 256, 16, 64, 3.0, 5)
}

/// Model-sized requests `f` makes, alone in the process.
fn big_requests_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BIG_REQUESTS.load(Ordering::Relaxed);
    let out = f();
    (BIG_REQUESTS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_steady_state_learner_iteration_makes_no_model_sized_request() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (train, _) = task();
    for two_phase in [false, true] {
        let net = wide(&mut Rng::seed_from_u64(3));
        let weights = net.flat_params();
        let mut node = WorkerNode::new(net, train.len(), BATCH, 9);
        let iterate = |node: &mut WorkerNode| {
            let grads = if two_phase {
                // LC-ASGD's order: the forward state goes out, a
                // compensated seed comes back, then the backward pass.
                let (loss, _) = node.forward_phase(&weights, &train);
                let running = node.bn_running();
                assert!(loss.is_finite() && running.means.is_empty());
                node.backward_phase(1.25)
            } else {
                node.compute_gradient(&weights, &train).1
            };
            assert_eq!(grads.len(), weights.len());
            // The push has been encoded: the vector comes back.
            node.recycle_grads(grads);
        };
        // Warm-up: the first backward pass makes the gradient arena.
        (0..2).for_each(|_| iterate(&mut node));
        let (big, ()) = big_requests_of(|| (0..20).for_each(|_| iterate(&mut node)));
        assert_eq!(big, 0, "model-sized requests in 20 iterations (two_phase = {two_phase})");
    }
}

/// What `f` costs, alone in the process: its model-sized requests, and the
/// most bytes of them alive at once while it ran.
fn footprint_of<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    BIG_PEAK.store(BIG_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let (big, out) = big_requests_of(f);
    (big, BIG_PEAK.load(Ordering::Relaxed), out)
}

/// One configuration of a whole `NetCluster` run of the wide model, M = 2 —
/// set-up, every thread, evaluation and teardown included.
struct TcpRun {
    algorithm: Algorithm,
    codec: WireCodec,
    opts: fn() -> RunOptions,
}

/// Per gradient pushed (an applied update, for the asynchronous
/// algorithms): the model-sized requests of a whole run, and of a run in
/// steady state; and the bytes by which a longer run's peak of live
/// model-sized memory exceeds a shorter one's.
struct Footprint {
    whole: f64,
    steady: f64,
    peak_growth: i64,
}

impl TcpRun {
    /// (requests, peak live bytes) of a run `epochs` × 10 pushes long.
    fn run(&self, epochs: usize) -> (u64, u64) {
        let (train, test) = task();
        let mut cfg = ExperimentConfig::new(self.algorithm, 2, Scale::Small, 5);
        cfg.epochs = epochs;
        cfg.batch_size = BATCH;
        cfg.lr = lc_asgd::nn::optimizer::LrSchedule::constant(0.003);
        let net = NetConfig { wire_codec: self.codec, ..NetConfig::default() };
        let backend = NetCluster::new(2).with_config(net);
        let (big, peak, result) =
            footprint_of(|| run_cluster_with(backend, &cfg, &wide, &train, &test, (self.opts)()));
        // An SSGD round applies its two pushes as one update.
        let per_update = if self.algorithm == Algorithm::Ssgd { 2 } else { 1 };
        let updates = result.expect("the run completes").iterations;
        assert_eq!(updates * per_update, 10 * epochs as u64);
        (big, peak)
    }

    /// Whole process over 60 pushes, and what the next 60 add: the first
    /// holds the run's set-up (four replicas, the buffers that then go
    /// round), the second is the steady state.
    fn measure(&self, label: &str) -> Footprint {
        let (short, short_peak) = self.run(6);
        let (long, long_peak) = self.run(12);
        let whole = short as f64 / 60.0;
        let steady = (long as f64 - short as f64) / 60.0;
        let peak_growth = long_peak as i64 - short_peak as i64;
        let mb = |bytes: u64| bytes as f64 / BIG as f64;
        println!(
            "  {label:<28}{whole:>5.2} / {steady:>5.2}   peak live {:.1} -> {:.1} MB",
            mb(short_peak),
            mb(long_peak)
        );
        Footprint { whole, steady, peak_growth }
    }
}

/// What a longer run's peak may exceed a shorter one's by: which transient
/// buffers overlap at the peak — a second snapshot slot, the reply cache's
/// up to four payloads — is timing. Four models; a buffer kept per update
/// would add sixty.
const PEAK_SLACK: i64 = 4 * 4 * (256 * 1024 + 1024 * 1024 + 1024 * 10 + 2058);

#[test]
fn a_tcp_run_makes_a_bounded_handful_of_model_sized_requests_per_update() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    println!("model-sized requests per gradient pushed, whole process / steady state:");
    let plain =
        TcpRun { algorithm: Algorithm::Asgd, codec: WireCodec::F32, opts: RunOptions::default }
            .measure("f32, one shard");
    assert!(plain.whole <= 2.0, "f32, one shard: {:.2} per update", plain.whole);
    // What is left in steady state is the reactor's: the payload each new
    // version's reply is encoded into (DESIGN.md §12.6).
    assert!(plain.steady <= 1.25, "f32, one shard, steady state: {:.2}", plain.steady);
    assert!(plain.peak_growth <= PEAK_SLACK, "f32, one shard: peak grew {}", plain.peak_growth);

    let quantized = TcpRun {
        algorithm: Algorithm::LcAsgd,
        codec: WireCodec::Int8,
        opts: || {
            RunOptions { standby: Some(StandbyConfig::default()), ..RunOptions::default() }
                .shards(4)
        },
    }
    .measure("int8, 4 shards, standby");
    // What is left here is the write-ahead log's: per push four delta
    // vectors, the flush's encoding, the standby's frame and its four
    // decoded deltas (DESIGN.md §12.6).
    assert!(quantized.whole <= 13.0, "int8, 4 shards, standby: {:.2}", quantized.whole);
}

/// A quantized push on one shard is unpacked by the server, not decoded by
/// the transport, and a quantized reply by the worker: neither vector is
/// the transport's to get back, and handing it one anyway would park a
/// model per update in a list nothing pops.
#[test]
fn a_quantized_one_shard_run_holds_no_more_the_longer_it_runs() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    println!("model-sized requests per gradient pushed, whole process / steady state:");
    for (algorithm, label) in
        [(Algorithm::Asgd, "int8, one shard, ASGD"), (Algorithm::Ssgd, "int8, one shard, SSGD")]
    {
        let run = TcpRun { algorithm, codec: WireCodec::Int8, opts: RunOptions::default };
        let Footprint { whole, steady, peak_growth } = run.measure(label);
        // Steady state costs what the packed messages themselves do (their
        // `i8` levels are 1.3 MB): nothing f32-sized is born per push.
        assert!(steady <= whole, "{label}: {steady:.2} per push in steady state, {whole:.2} whole");
        assert!(steady <= 6.5, "{label}: {steady:.2} per push in steady state");
        assert!(peak_growth <= PEAK_SLACK, "{label}: peak of live bytes grew {peak_growth}");
    }
}
