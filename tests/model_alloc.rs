//! A model-sized buffer has one owner that outlives the iteration
//! (DESIGN.md §12.6): a learner in steady state asks the heap for nothing
//! of that size, and a whole TCP run for a bounded handful per update.
//! An activation-sized buffer is recycled through its thread's tensor
//! cache: a steady-state ResNet-tiny iteration asks the heap for almost
//! nothing of at least [`PAGE`] bytes.
//!
//! The model is the benchmark's wide one, `mlp(&[256, 1024, 1024, 10])` at
//! batch 16: 5.3 MB of parameters, whose two large weight matrices are
//! 1 MB and 4 MB — so "model-sized" is a request of at least [`BIG`] bytes,
//! all of them beyond glibc's mmap threshold, where each one costs a
//! mapping, its page faults and an unmapping. (Before the learner's
//! buffers had owners an iteration made 5 of them, an applied update of
//! the f32 run 11.8 and of the int8 + 4 shards + standby run 38; before the
//! write-ahead log encoded its records in place, that run still made 11.3.)
//!
//! An activation-sized request (a page up to the mmap threshold, 128 KiB
//! by default) costs no mapping, but is not free either: it comes from
//! the top of the heap, and when a whole tape of them is freed at once
//! glibc trims that top and returns its pages to the kernel, so the next
//! iteration faults every page back in, zero-filled — a minor fault per
//! 4 KiB page, every iteration.
//!
//! The counting allocator is the whole binary's and counts every thread's
//! requests, so the tests take turns.

use lc_asgd::core::worker::WorkerNode;
use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What counts as model-sized.
const BIG: usize = 1 << 20;
/// What counts as activation-sized: a page.
const PAGE: usize = 4 << 10;
const BATCH: usize = 16;

/// Heap requests of at least [`BIG`] bytes, over all threads, and the bytes
/// of them now live and at their highest since [`footprint_of`] last reset
/// it. `Relaxed`: statistics, read after the threads that bump them have
/// been joined.
static BIG_REQUESTS: AtomicU64 = AtomicU64::new(0);
static BIG_LIVE: AtomicU64 = AtomicU64::new(0);
static BIG_PEAK: AtomicU64 = AtomicU64::new(0);
/// Heap requests of at least [`PAGE`] bytes, and their bytes.
static PAGE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static PAGE_BYTES: AtomicU64 = AtomicU64::new(0);
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

fn born(size: usize) {
    if size >= PAGE {
        PAGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
        PAGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
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

/// One learner iteration as a worker runs it, fused or in LC-ASGD's two
/// phases, ending with the pushed gradient handed back. `has_bn`: whether
/// the model has BatchNorm, so the forward phase reports running stats.
fn iterate(node: &mut WorkerNode, weights: &[f32], data: &Dataset, two_phase: bool, has_bn: bool) {
    let grads = if two_phase {
        // LC-ASGD's order: the forward state goes out, a compensated seed
        // comes back, then the backward pass.
        let (loss, _) = node.forward_phase(weights, data);
        let running = node.bn_running();
        assert!(loss.is_finite());
        assert_eq!(running.means.is_empty(), !has_bn, "running stats (has_bn = {has_bn})");
        assert_eq!(running.means.len(), running.vars.len());
        node.backward_phase(1.25)
    } else {
        node.compute_gradient(weights, data).1
    };
    assert_eq!(grads.len(), weights.len());
    // The push has been encoded: the vector comes back.
    node.recycle_grads(grads);
}

#[test]
fn a_steady_state_learner_iteration_makes_no_model_sized_request() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (train, _) = task();
    for two_phase in [false, true] {
        let net = wide(&mut Rng::seed_from_u64(3));
        let weights = net.flat_params();
        let mut node = WorkerNode::new(net, train.len(), BATCH, 9);
        // Warm-up: the first backward pass makes the gradient arena.
        (0..2).for_each(|_| iterate(&mut node, &weights, &train, two_phase, false));
        let (big, ()) = big_requests_of(|| {
            (0..20).for_each(|_| iterate(&mut node, &weights, &train, two_phase, false))
        });
        assert_eq!(big, 0, "model-sized requests in 20 iterations (two_phase = {two_phase})");
    }
}

/// The benchmark's ResNet-tiny task: CIFAR-like 10×10 images, as
/// `Scale::Small` makes them.
fn images() -> Dataset {
    let hw = Scale::Small.cifar_hw();
    let per_class = Scale::Small.cifar_train_per_class();
    let spec = SyntheticImageSpec {
        noise: 1.2,
        label_noise: 0.08,
        seed: 5,
        ..SyntheticImageSpec::cifar10_like(hw, hw, per_class, 1)
    };
    spec.generate().0
}

/// Activation-sized requests of a steady-state ResNet-tiny iteration, at
/// most. Every tensor buffer of the tape comes from the learner thread's
/// tensor cache and goes back to it when the tape drops; what is left is
/// the tape's own node list (4.6 KB) growing once.
const RESNET_PAGE_REQUESTS: f64 = 2.0;

#[test]
fn a_steady_state_resnet_iteration_reuses_its_activation_buffers() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let train = images();
    for two_phase in [false, true] {
        let net = ResNetConfig::tiny(3, 10).build(&mut Rng::seed_from_u64(3));
        let weights = net.flat_params();
        let mut node = WorkerNode::new(net, train.len(), BATCH, 9);
        // Warm-up: the gradient arena, and a first tape's buffers.
        (0..3).for_each(|_| iterate(&mut node, &weights, &train, two_phase, true));
        let (requests, bytes) =
            (PAGE_REQUESTS.load(Ordering::Relaxed), PAGE_BYTES.load(Ordering::Relaxed));
        (0..20).for_each(|_| iterate(&mut node, &weights, &train, two_phase, true));
        let per_iter = |now: u64, then: u64| (now - then) as f64 / 20.0;
        let requests = per_iter(PAGE_REQUESTS.load(Ordering::Relaxed), requests);
        let bytes = per_iter(PAGE_BYTES.load(Ordering::Relaxed), bytes);
        let kb = bytes / 1e3;
        println!(
            "  ResNet-tiny, two_phase = {two_phase}: {requests:.1} requests >= 4 KiB, {kb:.1} KB"
        );
        assert!(
            requests <= RESNET_PAGE_REQUESTS,
            "{requests:.1} activation-sized requests per iteration (two_phase = {two_phase})"
        );
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
/// steady state; the peak of live model-sized bytes of either run, and by
/// how much the longer run's exceeds the shorter one's.
struct Footprint {
    whole: f64,
    steady: f64,
    peak: u64,
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
        Footprint { whole, steady, peak: short_peak.max(long_peak), peak_growth }
    }
}

/// The wide model's parameters, in bytes (5.3 MB).
const MODEL: u64 = 4 * (256 * 1024 + 1024 * 1024 + 1024 * 10 + 2058);

/// What a longer run's peak may exceed a shorter one's by: which transient
/// buffers overlap at the peak — a second snapshot slot, a reply still
/// being written — is timing. Four models; a buffer kept per update would
/// add sixty.
const PEAK_SLACK: i64 = 4 * MODEL as i64;

/// The f32 one-shard run's peak of live model-sized bytes, at most: 19
/// models. At the peak the run holds 15 or 16 — the replicas' weight
/// matrices, the learners', evaluator's and server's vectors, and the
/// reactor's read buffer per connection (DESIGN.md §12.6) — so this
/// leaves three for timing. A model-sized byte buffer per frame on either side of the
/// wire (an encoded reply, a worker's send or receive buffer) takes the
/// peak past it.
const F32_PEAK: u64 = 19 * MODEL;

#[test]
fn a_tcp_run_makes_a_bounded_handful_of_model_sized_requests_per_update() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    println!("model-sized requests per gradient pushed, whole process / steady state:");
    let plain =
        TcpRun { algorithm: Algorithm::Asgd, codec: WireCodec::F32, opts: RunOptions::default }
            .measure("f32, one shard");
    assert!(plain.whole <= 2.0, "f32, one shard: {:.2} per update", plain.whole);
    // Frames are encoded and decoded one staging block at a time, so in
    // steady state nothing model-sized is made per update; what is left is
    // timing — a snapshot copied instead of refilled because another holder
    // (a reply still being written, the evaluator's job) still has the
    // previous version (DESIGN.md §12.6).
    assert!(plain.steady <= 0.25, "f32, one shard, steady state: {:.2}", plain.steady);
    assert!(plain.peak_growth <= PEAK_SLACK, "f32, one shard: peak grew {}", plain.peak_growth);
    assert!(plain.peak <= F32_PEAK, "f32, one shard: peak of {} live bytes", plain.peak);

    let quantized = TcpRun {
        algorithm: Algorithm::LcAsgd,
        codec: WireCodec::Int8,
        opts: || {
            RunOptions { standby: Some(StandbyConfig::default()), ..RunOptions::default() }
                .shards(4)
        },
    }
    .measure("int8, 4 shards, standby");
    // The write-ahead log writes its records into one reused batch, and the
    // standby receives and decodes into reused buffers (DESIGN.md §10.2):
    // per push nothing model-sized is left, and a packed quarter of the
    // model is under a megabyte.
    assert!(quantized.whole <= 3.0, "int8, 4 shards, standby: {:.2}", quantized.whole);
    let growth = quantized.peak_growth;
    assert!(growth <= PEAK_SLACK, "int8, 4 shards, standby: peak grew {growth}");
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
        let Footprint { whole, steady, peak_growth, .. } = run.measure(label);
        // Steady state costs what the packed messages themselves do (their
        // `i8` levels are 1.3 MB): nothing f32-sized is born per push.
        assert!(steady <= whole, "{label}: {steady:.2} per push in steady state, {whole:.2} whole");
        assert!(steady <= 6.5, "{label}: {steady:.2} per push in steady state");
        assert!(peak_growth <= PEAK_SLACK, "{label}: peak of live bytes grew {peak_growth}");
    }
}
