//! Per-layer probes: each layer's public functions called from outside,
//! at the shapes the workload trains with, and timed.
//!
//! A probe's value is the median of [`SAMPLES`] timed samples after a
//! warm-up; operations too short for the clock are timed in batches. A
//! layer the workload never enters (predictors under ASGD, codecs on an
//! f32 wire, convolutions in an MLP, …) reports 0, which is also what a
//! later change to that layer should move on this workload: nothing.

use crate::stats::median;
use crate::workloads::{Model, Transport, Workload, BATCH};
use lc_asgd::core::predictor::{LossPredictor, StepPredictor};
use lc_asgd::core::worker::WorkerNode;
use lc_asgd::core::{
    ClusterReq, ClusterResp, Compression, LogRecord, ShardGroup, StandbyReplica, TrainingCheckpoint,
};
use lc_asgd::data::BatchIter;
use lc_asgd::netcluster::frame::{crc32, read_frame, write_frame, Frame, FrameKind};
use lc_asgd::nn::network::BnState;
use lc_asgd::simcluster::{PackedF32, WireMsg};
use lc_asgd::tensor::ops::conv::{conv2d, conv2d_dw, conv2d_dx, Conv2dSpec};
use lc_asgd::tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per probe.
pub const SAMPLES: usize = 31;

/// One sample should last at least this long, so the clock's resolution
/// stays below 1 % of it; shorter operations are repeated inside a sample.
const MIN_SAMPLE_S: f64 = 50e-6;

/// Median seconds per call of `op`, over [`SAMPLES`] samples.
fn time_op(mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op(); // warm-up, and the estimate that sizes a sample
    let once = t.elapsed().as_secs_f64();
    let per_sample = ((MIN_SAMPLE_S / once.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_sample {
                op();
            }
            t.elapsed().as_secs_f64() / per_sample as f64
        })
        .collect();
    median(&samples).expect("SAMPLES > 0")
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// Every metric a probe produces, in `BENCHMARK.json`'s order.
pub const NAMES: [&str; 26] = [
    "tensor.matmul_ms",
    "tensor.conv_fwd_ms",
    "tensor.conv_dw_ms",
    "tensor.conv_dx_ms",
    "worker.forward_ms",
    "worker.backward_ms",
    "nn.flat_params_us",
    "data.batch_us",
    "predictor.loss_ms",
    "predictor.step_ms",
    "server.apply_us",
    "server.assemble_us",
    "server.absorb_bn_us",
    "protocol.encode_us",
    "protocol.decode_us",
    "codec.pack_us",
    "codec.unpack_us",
    "comm.compress_us",
    "comm.decompress_us",
    "frame.crc_us",
    "frame.write_us",
    "frame.read_us",
    "replication.digest_us",
    "replication.apply_us",
    "checkpoint.to_bytes_ms",
    "checkpoint.from_bytes_ms",
];

/// Runs the probes of every layer `w` enters and returns one `(name,
/// value)` pair per entry of [`NAMES`]: 0 for the layers it does not.
pub fn run(w: &Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let task = w.setup(seed, 1);
    let mut rng = Rng::seed_from_u64(seed ^ 0x9E37);
    let params = task.net.num_params();
    let weights = task.net.flat_params();
    let grads: Vec<f32> = (0..params).map(|_| rng.normal() as f32 * 1e-2).collect();
    let on_wire = w.transport == Transport::Tcp;
    let is_lc = w.algorithm == lc_asgd::core::Algorithm::LcAsgd;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ---- tensor -------------------------------------------------------
    // The model's largest explicit forward GEMM: R's classifier head
    // (its convolutions are probed below), W's 1024×1024 hidden layer.
    let (k, n) = match w.model {
        Model::ResnetTiny => (32, 10),
        Model::WideMlp => (1024, 1024),
    };
    let (a, b) = (Tensor::randn(&[BATCH, k], 1.0, &mut rng), Tensor::randn(&[k, n], 1.0, &mut rng));
    out.push(("tensor.matmul_ms", time_op(|| drop(black_box(a.matmul(black_box(&b))))) * MS));
    match w.model {
        Model::ResnetTiny => {
            // R's dominant convolution: the 8→8 3×3 of the first residual
            // stage on the full 10×10 map (the largest activation; it
            // runs twice per forward pass).
            let spec =
                Conv2dSpec { in_channels: 8, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
            let x = Tensor::randn(&[BATCH, 8, 10, 10], 1.0, &mut rng);
            let kern = Tensor::randn(&[8, 8, 3, 3], 0.1, &mut rng);
            let dy = Tensor::randn(&[BATCH, 8, 10, 10], 1.0, &mut rng);
            out.push((
                "tensor.conv_fwd_ms",
                time_op(|| drop(black_box(conv2d(black_box(&x), &kern, &spec)))) * MS,
            ));
            out.push((
                "tensor.conv_dw_ms",
                time_op(|| drop(black_box(conv2d_dw(black_box(&dy), &x, &spec)))) * MS,
            ));
            out.push((
                "tensor.conv_dx_ms",
                time_op(|| drop(black_box(conv2d_dx(black_box(&dy), &kern, &spec, 10, 10)))) * MS,
            ));
        }
        Model::WideMlp => {}
    }

    // ---- core::worker / nn / data -------------------------------------
    // forward_phase leaves a pending graph that backward_phase consumes,
    // so the two are timed in alternation.
    let mut node = WorkerNode::new(
        w.build_model(&mut Rng::seed_from_u64(seed)),
        task.train.len(),
        BATCH,
        seed,
    );
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..=SAMPLES {
        let t = Instant::now();
        black_box(node.forward_phase(&weights, &task.train));
        fwd.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(node.backward_phase(1.0));
        bwd.push(t.elapsed().as_secs_f64());
    }
    out.push(("worker.forward_ms", median(&fwd[1..]).expect("samples") * MS));
    out.push(("worker.backward_ms", median(&bwd[1..]).expect("samples") * MS));
    let mut net = w.build_model(&mut Rng::seed_from_u64(seed));
    out.push((
        "nn.flat_params_us",
        time_op(|| {
            net.set_flat_params(black_box(&weights));
            black_box(net.flat_params());
        }) * US,
    ));
    let mut batches = BatchIter::new(task.train.len(), BATCH, seed);
    out.push(("data.batch_us", time_op(|| drop(black_box(batches.next_batch(&task.train)))) * US));

    // ---- core::predictor ----------------------------------------------
    if is_lc {
        let mut prng = Rng::seed_from_u64(seed ^ 0x9_11D);
        let mut loss_pred = LossPredictor::new(&mut prng);
        let mut step_pred = StepPredictor::new(w.workers, &mut prng);
        let mut i = 0u32;
        out.push((
            "predictor.loss_ms",
            time_op(|| {
                i += 1;
                // A slowly falling loss and the forecast horizon M−1, as
                // a steady run presents them.
                let loss = 2.0 / (1.0 + i as f32 * 0.01);
                black_box(loss_pred.observe_and_predict(loss, w.workers - 1));
            }) * MS,
        ));
        let mut m = 0usize;
        out.push((
            "predictor.step_ms",
            time_op(|| {
                m = (m + 1) % w.workers;
                black_box(step_pred.observe_and_predict(m, (w.workers - 1) as f32, 1e-3, 1e-2));
            }) * MS,
        ));
    }

    // ---- core::server / shard -----------------------------------------
    let mut group =
        ShardGroup::new(&task.net, w.workers, task.cfg.bn_mode, task.cfg.bn_momentum, w.shards)
            .expect("the workload's shard count partitions its model");
    // lr 0 keeps the weights finite however many samples run.
    out.push(("server.apply_us", time_op(|| group.apply_grad(black_box(&grads), 0.0)) * US));
    out.push(("server.assemble_us", time_op(|| drop(black_box(group.assembled_weights()))) * US));
    let (batch_stats, running) = {
        let (_, stats) = node.forward_phase(&weights, &task.train);
        node.backward_phase(1.0);
        (stats, node.bn_running())
    };
    if !batch_stats.is_empty() {
        out.push((
            "server.absorb_bn_us",
            time_op(|| group.absorb_bn(black_box(&running), &batch_stats)) * US,
        ));
    }

    // ---- core::protocol / comm, simcluster::codec ---------------------
    // One iteration's two model-sized messages: the weights reply in the
    // workload's codec and the gradient push in the matching compression.
    let compression = Compression::for_codec(w.codec);
    if on_wire {
        let reply = ClusterResp::weights_for(w.codec, weights.clone(), 1, None, 0);
        let push = ClusterReq::Grad {
            grads: compression.compress(&grads, None),
            pull_version: 1,
            loss: 0.5,
            batch_stats: Vec::new(),
            running: BnState::default(),
            epoch: 0,
            push_seq: 1,
            shard: 0,
        };
        let (reply_bytes, push_bytes) = (reply.encoded(), push.encoded());
        out.push((
            "protocol.encode_us",
            time_op(|| {
                black_box(reply.encoded());
                black_box(push.encoded());
            }) * US,
        ));
        out.push((
            "protocol.decode_us",
            time_op(|| {
                black_box(ClusterResp::decoded(black_box(&reply_bytes)).is_ok());
                black_box(ClusterReq::decoded(black_box(&push_bytes)).is_ok());
            }) * US,
        ));

        // ---- netcluster::frame ----------------------------------------
        let frame = Frame::new(FrameKind::Reply, 7, reply_bytes);
        out.push((
            "frame.crc_us",
            time_op(|| {
                black_box(crc32(black_box(&frame.payload)));
            }) * US,
        ));
        let mut wire = Vec::with_capacity(frame.payload.len() + 64);
        out.push((
            "frame.write_us",
            time_op(|| {
                wire.clear();
                write_frame(&mut wire, black_box(&frame)).expect("writing to a Vec cannot fail");
            }) * US,
        ));
        out.push((
            "frame.read_us",
            time_op(|| {
                drop(black_box(read_frame(&mut wire.as_slice()).expect("frame just written")))
            }) * US,
        ));
    }
    if let Some(packed) = PackedF32::pack(w.codec, &weights) {
        out.push((
            "codec.pack_us",
            time_op(|| drop(black_box(PackedF32::pack(w.codec, black_box(&weights))))) * US,
        ));
        out.push(("codec.unpack_us", time_op(|| drop(black_box(packed.unpack()))) * US));
        let mut residual = vec![0.0f32; params];
        let compressed = compression.compress(&grads, None);
        out.push((
            "comm.compress_us",
            time_op(|| {
                drop(black_box(compression.compress(black_box(&grads), Some(&mut residual))))
            }) * US,
        ));
        out.push(("comm.decompress_us", time_op(|| drop(black_box(compressed.decompress()))) * US));
    }

    // ---- core::replication / checkpoint -------------------------------
    if w.standby {
        let spec = group.spec().clone();
        let slice = spec.range(0);
        let delta = grads[slice.clone()].to_vec();
        out.push((
            "replication.digest_us",
            time_op(|| {
                black_box(LogRecord::digest_of(black_box(&delta)));
            }) * US,
        ));
        let snapshot = TrainingCheckpoint {
            weights: weights.clone(),
            shard_versions: if w.shards > 1 { vec![0; w.shards] } else { Vec::new() },
            arrival: vec![None; w.workers],
            push_seqs: vec![0; w.workers],
            ..TrainingCheckpoint::default()
        };
        // Records for shard 0 only, consecutive seqs: each apply replays
        // one shard slice, as one of the `shards` records of a push does.
        let digest = LogRecord::digest_of(&delta);
        let records: Vec<LogRecord> = (0..=SAMPLES as u64)
            .map(|i| LogRecord {
                seq: i + 1,
                epoch: 0,
                worker: 0,
                push_seq: 0,
                version: i + 1,
                staleness: 1,
                loss: 0.5,
                delta: delta.clone(),
                digest,
                arrival: None,
                bn: None,
                shard: 0,
            })
            .collect();
        let mut replica = StandbyReplica::from_snapshot(snapshot.clone(), 1, 10);
        let applies: Vec<f64> = records
            .iter()
            .map(|rec| {
                let t = Instant::now();
                replica.apply(rec).expect("consecutive verified records apply");
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.push(("replication.apply_us", median(&applies[1..]).expect("samples") * US));
        let bytes = snapshot.to_bytes();
        out.push(("checkpoint.to_bytes_ms", time_op(|| drop(black_box(snapshot.to_bytes()))) * MS));
        out.push((
            "checkpoint.from_bytes_ms",
            time_op(|| {
                black_box(TrainingCheckpoint::from_bytes(black_box(&bytes)).is_ok());
            }) * MS,
        ));
    }

    debug_assert!(out.iter().all(|(name, _)| NAMES.contains(name)), "an undeclared probe");
    let value = |name| out.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    NAMES.iter().map(|&name| (name, value(name))).collect()
}
