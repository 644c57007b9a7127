//! Experiment drivers: run any of the five algorithms against a dataset on
//! the simulated cluster (plus a real-thread ASGD driver for validation).
//!
//! ## Co-simulation model
//!
//! The numeric computation (forward/backward passes on real tensors) is
//! executed eagerly at the moment the triggering message is *processed* in
//! virtual-time order, while its effects are deferred to the corresponding
//! arrival events. Staleness therefore emerges exactly as in a real
//! cluster: a gradient computed against the weights snapshotted at pull
//! time is applied only after other workers' updates have landed.

use crate::algorithms::Algorithm;
use crate::bnmode::BnMode;
use crate::checkpoint::TrainingCheckpoint;
use crate::config::{DataPartition, ExperimentConfig};
use crate::metrics::{EpochRecord, FaultReport, OverheadStats, PredictorTrace, RunResult};
use crate::predictor::{
    LossPredictor, LossPredictorSnapshot, StepPredictor, StepPredictorSnapshot,
};
use crate::protocol::{ClusterReq, ClusterResp, PullDirective};
use crate::replication::{
    serve_standby, EpochFence, Lease, LogRecord, PushVerdict, ReplicaPayload, StandbyConfig,
    StandbyReplica,
};
use crate::server::ParameterServer;
use crate::shard::{ShardGroup, ShardSpec};
use crate::supervisor::{AlgoMode, Supervisor, SupervisorConfig};
use crate::trace::{phase, ClockDomain, TraceSink};
use crate::worker::WorkerNode;
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_data::{BatchIter, Dataset};
use lcasgd_nn::metrics::evaluate;
use lcasgd_nn::network::BnState;
use lcasgd_nn::Network;
use lcasgd_simcluster::{
    ClusterBackend, ClusterError, ClusterSim, FaultPlan, FaultRecord, ReplicaDuplex, ServerCtx,
    ThreadCluster, WireMsg, WorkerLink,
};
use lcasgd_tensor::{Rng, Tensor};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A model factory: must be deterministic in the RNG it is given so every
/// algorithm starts "based on the same randomly initialized model" (§5).
pub type ModelFn<'a> = &'a dyn Fn(&mut Rng) -> Network;

/// Runs one experiment. Dispatches on `cfg.algorithm`.
pub fn run_experiment(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> RunResult {
    match cfg.algorithm {
        Algorithm::Sgd => run_sequential(cfg, build, train, test),
        Algorithm::Ssgd => run_ssgd(cfg, build, train, test),
        Algorithm::Asgd | Algorithm::DcAsgd | Algorithm::LcAsgd => {
            run_async(cfg, build, train, test)
        }
    }
}

// ---------------------------------------------------------------- eval

struct EvalHarness<'a> {
    net: Network,
    train_x: Tensor,
    train_y: Vec<usize>,
    test: &'a Dataset,
    batch: usize,
}

impl<'a> EvalHarness<'a> {
    fn new(cfg: &ExperimentConfig, build: ModelFn<'_>, train: &Dataset, test: &'a Dataset) -> Self {
        // The eval replica shares the architecture; its weights are
        // overwritten before every evaluation.
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let net = build(&mut rng);
        let n = train.len().min(cfg.max_eval_train);
        let idx: Vec<usize> = (0..n).collect();
        let (train_x, train_y) = train.batch(&idx);
        EvalHarness { net, train_x, train_y, test, batch: cfg.eval_batch }
    }

    fn evaluate(&mut self, weights: &[f32], bn: &BnState) -> (f32, f32) {
        self.net.set_flat_params(weights);
        self.net.set_bn_state(bn);
        let (train_err, _) = evaluate(&self.net, &self.train_x, &self.train_y, self.batch);
        let (test_err, _) = evaluate(&self.net, &self.test.inputs, &self.test.labels, self.batch);
        (train_err, test_err)
    }
}

fn epoch_record(
    epoch: usize,
    time: f64,
    harness: &mut EvalHarness<'_>,
    weights: &[f32],
    bn: &BnState,
    epoch_losses: &mut Vec<f32>,
    lr: f32,
) -> EpochRecord {
    let (train_error, test_error) = harness.evaluate(weights, bn);
    let train_loss = if epoch_losses.is_empty() {
        f32::NAN
    } else {
        epoch_losses.iter().sum::<f32>() / epoch_losses.len() as f32
    };
    epoch_losses.clear();
    EpochRecord { epoch, time, train_error, test_error, train_loss, lr }
}

/// The example indices each worker draws from, per the partition setting.
fn worker_shards(cfg: &ExperimentConfig, m: usize, n: usize) -> Vec<Vec<usize>> {
    match cfg.partition {
        DataPartition::Shared => (0..m).map(|_| (0..n).collect()).collect(),
        DataPartition::Partitioned => BatchIter::partition(n, m),
    }
}

/// Clamps a raw step-predictor forecast (Algorithm 2's `k_m`) to a whole
/// step count: `NaN` and negative forecasts saturate to zero, everything
/// else rounds to the nearest step (overlarge values saturate at
/// `usize::MAX` via Rust's saturating float-to-int cast).
fn km_steps(km: f32) -> usize {
    if km.is_nan() || km <= 0.0 {
        0
    } else {
        km.round() as usize
    }
}

// ---------------------------------------------------------------- SGD

/// Sequential single-machine SGD: the accuracy baseline. Virtual time is
/// one iteration cost per update — no communication.
fn run_sequential(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> RunResult {
    let t0 = Instant::now();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let canonical = build(&mut rng);
    let mut server = ParameterServer::new(&canonical, 1, BnMode::Regular, cfg.bn_momentum);
    let mut worker = WorkerNode::new(canonical, train.len(), cfg.batch_size, cfg.seed ^ 0x5EED);
    let mut harness = EvalHarness::new(cfg, build, train, test);

    let updates_per_epoch = train.len().div_ceil(cfg.batch_size);
    let mut records = Vec::with_capacity(cfg.epochs);
    let mut losses = Vec::new();
    let mut time = 0.0;
    for epoch in 0..cfg.epochs {
        let lr = cfg.lr.at_epoch(epoch);
        for _ in 0..updates_per_epoch {
            let (loss, grads, batch_stats) = worker.compute_gradient(&server.weights, train);
            server.apply_grad(&grads, lr);
            server.absorb_bn(&worker.bn_running(), &batch_stats);
            losses.push(loss);
            time += cfg.cost.iteration();
        }
        records.push(epoch_record(
            epoch + 1,
            time,
            &mut harness,
            &server.weights,
            &server.bn,
            &mut losses,
            lr,
        ));
    }

    RunResult {
        label: "SGD".into(),
        epochs: records,
        staleness: Vec::new(),
        trace: None,
        overhead: None,
        iterations: server.version,
        total_time: time,
        clock: ClockDomain::Virtual,
        wall_time: t0.elapsed().as_secs_f64(),
        transport: None,
        faults: None,
        timeline: None,
        health: None,
        replication: None,
        shards: 0,
    }
}

// ---------------------------------------------------------------- SSGD

/// Synchronous distributed SGD: per round every worker computes a gradient
/// on the same weights; the server waits for all of them (the barrier),
/// averages, and updates once (Formula 1).
fn run_ssgd(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> RunResult {
    let m = cfg.workers.max(1);
    let t0 = Instant::now();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let canonical = build(&mut rng);
    let mut server = ParameterServer::new(&canonical, m, cfg.bn_mode, cfg.bn_momentum);
    let mut shards = worker_shards(cfg, m, train.len());
    let mut workers: Vec<WorkerNode> = (0..m)
        .map(|w| {
            let mut wrng = Rng::seed_from_u64(cfg.seed);
            let shard = std::mem::take(&mut shards[w]);
            WorkerNode::with_indices(
                build(&mut wrng),
                shard,
                cfg.batch_size,
                cfg.seed ^ (w as u64).wrapping_mul(0x9E37) ^ 0xB5,
            )
        })
        .collect();
    let mut harness = EvalHarness::new(cfg, build, train, test);
    let mut sim: ClusterSim<usize> = ClusterSim::new(cfg.cluster.clone());

    // One round consumes M batches: effective batch M·b, so an epoch is
    // n/(M·b) rounds (the "increasing workers = increasing batch size"
    // equivalence of §5.1).
    let rounds_per_epoch = train.len().div_ceil(m * cfg.batch_size).max(1);
    let mut records = Vec::with_capacity(cfg.epochs);
    let mut losses = Vec::new();
    let mut round_start = 0.0f64;

    for epoch in 0..cfg.epochs {
        // Linear LR scaling for the averaged update (see
        // `ExperimentConfig::ssgd_lr_scale`).
        let lr = cfg.lr.at_epoch(epoch) * cfg.ssgd_lr_scale;
        for _ in 0..rounds_per_epoch {
            let mut grads = Vec::with_capacity(m);
            let mut round_stats: Vec<(BnState, Vec<BnBatchStats>)> = Vec::with_capacity(m);
            for (w, worker) in workers.iter_mut().enumerate() {
                let (loss, g, batch_stats) = worker.compute_gradient(&server.weights, train);
                losses.push(loss);
                grads.push(g);
                round_stats.push((worker.bn_running(), batch_stats));
                sim.submit(w, round_start, cfg.cost.iteration(), w);
            }
            // Barrier: the round ends when the slowest worker's gradient
            // arrives.
            let mut barrier = round_start;
            for _ in 0..m {
                let arr = sim.next_arrival().expect("SSGD round under-filled");
                barrier = barrier.max(arr.time);
            }
            server.apply_grad_avg(&grads, lr);
            for (running, batch) in &round_stats {
                server.absorb_bn(running, batch);
            }
            // Broadcast of the new weights before the next round.
            let bcast = (0..m).map(|w| sim.downlink(w)).fold(0.0, f64::max);
            round_start = barrier + bcast;
        }
        records.push(epoch_record(
            epoch + 1,
            round_start,
            &mut harness,
            &server.weights,
            &server.bn,
            &mut losses,
            lr,
        ));
    }

    RunResult {
        label: format!("SSGD ({})", cfg.bn_mode),
        epochs: records,
        staleness: vec![0; server.version as usize],
        trace: None,
        overhead: None,
        iterations: server.version,
        total_time: round_start,
        clock: ClockDomain::Virtual,
        wall_time: t0.elapsed().as_secs_f64(),
        transport: None,
        faults: None,
        timeline: None,
        health: None,
        replication: None,
        shards: 0,
    }
}

// ---------------------------------------------------------------- async

/// Message payloads of the asynchronous protocols.
enum Msg {
    /// Worker requests the latest weights (Algorithm 1 line 1 / Algorithm
    /// 2 line 11).
    Pull,
    /// LC-ASGD only: the worker's forward results (Algorithm 1 line 8).
    State { loss: f32, batch_stats: Vec<BnBatchStats>, t_comm: f64 },
    /// Gradient push (Algorithm 1 line 12).
    Grad {
        grads: Vec<f32>,
        pull_version: u64,
        loss: f32,
        batch_stats: Vec<BnBatchStats>,
        running: BnState,
    },
}

/// ASGD / DC-ASGD / LC-ASGD event loop.
fn run_async(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> RunResult {
    let m = cfg.workers.max(1);
    let is_lc = cfg.algorithm == Algorithm::LcAsgd;
    let is_dc = cfg.algorithm == Algorithm::DcAsgd;

    let t0 = Instant::now();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let canonical = build(&mut rng);
    let mut server = ParameterServer::new(&canonical, m, cfg.bn_mode, cfg.bn_momentum);
    let mut shards = worker_shards(cfg, m, train.len());
    let mut workers: Vec<WorkerNode> = (0..m)
        .map(|w| {
            let mut wrng = Rng::seed_from_u64(cfg.seed);
            let shard = std::mem::take(&mut shards[w]);
            WorkerNode::with_indices(
                build(&mut wrng),
                shard,
                cfg.batch_size,
                cfg.seed ^ (w as u64).wrapping_mul(0x517C) ^ 0xA1,
            )
        })
        .collect();
    let mut harness = EvalHarness::new(cfg, build, train, test);
    let mut sim: ClusterSim<Msg> = ClusterSim::new(cfg.cluster.clone());

    // Predictors (LC-ASGD only).
    let mut pred_rng = Rng::seed_from_u64(cfg.seed ^ 0x9_11D);
    let mut loss_pred = LossPredictor::new(&mut pred_rng);
    let mut step_pred = StepPredictor::new(m, &mut pred_rng);
    let mut prev_step_pred: Vec<Option<f32>> = vec![None; m];
    let mut trace = PredictorTrace::default();

    let updates_per_epoch = train.len().div_ceil(cfg.batch_size).max(1);
    let target = cfg.epochs * updates_per_epoch;

    // DC-ASGD backups: the weights each worker pulled (w_bak in Formula 3).
    let mut backups: Vec<Vec<f32>> = vec![Vec::new(); m];
    // Per-worker error-feedback residuals for gradient compression.
    let mut residuals: Vec<Vec<f32>> = vec![Vec::new(); m];
    let compressing = cfg.compression != crate::comm::Compression::None;

    let mut issued = 0usize; // pulls issued (each leads to one gradient)
    for w in 0..m {
        if issued < target {
            sim.submit(w, 0.0, 0.0, Msg::Pull);
            issued += 1;
        }
    }

    let mut applied = 0usize;
    let mut records = Vec::with_capacity(cfg.epochs);
    let mut losses = Vec::new();
    let mut staleness = Vec::with_capacity(target);

    while applied < target {
        let arr = sim.next_arrival().expect("event queue drained before target updates");
        let t = arr.time;
        let w = arr.worker;
        match arr.payload {
            Msg::Pull => {
                let down = sim.downlink(w);
                workers[w].version_at_pull = server.version;
                workers[w].last_t_comm = arr.uplink + down;
                if is_lc {
                    let (loss, batch_stats) = workers[w].forward_phase(&server.weights, train);
                    sim.submit(
                        w,
                        t + down,
                        cfg.cost.forward,
                        Msg::State { loss, batch_stats, t_comm: workers[w].last_t_comm },
                    );
                } else {
                    if is_dc {
                        backups[w] = server.weights.clone();
                    }
                    let (loss, mut grads, batch_stats) =
                        workers[w].compute_gradient(&server.weights, train);
                    if compressing {
                        grads = push_through_wire(&cfg.compression, grads, &mut residuals[w]);
                    }
                    let running = workers[w].bn_running();
                    let dur = sim.submit(
                        w,
                        t + down,
                        cfg.cost.iteration(),
                        Msg::Grad {
                            grads,
                            pull_version: workers[w].version_at_pull,
                            loss,
                            batch_stats,
                            running,
                        },
                    );
                    workers[w].last_t_comp = dur;
                    // The worker starts its next iteration (pull) as soon
                    // as it has pushed this gradient.
                    if issued < target {
                        sim.submit(w, t + down + dur, 0.0, Msg::Pull);
                        issued += 1;
                    }
                }
            }
            Msg::State { loss, batch_stats, t_comm } => {
                // Algorithm 2 lines 2–7.
                let actual_step = server.log_arrival(w) as f32;

                // Deterministic nominal predictor charges keep the event
                // timeline bit-reproducible; the predictors' own measured
                // CPU time is reported in `OverheadStats` (Tables 2–3).
                let km = step_pred.observe_and_predict(
                    w,
                    actual_step,
                    t_comm as f32,
                    workers[w].last_t_comp as f32,
                );
                sim.charge_server(cfg.cost.step_pred);

                let km_int = km_steps(km);
                let one_step_forecast = loss_pred.pending_forecast();
                let lp = loss_pred.observe_and_predict(loss, km_int);
                sim.charge_server(cfg.cost.loss_pred);

                if cfg.record_traces {
                    trace.finish_order.push(w);
                    trace.actual_loss.push(loss);
                    trace.predicted_loss.push(one_step_forecast.unwrap_or(loss));
                    if let Some(prev) = prev_step_pred[w] {
                        trace.actual_step.push(actual_step);
                        trace.predicted_step.push(prev);
                    }
                }
                prev_step_pred[w] = Some(km);

                server.absorb_bn(&workers[w].bn_running(), &batch_stats);

                // Algorithm 1 lines 9–12: the worker receives ℓ_delay and
                // backpropagates the compensated loss.
                let seed = cfg.compensation.seed(loss, lp.l_delay, lp.one_step, km_int, cfg.lambda);
                let mut grads = workers[w].backward_phase(seed);
                if compressing {
                    grads = push_through_wire(&cfg.compression, grads, &mut residuals[w]);
                }
                let down = sim.downlink(w);
                let dur = sim.submit(
                    w,
                    t + down,
                    cfg.cost.backward,
                    Msg::Grad {
                        grads,
                        pull_version: workers[w].version_at_pull,
                        loss,
                        batch_stats: Vec::new(),
                        running: BnState::default(),
                    },
                );
                workers[w].last_t_comp = dur;
                if issued < target {
                    sim.submit(w, t + down + dur, 0.0, Msg::Pull);
                    issued += 1;
                }
            }
            Msg::Grad { grads, pull_version, loss, batch_stats, running } => {
                staleness.push((server.version - pull_version) as u32);
                let epoch_now = applied / updates_per_epoch;
                let lr = cfg.lr.at_epoch(epoch_now);
                if is_dc {
                    server.apply_grad_dc(&grads, lr, cfg.lambda, &backups[w]);
                } else {
                    server.apply_grad(&grads, lr);
                }
                if !is_lc {
                    server.log_arrival(w);
                    server.absorb_bn(&running, &batch_stats);
                }
                losses.push(loss);
                applied += 1;
                if applied.is_multiple_of(updates_per_epoch) {
                    let epoch = applied / updates_per_epoch;
                    records.push(epoch_record(
                        epoch,
                        sim.now(),
                        &mut harness,
                        &server.weights,
                        &server.bn,
                        &mut losses,
                        lr,
                    ));
                }
            }
        }
    }

    let overhead = is_lc.then_some(OverheadStats {
        loss_pred_ms: loss_pred.elapsed_ms,
        step_pred_ms: step_pred.elapsed_ms,
        iterations: server.version,
    });

    RunResult {
        label: format!("{} ({})", cfg.algorithm, cfg.bn_mode),
        epochs: records,
        staleness,
        trace: (is_lc && cfg.record_traces).then_some(trace),
        overhead,
        iterations: server.version,
        total_time: sim.now(),
        clock: ClockDomain::Virtual,
        wall_time: t0.elapsed().as_secs_f64(),
        transport: None,
        faults: None,
        timeline: None,
        health: None,
        replication: None,
        shards: 0,
    }
}

/// Simulates a lossy gradient push: compress with per-worker error
/// feedback, then decompress on the server side.
fn push_through_wire(
    scheme: &crate::comm::Compression,
    grads: Vec<f32>,
    residual: &mut Vec<f32>,
) -> Vec<f32> {
    if residual.len() != grads.len() {
        *residual = vec![0.0; grads.len()];
    }
    scheme.compress(&grads, Some(residual)).decompress()
}

// ------------------------------------------------------ backend-driven

/// Cache key under which a weights reply may be coalesced: requests for
/// the same shard at the same fencing epoch and weight version receive
/// byte-identical replies, so a readiness-driven transport can answer
/// them all from one encoded snapshot. Directive-bearing replies are
/// never keyed — the directive is per-worker. The packing wraps past
/// version 2⁴⁰, far beyond any run, and the reactor's cache only ever
/// holds entries for live versions.
fn coalesce_key(shard: u32, epoch: u64, version: u64) -> u64 {
    (version << 24) | ((epoch & 0xFFFF) << 8) | (shard as u64 & 0xFF)
}

/// Compresses a gradient for the wire, maintaining the worker's error-
/// feedback residual. `Compression::None` short-circuits to a dense
/// payload without touching the residual.
fn wire_grads(
    scheme: &crate::comm::Compression,
    grads: Vec<f32>,
    residual: &mut Vec<f32>,
) -> crate::comm::CompressedGrad {
    if *scheme == crate::comm::Compression::None {
        return crate::comm::CompressedGrad::Dense(grads);
    }
    if residual.len() != grads.len() {
        *residual = vec![0.0; grads.len()];
    }
    scheme.compress(&grads, Some(residual))
}

/// Runs `cfg.algorithm` over any [`ClusterBackend`] — the discrete-event
/// simulator, real threads, or TCP sockets — through the shared
/// pull / push-state / push-grad protocol ([`ClusterReq`]/[`ClusterResp`]).
///
/// Unlike the co-simulated drivers above, timing here is *real*: epoch
/// timestamps, `total_time`, and the step predictor's `t_comm`/`t_comp`
/// features are measured wall-clock seconds, and the returned
/// [`RunResult::transport`] carries the backend's byte/latency accounting.
///
/// The worker count is taken from the backend; construct it with
/// `cfg.workers` (or 1 for sequential SGD).
pub fn run_cluster<B: ClusterBackend>(
    backend: B,
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> Result<RunResult, ClusterError> {
    run_cluster_with(backend, cfg, build, train, test, RunOptions::default())
}

/// Robustness options for [`run_cluster_with`]: deterministic fault
/// injection, periodic full-state checkpointing, and resume.
#[derive(Default)]
pub struct RunOptions {
    /// The fault schedule this run is evaluated under. Pass a *clone* of
    /// the same plan to the backend's `with_fault_plan` constructor —
    /// clones share the fault log, so every injection the backend records
    /// surfaces in [`RunResult::faults`]. A plan with
    /// `server_restart_at_update` set makes the run checkpoint and halt
    /// itself at that update count (see [`FaultReport::server_halted`]).
    pub fault_plan: Option<FaultPlan>,
    /// Write a [`TrainingCheckpoint`] here (atomically, tmp + rename).
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in applied updates; 0 = once per epoch.
    pub checkpoint_every: usize,
    /// Resume from a previously saved checkpoint instead of starting
    /// fresh. The configuration must match the run that wrote it (same
    /// model, worker count, algorithm).
    pub resume: Option<TrainingCheckpoint>,
    /// Record a phase-tagged span timeline ([`crate::trace`]) and return
    /// it in [`RunResult::timeline`]. Off by default: tracing buffers
    /// every span in memory for the run's whole lifetime.
    pub trace: bool,
    /// Attach a self-healing training supervisor ([`crate::supervisor`]):
    /// divergence sentinels with quarantine and rollback, staleness
    /// admission control, straggler resharding, and the LC→DC→ASGD
    /// fallback ladder. The resulting [`HealthReport`]
    /// (`RunResult::health`) records every transition.
    ///
    /// [`HealthReport`]: crate::supervisor::HealthReport
    pub supervisor: Option<SupervisorConfig>,
    /// Attach a hot-standby replica ([`crate::replication`]): every
    /// applied push is streamed to a warm mirror as a write-ahead log
    /// record, epoch fencing guards at-most-once apply, and a fault plan
    /// with `primary_kill_at_update` set promotes the standby in place of
    /// the killed primary. Asynchronous algorithms only.
    pub standby: Option<StandbyConfig>,
    /// Number of contiguous parameter-server shards the flat weight
    /// vector is partitioned into ([`ShardSpec::even`]). `0` and `1` both
    /// run the single-shard protocol — bitwise identical to the unsharded
    /// seed on the simulator. Higher counts fan every pull and push out
    /// across the shard group over the worker's ordered link (DESIGN.md
    /// §11). Asynchronous algorithms only; SSGD rejects `shards > 1`.
    pub shards: usize,
}

impl RunOptions {
    /// Builder: partition the parameter server across `n` model shards.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }
}

/// The primary side of the replication stream: buffers [`LogRecord`]s and
/// flushes them to the standby thread as synchronous, acknowledged
/// `Replicate` batches. The blocking ack is what makes the standby's lag
/// (and therefore the lost tail at a kill) a pure function of the
/// applied-update count.
struct ReplicationStream {
    duplex: Box<dyn ReplicaDuplex>,
    buffer: Vec<LogRecord>,
    next_seq: u64,
    flush_every: u64,
    lease: Lease,
    lease_timeout: Duration,
    report: crate::replication::ReplicationReport,
    /// Set when the standby duplex closed or stopped acknowledging: the
    /// stream degrades to an inert no-op — training continues
    /// *unreplicated* — instead of panicking mid-run.
    degraded: bool,
    /// The degradation cause, handed out exactly once via
    /// [`ReplicationStream::take_degradation`] so the trainer can emit
    /// the health event and fault record.
    pending_degradation: Option<String>,
}

impl ReplicationStream {
    fn new(duplex: Box<dyn ReplicaDuplex>, cfg: &StandbyConfig) -> Self {
        ReplicationStream {
            duplex,
            buffer: Vec::new(),
            next_seq: 1,
            flush_every: cfg.flush_every.max(1),
            lease: Lease::new(cfg.lease),
            lease_timeout: cfg.lease,
            report: crate::replication::ReplicationReport::default(),
            degraded: false,
            pending_degradation: None,
        }
    }

    /// Appends an applied push to the log; auto-flushes a full batch.
    /// Inert once degraded.
    fn log(&mut self, mut rec: LogRecord) {
        if self.degraded {
            return;
        }
        rec.seq = self.next_seq;
        self.next_seq += 1;
        self.report.log_records += 1;
        self.buffer.push(rec);
        if self.buffer.len() as u64 >= self.flush_every {
            self.flush();
        }
    }

    /// Synchronous flush of the buffered batch (possibly empty — a lease
    /// heartbeat). Blocks for the standby's ack. Inert once degraded.
    fn flush(&mut self) {
        if self.degraded {
            self.buffer.clear();
            return;
        }
        let lag = self.buffer.len() as u64;
        self.report.max_lag = self.report.max_lag.max(lag);
        let recs = std::mem::take(&mut self.buffer);
        self.send_acked(ReplicaPayload::Records(recs));
        if !self.degraded {
            self.report.flushes += 1;
        }
    }

    /// Ships a full-state snapshot, superseding (and discarding) any
    /// buffered records — the snapshot already contains their effects.
    /// Inert once degraded.
    fn snapshot(&mut self, state: &crate::checkpoint::TrainingCheckpoint) {
        if self.degraded {
            return;
        }
        self.buffer.clear();
        self.send_acked(ReplicaPayload::Snapshot {
            next_seq: self.next_seq,
            blob: state.to_bytes(),
        });
        if !self.degraded {
            self.report.snapshots += 1;
        }
    }

    /// Wall-clock lease enforcement: an expired (but unrevoked) lease
    /// forces a heartbeat round-trip — proof the standby is still
    /// acknowledging — before the caller applies its next write. A
    /// degraded stream's lease stays revoked, so this is a no-op.
    fn ensure_lease(&mut self) {
        if !self.lease.is_revoked() && !self.lease.held() {
            self.flush();
        }
    }

    fn send_acked(&mut self, payload: ReplicaPayload) {
        let expect = self.next_seq - 1;
        let msg = ClusterReq::Replicate(payload);
        if let Err(e) = self.duplex.send(&msg.encoded()) {
            self.degrade(format!("standby duplex closed: {e:?}"));
            return;
        }
        let ack = self.duplex.recv().ok().and_then(|b| ClusterResp::decoded(&b).ok());
        match ack {
            Some(ClusterResp::ReplicaAck { seq }) if seq == expect => self.lease.renew(),
            Some(ClusterResp::ReplicaAck { seq }) => {
                self.degrade(format!("standby acknowledged seq {seq} where {expect} was expected"))
            }
            _ => self.degrade(format!(
                "standby failed to acknowledge replication batch ending at seq {expect}"
            )),
        }
    }

    /// Drops into unreplicated mode: the lease is revoked (no future
    /// write will wait on the dead standby) and the buffered tail is
    /// discarded.
    fn degrade(&mut self, why: String) {
        self.degraded = true;
        self.buffer.clear();
        self.lease.revoke();
        self.pending_degradation = Some(why);
    }

    /// Returns the degradation cause exactly once, the first time it is
    /// polled after the stream degraded — the caller's cue to emit the
    /// one-time health event, fault record, and trace instant.
    fn take_degradation(&mut self) -> Option<String> {
        self.pending_degradation.take()
    }
}

/// A full-state snapshot of the running server, as shipped to the standby
/// (bootstrap, epoch-boundary refresh, post-promotion re-arm).
#[allow(clippy::too_many_arguments)]
fn state_snapshot(
    group: &ShardGroup,
    applied: u64,
    staleness: &[u32],
    losses: &[f32],
    records: &[EpochRecord],
    is_lc: bool,
    loss_pred: &LossPredictor,
    step_pred: &StepPredictor,
    worker_batches: Vec<(u64, u64)>,
    fence: &EpochFence,
) -> TrainingCheckpoint {
    TrainingCheckpoint {
        weights: group.assembled_weights(),
        bn: group.bn().clone(),
        version: group.version(),
        applied,
        arrival: group.arrival_state(),
        iter: group.lead().iter.clone(),
        staleness: staleness.to_vec(),
        epoch_losses: losses.to_vec(),
        epochs: records.to_vec(),
        loss_pred: is_lc.then(|| loss_pred.snapshot()),
        step_pred: is_lc.then(|| step_pred.snapshot()),
        worker_batches,
        server_epoch: fence.epoch(),
        push_seqs: fence.push_seqs().to_vec(),
        shard_versions: if group.count() == 1 { Vec::new() } else { group.versions() },
    }
}

/// Adopts a checkpoint's server state into the shard group (checkpoint
/// resume and failover promotion). Validates *before* mutating: a
/// mismatched worker count, weight length, or shard-version count is a
/// descriptive error, never a panic.
fn adopt_server_state(group: &mut ShardGroup, ck: &TrainingCheckpoint) -> Result<(), String> {
    if ck.weights.len() != group.spec().len() {
        return Err(format!(
            "checkpoint holds {} weights but the model flattens to {}",
            ck.weights.len(),
            group.spec().len()
        ));
    }
    if !ck.shard_versions.is_empty() && ck.shard_versions.len() != group.count() {
        return Err(format!(
            "checkpoint records {} shard versions but the run partitions the server into {} shards",
            ck.shard_versions.len(),
            group.count()
        ));
    }
    group.restore_arrival_state(&ck.arrival)?;
    if ck.shard_versions.is_empty() {
        // An unsharded (or single-shard) checkpoint: lockstep version
        // counters mean every shard adopts the global count, so such a
        // checkpoint resumes under any shard layout.
        for s in 0..group.count() {
            group.shard_mut(s).version = ck.version;
        }
    } else {
        group.restore_versions(&ck.shard_versions)?;
    }
    group.load_weights(&ck.weights);
    group.set_bn(ck.bn.clone());
    group.lead_mut().iter = ck.iter.clone();
    Ok(())
}

/// A partially assembled sharded push: the slices a worker has fanned out
/// arrive as individual `Grad` messages and buffer here until the last
/// one lands, at which point the full gradient is applied to every shard
/// atomically. `n = 1` completes on the first (only) slice, preserving
/// the unsharded apply path bit for bit.
struct PendingPush {
    push_seq: u64,
    pull_version: u64,
    loss: f32,
    /// Full-length assembly buffer; slice `s` is written at the spec's
    /// range for `s`. With one shard the only slice *is* the gradient
    /// and is adopted whole, so no buffer is allocated or copied into.
    grads: Vec<f32>,
    /// Bitmask of shards whose slice has arrived (`ShardSpec::MAX_SHARDS`
    /// is 64 so one word suffices).
    seen: u64,
    got: usize,
    /// BN payloads, carried by the lead (shard-0) slice only.
    batch_stats: Vec<BnBatchStats>,
    running: BnState,
}

/// Outcome of the worker's follower-shard pull fan-out.
enum ShardPullOutcome {
    Assembled,
    Fenced,
    Stop,
}

/// Compresses a full gradient into per-shard wire slices, maintaining the
/// worker's full-length error-feedback residual. One shard delegates to
/// [`wire_grads`] unchanged (bitwise-identical to the unsharded path);
/// with more shards each slice is compressed independently against its
/// slice of the residual.
fn shard_wire_grads(
    scheme: &crate::comm::Compression,
    spec: &ShardSpec,
    grads: Vec<f32>,
    residual: &mut Vec<f32>,
) -> Vec<crate::comm::CompressedGrad> {
    if spec.count() == 1 {
        return vec![wire_grads(scheme, grads, residual)];
    }
    if *scheme == crate::comm::Compression::None {
        return spec.split(&grads).into_iter().map(crate::comm::CompressedGrad::Dense).collect();
    }
    if residual.len() != grads.len() {
        *residual = vec![0.0; grads.len()];
    }
    (0..spec.count())
        .map(|s| {
            let r = spec.range(s);
            let mut res = residual[r.clone()].to_vec();
            let cg = scheme.compress(&grads[r.clone()], Some(&mut res));
            residual[r].copy_from_slice(&res);
            cg
        })
        .collect()
}

/// [`run_cluster`] plus the robustness machinery of [`RunOptions`]:
/// fault-plan accounting, elastic crash-recovery (a restarted worker
/// announces itself with [`ClusterReq::Join`] and gets fresh `k_m`
/// bookkeeping per Algorithm 2), periodic checkpoints, planned
/// server-restart halts, and checkpoint resume.
pub fn run_cluster_with<B: ClusterBackend>(
    mut backend: B,
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
    opts: RunOptions,
) -> Result<RunResult, ClusterError> {
    use parking_lot::Mutex;

    let RunOptions {
        fault_plan,
        checkpoint_path,
        checkpoint_every,
        resume,
        trace: want_trace,
        supervisor,
        standby,
        shards: shard_count,
    } = opts;
    let m = backend.workers();
    let is_lc = cfg.algorithm == Algorithm::LcAsgd;
    let is_dc = cfg.algorithm == Algorithm::DcAsgd;
    let is_ssgd = cfg.algorithm == Algorithm::Ssgd;

    // ---- sharded parameter server -------------------------------------
    // N per-shard server instances behind the one serialized event loop.
    // Workers fan pulls/pushes out over their single ordered link, so the
    // sharding is coordinator-free and `n = 1` reproduces the unsharded
    // message sequence exactly (DESIGN.md §11).
    let n_shards = shard_count.max(1);
    assert!(
        !(is_ssgd && n_shards > 1),
        "SSGD's barrier replies with full weights from inside the Grad arm; it does not shard"
    );
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let canonical = build(&mut rng);
    let mut group = ShardGroup::new(&canonical, m, cfg.bn_mode, cfg.bn_momentum, n_shards)
        .map_err(ClusterError::Protocol)?;
    let wspec = group.spec().clone();
    let mut shards = worker_shards(cfg, m, train.len());

    // ---- supervisor ---------------------------------------------------
    // The health state machine runs entirely inside `server_fn` — the one
    // serialized point every backend shares — and decides from message
    // contents and counters only, so its transition sequence is
    // bit-reproducible on the discrete-event simulator.
    assert!(
        !(is_ssgd && supervisor.is_some()),
        "the supervisor targets the asynchronous protocols; SSGD's barrier has no admission point"
    );
    let base_mode = if is_lc {
        AlgoMode::Lc
    } else if is_dc {
        AlgoMode::Dc
    } else {
        AlgoMode::Asgd
    };
    let mut sup = supervisor.map(|sc| {
        let mut s = Supervisor::new(sc, base_mode, m);
        s.set_shards(shards.clone());
        s
    });
    // The ladder rung each worker was told to run at its last pull — what
    // decides how its *next* gradient is applied (a mid-iteration mode
    // change must not reinterpret an in-flight push).
    let mut pulled_mode: Vec<AlgoMode> = vec![base_mode; m];
    // Last-good server state for divergence rollback.
    struct GoodState {
        weights: Vec<f32>,
        bn: BnState,
        applied: u64,
        loss_pred: Option<LossPredictorSnapshot>,
        step_pred: Option<StepPredictorSnapshot>,
    }
    let mut last_good: Option<GoodState> = None;
    let nodes: Mutex<Vec<Option<WorkerNode>>> = Mutex::new(
        (0..m)
            .map(|w| {
                let mut wrng = Rng::seed_from_u64(cfg.seed);
                let shard = std::mem::take(&mut shards[w]);
                Some(WorkerNode::with_indices(
                    build(&mut wrng),
                    shard,
                    cfg.batch_size,
                    cfg.seed ^ (w as u64).wrapping_mul(0x517C) ^ 0xA1,
                ))
            })
            .collect(),
    );
    let mut harness = EvalHarness::new(cfg, build, train, test);

    // Async algorithms count gradient applications; SSGD counts rounds.
    let updates_per_epoch = train.len().div_ceil(cfg.batch_size).max(1);
    let target = cfg.epochs * updates_per_epoch;
    let rounds_per_epoch = train.len().div_ceil(m * cfg.batch_size).max(1);
    let rounds_target = cfg.epochs * rounds_per_epoch;

    // Predictors (LC-ASGD only).
    let mut pred_rng = Rng::seed_from_u64(cfg.seed ^ 0x9_11D);
    let mut loss_pred = LossPredictor::new(&mut pred_rng);
    let mut step_pred = StepPredictor::new(m, &mut pred_rng);
    let mut prev_step_pred: Vec<Option<f32>> = vec![None; m];
    let mut trace = PredictorTrace::default();

    let mut backups: Vec<Vec<f32>> = vec![Vec::new(); m];
    // Whether the worker's current iteration is refreshing its DC backup:
    // decided at the lead pull, and follower-shard pulls then copy their
    // slices into the same full-length buffer.
    let mut backup_live: Vec<bool> = vec![false; m];
    // Per-worker in-flight push assembly (see [`PendingPush`]).
    let mut pending: Vec<Option<PendingPush>> = (0..m).map(|_| None).collect();
    let mut applied = 0usize;
    let mut rounds_done = 0usize;
    let mut records = Vec::with_capacity(cfg.epochs);
    let mut losses = Vec::new();
    let mut staleness = Vec::new();
    // SSGD barrier: gradients parked until the round is full.
    let mut round: Vec<(usize, Vec<f32>, BnState, Vec<BnBatchStats>)> = Vec::with_capacity(m);

    // ---- robustness state --------------------------------------------
    // SSGD's barrier cannot survive a worker crash (the round would never
    // fill), so fault plans are restricted to the asynchronous protocols.
    assert!(
        !(is_ssgd && fault_plan.is_some()),
        "fault injection is not supported under SSGD: a crashed worker stalls the barrier"
    );
    // How many times each worker's process has started (0 = original
    // incarnation; >0 = restarted after an injected crash).
    let incarnations: Mutex<Vec<u32>> = Mutex::new(vec![0; m]);
    // Latest (reshuffles, pos) each worker reported after pushing a
    // gradient — what checkpoints record. Positions may lag the worker by
    // one in-flight iteration: resuming re-computes that batch, which SGD
    // tolerates (at-least-once semantics).
    let batch_pos: Mutex<Vec<(u64, u64)>> = Mutex::new(
        nodes.lock().iter().map(|n| n.as_ref().expect("node present").batch_progress()).collect(),
    );

    let mut resumed_at = 0u64;
    if let Some(ck) = &resume {
        // A mismatched checkpoint (wrong worker count, wrong model, wrong
        // shard layout) is a descriptive error surfaced to the caller,
        // not an assertion failure.
        adopt_server_state(&mut group, ck)
            .map_err(|e| ClusterError::Protocol(format!("cannot resume from checkpoint: {e}")))?;
        applied = ck.applied as usize;
        staleness = ck.staleness.clone();
        losses = ck.epoch_losses.clone();
        records = ck.epochs.clone();
        if let Some(lp) = &ck.loss_pred {
            loss_pred.restore(lp);
        }
        if let Some(sp) = &ck.step_pred {
            step_pred.restore(sp);
        }
        {
            let mut ns = nodes.lock();
            for (w, &(reshuffles, pos)) in ck.worker_batches.iter().enumerate() {
                ns[w].as_mut().expect("node present").replay_batches_to(reshuffles, pos);
            }
        }
        *batch_pos.lock() = ck.worker_batches.clone();
        resumed_at = ck.applied;
        if let Some(plan) = &fault_plan {
            plan.log().push(FaultRecord::Resumed { at_update: resumed_at });
        }
    }

    let fault_log = fault_plan.as_ref().map(|p| p.log());
    // A planned server restart: checkpoint and halt once this many
    // updates have applied. Ignored when the resume point is already past
    // it (the restart in question already happened) or when it lies
    // beyond the run's natural end.
    let halt_at = fault_plan
        .as_ref()
        .and_then(|p| p.server_restart_at_update)
        .filter(|&h| h > resumed_at && h < target as u64);
    let ckpt_every = if checkpoint_every == 0 { updates_per_epoch } else { checkpoint_every };
    let mut halted = false;

    // ---- replication --------------------------------------------------
    // The SSGD barrier replies with fresh weights from inside the Grad
    // arm; fencing its blocking push would deadlock the round. Like the
    // supervisor and fault plans, the standby targets the async protocols.
    assert!(
        !(is_ssgd && standby.is_some()),
        "hot-standby replication targets the asynchronous protocols; SSGD has no standby support"
    );
    // A planned primary kill: at this applied-update count the primary's
    // lease is revoked, its unreplicated tail is discarded, and the
    // standby promotes with a bumped fencing epoch.
    let kill_at = fault_plan
        .as_ref()
        .and_then(|p| p.primary_kill_at_update)
        .filter(|&k| k > resumed_at && k < target as u64);
    assert!(
        kill_at.is_none() || standby.is_some(),
        "a primary-kill fault plan requires a standby (RunOptions::standby)"
    );
    let mut kill_pending = kill_at;
    let mut fence = EpochFence::new(m, standby.is_some());
    if let Some(ck) = &resume {
        fence.restore(ck.server_epoch, ck.push_seqs.clone());
    }
    let standby_slot: Option<Arc<Mutex<Option<StandbyReplica>>>> =
        standby.as_ref().map(|_| Arc::new(Mutex::new(None)));
    let mut standby_handle = None;
    let mut repl: Option<ReplicationStream> = None;
    if let Some(sc) = &standby {
        let (primary_end, standby_end) = backend.replica_duplex()?;
        let slot = standby_slot.clone().expect("slot exists when standby configured");
        let upe = updates_per_epoch as u64;
        standby_handle = Some(std::thread::spawn(move || serve_standby(standby_end, slot, upe)));
        let mut rs = ReplicationStream::new(primary_end, sc);
        // Bootstrap: the standby starts from a full snapshot of the
        // (possibly resumed) initial server state.
        rs.snapshot(&state_snapshot(
            &group,
            applied as u64,
            &staleness,
            &losses,
            &records,
            is_lc,
            &loss_pred,
            &step_pred,
            batch_pos.lock().clone(),
            &fence,
        ));
        if let Some(error) = rs.take_degradation() {
            // The standby was lost before the run even started: record it
            // and run unreplicated rather than aborting.
            rs.report.degraded_at = Some(applied as u64);
            if let Some(plan) = &fault_plan {
                plan.log().push(FaultRecord::StandbyLost { at_update: applied as u64, error });
            }
        }
        repl = Some(rs);
    }

    // ---- observability ------------------------------------------------
    // The sink observes; it never feeds back into scheduling, so a traced
    // run applies bit-identical updates to an untraced one. The backend
    // decides the clock domain epoch records are stamped in: the
    // discrete-event simulator reports virtual seconds, real backends
    // report wall seconds ([`RunResult::clock`] says which).
    let clock = backend.clock_domain();
    let sink = TraceSink::new(want_trace);
    backend.attach_trace_hook(Arc::new(sink.clone()));

    // Wire codec: the backend's negotiated downlink precision. Weights
    // replies quantize through [`ClusterResp::weights_for`]; when the run
    // has no compression scheme of its own, the uplink mirrors the codec
    // so a quantized wire is quantized in both directions.
    let codec = backend.wire_codec();
    let compression = if cfg.compression == crate::comm::Compression::None {
        crate::comm::Compression::for_codec(codec)
    } else {
        cfg.compression
    };

    let t0 = Instant::now();
    sink.start_clock(t0);
    // Seconds "now" on the run's clock, for epoch-record stamping.
    let run_now = |sink: &TraceSink| match clock {
        ClockDomain::Virtual => sink.virt_high(),
        ClockDomain::Wall => t0.elapsed().as_secs_f64(),
    };
    // Checkpoint-write failures observed without a fault plan to report
    // into; they still must reach [`RunResult::faults`].
    let mut ckpt_failures: Vec<FaultRecord> = Vec::new();
    // Worker-side phase spans only make sense on wall-clock backends: on
    // the discrete-event simulator the worker's wall time is meaningless
    // (the sim backend emits virtual compute/comm spans instead).
    let wspan = |worker: usize, ph: &'static str, start: Instant| {
        if clock == ClockDomain::Wall {
            sink.wall_span_at(Some(worker), ph, start, start.elapsed().as_secs_f64());
        }
    };

    let server_fn = |w: usize, req: ClusterReq, ctx: &mut ServerCtx<ClusterResp>| match req {
        ClusterReq::Join { .. } => {
            // A restarted worker process announcing itself
            // (fire-and-forget). Algorithm 2's per-worker bookkeeping
            // restarts: the arrival history and the step-predictor series
            // described the dead incarnation, not this one.
            group.reset_arrival(w);
            if is_lc {
                step_pred.reset_worker(w);
            }
            prev_step_pred[w] = None;
            backups[w] = Vec::new();
            backup_live[w] = false;
            // Any half-assembled push belonged to the dead incarnation.
            pending[w] = None;
        }
        // `Replicate` frames travel the dedicated replica duplex, not the
        // worker links; one arriving here is a protocol violation and is
        // ignored.
        ClusterReq::Replicate(_) => {}
        ClusterReq::Pull { epoch, shard } => {
            let sh = shard as usize;
            if !fence.admit_read(epoch) || sh >= group.count() {
                // Addressed to a fenced (dead) primary — or to a shard
                // outside the group (a misconfigured peer): tell the
                // worker the current epoch so its retry carries it.
                ctx.reply(ClusterResp::Fenced { epoch: fence.epoch() });
            } else if !is_ssgd && (applied >= target || halted) {
                ctx.reply(ClusterResp::Stop);
            } else if sh == 0 {
                // The *lead* pull of an iteration. The directive pins the
                // rung (and any reassigned data shard) for the iteration
                // this pull starts; the push coming back is interpreted
                // under the same rung even if the worker is demoted
                // meanwhile.
                let directive = sup.as_mut().map(|s| {
                    let mode = s.mode(w);
                    pulled_mode[w] = mode;
                    PullDirective {
                        mode,
                        shard: s
                            .take_pending_shard(w)
                            .map(|v| v.into_iter().map(|i| i as u64).collect()),
                    }
                });
                if pulled_mode[w] == AlgoMode::Dc {
                    // Snapshot w_bak slice by slice: the lead slice now,
                    // the follower-shard pulls of this same iteration
                    // copy theirs below.
                    if backups[w].len() != wspec.len() {
                        backups[w] = vec![0.0; wspec.len()];
                    }
                    backups[w][wspec.range(0)].copy_from_slice(&group.lead().weights);
                    backup_live[w] = true;
                } else {
                    backup_live[w] = false;
                }
                // Directive-free lead replies carry a coalescing key: the
                // reactor answers every pull at this (shard, epoch,
                // version) from one encoded snapshot.
                let version = group.lead().version;
                let key = directive.is_none().then(|| coalesce_key(0, fence.epoch(), version));
                let resp = ClusterResp::weights_for(
                    codec,
                    group.lead().weights.clone(),
                    version,
                    directive,
                    fence.epoch(),
                );
                match key {
                    Some(k) => ctx.reply_keyed(resp, k),
                    None => ctx.reply(resp),
                }
            } else {
                // Follower-shard pull: the lead pull already answered the
                // stop/directive questions for this iteration.
                if backup_live[w] {
                    backups[w][wspec.range(sh)].copy_from_slice(&group.shard(sh).weights);
                }
                let version = group.shard(sh).version;
                ctx.reply_keyed(
                    ClusterResp::weights_for(
                        codec,
                        group.shard(sh).weights.clone(),
                        version,
                        None,
                        fence.epoch(),
                    ),
                    coalesce_key(shard, fence.epoch(), version),
                );
            }
        }
        ClusterReq::State { loss, running, batch_stats, t_comm, t_comp, epoch } => 'state: {
            if !fence.admit_read(epoch) {
                // LC forward state addressed to a fenced primary: the
                // worker must abandon the exchange and re-pull from the
                // promoted server.
                ctx.reply(ClusterResp::Fenced { epoch: fence.epoch() });
                break 'state;
            }
            // Algorithm 2 lines 2–7, on real measured timings. Arrival
            // bookkeeping is model-global, so it lives on the lead shard.
            let actual_step = group.log_arrival(w) as f32;
            let t_sp = Instant::now();
            let km = step_pred.observe_and_predict(w, actual_step, t_comm, t_comp);
            sink.wall_span_at(Some(w), phase::PREDICTOR_STEP, t_sp, t_sp.elapsed().as_secs_f64());
            let km_int = km_steps(km);
            let one_step_forecast = loss_pred.pending_forecast();
            let t_lp = Instant::now();
            let lp = loss_pred.observe_and_predict(loss, km_int);
            sink.wall_span_at(Some(w), phase::PREDICTOR_LOSS, t_lp, t_lp.elapsed().as_secs_f64());
            if cfg.record_traces {
                trace.finish_order.push(w);
                trace.actual_loss.push(loss);
                trace.predicted_loss.push(one_step_forecast.unwrap_or(loss));
                if let Some(prev) = prev_step_pred[w] {
                    trace.actual_step.push(actual_step);
                    trace.predicted_step.push(prev);
                }
            }
            prev_step_pred[w] = Some(km);
            group.absorb_bn(&running, &batch_stats);
            if let Some(s) = sup.as_mut() {
                // Predictor-health watchdog: a wildly wrong one-step
                // forecast is a demerit against this worker's LC rung.
                s.observe_prediction(w, applied as u64, one_step_forecast, loss);
                for (at, ev) in s.drain_new_events() {
                    sink.wall_instant(
                        ev.worker(),
                        phase::HEALTH,
                        Instant::now(),
                        format!("at-update={at} {ev}"),
                    );
                }
            }
            ctx.reply(ClusterResp::Compensation {
                l_delay: lp.l_delay,
                one_step: lp.one_step,
                km: km_int as u32,
            });
        }
        ClusterReq::Grad {
            grads,
            pull_version,
            loss,
            batch_stats,
            running,
            epoch,
            push_seq,
            shard,
        } => 'grad: {
            match fence.check_push(w, epoch, push_seq) {
                PushVerdict::Admit => {}
                // Addressed to a dead epoch, or a delayed duplicate of a
                // push already applied: dropped on the floor, along with
                // any half-assembled slices of it. Gradient pushes are
                // oneway sends in the async protocols, so no reply is
                // owed. (SSGD never runs with an active fence.)
                PushVerdict::StaleEpoch | PushVerdict::Duplicate => {
                    pending[w] = None;
                    break 'grad;
                }
            }
            if is_ssgd {
                // Formula 1's barrier: park until all M contributions are
                // in, then average-apply and release everyone at once.
                round.push((w, grads.into_dense(), running, batch_stats));
                losses.push(loss);
                if round.len() == m {
                    let lr = cfg.lr.at_epoch(rounds_done / rounds_per_epoch) * cfg.ssgd_lr_scale;
                    let gs: Vec<Vec<f32>> = round.iter().map(|(_, g, _, _)| g.clone()).collect();
                    let t_apply = Instant::now();
                    group.apply_grad_avg(&gs, lr);
                    for (_, _, running, batch) in &round {
                        group.absorb_bn(running, batch);
                    }
                    sink.wall_span_at(
                        None,
                        phase::SERVER_APPLY,
                        t_apply,
                        t_apply.elapsed().as_secs_f64(),
                    );
                    sink.note_version(group.version());
                    rounds_done += 1;
                    if rounds_done.is_multiple_of(rounds_per_epoch) {
                        let epoch = rounds_done / rounds_per_epoch;
                        records.push(epoch_record(
                            epoch,
                            run_now(&sink),
                            &mut harness,
                            &group.lead().weights,
                            group.bn(),
                            &mut losses,
                            lr,
                        ));
                    }
                    let stop = rounds_done >= rounds_target;
                    for (parked, _, _, _) in round.drain(..) {
                        if stop {
                            ctx.reply_to(parked, ClusterResp::Stop);
                        } else {
                            // The whole released round shares one weights
                            // snapshot — the reactor encodes it once.
                            ctx.reply_to_keyed(
                                parked,
                                ClusterResp::weights_for(
                                    codec,
                                    group.lead().weights.clone(),
                                    group.version(),
                                    None,
                                    fence.epoch(),
                                ),
                                coalesce_key(0, fence.epoch(), group.version()),
                            );
                        }
                    }
                }
            } else if applied < target && !halted {
                // Late gradients past the target (or past a planned
                // halt) are dropped, as a real server shutting down
                // would drop them.
                let sh = shard as usize;
                if sh >= n_shards {
                    break 'grad;
                }
                let slice = grads.into_dense();
                if slice.len() != wspec.range(sh).len() {
                    // A slice that does not fit its shard cannot be
                    // assembled; drop the whole push rather than apply
                    // garbage.
                    pending[w] = None;
                    break 'grad;
                }
                // Buffer the slice; the push applies when the last one
                // lands. The worker's link is ordered, but assembly
                // tolerates any arrival order (and injected duplicates)
                // within one push.
                let p = match pending[w].as_mut() {
                    Some(p) if p.push_seq == push_seq => p,
                    _ => {
                        // First slice of a new push; a leftover buffer
                        // from an abandoned one is discarded.
                        pending[w] = Some(PendingPush {
                            push_seq,
                            pull_version,
                            loss,
                            grads: Vec::new(),
                            seen: 0,
                            got: 0,
                            batch_stats: Vec::new(),
                            running: BnState::default(),
                        });
                        pending[w].as_mut().expect("just inserted")
                    }
                };
                if p.seen & (1 << sh) == 0 {
                    p.seen |= 1 << sh;
                    p.got += 1;
                }
                if n_shards == 1 {
                    // The only slice is the whole gradient: adopt it.
                    p.grads = slice;
                } else {
                    p.grads.resize(wspec.len(), 0.0);
                    p.grads[wspec.range(sh)].copy_from_slice(&slice);
                }
                if sh == 0 {
                    // BN payloads ride the lead slice only.
                    p.batch_stats = batch_stats;
                    p.running = running;
                }
                if p.got < n_shards {
                    break 'grad;
                }
                let done = pending[w].take().expect("assembly just completed");
                let (g, loss) = (done.grads, done.loss);
                let (batch_stats, running) = (done.batch_stats, done.running);
                let stale = (group.version() - done.pull_version) as u32;
                // Admission control: the supervisor may discard, park, or
                // LR-scale the gradient. Staleness samples are recorded
                // for *applied* updates only, so the admitted stream is
                // what the bound policies guarantee about.
                let (g, lr_scale, want_rollback) = match sup.as_mut() {
                    Some(s) => {
                        let adm = s.admit(w, applied as u64, stale, g, loss);
                        (adm.grads, adm.lr_scale, adm.rollback)
                    }
                    None => (Some(g), 1.0, false),
                };
                if let Some(g) = g {
                    // Lease enforcement (wall-clock backends): an expired
                    // write lease forces a heartbeat ack from the standby
                    // before this write may apply.
                    if clock == ClockDomain::Wall {
                        if let Some(rs) = repl.as_mut() {
                            rs.ensure_lease();
                        }
                    }
                    staleness.push(stale);
                    sink.note_staleness(stale);
                    let lr = cfg.lr.at_epoch(applied / updates_per_epoch) * lr_scale;
                    // The write-ahead log ships the apply as per-shard
                    // deltas, so snapshot the weights they are taken
                    // against.
                    let w_before = repl.as_ref().map(|_| group.assembled_weights());
                    let t_apply = Instant::now();
                    // A rejoined worker's backup was cleared at Join; until
                    // its next pull re-snapshots, fall back to the plain
                    // update (zero assumed drift).
                    if pulled_mode[w] == AlgoMode::Dc && backups[w].len() == g.len() {
                        group.apply_grad_dc(&g, lr, cfg.lambda, &backups[w]);
                    } else {
                        group.apply_grad(&g, lr);
                    }
                    let mut arrival = None;
                    let mut bn_absorbed = false;
                    if pulled_mode[w] != AlgoMode::Lc {
                        group.log_arrival(w);
                        arrival = Some(group.version());
                        group.absorb_bn(&running, &batch_stats);
                        bn_absorbed = true;
                    }
                    sink.wall_span_at(
                        Some(w),
                        phase::SERVER_APPLY,
                        t_apply,
                        t_apply.elapsed().as_secs_f64(),
                    );
                    sink.note_version(group.version());
                    losses.push(loss);
                    applied += 1;
                    fence.commit_push(w, push_seq);
                    if let Some(rs) = repl.as_mut() {
                        // One log record per shard slice, consecutive
                        // seqs; the completing (last-shard) record alone
                        // carries the arrival/BN side effects, so the
                        // standby counts a push applied only when all its
                        // slices have landed.
                        let before = w_before.expect("delta base captured while replicating");
                        for s in 0..n_shards {
                            let r = wspec.range(s);
                            let delta: Vec<f32> = group
                                .shard(s)
                                .weights
                                .iter()
                                .zip(&before[r])
                                .map(|(a, b)| a - b)
                                .collect();
                            let digest = LogRecord::digest_of(&delta);
                            let completing = s + 1 == n_shards;
                            rs.log(LogRecord {
                                seq: 0, // assigned by the stream
                                epoch: fence.epoch(),
                                worker: w as u32,
                                push_seq,
                                version: group.version(),
                                staleness: stale,
                                loss,
                                delta,
                                digest,
                                arrival: if completing { arrival } else { None },
                                bn: if completing {
                                    bn_absorbed.then(|| group.bn().clone())
                                } else {
                                    None
                                },
                                shard: s as u32,
                            });
                        }
                    }
                    if applied.is_multiple_of(updates_per_epoch) {
                        let epoch = applied / updates_per_epoch;
                        records.push(epoch_record(
                            epoch,
                            run_now(&sink),
                            &mut harness,
                            &group.assembled_weights(),
                            group.bn(),
                            &mut losses,
                            lr,
                        ));
                        // Epoch-boundary snapshot refresh: fields the log
                        // does not carry (predictor state, batch
                        // positions, epoch records) catch up here.
                        if let Some(rs) = repl.as_mut() {
                            rs.snapshot(&state_snapshot(
                                &group,
                                applied as u64,
                                &staleness,
                                &losses,
                                &records,
                                is_lc,
                                &loss_pred,
                                &step_pred,
                                batch_pos.lock().clone(),
                                &fence,
                            ));
                        }
                    }
                    let halt_now = halt_at.is_some_and(|h| applied as u64 >= h);
                    if halt_now {
                        halted = true;
                        if let Some(log) = &fault_log {
                            log.push(FaultRecord::ServerHalted { at_update: applied as u64 });
                        }
                    }
                    if let Some(path) = &checkpoint_path {
                        if halt_now || applied.is_multiple_of(ckpt_every) {
                            let ck = TrainingCheckpoint {
                                weights: group.assembled_weights(),
                                bn: group.bn().clone(),
                                version: group.version(),
                                applied: applied as u64,
                                arrival: group.arrival_state(),
                                iter: group.lead().iter.clone(),
                                staleness: staleness.clone(),
                                epoch_losses: losses.clone(),
                                epochs: records.clone(),
                                loss_pred: is_lc.then(|| loss_pred.snapshot()),
                                step_pred: is_lc.then(|| step_pred.snapshot()),
                                worker_batches: batch_pos.lock().clone(),
                                server_epoch: fence.epoch(),
                                push_seqs: fence.push_seqs().to_vec(),
                                shard_versions: if group.count() == 1 {
                                    Vec::new()
                                } else {
                                    group.versions()
                                },
                            };
                            let t_ck = Instant::now();
                            match ck.save(path) {
                                Ok(()) => sink.wall_span_at(
                                    None,
                                    phase::CHECKPOINT,
                                    t_ck,
                                    t_ck.elapsed().as_secs_f64(),
                                ),
                                Err(e) => {
                                    // A failed periodic checkpoint must not
                                    // kill training: surface it in the fault
                                    // report and on the trace timeline, and
                                    // keep serving gradients.
                                    eprintln!(
                                        "warning: checkpoint write to {} failed: {e}",
                                        path.display()
                                    );
                                    let rec = FaultRecord::CheckpointFailed {
                                        at_update: applied as u64,
                                        error: e.to_string(),
                                    };
                                    sink.wall_instant(
                                        None,
                                        phase::CHECKPOINT,
                                        Instant::now(),
                                        rec.to_string(),
                                    );
                                    match &fault_log {
                                        Some(log) => log.push(rec),
                                        None => ckpt_failures.push(rec),
                                    }
                                }
                            }
                        }
                    }
                    // ---- planned primary kill: fenced failover --------
                    // Deterministic on the simulator: the trigger is the
                    // applied-update count, the standby's content is fixed
                    // by the synchronous flush cadence, and the promoted
                    // state is a pure function of both.
                    if kill_pending.is_some_and(|k| applied as u64 >= k) {
                        'kill: {
                            let killed_at = kill_pending.take().expect("trigger checked");
                            let rs = repl.as_mut().expect("primary kill requires a standby");
                            let slot = standby_slot.as_ref().expect("standby slot exists");
                            // Fence the dead primary: its lease never
                            // renews again, and its unflushed tail is
                            // discarded.
                            rs.lease.revoke();
                            let Some(replica) = slot.lock().take() else {
                                // The standby was already lost (the stream
                                // degraded): there is nothing to promote.
                                // The run continues on the primary's
                                // surviving state, unreplicated.
                                if let Some(log) = &fault_log {
                                    log.push(FaultRecord::StandbyLost {
                                        at_update: killed_at,
                                        error: "planned primary kill found no standby to promote"
                                            .into(),
                                    });
                                }
                                break 'kill;
                            };
                            let ck = replica.into_state();
                            let lost = applied as u64 - ck.applied;
                            let from_epoch = fence.epoch();
                            // Adopt the standby's mirrored state wholesale.
                            if let Err(error) = adopt_server_state(&mut group, &ck) {
                                // A mirror the promoted layout cannot adopt
                                // is as good as a lost standby: record it
                                // and keep the primary's state.
                                if let Some(log) = &fault_log {
                                    log.push(FaultRecord::StandbyLost {
                                        at_update: killed_at,
                                        error,
                                    });
                                }
                                break 'kill;
                            }
                            applied = ck.applied as usize;
                            staleness = ck.staleness.clone();
                            losses = ck.epoch_losses.clone();
                            while records.len() > applied / updates_per_epoch {
                                // Epoch records computed from discarded
                                // updates: recomputed when the boundary is
                                // crossed again.
                                records.pop();
                            }
                            if let Some(lp) = &ck.loss_pred {
                                loss_pred.restore(lp);
                            }
                            if let Some(sp) = &ck.step_pred {
                                step_pred.restore(sp);
                            }
                            // DC backups and half-assembled pushes
                            // reference pulls from the dead primary.
                            for b in backups.iter_mut() {
                                b.clear();
                            }
                            for (live, pend) in backup_live.iter_mut().zip(pending.iter_mut()) {
                                *live = false;
                                *pend = None;
                            }
                            let to_epoch = fence.promote(ck.push_seqs.clone());
                            rs.report.failovers += 1;
                            rs.report.lost_updates += lost;
                            rs.lease = Lease::new(rs.lease_timeout);
                            // Re-arm: the promoted server is the new
                            // primary; re-bootstrap the (now empty)
                            // standby slot.
                            rs.snapshot(&state_snapshot(
                                &group,
                                applied as u64,
                                &staleness,
                                &losses,
                                &records,
                                is_lc,
                                &loss_pred,
                                &step_pred,
                                batch_pos.lock().clone(),
                                &fence,
                            ));
                            if let Some(s) = sup.as_mut() {
                                s.record_failover(applied as u64, from_epoch, to_epoch, lost);
                            }
                            sink.wall_instant(
                                None,
                                phase::HEALTH,
                                Instant::now(),
                                format!(
                                    "at-update={applied} failover from-epoch={from_epoch} \
                                     to-epoch={to_epoch} lost-updates={lost}"
                                ),
                            );
                            if let Some(log) = &fault_log {
                                log.push(FaultRecord::FailedOver {
                                    at_update: killed_at,
                                    from_epoch,
                                    to_epoch,
                                    lost_updates: lost,
                                });
                            }
                        }
                    }
                    // ---- standby-loss degradation ---------------------
                    // Any replication interaction this push triggered may
                    // have found the standby gone; report the one-time
                    // degradation on every channel (satellite of DESIGN
                    // §10): the replication report, the fault log, the
                    // health timeline, and the trace.
                    if let Some(rs) = repl.as_mut() {
                        if let Some(error) = rs.take_degradation() {
                            rs.report.degraded_at = Some(applied as u64);
                            let rec = FaultRecord::StandbyLost { at_update: applied as u64, error };
                            sink.wall_instant(None, phase::HEALTH, Instant::now(), rec.to_string());
                            if let Some(log) = &fault_log {
                                log.push(rec);
                            }
                            if let Some(s) = sup.as_mut() {
                                s.record_standby_lost(applied as u64);
                            }
                        }
                    }
                }
                if let Some(s) = sup.as_mut() {
                    if want_rollback {
                        // Global divergence: restore the last-good
                        // snapshot. `server.version` stays monotonic —
                        // staleness accounting must never see the clock
                        // move backwards; only the *state* rewinds.
                        if let Some(good) = &last_good {
                            group.load_weights(&good.weights);
                            group.set_bn(good.bn.clone());
                            if let Some(lp) = &good.loss_pred {
                                loss_pred.restore(lp);
                            }
                            if let Some(sp) = &good.step_pred {
                                step_pred.restore(sp);
                            }
                            s.rolled_back(applied as u64, good.applied);
                        }
                    } else if s.should_snapshot(applied as u64) {
                        last_good = Some(GoodState {
                            weights: group.assembled_weights(),
                            bn: group.bn().clone(),
                            applied: applied as u64,
                            loss_pred: is_lc.then(|| loss_pred.snapshot()),
                            step_pred: is_lc.then(|| step_pred.snapshot()),
                        });
                    }
                    for (at, ev) in s.drain_new_events() {
                        sink.wall_instant(
                            ev.worker(),
                            phase::HEALTH,
                            Instant::now(),
                            format!("at-update={at} {ev}"),
                        );
                    }
                }
            }
        }
    };

    let worker_fn = |w: usize, link: &mut dyn WorkerLink<ClusterReq, ClusterResp>| {
        let mut node = nodes.lock()[w].take().expect("worker slot empty");
        let incarnation = {
            let mut inc = incarnations.lock();
            let i = inc[w];
            inc[w] += 1;
            i
        };
        if incarnation > 0 {
            // This invocation is a restarted process rejoining after an
            // injected crash: announce it (fire-and-forget) so the server
            // resets this worker's arrival history and predictor stream.
            let _ = link.send(ClusterReq::Join { incarnation });
        }
        'run: {
            let mut residual = Vec::new();
            if is_ssgd {
                let pull_start = Instant::now();
                // SSGD never runs fenced (no standby support): epoch 0,
                // push_seq 0 (the "no sequencing" sentinel).
                let mut resp = match link.request(ClusterReq::Pull { epoch: 0, shard: 0 }) {
                    Ok(r) => r.normalize(),
                    Err(_) => break 'run,
                };
                wspan(w, phase::PULL, pull_start);
                loop {
                    let (flat, version) = match resp {
                        ClusterResp::Stop => break,
                        ClusterResp::Weights { flat, version, .. } => (flat, version),
                        _ => break,
                    };
                    let compute_start = Instant::now();
                    let (loss, grads, batch_stats) = node.compute_gradient(&flat, train);
                    wspan(w, phase::COMPUTE, compute_start);
                    let grads = wire_grads(&compression, grads, &mut residual);
                    let running = node.bn_running();
                    // The barrier: this request blocks until the whole round
                    // has arrived and the server releases the new weights.
                    let push_start = Instant::now();
                    resp = match link.request(ClusterReq::Grad {
                        grads,
                        pull_version: version,
                        loss,
                        batch_stats,
                        running,
                        epoch: 0,
                        push_seq: 0,
                        shard: 0,
                    }) {
                        Ok(r) => r.normalize(),
                        Err(_) => break,
                    };
                    wspan(w, phase::PUSH, push_start);
                }
                break 'run;
            }
            let mut last_t_comp = 0.0f32;
            // Failover routing state: the server epoch this worker last
            // saw (carried on every request), its per-push dedup sequence,
            // and a bounded count of consecutive fenced retries.
            let mut srv_epoch = 0u64;
            let seq_base = u64::from(incarnation) << 32;
            let mut push_counter = 0u64;
            let mut fenced_retries = 0u32;
            loop {
                let pull_start = Instant::now();
                let resp = match link.request(ClusterReq::Pull { epoch: srv_epoch, shard: 0 }) {
                    Ok(r) => r.normalize(),
                    Err(_) => break,
                };
                wspan(w, phase::PULL, pull_start);
                let t_comm = pull_start.elapsed().as_secs_f32();
                let (mut flat, version, directive) = match resp {
                    ClusterResp::Stop => break,
                    ClusterResp::Weights { flat, version, directive, epoch } => {
                        srv_epoch = epoch;
                        (flat, version, directive)
                    }
                    ClusterResp::Fenced { epoch } => {
                        // The primary this request addressed is dead:
                        // adopt the promoted server's epoch and retry
                        // with bounded backoff.
                        srv_epoch = epoch;
                        fenced_retries += 1;
                        if fenced_retries > 64 {
                            break;
                        }
                        if clock == ClockDomain::Wall {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        continue;
                    }
                    _ => break,
                };
                // Sharded layout: the lead pull delivered shard 0's slice;
                // fan out one pull per remaining shard and assemble the
                // full vector. With a single shard this is a no-op and the
                // message sequence is exactly the unsharded protocol's.
                let mut outcome = ShardPullOutcome::Assembled;
                if n_shards > 1 {
                    let mut full = vec![0.0f32; wspec.len()];
                    if flat.len() != wspec.range(0).len() {
                        break;
                    }
                    full[wspec.range(0)].copy_from_slice(&flat);
                    for sh in 1..n_shards {
                        let shard_start = Instant::now();
                        let req = ClusterReq::Pull { epoch: srv_epoch, shard: sh as u32 };
                        match link.request(req).map(ClusterResp::normalize) {
                            Ok(ClusterResp::Weights { flat: slice, epoch, .. }) => {
                                srv_epoch = epoch;
                                let r = wspec.range(sh);
                                if slice.len() != r.len() {
                                    outcome = ShardPullOutcome::Stop;
                                    break;
                                }
                                full[r].copy_from_slice(&slice);
                                wspan(w, phase::PULL, shard_start);
                            }
                            Ok(ClusterResp::Fenced { epoch }) => {
                                srv_epoch = epoch;
                                outcome = ShardPullOutcome::Fenced;
                                break;
                            }
                            _ => {
                                outcome = ShardPullOutcome::Stop;
                                break;
                            }
                        }
                    }
                    flat = full;
                }
                match outcome {
                    ShardPullOutcome::Assembled => {}
                    ShardPullOutcome::Fenced => {
                        // A follower shard answered from behind the new
                        // fence: abandon the half-assembled pull and
                        // restart the iteration against the promoted
                        // epoch, with the same bounded backoff as above.
                        fenced_retries += 1;
                        if fenced_retries > 64 {
                            break;
                        }
                        if clock == ClockDomain::Wall {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        continue;
                    }
                    ShardPullOutcome::Stop => break,
                }
                fenced_retries = 0;
                // Supervisor directives: a reassigned data shard takes
                // effect now, and the ladder rung decides whether this
                // iteration runs the LC two-phase exchange or a plain
                // fused one.
                if let Some(shard) = directive.as_ref().and_then(|d| d.shard.as_ref()) {
                    node.set_shard(shard.iter().map(|&i| i as usize).collect());
                }
                let use_lc = directive.as_ref().map_or(is_lc, |d| d.mode == AlgoMode::Lc);
                let compute_start = Instant::now();
                if use_lc {
                    // Algorithm 1: push the forward state, receive ℓ_delay,
                    // backpropagate the compensated loss (Formula 5).
                    let (loss, batch_stats) = node.forward_phase(&flat, train);
                    wspan(w, phase::COMPUTE, compute_start);
                    let running = node.bn_running();
                    let state = ClusterReq::State {
                        loss,
                        running,
                        batch_stats,
                        t_comm,
                        t_comp: last_t_comp,
                        epoch: srv_epoch,
                    };
                    let state_start = Instant::now();
                    let (l_delay, one_step, km) = match link.request(state) {
                        Ok(ClusterResp::Compensation { l_delay, one_step, km }) => {
                            (l_delay, one_step, km)
                        }
                        Ok(ClusterResp::Fenced { epoch }) => {
                            // Failover landed mid-exchange: the forward
                            // pass is abandoned and the iteration restarts
                            // against the promoted server.
                            srv_epoch = epoch;
                            if clock == ClockDomain::Wall {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            continue;
                        }
                        _ => break,
                    };
                    wspan(w, phase::PUSH, state_start);
                    let seed =
                        cfg.compensation.seed(loss, l_delay, one_step, km as usize, cfg.lambda);
                    let backward_start = Instant::now();
                    let grads = node.backward_phase(seed);
                    wspan(w, phase::COMPUTE, backward_start);
                    last_t_comp = compute_start.elapsed().as_secs_f32();
                    let slices = shard_wire_grads(&compression, &wspec, grads, &mut residual);
                    push_counter += 1;
                    let push_seq = seq_base | push_counter;
                    let push_start = Instant::now();
                    let mut dead = false;
                    for (sh, grads) in slices.into_iter().enumerate() {
                        let push = ClusterReq::Grad {
                            grads,
                            pull_version: version,
                            loss,
                            batch_stats: Vec::new(),
                            running: BnState::default(),
                            epoch: srv_epoch,
                            push_seq,
                            shard: sh as u32,
                        };
                        if link.send(push).is_err() {
                            dead = true;
                            break;
                        }
                    }
                    if dead {
                        break;
                    }
                    wspan(w, phase::PUSH, push_start);
                } else {
                    let (loss, grads, batch_stats) = node.compute_gradient(&flat, train);
                    wspan(w, phase::COMPUTE, compute_start);
                    last_t_comp = compute_start.elapsed().as_secs_f32();
                    let slices = shard_wire_grads(&compression, &wspec, grads, &mut residual);
                    let running = node.bn_running();
                    let push_start = Instant::now();
                    push_counter += 1;
                    let push_seq = seq_base | push_counter;
                    // The BN payload rides only the lead-shard slice; the
                    // follower slices carry empty stats so the merged
                    // absorption happens exactly once per push.
                    let mut payload = Some((batch_stats, running));
                    let mut dead = false;
                    for (sh, grads) in slices.into_iter().enumerate() {
                        let (batch_stats, running) = if sh == 0 {
                            payload.take().expect("lead payload consumed once")
                        } else {
                            (Vec::new(), BnState::default())
                        };
                        if link
                            .send(ClusterReq::Grad {
                                grads,
                                pull_version: version,
                                loss,
                                batch_stats,
                                running,
                                epoch: srv_epoch,
                                push_seq,
                                shard: sh as u32,
                            })
                            .is_err()
                        {
                            dead = true;
                            break;
                        }
                    }
                    if dead {
                        break;
                    }
                    wspan(w, phase::PUSH, push_start);
                }
                // Report the batch-stream position the next checkpoint
                // should record.
                batch_pos.lock()[w] = node.batch_progress();
            }
        }
        // Return the replica to its slot: a restarted incarnation of this
        // worker (crash-recovery re-invokes `worker_fn`) picks it back up.
        batch_pos.lock()[w] = node.batch_progress();
        nodes.lock()[w] = Some(node);
    };

    let transport = backend.run(server_fn, worker_fn)?;

    // ---- replication teardown -----------------------------------------
    // Dropping the stream hangs up the duplex; the standby thread's recv
    // fails and it exits cleanly.
    let replication = if standby.is_some() {
        let mut rep = repl.take().map(|rs| rs.report).unwrap_or_default();
        if let Some(h) = standby_handle.take() {
            let _ = h.join();
        }
        rep.final_epoch = fence.epoch();
        rep.fenced_reads = fence.fenced_reads;
        rep.fenced_pushes = fence.fenced_pushes;
        rep.duplicate_pushes = fence.duplicate_pushes;
        Some(rep)
    } else {
        None
    };

    // Replay every observed fault/recovery onto the trace timeline as an
    // instant event, at the wall instant the log stamped it with.
    // Checkpoint failures already produced a `checkpoint` instant inline.
    if let Some(log) = &fault_log {
        for (rec, at) in log.timed_records() {
            let worker = match &rec {
                FaultRecord::Injected { worker, .. }
                | FaultRecord::WorkerRestarted { worker, .. } => Some(*worker),
                FaultRecord::CheckpointFailed { .. } => continue,
                _ => None,
            };
            sink.wall_instant(worker, phase::FAULT_INJECT, at, rec.to_string());
        }
    }

    if is_ssgd {
        staleness = vec![0; group.version() as usize];
    }
    let overhead = is_lc.then_some(OverheadStats {
        loss_pred_ms: loss_pred.elapsed_ms,
        step_pred_ms: step_pred.elapsed_ms,
        iterations: group.version(),
    });
    // A resumed run (or a checkpoint-write failure) reports even without a
    // fault plan, so callers can see what happened.
    let faults = if fault_plan.is_some() || resume.is_some() || !ckpt_failures.is_empty() {
        let mut records = fault_plan.as_ref().map(|p| p.records()).unwrap_or_default();
        if fault_plan.is_none() && resume.is_some() {
            records.push(FaultRecord::Resumed { at_update: resumed_at });
        }
        records.append(&mut ckpt_failures);
        Some(FaultReport { records, server_halted: halted, resumed_at })
    } else {
        None
    };
    Ok(RunResult {
        label: format!("{} ({}, cluster)", cfg.algorithm, cfg.bn_mode),
        epochs: records,
        staleness,
        trace: (is_lc && cfg.record_traces).then_some(trace),
        overhead,
        iterations: group.version(),
        total_time: run_now(&sink),
        clock,
        wall_time: t0.elapsed().as_secs_f64(),
        transport: Some(transport),
        faults,
        timeline: want_trace.then(|| sink.finish()),
        health: sup.map(Supervisor::into_report),
        replication,
        shards: n_shards,
    })
}

// ------------------------------------------------------------- threaded

/// Real-thread ASGD for cross-validating the simulator: workers are OS
/// threads computing true gradients concurrently; the server applies them
/// in whatever order the scheduler produces. A thin wrapper over
/// [`run_cluster`] on the [`ThreadCluster`] backend.
pub fn run_threaded_asgd(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> RunResult {
    let m = cfg.workers.max(1);
    let mut r = run_cluster(ThreadCluster::new(m), cfg, build, train, test)
        .expect("thread backend cannot fail at transport level");
    r.label = "ASGD (threads)".into();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compensation::CompensationMode;
    use crate::config::Scale;
    use lcasgd_data::synth::blobs_split;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_nn::LrSchedule;

    fn blob_cfg(algorithm: Algorithm, workers: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(algorithm, workers, Scale::Tiny, 11);
        cfg.epochs = 12;
        cfg.batch_size = 10;
        cfg.lr = LrSchedule::constant(0.1);
        cfg
    }

    fn build_mlp(rng: &mut Rng) -> Network {
        mlp(&[6, 16, 4], true, rng)
    }

    fn data() -> (Dataset, Dataset) {
        blobs_split(4, 6, 30, 10, 0.6, 21)
    }

    #[test]
    fn sequential_sgd_learns_blobs() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::Sgd, 1);
        let r = run_experiment(&cfg, &build_mlp, &train, &test);
        assert_eq!(r.epochs.len(), cfg.epochs);
        assert!(r.final_test_error() < 0.15, "err {}", r.final_test_error());
        assert!(r.epochs[0].test_error > r.final_test_error());
        assert_eq!(r.iterations as usize, cfg.epochs * 12); // 120/10 per epoch
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn asgd_learns_and_has_staleness() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::Asgd, 4);
        let r = run_experiment(&cfg, &build_mlp, &train, &test);
        assert!(r.final_test_error() < 0.2, "err {}", r.final_test_error());
        assert!(r.mean_staleness() > 0.5, "staleness {}", r.mean_staleness());
        assert_eq!(r.staleness.len() as u64, r.iterations);
    }

    #[test]
    fn dc_asgd_learns() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::DcAsgd, 4);
        let r = run_experiment(&cfg, &build_mlp, &train, &test);
        assert!(r.final_test_error() < 0.2, "err {}", r.final_test_error());
    }

    #[test]
    fn lc_asgd_learns_with_predictors_and_overhead() {
        let (train, test) = data();
        let mut cfg = blob_cfg(Algorithm::LcAsgd, 4);
        cfg.record_traces = true;
        let r = run_experiment(&cfg, &build_mlp, &train, &test);
        assert!(r.final_test_error() < 0.25, "err {}", r.final_test_error());
        let o = r.overhead.as_ref().expect("LC must report overhead");
        assert!(o.loss_pred_ms > 0.0 && o.step_pred_ms > 0.0);
        let t = r.trace.as_ref().expect("traces requested");
        assert!(!t.actual_loss.is_empty());
        assert_eq!(t.actual_loss.len(), t.predicted_loss.len());
        assert_eq!(t.actual_step.len(), t.predicted_step.len());
        assert!(!t.finish_order.is_empty());
    }

    #[test]
    fn ssgd_rounds_and_learning() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::Ssgd, 4);
        let r = run_experiment(&cfg, &build_mlp, &train, &test);
        // rounds/epoch = ceil(120 / (4*10)) = 3
        assert_eq!(r.iterations as usize, cfg.epochs * 3);
        assert!(r.final_test_error() < 0.25, "err {}", r.final_test_error());
    }

    #[test]
    fn runs_are_deterministic() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::LcAsgd, 4);
        let a = run_experiment(&cfg, &build_mlp, &train, &test);
        let b = run_experiment(&cfg, &build_mlp, &train, &test);
        assert_eq!(a.final_test_error(), b.final_test_error());
        assert_eq!(a.staleness, b.staleness);
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn compensation_off_equals_plain_asgd_updates() {
        // With compensation Off the LC gradient path reduces to ASGD's
        // (same math; only message pattern and BN timing differ).
        let (train, test) = data();
        let mut cfg = blob_cfg(Algorithm::LcAsgd, 2);
        cfg.compensation = CompensationMode::Off;
        let r = run_experiment(&cfg, &build_mlp, &train, &test);
        assert!(r.final_test_error() < 0.3);
    }

    #[test]
    fn asgd_staleness_grows_with_workers() {
        let (train, test) = data();
        let r4 = run_experiment(&blob_cfg(Algorithm::Asgd, 4), &build_mlp, &train, &test);
        let r16 = run_experiment(&blob_cfg(Algorithm::Asgd, 16), &build_mlp, &train, &test);
        assert!(
            r16.mean_staleness() > r4.mean_staleness() * 2.0,
            "4w {} vs 16w {}",
            r4.mean_staleness(),
            r16.mean_staleness()
        );
    }

    #[test]
    fn asgd_wallclock_beats_ssgd() {
        // No barrier → ASGD finishes the same number of epochs faster.
        let (train, test) = data();
        let a = run_experiment(&blob_cfg(Algorithm::Asgd, 8), &build_mlp, &train, &test);
        let s = run_experiment(&blob_cfg(Algorithm::Ssgd, 8), &build_mlp, &train, &test);
        // Per epoch, ASGD applies n/b updates spread over M workers; SSGD
        // pays a barrier per round.
        let a_time = a.total_time / a.epochs.len() as f64;
        let s_time = s.total_time / s.epochs.len() as f64;
        assert!(a_time < s_time * 1.05, "asgd {a_time} vs ssgd {s_time}");
    }

    #[test]
    fn cluster_driver_runs_ssgd_and_lc_over_threads() {
        // The generic backend driver speaks every protocol shape: the
        // SSGD barrier via deferred replies, and LC-ASGD's two-phase
        // pull → state → grad exchange.
        let (train, test) = data();
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], false, rng);
        for algo in [Algorithm::Ssgd, Algorithm::LcAsgd] {
            let cfg = blob_cfg(algo, 4);
            let r = run_cluster(ThreadCluster::new(4), &cfg, &build, &train, &test).unwrap();
            assert_eq!(r.epochs.len(), cfg.epochs, "{algo}");
            assert!(r.final_test_error() < 0.35, "{algo} err {}", r.final_test_error());
            let t = r.transport.expect("backend runs report transport");
            assert!(t.requests > 0, "{algo} must do blocking round trips");
        }
    }

    #[test]
    fn threaded_asgd_converges_and_reports_staleness() {
        let (train, test) = data();
        let mut cfg = blob_cfg(Algorithm::Asgd, 4);
        cfg.epochs = 10;
        // Threads need a BN-free model: BN-state replace semantics across
        // racing threads are validated in the simulator instead.
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], false, rng);
        let r = run_threaded_asgd(&cfg, &build, &train, &test);
        assert_eq!(r.iterations as usize, 10 * 12);
        assert!(r.final_test_error() < 0.3, "err {}", r.final_test_error());
        assert_eq!(r.staleness.len() as u64, r.iterations);
    }

    #[test]
    fn km_steps_saturates_nan_and_negative() {
        // The predictor can emit NaN (untrained LSTM on a degenerate
        // stream) or a negative forecast; both must clamp to zero steps
        // instead of wrapping through `as usize`.
        assert_eq!(km_steps(f32::NAN), 0);
        assert_eq!(km_steps(f32::NEG_INFINITY), 0);
        assert_eq!(km_steps(-3.7), 0);
        assert_eq!(km_steps(-0.0), 0);
        assert_eq!(km_steps(0.0), 0);
        assert_eq!(km_steps(0.4), 0);
        assert_eq!(km_steps(0.6), 1);
        assert_eq!(km_steps(2.5), 3);
        assert_eq!(km_steps(7.2), 7);
    }

    /// A duplex whose peer is gone: every operation fails immediately.
    struct DeadDuplex;

    impl ReplicaDuplex for DeadDuplex {
        fn send(&mut self, _payload: &[u8]) -> Result<(), ClusterError> {
            Err(ClusterError::Disconnected)
        }

        fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
            Err(ClusterError::Disconnected)
        }
    }

    fn dead_record() -> LogRecord {
        LogRecord {
            seq: 0,
            epoch: 0,
            worker: 0,
            push_seq: 1,
            version: 1,
            staleness: 0,
            loss: 1.0,
            delta: vec![0.25, -0.5],
            digest: 0,
            arrival: Some(1),
            bn: None,
            shard: 0,
        }
    }

    #[test]
    fn replication_stream_degrades_instead_of_panicking() {
        let cfg = StandbyConfig { flush_every: 1, ..StandbyConfig::default() };
        let mut rs = ReplicationStream::new(Box::new(DeadDuplex), &cfg);
        // flush_every=1: the first log flushes synchronously into the
        // dead duplex. Before the fix this was a
        // `.expect("standby duplex closed")` panic.
        rs.log(dead_record());
        assert!(rs.degraded, "send failure must degrade the stream");
        assert!(rs.lease.is_revoked(), "a degraded stream never waits on its lease");
        assert!(rs.buffer.is_empty(), "the unflushed tail is discarded");
        assert_eq!(rs.report.flushes, 0, "a failed flush is not a flush");
        let why = rs.take_degradation().expect("cause surfaces exactly once");
        assert!(why.contains("standby"), "cause names the standby: {why}");
        assert!(rs.take_degradation().is_none(), "the cause is one-shot");
        // Once degraded every entry point is inert — no panic, no buffer
        // growth, no counter movement.
        rs.log(dead_record());
        rs.flush();
        rs.snapshot(&TrainingCheckpoint::default());
        rs.ensure_lease();
        assert!(rs.buffer.is_empty());
        assert_eq!(rs.report.flushes, 0);
        assert_eq!(rs.report.snapshots, 0);
        assert!(rs.take_degradation().is_none(), "inert calls surface no new cause");
    }

    #[test]
    fn checkpoint_worker_mismatch_is_a_descriptive_error() {
        // Satellite: a checkpoint from an M=4 run resumed under M=2 used
        // to die on `assert_eq!` inside `restore_arrival_state`; it must
        // surface as a recoverable transport error instead.
        let (train, test) = data();
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], false, rng);
        let mut cfg4 = blob_cfg(Algorithm::Asgd, 4);
        cfg4.epochs = 2;
        let dir = std::env::temp_dir().join("lcasgd-worker-mismatch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m4.ck");
        let opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 5,
            ..RunOptions::default()
        };
        run_cluster_with(ThreadCluster::new(4), &cfg4, &build, &train, &test, opts).unwrap();
        let ck = TrainingCheckpoint::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg2 = blob_cfg(Algorithm::Asgd, 2);
        cfg2.epochs = 2;
        let opts = RunOptions { resume: Some(ck), ..RunOptions::default() };
        let err = run_cluster_with(ThreadCluster::new(2), &cfg2, &build, &train, &test, opts)
            .expect_err("worker-count mismatch must be an error, not a panic");
        let msg = format!("{err:?}");
        assert!(msg.contains("cannot resume"), "descriptive error, got: {msg}");
        assert!(msg.contains('4') && msg.contains('2'), "names both counts: {msg}");
    }

    #[test]
    fn sharded_cluster_run_matches_single_shard_on_sim() {
        // The tentpole identity on the deterministic backend: shards=1 is
        // the unsharded protocol verbatim, and shards=3 must produce the
        // same applied-update count and converge (its message schedule
        // differs, so floats may not be bitwise equal to shards=1 here —
        // the bitwise claim for shards=1 vs the seed lives in
        // tests/shard_equivalence.rs).
        let (train, test) = data();
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], false, rng);
        let mut cfg = blob_cfg(Algorithm::LcAsgd, 4);
        cfg.epochs = 8;
        let base =
            run_cluster(ClusterSim::new(cfg.cluster.clone()), &cfg, &build, &train, &test).unwrap();
        let one = run_cluster_with(
            ClusterSim::new(cfg.cluster.clone()),
            &cfg,
            &build,
            &train,
            &test,
            RunOptions::default().shards(1),
        )
        .unwrap();
        assert_eq!(base.staleness, one.staleness, "shards=1 must not perturb the schedule");
        assert_eq!(base.final_test_error(), one.final_test_error());
        assert_eq!(one.shards, 1);
        let three = run_cluster_with(
            ClusterSim::new(cfg.cluster.clone()),
            &cfg,
            &build,
            &train,
            &test,
            RunOptions::default().shards(3),
        )
        .unwrap();
        assert_eq!(three.shards, 3);
        assert_eq!(three.epochs.len(), cfg.epochs);
        assert!(three.final_test_error() < 0.35, "err {}", three.final_test_error());
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use crate::config::{DataPartition, Scale};
    use lcasgd_data::synth::blobs_split;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_nn::LrSchedule;

    #[test]
    fn partitioned_data_trains_every_algorithm() {
        let (train, test) = blobs_split(4, 6, 32, 12, 0.6, 51);
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], true, rng);
        for algo in [Algorithm::Ssgd, Algorithm::Asgd, Algorithm::LcAsgd] {
            let mut cfg = ExperimentConfig::new(algo, 4, Scale::Tiny, 13);
            cfg.epochs = 10;
            cfg.batch_size = 8;
            cfg.lr = LrSchedule::constant(0.1);
            cfg.ssgd_lr_scale = 1.0;
            cfg.partition = DataPartition::Partitioned;
            let r = run_experiment(&cfg, &build, &train, &test);
            assert!(r.final_test_error() < 0.3, "{algo} partitioned err {}", r.final_test_error());
        }
    }

    #[test]
    fn shards_are_disjoint_and_cover() {
        let cfg = {
            let mut c = ExperimentConfig::new(Algorithm::Asgd, 4, Scale::Tiny, 1);
            c.partition = DataPartition::Partitioned;
            c
        };
        let shards = worker_shards(&cfg, 4, 10);
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shared_mode_gives_full_data_to_everyone() {
        let cfg = ExperimentConfig::new(Algorithm::Asgd, 3, Scale::Tiny, 1);
        let shards = worker_shards(&cfg, 3, 7);
        for s in shards {
            assert_eq!(s.len(), 7);
        }
    }
}

#[cfg(test)]
mod compression_tests {
    use super::*;
    use crate::comm::Compression;
    use crate::config::Scale;
    use lcasgd_data::synth::blobs_split;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_nn::LrSchedule;

    #[test]
    fn compressed_asgd_still_learns() {
        let (train, test) = blobs_split(4, 6, 30, 10, 0.6, 61);
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], true, rng);
        for compression in [Compression::TopK { k_frac: 0.25 }, Compression::Uniform { bits: 8 }] {
            let mut cfg = ExperimentConfig::new(Algorithm::Asgd, 4, Scale::Tiny, 19);
            cfg.epochs = 14;
            cfg.batch_size = 10;
            cfg.lr = LrSchedule::constant(0.1);
            cfg.compression = compression;
            let r = run_experiment(&cfg, &build, &train, &test);
            assert!(r.final_test_error() < 0.3, "{compression:?} err {}", r.final_test_error());
        }
    }

    #[test]
    fn compression_changes_the_trajectory() {
        let (train, test) = blobs_split(4, 6, 30, 10, 0.6, 61);
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], true, rng);
        let mut base = ExperimentConfig::new(Algorithm::Asgd, 4, Scale::Tiny, 19);
        base.epochs = 4;
        base.batch_size = 10;
        let plain = run_experiment(&base, &build, &train, &test);
        let mut lossy = base.clone();
        lossy.compression = Compression::TopK { k_frac: 0.1 };
        let compressed = run_experiment(&lossy, &build, &train, &test);
        assert_ne!(
            plain.epochs.last().unwrap().train_loss,
            compressed.epochs.last().unwrap().train_loss
        );
    }

    #[test]
    fn lc_asgd_composes_with_compression() {
        let (train, test) = blobs_split(4, 6, 30, 10, 0.6, 62);
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], true, rng);
        let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, 4, Scale::Tiny, 20);
        cfg.epochs = 14;
        cfg.batch_size = 10;
        cfg.lr = LrSchedule::constant(0.1);
        cfg.compression = Compression::Uniform { bits: 6 };
        let r = run_experiment(&cfg, &build, &train, &test);
        assert!(r.final_test_error() < 0.35, "err {}", r.final_test_error());
        assert!(r.overhead.is_some());
    }
}
