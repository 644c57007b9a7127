//! The three co-simulated event loops behind [`run_experiment`]: the
//! pre-`ClusterBackend` engine that still produces every paper figure and
//! table, kept verbatim in one file so that retiring it — once
//! `run_cluster(ClusterSim)` reproduces it bit for bit (DESIGN.md §13.3
//! records what is missing) — is one deletion.
//!
//! Co-simulation: the numeric computation (forward/backward passes on real
//! tensors) runs eagerly when the triggering message is *processed* in
//! virtual-time order, while its effects are deferred to the corresponding
//! arrival events. Staleness therefore emerges exactly as in a real
//! cluster: a gradient computed against the weights snapshotted at pull
//! time is applied only after other workers' updates have landed.
//!
//! [`run_experiment`]: super::run_experiment

use super::{epoch_record, km_steps, worker_shards, EvalHarness, ModelFn};
use crate::algorithms::Algorithm;
use crate::bnmode::BnMode;
use crate::comm::wire_grads;
use crate::config::ExperimentConfig;
use crate::metrics::{OverheadStats, PredictorTrace, RunResult};
use crate::predictor::{LossPredictor, StepPredictor};
use crate::server::ParameterServer;
use crate::trace::ClockDomain;
use crate::worker::WorkerNode;
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_data::Dataset;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::ClusterSim;
use lcasgd_tensor::Rng;
use std::time::Instant;

// ---------------------------------------------------------------- SGD

/// Sequential single-machine SGD: the accuracy baseline. Virtual time is
/// one iteration cost per update — no communication.
pub(super) fn run_sequential(
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
pub(super) fn run_ssgd(
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
pub(super) fn run_async(
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
                        grads = wire_grads(&cfg.compression, grads, &mut residuals[w]).decompress();
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
                    grads = wire_grads(&cfg.compression, grads, &mut residuals[w]).decompress();
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
