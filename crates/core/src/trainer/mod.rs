//! Training engines: run any of the five algorithms against a dataset.
//! Two live here, and they are different programs:
//!
//! * [`run_cluster`] / [`run_cluster_with`] — the **cluster engine**: the
//!   pull / push-state / push-grad protocol over any [`ClusterBackend`]
//!   (discrete-event simulator, real threads, TCP sockets). Two roles
//!   joined by the backend: a parameter-server state machine with one
//!   handler per message (`serve`: Algorithm 2 plus sharding, fencing,
//!   replication, supervision and checkpoints as components) and a worker
//!   loop (`work`: Algorithm 1). The benchmark and every chaos suite run
//!   through it; DESIGN.md §13 describes the structure.
//! * [`run_experiment`] — the older **co-simulated** event loops (`cosim`)
//!   that still produce the paper's figures and tables.

mod cosim;
mod serve;
mod work;

use crate::algorithms::Algorithm;
use crate::checkpoint::TrainingCheckpoint;
use crate::comm::Compression;
use crate::config::{DataPartition, ExperimentConfig};
use crate::metrics::{EpochRecord, RunResult};
use crate::replication::StandbyConfig;
use crate::shard::ShardGroup;
use crate::supervisor::{AlgoMode, Supervisor, SupervisorConfig};
use crate::trace::TraceSink;
use lcasgd_data::{BatchIter, Dataset};
use lcasgd_nn::metrics::evaluate;
use lcasgd_nn::network::BnState;
use lcasgd_nn::Network;
use lcasgd_simcluster::{ClusterBackend, ClusterError, FaultPlan};
use lcasgd_tensor::{Rng, Tensor};
use serve::Server;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use work::{worker_loop, worker_nodes, RunEnv};

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
        Algorithm::Sgd => cosim::run_sequential(cfg, build, train, test),
        Algorithm::Ssgd => cosim::run_ssgd(cfg, build, train, test),
        Algorithm::Asgd | Algorithm::DcAsgd | Algorithm::LcAsgd => {
            cosim::run_async(cfg, build, train, test)
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
        self.load(weights, bn);
        self.evaluate_loaded()
    }

    fn load(&mut self, weights: &[f32], bn: &BnState) {
        self.net.set_flat_params(weights);
        self.net.set_bn_state(bn);
    }

    /// Both error rates of the model last [`load`](Self::load)ed.
    fn evaluate_loaded(&self) -> (f32, f32) {
        let (train_err, _) = evaluate(&self.net, &self.train_x, &self.train_y, self.batch);
        let (test_err, _) = evaluate(&self.net, &self.test.inputs, &self.test.labels, self.batch);
        (train_err, test_err)
    }
}

/// An epoch's record before its evaluation: stamped, the epoch's losses
/// averaged and cleared, both error rates still NaN.
fn open_record(epoch: usize, time: f64, epoch_losses: &mut Vec<f32>, lr: f32) -> EpochRecord {
    let train_loss = if epoch_losses.is_empty() {
        f32::NAN
    } else {
        epoch_losses.iter().sum::<f32>() / epoch_losses.len() as f32
    };
    epoch_losses.clear();
    EpochRecord { epoch, time, train_error: f32::NAN, test_error: f32::NAN, train_loss, lr }
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
    EpochRecord { train_error, test_error, ..open_record(epoch, time, epoch_losses, lr) }
}

/// The cluster engine's epoch evaluation, off the server's thread. The
/// server closes an epoch by pushing an [`open_record`] and handing the
/// weights it was closed at to [`Evaluator::submit`]; the evaluator thread
/// ([`serve_evaluations`], owner of the [`EvalHarness`]) sends the two
/// error rates back and [`Evaluator::collect`] writes them into the
/// record. Evaluation is a pure function of `(weights, bn)`, so the record
/// ends up bitwise what inline evaluation would have made it. At most one
/// snapshot is in flight: a second `submit` first waits for the first.
struct Evaluator {
    jobs: Sender<(Arc<Vec<f32>>, BnState)>,
    results: Receiver<(f32, f32)>,
    /// Index of the record whose error rates are in flight.
    pending: Option<usize>,
}

impl Evaluator {
    /// Queues the evaluation of the newest record in `records`.
    fn submit(&mut self, records: &mut [EpochRecord], weights: Arc<Vec<f32>>, bn: BnState) {
        self.collect(records);
        // A send can only fail once the evaluator has panicked, which
        // `run_cluster_with` turns into the run's error when it joins it.
        if self.jobs.send((weights, bn)).is_ok() {
            self.pending = Some(records.len() - 1);
        }
    }

    /// Waits for the evaluation in flight, if any, and completes its
    /// record. Callers that read, ship or truncate `records` call this
    /// first, so no record is seen half-made and the index stays valid.
    fn collect(&mut self, records: &mut [EpochRecord]) {
        let Some(at) = self.pending.take() else { return };
        // As for `submit`: a dead evaluator hangs up instead of answering.
        if let Ok((train_error, test_error)) = self.results.recv() {
            records[at].train_error = train_error;
            records[at].test_error = test_error;
        }
    }
}

/// The evaluator thread's body: one evaluation per submitted snapshot,
/// until the server (and its [`Evaluator`]) is gone.
fn serve_evaluations(
    mut harness: EvalHarness<'_>,
    jobs: Receiver<(Arc<Vec<f32>>, BnState)>,
    results: Sender<(f32, f32)>,
) {
    for (weights, bn) in jobs {
        harness.load(&weights, &bn);
        // The server's snapshot: let go of it before the long part, so the
        // server can refill it for the next version instead of allocating.
        drop(weights);
        if results.send(harness.evaluate_loaded()).is_err() {
            return;
        }
    }
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

/// Gradient applications per epoch under the asynchronous algorithms.
fn updates_per_epoch(cfg: &ExperimentConfig, train: &Dataset) -> usize {
    train.len().div_ceil(cfg.batch_size).max(1)
}

// ------------------------------------------------------ backend-driven

/// Runs `cfg.algorithm` over any [`ClusterBackend`] — the discrete-event
/// simulator, real threads, or TCP sockets — through the shared
/// pull / push-state / push-grad protocol ([`crate::protocol`]).
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
    /// itself at that update count (see
    /// [`FaultReport::server_halted`](crate::metrics::FaultReport::server_halted)).
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
    /// vector is partitioned into ([`crate::shard::ShardSpec::even`]). `0` and `1` both
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

/// [`run_cluster`] plus the robustness machinery of [`RunOptions`]:
/// fault-plan accounting, elastic crash-recovery (a restarted worker
/// announces itself with [`ClusterReq::Join`] and gets fresh `k_m`
/// bookkeeping per Algorithm 2), periodic checkpoints, planned
/// server-restart halts, and checkpoint resume.
///
/// [`ClusterReq::Join`]: crate::protocol::ClusterReq::Join
pub fn run_cluster_with<B: ClusterBackend>(
    mut backend: B,
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
    opts: RunOptions,
) -> Result<RunResult, ClusterError> {
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
    let n_shards = shard_count.max(1);

    // ---- option validation --------------------------------------------
    // SSGD's barrier cannot survive a worker crash (the round would never
    // fill), replies with fresh weights from inside the Grad handler (so
    // fencing its blocking push would deadlock the round), and has no
    // admission point: the robustness options target the asynchronous
    // protocols.
    let is_ssgd = cfg.algorithm == Algorithm::Ssgd;
    assert!(
        !(is_ssgd && n_shards > 1),
        "SSGD's barrier replies with full weights from inside the Grad arm; it does not shard"
    );
    assert!(
        !(is_ssgd && supervisor.is_some()),
        "the supervisor targets the asynchronous protocols; SSGD's barrier has no admission point"
    );
    assert!(
        !(is_ssgd && fault_plan.is_some()),
        "fault injection is not supported under SSGD: a crashed worker stalls the barrier"
    );
    assert!(
        !(is_ssgd && standby.is_some()),
        "hot-standby replication targets the asynchronous protocols; SSGD has no standby support"
    );
    // A planned server restart or primary kill is ignored when the resume
    // point is already past it (it already happened) or when it lies
    // beyond the run's natural end.
    let target = (cfg.epochs * updates_per_epoch(cfg, train)) as u64;
    let resumed_at = resume.as_ref().map_or(0, |ck| ck.applied);
    let pending = |at: Option<u64>| at.filter(|&a| a > resumed_at && a < target);
    let halt_at = pending(fault_plan.as_ref().and_then(|p| p.server_restart_at_update));
    let kill_at = pending(fault_plan.as_ref().and_then(|p| p.primary_kill_at_update));
    assert!(
        kill_at.is_none() || standby.is_some(),
        "a primary-kill fault plan requires a standby (RunOptions::standby)"
    );

    // ---- set-up ---------------------------------------------------------
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let canonical = build(&mut rng);
    let group = ShardGroup::new(&canonical, m, cfg.bn_mode, cfg.bn_momentum, n_shards)
        .map_err(ClusterError::Protocol)?;
    let shards = worker_shards(cfg, m, train.len());
    let base_mode = match cfg.algorithm {
        Algorithm::LcAsgd => AlgoMode::Lc,
        Algorithm::DcAsgd => AlgoMode::Dc,
        _ => AlgoMode::Asgd,
    };
    let sup = supervisor.map(|sc| {
        let mut s = Supervisor::new(sc, base_mode, m);
        s.set_shards(shards.clone());
        s
    });
    // Wire codec: the backend's negotiated downlink precision. Weights
    // replies quantize through `ClusterResp::weights_for`; when the run
    // has no compression scheme of its own, the uplink mirrors the codec.
    let codec = backend.wire_codec();
    let compression = if cfg.compression == Compression::None {
        Compression::for_codec(codec)
    } else {
        cfg.compression
    };
    let sink = TraceSink::new(want_trace);
    let env = RunEnv::new(
        cfg,
        train,
        worker_nodes(cfg, build, shards),
        group.spec().clone(),
        backend.clock_domain(),
        compression,
        sink.clone(),
    );
    let harness = EvalHarness::new(cfg, build, train, test);
    std::thread::scope(|scope| {
        let (jobs, job_queue) = mpsc::channel();
        let (result_queue, results) = mpsc::channel();
        let evaluator = scope.spawn(move || serve_evaluations(harness, job_queue, result_queue));
        let run = || {
            let eval = Evaluator { jobs, results, pending: None };
            let mut server = Server::new(&env, eval, group, base_mode, codec, standby.is_some());
            server.sup = sup;
            server.fault_plan = fault_plan;
            server.halt_at = halt_at;
            server.kill_at = kill_at;
            server.checkpoint_path = checkpoint_path;
            if checkpoint_every != 0 {
                server.checkpoint_every = checkpoint_every;
            }
            if let Some(ck) = &resume {
                server.resume(ck)?;
            }
            if let Some(sc) = &standby {
                server.attach_standby(sc, backend.replica_duplex()?);
            }
            backend.attach_trace_hook(Arc::new(sink));
            server.start();

            let transport = backend.run(
                |w, req, ctx| server.handle(w, req, ctx),
                |w, link| worker_loop(w, link, &env),
            )?;
            Ok(server.finish(transport))
        };
        let result = run();
        // The server is gone and its job channel with it, so the evaluator
        // has returned — unless an evaluation panicked, which left a record
        // without its error rates: that fails the run.
        match evaluator.join() {
            Ok(()) => result,
            Err(_) => Err(ClusterError::Protocol("the epoch evaluator thread panicked".into())),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compensation::CompensationMode;
    use crate::config::Scale;
    use lcasgd_data::synth::blobs_split;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_nn::LrSchedule;
    use lcasgd_simcluster::{ClusterSim, ThreadCluster};

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
        let r = run_cluster(ThreadCluster::new(4), &cfg, &build, &train, &test).unwrap();
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
