//! The training engine: any of the five algorithms against a dataset, as
//! the pull / push-state / push-grad protocol over any [`ClusterBackend`]
//! (discrete-event simulator, real threads, TCP sockets). Two roles joined
//! by the backend: a parameter-server core that does no I/O (`serve`:
//! Algorithm 2) and a worker loop (`work`: Algorithm 1). The shell here
//! owns the rest: the evaluator and standby threads, the checkpoint file,
//! the run's clock and the fault list. [`run_experiment`] is
//! [`run_cluster`] on the simulator. DESIGN.md §13 describes the structure.

#[cfg(test)]
mod replay;
mod serve;
mod work;

use crate::algorithms::Algorithm;
use crate::checkpoint::TrainingCheckpoint;
use crate::comm::Compression;
use crate::config::{DataPartition, ExperimentConfig};
use crate::metrics::{EpochRecord, FaultReport, RunResult};
use crate::replication::{
    serve_standby, PushHead, ReplicationReport, ReplicationStream, StandbyConfig, StandbyReplica,
};
use crate::shard::ShardGroup;
use crate::supervisor::SupervisorConfig;
use crate::trace::{phase, ClockDomain, TraceSink};
use lcasgd_data::{BatchIter, Dataset};
use lcasgd_nn::metrics::evaluate;
use lcasgd_nn::network::BnState;
use lcasgd_nn::Network;
use lcasgd_simcluster::{
    ClusterBackend, ClusterError, ClusterSim, FaultLog, FaultPlan, FaultRecord, TransportStats,
};
use lcasgd_tensor::{Rng, Tensor};
use parking_lot::Mutex;
use serve::{Core, Seam};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;
use work::{worker_loop, worker_nodes, RunEnv};

/// A model factory: must be deterministic in the RNG it is given so every
/// algorithm starts "based on the same randomly initialized model" (§5).
pub type ModelFn<'a> = &'a dyn Fn(&mut Rng) -> Network;

/// Runs one experiment on the discrete-event simulator over
/// `cfg.cluster`, in virtual time: [`run_cluster`] on a [`ClusterSim`].
/// Sequential SGD runs on the cluster's first worker alone.
pub fn run_experiment(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
) -> RunResult {
    let mut spec = cfg.cluster.clone();
    if cfg.algorithm == Algorithm::Sgd {
        spec.workers.truncate(1);
    }
    run_cluster(ClusterSim::new(spec), cfg, build, train, test)
        .expect("a simulated run fails only on a protocol bug")
}

// ---------------------------------------------------------------- eval

/// Evaluation batch size.
const EVAL_BATCH: usize = 64;
/// Cap on train-set examples used for the per-epoch train-error curve.
const MAX_EVAL_TRAIN: usize = 512;

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

/// The evaluator thread's body: one evaluation of `net` on the first
/// training examples and the test set per snapshot the shell submits,
/// until the shell is gone.
fn serve_evaluations(
    mut net: Network,
    (train_x, train_y): (Tensor, Vec<usize>),
    test: &Dataset,
    jobs: Receiver<(Arc<Vec<f32>>, BnState)>,
    results: Sender<(f32, f32)>,
) {
    for (weights, bn) in jobs {
        net.set_flat_params(&weights);
        net.set_bn_state(&bn);
        // The core's snapshot: let go of it before the long part, so the
        // core can refill it for the next version instead of allocating.
        drop(weights);
        let (train_err, _) = evaluate(&net, &train_x, &train_y, EVAL_BATCH);
        let (test_err, _) = evaluate(&net, &test.inputs, &test.labels, EVAL_BATCH);
        if results.send((train_err, test_err)).is_err() {
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

// --------------------------------------------------------------- shell

/// The run's side of the core's [`Seam`]: the evaluator's channel pair, the
/// standby's stream and mirror, the checkpoint file, the run's clock and
/// its one fault list. Epochs are evaluated off the core's thread, by
/// [`serve_evaluations`]: a pure function of `(weights, bn)`, so a record
/// ends up bitwise what inline evaluation would have made it. At most one
/// snapshot is in flight: a second `evaluate` first waits for the first.
struct Shell<'a> {
    env: &'a RunEnv<'a>,
    jobs: Sender<(Arc<Vec<f32>>, BnState)>,
    results: Receiver<(f32, f32)>,
    /// Index of the record whose error rates are in flight.
    pending: Option<usize>,
    repl: Option<ReplicationStream>,
    /// The standby thread's mirror: what a promotion takes over.
    standby: &'a Mutex<Option<StandbyReplica>>,
    checkpoint_path: Option<PathBuf>,
    /// Every fault and recovery of the run: the fault plan's log when the
    /// run has a plan, so the backend's injections land in it too.
    faults: FaultLog,
    t0: Instant,
    /// The time the last update was stamped with.
    written_at: f64,
}

impl Seam for Shell<'_> {
    fn write(&mut self, at: Option<f64>) -> f64 {
        self.written_at = at.unwrap_or_else(|| self.t0.elapsed().as_secs_f64());
        self.written_at
    }

    fn log_push<'s>(
        &mut self,
        head: &PushHead,
        slices: &mut dyn ExactSizeIterator<Item = (&'s [f32], &'s [f32])>,
        side_effects: Option<(u64, &BnState)>,
    ) {
        self.repl.iter_mut().for_each(|rs| rs.log_push(head, &mut *slices, side_effects));
    }

    fn refresh(&mut self, part: &TrainingCheckpoint) {
        self.repl.iter_mut().for_each(|rs| rs.refresh(part));
    }

    fn snapshot(&mut self, state: TrainingCheckpoint) {
        self.repl.iter_mut().for_each(|rs| rs.snapshot(&state));
    }

    fn promote(&mut self, applied: u64) -> Option<TrainingCheckpoint> {
        let rs = self.repl.as_mut().expect("primary kill requires a standby");
        // The batch in flight lands first, so the kill loses exactly the
        // unflushed records.
        rs.settle();
        let mirror = self.standby.lock().take()?.into_state();
        rs.promoted(applied - mirror.applied);
        Some(mirror)
    }

    fn standby_lost(&mut self, at_update: u64) -> Option<String> {
        self.repl.as_mut()?.take_degradation(at_update)
    }

    fn hang_up(&mut self) -> Option<ReplicationReport> {
        // Dropping the stream hangs up the duplex; the standby thread's
        // recv fails and it exits cleanly.
        self.repl.take().map(|rs| rs.report)
    }

    fn evaluate(&mut self, records: &mut [EpochRecord], weights: Arc<Vec<f32>>, bn: BnState) {
        self.collect(records);
        // A send can only fail once the evaluator has panicked, which
        // `run_cluster_with` turns into the run's error when it joins it.
        if self.jobs.send((weights, bn)).is_ok() {
            self.pending = Some(records.len() - 1);
        }
    }

    fn collect(&mut self, records: &mut [EpochRecord]) {
        let Some(at) = self.pending.take() else { return };
        // As for `evaluate`: a dead evaluator hangs up instead of answering.
        if let Ok((train_error, test_error)) = self.results.recv() {
            records[at].train_error = train_error;
            records[at].test_error = test_error;
        }
    }

    /// A failed write must not kill training: it goes to the fault list
    /// and the trace, and the server keeps serving gradients.
    fn save(&mut self, mut state: TrainingCheckpoint) {
        let Some(path) = &self.checkpoint_path else { return };
        state.worker_batches = self.env.batch_pos.lock().clone();
        let sink = &self.env.sink;
        let t_ck = Instant::now();
        match state.save(path) {
            Ok(()) => {
                sink.wall_span_at(None, phase::CHECKPOINT, t_ck, t_ck.elapsed().as_secs_f64())
            }
            Err(e) => {
                eprintln!("warning: checkpoint write to {} failed: {e}", path.display());
                let at_update = state.applied;
                let rec = FaultRecord::CheckpointFailed { at_update, error: e.to_string() };
                sink.wall_instant(None, phase::CHECKPOINT, Instant::now(), rec.to_string());
                self.faults.push(rec);
            }
        }
    }

    fn fault(&mut self, rec: FaultRecord) {
        self.faults.push(rec);
    }
}

impl Shell<'_> {
    /// Tear-down's second half, after the core's: the fault list replayed
    /// onto the trace and reported (a `planned` run reports it even when
    /// nothing fired), and the run's clocks read.
    fn finish(self, result: RunResult, transport: TransportStats, planned: bool) -> RunResult {
        let sink = &self.env.sink;
        // Every fault and recovery goes on the trace timeline as an instant
        // event, at the wall instant it was filed. Checkpoint failures
        // already produced a `checkpoint` instant inline.
        for (rec, at) in self.faults.timed_records() {
            let worker = match &rec {
                FaultRecord::Injected { worker, .. }
                | FaultRecord::WorkerRestarted { worker, .. } => Some(*worker),
                FaultRecord::CheckpointFailed { .. } => continue,
                _ => None,
            };
            sink.wall_instant(worker, phase::FAULT_INJECT, at, rec.to_string());
        }
        let records = self.faults.records();
        let faults = (planned || !records.is_empty()).then(|| FaultReport::new(records));
        let wall_time = self.t0.elapsed().as_secs_f64();
        RunResult {
            // On the simulator the run ends with its last update: the
            // messages that drain it afterwards cost no training time.
            total_time: match self.env.clock {
                ClockDomain::Virtual => self.written_at,
                ClockDomain::Wall => wall_time,
            },
            wall_time,
            clock: self.env.clock,
            transport: Some(transport),
            faults,
            timeline: sink.enabled().then(|| sink.finish()),
            ..result
        }
    }
}

/// Where the core's seam calls pass on their way to the shell: straight
/// through in a run, through a recorder in the replay test.
trait Tap {
    fn with<R>(&mut self, shell: &mut dyn Seam, f: impl FnOnce(&mut dyn Seam) -> R) -> R;
}

impl Tap for () {
    fn with<R>(&mut self, shell: &mut dyn Seam, f: impl FnOnce(&mut dyn Seam) -> R) -> R {
        f(shell)
    }
}

// ------------------------------------------------------ backend-driven

/// Runs `cfg.algorithm` over any [`ClusterBackend`] — the discrete-event
/// simulator, real threads, or TCP sockets — through the shared
/// pull / push-state / push-grad protocol ([`crate::protocol`]).
///
/// Epoch timestamps, `total_time` and the step predictor's `t_comm` /
/// `t_comp` features are in the backend's clock: virtual seconds of the
/// cost model on the simulator, measured wall-clock seconds on the real
/// backends. The returned [`RunResult::transport`] carries the backend's
/// byte/latency accounting.
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
    backend: B,
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
    opts: RunOptions,
) -> Result<RunResult, ClusterError> {
    run_tapped(backend, cfg, build, train, test, opts, &mut ())
}

/// [`run_cluster_with`], with the core's seam calls passing through `tap`.
fn run_tapped<B: ClusterBackend>(
    mut backend: B,
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    train: &Dataset,
    test: &Dataset,
    opts: RunOptions,
    tap: &mut impl Tap,
) -> Result<RunResult, ClusterError> {
    let m = backend.workers();
    let n_shards = opts.shards.max(1);

    // ---- option validation --------------------------------------------
    // SSGD's barrier cannot survive a worker crash (the round would never
    // fill), replies with fresh weights from inside the Grad handler (so
    // fencing or sharding its blocking push would deadlock the round), and
    // has no admission point: the robustness options target the
    // asynchronous protocols.
    let robust = opts.supervisor.is_some() || opts.fault_plan.is_some() || opts.standby.is_some();
    if cfg.algorithm == Algorithm::Ssgd && (robust || n_shards > 1) {
        return Err(ClusterError::Protocol(
            "SSGD's barrier takes no shards, supervisor, fault plan or standby".into(),
        ));
    }

    // ---- set-up ---------------------------------------------------------
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let canonical = build(&mut rng);
    let group = ShardGroup::new(&canonical, m, cfg.bn_mode, cfg.bn_momentum, n_shards)
        .map_err(ClusterError::Protocol)?;
    // Wire codec: the backend's negotiated precision. Weights replies
    // quantize through `ClusterResp::weights_for`; the uplink mirrors it.
    let codec = backend.wire_codec();
    let sink = TraceSink::new(opts.trace);
    let env = RunEnv::new(
        cfg,
        train,
        worker_nodes(cfg, build, worker_shards(cfg, m, train.len())),
        group.spec().clone(),
        backend.clock_domain(),
        Compression::for_codec(codec),
        sink.clone(),
    );
    // The evaluator's replica shares the architecture; its weights are
    // overwritten before every evaluation.
    let eval_net = build(&mut Rng::seed_from_u64(cfg.seed));
    let eval_train = train.batch(&(0..train.len().min(MAX_EVAL_TRAIN)).collect::<Vec<_>>());
    let duplex = opts.standby.as_ref().map(|_| backend.replica_duplex()).transpose()?;
    let mirror = &Mutex::new(None);
    thread::scope(|scope| {
        let (jobs, job_queue) = mpsc::channel();
        let (result_queue, results) = mpsc::channel();
        let evaluator = thread::Builder::new()
            .name("eval".into())
            .spawn_scoped(scope, move || {
                serve_evaluations(eval_net, eval_train, test, job_queue, result_queue)
            })
            .expect("spawn the evaluator thread");
        let upe = updates_per_epoch(cfg, train) as u64;
        let repl = opts.standby.as_ref().zip(duplex).map(|(sc, (primary_end, standby_end))| {
            thread::Builder::new()
                .name("standby".into())
                .spawn_scoped(scope, move || serve_standby(standby_end, mirror, upe))
                .expect("spawn the standby thread");
            ReplicationStream::new(primary_end, sc)
        });
        let shell = Shell {
            env: &env,
            jobs,
            results,
            pending: None,
            repl,
            standby: mirror,
            checkpoint_path: opts.checkpoint_path.clone(),
            faults: opts.fault_plan.as_ref().map_or_else(FaultLog::default, FaultPlan::log),
            t0: Instant::now(),
            written_at: 0.0,
        };
        let run = |mut shell: Shell| {
            let mut core =
                tap.with(&mut shell, |seam| Core::new(&env, group, codec, &opts, seam))?;
            if let Some(ck) = &opts.resume {
                env.replay_batches(&ck.worker_batches);
                shell.fault(FaultRecord::Resumed { at_update: ck.applied });
            }
            backend.attach_trace_hook(Arc::new(sink));
            // The run's clock starts when set-up is over.
            shell.t0 = Instant::now();
            env.sink.start_clock(shell.t0);
            let transport = backend.run(
                |w, req, ctx| tap.with(&mut shell, |seam| core.handle(w, req, ctx, seam)),
                |w, link| worker_loop(w, link, &env),
            )?;
            // Before any clock is read: the run is over when its last
            // replication batch is acknowledged (or found lost), and its
            // last epoch evaluated.
            shell.repl.iter_mut().for_each(ReplicationStream::settle);
            let result = tap.with(&mut shell, |seam| core.finish(seam));
            Ok(shell.finish(result, transport, opts.fault_plan.is_some()))
        };
        let result = run(shell);
        // The shell is gone and its job channel and replica duplex with it,
        // so the evaluator and the standby have returned — unless an
        // evaluation panicked, which left a record without its error rates:
        // that fails the run.
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

    /// A backend whose standby hangs up after it has received `frames`
    /// replication frames.
    struct HangsUp<B>(B, usize);

    struct Hanging(Box<dyn lcasgd_simcluster::ReplicaDuplex>, usize);

    impl lcasgd_simcluster::ReplicaDuplex for Hanging {
        fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
            self.0.send(payload)
        }

        fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
            self.1 = self.1.checked_sub(1).ok_or(ClusterError::Disconnected)?;
            self.0.recv()
        }
    }

    impl<B: ClusterBackend> ClusterBackend for HangsUp<B> {
        fn workers(&self) -> usize {
            self.0.workers()
        }

        fn clock_domain(&self) -> ClockDomain {
            self.0.clock_domain()
        }

        fn replica_duplex(&mut self) -> Result<lcasgd_simcluster::ReplicaDuplexPair, ClusterError> {
            let (primary, standby) = self.0.replica_duplex()?;
            Ok((primary, Box::new(Hanging(standby, self.1))))
        }

        fn run<Req, Resp, S, W>(self, server: S, worker: W) -> Result<TransportStats, ClusterError>
        where
            Req: lcasgd_simcluster::WireMsg + Send + 'static,
            Resp: lcasgd_simcluster::WireMsg + Send + 'static,
            S: FnMut(usize, Req, &mut lcasgd_simcluster::ServerCtx<Resp>),
            W: Fn(usize, &mut dyn lcasgd_simcluster::WorkerLink<Req, Resp>) + Send + Sync,
        {
            self.0.run(server, worker)
        }
    }

    /// Runs `cfg` on `backend` with a standby that hangs up after its fifth
    /// frame: every planned update still applies, and the loss is reported
    /// once.
    fn loses_its_standby(backend: impl ClusterBackend, cfg: &ExperimentConfig) {
        let (train, test) = data();
        let backend = HangsUp(backend, 5);
        let standby = StandbyConfig { flush_every: 2 };
        let opts = RunOptions { standby: Some(standby), ..RunOptions::default() };
        let r = run_cluster_with(backend, cfg, &build_mlp, &train, &test, opts).unwrap();
        let planned = cfg.epochs * updates_per_epoch(cfg, &train);
        assert_eq!(r.iterations as usize, planned, "every planned update applies");
        assert!(r.replication.expect("standby attached").degraded_at.is_some());
        let faults = r.faults.expect("a lost standby is a fault to report").records;
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert!(matches!(faults[0], FaultRecord::StandbyLost { .. }), "{faults:?}");
    }

    #[test]
    fn a_lost_standby_is_reported_without_a_fault_plan() {
        let cfg = blob_cfg(Algorithm::Asgd, 4);
        loses_its_standby(ClusterSim::new(cfg.cluster.clone()), &cfg);
    }

    #[test]
    fn a_lost_standby_is_reported_on_threads_too() {
        let cfg = blob_cfg(Algorithm::Asgd, 4);
        loses_its_standby(ThreadCluster::new(4), &cfg);
    }

    #[test]
    fn ssgd_with_robustness_options_is_an_error_not_a_panic() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::Ssgd, 2);
        let opts = RunOptions { shards: 2, ..RunOptions::default() };
        let err = run_cluster_with(ThreadCluster::new(2), &cfg, &build_mlp, &train, &test, opts)
            .expect_err("SSGD with shards must be an error");
        let msg = format!("{err:?}");
        assert!(msg.contains("SSGD's barrier takes no shards"), "{msg}");
    }

    #[test]
    fn a_primary_kill_without_a_standby_is_an_error_not_a_panic() {
        let (train, test) = data();
        let cfg = blob_cfg(Algorithm::Asgd, 2);
        let plan = FaultPlan::new().with_primary_kill(3);
        let opts = RunOptions { fault_plan: Some(plan), ..RunOptions::default() };
        let err = run_cluster_with(ThreadCluster::new(2), &cfg, &build_mlp, &train, &test, opts)
            .expect_err("a primary kill without a standby must be an error");
        let msg = format!("{err:?}");
        assert!(msg.contains("requires a standby"), "{msg}");
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
    fn checkpoint_shard_version_mismatch_is_a_descriptive_error() {
        // Every push moves every shard, so the server keeps one version; a
        // checkpoint whose shard versions disagree with it is corrupt.
        let (train, test) = data();
        let build = |rng: &mut Rng| mlp(&[6, 16, 4], false, rng);
        let mut cfg = blob_cfg(Algorithm::Asgd, 2);
        cfg.epochs = 2;
        let dir = std::env::temp_dir().join("lcasgd-shard-version-mismatch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s2.ck");
        let opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 5,
            shards: 2,
            ..RunOptions::default()
        };
        run_cluster_with(ThreadCluster::new(2), &cfg, &build, &train, &test, opts).unwrap();
        let mut ck = TrainingCheckpoint::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(ck.shard_versions, vec![ck.version; 2]);
        ck.shard_versions[1] += 1;
        let (v, bad) = (ck.version, ck.shard_versions[1]);
        let opts = RunOptions { resume: Some(ck), shards: 2, ..RunOptions::default() };
        let err = run_cluster_with(ThreadCluster::new(2), &cfg, &build, &train, &test, opts)
            .expect_err("disagreeing shard versions must be an error, not a panic");
        let msg = format!("{err:?}");
        assert!(msg.contains("cannot resume"), "descriptive error, got: {msg}");
        assert!(msg.contains(&format!("shard version {bad} but server version {v}")), "{msg}");
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
            // SSGD's learning rate is scaled by M: a quarter of 0.1 keeps
            // it at the plain rate.
            let scale = if algo == Algorithm::Ssgd { 4.0 } else { 1.0 };
            cfg.lr = LrSchedule::constant(0.1 / scale);
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
