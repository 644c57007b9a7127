//! The parameter-server core of the cluster engine: Algorithm 2 as a state
//! machine with one handler per [`ClusterReq`] ([`Core::handle`]) and a
//! fixed sequence of named steps after every applied push
//! ([`Core::on_push`]). The core does no I/O: every side effect leaves it
//! through the [`Seam`] handed to it with each message, at the point in the
//! message where it happens. DESIGN.md §13 maps handlers to the paper's
//! lines and says why the steps run in the order they do.

use super::{km_steps, open_record, updates_per_epoch, worker_shards, RunEnv, RunOptions};
use crate::algorithms::Algorithm;
use crate::checkpoint::TrainingCheckpoint;
use crate::comm::CompressedGrad;
use crate::metrics::{EpochRecord, OverheadStats, PredictorTrace, RunResult};
use crate::predictor::{
    LossPrediction, LossPredictor, LossPredictorSnapshot, StepPredictor, StepPredictorSnapshot,
};
use crate::protocol::{ClusterReq, ClusterResp, PullDirective};
use crate::replication::{EpochFence, PushHead, PushVerdict, ReplicationReport};
use crate::shard::{PendingPush, PushAssembly, PushSlice, ShardGroup, ShardSpec};
use crate::supervisor::{AlgoMode, Supervisor};
use crate::trace::{phase, TraceSink};
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::{ClusterError, FaultRecord, ServerCtx, WireCodec};
use lcasgd_tensor::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Everything the core asks of the world outside Algorithm 2. The shell in
/// [`run_cluster_with`](super::run_cluster_with) implements it over the
/// evaluator and standby threads, the checkpoint file, the run's clock and
/// its fault list; a recording fake implements it in the replay test.
pub(super) trait Seam {
    /// An admitted update is about to be applied. Returns the time on the
    /// run's clock it is stamped with; `at` is the message's pickup time on
    /// the simulator.
    fn write(&mut self, at: Option<f64>) -> f64;
    /// Ships one applied push to the standby: a log record per shard of
    /// its `(after, before)` weights, the last carrying `side_effects`.
    fn log_push<'s>(
        &mut self,
        head: &PushHead,
        slices: &mut dyn ExactSizeIterator<Item = (&'s [f32], &'s [f32])>,
        side_effects: Option<(u64, &BnState)>,
    );
    /// The standby's epoch refresh: the state-path fields of `part`.
    fn refresh(&mut self, part: &TrainingCheckpoint);
    /// Bootstraps or re-arms the standby from the full state.
    fn snapshot(&mut self, state: TrainingCheckpoint);
    /// Settles the killed primary's batch in flight and hands over the
    /// standby's mirror, if there still is a standby: the updates of
    /// `applied` it lacks are accounted lost.
    fn promote(&mut self, applied: u64) -> Option<TrainingCheckpoint>;
    /// Why the standby was lost, asked once after the stream lost it.
    fn standby_lost(&mut self, at_update: u64) -> Option<String>;
    /// Hangs up on the standby: what replication did, if one was attached.
    fn hang_up(&mut self) -> Option<ReplicationReport>;
    /// Queues the evaluation of the newest record in `records` at `weights`.
    fn evaluate(&mut self, records: &mut [EpochRecord], weights: Arc<Vec<f32>>, bn: BnState);
    /// Completes the record whose evaluation is in flight, if any.
    fn collect(&mut self, records: &mut [EpochRecord]);
    /// Writes the run's checkpoint.
    fn save(&mut self, state: TrainingCheckpoint);
    /// Files a fault or recovery record.
    fn fault(&mut self, rec: FaultRecord);
}

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

/// LC-ASGD's forward state (Algorithm 1 line 8), as it comes off the wire.
struct StateMsg {
    loss: f32,
    running: BnState,
    batch_stats: Vec<BnBatchStats>,
    t_comm: f32,
    t_comp: f32,
}

/// The two online-trained predictors (Algorithms 3–4) and the per-worker
/// bookkeeping the server keeps for them.
struct Predictors {
    /// Only an LC-ASGD run snapshots, resets or reports predictor state.
    is_lc: bool,
    /// Keep the Figure 7–8 traces.
    record: bool,
    loss: LossPredictor,
    step: StepPredictor,
    /// Each worker's previous `k_m` forecast, scored against its next
    /// actual step count (Figure 8).
    prev_step: Vec<Option<f32>>,
    trace: PredictorTrace,
}

impl Predictors {
    fn new(is_lc: bool, record: bool, workers: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9_11D);
        let loss = LossPredictor::new(&mut rng);
        let step = StepPredictor::new(workers, &mut rng);
        Predictors {
            is_lc,
            record,
            loss,
            step,
            prev_step: vec![None; workers],
            trace: PredictorTrace::default(),
        }
    }

    /// Algorithm 2 lines 2–7 on real measured timings. Returns the reply,
    /// and the one-step forecast that was pending for this arrival's loss.
    fn observe(
        &mut self,
        w: usize,
        actual_step: f32,
        msg: &StateMsg,
        sink: &TraceSink,
    ) -> (ClusterResp, Option<f32>) {
        let t_sp = Instant::now();
        let km = self.step.observe_and_predict(w, actual_step, msg.t_comm, msg.t_comp);
        sink.wall_span_at(Some(w), phase::PREDICTOR_STEP, t_sp, t_sp.elapsed().as_secs_f64());
        let km_int = km_steps(km);
        let expected_loss = self.loss.pending_forecast();
        let t_lp = Instant::now();
        let lp = self.loss.observe_and_predict(msg.loss, km_int);
        sink.wall_span_at(Some(w), phase::PREDICTOR_LOSS, t_lp, t_lp.elapsed().as_secs_f64());
        if self.record {
            self.trace.finish_order.push(w);
            self.trace.actual_loss.push(msg.loss);
            self.trace.predicted_loss.push(expected_loss.unwrap_or(msg.loss));
            if let Some(prev) = self.prev_step[w] {
                self.trace.actual_step.push(actual_step);
                self.trace.predicted_step.push(prev);
            }
        }
        self.prev_step[w] = Some(km);
        let LossPrediction { l_delay, one_step } = lp;
        (ClusterResp::Compensation { l_delay, one_step, km: km_int as u32 }, expected_loss)
    }

    fn snapshot(&self) -> (Option<LossPredictorSnapshot>, Option<StepPredictorSnapshot>) {
        (self.is_lc.then(|| self.loss.snapshot()), self.is_lc.then(|| self.step.snapshot()))
    }

    fn restore(&mut self, ck: &TrainingCheckpoint) {
        if let Some(lp) = &ck.loss_pred {
            self.loss.restore(lp);
        }
        if let Some(sp) = &ck.step_pred {
            self.step.restore(sp);
        }
    }

    /// A restarted worker's series described the dead incarnation.
    fn reset_worker(&mut self, w: usize) {
        if self.is_lc {
            self.step.reset_worker(w);
        }
        self.prev_step[w] = None;
    }
}

/// DC-ASGD's `w_bak` (Formula 3): the weights each worker last pulled
/// while on the DC rung, snapshotted slice by slice as its pulls are served.
struct DcBackups {
    bufs: Vec<Vec<f32>>,
    /// Whether the worker's current iteration is refreshing its backup:
    /// decided at its shard-0 pull, obeyed by its other pulls.
    live: Vec<bool>,
}

impl DcBackups {
    fn new(workers: usize) -> Self {
        DcBackups { bufs: vec![Vec::new(); workers], live: vec![false; workers] }
    }

    /// The shard-0 pull of an iteration: copies shard 0's range of the
    /// flat `weights` if the worker is on the DC rung.
    fn begin(&mut self, w: usize, on_dc_rung: bool, spec: &ShardSpec, weights: &[f32]) {
        if on_dc_rung && self.bufs[w].len() != spec.len() {
            self.bufs[w] = vec![0.0; spec.len()];
        }
        self.live[w] = on_dc_rung;
        self.follow(w, spec, 0, weights);
    }

    /// Copies shard `sh`'s range of the flat `weights` into a live backup.
    fn follow(&mut self, w: usize, spec: &ShardSpec, sh: usize, weights: &[f32]) {
        if self.live[w] {
            let r = spec.range(sh);
            self.bufs[w][r.clone()].copy_from_slice(&weights[r]);
        }
    }

    /// The backup to compensate a `len`-long gradient against. A rejoined
    /// worker's was cleared at Join; until its next pull re-snapshots,
    /// the caller falls back to the plain update (zero assumed drift).
    fn whole(&self, w: usize, len: usize) -> Option<&[f32]> {
        (self.bufs[w].len() == len).then_some(self.bufs[w].as_slice())
    }

    fn forget(&mut self, w: usize) {
        self.bufs[w] = Vec::new();
        self.live[w] = false;
    }

    /// Failover: every backup references a pull from the dead primary.
    fn clear(&mut self) {
        self.bufs.iter_mut().for_each(Vec::clear);
        self.live.fill(false);
    }
}

/// One worker's contribution to an SSGD round, parked at the barrier.
struct ParkedGrad {
    worker: usize,
    grads: Vec<f32>,
    /// Whether `grads` is a vector the transport decoded (a dense push),
    /// which goes back to it after the round, or one unpacked here.
    decoded: bool,
    running: BnState,
    batch_stats: Vec<BnBatchStats>,
}

/// The parameter server of one run: Algorithm 2's state and nothing else.
/// [`run_cluster_with`] builds it with [`Core::new`], and the backend then
/// drives it one message at a time through `handle`.
///
/// [`run_cluster_with`]: super::run_cluster_with
pub(super) struct Core<'a> {
    env: &'a RunEnv<'a>,
    codec: WireCodec,
    is_ssgd: bool,

    // ---- Algorithm 2 ---------------------------------------------------
    /// The server's one state — weights, version, arrival log, BN — split
    /// into shard ranges on the wire only. Workers fan pulls/pushes out
    /// over their single ordered link, so the sharding is coordinator-free
    /// and `n = 1` reproduces the unsharded message sequence exactly
    /// (DESIGN.md §11).
    group: ShardGroup,
    predictors: Predictors,
    backups: DcBackups,
    pushes: PushAssembly,
    /// The ladder rung each worker was told to run at its last pull — what
    /// decides how its *next* gradient is applied (a mid-iteration mode
    /// change must not reinterpret an in-flight push).
    pulled_mode: Vec<AlgoMode>,
    /// SSGD barrier: gradients parked until the round is full.
    round: Vec<ParkedGrad>,

    // ---- progress ------------------------------------------------------
    // Async algorithms count gradient applications; SSGD counts rounds.
    updates_per_epoch: usize,
    target: usize,
    rounds_per_epoch: usize,
    rounds_target: usize,
    applied: usize,
    rounds_done: usize,
    records: Vec<EpochRecord>,
    losses: Vec<f32>,
    staleness: Vec<u32>,

    // ---- robustness ----------------------------------------------------
    /// The health state machine runs entirely inside the handlers — the
    /// one serialized point every backend shares — and decides from
    /// message contents and counters only, so its transition sequence is
    /// bit-reproducible on the discrete-event simulator.
    sup: Option<Supervisor>,
    /// Last-good state for divergence rollback: its weights, BN and
    /// predictors are what a rollback restores.
    last_good: Option<TrainingCheckpoint>,
    fence: EpochFence,
    /// Whether a standby mirrors this server: every apply is logged.
    replicated: bool,
    /// Whether the state path (a `State` message, a `Join`) has changed
    /// what the log does not carry — arrival state, `iter`, BN, predictors
    /// — since the standby was last made current. Read by the mirror check
    /// at a kill.
    state_path_unlogged: bool,
    /// A planned server restart: checkpoint and halt once this many
    /// updates have applied.
    halt_at: Option<u64>,
    halted: bool,
    /// A planned primary kill: at this applied-update count the primary's
    /// unreplicated tail is discarded and the standby promotes with a
    /// bumped fencing epoch.
    kill_at: Option<u64>,
    /// Checkpoint cadence in applied updates, when the run writes them.
    checkpoint_every: Option<usize>,
}

impl<'a> Core<'a> {
    /// The server of a run under `opts`: resumed from its checkpoint, if
    /// any, and its standby, if any, bootstrapped from the result.
    pub(super) fn new(
        env: &'a RunEnv<'a>,
        group: ShardGroup,
        codec: WireCodec,
        opts: &RunOptions,
        seam: &mut dyn Seam,
    ) -> Result<Self, ClusterError> {
        let cfg = env.cfg;
        let m = env.workers;
        let base_mode = match cfg.algorithm {
            Algorithm::LcAsgd => AlgoMode::Lc,
            Algorithm::DcAsgd => AlgoMode::Dc,
            _ => AlgoMode::Asgd,
        };
        let sup = opts.supervisor.clone().map(|sc| {
            let mut s = Supervisor::new(sc, base_mode, m);
            s.set_shards(worker_shards(cfg, m, env.train.len()));
            s
        });
        let updates_per_epoch = updates_per_epoch(cfg, env.train);
        let rounds_per_epoch = env.train.len().div_ceil(m * cfg.batch_size).max(1);
        let target = cfg.epochs * updates_per_epoch;
        // A planned server restart or primary kill is ignored when the
        // resume point is already past it (it already happened) or when it
        // lies beyond the run's natural end.
        let resumed_at = opts.resume.as_ref().map_or(0, |ck| ck.applied);
        let pending = |at: Option<u64>| at.filter(|&a| a > resumed_at && a < target as u64);
        let plan = opts.fault_plan.as_ref();
        let kill_at = pending(plan.and_then(|p| p.primary_kill_at_update));
        if kill_at.is_some() && opts.standby.is_none() {
            return Err(ClusterError::Protocol(
                "a primary-kill fault plan requires a standby (RunOptions::standby)".into(),
            ));
        }
        let mut core = Core {
            env,
            codec,
            is_ssgd: cfg.algorithm == Algorithm::Ssgd,
            predictors: Predictors::new(base_mode == AlgoMode::Lc, cfg.record_traces, m, cfg.seed),
            backups: DcBackups::new(m),
            pushes: PushAssembly::new(group.spec().clone(), m),
            pulled_mode: vec![base_mode; m],
            round: Vec::with_capacity(m),
            group,
            updates_per_epoch,
            target,
            rounds_per_epoch,
            rounds_target: cfg.epochs * rounds_per_epoch,
            applied: 0,
            rounds_done: 0,
            records: Vec::with_capacity(cfg.epochs),
            losses: Vec::new(),
            staleness: Vec::new(),
            sup,
            last_good: None,
            fence: EpochFence::new(m, opts.standby.is_some()),
            replicated: opts.standby.is_some(),
            state_path_unlogged: false,
            halt_at: pending(plan.and_then(|p| p.server_restart_at_update)),
            halted: false,
            kill_at,
            checkpoint_every: opts.checkpoint_path.as_ref().map(|_| match opts.checkpoint_every {
                0 => updates_per_epoch,
                every => every,
            }),
        };
        // A mismatched checkpoint (wrong worker count, model or shard
        // layout) is a descriptive error, not a panic.
        if let Some(ck) = &opts.resume {
            core.adopt(ck, seam).map_err(|e| {
                ClusterError::Protocol(format!("cannot resume from checkpoint: {e}"))
            })?;
        }
        // The standby may be lost before the run even starts: record it and
        // run unreplicated rather than aborting.
        core.snapshot_standby(seam);
        core.report_degradation(seam);
        Ok(core)
    }

    /// Takes a checkpoint's server state over: the resume of a restarted
    /// server and the promotion of a standby's mirror. Validates before it
    /// mutates: a mismatched worker count, weight length, shard-version
    /// count or shard version is a descriptive error, never a panic.
    fn adopt(&mut self, ck: &TrainingCheckpoint, seam: &mut dyn Seam) -> Result<(), String> {
        let group = &mut self.group;
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
        // Every push moves every shard, so a checkpoint's shard versions
        // all equal its version; an empty list (one shard) resumes under
        // any shard layout.
        if let Some(v) = ck.shard_versions.iter().find(|&&v| v != ck.version) {
            return Err(format!(
                "checkpoint records shard version {v} but server version {}; \
                 the shards of one server share one version",
                ck.version
            ));
        }
        group.restore_arrival_state(&ck.arrival)?;
        group.restore_log(ck.version, ck.iter.clone());
        group.load_weights(&ck.weights);
        group.set_bn(ck.bn.clone());
        self.applied = ck.applied as usize;
        self.staleness = ck.staleness.clone();
        self.losses = ck.epoch_losses.clone();
        // The records this server already closed for the adopted epochs
        // stay (a standby's are never newer); the checkpoint supplies the
        // rest. Records of discarded updates are made again when their
        // boundary is crossed again.
        seam.collect(&mut self.records);
        let kept = self.records.len().min(self.applied / self.updates_per_epoch);
        self.records.truncate(kept);
        self.records.extend(ck.epochs.iter().skip(kept).cloned());
        self.predictors.restore(ck);
        // DC backups and half-assembled pushes reference pulls from the
        // server whose state this replaces.
        self.backups.clear();
        self.pushes.abandon_all();
        self.fence.restore(ck.server_epoch, ck.push_seqs.clone());
        Ok(())
    }

    /// Algorithm 2's event loop body: one message, one handler.
    pub(super) fn handle(
        &mut self,
        w: usize,
        req: ClusterReq,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn Seam,
    ) {
        match req {
            ClusterReq::Join { .. } => self.on_join(w),
            // `Replicate` frames travel the dedicated replica duplex, not
            // the worker links; one arriving here is a protocol violation
            // and is ignored.
            ClusterReq::Replicate(_) => {}
            ClusterReq::Pull { epoch, shard } => self.on_pull(w, epoch, shard as usize, ctx),
            ClusterReq::State { loss, running, batch_stats, t_comm, t_comp, epoch } => self
                .on_state(w, epoch, StateMsg { loss, running, batch_stats, t_comm, t_comp }, ctx),
            ClusterReq::Grad {
                grads,
                pull_version,
                loss,
                batch_stats,
                running,
                epoch,
                push_seq,
                shard,
            } => {
                let shard = shard as usize;
                let slice =
                    PushSlice { push_seq, pull_version, loss, shard, grads, batch_stats, running };
                self.on_grad(w, epoch, slice, ctx, seam)
            }
        }
    }

    /// A restarted worker announcing itself. Algorithm 2's per-worker
    /// bookkeeping restarts: the arrival history, the step-predictor
    /// series, the backup and any half-assembled push described the dead
    /// incarnation, not this one.
    fn on_join(&mut self, w: usize) {
        self.group.reset_arrival(w);
        self.predictors.reset_worker(w);
        self.backups.forget(w);
        self.pushes.abandon(w);
        self.state_path_unlogged = true;
    }

    /// A pull of one shard's weights (Algorithm 1 line 1, Algorithm 2
    /// line 11).
    fn on_pull(&mut self, w: usize, epoch: u64, sh: usize, ctx: &mut ServerCtx<ClusterResp>) {
        if !self.fence.admit_read(epoch) || sh >= self.group.count() {
            // Addressed to a fenced (dead) primary — or to a shard outside
            // the group (a misconfigured peer): tell the worker the
            // current epoch so its retry carries it.
            ctx.reply(ClusterResp::Fenced { epoch: self.fence.epoch() });
        } else if !self.is_ssgd && (self.applied >= self.target || self.halted) {
            ctx.reply(ClusterResp::Stop);
        } else if sh == 0 {
            // The *lead* pull of an iteration. The directive pins the rung
            // (and any reassigned data shard) for the iteration this pull
            // starts; the push coming back is interpreted under the same
            // rung even if the worker is demoted meanwhile.
            let directive = self.sup.as_mut().map(|s| {
                let mode = s.mode(w);
                self.pulled_mode[w] = mode;
                PullDirective {
                    mode,
                    shard: s
                        .take_pending_shard(w)
                        .map(|v| v.into_iter().map(|i| i as u64).collect()),
                }
            });
            let on_dc_rung = self.pulled_mode[w] == AlgoMode::Dc;
            self.backups.begin(w, on_dc_rung, self.group.spec(), self.group.weights());
            self.reply_weights(w, 0, directive, ctx);
        } else {
            // Follower-shard pull: the lead pull already answered the
            // stop/directive questions for this iteration.
            self.backups.follow(w, self.group.spec(), sh, self.group.weights());
            self.reply_weights(w, sh, None, ctx);
        }
    }

    /// Replies to `to` with shard `sh`'s weights: the group's one snapshot
    /// of them at this version, shared by every reply that carries it.
    /// Directive-free replies also carry a coalescing key: at one (shard,
    /// epoch, version) they are byte-identical, so the reactor encodes one
    /// for all of them.
    fn reply_weights(
        &mut self,
        to: usize,
        sh: usize,
        directive: Option<PullDirective>,
        ctx: &mut ServerCtx<ClusterResp>,
    ) {
        let version = self.group.version();
        let epoch = self.fence.epoch();
        let key = directive.is_none().then(|| coalesce_key(sh as u32, epoch, version));
        let weights = self.group.snapshot(sh);
        let resp = ClusterResp::weights_for(self.codec, weights, version, directive, epoch);
        match key {
            Some(key) => ctx.reply_to_keyed(to, resp, key),
            None => ctx.reply_to(to, resp),
        }
    }

    /// Algorithm 2 lines 2–7: log the arrival, run both predictors, absorb
    /// the BN statistics, reply with `ℓ_delay`.
    fn on_state(&mut self, w: usize, epoch: u64, msg: StateMsg, ctx: &mut ServerCtx<ClusterResp>) {
        if !self.fence.admit_read(epoch) {
            // LC forward state addressed to a fenced primary: the worker
            // must abandon the exchange and re-pull from the promoted
            // server.
            ctx.reply(ClusterResp::Fenced { epoch: self.fence.epoch() });
            return;
        }
        self.state_path_unlogged = true;
        let actual_step = self.group.log_arrival(w) as f32;
        let (reply, expected_loss) = self.predictors.observe(w, actual_step, &msg, &self.env.sink);
        // The predictors' time in the cost model: nominal, so the virtual
        // clock replays bit for bit (their measured time is `OverheadStats`).
        let cost = self.env.cfg.cost;
        ctx.charge(cost.step_pred);
        ctx.charge(cost.loss_pred);
        self.group.absorb_bn(&msg.running, &msg.batch_stats);
        if let Some(s) = self.sup.as_mut() {
            // Predictor-health watchdog: a wildly wrong one-step forecast
            // is a demerit against this worker's LC rung.
            s.observe_prediction(w, self.applied as u64, expected_loss, msg.loss);
        }
        self.trace_health_events();
        ctx.reply(reply);
    }

    /// One slice of a gradient push (Algorithm 1 line 12): fence it, then
    /// either park it on the SSGD barrier or buffer it until the push is
    /// whole and apply that.
    fn on_grad(
        &mut self,
        w: usize,
        epoch: u64,
        slice: PushSlice,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn Seam,
    ) {
        match self.fence.check_push(w, epoch, slice.push_seq) {
            PushVerdict::Admit => {}
            // Addressed to a dead epoch, or a delayed duplicate of a push
            // already applied: dropped on the floor, along with any
            // half-assembled slices of it. Gradient pushes are oneway
            // sends in the async protocols, so no reply is owed. (SSGD
            // never runs with an active fence.)
            PushVerdict::StaleEpoch | PushVerdict::Duplicate => {
                self.pushes.abandon(w);
                return;
            }
        }
        if self.is_ssgd {
            self.on_ssgd_grad(w, slice, ctx, seam);
        } else if self.applied < self.target && !self.halted {
            // Late gradients past the target (or past a planned halt) are
            // dropped, as a real server shutting down would drop them.
            if let Some(push) = self.pushes.accept(w, slice) {
                // The applied gradient's vector goes back to whoever made
                // it: the assembly's buffer to the assembly, a vector the
                // transport decoded to the transport.
                let adopted = push.adopted;
                let spent = self.on_push(w, push, ctx.time(), seam);
                if let Some(decoded) = spent.and_then(|g| self.pushes.reclaim(g, adopted)) {
                    ctx.recycle(decoded);
                }
            }
        }
    }

    /// Formula 1's barrier: park until all M contributions are in, then
    /// average-apply and release everyone at once.
    fn on_ssgd_grad(
        &mut self,
        w: usize,
        slice: PushSlice,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn Seam,
    ) {
        // Only a dense gradient's vector is the transport's to have back;
        // one unpacked here is this round's own and is dropped with it.
        let (grads, decoded) = match slice.grads {
            CompressedGrad::Dense(decoded) => (decoded, true),
            packed => (packed.decompress(), false),
        };
        let (running, batch_stats) = (slice.running, slice.batch_stats);
        self.round.push(ParkedGrad { worker: w, grads, decoded, running, batch_stats });
        self.losses.push(slice.loss);
        if self.round.len() < self.env.workers {
            return;
        }
        // The linear scaling rule: averaging moves the model M× less per
        // data epoch than the asynchronous algorithms do. In the paper's
        // 160-epoch budget that merely slows SSGD down; in the reduced-scale
        // budgets it would leave SSGD unconverged and mask the
        // generalization gap the paper attributes to large batches.
        let scale = self.env.workers.max(1) as f32;
        let lr = self.env.cfg.lr.at_epoch(self.rounds_done / self.rounds_per_epoch) * scale;
        let gs: Vec<&[f32]> = self.round.iter().map(|p| p.grads.as_slice()).collect();
        let t_apply = Instant::now();
        self.group.apply_grad_avg(&gs, lr);
        for p in &self.round {
            self.group.absorb_bn(&p.running, &p.batch_stats);
        }
        let sink = &self.env.sink;
        sink.wall_span_at(None, phase::SERVER_APPLY, t_apply, t_apply.elapsed().as_secs_f64());
        sink.note_version(self.group.version());
        let now = seam.write(ctx.time());
        self.rounds_done += 1;
        if self.rounds_done.is_multiple_of(self.rounds_per_epoch) {
            self.record_epoch(self.rounds_done / self.rounds_per_epoch, lr, now, seam);
        }
        let stop = self.rounds_done >= self.rounds_target;
        for ParkedGrad { worker: parked, grads, decoded, .. } in std::mem::take(&mut self.round) {
            if decoded {
                ctx.recycle(grads);
            }
            if stop {
                ctx.reply_to(parked, ClusterResp::Stop);
            } else {
                // The whole released round — and the epoch evaluation, if
                // one was just queued — shares one weights snapshot, and
                // the reactor encodes it once.
                self.reply_weights(parked, 0, None, ctx);
            }
        }
    }

    /// A whole push has arrived: admit it, apply it (Formula 8 / Formula
    /// 3), then run the post-apply steps. Their order is load-bearing —
    /// DESIGN.md §13.2 gives the reason for each position. Returns the
    /// gradient's vector once it has been applied (the supervisor keeps or
    /// drops the ones it does not admit). `at` is the virtual time the
    /// push's last slice was picked up, on the simulator.
    fn on_push(
        &mut self,
        w: usize,
        mut push: PendingPush,
        at: Option<f64>,
        seam: &mut dyn Seam,
    ) -> Option<Vec<f32>> {
        let stale = (self.group.version() - push.pull_version) as u32;
        let g = std::mem::take(&mut push.grads);
        // Admission control: the supervisor may discard the gradient.
        // Staleness samples are recorded for *applied* updates only, so the
        // admitted stream is what the bound guarantees about.
        let (g, want_rollback) = match self.sup.as_mut() {
            Some(s) => {
                let adm = s.admit(w, self.applied as u64, stale, g, push.loss);
                (adm.grads, adm.rollback)
            }
            None => (Some(g), false),
        };
        if let Some(g) = &g {
            // The write-ahead log ships the apply as per-shard deltas, so
            // hold on to the weights they are taken against: each shard's
            // snapshot at the version this push moves it on from.
            let before: Option<Vec<Arc<Vec<f32>>>> = self
                .replicated
                .then(|| (0..self.group.count()).map(|s| self.group.snapshot(s)).collect());
            let now = seam.write(at);
            let lr = self.apply(w, &push, g, stale);
            if let Some(before) = before {
                self.log_to_wal(w, &push, stale, &before, seam);
            }
            self.close_epoch(lr, now, seam);
            let halt_now = self.planned_halt(seam);
            self.write_checkpoint(halt_now, seam);
            self.planned_kill(seam);
            self.report_degradation(seam);
        }
        if self.rollback_or_snapshot(want_rollback) {
            // No log record can carry a restore: the standby starts over
            // from the restored state.
            self.snapshot_standby(seam);
            self.report_degradation(seam);
        }
        self.trace_health_events();
        g
    }

    /// Applies an admitted gradient (Formula 8, or Formula 3 on the DC
    /// rung) and commits the push; returns the learning rate used.
    fn apply(&mut self, w: usize, push: &PendingPush, g: &[f32], stale: u32) -> f32 {
        let (cfg, sink) = (self.env.cfg, &self.env.sink);
        self.staleness.push(stale);
        sink.note_staleness(stale);
        let lr = cfg.lr.at_epoch(self.applied / self.updates_per_epoch);
        let t_apply = Instant::now();
        let on_dc_rung = self.pulled_mode[w] == AlgoMode::Dc;
        match self.backups.whole(w, g.len()).filter(|_| on_dc_rung) {
            Some(w_bak) => self.group.apply_grad_dc(g, lr, cfg.lambda, w_bak),
            None => self.group.apply_grad(g, lr),
        }
        // An LC iteration logged its arrival and BN statistics with the
        // state message; a fused one does so here.
        if self.pulled_mode[w] != AlgoMode::Lc {
            self.group.log_arrival(w);
            self.group.absorb_bn(&push.running, &push.batch_stats);
        }
        sink.wall_span_at(Some(w), phase::SERVER_APPLY, t_apply, t_apply.elapsed().as_secs_f64());
        sink.note_version(self.group.version());
        self.losses.push(push.loss);
        self.applied += 1;
        self.fence.commit_push(w, push.push_seq);
        lr
    }

    /// Step 1: ship the apply to the standby as per-shard deltas against
    /// `before` (each shard's weights as the apply found them), one log
    /// record per shard, consecutive seqs, encoded by the stream straight
    /// from the two. The last one alone carries a fused apply's side
    /// effects (arrival-log entry, BN state), so the standby counts a push
    /// applied only when it is whole.
    fn log_to_wal(
        &mut self,
        w: usize,
        push: &PendingPush,
        stale: u32,
        before: &[Arc<Vec<f32>>],
        seam: &mut dyn Seam,
    ) {
        let group = &self.group;
        let head = PushHead {
            epoch: self.fence.epoch(),
            worker: w as u32,
            push_seq: push.push_seq,
            version: group.version(),
            staleness: stale,
            loss: push.loss,
        };
        let fused = self.pulled_mode[w] != AlgoMode::Lc;
        let side_effects = fused.then(|| (group.version(), group.bn()));
        let (spec, weights) = (group.spec(), group.weights());
        let mut slices = before.iter().enumerate().map(|(s, b)| (&weights[spec.range(s)], &b[..]));
        seam.log_push(&head, &mut slices, side_effects);
    }

    /// Step 2: at an epoch boundary, record the epoch and publish its
    /// weights for evaluation, then refresh the standby.
    fn close_epoch(&mut self, lr: f32, now: f64, seam: &mut dyn Seam) {
        if !self.applied.is_multiple_of(self.updates_per_epoch) {
            return;
        }
        self.record_epoch(self.applied / self.updates_per_epoch, lr, now, seam);
        if self.replicated {
            // What promotion reads and the records do not mirror — both
            // predictors, the arrival state, `iter`, BN. No weights, so it
            // neither copies the model nor waits for the evaluation just
            // handed off.
            let (loss_pred, step_pred) = self.predictors.snapshot();
            seam.refresh(&TrainingCheckpoint {
                bn: self.group.bn().clone(),
                arrival: self.group.arrival_state(),
                iter: self.group.iter().to_vec(),
                loss_pred,
                step_pred,
                ..TrainingCheckpoint::default()
            });
            self.state_path_unlogged = false;
        }
    }

    /// Stamps epoch `epoch`'s record with `now` and hands the model the
    /// epoch ended on — the group's snapshot of it, shared with the pulls
    /// at this version — to the evaluator, which fills in the error rates
    /// while this thread goes back to Algorithm 2.
    fn record_epoch(&mut self, epoch: usize, lr: f32, now: f64, seam: &mut dyn Seam) {
        self.records.push(open_record(epoch, now, &mut self.losses, lr));
        let weights = self.group.assembled_snapshot();
        seam.evaluate(&mut self.records, weights, self.group.bn().clone());
    }

    /// Step 3: a planned server restart halts the run once its update
    /// count is reached; pulls answer `Stop` from here on.
    fn planned_halt(&mut self, seam: &mut dyn Seam) -> bool {
        let halt_now = self.halt_at.is_some_and(|h| self.applied as u64 >= h);
        if halt_now {
            self.halted = true;
            seam.fault(FaultRecord::ServerHalted { at_update: self.applied as u64 });
        }
        halt_now
    }

    /// Step 4: the periodic (or halting) checkpoint.
    fn write_checkpoint(&mut self, halt_now: bool, seam: &mut dyn Seam) {
        let Some(every) = self.checkpoint_every else { return };
        if halt_now || self.applied.is_multiple_of(every) {
            let ck = self.checkpoint(seam);
            seam.save(ck);
        }
    }

    /// Step 5: the planned primary kill — fenced failover. Deterministic
    /// on the simulator: the trigger is the applied-update count, the
    /// standby's content is fixed by the flush cadence, and the promoted
    /// state is a pure function of both.
    fn planned_kill(&mut self, seam: &mut dyn Seam) {
        let Some(killed_at) = self.kill_at.take_if(|k| self.applied as u64 >= *k) else { return };
        let Some(ck) = seam.promote(self.applied as u64) else {
            // The standby was already lost (the stream degraded): there is
            // nothing to promote. The run continues on the primary's
            // surviving state, unreplicated.
            let error = "planned primary kill found no standby to promote".into();
            seam.fault(FaultRecord::StandbyLost { at_update: killed_at, error });
            return;
        };
        let lost = self.applied as u64 - ck.applied;
        if cfg!(debug_assertions) && lost == 0 {
            self.assert_mirrored(&ck);
        }
        let from_epoch = self.fence.epoch();
        if let Err(error) = self.adopt(&ck, seam) {
            // A mirror the promoted layout cannot adopt is as good as a
            // lost standby: record it and keep the primary's state.
            seam.fault(FaultRecord::StandbyLost { at_update: killed_at, error });
            return;
        }
        let to_epoch = self.fence.promote(ck.push_seqs);
        // Re-arm: the promoted server is the new primary; re-bootstrap the
        // (now empty) standby slot.
        self.snapshot_standby(seam);
        let applied = self.applied as u64;
        if let Some(s) = self.sup.as_mut() {
            s.record_failover(applied, from_epoch, to_epoch, lost);
        }
        self.env.sink.wall_instant(
            None,
            phase::HEALTH,
            Instant::now(),
            format!(
                "at-update={applied} failover from-epoch={from_epoch} \
                 to-epoch={to_epoch} lost-updates={lost}"
            ),
        );
        seam.fault(FaultRecord::FailedOver {
            at_update: killed_at,
            from_epoch,
            to_epoch,
            lost_updates: lost,
        });
    }

    /// The standby equals the primary wherever the log says it must, bit
    /// for bit: checked at a kill that loses nothing. Weights, the
    /// version, the dedup state and the run's history always; the fields
    /// only the epoch refresh carries when the state path has not moved
    /// them since the standby was last made current.
    fn assert_mirrored(&self, ck: &TrainingCheckpoint) {
        let at = self.applied;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let group = &self.group;
        assert!(bits(&ck.weights) == bits(group.weights()), "weights at {at}");
        assert_eq!(ck.version, group.version(), "version at {at}");
        assert_eq!(ck.push_seqs, self.fence.push_seqs(), "push sequence numbers at {at}");
        assert_eq!(ck.staleness, self.staleness, "staleness samples at {at}");
        assert_eq!(bits(&ck.epoch_losses), bits(&self.losses), "epoch losses at {at}");
        if self.state_path_unlogged {
            return;
        }
        assert_eq!(ck.arrival, group.arrival_state(), "arrival state at {at}");
        assert_eq!(ck.iter, group.iter(), "iter at {at}");
        let bn = |b: &BnState| -> Vec<u32> {
            b.means.iter().chain(&b.vars).flat_map(|t| bits(t.data())).collect()
        };
        assert_eq!(bn(&ck.bn), bn(group.bn()), "BN state at {at}");
        let predictors = (ck.loss_pred.clone(), ck.step_pred.clone());
        assert!(predictors == self.predictors.snapshot(), "predictors at {at}");
    }

    /// Step 6: any replication interaction of this push may have found the
    /// standby gone; report the one-time degradation on every channel
    /// (DESIGN.md §10).
    fn report_degradation(&mut self, seam: &mut dyn Seam) {
        let applied = self.applied as u64;
        let Some(error) = seam.standby_lost(applied) else { return };
        let rec = FaultRecord::StandbyLost { at_update: applied, error };
        self.env.sink.wall_instant(None, phase::HEALTH, Instant::now(), rec.to_string());
        seam.fault(rec);
        if let Some(s) = self.sup.as_mut() {
            s.record_standby_lost(applied);
        }
    }

    /// Step 7: global divergence restores the last-good snapshot;
    /// otherwise the supervisor may ask for a new one. Returns whether the
    /// state was restored.
    fn rollback_or_snapshot(&mut self, want_rollback: bool) -> bool {
        let Some(s) = self.sup.as_mut() else { return false };
        let applied = self.applied as u64;
        if want_rollback {
            // `version` stays monotonic — staleness accounting must never
            // see the clock move backwards; only the *state* rewinds.
            let Some(good) = &self.last_good else { return false };
            self.group.load_weights(&good.weights);
            self.group.set_bn(good.bn.clone());
            self.predictors.restore(good);
            s.rolled_back(applied, good.applied);
            return true;
        } else if s.should_snapshot(applied) {
            self.last_good = Some(self.state());
        }
        false
    }

    /// Step 8 (and the tail of every state arrival): drain the
    /// supervisor's new events onto the trace.
    fn trace_health_events(&mut self) {
        let Some(s) = self.sup.as_mut() else { return };
        for (at, ev) in s.drain_new_events() {
            self.env.sink.wall_instant(
                ev.worker(),
                phase::HEALTH,
                Instant::now(),
                format!("at-update={at} {ev}"),
            );
        }
    }

    /// Ships the full state to the standby, if one is attached: its
    /// bootstrap, its post-promotion re-arm, its re-bootstrap after a
    /// rollback.
    fn snapshot_standby(&mut self, seam: &mut dyn Seam) {
        if self.replicated {
            let ck = self.checkpoint(seam);
            seam.snapshot(ck);
            self.state_path_unlogged = false;
        }
    }

    /// The server's full state as it goes to disk and into a full standby
    /// snapshot: once the evaluation in flight is in, so every epoch record
    /// in it is whole.
    fn checkpoint(&mut self, seam: &mut dyn Seam) -> TrainingCheckpoint {
        seam.collect(&mut self.records);
        self.state()
    }

    /// The server's full state as it stands. The workers' batch positions
    /// are not the server's: the shell adds them to what it writes to disk.
    fn state(&self) -> TrainingCheckpoint {
        let group = &self.group;
        let (loss_pred, step_pred) = self.predictors.snapshot();
        TrainingCheckpoint {
            weights: group.assembled_weights(),
            bn: group.bn().clone(),
            version: group.version(),
            applied: self.applied as u64,
            arrival: group.arrival_state(),
            iter: group.iter().to_vec(),
            staleness: self.staleness.clone(),
            epoch_losses: self.losses.clone(),
            epochs: self.records.clone(),
            loss_pred,
            step_pred,
            server_epoch: self.fence.epoch(),
            push_seqs: self.fence.push_seqs().to_vec(),
            shard_versions: match group.count() {
                1 => Vec::new(),
                n => vec![group.version(); n],
            },
            ..TrainingCheckpoint::default()
        }
    }

    /// Tear-down, once the shell has settled the standby: the last
    /// evaluation and degradation report, the hang-up, and the run's
    /// result as far as the server knows it.
    pub(super) fn finish(mut self, seam: &mut dyn Seam) -> RunResult {
        seam.collect(&mut self.records);
        self.report_degradation(seam);
        let fence = &self.fence;
        let replication = seam.hang_up().map(|rep| ReplicationReport {
            final_epoch: fence.epoch(),
            fenced_reads: fence.fenced_reads,
            fenced_pushes: fence.fenced_pushes,
            duplicate_pushes: fence.duplicate_pushes,
            ..rep
        });
        if self.is_ssgd {
            self.staleness = vec![0; self.group.version() as usize];
        }
        let predictors = &self.predictors;
        let overhead = predictors.is_lc.then_some(OverheadStats {
            loss_pred_ms: predictors.loss.elapsed_ms,
            step_pred_ms: predictors.step.elapsed_ms,
            iterations: self.group.version(),
        });
        let want_traces = predictors.is_lc && predictors.record;
        RunResult {
            label: format!("{} ({})", self.env.cfg.algorithm, self.env.cfg.bn_mode),
            epochs: self.records,
            staleness: self.staleness,
            trace: want_traces.then_some(self.predictors.trace),
            overhead,
            iterations: self.group.version(),
            health: self.sup.map(Supervisor::into_report),
            replication,
            shards: self.group.count(),
            ..RunResult::default()
        }
    }
}
