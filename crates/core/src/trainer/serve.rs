//! The parameter-server half of the cluster engine: Algorithm 2 as a state
//! machine with one handler per [`ClusterReq`] ([`Server::handle`]) and a
//! fixed sequence of named steps after every applied push
//! ([`Server::on_push`]). DESIGN.md §13 maps handlers to the paper's lines
//! and says why the steps run in the order they do.

use super::{km_steps, open_record, updates_per_epoch, Evaluator, RunEnv};
use crate::algorithms::Algorithm;
use crate::checkpoint::TrainingCheckpoint;
use crate::comm::CompressedGrad;
use crate::metrics::{EpochRecord, FaultReport, OverheadStats, PredictorTrace, RunResult};
use crate::predictor::{
    LossPrediction, LossPredictor, LossPredictorSnapshot, StepPredictor, StepPredictorSnapshot,
};
use crate::protocol::{ClusterReq, ClusterResp, PullDirective};
use crate::replication::{
    serve_standby, EpochFence, LogRecord, PushVerdict, ReplicationStream, StandbyConfig,
    StandbyReplica,
};
use crate::shard::{PendingPush, PushAssembly, PushSlice, ShardGroup, ShardSpec};
use crate::supervisor::{AlgoMode, Supervisor};
use crate::trace::{phase, ClockDomain, TraceSink};
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::{
    ClusterError, FaultPlan, FaultRecord, ReplicaDuplexPair, ServerCtx, TransportStats, WireCodec,
};
use lcasgd_tensor::Rng;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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
        group.restore_versions(&vec![ck.version; group.count()])?;
    } else {
        group.restore_versions(&ck.shard_versions)?;
    }
    group.load_weights(&ck.weights);
    group.set_bn(ck.bn.clone());
    group.restore_arrival_log(ck.iter.clone());
    Ok(())
}

/// LC-ASGD's forward state (Algorithm 1 line 8), as it comes off the wire.
pub(super) struct StateMsg {
    pub loss: f32,
    pub running: BnState,
    pub batch_stats: Vec<BnBatchStats>,
    pub t_comm: f32,
    pub t_comp: f32,
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

    fn restore(
        &mut self,
        loss: Option<&LossPredictorSnapshot>,
        step: Option<&StepPredictorSnapshot>,
    ) {
        if let Some(lp) = loss {
            self.loss.restore(lp);
        }
        if let Some(sp) = step {
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
    /// decided at the lead pull, obeyed by the follower-shard pulls.
    live: Vec<bool>,
}

impl DcBackups {
    fn new(workers: usize) -> Self {
        DcBackups { bufs: vec![Vec::new(); workers], live: vec![false; workers] }
    }

    /// The lead pull of an iteration.
    fn begin(&mut self, w: usize, on_dc_rung: bool, spec: &ShardSpec, lead: &[f32]) {
        if on_dc_rung {
            if self.bufs[w].len() != spec.len() {
                self.bufs[w] = vec![0.0; spec.len()];
            }
            self.bufs[w][spec.range(0)].copy_from_slice(lead);
        }
        self.live[w] = on_dc_rung;
    }

    fn follow(&mut self, w: usize, spec: &ShardSpec, sh: usize, weights: &[f32]) {
        if self.live[w] {
            self.bufs[w][spec.range(sh)].copy_from_slice(weights);
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

/// Last-good server state for divergence rollback.
struct GoodState {
    weights: Vec<f32>,
    bn: BnState,
    applied: u64,
    predictors: (Option<LossPredictorSnapshot>, Option<StepPredictorSnapshot>),
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

/// The parameter server of one run. [`run_cluster_with`] sets it up in
/// stages — `new`, the option fields, `resume`, `attach_standby`, `start` —
/// and the backend then drives it one message at a time through `handle`.
///
/// [`run_cluster_with`]: super::run_cluster_with
pub(super) struct Server<'a> {
    env: &'a RunEnv<'a>,
    eval: Evaluator,
    codec: WireCodec,
    is_ssgd: bool,
    t0: Instant,

    // ---- Algorithm 2 ---------------------------------------------------
    /// N per-shard server instances behind the one serialized event loop.
    /// Workers fan pulls/pushes out over their single ordered link, so the
    /// sharding is coordinator-free and `n = 1` reproduces the unsharded
    /// message sequence exactly (DESIGN.md §11).
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
    pub(super) sup: Option<Supervisor>,
    last_good: Option<GoodState>,
    fence: EpochFence,
    repl: Option<ReplicationStream>,
    standby_slot: Option<Arc<Mutex<Option<StandbyReplica>>>>,
    standby_thread: Option<JoinHandle<()>>,
    pub(super) fault_plan: Option<FaultPlan>,
    /// A planned server restart: checkpoint and halt once this many
    /// updates have applied.
    pub(super) halt_at: Option<u64>,
    halted: bool,
    /// A planned primary kill: at this applied-update count the primary's
    /// lease is revoked, its unreplicated tail is discarded, and the
    /// standby promotes with a bumped fencing epoch.
    pub(super) kill_at: Option<u64>,
    pub(super) checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in applied updates.
    pub(super) checkpoint_every: usize,
    /// Checkpoint-write failures observed without a fault plan to report
    /// into; they still must reach [`RunResult::faults`].
    ckpt_failures: Vec<FaultRecord>,
    resumed_at: Option<u64>,
}

impl<'a> Server<'a> {
    /// `base_mode` is the rung the run's algorithm starts every worker on;
    /// `fenced` arms epoch fencing (runs with a standby).
    pub(super) fn new(
        env: &'a RunEnv<'a>,
        eval: Evaluator,
        group: ShardGroup,
        base_mode: AlgoMode,
        codec: WireCodec,
        fenced: bool,
    ) -> Self {
        let cfg = env.cfg;
        let m = env.workers;
        let updates_per_epoch = updates_per_epoch(cfg, env.train);
        let rounds_per_epoch = env.train.len().div_ceil(m * cfg.batch_size).max(1);
        Server {
            env,
            eval,
            codec,
            is_ssgd: cfg.algorithm == Algorithm::Ssgd,
            // Reset by `start`, once set-up is over.
            t0: Instant::now(),
            predictors: Predictors::new(base_mode == AlgoMode::Lc, cfg.record_traces, m, cfg.seed),
            backups: DcBackups::new(m),
            pushes: PushAssembly::new(group.spec().clone(), m),
            pulled_mode: vec![base_mode; m],
            round: Vec::with_capacity(m),
            group,
            updates_per_epoch,
            target: cfg.epochs * updates_per_epoch,
            rounds_per_epoch,
            rounds_target: cfg.epochs * rounds_per_epoch,
            applied: 0,
            rounds_done: 0,
            records: Vec::with_capacity(cfg.epochs),
            losses: Vec::new(),
            staleness: Vec::new(),
            sup: None,
            last_good: None,
            fence: EpochFence::new(m, fenced),
            repl: None,
            standby_slot: None,
            standby_thread: None,
            fault_plan: None,
            halt_at: None,
            halted: false,
            kill_at: None,
            checkpoint_path: None,
            checkpoint_every: updates_per_epoch,
            ckpt_failures: Vec::new(),
            resumed_at: None,
        }
    }

    /// Resumes from a saved checkpoint. A mismatched one (wrong worker
    /// count, model or shard layout) is a descriptive error, not a panic.
    pub(super) fn resume(&mut self, ck: &TrainingCheckpoint) -> Result<(), ClusterError> {
        adopt_server_state(&mut self.group, ck)
            .map_err(|e| ClusterError::Protocol(format!("cannot resume from checkpoint: {e}")))?;
        self.applied = ck.applied as usize;
        self.staleness = ck.staleness.clone();
        self.losses = ck.epoch_losses.clone();
        self.records = ck.epochs.clone();
        self.predictors.restore(ck.loss_pred.as_ref(), ck.step_pred.as_ref());
        self.env.replay_batches(&ck.worker_batches);
        self.resumed_at = Some(ck.applied);
        self.log_fault(FaultRecord::Resumed { at_update: ck.applied });
        self.fence.restore(ck.server_epoch, ck.push_seqs.clone());
        Ok(())
    }

    /// Attaches a hot standby: spawns its serve loop on `standby_end` and
    /// bootstraps it from a full snapshot of the (possibly resumed)
    /// initial server state.
    pub(super) fn attach_standby(&mut self, sc: &StandbyConfig, duplex: ReplicaDuplexPair) {
        let (primary_end, standby_end) = duplex;
        let slot = Arc::new(Mutex::new(None));
        self.standby_slot = Some(slot.clone());
        let upe = self.updates_per_epoch as u64;
        self.standby_thread =
            Some(std::thread::spawn(move || serve_standby(standby_end, slot, upe)));
        self.repl = Some(ReplicationStream::new(primary_end, sc));
        self.snapshot_standby();
        // The standby may have been lost before the run even started:
        // record it and run unreplicated rather than aborting.
        if let Some(error) = self.take_degradation() {
            self.report_standby_lost(self.applied as u64, error);
        }
    }

    /// Starts the run's clock; the last step of set-up.
    pub(super) fn start(&mut self) {
        self.t0 = Instant::now();
        self.env.sink.start_clock(self.t0);
    }

    /// Seconds "now" on the run's clock, for epoch-record stamping:
    /// virtual on the discrete-event simulator, wall on real backends.
    fn now(&self) -> f64 {
        match self.env.clock {
            ClockDomain::Virtual => self.env.sink.virt_high(),
            ClockDomain::Wall => self.t0.elapsed().as_secs_f64(),
        }
    }

    /// Algorithm 2's event loop body: one message, one handler.
    pub(super) fn handle(&mut self, w: usize, req: ClusterReq, ctx: &mut ServerCtx<ClusterResp>) {
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
                self.on_grad(w, epoch, slice, ctx)
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
            self.backups.begin(w, on_dc_rung, self.group.spec(), &self.group.lead().weights);
            self.reply_weights(w, 0, directive, ctx);
        } else {
            // Follower-shard pull: the lead pull already answered the
            // stop/directive questions for this iteration.
            self.backups.follow(w, self.group.spec(), sh, &self.group.shard(sh).weights);
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
        let version = self.group.shard(sh).version;
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
    /// the BN statistics, reply with `ℓ_delay`. Arrival bookkeeping is
    /// model-global, so it lives on the lead shard.
    fn on_state(&mut self, w: usize, epoch: u64, msg: StateMsg, ctx: &mut ServerCtx<ClusterResp>) {
        if !self.fence.admit_read(epoch) {
            // LC forward state addressed to a fenced primary: the worker
            // must abandon the exchange and re-pull from the promoted
            // server.
            ctx.reply(ClusterResp::Fenced { epoch: self.fence.epoch() });
            return;
        }
        let actual_step = self.group.log_arrival(w) as f32;
        let (reply, expected_loss) = self.predictors.observe(w, actual_step, &msg, &self.env.sink);
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
            self.on_ssgd_grad(w, slice, ctx);
        } else if self.applied < self.target && !self.halted {
            // Late gradients past the target (or past a planned halt) are
            // dropped, as a real server shutting down would drop them.
            if let Some(push) = self.pushes.accept(w, slice) {
                // The applied gradient's vector goes back to whoever made
                // it: the assembly's buffer to the assembly, a vector the
                // transport decoded to the transport.
                let adopted = push.adopted;
                let spent = self.on_push(w, push);
                if let Some(decoded) = spent.and_then(|g| self.pushes.reclaim(g, adopted)) {
                    ctx.recycle(decoded);
                }
            }
        }
    }

    /// Formula 1's barrier: park until all M contributions are in, then
    /// average-apply and release everyone at once.
    fn on_ssgd_grad(&mut self, w: usize, slice: PushSlice, ctx: &mut ServerCtx<ClusterResp>) {
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
        let cfg = self.env.cfg;
        let lr = cfg.lr.at_epoch(self.rounds_done / self.rounds_per_epoch) * cfg.ssgd_lr_scale;
        let gs: Vec<&[f32]> = self.round.iter().map(|p| p.grads.as_slice()).collect();
        let t_apply = Instant::now();
        self.group.apply_grad_avg(&gs, lr);
        for p in &self.round {
            self.group.absorb_bn(&p.running, &p.batch_stats);
        }
        let sink = &self.env.sink;
        sink.wall_span_at(None, phase::SERVER_APPLY, t_apply, t_apply.elapsed().as_secs_f64());
        sink.note_version(self.group.version());
        self.rounds_done += 1;
        if self.rounds_done.is_multiple_of(self.rounds_per_epoch) {
            self.record_epoch(self.rounds_done / self.rounds_per_epoch, lr);
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
    /// drops the ones it does not admit).
    fn on_push(&mut self, w: usize, mut push: PendingPush) -> Option<Vec<f32>> {
        let stale = (self.group.version() - push.pull_version) as u32;
        let g = std::mem::take(&mut push.grads);
        // Admission control: the supervisor may discard, park, or LR-scale
        // the gradient. Staleness samples are recorded for *applied*
        // updates only, so the admitted stream is what the bound policies
        // guarantee about.
        let (g, lr_scale, want_rollback) = match self.sup.as_mut() {
            Some(s) => {
                let adm = s.admit(w, self.applied as u64, stale, g, push.loss);
                (adm.grads, adm.lr_scale, adm.rollback)
            }
            None => (Some(g), 1.0, false),
        };
        if let Some(g) = &g {
            // The write-ahead log ships the apply as per-shard deltas, so
            // hold on to the weights they are taken against: each shard's
            // snapshot at the version this push moves it on from.
            let before: Option<Vec<Arc<Vec<f32>>>> = self
                .repl
                .as_ref()
                .map(|_| (0..self.group.count()).map(|s| self.group.snapshot(s)).collect());
            let lr = self.apply(w, &push, g, stale, lr_scale);
            if let Some(before) = before {
                self.log_to_wal(w, &push, stale, &before);
            }
            self.close_epoch(lr);
            let halt_now = self.planned_halt();
            self.write_checkpoint(halt_now);
            self.planned_kill();
            self.report_degradation();
        }
        self.rollback_or_snapshot(want_rollback);
        self.trace_health_events();
        g
    }

    /// Applies an admitted gradient to every shard (Formula 8, or Formula 3
    /// on the DC rung) and commits the push; returns the learning rate used.
    fn apply(&mut self, w: usize, push: &PendingPush, g: &[f32], stale: u32, lr_scale: f32) -> f32 {
        let env = self.env;
        let (cfg, sink) = (env.cfg, &env.sink);
        // Lease enforcement (wall-clock backends): an expired write lease
        // forces a heartbeat ack from the standby before this write may
        // apply.
        if env.clock == ClockDomain::Wall {
            if let Some(rs) = self.repl.as_mut() {
                rs.ensure_lease();
            }
        }
        self.staleness.push(stale);
        sink.note_staleness(stale);
        let lr = cfg.lr.at_epoch(self.applied / self.updates_per_epoch) * lr_scale;
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
    /// record per shard, consecutive seqs. The last one alone carries a
    /// fused apply's side effects (arrival-log entry, BN state), so the
    /// standby counts a push applied only when it is whole.
    fn log_to_wal(&mut self, w: usize, push: &PendingPush, stale: u32, before: &[Arc<Vec<f32>>]) {
        let Some(rs) = self.repl.as_mut() else { return };
        let group = &self.group;
        let fused = self.pulled_mode[w] != AlgoMode::Lc;
        for (s, base) in before.iter().enumerate() {
            let delta: Vec<f32> =
                group.shard(s).weights.iter().zip(base.iter()).map(|(a, b)| a - b).collect();
            let digest = LogRecord::digest_of(&delta);
            let side_effects = fused && s + 1 == group.count();
            rs.log(LogRecord {
                seq: 0, // assigned by the stream
                epoch: self.fence.epoch(),
                worker: w as u32,
                push_seq: push.push_seq,
                version: group.version(),
                staleness: stale,
                loss: push.loss,
                delta,
                digest,
                arrival: side_effects.then(|| group.version()),
                bn: side_effects.then(|| group.bn().clone()),
                shard: s as u32,
            });
        }
    }

    /// Step 2: at an epoch boundary, record the epoch and publish its
    /// weights for evaluation, then refresh the standby's snapshot: fields
    /// the log does not carry (predictor state, batch positions, epoch
    /// records) catch up here.
    fn close_epoch(&mut self, lr: f32) {
        if !self.applied.is_multiple_of(self.updates_per_epoch) {
            return;
        }
        self.record_epoch(self.applied / self.updates_per_epoch, lr);
        self.snapshot_standby();
    }

    /// Stamps epoch `epoch`'s record and hands the model the epoch ended on
    /// — the group's snapshot of it, shared with the pulls at this version
    /// — to the evaluator thread, which fills in the error rates while this
    /// thread goes back to Algorithm 2.
    fn record_epoch(&mut self, epoch: usize, lr: f32) {
        self.records.push(open_record(epoch, self.now(), &mut self.losses, lr));
        let weights = self.group.assembled_snapshot();
        self.eval.submit(&mut self.records, weights, self.group.bn().clone());
    }

    /// Step 3: a planned server restart halts the run once its update
    /// count is reached; pulls answer `Stop` from here on.
    fn planned_halt(&mut self) -> bool {
        let halt_now = self.halt_at.is_some_and(|h| self.applied as u64 >= h);
        if halt_now {
            self.halted = true;
            self.log_fault(FaultRecord::ServerHalted { at_update: self.applied as u64 });
        }
        halt_now
    }

    /// Step 4: the periodic (or halting) on-disk checkpoint. A failed
    /// write must not kill training: it goes to the fault report and the
    /// trace, and the server keeps serving gradients.
    fn write_checkpoint(&mut self, halt_now: bool) {
        let due = halt_now || self.applied.is_multiple_of(self.checkpoint_every);
        if self.checkpoint_path.is_none() || !due {
            return;
        }
        let ck = self.checkpoint();
        let Some(path) = &self.checkpoint_path else { return };
        let sink = &self.env.sink;
        let t_ck = Instant::now();
        match ck.save(path) {
            Ok(()) => {
                sink.wall_span_at(None, phase::CHECKPOINT, t_ck, t_ck.elapsed().as_secs_f64())
            }
            Err(e) => {
                eprintln!("warning: checkpoint write to {} failed: {e}", path.display());
                let rec = FaultRecord::CheckpointFailed {
                    at_update: self.applied as u64,
                    error: e.to_string(),
                };
                sink.wall_instant(None, phase::CHECKPOINT, Instant::now(), rec.to_string());
                match &self.fault_plan {
                    Some(plan) => plan.log().push(rec),
                    None => self.ckpt_failures.push(rec),
                }
            }
        }
    }

    /// Step 5: the planned primary kill — fenced failover. Deterministic
    /// on the simulator: the trigger is the applied-update count, the
    /// standby's content is fixed by the synchronous flush cadence, and
    /// the promoted state is a pure function of both.
    fn planned_kill(&mut self) {
        let Some(killed_at) = self.kill_at.take_if(|k| self.applied as u64 >= *k) else { return };
        // Fence the dead primary: its lease never renews again, and its
        // unflushed tail is discarded.
        self.repl.as_mut().expect("primary kill requires a standby").revoke_lease();
        let slot = self.standby_slot.as_ref().expect("standby slot exists");
        let Some(replica) = slot.lock().take() else {
            // The standby was already lost (the stream degraded): there is
            // nothing to promote. The run continues on the primary's
            // surviving state, unreplicated.
            let error = "planned primary kill found no standby to promote".into();
            self.report_standby_lost(killed_at, error);
            return;
        };
        let ck = replica.into_state();
        let lost = self.applied as u64 - ck.applied;
        let from_epoch = self.fence.epoch();
        // Adopt the standby's mirrored state wholesale.
        if let Err(error) = adopt_server_state(&mut self.group, &ck) {
            // A mirror the promoted layout cannot adopt is as good as a
            // lost standby: record it and keep the primary's state.
            self.report_standby_lost(killed_at, error);
            return;
        }
        self.applied = ck.applied as usize;
        self.staleness = ck.staleness.clone();
        self.losses = ck.epoch_losses.clone();
        // Epoch records computed from discarded updates are recomputed
        // when the boundary is crossed again.
        self.eval.collect(&mut self.records);
        self.records.truncate(self.applied / self.updates_per_epoch);
        self.predictors.restore(ck.loss_pred.as_ref(), ck.step_pred.as_ref());
        // DC backups and half-assembled pushes reference pulls from the
        // dead primary.
        self.backups.clear();
        self.pushes.abandon_all();
        let to_epoch = self.fence.promote(ck.push_seqs.clone());
        // Re-arm: the promoted server is the new primary; re-bootstrap the
        // (now empty) standby slot.
        self.repl.as_mut().expect("primary kill requires a standby").promoted(lost);
        self.snapshot_standby();
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
        self.log_fault(FaultRecord::FailedOver {
            at_update: killed_at,
            from_epoch,
            to_epoch,
            lost_updates: lost,
        });
    }

    /// Step 6: any replication interaction of this push may have found the
    /// standby gone; report the one-time degradation on every channel
    /// (DESIGN.md §10).
    fn report_degradation(&mut self) {
        let Some(error) = self.take_degradation() else { return };
        let applied = self.applied as u64;
        let text = self.report_standby_lost(applied, error);
        self.env.sink.wall_instant(None, phase::HEALTH, Instant::now(), text);
        if let Some(s) = self.sup.as_mut() {
            s.record_standby_lost(applied);
        }
    }

    /// Polls the replication stream for its one-shot degradation cause and
    /// stamps the report with the update count it surfaced at.
    fn take_degradation(&mut self) -> Option<String> {
        let rs = self.repl.as_mut()?;
        let error = rs.take_degradation()?;
        rs.report.degraded_at = Some(self.applied as u64);
        Some(error)
    }

    /// Files a lost standby in the fault log, however it was found gone
    /// (at bootstrap, mid-run, nothing to promote, an unadoptable mirror).
    /// Returns the record's text: the mid-run case also traces it.
    fn report_standby_lost(&self, at_update: u64, error: String) -> String {
        let rec = FaultRecord::StandbyLost { at_update, error };
        let text = rec.to_string();
        self.log_fault(rec);
        text
    }

    /// Step 7: global divergence restores the last-good snapshot;
    /// otherwise the supervisor may ask for a new one.
    fn rollback_or_snapshot(&mut self, want_rollback: bool) {
        let Some(s) = self.sup.as_mut() else { return };
        let applied = self.applied as u64;
        if want_rollback {
            // `version` stays monotonic — staleness accounting must never
            // see the clock move backwards; only the *state* rewinds.
            if let Some(good) = &self.last_good {
                self.group.load_weights(&good.weights);
                self.group.set_bn(good.bn.clone());
                self.predictors.restore(good.predictors.0.as_ref(), good.predictors.1.as_ref());
                s.rolled_back(applied, good.applied);
            }
        } else if s.should_snapshot(applied) {
            self.last_good = Some(GoodState {
                weights: self.group.assembled_weights(),
                bn: self.group.bn().clone(),
                applied,
                predictors: self.predictors.snapshot(),
            });
        }
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

    /// Appends to the run's fault log, when it has a plan to report into.
    fn log_fault(&self, rec: FaultRecord) {
        if let Some(plan) = &self.fault_plan {
            plan.log().push(rec);
        }
    }

    /// Ships the full state to the standby, if one is attached: its
    /// bootstrap, its epoch-boundary refresh, its post-promotion re-arm.
    fn snapshot_standby(&mut self) {
        if let Some(mut rs) = self.repl.take() {
            rs.snapshot(&self.checkpoint());
            self.repl = Some(rs);
        }
    }

    /// The running server's full state: what the standby is sent and what
    /// goes to disk — so it waits for the evaluation in flight, and every
    /// epoch record in it is whole.
    fn checkpoint(&mut self) -> TrainingCheckpoint {
        self.eval.collect(&mut self.records);
        let group = &self.group;
        let (loss_pred, step_pred) = self.predictors.snapshot();
        TrainingCheckpoint {
            weights: group.assembled_weights(),
            bn: group.bn().clone(),
            version: group.version(),
            applied: self.applied as u64,
            arrival: group.arrival_state(),
            iter: group.lead().iter.clone(),
            staleness: self.staleness.clone(),
            epoch_losses: self.losses.clone(),
            epochs: self.records.clone(),
            loss_pred,
            step_pred,
            worker_batches: self.env.batch_pos.lock().clone(),
            server_epoch: self.fence.epoch(),
            push_seqs: self.fence.push_seqs().to_vec(),
            shard_versions: if group.count() == 1 { Vec::new() } else { group.versions() },
        }
    }

    /// Tear-down: hang up on the standby, replay the fault log onto the
    /// trace, assemble the [`RunResult`].
    pub(super) fn finish(mut self, transport: TransportStats) -> RunResult {
        let env = self.env;
        let (cfg, sink) = (env.cfg, &env.sink);
        // Before any clock is read: the run is over when its last epoch
        // has been evaluated.
        self.eval.collect(&mut self.records);
        // Dropping the stream hangs up the duplex; the standby thread's
        // recv fails and it exits cleanly.
        let replication = self.standby_slot.is_some().then(|| {
            let mut rep = self.repl.take().map(|rs| rs.report).unwrap_or_default();
            if let Some(h) = self.standby_thread.take() {
                let _ = h.join();
            }
            rep.final_epoch = self.fence.epoch();
            rep.fenced_reads = self.fence.fenced_reads;
            rep.fenced_pushes = self.fence.fenced_pushes;
            rep.duplicate_pushes = self.fence.duplicate_pushes;
            rep
        });

        // Replay every observed fault/recovery onto the trace timeline as
        // an instant event, at the wall instant the log stamped it with.
        // Checkpoint failures already produced a `checkpoint` instant
        // inline.
        if let Some(plan) = &self.fault_plan {
            for (rec, at) in plan.log().timed_records() {
                let worker = match &rec {
                    FaultRecord::Injected { worker, .. }
                    | FaultRecord::WorkerRestarted { worker, .. } => Some(*worker),
                    FaultRecord::CheckpointFailed { .. } => continue,
                    _ => None,
                };
                sink.wall_instant(worker, phase::FAULT_INJECT, at, rec.to_string());
            }
        }

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
        // A resumed run (or a checkpoint-write failure) reports even
        // without a fault plan, so callers can see what happened.
        let resumed_at = self.resumed_at.unwrap_or(0);
        let reports = self.fault_plan.is_some()
            || self.resumed_at.is_some()
            || !self.ckpt_failures.is_empty();
        let faults = reports.then(|| {
            let mut records = self.fault_plan.as_ref().map(|p| p.records()).unwrap_or_default();
            if self.fault_plan.is_none() && self.resumed_at.is_some() {
                records.push(FaultRecord::Resumed { at_update: resumed_at });
            }
            records.append(&mut self.ckpt_failures);
            FaultReport { records, server_halted: self.halted, resumed_at }
        });
        let total_time = self.now();
        RunResult {
            label: format!("{} ({}, cluster)", cfg.algorithm, cfg.bn_mode),
            epochs: self.records,
            staleness: self.staleness,
            trace: want_traces.then_some(self.predictors.trace),
            overhead,
            iterations: self.group.version(),
            total_time,
            clock: env.clock,
            wall_time: self.t0.elapsed().as_secs_f64(),
            transport: Some(transport),
            faults,
            timeline: sink.enabled().then(|| sink.finish()),
            health: self.sup.map(Supervisor::into_report),
            replication,
            shards: self.group.count(),
        }
    }
}
