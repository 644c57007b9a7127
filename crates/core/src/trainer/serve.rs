//! The parameter-server core of the cluster engine: Algorithm 2 as a state
//! machine with one handler per [`ClusterReq`] ([`Core::handle`]) and one
//! apply ([`Core::apply`]: Formula 8, or Formula 3 on the DC rung; Formula 1
//! for SSGD's round). The core does no I/O: its side effects leave it
//! through the [`Seam`] handed to it with each message, at the point where
//! they happen. In a run with a robustness option, a
//! [`Guard`](super::guard::Guard) sees each message first and hands the core
//! an [`Admitted`] one; otherwise [`Core::serve`] admits every message
//! itself. DESIGN.md §13 maps handlers to the paper's lines.

use super::{km_steps, open_record, updates_per_epoch, RunEnv};
use crate::algorithms::Algorithm;
use crate::checkpoint::TrainingCheckpoint;
use crate::comm::CompressedGrad;
use crate::metrics::{EpochRecord, OverheadStats, PredictorTrace, RunResult};
use crate::predictor::{
    LossPrediction, LossPredictor, LossPredictorSnapshot, StepPredictor, StepPredictorSnapshot,
};
use crate::protocol::{ClusterReq, ClusterResp, PullDirective};
use crate::shard::{PendingPush, PushAssembly, PushSlice, ShardGroup, ShardSpec};
use crate::supervisor::AlgoMode;
use crate::trace::{phase, TraceSink};
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::{ServerCtx, WireCodec};
use lcasgd_tensor::Rng;
use std::sync::Arc;
use std::time::Instant;

/// What the core asks of the world outside Algorithm 2. The shell in
/// [`run_cluster_with`](super::run_cluster_with) implements it over the
/// evaluator thread and the run's clock; a recording fake implements it in
/// the replay test.
pub(super) trait Seam {
    /// An update is about to be applied. Returns the time on the run's
    /// clock it is stamped with; `at` is the message's pickup time on the
    /// simulator.
    fn write(&mut self, at: Option<f64>) -> f64;
    /// Queues the evaluation of the newest record in `records` at `weights`.
    fn evaluate(&mut self, records: &mut [EpochRecord], weights: Arc<Vec<f32>>, bn: BnState);
    /// Completes the record whose evaluation is in flight, if any.
    fn collect(&mut self, records: &mut [EpochRecord]);
}

/// One message as the core is handed it: the rung (and any reassigned
/// data shard) a lead pull's iteration runs at, and the fencing epoch
/// replies carry. [`Core::serve`] admits every message at epoch 0 with no
/// rung.
pub(super) struct Admitted {
    pub req: ClusterReq,
    pub rung: Option<PullDirective>,
    pub epoch: u64,
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

    /// Algorithm 2 lines 2–7 on real measured timings: the reply.
    fn observe(
        &mut self,
        w: usize,
        actual_step: f32,
        msg: &StateMsg,
        sink: &TraceSink,
    ) -> ClusterResp {
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
        ClusterResp::Compensation { l_delay, one_step, km: km_int as u32 }
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
/// drives it one message at a time, through the guard or through `serve`.
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
}

impl<'a> Core<'a> {
    pub(super) fn new(env: &'a RunEnv<'a>, group: ShardGroup, codec: WireCodec) -> Self {
        let (cfg, m) = (env.cfg, env.workers);
        let base_mode = AlgoMode::base(cfg.algorithm);
        let updates_per_epoch = updates_per_epoch(cfg, env.train);
        let rounds_per_epoch = env.train.len().div_ceil(m * cfg.batch_size).max(1);
        Core {
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
            target: cfg.epochs * updates_per_epoch,
            rounds_per_epoch,
            rounds_target: cfg.epochs * rounds_per_epoch,
            applied: 0,
            rounds_done: 0,
            records: Vec::with_capacity(cfg.epochs),
            losses: Vec::new(),
            staleness: Vec::new(),
        }
    }

    /// Takes a checkpoint's server state over: the resume of a restarted
    /// server and the promotion of a standby's mirror. Validates before it
    /// mutates: a mismatched worker count, weight length, shard-version
    /// count or shard version is a descriptive error, never a panic.
    pub(super) fn adopt(
        &mut self,
        ck: &TrainingCheckpoint,
        seam: &mut dyn Seam,
    ) -> Result<(), String> {
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
        self.backups = DcBackups::new(self.env.workers);
        self.pushes.abandon_all();
        Ok(())
    }

    /// Every message of a run with no guard: admitted, at epoch 0, and a
    /// whole push applied at once.
    pub(super) fn serve(
        &mut self,
        w: usize,
        req: ClusterReq,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn Seam,
    ) {
        let input = Admitted { req, rung: None, epoch: 0 };
        if let Some((mut push, stale)) = self.handle(w, input, ctx, seam) {
            let g = std::mem::take(&mut push.grads);
            self.apply(w, &push, g, stale, ctx, seam);
        }
    }

    /// Algorithm 2's event loop body: one message, one handler. Returns a
    /// push once it is whole, with its staleness, for the caller to apply.
    pub(super) fn handle(
        &mut self,
        w: usize,
        input: Admitted,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn Seam,
    ) -> Option<(PendingPush, u32)> {
        let Admitted { req, rung, epoch } = input;
        match req {
            ClusterReq::Join { .. } => self.on_join(w),
            // `Replicate` frames travel the dedicated replica duplex, not
            // the worker links; one arriving here is a protocol violation
            // and is ignored.
            ClusterReq::Replicate(_) => {}
            ClusterReq::Pull { shard, .. } => self.on_pull(w, shard as usize, rung, epoch, ctx),
            ClusterReq::State { loss, running, batch_stats, t_comm, t_comp, .. } => {
                self.on_state(w, StateMsg { loss, running, batch_stats, t_comm, t_comp }, ctx)
            }
            ClusterReq::Grad {
                grads,
                pull_version,
                loss,
                batch_stats,
                running,
                push_seq,
                shard,
                ..
            } => {
                let shard = shard as usize;
                let slice =
                    PushSlice { push_seq, pull_version, loss, shard, grads, batch_stats, running };
                if !self.is_ssgd {
                    return self.on_grad(w, slice);
                }
                self.on_ssgd_grad(w, slice, epoch, ctx, seam)
            }
        }
        None
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
    fn on_pull(
        &mut self,
        w: usize,
        sh: usize,
        rung: Option<PullDirective>,
        epoch: u64,
        ctx: &mut ServerCtx<ClusterResp>,
    ) {
        if sh >= self.group.count() {
            // A shard outside the group (a misconfigured peer): tell the
            // worker the current epoch, as a fenced server would.
            ctx.reply(ClusterResp::Fenced { epoch });
        } else if !self.is_ssgd && self.over() {
            ctx.reply(ClusterResp::Stop);
        } else if sh == 0 {
            // The *lead* pull of an iteration. The directive pins the rung
            // (and any reassigned data shard) for the iteration this pull
            // starts; the push coming back is interpreted under the same
            // rung even if the worker is demoted meanwhile.
            if let Some(r) = &rung {
                self.pulled_mode[w] = r.mode;
            }
            let on_dc_rung = self.pulled_mode[w] == AlgoMode::Dc;
            self.backups.begin(w, on_dc_rung, self.group.spec(), self.group.weights());
            self.reply_weights(w, 0, rung, epoch, ctx);
        } else {
            // Follower-shard pull: the lead pull already answered the
            // stop/directive questions for this iteration.
            self.backups.follow(w, self.group.spec(), sh, self.group.weights());
            self.reply_weights(w, sh, None, epoch, ctx);
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
        epoch: u64,
        ctx: &mut ServerCtx<ClusterResp>,
    ) {
        let version = self.group.version();
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
    fn on_state(&mut self, w: usize, msg: StateMsg, ctx: &mut ServerCtx<ClusterResp>) {
        let actual_step = self.group.log_arrival(w) as f32;
        let reply = self.predictors.observe(w, actual_step, &msg, &self.env.sink);
        // The predictors' time in the cost model: nominal, so the virtual
        // clock replays bit for bit (their measured time is `OverheadStats`).
        let cost = self.env.cfg.cost;
        ctx.charge(cost.step_pred);
        ctx.charge(cost.loss_pred);
        self.group.absorb_bn(&msg.running, &msg.batch_stats);
        ctx.reply(reply);
    }

    /// One slice of an asynchronous push (Algorithm 1 line 12), buffered
    /// until the push is whole; returns the whole push and its staleness.
    fn on_grad(&mut self, w: usize, slice: PushSlice) -> Option<(PendingPush, u32)> {
        let version = self.group.version();
        if slice.pull_version > version {
            // Pulled from a version this server has not reached: a peer's
            // bug, dropped like a duplicate rather than given a staleness
            // that wraps.
            self.pushes.abandon(w);
            return None;
        }
        // Late gradients past the target are dropped, as a real server
        // shutting down would drop them.
        if self.over() {
            return None;
        }
        let push = self.pushes.accept(w, slice)?;
        let stale = (version - push.pull_version) as u32;
        Some((push, stale))
    }

    /// Formula 1's barrier: park until all M contributions are in, then
    /// average-apply and release everyone at once.
    fn on_ssgd_grad(
        &mut self,
        w: usize,
        slice: PushSlice,
        epoch: u64,
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
                self.reply_weights(parked, 0, None, epoch, ctx);
            }
        }
    }

    /// Applies an admitted push's gradient `g` (Formula 8, or Formula 3 on
    /// the DC rung), stamped with the time its last slice was picked up on
    /// the simulator, and closes the epoch it ends, if it ends one: records
    /// it and hands its weights to the evaluator. Returns whether it closed
    /// one.
    pub(super) fn apply(
        &mut self,
        w: usize,
        push: &PendingPush,
        g: Vec<f32>,
        stale: u32,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn Seam,
    ) -> bool {
        let now = seam.write(ctx.time());
        let (cfg, sink) = (self.env.cfg, &self.env.sink);
        self.staleness.push(stale);
        sink.note_staleness(stale);
        let lr = cfg.lr.at_epoch(self.applied / self.updates_per_epoch);
        let t_apply = Instant::now();
        let on_dc_rung = self.pulled_mode[w] == AlgoMode::Dc;
        match self.backups.whole(w, g.len()).filter(|_| on_dc_rung) {
            Some(w_bak) => self.group.apply_grad_dc(&g, lr, cfg.lambda, w_bak),
            None => self.group.apply_grad(&g, lr),
        }
        // An LC iteration logged its arrival and BN statistics with the
        // state message; a fused one does so here.
        if self.fused(w) {
            self.group.log_arrival(w);
            self.group.absorb_bn(&push.running, &push.batch_stats);
        }
        sink.wall_span_at(Some(w), phase::SERVER_APPLY, t_apply, t_apply.elapsed().as_secs_f64());
        sink.note_version(self.group.version());
        self.losses.push(push.loss);
        self.applied += 1;
        // The gradient's vector goes back to whoever made it: the
        // assembly's buffer to the assembly, a vector the transport decoded
        // to the transport.
        if let Some(decoded) = self.pushes.reclaim(g, push.adopted) {
            ctx.recycle(decoded);
        }
        let closes = self.applied.is_multiple_of(self.updates_per_epoch);
        if closes {
            self.record_epoch(self.applied / self.updates_per_epoch, lr, now, seam);
        }
        closes
    }

    /// Whether worker `w`'s iteration ran fused (its arrival and BN ride
    /// the push) rather than on the LC rung's state message.
    pub(super) fn fused(&self, w: usize) -> bool {
        self.pulled_mode[w] != AlgoMode::Lc
    }

    /// Drops worker `w`'s half-assembled push: the guard fenced a slice.
    pub(super) fn abandon(&mut self, w: usize) {
        self.pushes.abandon(w);
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

    pub(super) fn applied(&self) -> u64 {
        self.applied as u64
    }

    /// Whether the run's planned updates have all applied: the run is over.
    pub(super) fn over(&self) -> bool {
        self.applied >= self.target
    }

    /// The loss predictor's one-step forecast for the next arrival's loss.
    pub(super) fn pending_forecast(&self) -> Option<f32> {
        self.predictors.loss.pending_forecast()
    }

    pub(super) fn group(&self) -> &ShardGroup {
        &self.group
    }

    /// Each shard's weights as they stand: what a write-ahead record's
    /// delta is taken against.
    pub(super) fn shard_snapshots(&mut self) -> Vec<Arc<Vec<f32>>> {
        (0..self.group.count()).map(|s| self.group.snapshot(s)).collect()
    }

    /// What the standby's epoch refresh carries: both predictors, the
    /// arrival state, `iter` and BN. No weights, so it neither copies the
    /// model nor waits for the evaluation just handed off.
    pub(super) fn refresh_part(&self) -> TrainingCheckpoint {
        let (loss_pred, step_pred) = self.predictors.snapshot();
        TrainingCheckpoint {
            bn: self.group.bn().clone(),
            arrival: self.group.arrival_state(),
            iter: self.group.iter().to_vec(),
            loss_pred,
            step_pred,
            ..TrainingCheckpoint::default()
        }
    }

    /// A rollback: weights, BN and predictors back to `good`'s. `version`
    /// stays monotonic — staleness accounting must never see the clock
    /// move backwards; only the *state* rewinds.
    pub(super) fn rewind(&mut self, good: &TrainingCheckpoint) {
        self.group.load_weights(&good.weights);
        self.group.set_bn(good.bn.clone());
        self.predictors.restore(good);
    }

    /// The mirror `ck` equals this core wherever the log says it must, bit
    /// for bit: weights, the version and the run's history always; the
    /// fields only the epoch refresh carries when `refreshed` (the state
    /// path has not moved them since the standby was last made current).
    pub(super) fn assert_mirrored(&self, ck: &TrainingCheckpoint, refreshed: bool) {
        let at = self.applied;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let group = &self.group;
        assert!(bits(&ck.weights) == bits(group.weights()), "weights at {at}");
        assert_eq!(ck.version, group.version(), "version at {at}");
        assert_eq!(ck.staleness, self.staleness, "staleness samples at {at}");
        assert_eq!(bits(&ck.epoch_losses), bits(&self.losses), "epoch losses at {at}");
        if !refreshed {
            return;
        }
        let part = self.refresh_part();
        assert_eq!(ck.arrival, part.arrival, "arrival state at {at}");
        assert_eq!(ck.iter, part.iter, "iter at {at}");
        let bn = |b: &BnState| -> Vec<u32> {
            b.means.iter().chain(&b.vars).flat_map(|t| bits(t.data())).collect()
        };
        assert_eq!(bn(&ck.bn), bn(&part.bn), "BN state at {at}");
        let predictors = (ck.loss_pred.clone(), ck.step_pred.clone());
        assert!(predictors == (part.loss_pred, part.step_pred), "predictors at {at}");
    }

    /// The server's full state as it goes to disk and into a full standby
    /// snapshot: once the evaluation in flight is in, so every epoch record
    /// in it is whole.
    pub(super) fn checkpoint(&mut self, seam: &mut dyn Seam) -> TrainingCheckpoint {
        seam.collect(&mut self.records);
        self.state()
    }

    /// The server's full state as it stands, with no fencing state (the
    /// guard's). The workers' batch positions are not the server's: the
    /// shell adds them to what it writes to disk.
    pub(super) fn state(&self) -> TrainingCheckpoint {
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
            shard_versions: match group.count() {
                1 => Vec::new(),
                n => vec![group.version(); n],
            },
            ..TrainingCheckpoint::default()
        }
    }

    /// Tear-down: the last evaluation, and the run's result as far as the
    /// core knows it.
    pub(super) fn finish(mut self, seam: &mut dyn Seam) -> RunResult {
        seam.collect(&mut self.records);
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
            shards: self.group.count(),
            ..RunResult::default()
        }
    }
}
