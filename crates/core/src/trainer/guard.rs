//! The server's robustness layer: what of its role is not Algorithm 2. A
//! [`Guard`] sees each message before the [`Core`]. It answers or drops
//! what the epoch fence rejects and, after a planned halt, what a stopped
//! server would; the rest it hands on [`Admitted`], a lead pull with the
//! supervisor's rung and data-shard directive. It admits each whole push,
//! and after the core's apply it runs the steps of DESIGN.md §13.2: the
//! write-ahead log, the standby's refresh, the planned halt, the
//! checkpoint, the planned kill, the standby-loss report, rollback and the
//! health trace.

use super::serve::{Admitted, Core, Seam};
use super::{worker_shards, RunEnv, RunOptions};
use crate::checkpoint::TrainingCheckpoint;
use crate::metrics::RunResult;
use crate::protocol::{ClusterReq, ClusterResp, PullDirective};
use crate::replication::{EpochFence, PushHead, PushVerdict, ReplicationReport};
use crate::shard::PendingPush;
use crate::supervisor::{AlgoMode, Supervisor};
use crate::trace::phase;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::{ClusterError, FaultRecord, ServerCtx};
use std::sync::Arc;
use std::time::Instant;

/// What the guard asks of the world beyond the core's [`Seam`]: the
/// standby's stream and mirror, the checkpoint file and the fault list.
pub(super) trait GuardSeam: Seam {
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
    /// Writes the run's checkpoint.
    fn save(&mut self, state: TrainingCheckpoint);
    /// Files a fault or recovery record.
    fn fault(&mut self, rec: FaultRecord);
}

/// The fencing, supervision, replication and planned faults of one run.
pub(super) struct Guard<'a> {
    env: &'a RunEnv<'a>,
    /// The health state machine decides from message contents and counters
    /// only, so its transition sequence is bit-reproducible on the
    /// discrete-event simulator.
    sup: Option<Supervisor>,
    /// Last-good state for divergence rollback: its weights, BN and
    /// predictors are what a rollback restores.
    last_good: Option<TrainingCheckpoint>,
    /// Epoch fencing and push dedup, held when a standby mirrors the
    /// server: every apply is then logged to it.
    fence: Option<EpochFence>,
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

impl<'a> Guard<'a> {
    /// The guard of a run under `opts`: `core` resumed from its checkpoint,
    /// if any, and the standby, if any, bootstrapped from the result.
    pub(super) fn new(
        env: &'a RunEnv<'a>,
        opts: &RunOptions,
        core: &mut Core,
        seam: &mut dyn GuardSeam,
    ) -> Result<Self, ClusterError> {
        let (cfg, m, plan) = (env.cfg, env.workers, opts.fault_plan.as_ref());
        let sup = opts.supervisor.clone().map(|sc| {
            let mut s = Supervisor::new(sc, AlgoMode::base(cfg.algorithm), m);
            s.set_shards(worker_shards(cfg, m, env.train.len()));
            s
        });
        let updates_per_epoch = super::updates_per_epoch(cfg, env.train);
        let target = cfg.epochs * updates_per_epoch;
        // A planned server restart or primary kill is ignored when the
        // resume point is already past it (it already happened) or when it
        // lies beyond the run's natural end.
        let resumed_at = opts.resume.as_ref().map_or(0, |ck| ck.applied);
        let pending = |at: Option<u64>| at.filter(|&a| a > resumed_at && a < target as u64);
        let kill_at = pending(plan.and_then(|p| p.primary_kill_at_update));
        if kill_at.is_some() && opts.standby.is_none() {
            return Err(ClusterError::Protocol(
                "a primary-kill fault plan requires a standby (RunOptions::standby)".into(),
            ));
        }
        let mut guard = Guard {
            env,
            sup,
            last_good: None,
            fence: opts.standby.as_ref().map(|_| EpochFence::new(m)),
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
            guard.adopt(core, ck, seam).map_err(|e| {
                ClusterError::Protocol(format!("cannot resume from checkpoint: {e}"))
            })?;
        }
        // The standby may be lost before the run even starts: record it and
        // run unreplicated rather than aborting.
        guard.snapshot_standby(core, seam);
        guard.report_degradation(core, seam);
        Ok(guard)
    }

    /// `core.adopt` and the fencing state `ck` recorded.
    fn adopt(
        &mut self,
        core: &mut Core,
        ck: &TrainingCheckpoint,
        seam: &mut dyn GuardSeam,
    ) -> Result<(), String> {
        core.adopt(ck, seam)?;
        if let Some(fence) = &mut self.fence {
            fence.restore(ck.server_epoch, ck.push_seqs.clone());
        }
        Ok(())
    }

    /// Answers or drops one message, or hands it to `core` and acts on what
    /// the core hands back.
    pub(super) fn handle(
        &mut self,
        core: &mut Core,
        w: usize,
        req: ClusterReq,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn GuardSeam,
    ) {
        let epoch = self.fence.as_ref().map_or(0, EpochFence::epoch);
        // The fence: a read addressed to a dead (fenced) primary is told the
        // current epoch so its retry carries it; a push to a dead epoch, or
        // a delayed duplicate of one applied, is dropped on the floor with
        // its half-assembled slices (async pushes are oneway: no reply).
        let fenced = match (&mut self.fence, &req) {
            (Some(f), ClusterReq::Pull { epoch, .. } | ClusterReq::State { epoch, .. }) => {
                !f.admit_read(*epoch)
            }
            (Some(f), ClusterReq::Grad { epoch, push_seq, .. }) => {
                f.check_push(w, *epoch, *push_seq) != PushVerdict::Admit
            }
            _ => false,
        };
        if fenced {
            return match req {
                ClusterReq::Grad { .. } => core.abandon(w),
                _ => ctx.reply(ClusterResp::Fenced { epoch }),
            };
        }
        // After a planned halt, pulls of the model are answered `Stop` and
        // late push slices dropped, as a real server shutting down would.
        match &req {
            ClusterReq::Pull { shard, .. }
                if self.halted && (*shard as usize) < core.group().count() =>
            {
                return ctx.reply(ClusterResp::Stop);
            }
            ClusterReq::Grad { .. } if self.halted => return,
            _ => {}
        }
        self.state_path_unlogged |=
            matches!(req, ClusterReq::Join { .. } | ClusterReq::State { .. });
        let rung = match (&req, &mut self.sup) {
            // Past the run's end the core answers a lead pull `Stop`, so the
            // supervisor is not asked for its rung.
            (ClusterReq::Pull { shard: 0, .. }, Some(s)) if !core.over() => {
                let shard = s.take_pending_shard(w);
                let shard = shard.map(|v| v.into_iter().map(|i| i as u64).collect());
                Some(PullDirective { mode: s.mode(w), shard })
            }
            _ => None,
        };
        if let (ClusterReq::State { loss, .. }, Some(s)) = (&req, &mut self.sup) {
            // Predictor-health watchdog: a wildly wrong one-step forecast
            // is a demerit against this worker's LC rung.
            s.observe_prediction(w, core.applied(), core.pending_forecast(), *loss);
        }
        match core.handle(w, Admitted { req, rung, epoch }, ctx, seam) {
            Some((push, stale)) => self.on_push(core, w, push, stale, ctx, seam),
            None => self.trace_health_events(),
        }
    }

    /// A whole push: admit it, have the core apply it, then run the steps
    /// after an apply. Their order is load-bearing — DESIGN.md §13.2 gives
    /// the reason for each position.
    fn on_push(
        &mut self,
        core: &mut Core,
        w: usize,
        mut push: PendingPush,
        stale: u32,
        ctx: &mut ServerCtx<ClusterResp>,
        seam: &mut dyn GuardSeam,
    ) {
        let g = std::mem::take(&mut push.grads);
        // Admission control: the supervisor may discard the gradient.
        // Staleness samples are recorded for *applied* updates only, so the
        // admitted stream is what the bound guarantees about.
        let (g, want_rollback) = match self.sup.as_mut() {
            Some(s) => {
                let adm = s.admit(w, core.applied(), stale, g, push.loss);
                (adm.grads, adm.rollback)
            }
            None => (Some(g), false),
        };
        if let Some(g) = g {
            // The write-ahead log ships the apply as per-shard deltas, so
            // hold on to the weights they are taken against.
            let before = self.fence.is_some().then(|| core.shard_snapshots());
            let closed = core.apply(w, &push, g, stale, ctx, seam);
            if let Some(fence) = &mut self.fence {
                fence.commit_push(w, push.push_seq);
            }
            if let Some(before) = before {
                self.log_to_wal(core, w, &push, stale, &before, seam);
            }
            if closed && self.fence.is_some() {
                // Step 2: the epoch just closed; refresh the standby.
                seam.refresh(&core.refresh_part());
                self.state_path_unlogged = false;
            }
            let halt_now = self.planned_halt(core, seam);
            self.write_checkpoint(core, halt_now, seam);
            self.planned_kill(core, seam);
            self.report_degradation(core, seam);
        }
        if self.rollback_or_snapshot(core, want_rollback) {
            // No log record can carry a restore: the standby starts over
            // from the restored state.
            self.snapshot_standby(core, seam);
            self.report_degradation(core, seam);
        }
        self.trace_health_events();
    }

    /// Step 1: ship the apply to the standby as per-shard deltas against
    /// `before` (each shard's weights as the apply found them), one log
    /// record per shard, consecutive seqs, encoded by the stream straight
    /// from the two. The last one alone carries a fused apply's side
    /// effects (arrival-log entry, BN state), so the standby counts a push
    /// applied only when it is whole.
    fn log_to_wal(
        &self,
        core: &Core,
        w: usize,
        push: &PendingPush,
        stale: u32,
        before: &[Arc<Vec<f32>>],
        seam: &mut dyn GuardSeam,
    ) {
        let group = core.group();
        let head = PushHead {
            epoch: self.fence.as_ref().map_or(0, EpochFence::epoch),
            worker: w as u32,
            push_seq: push.push_seq,
            version: group.version(),
            staleness: stale,
            loss: push.loss,
        };
        let side_effects = core.fused(w).then(|| (group.version(), group.bn()));
        let (spec, weights) = (group.spec(), group.weights());
        let mut slices = before.iter().enumerate().map(|(s, b)| (&weights[spec.range(s)], &b[..]));
        seam.log_push(&head, &mut slices, side_effects);
    }

    /// Step 3: a planned server restart halts the run once its update
    /// count is reached; pulls answer `Stop` from here on.
    fn planned_halt(&mut self, core: &Core, seam: &mut dyn GuardSeam) -> bool {
        let halt_now = self.halt_at.is_some_and(|h| core.applied() >= h);
        if halt_now {
            self.halted = true;
            seam.fault(FaultRecord::ServerHalted { at_update: core.applied() });
        }
        halt_now
    }

    /// Step 4: the periodic (or halting) checkpoint.
    fn write_checkpoint(&mut self, core: &mut Core, halt_now: bool, seam: &mut dyn GuardSeam) {
        let Some(every) = self.checkpoint_every else { return };
        if halt_now || core.applied().is_multiple_of(every as u64) {
            let ck = self.checkpoint(core, seam);
            seam.save(ck);
        }
    }

    /// Step 5: the planned primary kill — fenced failover. Deterministic
    /// on the simulator: the trigger is the applied-update count, the
    /// standby's content is fixed by the flush cadence, and the promoted
    /// state is a pure function of both.
    fn planned_kill(&mut self, core: &mut Core, seam: &mut dyn GuardSeam) {
        let applied = core.applied();
        let Some(killed_at) = self.kill_at.take_if(|k| applied >= *k) else { return };
        let Some(ck) = seam.promote(applied) else {
            // The standby was already lost (the stream degraded): there is
            // nothing to promote. The run continues on the primary's
            // surviving state, unreplicated.
            let error = "planned primary kill found no standby to promote".into();
            seam.fault(FaultRecord::StandbyLost { at_update: killed_at, error });
            return;
        };
        let fence = self.fence.as_ref().expect("a kill runs under a standby");
        let lost = applied - ck.applied;
        if cfg!(debug_assertions) && lost == 0 {
            let at = applied;
            assert_eq!(ck.push_seqs, fence.push_seqs(), "push sequence numbers at {at}");
            core.assert_mirrored(&ck, !self.state_path_unlogged);
        }
        let from_epoch = fence.epoch();
        if let Err(error) = self.adopt(core, &ck, seam) {
            // A mirror the promoted layout cannot adopt is as good as a
            // lost standby: record it and keep the primary's state.
            seam.fault(FaultRecord::StandbyLost { at_update: killed_at, error });
            return;
        }
        let to_epoch = self.fence.as_mut().map_or(0, |f| f.promote(ck.push_seqs));
        // Re-arm: the promoted server is the new primary; re-bootstrap the
        // (now empty) standby slot.
        self.snapshot_standby(core, seam);
        let applied = core.applied();
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

    /// Step 6: any replication interaction of this push may have found the
    /// standby gone; report the one-time degradation on every channel
    /// (DESIGN.md §10).
    fn report_degradation(&mut self, core: &Core, seam: &mut dyn GuardSeam) {
        let applied = core.applied();
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
    fn rollback_or_snapshot(&mut self, core: &mut Core, want_rollback: bool) -> bool {
        let Some(s) = self.sup.as_mut() else { return false };
        let applied = core.applied();
        if want_rollback {
            let Some(good) = &self.last_good else { return false };
            core.rewind(good);
            s.rolled_back(applied, good.applied);
            return true;
        } else if s.should_snapshot(applied) {
            self.last_good = Some(core.state());
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
    fn snapshot_standby(&mut self, core: &mut Core, seam: &mut dyn GuardSeam) {
        if self.fence.is_some() {
            let ck = self.checkpoint(core, seam);
            seam.snapshot(ck);
            self.state_path_unlogged = false;
        }
    }

    /// The core's checkpoint with the fencing state: the fence's, or —
    /// with no standby to fence — epoch 0 and no push applied.
    fn checkpoint(&self, core: &mut Core, seam: &mut dyn GuardSeam) -> TrainingCheckpoint {
        let (server_epoch, push_seqs) = match &self.fence {
            Some(f) => (f.epoch(), f.push_seqs().to_vec()),
            None => (0, vec![0; self.env.workers]),
        };
        TrainingCheckpoint { server_epoch, push_seqs, ..core.checkpoint(seam) }
    }

    /// Tear-down, once the shell has settled the standby: the last
    /// degradation report, the hang-up, and the core's result with the
    /// health and replication reports.
    pub(super) fn finish(mut self, core: Core, seam: &mut dyn GuardSeam) -> RunResult {
        self.report_degradation(&core, seam);
        let replication =
            seam.hang_up().zip(self.fence.as_ref()).map(|(rep, fence)| ReplicationReport {
                final_epoch: fence.epoch(),
                fenced_reads: fence.fenced_reads,
                fenced_pushes: fence.fenced_pushes,
                duplicate_pushes: fence.duplicate_pushes,
                ..rep
            });
        let health = self.sup.map(Supervisor::into_report);
        RunResult { health, replication, ..core.finish(seam) }
    }
}
