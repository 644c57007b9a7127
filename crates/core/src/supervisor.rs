//! Self-healing training supervisor: divergence sentinels, staleness
//! admission control, and the graded LC→DC→ASGD fallback ladder.
//!
//! Long asynchronous runs fail in ways the fault-injection layer (PR 2)
//! can produce but the trainer previously had no *response* to: NaN/Inf
//! gradients and loss explosions silently poison the shared model, sick
//! predictors feed Algorithm 2 garbage compensation, and stragglers push
//! staleness `k_m` past anything the predictors were trained on. The
//! [`Supervisor`] is a server-side health state machine that decides, for
//! every pushed gradient, whether to apply or discard it —
//! and, per worker, which rung of the algorithm ladder the next iteration
//! should run on.
//!
//! ## Placement and determinism
//!
//! All decisions are made inside the trainer's `server_fn`, the single
//! serialized point every backend shares, and use only message contents
//! and counters — never the wall clock. On the discrete-event simulator
//! the arrival order is bit-reproducible, so for a fixed seed the whole
//! transition sequence in the [`HealthReport`] is too.
//!
//! ## The three subsystems
//!
//! 1. **Divergence sentinels** — every admitted gradient is screened for
//!    NaN/Inf (instant quarantine of the pusher) and for norm spikes
//!    against a global EMA (strikes, then quarantine). The server keeps a
//!    sliding window of pushed losses; when the window mean explodes
//!    relative to the best window seen, the trainer rolls the model back
//!    to the last-good in-memory snapshot.
//! 2. **Staleness admission control** — an optional bound `B` on `k_m`:
//!    a gradient pushed with `k_m > B` is dropped, never applied.
//!    Per-worker staleness EMAs score stragglers; a worker declared
//!    permanently slow donates half its data shard to the fastest healthy
//!    peer (delivered through a pull directive).
//! 3. **Fallback ladder** — demerits (NaN pushes, norm spikes, over-bound
//!    staleness, bad loss-predictor forecasts) demote a worker one rung,
//!    LC-ASGD → DC-ASGD → plain ASGD; a long streak of cleanly admitted
//!    gradients promotes it back, never above the run's base algorithm.

use crate::algorithms::Algorithm;
use std::collections::VecDeque;
use std::fmt;

/// A rung of the fallback ladder: which algorithm a worker's next
/// iteration runs. Ordered best-first — [`AlgoMode::Lc`] is the top rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoMode {
    /// LC-ASGD: two-phase pull → state → compensated backward.
    Lc,
    /// DC-ASGD: plain worker iteration, Formula 3 compensation at the
    /// server against the weights snapshotted at pull.
    Dc,
    /// Plain ASGD: no compensation.
    Asgd,
}

impl AlgoMode {
    /// The rung `algorithm`'s workers start on.
    pub fn base(algorithm: Algorithm) -> AlgoMode {
        match algorithm {
            Algorithm::LcAsgd => AlgoMode::Lc,
            Algorithm::DcAsgd => AlgoMode::Dc,
            _ => AlgoMode::Asgd,
        }
    }

    /// Wire tag (see the pull-directive codec in `protocol`).
    pub fn as_u8(self) -> u8 {
        match self {
            AlgoMode::Lc => 0,
            AlgoMode::Dc => 1,
            AlgoMode::Asgd => 2,
        }
    }

    /// Inverse of [`AlgoMode::as_u8`].
    pub fn from_u8(tag: u8) -> Option<AlgoMode> {
        match tag {
            0 => Some(AlgoMode::Lc),
            1 => Some(AlgoMode::Dc),
            2 => Some(AlgoMode::Asgd),
            _ => None,
        }
    }

    /// Ladder position: 0 = best (LC), 2 = worst (plain ASGD).
    fn rung(self) -> u8 {
        self.as_u8()
    }

    fn from_rung(r: u8) -> AlgoMode {
        AlgoMode::from_u8(r.min(2)).expect("rung in range")
    }
}

impl fmt::Display for AlgoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlgoMode::Lc => "lc-asgd",
            AlgoMode::Dc => "dc-asgd",
            AlgoMode::Asgd => "asgd",
        })
    }
}

/// Thresholds of the health state machine. The defaults are deliberately
/// conservative — they only fire on clearly pathological behavior.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Bound `B` on admitted staleness `k_m`; `None` = unbounded. A
    /// gradient pushed with `k_m > B` is dropped.
    pub staleness_bound: Option<u32>,
    /// A gradient whose L2 norm exceeds `grad_norm_factor ×` the running
    /// EMA of admitted norms is a spike (discarded, one strike).
    pub grad_norm_factor: f32,
    /// Admitted gradients before the norm sentinel arms.
    pub grad_norm_warmup: u32,
    /// Norm-spike strikes before the worker is quarantined.
    pub quarantine_strikes: u32,
    /// Quarantine length, in arrivals: pushes from any worker reaching
    /// [`Supervisor::admit`], admitted or not. (Not applied updates: those
    /// stop coming once every worker is quarantined, and a clock that only
    /// admitted pushes advance would never release anyone again.)
    pub quarantine_arrivals: u64,
    /// Sliding window (in applied updates) of the loss-explosion detector.
    pub loss_window: usize,
    /// The window mean exploding past `explode_factor ×` the best window
    /// mean triggers a rollback.
    pub explode_factor: f32,
    /// Take a last-good snapshot every this many applied updates (only
    /// while the loss window is healthy).
    pub snapshot_every: u64,
    /// Rollback budget; once spent, explosions are reported but the run
    /// keeps going forward.
    pub max_rollbacks: u32,
    /// Demerits that demote a worker one rung.
    pub demote_after: u32,
    /// Cleanly admitted gradients in a row that promote one rung back.
    pub promote_after: u32,
    /// A loss forecast counts against the predictor when its absolute
    /// error exceeds `pred_err_ratio ×` the actual loss magnitude.
    pub pred_err_ratio: f32,
    /// A worker whose staleness EMA exceeds `straggler_factor ×` the
    /// median of its peers is declared permanently slow.
    pub straggler_factor: f32,
    /// Arrivals before a worker participates in straggler scoring.
    pub straggler_min_arrivals: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            staleness_bound: None,
            grad_norm_factor: 8.0,
            grad_norm_warmup: 8,
            quarantine_strikes: 2,
            quarantine_arrivals: 30,
            loss_window: 12,
            explode_factor: 3.0,
            snapshot_every: 20,
            max_rollbacks: 4,
            demote_after: 3,
            promote_after: 50,
            pred_err_ratio: 1.0,
            straggler_factor: 4.0,
            straggler_min_arrivals: 16,
        }
    }
}

/// One health transition, recorded at the applied-update count it
/// happened at.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthEvent {
    /// A pushed gradient (or its loss) contained NaN/Inf.
    NanGradient { worker: usize },
    /// A gradient norm exceeded the spike threshold.
    NormSpike { worker: usize, norm: f32, limit: f32 },
    /// A worker's pushes are discarded until the server has seen the
    /// given number of arrivals.
    Quarantined { worker: usize, until_arrival: u64 },
    /// A quarantine expired.
    Released { worker: usize },
    /// The loss window mean exploded past the threshold.
    LossExplosion { window_mean: f32, baseline: f32 },
    /// The model was restored to the snapshot taken at `to_update`.
    RolledBack { to_update: u64 },
    /// An over-bound gradient was dropped.
    StalenessRejected { worker: usize, staleness: u32, bound: u32 },
    /// A worker moved one rung down the ladder.
    Demoted { worker: usize, from: AlgoMode, to: AlgoMode },
    /// A worker moved one rung back up after sustained clean behavior.
    Promoted { worker: usize, from: AlgoMode, to: AlgoMode },
    /// A straggler donated `moved` shard examples to worker `to`.
    StragglerResharded { worker: usize, to: usize, moved: usize },
    /// The primary parameter server was killed and its hot standby
    /// promoted, discarding `lost_updates` unreplicated updates.
    Failover { from_epoch: u64, to_epoch: u64, lost_updates: u64 },
    /// The standby duplex closed (or stopped acknowledging) mid-run and
    /// the primary degraded to unreplicated mode instead of aborting.
    StandbyLost { at_update: u64 },
}

impl HealthEvent {
    /// The worker the event concerns, if any (the loss explosion and
    /// rollback are server-global).
    pub fn worker(&self) -> Option<usize> {
        match self {
            HealthEvent::NanGradient { worker }
            | HealthEvent::NormSpike { worker, .. }
            | HealthEvent::Quarantined { worker, .. }
            | HealthEvent::Released { worker }
            | HealthEvent::StalenessRejected { worker, .. }
            | HealthEvent::Demoted { worker, .. }
            | HealthEvent::Promoted { worker, .. }
            | HealthEvent::StragglerResharded { worker, .. } => Some(*worker),
            HealthEvent::LossExplosion { .. }
            | HealthEvent::RolledBack { .. }
            | HealthEvent::Failover { .. }
            | HealthEvent::StandbyLost { .. } => None,
        }
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthEvent::NanGradient { worker } => write!(f, "nan-gradient worker={worker}"),
            HealthEvent::NormSpike { worker, norm, limit } => {
                write!(f, "norm-spike worker={worker} norm={norm:.3e} limit={limit:.3e}")
            }
            HealthEvent::Quarantined { worker, until_arrival } => {
                write!(f, "quarantined worker={worker} until-arrival={until_arrival}")
            }
            HealthEvent::Released { worker } => write!(f, "released worker={worker}"),
            HealthEvent::LossExplosion { window_mean, baseline } => {
                write!(f, "loss-explosion mean={window_mean:.4} baseline={baseline:.4}")
            }
            HealthEvent::RolledBack { to_update } => {
                write!(f, "rolled-back to-update={to_update}")
            }
            HealthEvent::StalenessRejected { worker, staleness, bound } => {
                write!(f, "staleness-rejected worker={worker} km={staleness} bound={bound}")
            }
            HealthEvent::Demoted { worker, from, to } => {
                write!(f, "demoted worker={worker} from={from} to={to}")
            }
            HealthEvent::Promoted { worker, from, to } => {
                write!(f, "promoted worker={worker} from={from} to={to}")
            }
            HealthEvent::StragglerResharded { worker, to, moved } => {
                write!(f, "straggler-resharded worker={worker} to={to} moved={moved}")
            }
            HealthEvent::Failover { from_epoch, to_epoch, lost_updates } => {
                write!(
                    f,
                    "failover from-epoch={from_epoch} to-epoch={to_epoch} \
                     lost-updates={lost_updates}"
                )
            }
            HealthEvent::StandbyLost { at_update } => {
                write!(f, "standby-lost at-update={at_update} (replication degraded)")
            }
        }
    }
}

/// Everything the supervisor observed and decided during a run, in
/// decision order. Returned in `RunResult::health`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// `(applied-update count at decision time, event)`.
    pub events: Vec<(u64, HealthEvent)>,
    /// Gradients discarded while their pusher was quarantined.
    pub quarantine_drops: u64,
}

impl HealthReport {
    fn count(&self, pred: impl Fn(&HealthEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Quarantine entries.
    pub fn quarantines(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::Quarantined { .. }))
    }

    /// Rollbacks actually performed.
    pub fn rollbacks(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::RolledBack { .. }))
    }

    /// Ladder demotions.
    pub fn demotions(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::Demoted { .. }))
    }

    /// Ladder promotions.
    pub fn promotions(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::Promoted { .. }))
    }

    /// Over-bound gradients dropped.
    pub fn rejected(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::StalenessRejected { .. }))
    }

    /// Shard reassignments.
    pub fn reshards(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::StragglerResharded { .. }))
    }

    /// Primary kills / standby promotions.
    pub fn failovers(&self) -> usize {
        self.count(|e| matches!(e, HealthEvent::Failover { .. }))
    }

    /// One line per event: `at-update=N <event>` — the `--health-log`
    /// file format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (at, ev) in &self.events {
            out.push_str(&format!("at-update={at} {ev}\n"));
        }
        out
    }
}

/// The admission verdict for one pushed gradient.
pub struct Admission {
    /// The gradient to apply, or `None` to discard.
    pub grads: Option<Vec<f32>>,
    /// The loss window diverged: the trainer should restore the last-good
    /// snapshot and then call [`Supervisor::rolled_back`].
    pub rollback: bool,
}

/// The server-side health state machine. One instance per run, driven
/// entirely from `server_fn`.
pub struct Supervisor {
    cfg: SupervisorConfig,
    /// The run's configured algorithm — the ladder's top rung.
    base: AlgoMode,
    modes: Vec<AlgoMode>,
    /// Pushes seen by [`Supervisor::admit`], admitted or not: the clock
    /// quarantines run on.
    seen: u64,
    // Norm sentinel: global EMA over admitted gradient norms (and, slowly,
    // over rejected ones).
    norm_ema: f32,
    norm_n: u32,
    strikes: Vec<u32>,
    /// The arrival count (`seen`) each quarantined worker is held out until.
    quarantined_until: Vec<Option<u64>>,
    // Ladder bookkeeping.
    demerits: Vec<u32>,
    clean: Vec<u32>,
    // Straggler scoring.
    stale_ema: Vec<f32>,
    arrivals: Vec<u32>,
    resharded: Vec<bool>,
    shards: Option<Vec<Vec<usize>>>,
    pending_shard: Vec<Option<Vec<usize>>>,
    // Loss-explosion detector.
    window: VecDeque<f32>,
    best_window: Option<f32>,
    rollbacks: u32,
    report: HealthReport,
    emitted: usize,
}

impl Supervisor {
    /// A supervisor for `m` workers running `base` as the configured
    /// algorithm.
    pub fn new(cfg: SupervisorConfig, base: AlgoMode, m: usize) -> Self {
        Supervisor {
            cfg,
            base,
            modes: vec![base; m],
            seen: 0,
            norm_ema: 0.0,
            norm_n: 0,
            strikes: vec![0; m],
            quarantined_until: vec![None; m],
            demerits: vec![0; m],
            clean: vec![0; m],
            stale_ema: vec![0.0; m],
            arrivals: vec![0; m],
            resharded: vec![false; m],
            shards: None,
            pending_shard: vec![None; m],
            window: VecDeque::new(),
            best_window: None,
            rollbacks: 0,
            report: HealthReport::default(),
            emitted: 0,
        }
    }

    /// Installs the worker → shard table straggler reassignment moves
    /// indices between. Without it, stragglers are still scored but never
    /// resharded.
    pub fn set_shards(&mut self, shards: Vec<Vec<usize>>) {
        self.shards = Some(shards);
    }

    /// The ladder rung worker `w` should run its next iteration on.
    pub fn mode(&self, w: usize) -> AlgoMode {
        self.modes[w]
    }

    /// A shard replacement waiting to be delivered to `w`'s next pull.
    pub fn take_pending_shard(&mut self, w: usize) -> Option<Vec<usize>> {
        self.pending_shard[w].take()
    }

    /// Events recorded since the last call — for trace-instant emission.
    /// The full list stays in the report.
    pub fn drain_new_events(&mut self) -> Vec<(u64, HealthEvent)> {
        let new = self.report.events[self.emitted..].to_vec();
        self.emitted = self.report.events.len();
        new
    }

    /// Consumes the supervisor, yielding the run's health report.
    pub fn into_report(self) -> HealthReport {
        self.report
    }

    /// Records a primary-kill failover on the health timeline (the
    /// trainer calls this at promotion; the supervisor itself has no
    /// visibility into replication).
    pub fn record_failover(
        &mut self,
        applied: u64,
        from_epoch: u64,
        to_epoch: u64,
        lost_updates: u64,
    ) {
        self.event(applied, HealthEvent::Failover { from_epoch, to_epoch, lost_updates });
    }

    /// Records a standby loss — the replication stream degraded to
    /// unreplicated mode instead of aborting the run (the trainer calls
    /// this when the standby duplex closes or stops acknowledging).
    pub fn record_standby_lost(&mut self, applied: u64) {
        self.event(applied, HealthEvent::StandbyLost { at_update: applied });
    }

    fn event(&mut self, applied: u64, ev: HealthEvent) {
        self.report.events.push((applied, ev));
    }

    fn quarantine(&mut self, w: usize, applied: u64) {
        let until = self.seen + self.cfg.quarantine_arrivals;
        self.quarantined_until[w] = Some(until);
        self.strikes[w] = 0;
        self.event(applied, HealthEvent::Quarantined { worker: w, until_arrival: until });
    }

    /// Adds `n` demerits to worker `w`, demoting it one rung when the
    /// threshold is crossed. Any demerit breaks the clean streak.
    fn demerit(&mut self, w: usize, applied: u64, n: u32) {
        self.clean[w] = 0;
        self.demerits[w] += n;
        if self.demerits[w] >= self.cfg.demote_after {
            self.demerits[w] = 0;
            let from = self.modes[w];
            if from.rung() < 2 {
                let to = AlgoMode::from_rung(from.rung() + 1);
                self.modes[w] = to;
                self.event(applied, HealthEvent::Demoted { worker: w, from, to });
            }
        }
    }

    /// Records a cleanly admitted gradient; a long enough streak promotes
    /// the worker one rung back toward the base algorithm.
    fn reward(&mut self, w: usize, applied: u64) {
        self.clean[w] += 1;
        if self.clean[w] >= self.cfg.promote_after && self.modes[w].rung() > self.base.rung() {
            self.clean[w] = 0;
            let from = self.modes[w];
            let to = AlgoMode::from_rung(from.rung() - 1);
            self.modes[w] = to;
            self.event(applied, HealthEvent::Promoted { worker: w, from, to });
        }
    }

    /// Scores the loss predictor's one-step forecast against the realized
    /// loss (the predictor-health watchdog feeding the ladder).
    pub fn observe_prediction(
        &mut self,
        w: usize,
        applied: u64,
        forecast: Option<f32>,
        actual: f32,
    ) {
        let Some(fc) = forecast else { return };
        if !actual.is_finite() {
            // The NaN sentinel handles the pushed loss itself; a garbage
            // actual says nothing about the predictor.
            return;
        }
        let err = (fc - actual).abs();
        if !fc.is_finite() || err > self.cfg.pred_err_ratio * actual.abs().max(1e-3) {
            self.demerit(w, applied, 1);
        }
    }

    /// Whether the trainer should snapshot last-good state at this
    /// applied-update count: on the configured cadence, and only while
    /// the loss window looks healthy (never snapshot mid-explosion).
    pub fn should_snapshot(&self, applied: u64) -> bool {
        if applied == 0 || !applied.is_multiple_of(self.cfg.snapshot_every) {
            return false;
        }
        match (self.window_mean(), self.best_window) {
            (Some(mean), Some(best)) => mean <= self.cfg.explode_factor * best,
            _ => true,
        }
    }

    /// The trainer restored the snapshot taken at `to_update`. Clears the
    /// loss window so the detector re-arms from the restored state.
    pub fn rolled_back(&mut self, applied: u64, to_update: u64) {
        self.rollbacks += 1;
        self.window.clear();
        self.event(applied, HealthEvent::RolledBack { to_update });
    }

    fn window_mean(&self) -> Option<f32> {
        if self.window.len() < self.cfg.loss_window.max(1) {
            return None;
        }
        Some(self.window.iter().sum::<f32>() / self.window.len() as f32)
    }

    /// Declares stragglers and computes the shard donation. Called on
    /// every arrival; cheap (O(m)) and deterministic.
    fn straggler_check(&mut self, w: usize, applied: u64) {
        let Some(shards) = &mut self.shards else { return };
        if self.resharded[w]
            || self.arrivals[w] < self.cfg.straggler_min_arrivals
            || shards[w].len() < 2
        {
            return;
        }
        // Median staleness EMA over the *other* scored workers.
        let mut peers: Vec<f32> = (0..self.stale_ema.len())
            .filter(|&p| p != w && self.arrivals[p] >= self.cfg.straggler_min_arrivals)
            .map(|p| self.stale_ema[p])
            .collect();
        if peers.is_empty() {
            return;
        }
        peers.sort_by(|a, b| a.partial_cmp(b).expect("EMAs are finite"));
        let median = peers[peers.len() / 2];
        if self.stale_ema[w] <= self.cfg.straggler_factor * median.max(0.5) {
            return;
        }
        // Recipient: the scored peer with the lowest staleness EMA.
        let Some(to) = (0..self.stale_ema.len())
            .filter(|&p| p != w && self.arrivals[p] >= self.cfg.straggler_min_arrivals)
            .min_by(|&a, &b| {
                self.stale_ema[a].partial_cmp(&self.stale_ema[b]).expect("EMAs are finite")
            })
        else {
            return;
        };
        let keep = shards[w].len() / 2;
        let donated: Vec<usize> = shards[w].split_off(keep);
        shards[to].extend_from_slice(&donated);
        let moved = donated.len();
        self.pending_shard[w] = Some(shards[w].clone());
        self.pending_shard[to] = Some(shards[to].clone());
        self.resharded[w] = true;
        self.event(applied, HealthEvent::StragglerResharded { worker: w, to, moved });
    }

    /// The admission decision for one pushed gradient: worker `w`, the
    /// server having applied `applied` updates, observed staleness
    /// `stale`, the decompressed gradient, and the pushed loss.
    pub fn admit(
        &mut self,
        w: usize,
        applied: u64,
        stale: u32,
        grads: Vec<f32>,
        loss: f32,
    ) -> Admission {
        /// How fast the spike baseline follows a *rejected* norm, against
        /// 0.1 for an admitted one.
        const REJECTED_NORM_RATE: f32 = 0.02;
        let discard = |rollback| Admission { grads: None, rollback };

        // Straggler scoring sees every arrival, even ones about to be
        // discarded — slowness is a property of the worker, not of the
        // payload.
        self.seen += 1;
        self.arrivals[w] += 1;
        self.stale_ema[w] = 0.8 * self.stale_ema[w] + 0.2 * stale as f32;
        self.straggler_check(w, applied);

        // Quarantine gate (with release check). The clock is arrivals, which
        // a quarantined worker's own dropped pushes advance too: however
        // many workers are held out, each is released in bounded time.
        if let Some(until) = self.quarantined_until[w] {
            if self.seen < until {
                self.report.quarantine_drops += 1;
                return discard(false);
            }
            self.quarantined_until[w] = None;
            self.event(applied, HealthEvent::Released { worker: w });
        }

        // NaN/Inf sentinel: instant quarantine + a full rung of demerits.
        if !loss.is_finite() || grads.iter().any(|g| !g.is_finite()) {
            self.event(applied, HealthEvent::NanGradient { worker: w });
            self.quarantine(w, applied);
            self.demerit(w, applied, self.cfg.demote_after);
            return discard(false);
        }

        // Norm-spike sentinel.
        let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        if self.norm_n >= self.cfg.grad_norm_warmup {
            let limit = self.cfg.grad_norm_factor * self.norm_ema;
            if norm > limit {
                self.event(applied, HealthEvent::NormSpike { worker: w, norm, limit });
                self.strikes[w] += 1;
                self.demerit(w, applied, 1);
                if self.strikes[w] >= self.cfg.quarantine_strikes {
                    self.quarantine(w, applied);
                }
                // The baseline learns from what it rejects, slowly and no
                // further than the limit it just enforced: when the norms
                // have genuinely moved (near convergence they swing by
                // more than the factor) it catches up instead of striking
                // every worker against a stale value, and a garbage payload
                // cannot drag it anywhere.
                self.norm_ema += REJECTED_NORM_RATE * (limit - self.norm_ema);
                return discard(false);
            }
        }

        // Staleness admission.
        if let Some(bound) = self.cfg.staleness_bound {
            if stale > bound {
                self.demerit(w, applied, 1);
                self.event(
                    applied,
                    HealthEvent::StalenessRejected { worker: w, staleness: stale, bound },
                );
                return discard(false);
            }
        }

        // Admitted: feed the norm EMA, score the loss window, reward the
        // clean streak.
        self.norm_ema = if self.norm_n == 0 { norm } else { 0.9 * self.norm_ema + 0.1 * norm };
        self.norm_n += 1;

        self.window.push_back(loss);
        while self.window.len() > self.cfg.loss_window.max(1) {
            self.window.pop_front();
        }
        let mut rollback = false;
        if let Some(mean) = self.window_mean() {
            match self.best_window {
                None => self.best_window = Some(mean),
                Some(best) if mean < best => self.best_window = Some(mean),
                Some(best) => {
                    if mean > self.cfg.explode_factor * best
                        && self.rollbacks < self.cfg.max_rollbacks
                    {
                        self.event(
                            applied,
                            HealthEvent::LossExplosion { window_mean: mean, baseline: best },
                        );
                        // The caller restores the snapshot (if one exists)
                        // and reports back via `rolled_back`; clear the
                        // window either way so the detector re-arms
                        // instead of firing on every arrival.
                        self.window.clear();
                        rollback = true;
                    }
                }
            }
        }

        self.reward(w, applied);
        Admission { grads: Some(grads), rollback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            grad_norm_warmup: 2,
            quarantine_strikes: 2,
            quarantine_arrivals: 5,
            loss_window: 3,
            explode_factor: 2.0,
            demote_after: 2,
            promote_after: 3,
            straggler_min_arrivals: 4,
            ..SupervisorConfig::default()
        }
    }

    fn admit_ok(s: &mut Supervisor, w: usize, applied: u64, loss: f32) -> Admission {
        s.admit(w, applied, 0, vec![0.1, -0.1], loss)
    }

    #[test]
    fn nan_gradient_quarantines_and_demotes() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Lc, 2);
        let a = s.admit(0, 10, 0, vec![f32::NAN, 0.0], 1.0);
        assert!(a.grads.is_none());
        assert_eq!(s.mode(0), AlgoMode::Dc, "full rung of demerits on NaN");
        assert!(s.quarantined_until[0] == Some(6), "arrival 1 + 5");
        // Pushes during quarantine are dropped without new events.
        let before = s.report.events.len();
        assert!(admit_ok(&mut s, 0, 10, 1.0).grads.is_none());
        assert_eq!(s.report.events.len(), before);
        assert_eq!(s.report.quarantine_drops, 1);
        // Worker 1's arrivals advance the clock too; the sixth arrival is
        // past the release point and worker 0 is admitted again.
        for applied in 10..13 {
            assert!(admit_ok(&mut s, 1, applied, 1.0).grads.is_some());
        }
        let a = admit_ok(&mut s, 0, 13, 1.0);
        assert!(a.grads.is_some());
        assert!(s
            .report
            .events
            .iter()
            .any(|(_, e)| matches!(e, HealthEvent::Released { worker: 0 })));
    }

    #[test]
    fn second_nan_storm_reaches_plain_asgd() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Lc, 1);
        // Four dropped pushes sit a five-arrival quarantine out.
        let sit_out = |s: &mut Supervisor| {
            for _ in 0..4 {
                assert!(admit_ok(s, 0, 0, 1.0).grads.is_none());
            }
        };
        s.admit(0, 0, 0, vec![f32::INFINITY], 1.0);
        assert_eq!(s.mode(0), AlgoMode::Dc);
        sit_out(&mut s);
        s.admit(0, 0, 0, vec![f32::NAN], 1.0); // past the release point
        assert_eq!(s.mode(0), AlgoMode::Asgd);
        // The ladder has a floor.
        sit_out(&mut s);
        s.admit(0, 0, 0, vec![f32::NAN], 1.0);
        assert_eq!(s.mode(0), AlgoMode::Asgd);
        assert_eq!(s.into_report().demotions(), 2);
    }

    /// ROADMAP item 1's absorbing state: with every worker quarantined no
    /// update applies, so a quarantine counted in applied updates never
    /// ends. Counted in arrivals it does, whatever `applied` is doing.
    #[test]
    fn quarantining_every_worker_still_releases_them() {
        let m = 4;
        let mut s = Supervisor::new(cfg(), AlgoMode::Lc, m);
        for w in 0..m {
            s.admit(w, 7, 0, vec![f32::NAN], 1.0);
        }
        assert!(s.quarantined_until.iter().all(Option::is_some), "all four are held out");
        // Nothing applies from here on: `applied` stays at 7.
        // Worker `w` went in at arrival `w + 1`, until arrival `w + 6`; the
        // next round of pushes (arrivals 5–8) is dropped, one short each.
        let dropped = (0..).find(|i| admit_ok(&mut s, i % m, 7, 1.0).grads.is_some());
        assert_eq!(dropped, Some(m), "the first clean push after one quarantine length");
        let admitted = (1..m).filter(|&w| admit_ok(&mut s, w, 7, 1.0).grads.is_some()).count();
        assert_eq!(admitted, m - 1, "and every other worker's with it");
    }

    #[test]
    fn the_spike_baseline_follows_rejected_norms_to_a_new_level() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Asgd, 1);
        for i in 0..3 {
            assert!(admit_ok(&mut s, 0, i, 1.0).grads.is_some());
        }
        // The gradient scale moves by 20× for good (factor 8): judged only
        // against admitted norms the worker would be struck forever.
        let pushes =
            (0..200).take_while(|_| s.admit(0, 3, 0, vec![2.0, -2.0], 1.0).grads.is_none());
        let rejected = pushes.count();
        assert!((2..60).contains(&rejected), "admitted after {rejected} rejections");
        // A garbage payload moves the baseline no further than a spike at
        // the limit does.
        let before = s.norm_ema;
        assert!(s.admit(0, 4, 0, vec![1e30, 1e30], 1.0).grads.is_none());
        assert!(s.norm_ema < before * 1.2, "{} -> {}", before, s.norm_ema);
    }

    #[test]
    fn norm_spikes_strike_then_quarantine() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Asgd, 2);
        for i in 0..3 {
            assert!(admit_ok(&mut s, 1, i, 1.0).grads.is_some());
        }
        // EMA ≈ norm of [0.1, -0.1]; a 1000× gradient is a spike.
        let spike = vec![100.0, -100.0];
        assert!(s.admit(0, 3, 0, spike.clone(), 1.0).grads.is_none());
        assert_eq!(s.quarantined_until[0], None, "first strike only");
        assert!(s.admit(0, 4, 0, spike, 1.0).grads.is_none());
        assert!(s.quarantined_until[0].is_some(), "second strike quarantines");
        let r = s.into_report();
        assert_eq!(r.quarantines(), 1);
        assert_eq!(r.count(|e| matches!(e, HealthEvent::NormSpike { .. })), 2);
    }

    #[test]
    fn reject_policy_never_admits_over_bound() {
        let mut c = cfg();
        c.staleness_bound = Some(2);
        let mut s = Supervisor::new(c, AlgoMode::Asgd, 1);
        for stale in [0u32, 1, 2, 3, 7, 2, 9] {
            let a = s.admit(0, 0, stale, vec![0.1], 1.0);
            assert_eq!(a.grads.is_some(), stale <= 2, "stale {stale}");
        }
        assert_eq!(s.into_report().rejected(), 3);
    }

    #[test]
    fn loss_explosion_requests_one_rollback_then_rearms() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Asgd, 1);
        for i in 0..4 {
            assert!(!admit_ok(&mut s, 0, i, 1.0).rollback);
        }
        // Window of 3 at mean 1.0 is the baseline. One elevated loss
        // stays under the threshold (mean [1,1,3] ≈ 1.67 < 2); sustained
        // elevation crosses it (mean [1,3,3] ≈ 2.33 > 2).
        assert!(!admit_ok(&mut s, 0, 4, 3.0).rollback);
        let a = admit_ok(&mut s, 0, 5, 3.0);
        assert!(a.rollback, "sustained window mean > 2 × baseline 1");
        s.rolled_back(5, 0);
        // Re-armed: the very next loss does not re-trigger.
        assert!(!admit_ok(&mut s, 0, 6, 3.0).rollback);
        let r = s.into_report();
        assert_eq!(r.rollbacks(), 1);
        assert_eq!(r.count(|e| matches!(e, HealthEvent::LossExplosion { .. })), 1);
    }

    #[test]
    fn rollback_budget_is_finite() {
        let mut c = cfg();
        c.max_rollbacks = 1;
        let mut s = Supervisor::new(c, AlgoMode::Asgd, 1);
        for i in 0..4 {
            admit_ok(&mut s, 0, i, 1.0);
        }
        for i in 4..7 {
            admit_ok(&mut s, 0, i, 50.0);
        }
        s.rolled_back(6, 0);
        // Budget spent: further explosions are not requested.
        for i in 7..20 {
            assert!(!admit_ok(&mut s, 0, i, 50.0).rollback);
        }
    }

    #[test]
    fn predictor_watchdog_demotes_lc_worker() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Lc, 1);
        s.observe_prediction(0, 0, Some(1.0), 1.1); // fine
        assert_eq!(s.mode(0), AlgoMode::Lc);
        s.observe_prediction(0, 1, Some(10.0), 1.0); // 9× off
        s.observe_prediction(0, 2, Some(-5.0), 1.0);
        assert_eq!(s.mode(0), AlgoMode::Dc, "two bad forecasts = demote_after");
    }

    #[test]
    fn clean_streak_promotes_back_to_base_but_not_above() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Dc, 1);
        s.admit(0, 0, 0, vec![f32::NAN], 1.0); // → Asgd (full demerits)
        assert_eq!(s.mode(0), AlgoMode::Asgd);
        for i in 0..10u64 {
            admit_ok(&mut s, 0, 10 + i, 1.0);
        }
        assert_eq!(s.mode(0), AlgoMode::Dc, "promoted one rung, capped at base");
        assert_eq!(s.into_report().promotions(), 1);
    }

    #[test]
    fn straggler_donates_half_its_shard_to_the_fastest_peer() {
        let mut c = cfg();
        c.straggler_min_arrivals = 2;
        c.straggler_factor = 2.0;
        let mut s = Supervisor::new(c, AlgoMode::Asgd, 3);
        s.set_shards(vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7]]);
        // Workers 1 and 2 arrive fresh; worker 0 arrives very stale.
        for i in 0..4 {
            s.admit(1, i, 0, vec![0.1], 1.0);
            s.admit(2, i, 1, vec![0.1], 1.0);
        }
        for i in 0..4 {
            s.admit(0, 4 + i, 40, vec![0.1], 1.0);
        }
        let shard0 = s.take_pending_shard(0).expect("straggler gets a reduced shard");
        let shard1 = s.take_pending_shard(1).expect("fastest peer absorbs the donation");
        assert_eq!(shard0, vec![0, 1]);
        assert_eq!(shard1, vec![4, 5, 2, 3]);
        assert!(s.take_pending_shard(2).is_none());
        let r = s.into_report();
        assert_eq!(r.reshards(), 1);
        assert!(matches!(
            r.events.iter().find(|(_, e)| matches!(e, HealthEvent::StragglerResharded { .. })),
            Some((_, HealthEvent::StragglerResharded { worker: 0, to: 1, moved: 2 }))
        ));
    }

    #[test]
    fn snapshot_cadence_respects_window_health() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Asgd, 1);
        assert!(!s.should_snapshot(0));
        assert!(s.should_snapshot(20));
        assert!(!s.should_snapshot(21));
        for i in 0..4 {
            admit_ok(&mut s, 0, i, 1.0);
        }
        // Poison the window mean without triggering the explosion path.
        s.best_window = Some(0.001);
        assert!(!s.should_snapshot(40), "unhealthy window blocks snapshots");
    }

    #[test]
    fn report_text_and_event_display() {
        let mut s = Supervisor::new(cfg(), AlgoMode::Lc, 1);
        s.admit(0, 3, 0, vec![f32::NAN], 1.0);
        let new = s.drain_new_events();
        assert!(!new.is_empty());
        assert!(s.drain_new_events().is_empty(), "drain is incremental");
        let text = s.into_report().to_text();
        assert!(text.contains("at-update=3 nan-gradient worker=0"));
        assert!(text.contains("quarantined worker=0"));
        assert!(text.contains("demoted worker=0 from=lc-asgd to=dc-asgd"));
    }

    #[test]
    fn algo_mode_wire_tags_roundtrip() {
        for m in [AlgoMode::Lc, AlgoMode::Dc, AlgoMode::Asgd] {
            assert_eq!(AlgoMode::from_u8(m.as_u8()), Some(m));
        }
        assert_eq!(AlgoMode::from_u8(9), None);
    }
}
