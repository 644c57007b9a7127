//! Deterministic fault injection shared by every
//! [`ClusterBackend`](crate::ClusterBackend).
//!
//! A [`FaultPlan`] is a schedule of failures — worker crashes (with or
//! without restart), dropped/duplicated/corrupted messages, slow links and
//! partitions, plus an optional server restart — that every backend
//! interprets *identically*. Triggers are indexed by each worker's
//! **link-operation count**: the n-th `request`/`send` a worker issues is
//! op `n`, regardless of wall-clock or virtual time. Because the algorithm
//! layer drives the same protocol over every backend, op indices line up
//! across the simulator, the thread backend and real TCP, and on the
//! deterministic simulator the whole fault timeline replays bit-identically
//! from the plan.
//!
//! Interpretation happens in [`FaultyLink`], a [`WorkerLink`] wrapper the
//! backends install around their native links when a plan is attached
//! (`with_fault_plan`). The few genuinely transport-specific effects —
//! killing a socket, writing a bad-CRC frame, charging virtual instead of
//! wall-clock delay — are delegated to the [`FaultHooks`] trait that each
//! native link implements.
//!
//! ## Uniform semantics
//!
//! * **Crash** — injected *before* the op executes, so no reply is ever in
//!   flight at crash time (the previous request completed fully). The
//!   wrapped link reports the crash to its transport (TCP: the socket dies
//!   without a Goodbye; simulator: the driver is notified so it can charge
//!   the restart delay in virtual time) and the op returns
//!   [`ClusterError::Disconnected`], which unwinds `worker_fn`. With a
//!   restart delay the backend re-invokes `worker_fn` on the same link —
//!   the op counter keeps counting across incarnations — otherwise the
//!   worker is dead for good.
//! * **Drop** — a one-way message silently vanishes. A dropped *request*
//!   can never produce its reply, so it escalates to a crash with
//!   immediate restart: exactly what a real worker does when a request
//!   times out against an unreachable server (reconnect and rejoin).
//! * **Duplicate** — a one-way message is delivered twice (at-least-once
//!   delivery); requests are never duplicated.
//! * **Corrupt** — the message is destroyed in transit. On TCP the link
//!   writes a real frame with a bad CRC (exercising the server's
//!   per-connection rejection path); elsewhere the checksum discard is
//!   modeled as a drop. Corrupted requests escalate like dropped ones.
//! * **Slow / Partition** — the op is delayed (wall-clock on real
//!   transports, virtual time on the simulator) before executing. A
//!   partition is a longer stall that ends when the link heals.
//! * **Server restart** — triggered by applied-update count, not op count,
//!   because only the algorithm layer knows when updates apply; the
//!   trainer checkpoints and halts, and the caller resumes from the
//!   checkpoint.

use crate::backend::{ClusterError, WireMsg, WorkerLink};
use std::fmt;
use std::sync::{Arc, Mutex};

/// One scheduled failure, triggered when `worker`'s link-operation counter
/// reaches `at_op` (0-based: `at_op = 3` fires on the worker's 4th op).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub worker: usize,
    pub at_op: u64,
    pub kind: FaultKind,
}

/// The failure mode of one [`FaultEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The worker process dies before the op. `restart_after_ms: Some(d)`
    /// re-invokes `worker_fn` after `d` (wall or virtual) milliseconds;
    /// `None` is a permanent crash.
    Crash { restart_after_ms: Option<u32> },
    /// The message is lost in transit.
    Drop,
    /// A one-way message is delivered twice.
    Duplicate,
    /// The message is corrupted in transit (fails its checksum).
    Corrupt,
    /// The link stalls for `delay_ms` before delivering.
    SlowLink { delay_ms: u32 },
    /// The link is partitioned; the op stalls until it heals.
    Partition { heal_ms: u32 },
    /// The message's float payload is poisoned to NaN *before* framing, so
    /// it passes every checksum and decodes cleanly — only a semantic
    /// sentinel (NaN detection at the server) can catch it.
    NanGrad,
    /// Valid-CRC payload corruption: deterministic bit flips in the value
    /// payload before framing. The frame CRC and codec both pass; the
    /// values are garbage.
    CorruptPayload,
    /// A sustained straggler: every op for the next `ops` ops (this one
    /// included) is delayed by `delay_ms` before executing.
    Straggle { delay_ms: u32, ops: u32 },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash { restart_after_ms: Some(ms) } => write!(f, "crash(restart {ms}ms)"),
            FaultKind::Crash { restart_after_ms: None } => write!(f, "crash(permanent)"),
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Duplicate => write!(f, "duplicate"),
            FaultKind::Corrupt => write!(f, "corrupt"),
            FaultKind::SlowLink { delay_ms } => write!(f, "slow({delay_ms}ms)"),
            FaultKind::Partition { heal_ms } => write!(f, "partition({heal_ms}ms)"),
            FaultKind::NanGrad => write!(f, "nan-grad"),
            FaultKind::CorruptPayload => write!(f, "corrupt-payload"),
            FaultKind::Straggle { delay_ms, ops } => {
                write!(f, "straggle({delay_ms}ms x {ops} ops)")
            }
        }
    }
}

/// What actually happened during a faulty run, in observation order.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultRecord {
    /// A scheduled fault fired on a worker's op.
    Injected { worker: usize, op: u64, kind: FaultKind },
    /// A crashed worker's `worker_fn` was re-invoked.
    WorkerRestarted { worker: usize, op: u64 },
    /// The server checkpointed and halted at this applied-update count.
    ServerHalted { at_update: u64 },
    /// A run resumed from a checkpoint taken at this update count.
    Resumed { at_update: u64 },
    /// A periodic checkpoint write failed (I/O error). The run continues;
    /// the failure is surfaced here instead of panicking the server.
    CheckpointFailed { at_update: u64, error: String },
    /// The primary parameter server was killed and its hot standby
    /// promoted. `at_update` is the primary's applied count at the kill;
    /// `lost_updates` is how many applied-but-unreplicated updates the
    /// promotion discarded.
    FailedOver { at_update: u64, from_epoch: u64, to_epoch: u64, lost_updates: u64 },
    /// The standby duplex closed (or stopped acknowledging) mid-run. The
    /// run continues *unreplicated* — no further failover is possible —
    /// instead of aborting.
    StandbyLost { at_update: u64, error: String },
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultRecord::Injected { worker, op, kind } => {
                write!(f, "worker {worker} op {op}: {kind}")
            }
            FaultRecord::WorkerRestarted { worker, op } => {
                write!(f, "worker {worker} restarted at op {op}")
            }
            FaultRecord::ServerHalted { at_update } => {
                write!(f, "server halted at update {at_update}")
            }
            FaultRecord::Resumed { at_update } => write!(f, "resumed from update {at_update}"),
            FaultRecord::CheckpointFailed { at_update, error } => {
                write!(f, "checkpoint failed at update {at_update}: {error}")
            }
            FaultRecord::FailedOver { at_update, from_epoch, to_epoch, lost_updates } => {
                write!(
                    f,
                    "primary killed at update {at_update}: standby promoted \
                     (epoch {from_epoch} -> {to_epoch}, {lost_updates} updates lost)"
                )
            }
            FaultRecord::StandbyLost { at_update, error } => {
                write!(f, "standby lost at update {at_update}: {error} (continuing unreplicated)")
            }
        }
    }
}

/// Shared, clonable record of injected faults and recoveries. Backends and
/// the trainer hold clones of the same log; the caller reads it afterward.
///
/// Every record is stamped with the wall-clock instant it was observed, so
/// fault events can be replayed onto a trace timeline.
#[derive(Clone, Default, Debug)]
pub struct FaultLog(Arc<Mutex<Vec<(FaultRecord, std::time::Instant)>>>);

impl FaultLog {
    /// Appends one record, stamped with the current wall-clock instant.
    pub fn push(&self, rec: FaultRecord) {
        self.0.lock().expect("fault log poisoned").push((rec, std::time::Instant::now()));
    }

    /// Snapshot of all records so far.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.0.lock().expect("fault log poisoned").iter().map(|(r, _)| r.clone()).collect()
    }

    /// Snapshot of all records with their observation instants.
    pub fn timed_records(&self) -> Vec<(FaultRecord, std::time::Instant)> {
        self.0.lock().expect("fault log poisoned").clone()
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("fault log poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic schedule of failures for one run.
///
/// Cloning shares the underlying [`FaultLog`], so the copy handed to a
/// backend via `with_fault_plan` reports into the same log the caller (and
/// the trainer) reads.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
    /// Halt-and-checkpoint the server once this many updates have applied.
    pub server_restart_at_update: Option<u64>,
    /// Kill the primary parameter server (promote its hot standby) once
    /// this many updates have applied. Requires the run to have a standby
    /// attached; like the server restart, the trigger is the applied-update
    /// count so it replays identically on every backend.
    pub primary_kill_at_update: Option<u64>,
    log: FaultLog,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one event (builder style).
    pub fn with_event(mut self, worker: usize, at_op: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { worker, at_op, kind });
        self
    }

    /// Schedules the server halt-and-checkpoint (builder style).
    pub fn with_server_restart(mut self, at_update: u64) -> Self {
        self.server_restart_at_update = Some(at_update);
        self
    }

    /// Schedules the primary kill / standby promotion (builder style).
    pub fn with_primary_kill(mut self, at_update: u64) -> Self {
        self.primary_kill_at_update = Some(at_update);
        self
    }

    /// The shared log this plan's injections report into.
    pub fn log(&self) -> FaultLog {
        self.log.clone()
    }

    /// Snapshot of recorded faults/recoveries, sorted into a canonical
    /// order (records from concurrent workers land in the log in
    /// scheduler order; the canonical sort makes runs comparable).
    pub fn records(&self) -> Vec<FaultRecord> {
        let mut recs = self.log.records();
        recs.sort_by_key(|r| match r {
            FaultRecord::Injected { worker, op, .. } => (0, *worker, *op),
            FaultRecord::WorkerRestarted { worker, op } => (1, *worker, *op),
            FaultRecord::ServerHalted { at_update } => (2, 0, *at_update),
            FaultRecord::Resumed { at_update } => (3, 0, *at_update),
            FaultRecord::CheckpointFailed { at_update, .. } => (4, 0, *at_update),
            FaultRecord::FailedOver { at_update, .. } => (5, 0, *at_update),
            FaultRecord::StandbyLost { at_update, .. } => (6, 0, *at_update),
        });
        recs
    }

    /// This worker's events, sorted by trigger op.
    pub fn schedule_for(&self, worker: usize) -> Vec<(u64, FaultKind)> {
        let mut evs: Vec<(u64, FaultKind)> =
            self.events.iter().filter(|e| e.worker == worker).map(|e| (e.at_op, e.kind)).collect();
        evs.sort_by_key(|&(op, _)| op);
        evs
    }

    /// Largest worker index referenced by any event.
    pub fn max_worker(&self) -> Option<usize> {
        self.events.iter().map(|e| e.worker).max()
    }

    /// Generates a seeded random plan: `faults` events spread over
    /// `workers` workers and the op range `[2, horizon_ops)`, mixing every
    /// fault kind (crashes always restart, so the run can finish).
    pub fn generate(seed: u64, workers: usize, horizon_ops: u64, faults: usize) -> Self {
        assert!(workers > 0 && horizon_ops > 2);
        let mut rng = lcasgd_tensor::Rng::seed_from_u64(seed ^ 0xFA_017);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let worker = rng.below(workers);
            let at_op = 2 + (rng.next_u64() % (horizon_ops - 2));
            let kind = match rng.below(5) {
                0 => FaultKind::Crash { restart_after_ms: Some(1 + rng.below(20) as u32) },
                1 => FaultKind::Drop,
                2 => FaultKind::Duplicate,
                3 => FaultKind::Corrupt,
                _ => FaultKind::SlowLink { delay_ms: 1 + rng.below(10) as u32 },
            };
            plan.events.push(FaultEvent { worker, at_op, kind });
        }
        plan
    }

    /// Serializes to the plan text format (the inverse of [`Self::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# lcasgd fault plan v1\n");
        for e in &self.events {
            let line = match e.kind {
                FaultKind::Crash { restart_after_ms: Some(ms) } => {
                    format!("crash worker={} at-op={} restart-ms={ms}\n", e.worker, e.at_op)
                }
                FaultKind::Crash { restart_after_ms: None } => {
                    format!("crash worker={} at-op={}\n", e.worker, e.at_op)
                }
                FaultKind::Drop => format!("drop worker={} at-op={}\n", e.worker, e.at_op),
                FaultKind::Duplicate => format!("dup worker={} at-op={}\n", e.worker, e.at_op),
                FaultKind::Corrupt => format!("corrupt worker={} at-op={}\n", e.worker, e.at_op),
                FaultKind::SlowLink { delay_ms } => {
                    format!("slow worker={} at-op={} delay-ms={delay_ms}\n", e.worker, e.at_op)
                }
                FaultKind::Partition { heal_ms } => {
                    format!("partition worker={} at-op={} heal-ms={heal_ms}\n", e.worker, e.at_op)
                }
                FaultKind::NanGrad => format!("nan worker={} at-op={}\n", e.worker, e.at_op),
                FaultKind::CorruptPayload => {
                    format!("corrupt-payload worker={} at-op={}\n", e.worker, e.at_op)
                }
                FaultKind::Straggle { delay_ms, ops } => format!(
                    "straggle worker={} at-op={} delay-ms={delay_ms} ops={ops}\n",
                    e.worker, e.at_op
                ),
            };
            out.push_str(&line);
        }
        if let Some(at) = self.server_restart_at_update {
            out.push_str(&format!("server-restart at-update={at}\n"));
        }
        if let Some(at) = self.primary_kill_at_update {
            out.push_str(&format!("primary-kill at-update={at}\n"));
        }
        out
    }

    /// Parses the line-oriented plan format written by [`Self::to_text`]:
    /// one event per line, `#` comments, `key=value` fields.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            let verb = toks.next().expect("non-empty line has a first token");
            let mut worker: Option<usize> = None;
            let mut at_op: Option<u64> = None;
            let mut at_update: Option<u64> = None;
            let mut ms: Option<u32> = None;
            let mut op_count: Option<u32> = None;
            for tok in toks {
                let (key, val) = tok.split_once('=').ok_or_else(|| {
                    format!("line {}: expected key=value, got `{tok}`", lineno + 1)
                })?;
                let bad = |e| format!("line {}: bad value for `{key}`: {e}", lineno + 1);
                match key {
                    "worker" => worker = Some(val.parse().map_err(bad)?),
                    "at-op" => at_op = Some(val.parse().map_err(bad)?),
                    "at-update" => at_update = Some(val.parse().map_err(bad)?),
                    "restart-ms" | "delay-ms" | "heal-ms" => ms = Some(val.parse().map_err(bad)?),
                    "ops" => op_count = Some(val.parse().map_err(bad)?),
                    other => {
                        return Err(format!("line {}: unknown field `{other}`", lineno + 1));
                    }
                }
            }
            if verb == "server-restart" {
                plan.server_restart_at_update = Some(at_update.ok_or_else(|| {
                    format!("line {}: server-restart needs at-update=N", lineno + 1)
                })?);
                continue;
            }
            if verb == "primary-kill" {
                plan.primary_kill_at_update = Some(at_update.ok_or_else(|| {
                    format!("line {}: primary-kill needs at-update=N", lineno + 1)
                })?);
                continue;
            }
            let worker =
                worker.ok_or_else(|| format!("line {}: `{verb}` needs worker=N", lineno + 1))?;
            let at_op =
                at_op.ok_or_else(|| format!("line {}: `{verb}` needs at-op=N", lineno + 1))?;
            let kind = match verb {
                "crash" => FaultKind::Crash { restart_after_ms: ms },
                "drop" => FaultKind::Drop,
                "dup" => FaultKind::Duplicate,
                "corrupt" => FaultKind::Corrupt,
                "slow" => FaultKind::SlowLink {
                    delay_ms: ms
                        .ok_or_else(|| format!("line {}: slow needs delay-ms=N", lineno + 1))?,
                },
                "partition" => FaultKind::Partition {
                    heal_ms: ms
                        .ok_or_else(|| format!("line {}: partition needs heal-ms=N", lineno + 1))?,
                },
                "nan" => FaultKind::NanGrad,
                "corrupt-payload" => FaultKind::CorruptPayload,
                "straggle" => FaultKind::Straggle {
                    delay_ms: ms
                        .ok_or_else(|| format!("line {}: straggle needs delay-ms=N", lineno + 1))?,
                    ops: op_count
                        .ok_or_else(|| format!("line {}: straggle needs ops=N", lineno + 1))?,
                },
                other => return Err(format!("line {}: unknown fault `{other}`", lineno + 1)),
            };
            plan.events.push(FaultEvent { worker, at_op, kind });
        }
        Ok(plan)
    }
}

/// Transport-specific effects a [`FaultyLink`] needs from the link it
/// wraps. Defaults fit an in-process channel transport; the TCP and
/// simulator links override what differs.
pub trait FaultHooks {
    /// The transport dies abruptly (no goodbye). Called once per injected
    /// crash, before the op returns `Disconnected`.
    fn fault_crash(&mut self, _restart_after_ms: Option<u32>) {}

    /// Stall the link for `delay_ms` (wall-clock by default; the
    /// simulator charges virtual time instead).
    fn fault_delay(&mut self, delay_ms: u32) {
        std::thread::sleep(std::time::Duration::from_millis(u64::from(delay_ms)));
    }

    /// Emit a deliberately corrupted message if the transport can express
    /// one (TCP writes a bad-CRC frame); by default the corruption is
    /// modeled as the checksum discard, i.e. nothing is sent.
    fn fault_corrupt_wire(&mut self) {}
}

/// What the pre-op fault check decided.
enum Verdict {
    Proceed,
    Crash,
    DropOneway,
    DupOneway,
    CorruptOneway,
    /// Mutate the payload in place (valid-CRC corruption) before sending;
    /// `nan` poisons floats to NaN, otherwise deterministic bit flips
    /// seeded by `seed`.
    Poison {
        nan: bool,
        seed: u64,
    },
}

/// A [`WorkerLink`] wrapper that interprets a worker's slice of a
/// [`FaultPlan`], identically on every backend. Backends install it when a
/// plan is attached and drive the crash/restart loop around `worker_fn`
/// via [`FaultyLink::crashed_restart_ms`] / [`FaultyLink::resume`].
pub struct FaultyLink<L> {
    inner: L,
    worker: usize,
    ops: u64,
    /// This worker's (at_op, kind) events, sorted; `cursor` marks the next
    /// not-yet-fired one.
    schedule: Vec<(u64, FaultKind)>,
    cursor: usize,
    /// Set when a crash fired: `Some(restart)` until handled.
    crashed: Option<Option<u32>>,
    /// Sustained-straggle state: every op with index below `.0` is delayed
    /// by `.1` milliseconds.
    straggle: Option<(u64, u32)>,
    log: FaultLog,
}

impl<L> FaultyLink<L> {
    /// Wraps `inner` with `plan`'s schedule for `worker`.
    pub fn new(inner: L, worker: usize, plan: &FaultPlan) -> Self {
        FaultyLink {
            inner,
            worker,
            ops: 0,
            schedule: plan.schedule_for(worker),
            cursor: 0,
            crashed: None,
            straggle: None,
            log: plan.log(),
        }
    }

    /// After `worker_fn` returns: `Some(delay_ms)` when a crash with
    /// restart fired (re-invoke after the delay), `None` when the worker
    /// finished normally or crashed permanently.
    pub fn crashed_restart_ms(&self) -> Option<u32> {
        self.crashed.flatten()
    }

    /// True when a crash (restarting or permanent) has fired and not been
    /// cleared by [`Self::resume`].
    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// Clears the crash state and records the restart; call right before
    /// re-invoking `worker_fn`.
    pub fn resume(&mut self) {
        self.crashed = None;
        self.log.push(FaultRecord::WorkerRestarted { worker: self.worker, op: self.ops });
    }

    /// Consumes the wrapper, returning the native link.
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// Total link operations issued so far (across incarnations).
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl<L: FaultHooks> FaultyLink<L> {
    /// Advances the op counter, applies any due delays, and decides the
    /// fate of this op. `oneway` selects drop/dup/corrupt semantics.
    fn pre_op(&mut self, oneway: bool) -> Verdict {
        let op = self.ops;
        self.ops += 1;
        let mut verdict = Verdict::Proceed;
        while self.cursor < self.schedule.len() && self.schedule[self.cursor].0 <= op {
            let (at_op, kind) = self.schedule[self.cursor];
            self.cursor += 1;
            // Late events (at_op already behind, e.g. scheduled during a
            // phase the worker skipped) still fire, on this op.
            let _ = at_op;
            self.log.push(FaultRecord::Injected { worker: self.worker, op, kind });
            match kind {
                FaultKind::Crash { restart_after_ms } => {
                    return self.crash(restart_after_ms);
                }
                FaultKind::SlowLink { delay_ms } => self.inner.fault_delay(delay_ms),
                FaultKind::Partition { heal_ms } => self.inner.fault_delay(heal_ms),
                FaultKind::Drop if oneway => verdict = Verdict::DropOneway,
                FaultKind::Corrupt if oneway => verdict = Verdict::CorruptOneway,
                FaultKind::Duplicate if oneway => verdict = Verdict::DupOneway,
                // A lost/garbled request can never complete: the worker
                // times out, reconnects and rejoins — i.e. an immediate
                // restart crash.
                FaultKind::Drop | FaultKind::Corrupt => {
                    return self.crash(Some(0));
                }
                FaultKind::Duplicate => {} // requests are never duplicated
                // Valid-CRC corruption mutates the payload and lets the
                // message through — on requests as well as oneways, since
                // the frame still decodes on the far side. The seed mixes
                // worker and op so each poisoned message is distinct but
                // replays identically.
                FaultKind::NanGrad => {
                    verdict = Verdict::Poison { nan: true, seed: self.poison_seed(op) };
                }
                FaultKind::CorruptPayload => {
                    verdict = Verdict::Poison { nan: false, seed: self.poison_seed(op) };
                }
                FaultKind::Straggle { delay_ms, ops } => {
                    self.straggle = Some((op + u64::from(ops), delay_ms));
                }
            }
        }
        if let Some((until, delay_ms)) = self.straggle {
            if op < until {
                self.inner.fault_delay(delay_ms);
            } else {
                self.straggle = None;
            }
        }
        verdict
    }

    /// Deterministic, never-zero corruption seed mixing worker and op.
    fn poison_seed(&self, op: u64) -> u64 {
        0x9E37_79B9_7F4A_7C15 ^ ((self.worker as u64) << 32) ^ op
    }

    fn crash(&mut self, restart_after_ms: Option<u32>) -> Verdict {
        self.crashed = Some(restart_after_ms);
        self.inner.fault_crash(restart_after_ms);
        Verdict::Crash
    }
}

impl<Req, Resp, L> WorkerLink<Req, Resp> for FaultyLink<L>
where
    Req: WireMsg,
    Resp: WireMsg,
    L: WorkerLink<Req, Resp> + FaultHooks,
{
    fn worker(&self) -> usize {
        self.worker
    }

    fn request(&mut self, req: Req) -> Result<Resp, ClusterError> {
        match self.pre_op(false) {
            Verdict::Crash => Err(ClusterError::Disconnected),
            Verdict::Poison { nan, seed } => {
                let mut req = req;
                req.corrupt_payload(seed, nan);
                self.inner.request(req)
            }
            _ => self.inner.request(req),
        }
    }

    fn send(&mut self, req: Req) -> Result<Option<Req>, ClusterError> {
        match self.pre_op(true) {
            Verdict::Crash => Err(ClusterError::Disconnected),
            Verdict::DropOneway => Ok(Some(req)),
            Verdict::CorruptOneway => {
                self.inner.fault_corrupt_wire();
                Ok(Some(req))
            }
            Verdict::DupOneway => {
                // WireMsg lacks Clone; a codec round trip is the copy.
                let copy = Req::decoded(&req.encoded())?;
                self.inner.send(req)?;
                self.inner.send(copy)
            }
            Verdict::Poison { nan, seed } => {
                let mut req = req;
                req.corrupt_payload(seed, nan);
                self.inner.send(req)
            }
            Verdict::Proceed => self.inner.send(req),
        }
    }

    fn recycle(&mut self, spent: Vec<f32>) {
        self.inner.recycle(spent);
    }

    fn compute(&mut self, nominal: f64) {
        self.inner.compute(nominal);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory link recording what actually went out.
    #[derive(Default)]
    struct Probe {
        sent: Vec<u32>,
        requested: Vec<u32>,
        crashes: Vec<Option<u32>>,
        delays: Vec<u32>,
        corrupts: usize,
    }

    impl WorkerLink<u32, u32> for Probe {
        fn worker(&self) -> usize {
            0
        }
        fn request(&mut self, req: u32) -> Result<u32, ClusterError> {
            self.requested.push(req);
            Ok(req + 100)
        }
        fn send(&mut self, req: u32) -> Result<Option<u32>, ClusterError> {
            self.sent.push(req);
            Ok(None)
        }
    }

    impl FaultHooks for Probe {
        fn fault_crash(&mut self, restart: Option<u32>) {
            self.crashes.push(restart);
        }
        fn fault_delay(&mut self, delay_ms: u32) {
            self.delays.push(delay_ms);
        }
        fn fault_corrupt_wire(&mut self) {
            self.corrupts += 1;
        }
    }

    #[test]
    fn ops_count_and_faults_fire_in_order() {
        let plan = FaultPlan::new()
            .with_event(0, 1, FaultKind::Drop)
            .with_event(0, 3, FaultKind::Duplicate)
            .with_event(0, 5, FaultKind::Crash { restart_after_ms: Some(7) });
        let mut link = FaultyLink::new(Probe::default(), 0, &plan);
        assert_eq!(link.request(1).unwrap(), 101); // op 0
        link.send(2).unwrap(); // op 1: dropped
        link.send(3).unwrap(); // op 2
        link.send(4).unwrap(); // op 3: duplicated
        assert_eq!(link.request(5).unwrap(), 105); // op 4
        assert!(matches!(link.send(6), Err(ClusterError::Disconnected))); // op 5: crash
        assert_eq!(link.crashed_restart_ms(), Some(7));
        link.resume();
        link.send(7).unwrap(); // op 6, post-restart
        let probe = link.into_inner();
        assert_eq!(probe.sent, vec![3, 4, 4, 7]);
        assert_eq!(probe.requested, vec![1, 5]);
        assert_eq!(probe.crashes, vec![Some(7)]);
        assert_eq!(
            plan.records().len(),
            4, // 3 injections + 1 restart
        );
    }

    #[test]
    fn drop_on_request_escalates_to_restart_crash() {
        let plan = FaultPlan::new().with_event(0, 0, FaultKind::Drop);
        let mut link = FaultyLink::new(Probe::default(), 0, &plan);
        assert!(link.request(9).is_err());
        assert_eq!(link.crashed_restart_ms(), Some(0));
        assert!(link.into_inner().requested.is_empty());
    }

    #[test]
    fn corrupt_oneway_uses_the_wire_hook() {
        let plan = FaultPlan::new().with_event(0, 0, FaultKind::Corrupt);
        let mut link = FaultyLink::new(Probe::default(), 0, &plan);
        link.send(1).unwrap();
        let probe = link.into_inner();
        assert_eq!(probe.corrupts, 1);
        assert!(probe.sent.is_empty());
    }

    #[test]
    fn delays_route_through_the_hook() {
        let plan = FaultPlan::new()
            .with_event(0, 0, FaultKind::SlowLink { delay_ms: 3 })
            .with_event(0, 1, FaultKind::Partition { heal_ms: 11 });
        let mut link = FaultyLink::new(Probe::default(), 0, &plan);
        link.send(1).unwrap();
        link.send(2).unwrap();
        assert_eq!(link.into_inner().delays, vec![3, 11]);
    }

    #[test]
    fn permanent_crash_has_no_restart() {
        let plan = FaultPlan::new().with_event(0, 0, FaultKind::Crash { restart_after_ms: None });
        let mut link = FaultyLink::new(Probe::default(), 0, &plan);
        assert!(link.request(1).is_err());
        assert!(link.is_crashed());
        assert_eq!(link.crashed_restart_ms(), None);
    }

    /// A message with a corruptible payload, for exercising the
    /// valid-CRC poison path.
    #[derive(Debug, PartialEq)]
    struct Blob {
        vals: Vec<f32>,
    }

    impl WireMsg for Blob {
        fn encode(&self, buf: &mut Vec<u8>) {
            crate::backend::wire::put_vec_f32(buf, &self.vals);
        }
        fn decode(r: &mut crate::backend::WireReader<'_>) -> Result<Self, ClusterError> {
            Ok(Blob { vals: r.vec_f32()? })
        }
        fn corrupt_payload(&mut self, seed: u64, nan: bool) -> bool {
            for (i, v) in self.vals.iter_mut().enumerate() {
                if nan {
                    *v = f32::NAN;
                } else {
                    *v = f32::from_bits(v.to_bits() ^ (seed as u32).rotate_left(i as u32));
                }
            }
            true
        }
    }

    #[derive(Default)]
    struct BlobProbe {
        sent: Vec<Blob>,
        delays: Vec<u32>,
    }

    impl WorkerLink<Blob, u32> for BlobProbe {
        fn worker(&self) -> usize {
            0
        }
        fn request(&mut self, _req: Blob) -> Result<u32, ClusterError> {
            Ok(0)
        }
        fn send(&mut self, req: Blob) -> Result<Option<Blob>, ClusterError> {
            self.sent.push(req);
            Ok(None)
        }
    }

    impl FaultHooks for BlobProbe {
        fn fault_delay(&mut self, delay_ms: u32) {
            self.delays.push(delay_ms);
        }
    }

    #[test]
    fn nan_poison_passes_through_with_nan_payload() {
        let plan = FaultPlan::new().with_event(0, 1, FaultKind::NanGrad);
        let mut link = FaultyLink::new(BlobProbe::default(), 0, &plan);
        link.send(Blob { vals: vec![1.0, 2.0] }).unwrap(); // op 0: clean
        link.send(Blob { vals: vec![3.0, 4.0] }).unwrap(); // op 1: poisoned
        link.send(Blob { vals: vec![5.0] }).unwrap(); // op 2: clean again
        let probe = link.into_inner();
        assert_eq!(probe.sent.len(), 3, "poisoned messages are delivered, not dropped");
        assert_eq!(probe.sent[0].vals, vec![1.0, 2.0]);
        assert!(probe.sent[1].vals.iter().all(|v| v.is_nan()));
        assert_eq!(probe.sent[2].vals, vec![5.0]);
    }

    #[test]
    fn payload_corruption_is_deterministic_and_non_nan() {
        let plan = FaultPlan::new().with_event(0, 0, FaultKind::CorruptPayload);
        let run = || {
            let mut link = FaultyLink::new(BlobProbe::default(), 0, &plan);
            link.send(Blob { vals: vec![1.0, -2.0, 3.5] }).unwrap();
            link.into_inner().sent
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same plan, same corruption");
        assert_ne!(a[0].vals, vec![1.0, -2.0, 3.5], "values were mutated");
    }

    #[test]
    fn straggle_delays_a_window_of_ops() {
        let plan = FaultPlan::new().with_event(0, 1, FaultKind::Straggle { delay_ms: 9, ops: 3 });
        let mut link = FaultyLink::new(BlobProbe::default(), 0, &plan);
        for _ in 0..6 {
            link.send(Blob { vals: vec![0.0] }).unwrap();
        }
        // Ops 1, 2, 3 are delayed; ops 0, 4, 5 are not.
        assert_eq!(link.into_inner().delays, vec![9, 9, 9]);
    }

    #[test]
    fn text_format_round_trips() {
        let plan = FaultPlan::new()
            .with_event(1, 7, FaultKind::Crash { restart_after_ms: Some(50) })
            .with_event(2, 9, FaultKind::Crash { restart_after_ms: None })
            .with_event(0, 12, FaultKind::Drop)
            .with_event(2, 9, FaultKind::Duplicate)
            .with_event(3, 15, FaultKind::Corrupt)
            .with_event(1, 20, FaultKind::SlowLink { delay_ms: 30 })
            .with_event(2, 25, FaultKind::Partition { heal_ms: 80 })
            .with_event(0, 30, FaultKind::NanGrad)
            .with_event(1, 33, FaultKind::CorruptPayload)
            .with_event(3, 35, FaultKind::Straggle { delay_ms: 12, ops: 6 })
            .with_server_restart(40)
            .with_primary_kill(23);
        let text = plan.to_text();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(back.events, plan.events);
        assert_eq!(back.server_restart_at_update, Some(40));
        assert_eq!(back.primary_kill_at_update, Some(23));
    }

    #[test]
    fn parse_accepts_comments_and_rejects_junk() {
        let plan = FaultPlan::parse("# hi\n\ncrash worker=0 at-op=3 # trailing\n").unwrap();
        assert_eq!(plan.events.len(), 1);
        assert!(FaultPlan::parse("explode worker=0 at-op=1").is_err());
        assert!(FaultPlan::parse("crash worker=0").is_err());
        assert!(FaultPlan::parse("slow worker=0 at-op=1").is_err());
        assert!(FaultPlan::parse("straggle worker=0 at-op=1 delay-ms=3").is_err());
        assert!(FaultPlan::parse("straggle worker=0 at-op=1 ops=3").is_err());
        assert!(FaultPlan::parse("crash worker=x at-op=1").is_err());
        assert!(FaultPlan::parse("server-restart").is_err());
        assert!(FaultPlan::parse("primary-kill").is_err());
        assert_eq!(
            FaultPlan::parse("primary-kill at-update=9").unwrap().primary_kill_at_update,
            Some(9)
        );
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultPlan::generate(11, 4, 50, 8);
        let b = FaultPlan::generate(11, 4, 50, 8);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 8);
        for e in &a.events {
            assert!(e.worker < 4 && e.at_op >= 2 && e.at_op < 50);
            if let FaultKind::Crash { restart_after_ms } = e.kind {
                assert!(restart_after_ms.is_some(), "generated crashes must restart");
            }
        }
        let c = FaultPlan::generate(12, 4, 50, 8);
        assert_ne!(a.events, c.events, "different seed, different plan");
    }

    #[test]
    fn schedule_for_filters_and_sorts() {
        let plan = FaultPlan::new()
            .with_event(1, 9, FaultKind::Drop)
            .with_event(0, 4, FaultKind::Drop)
            .with_event(1, 2, FaultKind::Duplicate);
        assert_eq!(plan.schedule_for(1), vec![(2, FaultKind::Duplicate), (9, FaultKind::Drop)]);
        assert_eq!(plan.schedule_for(0), vec![(4, FaultKind::Drop)]);
        assert!(plan.schedule_for(2).is_empty());
        assert_eq!(plan.max_worker(), Some(1));
    }
}
