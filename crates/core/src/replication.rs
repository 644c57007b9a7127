//! Hot-standby parameter-server replication with fenced, deterministic
//! failover.
//!
//! The parameter server of Algorithm 2 is the single point of failure in
//! an LC-ASGD cluster: workers are expendable (crash/restart is already
//! modeled by the fault plan), but losing the server loses the run. This
//! module makes the server replaceable:
//!
//! * every applied push becomes a sequenced [`LogRecord`] — a write-ahead
//!   update log carrying the weight delta, its CRC-32 digest, and the
//!   apply's side effects (arrival-log entry, BN absorption, per-worker
//!   push sequence number);
//! * a [`StandbyReplica`] is bootstrapped from a
//!   [`TrainingCheckpoint`] snapshot and kept hot by streaming log
//!   deltas over a [`ReplicaDuplex`] — in-process channels on the
//!   simulator and thread backends, CRC-framed loopback TCP on the
//!   network backend;
//! * an [`EpochFence`] enforces at-most-once apply across a failover:
//!   workers carry the server epoch on every Pull/State/Grad, a killed
//!   primary's epoch is fenced off, the standby promotes with `epoch+1`,
//!   and per-worker push sequence numbers (replayed from the log) reject
//!   any delayed duplicate of an already-applied push;
//! * the primary's end of the stream (`ReplicationStream`, driven by the
//!   trainer's server) buffers records, flushes them as acknowledged
//!   batches, ships snapshots, and degrades to an inert no-op — training
//!   continues unreplicated — when the standby stops answering;
//! * a [`Lease`] ties the primary's right to apply writes to recent
//!   standby acknowledgment: a primary whose lease is revoked (the kill)
//!   or expired (wall-clock backends, standby unresponsive) stops
//!   accepting writes until the standby re-acks.
//!
//! ## Determinism
//!
//! Replication is *batched synchronous*: the primary buffers records and
//! flushes every [`StandbyConfig::flush_every`] records as one
//! `Replicate` message, blocking for the `ReplicaAck`. The standby
//! therefore lags the primary by at most `flush_every - 1` applied
//! updates, and the lost tail at a kill is a pure function of the
//! applied-update count — independent of thread timing — so a fault plan
//! that kills the primary at update *k* promotes bit-identical standby
//! state on every run of the deterministic simulator.
//!
//! ## What the log does not carry
//!
//! State-path side effects (LC-ASGD's predictor observations and
//! `log_arrival` calls in the `State` handler) are not logged; they reach
//! the standby only at snapshot refreshes. After a failover the promoted
//! server's predictors therefore resume from the last snapshot and
//! re-adapt online — the same recovery contract as a checkpoint resume.
//!
//! [`ReplicaDuplex`]: lcasgd_simcluster::ReplicaDuplex
//! [`TrainingCheckpoint`]: crate::checkpoint::TrainingCheckpoint

use crate::checkpoint::TrainingCheckpoint;
use crate::protocol::{ClusterReq, ClusterResp};
use crate::shard::ShardSpec;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::backend::wire;
use lcasgd_simcluster::codec::Crc32;
use lcasgd_simcluster::{ClusterError, ReplicaDuplex, WireMsg, WireReader};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

// --------------------------------------------------------------- config

/// Standby attachment options, set via `RunOptions::standby`.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// Log records per synchronous replication flush. The standby lags
    /// the primary by at most `flush_every - 1` applied updates, and a
    /// kill loses at most that many. 1 = fully synchronous.
    pub flush_every: u64,
    /// Lease duration: on wall-clock backends the primary refuses to
    /// apply a write unless the standby acknowledged within this window
    /// (forcing a heartbeat flush first when it has not).
    pub lease: Duration,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig { flush_every: 4, lease: Duration::from_millis(500) }
    }
}

// ------------------------------------------------------------ log record

/// One entry of the write-ahead update log: an applied push *slice* and
/// its server-side effects, sufficient for a replica to replay the
/// apply. Under sharding one applied push produces one record per shard
/// (consecutive `seq`, shard 0..N−1); the last shard's record is the
/// *completing* record and alone carries the push-global side effects
/// (arrival, BN, staleness/loss sample). Unsharded runs emit exactly one
/// record per push, addressed to shard 0, which is therefore always
/// completing.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Global log sequence number (1-based, gap-free).
    pub seq: u64,
    /// Fencing epoch the primary held when it applied this update.
    pub epoch: u64,
    /// Worker whose push was applied.
    pub worker: u32,
    /// The push's dedup sequence number (`(incarnation << 32) | counter`;
    /// 0 for runs without fencing).
    pub push_seq: u64,
    /// Server version *after* the apply.
    pub version: u64,
    /// Staleness of the applied gradient.
    pub staleness: u32,
    /// Training loss reported with the push.
    pub loss: f32,
    /// Weight delta of the apply over this shard's slice
    /// (`w_after - w_before`).
    pub delta: Vec<f32>,
    /// CRC-32 over `delta`'s little-endian bytes; verified on the
    /// standby before the delta is applied.
    pub digest: u32,
    /// Arrival-log side effect: `Some(v)` when the apply recorded the
    /// worker's arrival at server version `v` (ASGD/DC paths). Only on
    /// completing records.
    pub arrival: Option<u64>,
    /// BN side effect: the server's running statistics after absorbing
    /// this push's batch stats, when absorption happened. Only on
    /// completing records.
    pub bn: Option<BnState>,
    /// Model shard the delta applies to.
    pub shard: u32,
}

impl LogRecord {
    /// The digest [`LogRecord::verify`] checks: CRC-32 over the delta's
    /// little-endian bytes, streamed — the bytes are never materialized.
    pub fn digest_of(delta: &[f32]) -> u32 {
        let mut crc = Crc32::new();
        crc.update_f32_le(delta);
        crc.finish()
    }

    /// True when the stored digest matches the delta.
    pub fn verify(&self) -> bool {
        Self::digest_of(&self.delta) == self.digest
    }
}

impl WireMsg for LogRecord {
    fn size_hint(&self) -> usize {
        64 + 4 * self.delta.len() + self.bn.as_ref().map_or(0, crate::protocol::bn_state_len)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.seq);
        wire::put_u64(buf, self.epoch);
        wire::put_u32(buf, self.worker);
        wire::put_u64(buf, self.push_seq);
        wire::put_u64(buf, self.version);
        wire::put_u32(buf, self.staleness);
        wire::put_f32(buf, self.loss);
        wire::put_vec_f32(buf, &self.delta);
        wire::put_u32(buf, self.digest);
        match self.arrival {
            None => wire::put_u8(buf, 0),
            Some(v) => {
                wire::put_u8(buf, 1);
                wire::put_u64(buf, v);
            }
        }
        match &self.bn {
            None => wire::put_u8(buf, 0),
            Some(bn) => {
                wire::put_u8(buf, 1);
                crate::protocol::put_bn_state(buf, bn);
            }
        }
        wire::put_u32(buf, self.shard);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        let seq = r.u64()?;
        let epoch = r.u64()?;
        let worker = r.u32()?;
        let push_seq = r.u64()?;
        let version = r.u64()?;
        let staleness = r.u32()?;
        let loss = r.f32()?;
        let delta = r.vec_f32()?;
        let digest = r.u32()?;
        let arrival = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            b => return Err(ClusterError::Protocol(format!("bad arrival presence byte {b}"))),
        };
        let bn = match r.u8()? {
            0 => None,
            1 => Some(crate::protocol::read_bn_state(r)?),
            b => return Err(ClusterError::Protocol(format!("bad bn presence byte {b}"))),
        };
        let shard = r.u32()?;
        Ok(LogRecord {
            seq,
            epoch,
            worker,
            push_seq,
            version,
            staleness,
            loss,
            delta,
            digest,
            arrival,
            bn,
            shard,
        })
    }
}

/// Payload of `ClusterReq::Replicate`: what the primary streams to its
/// standby over the replica duplex.
pub enum ReplicaPayload {
    /// Full-state bootstrap (and periodic refresh): a
    /// [`TrainingCheckpoint`] blob (self-checking — magic + CRC) plus
    /// the log sequence number the record stream continues from.
    Snapshot { next_seq: u64, blob: Vec<u8> },
    /// A flushed batch of log records, contiguous in `seq`.
    Records(Vec<LogRecord>),
}

impl WireMsg for ReplicaPayload {
    fn size_hint(&self) -> usize {
        17 + match self {
            ReplicaPayload::Snapshot { blob, .. } => blob.len(),
            ReplicaPayload::Records(recs) => recs.iter().map(WireMsg::size_hint).sum(),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReplicaPayload::Snapshot { next_seq, blob } => {
                wire::put_u8(buf, 0);
                wire::put_u64(buf, *next_seq);
                wire::put_u64(buf, blob.len() as u64);
                buf.extend_from_slice(blob);
            }
            ReplicaPayload::Records(recs) => {
                wire::put_u8(buf, 1);
                wire::put_u64(buf, recs.len() as u64);
                for rec in recs {
                    rec.encode(buf);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => {
                let next_seq = r.u64()?;
                let n = r.len(1)?;
                Ok(ReplicaPayload::Snapshot { next_seq, blob: r.bytes(n)?.to_vec() })
            }
            1 => {
                // Records are variable-size; guard the count against the
                // minimum encoded record size instead of a fixed stride.
                let n = r.len(49)?;
                let recs = (0..n).map(|_| LogRecord::decode(r)).collect::<Result<_, _>>()?;
                Ok(ReplicaPayload::Records(recs))
            }
            tag => Err(ClusterError::Protocol(format!("unknown ReplicaPayload tag {tag}"))),
        }
    }
}

// -------------------------------------------------------------- standby

/// The hot standby's mirror of the parameter-server state: a snapshot
/// advanced record-by-record. Fields the log does not carry (predictor
/// state, worker batch positions) stay at their snapshot values.
pub struct StandbyReplica {
    state: TrainingCheckpoint,
    next_seq: u64,
    updates_per_epoch: u64,
    spec: ShardSpec,
}

impl StandbyReplica {
    /// Bootstraps (or refreshes) the replica from a snapshot; the record
    /// stream continues at `next_seq`. The shard layout is derived from
    /// the snapshot's per-shard version list (empty = one shard).
    pub fn from_snapshot(state: TrainingCheckpoint, next_seq: u64, updates_per_epoch: u64) -> Self {
        let n = state.shard_versions.len().max(1);
        let spec = ShardSpec::even(state.weights.len(), n)
            .unwrap_or_else(|_| ShardSpec::even(state.weights.len().max(1), 1).unwrap());
        StandbyReplica { state, next_seq, updates_per_epoch: updates_per_epoch.max(1), spec }
    }

    /// Number of model shards the record stream carries slices for.
    fn shards(&self) -> usize {
        self.spec.count()
    }

    /// Applies one log record: verifies sequence continuity and the
    /// delta digest, then replays the slice update; a *completing*
    /// record (the last shard of its push) additionally replays the
    /// push-global side effects.
    pub fn apply(&mut self, rec: &LogRecord) -> Result<(), String> {
        if rec.seq != self.next_seq {
            return Err(format!("log gap: expected seq {}, got {}", self.next_seq, rec.seq));
        }
        if !rec.verify() {
            return Err(format!("log record {} digest mismatch", rec.seq));
        }
        let s = rec.shard as usize;
        if s >= self.shards() {
            return Err(format!(
                "log record {} addresses shard {} of a {}-shard model",
                rec.seq,
                s,
                self.shards()
            ));
        }
        let range = self.spec.range(s);
        if rec.delta.len() != range.len() {
            return Err(format!(
                "log record {} delta length {} != shard {} slice length {}",
                rec.seq,
                rec.delta.len(),
                s,
                range.len()
            ));
        }
        for (w, d) in self.state.weights[range].iter_mut().zip(&rec.delta) {
            *w += d;
        }
        if !self.state.shard_versions.is_empty() {
            self.state.shard_versions[s] = rec.version;
        }
        self.state.version = rec.version;
        self.state.server_epoch = rec.epoch;
        let completing = s + 1 == self.shards();
        if !completing {
            self.next_seq += 1;
            return Ok(());
        }
        self.state.applied += 1;
        let w = rec.worker as usize;
        if rec.push_seq != 0 {
            if self.state.push_seqs.len() <= w {
                self.state.push_seqs.resize(w + 1, 0);
            }
            self.state.push_seqs[w] = rec.push_seq;
        }
        if let Some(v) = rec.arrival {
            if self.state.arrival.len() <= w {
                self.state.arrival.resize(w + 1, None);
            }
            self.state.arrival[w] = Some(v);
            self.state.iter.push(w);
        }
        if let Some(bn) = &rec.bn {
            self.state.bn = bn.clone();
        }
        self.state.staleness.push(rec.staleness);
        self.state.epoch_losses.push(rec.loss);
        if self.state.applied.is_multiple_of(self.updates_per_epoch) {
            // Epoch boundary: the primary computes an epoch record and
            // clears its in-progress losses; mirror the clear so a
            // promotion adopts the right in-progress window.
            self.state.epoch_losses.clear();
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Applied-update count of the mirrored state.
    pub fn applied(&self) -> u64 {
        self.state.applied
    }

    /// Highest applied log sequence number (0 = snapshot only).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Read access to the mirrored state.
    pub fn state(&self) -> &TrainingCheckpoint {
        &self.state
    }

    /// Consumes the replica; the promotion takes this state over.
    pub fn into_state(self) -> TrainingCheckpoint {
        self.state
    }
}

// ---------------------------------------------------------------- fence

/// What the fence decided about an incoming push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushVerdict {
    /// Current epoch, fresh sequence number: apply it.
    Admit,
    /// Carried a dead epoch (sent to/by a fenced primary): reject.
    StaleEpoch,
    /// Already applied (delayed duplicate): reject.
    Duplicate,
}

/// Epoch fencing + per-worker dedup: the at-most-once apply gate.
///
/// Inactive fences (runs without a standby) admit everything and keep
/// the wire fields at their zero defaults.
pub struct EpochFence {
    epoch: u64,
    push_seqs: Vec<u64>,
    active: bool,
    /// Pull/State requests rejected for carrying a dead epoch.
    pub fenced_reads: u64,
    /// Pushes rejected for carrying a dead epoch.
    pub fenced_pushes: u64,
    /// Pushes rejected as already-applied duplicates.
    pub duplicate_pushes: u64,
}

impl EpochFence {
    pub fn new(workers: usize, active: bool) -> Self {
        EpochFence {
            epoch: 0,
            push_seqs: vec![0; workers],
            active,
            fenced_reads: 0,
            fenced_pushes: 0,
            duplicate_pushes: 0,
        }
    }

    /// The current server epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Highest applied push sequence number per worker.
    pub fn push_seqs(&self) -> &[u64] {
        &self.push_seqs
    }

    /// Gate for read-path requests (Pull/State): true when the request's
    /// epoch is current (or the fence is inactive).
    pub fn admit_read(&mut self, epoch: u64) -> bool {
        if !self.active || epoch == self.epoch {
            true
        } else {
            self.fenced_reads += 1;
            false
        }
    }

    /// Gate for pushes: epoch check, then per-worker dedup. `push_seq` 0
    /// is the "no sequencing" sentinel and is never deduplicated.
    pub fn check_push(&mut self, worker: usize, epoch: u64, push_seq: u64) -> PushVerdict {
        if !self.active {
            return PushVerdict::Admit;
        }
        if epoch != self.epoch {
            self.fenced_pushes += 1;
            return PushVerdict::StaleEpoch;
        }
        if push_seq != 0 && worker < self.push_seqs.len() && push_seq <= self.push_seqs[worker] {
            self.duplicate_pushes += 1;
            return PushVerdict::Duplicate;
        }
        PushVerdict::Admit
    }

    /// Records an applied push so its duplicates are rejected from now
    /// on. Only *applied* pushes advance the dedup state — a push the
    /// supervisor rejected may legitimately be retried.
    pub fn commit_push(&mut self, worker: usize, push_seq: u64) {
        if self.active && push_seq != 0 && worker < self.push_seqs.len() {
            self.push_seqs[worker] = push_seq;
        }
    }

    /// Failover: bump the epoch (fencing off everything addressed to the
    /// dead primary) and adopt the dedup state replayed from the log.
    /// Returns the new epoch.
    pub fn promote(&mut self, push_seqs: Vec<u64>) -> u64 {
        self.epoch += 1;
        self.push_seqs = push_seqs;
        self.epoch
    }

    /// Adopts the fencing state a checkpoint recorded (resume path).
    pub fn restore(&mut self, epoch: u64, push_seqs: Vec<u64>) {
        self.epoch = epoch;
        if !push_seqs.is_empty() {
            self.push_seqs = push_seqs;
        }
    }
}

// --------------------------------------------------------- standby loop

/// The standby's serve loop, run on its own thread: receive
/// [`ClusterReq::Replicate`] frames off the duplex, apply them to the
/// shared replica slot, acknowledge each with
/// [`ClusterResp::ReplicaAck`]. Returns when the primary hangs up
/// (duplex disconnect) or on the first protocol/apply error — the
/// primary's next flush then fails its blocking ack wait, surfacing the
/// fault instead of silently diverging.
///
/// [`ClusterReq::Replicate`]: crate::protocol::ClusterReq::Replicate
/// [`ClusterResp::ReplicaAck`]: crate::protocol::ClusterResp::ReplicaAck
pub fn serve_standby(
    mut duplex: Box<dyn ReplicaDuplex>,
    slot: Arc<Mutex<Option<StandbyReplica>>>,
    updates_per_epoch: u64,
) {
    loop {
        let bytes = match duplex.recv() {
            Ok(b) => b,
            Err(_) => return, // primary hung up: clean shutdown
        };
        let payload = match ClusterReq::decoded(&bytes) {
            Ok(ClusterReq::Replicate(p)) => p,
            _ => return,
        };
        let acked = match payload {
            ReplicaPayload::Snapshot { next_seq, blob } => {
                let Ok(state) = TrainingCheckpoint::from_bytes(&blob) else { return };
                *slot.lock() =
                    Some(StandbyReplica::from_snapshot(state, next_seq, updates_per_epoch));
                next_seq.saturating_sub(1)
            }
            ReplicaPayload::Records(recs) => {
                let mut guard = slot.lock();
                let Some(rep) = guard.as_mut() else { return };
                for rec in &recs {
                    if let Err(e) = rep.apply(rec) {
                        eprintln!("standby: {e}");
                        return;
                    }
                }
                rep.last_seq()
            }
        };
        let ack = ClusterResp::ReplicaAck { seq: acked };
        if duplex.send(&ack.encoded()).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------- lease

/// The primary's write lease: the right to apply updates, contingent on
/// recent standby acknowledgment. Revocation is permanent (the fenced
/// primary never writes again); expiry merely forces a heartbeat
/// round-trip before the next write.
pub struct Lease {
    timeout: Duration,
    expires: Option<Instant>,
    revoked: bool,
}

impl Lease {
    pub fn new(timeout: Duration) -> Self {
        Lease { timeout, expires: None, revoked: false }
    }

    /// Extends the lease from now; called on every standby ack. No-op
    /// once revoked.
    pub fn renew(&mut self) {
        if !self.revoked {
            self.expires = Some(Instant::now() + self.timeout);
        }
    }

    /// Permanently fences this primary.
    pub fn revoke(&mut self) {
        self.revoked = true;
        self.expires = None;
    }

    pub fn is_revoked(&self) -> bool {
        self.revoked
    }

    /// True while the lease is neither revoked nor expired. A lease that
    /// was never renewed is held (the standby has not spoken yet).
    pub fn held(&self) -> bool {
        !self.revoked && self.expires.is_none_or(|e| Instant::now() <= e)
    }
}

// -------------------------------------------------------- primary stream

/// The primary side of the replication stream: buffers [`LogRecord`]s and
/// flushes them to the standby thread as synchronous, acknowledged
/// `Replicate` batches. The blocking ack is what makes the standby's lag
/// (and therefore the lost tail at a kill) a pure function of the
/// applied-update count.
pub(crate) struct ReplicationStream {
    duplex: Box<dyn ReplicaDuplex>,
    buffer: Vec<LogRecord>,
    next_seq: u64,
    flush_every: u64,
    lease: Lease,
    lease_timeout: Duration,
    pub(crate) report: ReplicationReport,
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
    pub(crate) fn new(duplex: Box<dyn ReplicaDuplex>, cfg: &StandbyConfig) -> Self {
        ReplicationStream {
            duplex,
            buffer: Vec::new(),
            next_seq: 1,
            flush_every: cfg.flush_every.max(1),
            lease: Lease::new(cfg.lease),
            lease_timeout: cfg.lease,
            report: ReplicationReport::default(),
            degraded: false,
            pending_degradation: None,
        }
    }

    /// Appends an applied push to the log; auto-flushes a full batch.
    /// Inert once degraded.
    pub(crate) fn log(&mut self, mut rec: LogRecord) {
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
    pub(crate) fn snapshot(&mut self, state: &TrainingCheckpoint) {
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
    pub(crate) fn ensure_lease(&mut self) {
        if !self.lease.is_revoked() && !self.lease.held() {
            self.flush();
        }
    }

    /// Fences the killed primary: its write lease never renews again.
    pub(crate) fn revoke_lease(&mut self) {
        self.lease.revoke();
    }

    /// Accounts a promotion that discarded `lost` unreplicated updates and
    /// grants the promoted server — the new primary — a fresh lease.
    pub(crate) fn promoted(&mut self, lost: u64) {
        self.report.failovers += 1;
        self.report.lost_updates += lost;
        self.lease = Lease::new(self.lease_timeout);
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
    pub(crate) fn take_degradation(&mut self) -> Option<String> {
        self.pending_degradation.take()
    }
}

// --------------------------------------------------------------- report

/// What replication did during a run; `RunResult::replication` when a
/// standby was attached.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicationReport {
    /// Log records streamed to the standby.
    pub log_records: u64,
    /// Synchronous flush round-trips (including heartbeats).
    pub flushes: u64,
    /// Full-state snapshots shipped (bootstrap + refreshes).
    pub snapshots: u64,
    /// Primary kills / standby promotions.
    pub failovers: u64,
    /// Server epoch at the end of the run.
    pub final_epoch: u64,
    /// Pull/State requests rejected for carrying a dead epoch.
    pub fenced_reads: u64,
    /// Pushes rejected for carrying a dead epoch.
    pub fenced_pushes: u64,
    /// Pushes rejected as already-applied duplicates.
    pub duplicate_pushes: u64,
    /// Applied-but-unreplicated updates discarded across all failovers.
    pub lost_updates: u64,
    /// Largest primary-to-standby lag observed at a flush boundary, in
    /// log records (bounded by `flush_every - 1` plus the flush batch).
    pub max_lag: u64,
    /// `Some(update_count)` when the standby duplex was lost mid-run and
    /// the primary degraded to unreplicated mode instead of aborting;
    /// `None` while replication stayed healthy to the end.
    pub degraded_at: Option<u64>,
}

impl ReplicationReport {
    /// One-line human summary for CLI output.
    pub fn to_text(&self) -> String {
        let degraded = match self.degraded_at {
            Some(at) => format!(", DEGRADED (standby lost at update {at})"),
            None => String::new(),
        };
        format!(
            "replication: {} records / {} flushes / {} snapshots, \
             failovers {}, final epoch {}, lost {}, \
             fenced {} reads + {} pushes, {} duplicates, max lag {}{}",
            self.log_records,
            self.flushes,
            self.snapshots,
            self.failovers,
            self.final_epoch,
            self.lost_updates,
            self.fenced_reads,
            self.fenced_pushes,
            self.duplicate_pushes,
            self.max_lag,
            degraded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, delta: Vec<f32>) -> LogRecord {
        let digest = LogRecord::digest_of(&delta);
        LogRecord {
            seq,
            epoch: 0,
            worker: (seq % 3) as u32,
            push_seq: (1 << 32) | seq,
            version: seq,
            staleness: 1,
            loss: 0.5,
            delta,
            digest,
            arrival: Some(seq),
            bn: None,
            shard: 0,
        }
    }

    fn snapshot(weights: Vec<f32>) -> TrainingCheckpoint {
        TrainingCheckpoint {
            weights,
            bn: BnState::default(),
            version: 0,
            applied: 0,
            arrival: vec![None; 3],
            iter: Vec::new(),
            staleness: Vec::new(),
            epoch_losses: Vec::new(),
            epochs: Vec::new(),
            loss_pred: None,
            step_pred: None,
            worker_batches: vec![(0, 0); 3],
            server_epoch: 0,
            push_seqs: vec![0; 3],
            shard_versions: Vec::new(),
        }
    }

    #[test]
    fn log_record_roundtrips_with_and_without_side_effects() {
        let mut rec = record(7, vec![0.25, -1.0, 3.5]);
        rec.bn = Some(BnState {
            means: vec![lcasgd_tensor::Tensor::from_vec(vec![0.5, 1.5], &[2])],
            vars: vec![lcasgd_tensor::Tensor::from_vec(vec![1.0, 2.0], &[2])],
        });
        let back = LogRecord::decoded(&rec.encoded()).unwrap();
        assert_eq!(back, rec);
        let bare = LogRecord { arrival: None, bn: None, ..record(8, vec![1.0]) };
        assert_eq!(LogRecord::decoded(&bare.encoded()).unwrap(), bare);
    }

    #[test]
    fn digest_catches_delta_corruption() {
        let mut rec = record(1, vec![1.0, 2.0]);
        assert!(rec.verify());
        rec.delta[1] = 2.0000002;
        assert!(!rec.verify());
    }

    #[test]
    fn replica_applies_a_contiguous_stream() {
        let mut rep = StandbyReplica::from_snapshot(snapshot(vec![1.0, 1.0]), 1, 100);
        rep.apply(&record(1, vec![0.5, -0.5])).unwrap();
        rep.apply(&record(2, vec![0.25, 0.25])).unwrap();
        assert_eq!(rep.state().weights, vec![1.75, 0.75]);
        assert_eq!(rep.applied(), 2);
        assert_eq!(rep.last_seq(), 2);
        assert_eq!(rep.state().version, 2);
        assert_eq!(rep.state().iter, vec![1, 2]);
        assert_eq!(rep.state().staleness, vec![1, 1]);
        assert_eq!(rep.state().push_seqs[1], (1 << 32) | 1);
        assert_eq!(rep.state().arrival[2], Some(2));
    }

    #[test]
    fn replica_rejects_gaps_and_bad_digests() {
        let mut rep = StandbyReplica::from_snapshot(snapshot(vec![0.0]), 1, 100);
        assert!(rep.apply(&record(3, vec![1.0])).unwrap_err().contains("log gap"));
        let mut bad = record(1, vec![1.0]);
        bad.digest ^= 1;
        assert!(rep.apply(&bad).unwrap_err().contains("digest"));
        let wrong_len = record(1, vec![1.0, 2.0]);
        assert!(rep.apply(&wrong_len).unwrap_err().contains("length"));
        // Nothing was applied.
        assert_eq!(rep.applied(), 0);
        assert_eq!(rep.state().weights, vec![0.0]);
    }

    #[test]
    fn sharded_replica_applies_slices_and_counts_completed_pushes() {
        let mut snap = snapshot(vec![0.0, 0.0, 10.0, 10.0]);
        snap.shard_versions = vec![0, 0];
        let mut rep = StandbyReplica::from_snapshot(snap, 1, 100);
        // One push = two records: shard 0 (no side effects), then the
        // completing shard-1 record.
        let slice0 = LogRecord { arrival: None, shard: 0, ..record(1, vec![1.0, 2.0]) };
        let slice1 = LogRecord { shard: 1, ..record(2, vec![-1.0, -2.0]) };
        rep.apply(&slice0).unwrap();
        assert_eq!(rep.applied(), 0, "a push counts only once its last slice lands");
        assert!(rep.state().staleness.is_empty());
        rep.apply(&slice1).unwrap();
        assert_eq!(rep.applied(), 1);
        assert_eq!(rep.state().weights, vec![1.0, 2.0, 9.0, 8.0], "slices land at their offsets");
        assert_eq!(rep.state().shard_versions, vec![1, 2]);
        assert_eq!(rep.state().staleness, vec![1], "one sample per completed push");
        // Bad shard addressing is rejected.
        let stray = LogRecord { shard: 5, ..record(3, vec![0.5, 0.5]) };
        assert!(rep.apply(&stray).unwrap_err().contains("shard 5"));
        let wrong_len = LogRecord { shard: 0, ..record(3, vec![0.5]) };
        assert!(rep.apply(&wrong_len).unwrap_err().contains("slice length"));
    }

    #[test]
    fn replica_clears_losses_at_epoch_boundaries() {
        let mut rep = StandbyReplica::from_snapshot(snapshot(vec![0.0]), 1, 2);
        rep.apply(&record(1, vec![0.1])).unwrap();
        assert_eq!(rep.state().epoch_losses.len(), 1);
        rep.apply(&record(2, vec![0.1])).unwrap();
        assert!(rep.state().epoch_losses.is_empty(), "boundary clears the window");
        rep.apply(&record(3, vec![0.1])).unwrap();
        assert_eq!(rep.state().epoch_losses.len(), 1);
    }

    #[test]
    fn replica_payload_roundtrips() {
        let snap = ReplicaPayload::Snapshot { next_seq: 42, blob: vec![1, 2, 3, 250] };
        match ReplicaPayload::decoded(&snap.encoded()).unwrap() {
            ReplicaPayload::Snapshot { next_seq, blob } => {
                assert_eq!(next_seq, 42);
                assert_eq!(blob, vec![1, 2, 3, 250]);
            }
            _ => panic!("variant changed"),
        }
        let recs = ReplicaPayload::Records(vec![record(1, vec![1.0]), record(2, vec![-1.0])]);
        match ReplicaPayload::decoded(&recs.encoded()).unwrap() {
            ReplicaPayload::Records(back) => {
                assert_eq!(back.len(), 2);
                assert_eq!(back[0], record(1, vec![1.0]));
            }
            _ => panic!("variant changed"),
        }
        assert!(ReplicaPayload::decoded(&[9]).is_err());
    }

    #[test]
    fn inactive_fence_admits_everything() {
        let mut fence = EpochFence::new(2, false);
        assert!(fence.admit_read(99));
        assert_eq!(fence.check_push(0, 99, 5), PushVerdict::Admit);
        assert_eq!(fence.check_push(0, 99, 5), PushVerdict::Admit);
        assert_eq!(fence.fenced_pushes + fence.fenced_reads + fence.duplicate_pushes, 0);
    }

    #[test]
    fn fence_rejects_stale_epochs_and_duplicates() {
        let mut fence = EpochFence::new(2, true);
        assert!(fence.admit_read(0));
        assert_eq!(fence.check_push(0, 0, 1), PushVerdict::Admit);
        fence.commit_push(0, 1);
        // The same push delayed and re-delivered: duplicate.
        assert_eq!(fence.check_push(0, 0, 1), PushVerdict::Duplicate);
        // A fresh push from the same worker is fine.
        assert_eq!(fence.check_push(0, 0, 2), PushVerdict::Admit);
        // Promotion fences off the old epoch entirely.
        let new_epoch = fence.promote(vec![1, 0]);
        assert_eq!(new_epoch, 1);
        assert!(!fence.admit_read(0));
        assert_eq!(fence.check_push(0, 0, 2), PushVerdict::StaleEpoch);
        assert_eq!(fence.check_push(0, 1, 2), PushVerdict::Admit);
        // Dedup state survived the promotion: seq 1 is still applied.
        assert_eq!(fence.check_push(0, 1, 1), PushVerdict::Duplicate);
        assert_eq!(fence.fenced_reads, 1);
        assert_eq!(fence.fenced_pushes, 1);
        assert_eq!(fence.duplicate_pushes, 2);
    }

    #[test]
    fn fence_never_dedups_the_zero_sentinel() {
        let mut fence = EpochFence::new(1, true);
        fence.commit_push(0, 0);
        assert_eq!(fence.check_push(0, 0, 0), PushVerdict::Admit);
        assert_eq!(fence.check_push(0, 0, 0), PushVerdict::Admit);
    }

    #[test]
    fn lease_lifecycle() {
        let mut lease = Lease::new(Duration::from_secs(3600));
        assert!(lease.held(), "an unrenewed lease is held until the standby speaks");
        lease.renew();
        assert!(lease.held());
        lease.revoke();
        assert!(!lease.held());
        assert!(lease.is_revoked());
        lease.renew();
        assert!(!lease.held(), "revocation is permanent");
        let mut expired = Lease::new(Duration::from_secs(0));
        expired.renew();
        std::thread::sleep(Duration::from_millis(2));
        assert!(!expired.held(), "a zero-duration lease expires immediately");
        assert!(!expired.is_revoked());
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
}
