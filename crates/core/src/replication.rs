//! Hot-standby parameter-server replication with fenced, deterministic
//! failover.
//!
//! The parameter server of Algorithm 2 is the single point of failure in
//! an LC-ASGD cluster: workers are expendable (crash/restart is already
//! modeled by the fault plan), but losing the server loses the run. This
//! module makes the server replaceable:
//!
//! * every applied push becomes one sequenced [`LogRecord`] per model
//!   shard — a write-ahead update log carrying the weight delta, its
//!   CRC-32 digest, and the apply's side effects (arrival-log entry, BN
//!   absorption, per-worker push sequence number);
//! * a [`StandbyReplica`] is bootstrapped from a
//!   [`TrainingCheckpoint`] snapshot and kept hot by streaming log
//!   records over a [`ReplicaDuplex`] — in-process channels on the
//!   simulator and thread backends, CRC-framed loopback TCP on the
//!   network backend — plus, at every epoch boundary, a refresh of what
//!   the log does not carry;
//! * an [`EpochFence`] enforces at-most-once apply across a failover:
//!   workers carry the server epoch on every Pull/State/Grad, a killed
//!   primary's epoch is fenced off, the standby promotes with `epoch+1`,
//!   and per-worker push sequence numbers (replayed from the log) reject
//!   any delayed duplicate of an already-applied push;
//! * the primary's end of the stream (`ReplicationStream`, driven by the
//!   trainer's server) encodes records straight from the weights into one
//!   reused batch buffer, keeps one acknowledged batch in flight, ships
//!   refreshes and snapshots, and degrades to an inert no-op — training
//!   continues unreplicated — when the standby stops answering.
//!
//! ## Determinism
//!
//! The primary buffers the records of whole pushes and flushes them as
//! one `Replicate` batch at the first push boundary at or after
//! [`StandbyConfig::flush_every`] records, so the standby never holds some
//! shards of a push and not others. A flush sends and returns: its
//! `ReplicaAck` is awaited before the next message to the standby, at a
//! planned kill and at the end of the run. The kill settles the batch in
//! flight before it takes the replica, so the lost tail is exactly the
//! unflushed records — fewer than `flush_every`, whole pushes only — a
//! pure function of the applied-update count, independent of thread
//! timing: a fault plan that kills the primary at update *k* promotes
//! bit-identical standby state on every run of the deterministic
//! simulator.
//!
//! The records alone keep the mirror's weights bitwise the primary's.
//! Every apply computes each weight as `a = fl(b − x)`, and for such an
//! `a` the logged delta `d = fl(a − b)` replays exactly: `fl(b + d) = a`
//! under round-to-nearest. A supervisor rollback's restore has no such
//! form, so the primary re-bootstraps the standby after one.
//!
//! ## What the log does not carry
//!
//! LC-ASGD's state path (the `State` handler's `log_arrival`, BN
//! absorption and predictor observations) and a rejoining worker's resets
//! change server state without an applied push. At every epoch boundary
//! the primary flushes its buffered records and then ships a refresh
//! ([`ReplicaPayload::Refresh`]) of exactly what promotion reads and the
//! records do not mirror: both predictor snapshots, the arrival state,
//! `iter` and the BN state — no weights, so it waits for no evaluation. The
//! standby is therefore current at every boundary; a kill mid-epoch
//! promotes those fields as of the last boundary, and the predictors
//! re-adapt online — the recovery contract of a checkpoint resume. Full
//! snapshots bootstrap the standby, re-arm it after a promotion, and
//! re-bootstrap it after a rollback.
//!
//! [`ReplicaDuplex`]: lcasgd_simcluster::ReplicaDuplex
//! [`TrainingCheckpoint`]: crate::checkpoint::TrainingCheckpoint

use crate::checkpoint::TrainingCheckpoint;
use crate::protocol::{ClusterReq, ClusterResp};
use crate::shard::ShardSpec;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::backend::wire;
use lcasgd_simcluster::codec::Crc32;
use lcasgd_simcluster::{ClusterError, ReplicaDuplex, WireMsg, WireReader, WireSink};
use parking_lot::Mutex;

// --------------------------------------------------------------- config

/// Standby attachment options, set via `RunOptions::standby`.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// Log records per replication batch. A push over `S` model shards is
    /// `S` records, and a batch is flushed at the first push boundary at
    /// or after `flush_every` records: it carries `⌈flush_every / S⌉`
    /// whole pushes, at most `flush_every + S − 1` records. A kill loses
    /// the unflushed records only — fewer than `flush_every`, that is at
    /// most `⌊(flush_every − 1) / S⌋` whole pushes. 1 = every push flushed.
    pub flush_every: u64,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig { flush_every: 4 }
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
    fn give_back(self, spent: &mut Vec<Vec<f32>>) {
        spent.push(self.delta);
    }

    fn encode(&self, buf: &mut dyn WireSink) {
        let head = PushHead {
            epoch: self.epoch,
            worker: self.worker,
            push_seq: self.push_seq,
            version: self.version,
            staleness: self.staleness,
            loss: self.loss,
        };
        let put_delta = |buf: &mut _| {
            wire::put_vec_f32(buf, &self.delta);
            wire::put_u32(buf, self.digest);
        };
        put_record(buf, self.seq, &head, put_delta, self.arrival, self.bn.as_ref(), self.shard);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        let seq = r.u64()?;
        let epoch = r.u64()?;
        let worker = r.u32()?;
        let push_seq = r.u64()?;
        let version = r.u64()?;
        let staleness = r.u32()?;
        let loss = r.f32()?;
        // A slice of the model: into a vector the standby handed back.
        let delta = r.bulk_vec_f32()?;
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

/// What every record of one applied push shares: a [`LogRecord`] less its
/// sequence number, shard, delta, digest and side effects.
pub(crate) struct PushHead {
    pub epoch: u64,
    pub worker: u32,
    pub push_seq: u64,
    pub version: u64,
    pub staleness: u32,
    pub loss: f32,
}

/// [`LogRecord`]'s encoding, with `put_delta` writing the length-prefixed
/// delta and its digest: the one layout [`LogRecord::encode`] and
/// `ReplicationStream::log_push` both write.
fn put_record<S: WireSink + ?Sized>(
    buf: &mut S,
    seq: u64,
    head: &PushHead,
    put_delta: impl FnOnce(&mut S),
    arrival: Option<u64>,
    bn: Option<&BnState>,
    shard: u32,
) {
    wire::put_u64(buf, seq);
    wire::put_u64(buf, head.epoch);
    wire::put_u32(buf, head.worker);
    wire::put_u64(buf, head.push_seq);
    wire::put_u64(buf, head.version);
    wire::put_u32(buf, head.staleness);
    wire::put_f32(buf, head.loss);
    put_delta(buf);
    match arrival {
        None => wire::put_u8(buf, 0),
        Some(v) => {
            wire::put_u8(buf, 1);
            wire::put_u64(buf, v);
        }
    }
    match bn {
        None => wire::put_u8(buf, 0),
        Some(bn) => {
            wire::put_u8(buf, 1);
            crate::protocol::put_bn_state(buf, bn);
        }
    }
    wire::put_u32(buf, shard);
}

/// Writes the delta `after − before` as [`LogRecord`] encodes one — length
/// prefix, little-endian `f32`s, their CRC-32 digest — in one pass: each
/// block is subtracted, written and hashed while it is in cache, and no
/// delta vector exists.
fn put_delta(buf: &mut Vec<u8>, after: &[f32], before: &[f32]) {
    const BLOCK: usize = 1024;
    assert_eq!(after.len(), before.len(), "delta of two different slices");
    wire::put_u64(buf, after.len() as u64);
    buf.reserve(4 * after.len() + 4);
    let mut crc = Crc32::new();
    for (a, b) in after.chunks(BLOCK).zip(before.chunks(BLOCK)) {
        let start = buf.len();
        buf.resize(start + 4 * a.len(), 0);
        for (out, (x, y)) in buf[start..].chunks_exact_mut(4).zip(a.iter().zip(b)) {
            out.copy_from_slice(&(x - y).to_le_bytes());
        }
        crc.update(&buf[start..]);
    }
    wire::put_u32(buf, crc.finish());
}

/// Payload of `ClusterReq::Replicate`: what the primary streams to its
/// standby over the replica duplex.
pub enum ReplicaPayload {
    /// Full-state bootstrap, post-promotion re-arm and post-rollback
    /// re-bootstrap: a [`TrainingCheckpoint`] blob (self-checking — magic +
    /// CRC) plus the log sequence number the record stream continues from.
    Snapshot { next_seq: u64, blob: Vec<u8> },
    /// A flushed batch of log records, contiguous in `seq`.
    Records(Vec<LogRecord>),
    /// The epoch-boundary refresh: a [`TrainingCheckpoint`] blob holding
    /// only what promotion reads and the records do not mirror — both
    /// predictor snapshots, the arrival state, `iter` and the BN state;
    /// weights, epoch records and batch positions stay empty. `seq` is the
    /// last record flushed ahead of it, which the standby must have
    /// applied.
    Refresh { seq: u64, blob: Vec<u8> },
}

impl WireMsg for ReplicaPayload {
    fn give_back(self, spent: &mut Vec<Vec<f32>>) {
        if let ReplicaPayload::Records(recs) = self {
            recs.into_iter().for_each(|rec| rec.give_back(spent));
        }
    }

    fn encode(&self, buf: &mut dyn WireSink) {
        let put_blob = |buf: &mut dyn WireSink, tag: u8, seq: u64, blob: &[u8]| {
            wire::put_u8(buf, tag);
            wire::put_u64(buf, seq);
            wire::put_u64(buf, blob.len() as u64);
            buf.put(blob);
        };
        match self {
            ReplicaPayload::Snapshot { next_seq, blob } => put_blob(buf, 0, *next_seq, blob),
            ReplicaPayload::Records(recs) => {
                wire::put_u8(buf, 1);
                wire::put_u64(buf, recs.len() as u64);
                for rec in recs {
                    rec.encode(buf);
                }
            }
            ReplicaPayload::Refresh { seq, blob } => put_blob(buf, 2, *seq, blob),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            tag @ (0 | 2) => {
                let seq = r.u64()?;
                let n = r.len(1)?;
                let blob = r.bytes(n)?;
                Ok(if tag == 0 {
                    ReplicaPayload::Snapshot { next_seq: seq, blob }
                } else {
                    ReplicaPayload::Refresh { seq, blob }
                })
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
/// advanced record-by-record, with the state-path fields refreshed at
/// every epoch boundary. Fields promotion does not read (epoch records,
/// worker batch positions) stay at their snapshot values.
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

    /// Takes an epoch refresh's fields — both predictors, the arrival
    /// state, `iter`, BN — from `part`; the records mirror the rest. A
    /// replica that has not applied exactly through `seq`, the last record
    /// flushed ahead of the refresh, is not current and refuses it.
    fn refresh(&mut self, seq: u64, part: TrainingCheckpoint) -> Result<(), String> {
        if seq != self.last_seq() {
            return Err(format!(
                "refresh after seq {seq} reached a replica at {}",
                self.last_seq()
            ));
        }
        self.state.loss_pred = part.loss_pred;
        self.state.step_pred = part.step_pred;
        self.state.arrival = part.arrival;
        self.state.iter = part.iter;
        self.state.bn = part.bn;
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
/// (duplex disconnect) or on the first protocol/apply error — emptying the
/// slot, so a half-applied mirror is never promoted; the primary's next
/// ack wait then fails, surfacing the fault instead of silently diverging.
///
/// Frames are received into one reused buffer, and each batch's deltas
/// are decoded into the vectors the previous batch's were, so a steady
/// stream of records allocates nothing model-sized.
///
/// [`ClusterReq::Replicate`]: crate::protocol::ClusterReq::Replicate
/// [`ClusterResp::ReplicaAck`]: crate::protocol::ClusterResp::ReplicaAck
pub fn serve_standby(
    mut duplex: Box<dyn ReplicaDuplex>,
    slot: &Mutex<Option<StandbyReplica>>,
    updates_per_epoch: u64,
) {
    let mut frame = Vec::new();
    let mut spent = Vec::new();
    loop {
        // An error is the primary hanging up: clean shutdown.
        let Ok(n) = duplex.recv_into(&mut frame) else { return };
        let Ok(ClusterReq::Replicate(payload)) =
            ClusterReq::decoded_reusing(&frame[..n], &mut spent)
        else {
            return;
        };
        let mut guard = slot.lock();
        let acked = match receive(&mut guard, payload, updates_per_epoch, &mut spent) {
            Ok(seq) => seq,
            Err(e) => {
                eprintln!("standby: {e}");
                *guard = None;
                return;
            }
        };
        drop(guard);
        if duplex.send(&ClusterResp::ReplicaAck { seq: acked }.encoded()).is_err() {
            return;
        }
    }
}

/// Applies one replication message to the standby's slot and returns the
/// sequence number to acknowledge. An applied batch's deltas go back to
/// `spent` in reverse, so the next batch decodes shard `s` into shard
/// `s`'s vector.
fn receive(
    slot: &mut Option<StandbyReplica>,
    payload: ReplicaPayload,
    updates_per_epoch: u64,
    spent: &mut Vec<Vec<f32>>,
) -> Result<u64, String> {
    let checkpoint = |blob: &[u8]| TrainingCheckpoint::from_bytes(blob).map_err(|e| e.to_string());
    let unbooted = || "replication before the bootstrap snapshot".to_string();
    match payload {
        ReplicaPayload::Snapshot { next_seq, blob } => {
            let state = checkpoint(&blob)?;
            *slot = Some(StandbyReplica::from_snapshot(state, next_seq, updates_per_epoch));
            Ok(next_seq.saturating_sub(1))
        }
        ReplicaPayload::Refresh { seq, blob } => {
            slot.as_mut().ok_or_else(unbooted)?.refresh(seq, checkpoint(&blob)?)?;
            Ok(seq)
        }
        ReplicaPayload::Records(recs) => {
            let rep = slot.as_mut().ok_or_else(unbooted)?;
            for rec in &recs {
                rep.apply(rec)?;
            }
            spent.extend(recs.into_iter().rev().map(|rec| rec.delta));
            Ok(rep.last_seq())
        }
    }
}

// -------------------------------------------------------- primary stream

/// What the message in flight was: its ack counts as a flush or as a
/// snapshot.
#[derive(Clone, Copy)]
enum Sent {
    Batch,
    State,
}

/// The primary side of the replication stream: encodes [`LogRecord`]s
/// straight from the weights into one batch buffer and flushes it to the
/// standby thread as an acknowledged `Replicate` batch, at most one in
/// flight. Every place that needs the standby current — the next message,
/// a planned kill, the end of the run — settles the batch in flight first,
/// which keeps the lost tail at a kill a pure function of the
/// applied-update count.
pub(crate) struct ReplicationStream {
    duplex: Box<dyn ReplicaDuplex>,
    /// The one send buffer, reused message after message: the batch being
    /// built, or a snapshot or refresh on its way out.
    buf: Vec<u8>,
    /// Offset of the record count in an encoded batch, patched at flush.
    count_at: usize,
    /// Records encoded into `buf` since the last flush.
    batched: u64,
    next_seq: u64,
    flush_every: u64,
    /// The message sent and not yet acknowledged: the sequence number its
    /// ack must carry, and what it was.
    in_flight: Option<(u64, Sent)>,
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
            buf: Vec::new(),
            count_at: 0,
            batched: 0,
            next_seq: 1,
            flush_every: cfg.flush_every.max(1),
            in_flight: None,
            report: ReplicationReport::default(),
            degraded: false,
            pending_degradation: None,
        }
    }

    /// Starts a batch in the empty send buffer: a `Records` payload whose
    /// record count, its last eight bytes, is filled in at flush.
    fn begin_batch(&mut self) {
        ClusterReq::Replicate(ReplicaPayload::Records(Vec::new())).encode(&mut self.buf);
        self.count_at = self.buf.len() - 8;
    }

    /// Appends one applied push to the log: a record per shard for the
    /// `(after, before)` weights of each, consecutive seqs, encoded in
    /// place. The last record alone carries `side_effects` (a fused
    /// apply's arrival version and BN state), so the standby counts the
    /// push only once it is whole. Flushes at the first push boundary at
    /// or after `flush_every` records. Inert once degraded.
    pub(crate) fn log_push<'a>(
        &mut self,
        head: &PushHead,
        slices: impl ExactSizeIterator<Item = (&'a [f32], &'a [f32])>,
        side_effects: Option<(u64, &BnState)>,
    ) {
        if self.degraded {
            return;
        }
        if self.buf.is_empty() {
            self.begin_batch();
        }
        let last = slices.len().saturating_sub(1);
        for (s, (after, before)) in slices.enumerate() {
            let (arrival, bn) = side_effects.filter(|_| s == last).unzip();
            let put = |buf: &mut Vec<u8>| put_delta(buf, after, before);
            put_record(&mut self.buf, self.next_seq, head, put, arrival, bn, s as u32);
            self.next_seq += 1;
            self.batched += 1;
            self.report.log_records += 1;
        }
        if self.batched >= self.flush_every {
            self.flush();
        }
    }

    /// Sends the batch once the one before it is acknowledged, and returns
    /// without waiting for its own ack. Inert once degraded.
    fn flush(&mut self) {
        self.settle();
        if self.degraded {
            return;
        }
        let at = self.count_at;
        self.buf[at..at + 8].copy_from_slice(&self.batched.to_le_bytes());
        self.report.max_lag = self.report.max_lag.max(self.batched);
        self.batched = 0;
        self.send(Sent::Batch);
    }

    /// Ships a full-state snapshot, superseding (and discarding) any
    /// buffered records — the snapshot already contains their effects —
    /// and waits for its ack: the bootstrap, a re-arm and a rollback's
    /// re-bootstrap are rare, and a standby lost at bootstrap is then
    /// found before the run starts. Inert once degraded.
    pub(crate) fn snapshot(&mut self, state: &TrainingCheckpoint) {
        self.settle();
        if self.degraded {
            return;
        }
        self.buf.clear();
        self.batched = 0;
        let blob = state.to_bytes();
        ClusterReq::Replicate(ReplicaPayload::Snapshot { next_seq: self.next_seq, blob })
            .encode(&mut self.buf);
        self.send(Sent::State);
        self.settle();
    }

    /// The epoch-boundary refresh: flushes the buffered records ahead of
    /// it, so the standby is current at the boundary, then sends `part` —
    /// the state-path fields of a [`ReplicaPayload::Refresh`] — in flight
    /// like a batch. Inert once degraded.
    pub(crate) fn refresh(&mut self, part: &TrainingCheckpoint) {
        if self.batched > 0 {
            self.flush();
        }
        self.settle();
        if self.degraded {
            return;
        }
        let seq = self.next_seq - 1;
        ClusterReq::Replicate(ReplicaPayload::Refresh { seq, blob: part.to_bytes() })
            .encode(&mut self.buf);
        self.send(Sent::State);
    }

    /// Accounts a promotion that discarded `lost` unreplicated updates.
    pub(crate) fn promoted(&mut self, lost: u64) {
        self.report.failovers += 1;
        self.report.lost_updates += lost;
    }

    /// Sends the message in `buf` and empties it; its ack is awaited by
    /// the next [`settle`](Self::settle).
    fn send(&mut self, what: Sent) {
        let sent = self.duplex.send(&self.buf);
        self.buf.clear();
        match sent {
            Ok(()) => self.in_flight = Some((self.next_seq - 1, what)),
            Err(e) => self.degrade(format!("standby duplex closed: {e:?}")),
        }
    }

    /// Waits for the ack of the message in flight, if any: a matching ack
    /// counts the flush or snapshot; anything else degrades the stream.
    pub(crate) fn settle(&mut self) {
        let Some((expect, what)) = self.in_flight.take() else { return };
        let ack = self.duplex.recv().ok().and_then(|b| ClusterResp::decoded(&b).ok());
        match ack {
            Some(ClusterResp::ReplicaAck { seq }) if seq == expect => match what {
                Sent::Batch => self.report.flushes += 1,
                Sent::State => self.report.snapshots += 1,
            },
            Some(ClusterResp::ReplicaAck { seq }) => {
                self.degrade(format!("standby acknowledged seq {seq} where {expect} was expected"))
            }
            _ => self.degrade(format!(
                "standby failed to acknowledge replication batch ending at seq {expect}"
            )),
        }
    }

    /// Drops into unreplicated mode: the buffered tail is discarded and
    /// every later call is a no-op.
    fn degrade(&mut self, why: String) {
        self.degraded = true;
        self.buf.clear();
        self.batched = 0;
        self.in_flight = None;
        self.pending_degradation = Some(why);
    }

    /// Returns the degradation cause exactly once, the first time it is
    /// polled after the stream degraded — the caller's cue to emit the
    /// one-time health event, fault record, and trace instant — and stamps
    /// the report with `at_update`, the update count it surfaced at.
    pub(crate) fn take_degradation(&mut self, at_update: u64) -> Option<String> {
        let why = self.pending_degradation.take()?;
        self.report.degraded_at = Some(at_update);
        Some(why)
    }
}

// --------------------------------------------------------------- report

/// What replication did during a run; `RunResult::replication` when a
/// standby was attached.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicationReport {
    /// Log records streamed to the standby.
    pub log_records: u64,
    /// Acknowledged record batches.
    pub flushes: u64,
    /// Acknowledged state messages: full snapshots (bootstrap, re-arms,
    /// rollback re-bootstraps) and epoch refreshes.
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
    /// log records: the largest batch flushed, at most
    /// `flush_every + S − 1` over `S` shards ([`StandbyConfig::flush_every`]).
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
    use lcasgd_simcluster::ChannelDuplex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

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
        let refresh = ReplicaPayload::Refresh { seq: 9, blob: vec![4, 5] };
        match ReplicaPayload::decoded(&refresh.encoded()).unwrap() {
            ReplicaPayload::Refresh { seq, blob } => assert_eq!((seq, blob), (9, vec![4, 5])),
            _ => panic!("variant changed"),
        }
        assert!(ReplicaPayload::decoded(&[9]).is_err());
    }

    #[test]
    fn replica_takes_a_refresh_only_when_current() {
        let mut rep = StandbyReplica::from_snapshot(snapshot(vec![1.0]), 1, 100);
        rep.apply(&record(1, vec![0.5])).unwrap();
        let part = TrainingCheckpoint {
            arrival: vec![Some(1), None, Some(0)],
            iter: vec![2, 0, 2],
            bn: BnState {
                means: vec![lcasgd_tensor::Tensor::from_vec(vec![0.5], &[1])],
                vars: vec![lcasgd_tensor::Tensor::from_vec(vec![2.0], &[1])],
            },
            ..TrainingCheckpoint::default()
        };
        let err = rep.refresh(2, part.clone()).unwrap_err();
        assert!(err.contains("seq 2"), "a replica behind the refresh refuses it: {err}");
        rep.refresh(1, part.clone()).unwrap();
        let state = rep.state();
        assert_eq!((&state.arrival, &state.iter, &state.bn), (&part.arrival, &part.iter, &part.bn));
        assert_eq!(state.weights, vec![1.5], "the records' weights stay");
        assert_eq!((state.applied, state.staleness.len()), (1, 1), "so does their history");
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

    fn head(version: u64) -> PushHead {
        PushHead {
            epoch: 0,
            worker: (version % 3) as u32,
            push_seq: (1 << 32) | version,
            version,
            staleness: 1,
            loss: 0.5,
        }
    }

    /// Logs a push that moved the weights from `before` to `after`, split
    /// over `spec`'s shards, with a fused apply's side effects.
    fn push(
        rs: &mut ReplicationStream,
        spec: &ShardSpec,
        version: u64,
        after: &[f32],
        before: &[f32],
    ) {
        let slices = (0..spec.count()).map(|s| (&after[spec.range(s)], &before[spec.range(s)]));
        rs.log_push(&head(version), slices, Some((version, &BnState::default())));
    }

    #[test]
    fn replication_stream_degrades_instead_of_panicking() {
        let cfg = StandbyConfig { flush_every: 1 };
        let mut rs = ReplicationStream::new(Box::new(DeadDuplex), &cfg);
        let spec = ShardSpec::even(2, 1).unwrap();
        // flush_every=1: the first push flushes into the dead duplex.
        // Before the fix this was a `.expect("standby duplex closed")`
        // panic.
        push(&mut rs, &spec, 1, &[0.25, -0.5], &[0.0, 0.0]);
        assert!(rs.degraded, "send failure must degrade the stream");
        assert!(rs.buf.is_empty(), "the unflushed tail is discarded");
        assert_eq!(rs.report.flushes, 0, "a failed flush is not a flush");
        let why = rs.take_degradation(1).expect("cause surfaces exactly once");
        assert!(why.contains("standby"), "cause names the standby: {why}");
        assert_eq!(rs.report.degraded_at, Some(1));
        assert!(rs.take_degradation(2).is_none(), "the cause is one-shot");
        // Once degraded every entry point is inert — no panic, no buffer
        // growth, no counter movement.
        push(&mut rs, &spec, 2, &[0.25, -0.5], &[0.0, 0.0]);
        rs.flush();
        rs.snapshot(&TrainingCheckpoint::default());
        rs.refresh(&TrainingCheckpoint::default());
        rs.settle();
        assert!(rs.buf.is_empty());
        assert_eq!(rs.report.flushes, 0);
        assert_eq!(rs.report.snapshots, 0);
        assert_eq!(rs.report.degraded_at, Some(1));
        assert!(rs.take_degradation(3).is_none(), "inert calls surface no new cause");
    }

    /// The primary end of a real standby (`serve_standby` on a thread of
    /// its own, over a channel pair), keeping every message it sends.
    struct Tapped {
        inner: ChannelDuplex,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl ReplicaDuplex for Tapped {
        fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
            self.sent.lock().push(payload.to_vec());
            self.inner.send(payload)
        }

        fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
            self.inner.recv()
        }
    }

    /// The standby's end: it holds each ack until the test opens its gate
    /// (when it has one), counts the acks it sends, and after `acks_left` of
    /// them hangs up instead.
    struct Gated {
        inner: ChannelDuplex,
        gate: Option<mpsc::Receiver<()>>,
        acks: Arc<AtomicU64>,
        acks_left: u64,
    }

    impl ReplicaDuplex for Gated {
        fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
            if self.acks_left == 0 {
                return Err(ClusterError::Disconnected);
            }
            self.acks_left -= 1;
            if let Some(gate) = &self.gate {
                // A primary that wrongly waits for this ack fails the test's
                // count after the timeout instead of hanging it.
                let _ = gate.recv_timeout(Duration::from_secs(10));
            }
            // Counted before it is sent: a primary that has it sees it counted.
            self.acks.fetch_add(1, Ordering::SeqCst);
            self.inner.send(payload)
        }

        fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
            self.inner.recv()
        }
    }

    struct Standby {
        rs: ReplicationStream,
        slot: Arc<Mutex<Option<StandbyReplica>>>,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
        acks: Arc<AtomicU64>,
        gate: Option<mpsc::Sender<()>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Standby {
        /// Lets the standby send its next `n` acks.
        fn open(&self, n: usize) {
            (0..n).for_each(|_| self.gate.as_ref().expect("a gated standby").send(()).unwrap());
        }

        fn acks(&self) -> u64 {
            self.acks.load(Ordering::SeqCst)
        }

        /// Hangs up on the standby and waits for its thread.
        fn close(self) {
            drop(self.rs);
            drop(self.gate);
            self.thread.join().expect("the standby thread does not panic");
        }
    }

    fn standby(flush_every: u64, gated: bool, acks_left: u64) -> Standby {
        let (primary, standby) = lcasgd_simcluster::channel_duplex_pair();
        let (sent, acks) = (Arc::default(), Arc::default());
        let slot = Arc::new(Mutex::new(None));
        let (gate, gate_rx) = if gated {
            let (tx, rx) = mpsc::channel();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let end = Gated { inner: standby, gate: gate_rx, acks: Arc::clone(&acks), acks_left };
        let serving = Arc::clone(&slot);
        let thread = std::thread::spawn(move || serve_standby(Box::new(end), &serving, 1000));
        let cfg = StandbyConfig { flush_every };
        let tapped = Tapped { inner: primary, sent: Arc::clone(&sent) };
        let rs = ReplicationStream::new(Box::new(tapped), &cfg);
        Standby { rs, slot, sent, acks, gate, thread }
    }

    fn sharded(weights: Vec<f32>, shards: usize) -> TrainingCheckpoint {
        let shard_versions = if shards == 1 { Vec::new() } else { vec![0; shards] };
        TrainingCheckpoint { shard_versions, ..snapshot(weights) }
    }

    #[test]
    fn records_are_encoded_in_place_and_flushed_at_push_boundaries() {
        let w = |k: f32| (0..10).map(|i| (i as f32 - 4.5) * k).collect::<Vec<f32>>();
        // (shards, batches sent by the time each of four pushes is logged)
        let cases = [(1, [0, 0, 0, 1]), (2, [0, 1, 1, 2]), (3, [0, 1, 1, 2]), (4, [1, 2, 3, 4])];
        for (shards, flushed) in cases {
            let mut sb = standby(4, false, u64::MAX);
            let spec = ShardSpec::even(10, shards).unwrap();
            sb.rs.snapshot(&sharded(w(0.0), shards));
            let weights: Vec<Vec<f32>> = (0..=4).map(|k| w(k as f32 * 0.37)).collect();
            let mut expected = Vec::new();
            for v in 1..=4u64 {
                let (after, before) = (&weights[v as usize], &weights[v as usize - 1]);
                push(&mut sb.rs, &spec, v, after, before);
                for s in 0..shards {
                    let r = spec.range(s);
                    let delta: Vec<f32> =
                        after[r.clone()].iter().zip(&before[r]).map(|(a, b)| a - b).collect();
                    let last = s + 1 == shards;
                    let digest = LogRecord::digest_of(&delta);
                    let PushHead { epoch, worker, push_seq, version, staleness, loss } = head(v);
                    expected.push(LogRecord {
                        seq: expected.len() as u64 + 1,
                        epoch,
                        worker,
                        push_seq,
                        version,
                        staleness,
                        loss,
                        delta,
                        digest,
                        arrival: last.then_some(v),
                        bn: last.then(BnState::default),
                        shard: s as u32,
                    });
                }
                let batches = sb.sent.lock().len() - 1;
                assert_eq!(batches, flushed[v as usize - 1], "{shards} shards after push {v}");
            }
            sb.rs.settle();
            // Each batch is the bytes `LogRecord::encode` makes of whole
            // pushes' records, and the standby applied them bitwise.
            let sent = sb.sent.lock();
            let mut at = 0;
            for batch in &sent[1..] {
                let Ok(ClusterReq::Replicate(ReplicaPayload::Records(recs))) =
                    ClusterReq::decoded(batch)
                else {
                    panic!("a batch of records")
                };
                assert_eq!(recs.len() % shards, 0, "{shards} shards: a batch splits a push");
                let want = ClusterReq::Replicate(ReplicaPayload::Records(
                    expected[at..at + recs.len()].to_vec(),
                ));
                assert_eq!(batch, &want.encoded(), "{shards} shards");
                at += recs.len();
            }
            let max_batch = (4u64).div_ceil(shards as u64) * shards as u64;
            assert_eq!(sb.rs.report.max_lag, max_batch, "{shards} shards");
            drop(sent);
            let pushed = at / shards;
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mirrored = sb.slot.lock().as_ref().map(|r| (bits(&r.state().weights), r.applied()));
            assert_eq!(mirrored, Some((bits(&weights[pushed]), pushed as u64)), "{shards} shards");
            sb.close();
        }
    }

    #[test]
    fn a_flush_returns_before_its_ack_and_every_site_settles_it() {
        let mut sb = standby(1, true, u64::MAX);
        let spec = ShardSpec::even(2, 1).unwrap();
        let state = |sb: &Standby| (sb.acks(), sb.rs.in_flight.is_some());
        sb.open(1);
        sb.rs.snapshot(&snapshot(vec![0.0, 0.0]));
        assert_eq!(state(&sb), (1, false), "the bootstrap waits for its ack");
        let mut v = 0;
        let mut log = |rs: &mut ReplicationStream| {
            v += 1;
            push(rs, &spec, v, &[v as f32, 0.5], &[v as f32 - 1.0, 0.5]);
        };
        // The standby holds its ack: the push came back without it.
        log(&mut sb.rs);
        assert_eq!(state(&sb), (1, true), "a flush returns");
        // Each site settles the message in flight before going on.
        sb.open(1);
        log(&mut sb.rs);
        assert_eq!(state(&sb), (2, true), "the next flush");
        sb.open(2);
        sb.rs.snapshot(&snapshot(vec![2.0, 0.5]));
        assert_eq!(state(&sb), (4, false), "a snapshot, which waits for its own ack too");
        log(&mut sb.rs);
        sb.open(1);
        sb.rs.refresh(&TrainingCheckpoint::default());
        assert_eq!(state(&sb), (5, true), "a refresh, which goes in flight");
        sb.open(1);
        log(&mut sb.rs);
        assert_eq!(state(&sb), (6, true), "the flush after a refresh");
        // A planned kill and the end of the run call `settle` themselves.
        sb.open(1);
        sb.rs.settle();
        assert_eq!(state(&sb), (7, false), "a kill, the end of the run");
        let report = &sb.rs.report;
        assert_eq!((report.flushes, report.snapshots, report.log_records), (4, 3, 4));
        assert_eq!(sb.slot.lock().as_ref().unwrap().state().weights, vec![4.0, 0.5]);
        sb.close();
    }

    #[test]
    fn a_standby_that_hangs_up_is_found_by_the_next_settle() {
        // The bootstrap and two batches are acknowledged; the third batch
        // is applied, and then the standby hangs up instead of acking it.
        let mut sb = standby(1, false, 3);
        let spec = ShardSpec::even(1, 1).unwrap();
        sb.rs.snapshot(&snapshot(vec![0.0]));
        for v in 1..=4u64 {
            push(&mut sb.rs, &spec, v, &[v as f32], &[v as f32 - 1.0]);
            // The trainer polls once per applied update.
            let found = sb.rs.take_degradation(v);
            assert_eq!(found.is_some(), v == 4, "push {v}: {found:?}");
        }
        // Batch 3 went out with push 3; push 4's flush settled it and
        // found the standby gone, so that is the update the report names.
        assert_eq!(sb.rs.report.degraded_at, Some(4));
        assert_eq!(sb.rs.report.flushes, 2);
        assert!(sb.rs.degraded && sb.rs.buf.is_empty());
        push(&mut sb.rs, &spec, 5, &[5.0], &[4.0]);
        assert!(sb.rs.take_degradation(5).is_none());
        assert_eq!(sb.sent.lock().len(), 4, "nothing is sent once degraded");
        sb.close();
    }
}
