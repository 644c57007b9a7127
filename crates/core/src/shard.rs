//! Parameter-server sharding: the flat weight vector split into N
//! contiguous ranges, each owned by its own [`ParameterServer`] with an
//! independent version counter.
//!
//! The split is *coordinator-free*: workers fan each pull/push out to the
//! owning shards over their single ordered link, so no extra process or
//! routing table exists. Because every push carries a slice for **every**
//! shard and the slices of one push are applied together, the per-shard
//! version counters advance in lockstep — shard 0 (the *lead* shard)
//! therefore also carries the merged bookkeeping that is global to the
//! model: the `iter` arrival log feeding the LC-ASGD step predictor, and
//! the BN running statistics. See DESIGN.md §11.

use crate::bnmode::BnMode;
use crate::comm::{CompressedGrad, Compression};
use crate::server::ParameterServer;
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_nn::network::BnState;
use lcasgd_nn::Network;
use std::ops::Range;
use std::sync::Arc;

/// Partition of a flat weight vector of length `len` into `n` contiguous
/// ranges. Shard `s` owns `range(s)`; the first `len % n` shards are one
/// element longer so the split is as even as possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// `n + 1` cut points: `bounds[s]..bounds[s + 1]` is shard `s`.
    bounds: Vec<usize>,
}

impl ShardSpec {
    /// Upper bound on the shard count: per-push slice completion is
    /// tracked in a `u64` bitmask, and more shards than this would only
    /// multiply message count without any remaining parallelism to win.
    pub const MAX_SHARDS: usize = 64;

    /// Evenly partitions `len` weights into `n` shards.
    pub fn even(len: usize, n: usize) -> Result<ShardSpec, String> {
        if n == 0 {
            return Err("shard count must be at least 1".into());
        }
        if n > Self::MAX_SHARDS {
            return Err(format!("shard count {n} exceeds the maximum of {}", Self::MAX_SHARDS));
        }
        if len < n {
            return Err(format!("cannot split {len} weights into {n} non-empty shards"));
        }
        let (base, extra) = (len / n, len % n);
        let mut bounds = Vec::with_capacity(n + 1);
        let mut at = 0;
        bounds.push(0);
        for s in 0..n {
            at += base + usize::from(s < extra);
            bounds.push(at);
        }
        Ok(ShardSpec { bounds })
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total weight count across all shards.
    pub fn len(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// True when the partition covers zero weights (never produced by
    /// [`ShardSpec::even`], which rejects `len < n`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index range shard `s` owns within the flat vector.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Borrows shard `s`'s slice of a full-length flat vector.
    pub fn slice<'a>(&self, flat: &'a [f32], s: usize) -> &'a [f32] {
        assert_eq!(flat.len(), self.len(), "flat vector length mismatch");
        &flat[self.range(s)]
    }

    /// Splits a full-length flat vector into owned per-shard slices.
    pub fn split(&self, flat: &[f32]) -> Vec<Vec<f32>> {
        (0..self.count()).map(|s| self.slice(flat, s).to_vec()).collect()
    }

    /// Concatenates per-shard slices back into the full flat vector,
    /// checking every slice against its owning range.
    pub fn assemble(&self, parts: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(parts.len(), self.count(), "shard count mismatch");
        let mut flat = Vec::with_capacity(self.len());
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), self.range(s).len(), "shard {s} slice length mismatch");
            flat.extend_from_slice(part);
        }
        flat
    }
}

/// The sharded parameter server: one [`ParameterServer`] per shard, all
/// behind the single serialized server event loop. Shard 0 is the *lead*
/// shard carrying the merged (model-global) bookkeeping — the arrival log
/// and BN statistics — while every shard keeps its own weights slice and
/// version counter.
///
/// The group is also the one owner of the copies of its weights that leave
/// the server: [`snapshot`](Self::snapshot) lends out one shared vector per
/// (shard, version) — to every pull at that version, the epoch evaluator,
/// the write-ahead log's "before" image — and refills the same allocation
/// for the next version once the last borrower has let go (DESIGN.md
/// §12.6).
pub struct ShardGroup {
    spec: ShardSpec,
    shards: Vec<ParameterServer>,
    snapshots: Vec<Snapshot>,
}

/// A shard's lendable copy of its weights.
#[derive(Default)]
struct Snapshot {
    weights: Arc<Vec<f32>>,
    /// False once the shard's weights have moved on from `weights`; every
    /// `ShardGroup` method that writes them clears it.
    current: bool,
}

impl ShardGroup {
    /// Builds `n` shards from the canonical network.
    pub fn new(
        net: &Network,
        num_workers: usize,
        bn_mode: BnMode,
        bn_momentum: f32,
        n: usize,
    ) -> Result<ShardGroup, String> {
        let flat = net.flat_params();
        let spec = ShardSpec::even(flat.len(), n)?;
        let shards = (0..n)
            .map(|s| {
                let weights = spec.slice(&flat, s).to_vec();
                ParameterServer::with_weights(
                    weights,
                    net.bn_state(),
                    num_workers,
                    bn_mode,
                    bn_momentum,
                )
            })
            .collect();
        let snapshots = (0..n).map(|_| Snapshot::default()).collect();
        Ok(ShardGroup { spec, shards, snapshots })
    }

    /// The partition.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`, immutable.
    pub fn shard(&self, s: usize) -> &ParameterServer {
        &self.shards[s]
    }

    /// The lead shard (shard 0), owner of the merged bookkeeping.
    pub fn lead(&self) -> &ParameterServer {
        &self.shards[0]
    }

    /// A shared copy of shard `s`'s weights as they are now. Calls between
    /// two writes return the same vector; the first call after a write
    /// copies the weights — into the previous snapshot's allocation when
    /// nobody holds that any more, which is the steady state on a transport
    /// that encodes a reply and drops it.
    pub fn snapshot(&mut self, s: usize) -> Arc<Vec<f32>> {
        let (shard, snap) = (&self.shards[s], &mut self.snapshots[s]);
        if !snap.current {
            match Arc::get_mut(&mut snap.weights) {
                Some(buf) => {
                    buf.clear();
                    buf.extend_from_slice(&shard.weights);
                }
                None => snap.weights = Arc::new(shard.weights.clone()),
            }
            snap.current = true;
        }
        Arc::clone(&snap.weights)
    }

    /// A shared copy of the whole flat weight vector: shard 0's
    /// [`snapshot`](Self::snapshot) when that is the whole model, else a
    /// fresh [`assembled_weights`](Self::assembled_weights).
    pub fn assembled_snapshot(&mut self) -> Arc<Vec<f32>> {
        if self.count() == 1 {
            self.snapshot(0)
        } else {
            Arc::new(self.assembled_weights())
        }
    }

    fn weights_written(&mut self) {
        self.snapshots.iter_mut().for_each(|snap| snap.current = false);
    }

    /// Merged update count: the number of completed pushes. Identical on
    /// every shard (slices of one push are applied together), so the lead
    /// shard's counter is authoritative.
    pub fn version(&self) -> u64 {
        self.shards[0].version
    }

    /// Per-shard version counters, for checkpointing.
    pub fn versions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.version).collect()
    }

    /// Restores per-shard version counters from a checkpoint.
    pub fn restore_versions(&mut self, versions: &[u64]) -> Result<(), String> {
        if versions.len() != self.shards.len() {
            return Err(format!(
                "checkpoint carries {} shard versions but the run has {} shards",
                versions.len(),
                self.shards.len()
            ));
        }
        for (shard, &v) in self.shards.iter_mut().zip(versions) {
            shard.version = v;
        }
        Ok(())
    }

    /// Restores the merged arrival log ("iter") from a checkpoint.
    pub fn restore_arrival_log(&mut self, iter: Vec<usize>) {
        self.shards[0].iter = iter;
    }

    /// Assembles the full flat weight vector from the shard slices.
    pub fn assembled_weights(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.spec.len());
        for shard in &self.shards {
            flat.extend_from_slice(&shard.weights);
        }
        flat
    }

    /// Overwrites every shard's slice from a full flat vector (rollback,
    /// checkpoint restore, failover adoption).
    pub fn load_weights(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.spec.len(), "flat vector length mismatch");
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.weights.copy_from_slice(&flat[self.spec.range(s)]);
        }
        self.weights_written();
    }

    /// Formula 8 across all shards: each shard applies its slice, so
    /// every per-shard version counter advances by one.
    pub fn apply_grad(&mut self, grads: &[f32], lr: f32) {
        assert_eq!(grads.len(), self.spec.len(), "gradient length mismatch");
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.apply_grad(&grads[self.spec.range(s)], lr);
        }
        self.weights_written();
    }

    /// DC-ASGD's Formula 3 across all shards, against the per-shard
    /// slices of the pushing worker's backup.
    pub fn apply_grad_dc(&mut self, grads: &[f32], lr: f32, lambda: f32, w_bak: &[f32]) {
        assert_eq!(grads.len(), self.spec.len(), "gradient length mismatch");
        assert_eq!(w_bak.len(), self.spec.len(), "backup length mismatch");
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let r = self.spec.range(s);
            shard.apply_grad_dc(&grads[r.clone()], lr, lambda, &w_bak[r]);
        }
        self.weights_written();
    }

    /// SSGD's averaged update (Formula 1) across all shards.
    pub fn apply_grad_avg(&mut self, grads: &[impl AsRef<[f32]>], lr: f32) {
        assert!(!grads.is_empty());
        for g in grads {
            assert_eq!(g.as_ref().len(), self.spec.len(), "gradient length mismatch");
        }
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let r = self.spec.range(s);
            let slices: Vec<&[f32]> = grads.iter().map(|g| &g.as_ref()[r.clone()]).collect();
            shard.apply_grad_avg(&slices, lr);
        }
        self.weights_written();
    }

    /// Merged arrival log (lead shard): "Append m to iter" and derive the
    /// actual step count since `m`'s previous arrival.
    pub fn log_arrival(&mut self, m: usize) -> u64 {
        self.shards[0].log_arrival(m)
    }

    /// Forgets worker `m`'s arrival history (worker rejoin).
    pub fn reset_arrival(&mut self, m: usize) {
        self.shards[0].reset_arrival(m);
    }

    /// Merged per-worker version-at-last-arrival, for checkpointing.
    pub fn arrival_state(&self) -> Vec<Option<u64>> {
        self.shards[0].arrival_state()
    }

    /// Restores the merged arrival bookkeeping.
    pub fn restore_arrival_state(&mut self, state: &[Option<u64>]) -> Result<(), String> {
        self.shards[0].restore_arrival_state(state)
    }

    /// Absorbs a worker's BN statistics into the merged (lead-shard) BN
    /// state.
    pub fn absorb_bn(&mut self, worker_running: &BnState, batch: &[BnBatchStats]) {
        self.shards[0].absorb_bn(worker_running, batch);
    }

    /// The merged BN state.
    pub fn bn(&self) -> &BnState {
        &self.shards[0].bn
    }

    /// Overwrites the merged BN state (restore paths).
    pub fn set_bn(&mut self, bn: BnState) {
        self.shards[0].bn = bn;
    }
}

// ------------------------------------------------------------- push path

/// Turns a full gradient into per-shard wire slices, maintaining the
/// worker's full-length error-feedback residual: each shard's range of
/// `grads` is compressed on its own against the same range of the
/// residual, in place (one shard: the whole vector against the whole
/// residual, bitwise the unsharded path). Returns the slices and, with
/// them, the gradient vector when they were made from a borrow of it;
/// a single uncompressed slice *is* the vector, moved into the message.
pub(crate) fn shard_wire_grads(
    scheme: &Compression,
    spec: &ShardSpec,
    grads: Vec<f32>,
    residual: &mut Vec<f32>,
) -> (Vec<CompressedGrad>, Option<Vec<f32>>) {
    assert_eq!(grads.len(), spec.len(), "gradient length mismatch");
    if *scheme == Compression::None {
        if spec.count() == 1 {
            return (vec![CompressedGrad::Dense(grads)], None);
        }
        let slices = spec.split(&grads).into_iter().map(CompressedGrad::Dense).collect();
        return (slices, Some(grads));
    }
    if residual.len() != grads.len() {
        *residual = vec![0.0; grads.len()];
    }
    let slices = (0..spec.count())
        .map(|s| {
            let r = spec.range(s);
            scheme.compress_slice(&grads[r.clone()], Some(&mut residual[r]))
        })
        .collect();
    (slices, Some(grads))
}

/// One shard's slice of a gradient push, as it comes off the wire.
pub(crate) struct PushSlice {
    pub push_seq: u64,
    pub pull_version: u64,
    pub loss: f32,
    pub shard: usize,
    pub grads: CompressedGrad,
    pub batch_stats: Vec<BnBatchStats>,
    pub running: BnState,
}

/// A sharded push, partially or fully assembled.
#[derive(Default)]
pub(crate) struct PendingPush {
    pub push_seq: u64,
    pub pull_version: u64,
    pub loss: f32,
    /// Full-length assembly buffer; slice `s` is unpacked into the spec's
    /// range for `s`. With one shard a dense slice *is* the gradient and
    /// is adopted whole, so no buffer is allocated or copied into.
    pub grads: Vec<f32>,
    /// Whether `grads` is such an adopted vector — the transport's, if it
    /// decoded the message — rather than a buffer of the assembly's.
    pub adopted: bool,
    /// Bitmask of shards whose slice has arrived ([`ShardSpec::MAX_SHARDS`]
    /// is 64 so one word suffices).
    seen: u64,
    got: usize,
    /// BN payloads, carried by the lead (shard-0) slice only.
    pub batch_stats: Vec<BnBatchStats>,
    pub running: BnState,
}

/// Per-worker in-flight push assembly: the slices a worker has fanned out
/// arrive as individual `Grad` messages and buffer here until the last
/// one lands, at which point the full gradient is applied to every shard
/// atomically. One shard completes on the first (only) slice, preserving
/// the unsharded apply path bit for bit.
pub(crate) struct PushAssembly {
    spec: ShardSpec,
    pending: Vec<Option<PendingPush>>,
    /// Assembly buffers of applied pushes ([`reclaim`](Self::reclaim)),
    /// for the next ones to assemble into.
    spent: Vec<Vec<f32>>,
}

impl PushAssembly {
    pub(crate) fn new(spec: ShardSpec, workers: usize) -> Self {
        PushAssembly { spec, pending: (0..workers).map(|_| None).collect(), spent: Vec::new() }
    }

    /// Buffers one slice of worker `w`'s push and returns the push once
    /// its last slice has landed. The worker's link is ordered, but
    /// assembly tolerates any arrival order (and injected duplicates)
    /// within one push.
    pub(crate) fn accept(&mut self, w: usize, slice: PushSlice) -> Option<PendingPush> {
        let n = self.spec.count();
        let sh = slice.shard;
        if sh >= n {
            return None;
        }
        if slice.grads.len() != self.spec.range(sh).len() {
            // A slice that does not fit its shard cannot be assembled;
            // drop the whole push rather than apply garbage.
            self.pending[w] = None;
            return None;
        }
        let p = match self.pending[w].as_mut() {
            Some(p) if p.push_seq == slice.push_seq => p,
            _ => {
                // First slice of a new push; a leftover buffer from an
                // abandoned one is discarded.
                let adopted = n == 1 && matches!(slice.grads, CompressedGrad::Dense(_));
                let mut grads = Vec::new();
                if !adopted {
                    grads = self.spent.pop().unwrap_or_default();
                    grads.resize(self.spec.len(), 0.0);
                }
                self.pending[w].insert(PendingPush {
                    push_seq: slice.push_seq,
                    pull_version: slice.pull_version,
                    loss: slice.loss,
                    grads,
                    adopted,
                    ..PendingPush::default()
                })
            }
        };
        if p.seen & (1 << sh) == 0 {
            p.seen |= 1 << sh;
            p.got += 1;
        }
        if p.adopted {
            // The only slice is the whole gradient: adopt it.
            p.grads = slice.grads.into_dense();
        } else {
            slice.grads.decompress_into(&mut p.grads[self.spec.range(sh)]);
        }
        if sh == 0 {
            // BN payloads ride the lead slice only.
            p.batch_stats = slice.batch_stats;
            p.running = slice.running;
        }
        if p.got < n {
            return None;
        }
        self.pending[w].take()
    }

    /// Takes back the gradient of a push this assembly completed, once it
    /// has been applied. A buffer of the assembly's is kept for the next
    /// push; an [`adopted`](PendingPush::adopted) vector was never the
    /// assembly's and is returned for the caller to pass on to whoever
    /// decoded it. The assembly allocates a buffer only when it has none
    /// left, so it never holds more than pushes were in flight at once.
    pub(crate) fn reclaim(&mut self, grads: Vec<f32>, adopted: bool) -> Option<Vec<f32>> {
        if adopted {
            return Some(grads);
        }
        self.spent.push(grads);
        None
    }

    /// Discards worker `w`'s half-assembled push (a fenced or duplicate
    /// slice, a rejoining incarnation).
    pub(crate) fn abandon(&mut self, w: usize) {
        self.pending[w] = None;
    }

    /// Discards every half-assembled push (failover: they reference
    /// pulls from the dead primary).
    pub(crate) fn abandon_all(&mut self) {
        self.pending.iter_mut().for_each(|p| *p = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_tensor::Rng;

    #[test]
    fn even_split_covers_everything_once() {
        for (len, n) in [(10, 1), (10, 3), (64, 64), (7, 7), (1000, 6)] {
            let spec = ShardSpec::even(len, n).unwrap();
            assert_eq!(spec.count(), n);
            assert_eq!(spec.len(), len);
            let mut covered = 0;
            for s in 0..n {
                let r = spec.range(s);
                assert_eq!(r.start, covered, "shards must be contiguous");
                assert!(!r.is_empty(), "no shard may be empty");
                covered = r.end;
            }
            assert_eq!(covered, len);
            // Even to within one element.
            let sizes: Vec<usize> = (0..n).map(|s| spec.range(s).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "uneven split {sizes:?}");
        }
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(ShardSpec::even(10, 0).is_err());
        assert!(ShardSpec::even(3, 4).is_err(), "more shards than weights");
        assert!(ShardSpec::even(100, ShardSpec::MAX_SHARDS + 1).is_err());
    }

    fn slice(shard: usize, push_seq: u64, grads: CompressedGrad) -> PushSlice {
        PushSlice {
            push_seq,
            pull_version: 0,
            loss: 0.0,
            shard,
            grads,
            batch_stats: Vec::new(),
            running: BnState::default(),
        }
    }

    #[test]
    fn an_applied_gradient_goes_back_to_whoever_made_it() {
        let g = vec![0.5f32, -1.0, 2.0, 0.0];
        let packed = || Compression::Uniform { bits: 8 }.compress(&g, None);
        // One shard, dense: the message's own vector is adopted, and is
        // the transport's to have back.
        let mut one = PushAssembly::new(ShardSpec::even(4, 1).unwrap(), 1);
        let push = one.accept(0, slice(0, 1, CompressedGrad::Dense(g.clone()))).unwrap();
        assert!(push.adopted);
        assert_eq!(one.reclaim(push.grads, push.adopted), Some(g.clone()));
        // One shard, packed: unpacked into a buffer of the assembly's own,
        // which nobody else gets — and which the next push is unpacked into.
        let push = one.accept(0, slice(0, 2, packed())).unwrap();
        assert!(!push.adopted);
        assert_eq!(push.grads, packed().decompress());
        let buffer = push.grads.as_ptr();
        assert_eq!(one.reclaim(push.grads, push.adopted), None);
        let push = one.accept(0, slice(0, 3, packed())).unwrap();
        assert_eq!(push.grads.as_ptr(), buffer);
        // Several shards: always the assembly's buffer.
        let mut two = PushAssembly::new(ShardSpec::even(4, 2).unwrap(), 1);
        assert!(two.accept(0, slice(1, 1, CompressedGrad::Dense(g[2..].to_vec()))).is_none());
        let push = two.accept(0, slice(0, 1, CompressedGrad::Dense(g[..2].to_vec()))).unwrap();
        assert!(!push.adopted);
        assert_eq!(push.grads, g);
        assert_eq!(two.reclaim(push.grads, push.adopted), None);
    }

    #[test]
    fn split_and_assemble_roundtrip() {
        let spec = ShardSpec::even(11, 4).unwrap();
        let flat: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let parts = spec.split(&flat);
        assert_eq!(parts.len(), 4);
        assert_eq!(spec.assemble(&parts), flat);
    }

    fn group(n: usize) -> ShardGroup {
        let mut rng = Rng::seed_from_u64(77);
        let net = mlp(&[4, 6, 2], false, &mut rng);
        ShardGroup::new(&net, 2, BnMode::Regular, 0.5, n).unwrap()
    }

    #[test]
    fn sharded_apply_matches_unsharded() {
        let mut one = group(1);
        let mut four = group(4);
        assert_eq!(one.assembled_weights(), four.assembled_weights());
        let g: Vec<f32> = (0..one.spec().len()).map(|i| (i % 7) as f32 * 0.01).collect();
        one.apply_grad(&g, 0.1);
        four.apply_grad(&g, 0.1);
        assert_eq!(one.assembled_weights(), four.assembled_weights());
        assert_eq!(four.version(), 1);
        assert_eq!(four.versions(), vec![1; 4], "per-shard counters advance in lockstep");

        let bak = one.assembled_weights();
        one.apply_grad_dc(&g, 0.1, 0.04, &bak);
        four.apply_grad_dc(&g, 0.1, 0.04, &bak);
        assert_eq!(one.assembled_weights(), four.assembled_weights());

        one.apply_grad_avg(&[g.clone(), bak.clone()], 0.1);
        four.apply_grad_avg(&[g, bak], 0.1);
        assert_eq!(one.assembled_weights(), four.assembled_weights());
        assert_eq!(four.versions(), vec![3; 4]);
    }

    #[test]
    fn load_weights_roundtrips_through_shards() {
        let mut g = group(3);
        let flat: Vec<f32> = (0..g.spec().len()).map(|i| i as f32 * 0.5).collect();
        g.load_weights(&flat);
        assert_eq!(g.assembled_weights(), flat);
    }

    #[test]
    fn restore_versions_validates_shard_count() {
        let mut g = group(3);
        assert!(g.restore_versions(&[5, 5]).is_err());
        g.restore_versions(&[5, 5, 5]).unwrap();
        assert_eq!(g.version(), 5);
    }
}
