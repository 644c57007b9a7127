//! The parameter server (paper Algorithm 2) and its sharding: one flat
//! weight vector `w_t`, one update counter `t`, one `iter` arrival log and
//! one set of BN statistics, with the weights split into N contiguous
//! ranges on the wire.
//!
//! The split is *coordinator-free*: workers fan each pull/push out to the
//! shards over their single ordered link, so no extra process or routing
//! table exists. Every push carries a slice for **every** shard and the
//! server applies a push only once it is whole, so sharding partitions
//! the messages (pulls, push slices, write-ahead log records), never the
//! server's state. See DESIGN.md §11.

use crate::bnmode::BnMode;
use crate::comm::{CompressedGrad, Compression};
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

    /// Splits a full-length flat vector into owned per-shard slices.
    pub fn split(&self, flat: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(flat.len(), self.len(), "flat vector length mismatch");
        (0..self.count()).map(|s| flat[self.range(s)].to_vec()).collect()
    }
}

/// The parameter server of Algorithm 2, behind the single serialized server
/// event loop: the canonical weights, the global BN statistics, the update
/// counter `t` and the `iter` arrival log, each held once whatever the
/// shard count.
///
/// The group is also the one owner of the copies of its weights that leave
/// the server: [`snapshot`](Self::snapshot) lends out one shared vector per
/// (shard, version) — to every pull at that version, the epoch evaluator,
/// the write-ahead log's "before" image — and refills the same allocation
/// for the next version once the last borrower has let go (DESIGN.md
/// §12.6).
pub struct ShardGroup {
    spec: ShardSpec,
    /// Flat canonical weights `w_t`; shard `s` is `spec.range(s)` of them.
    weights: Vec<f32>,
    /// Global BN running statistics (`E_z`, `Var_z` per layer).
    bn: BnState,
    /// Update counter `t` (number of applied gradients).
    version: u64,
    /// Arrival log: which worker's results arrived, in order ("iter").
    iter: Vec<usize>,
    /// Per-worker version at their previous logged arrival (for deriving
    /// the actual step count `k_m`).
    last_arrival_version: Vec<Option<u64>>,
    bn_mode: BnMode,
    /// Momentum `d` of Formulas 6–7.
    bn_momentum: f32,
    snapshots: Vec<Snapshot>,
}

/// A shard's lendable copy of its range of the weights.
#[derive(Default)]
struct Snapshot {
    weights: Arc<Vec<f32>>,
    /// False once the weights have moved on from `weights`; every
    /// `ShardGroup` method that writes them clears it.
    current: bool,
}

impl ShardGroup {
    /// The server over the canonical network's weights and BN state,
    /// split into `n` shards.
    pub fn new(
        net: &Network,
        num_workers: usize,
        bn_mode: BnMode,
        bn_momentum: f32,
        n: usize,
    ) -> Result<ShardGroup, String> {
        let weights = net.flat_params();
        let spec = ShardSpec::even(weights.len(), n)?;
        Ok(ShardGroup {
            spec,
            weights,
            bn: net.bn_state(),
            version: 0,
            iter: Vec::new(),
            last_arrival_version: vec![None; num_workers],
            bn_mode,
            bn_momentum,
            snapshots: (0..n).map(|_| Snapshot::default()).collect(),
        })
    }

    /// The partition.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.spec.count()
    }

    /// The flat weights `w_t`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// A shared copy of shard `s`'s weights as they are now. Calls between
    /// two writes return the same vector; the first call after a write
    /// copies the weights — into the previous snapshot's allocation when
    /// nobody holds that any more, which is the steady state on a transport
    /// that encodes a reply and drops it.
    pub fn snapshot(&mut self, s: usize) -> Arc<Vec<f32>> {
        let (weights, snap) = (&self.weights[self.spec.range(s)], &mut self.snapshots[s]);
        if !snap.current {
            match Arc::get_mut(&mut snap.weights) {
                Some(buf) => {
                    buf.clear();
                    buf.extend_from_slice(weights);
                }
                None => snap.weights = Arc::new(weights.to_vec()),
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

    /// Update counter `t`: the number of completed pushes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The arrival log ("iter").
    pub fn iter(&self) -> &[usize] {
        &self.iter
    }

    /// Restores the update counter and the arrival log from a checkpoint.
    pub fn restore_log(&mut self, version: u64, iter: Vec<usize>) {
        self.version = version;
        self.iter = iter;
    }

    /// A copy of the flat weight vector.
    pub fn assembled_weights(&self) -> Vec<f32> {
        self.weights.clone()
    }

    /// Overwrites the weights from a full flat vector (rollback,
    /// checkpoint restore, failover adoption).
    pub fn load_weights(&mut self, flat: &[f32]) {
        self.weights.copy_from_slice(flat);
        self.weights_written();
    }

    /// Formula 8: `w_{t+1} = w_t − γ·g_m`.
    pub fn apply_grad(&mut self, grads: &[f32], lr: f32) {
        assert_eq!(grads.len(), self.weights.len(), "gradient length mismatch");
        for (w, &g) in self.weights.iter_mut().zip(grads) {
            *w -= lr * g;
        }
        self.applied();
    }

    /// DC-ASGD's Formula 3:
    /// `w_{t+τ+1} = w_{t+τ} − γ·(g + λ·g⊙g⊙(w_{t+τ} − w_bak))`.
    /// `w_bak` is the snapshot the pushing worker pulled.
    pub fn apply_grad_dc(&mut self, grads: &[f32], lr: f32, lambda: f32, w_bak: &[f32]) {
        assert_eq!(grads.len(), self.weights.len(), "gradient length mismatch");
        assert_eq!(w_bak.len(), self.weights.len(), "backup length mismatch");
        for ((w, &g), &b) in self.weights.iter_mut().zip(grads).zip(w_bak) {
            let compensated = g + lambda * g * g * (*w - b);
            *w -= lr * compensated;
        }
        self.applied();
    }

    /// Averages M gradients and applies one update (SSGD, Formula 1).
    pub fn apply_grad_avg(&mut self, grads: &[impl AsRef<[f32]>], lr: f32) {
        assert!(!grads.is_empty());
        let scale = lr / grads.len() as f32;
        let grads: Vec<&[f32]> = grads.iter().map(AsRef::as_ref).collect();
        for g in &grads {
            assert_eq!(g.len(), self.weights.len(), "gradient length mismatch");
        }
        for (i, w) in self.weights.iter_mut().enumerate() {
            let sum: f32 = grads.iter().map(|g| g[i]).sum();
            *w -= scale * sum;
        }
        self.applied();
    }

    fn applied(&mut self) {
        self.version += 1;
        self.weights_written();
    }

    /// Logs worker `m`'s result arrival ("Append m to iter") and returns
    /// the number of server updates since `m`'s previous arrival — the
    /// *actual* step count used as the step predictor's training label.
    pub fn log_arrival(&mut self, m: usize) -> u64 {
        self.iter.push(m);
        let actual = self.last_arrival_version[m].map(|v| self.version - v).unwrap_or(0);
        self.last_arrival_version[m] = Some(self.version);
        actual
    }

    /// Forgets worker `m`'s arrival history. Called when a crashed worker
    /// rejoins: its next arrival is the restarted process's *first*, so
    /// the derived step count must restart from "no history" instead of
    /// spanning the crash (Algorithm 2's `k_m` bookkeeping per worker).
    pub fn reset_arrival(&mut self, m: usize) {
        self.last_arrival_version[m] = None;
    }

    /// Per-worker version-at-last-arrival, for checkpointing.
    pub fn arrival_state(&self) -> Vec<Option<u64>> {
        self.last_arrival_version.clone()
    }

    /// Restores the arrival bookkeeping captured by
    /// [`ShardGroup::arrival_state`]. Errs on a worker-count mismatch
    /// (e.g. a checkpoint taken with a different `--workers`) instead of
    /// aborting, so the caller can surface the mismatch through checkpoint
    /// load.
    pub fn restore_arrival_state(&mut self, state: &[Option<u64>]) -> Result<(), String> {
        if state.len() != self.last_arrival_version.len() {
            return Err(format!(
                "checkpoint arrival state covers {} workers but the run has {}; \
                 resume with --workers {} or start fresh",
                state.len(),
                self.last_arrival_version.len(),
                state.len()
            ));
        }
        self.last_arrival_version = state.to_vec();
        Ok(())
    }

    /// Absorbs a worker's BN statistics into the global state.
    ///
    /// * Regular BN: replace with the worker's local running stats
    ///   (`worker_running`) — last writer wins (paper §5.3).
    /// * Async-BN: EMA-accumulate the worker's *batch* stats with momentum
    ///   `d` (Formulas 6–7).
    pub fn absorb_bn(&mut self, worker_running: &BnState, batch: &[BnBatchStats]) {
        match self.bn_mode {
            BnMode::Regular => {
                self.bn = worker_running.clone();
            }
            BnMode::Async => {
                assert_eq!(batch.len(), self.bn.means.len(), "BN layer-count mismatch");
                let d = self.bn_momentum;
                for (i, s) in batch.iter().enumerate() {
                    self.bn.means[i].scale_add_inplace(1.0 - d, &s.mean, d);
                    self.bn.vars[i].scale_add_inplace(1.0 - d, &s.var, d);
                }
            }
        }
    }

    /// The global BN state.
    pub fn bn(&self) -> &BnState {
        &self.bn
    }

    /// Overwrites the global BN state (restore paths).
    pub fn set_bn(&mut self, bn: BnState) {
        self.bn = bn;
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
/// The worker's push path; public so the codec differential suite can
/// drive it.
pub fn shard_wire_grads(
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
    /// BN payloads, carried by shard 0's slice only.
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
            // BN payloads ride shard 0's slice only.
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
    use lcasgd_tensor::{Rng, Tensor};

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
        let packed = || Compression::Int8.compress(&g, None);
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
    fn split_covers_the_vector_in_order() {
        let spec = ShardSpec::even(11, 4).unwrap();
        let flat: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let parts = spec.split(&flat);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.concat(), flat);
    }

    fn group(n: usize, bn_mode: BnMode) -> ShardGroup {
        let mut rng = Rng::seed_from_u64(221);
        let net = mlp(&[4, 6, 2], true, &mut rng);
        ShardGroup::new(&net, 3, bn_mode, 0.5, n).unwrap()
    }

    #[test]
    fn formula8_update() {
        let mut s = group(1, BnMode::Async);
        let w0 = s.weights[0];
        let mut g = vec![0.0; s.weights.len()];
        g[0] = 2.0;
        s.apply_grad(&g, 0.1);
        assert!((s.weights[0] - (w0 - 0.2)).abs() < 1e-7);
        assert_eq!(s.version, 1);
    }

    #[test]
    fn formula3_dc_compensation() {
        let mut s = group(1, BnMode::Async);
        let n = s.weights.len();
        // Set a known state: w = 1, g = 1, w_bak = 0 → compensated = 1 + λ·1·1·1.
        s.load_weights(&vec![1.0; n]);
        let g = vec![1.0; n];
        let bak = vec![0.0; n];
        s.apply_grad_dc(&g, 0.1, 0.5, &bak);
        // w = 1 − 0.1·(1 + 0.5) = 0.85
        assert!((s.weights[0] - 0.85).abs() < 1e-6);
    }

    #[test]
    fn dc_equals_plain_when_no_drift() {
        // w_bak == w → compensation vanishes.
        let mut a = group(1, BnMode::Async);
        let mut b = group(1, BnMode::Async);
        let g: Vec<f32> = (0..a.weights.len()).map(|i| (i % 5) as f32 * 0.1).collect();
        let bak = a.weights.clone();
        a.apply_grad_dc(&g, 0.2, 0.7, &bak);
        b.apply_grad(&g, 0.2);
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn averaged_update_matches_mean() {
        let mut s = group(1, BnMode::Async);
        let n = s.weights.len();
        let w0 = s.weights.clone();
        let g1 = vec![1.0; n];
        let g2 = vec![3.0; n];
        s.apply_grad_avg(&[g1, g2], 0.1);
        for (w, w0) in s.weights.iter().zip(&w0) {
            assert!((w - (w0 - 0.2)).abs() < 1e-6); // mean grad = 2, lr 0.1
        }
    }

    #[test]
    fn arrival_log_derives_steps() {
        let mut s = group(1, BnMode::Async);
        let g = vec![0.0; s.weights.len()];
        assert_eq!(s.log_arrival(0), 0); // first arrival: no history
        s.apply_grad(&g, 0.1);
        s.apply_grad(&g, 0.1);
        // Worker 1 interleaves — irrelevant to worker 0's count.
        assert_eq!(s.log_arrival(1), 0);
        s.apply_grad(&g, 0.1);
        assert_eq!(s.log_arrival(0), 3); // three updates since its last arrival
        assert_eq!(s.iter, vec![0, 1, 0]);
    }

    #[test]
    fn restore_arrival_state_rejects_worker_count_mismatch() {
        let mut s = group(1, BnMode::Async); // 3 workers
        let err = s.restore_arrival_state(&[Some(4), None]).unwrap_err();
        assert!(err.contains("2 workers"), "{err}");
        assert!(err.contains("has 3"), "{err}");
        // Matching count restores and is observable through log_arrival.
        s.restore_arrival_state(&[Some(0), None, None]).unwrap();
        let g = vec![0.0; s.weights.len()];
        s.apply_grad(&g, 0.1);
        assert_eq!(s.log_arrival(0), 1, "restored history survives the roundtrip");
    }

    #[test]
    fn regular_bn_replaces() {
        let mut s = group(1, BnMode::Regular);
        let mut running = s.bn.clone();
        running.means[0] = Tensor::full(&[6], 9.0);
        s.absorb_bn(&running, &[]);
        assert_eq!(s.bn.means[0].data(), &[9.0; 6]);
    }

    #[test]
    fn async_bn_accumulates_formulas_6_7() {
        let mut s = group(1, BnMode::Async); // d = 0.5, initial mean 0, var 1
        let batch =
            vec![BnBatchStats { mean: Tensor::full(&[6], 4.0), var: Tensor::full(&[6], 3.0) }];
        let dummy_running = s.bn.clone();
        s.absorb_bn(&dummy_running, &batch);
        // E = 0.5·0 + 0.5·4 = 2 ; Var = 0.5·1 + 0.5·3 = 2
        assert_eq!(s.bn.means[0].data(), &[2.0; 6]);
        assert_eq!(s.bn.vars[0].data(), &[2.0; 6]);
        s.absorb_bn(&dummy_running, &batch);
        assert_eq!(s.bn.means[0].data(), &[3.0; 6]);
    }

    #[test]
    fn sharded_apply_matches_unsharded() {
        let mut one = group(1, BnMode::Regular);
        let mut four = group(4, BnMode::Regular);
        assert_eq!(one.weights(), four.weights());
        let g: Vec<f32> = (0..one.spec().len()).map(|i| (i % 7) as f32 * 0.01).collect();
        one.apply_grad(&g, 0.1);
        four.apply_grad(&g, 0.1);
        assert_eq!(one.weights(), four.weights());
        assert_eq!(four.version(), 1);

        let bak = one.assembled_weights();
        one.apply_grad_dc(&g, 0.1, 0.04, &bak);
        four.apply_grad_dc(&g, 0.1, 0.04, &bak);
        assert_eq!(one.weights(), four.weights());

        one.apply_grad_avg(&[g.clone(), bak.clone()], 0.1);
        four.apply_grad_avg(&[g, bak], 0.1);
        assert_eq!(one.weights(), four.weights());
        assert_eq!(four.version(), 3);
    }

    #[test]
    fn load_weights_roundtrips_through_shards() {
        let mut g = group(3, BnMode::Regular);
        let flat: Vec<f32> = (0..g.spec().len()).map(|i| i as f32 * 0.5).collect();
        g.load_weights(&flat);
        let parts: Vec<_> = (0..3).map(|s| g.snapshot(s)).collect();
        assert_eq!(parts.iter().map(|p| p.as_slice()).collect::<Vec<_>>().concat(), flat);
        g.apply_grad(&vec![1.0; flat.len()], 0.5);
        assert_eq!(g.snapshot(1).as_slice(), &g.weights()[g.spec().range(1)]);
        assert_ne!(g.snapshot(1), parts[1], "a write makes the next snapshot a fresh copy");
    }
}
