//! Worker-side computation (paper Algorithm 1).
//!
//! A worker owns a local replica of the network. One LC-ASGD iteration is
//! split across two calls matching the two server round-trips:
//!
//! 1. [`WorkerNode::forward_phase`] — install pulled weights, draw a
//!    batch, run the forward pass recording the loss and every BN layer's
//!    batch statistics (Algorithm 1 lines 1–8);
//! 2. [`WorkerNode::backward_phase`] — after the server's `ℓ_delay`
//!    arrives, backpropagate the compensated loss (line 10, Formula 5 via
//!    the seed produced by [`crate::CompensationMode`]) and return the
//!    flat gradient (line 12).
//!
//! The single-round-trip algorithms (ASGD, DC-ASGD, SSGD) use
//! [`WorkerNode::compute_gradient`], which fuses both phases with seed 1.

use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_autograd::{Graph, Var};
use lcasgd_data::{BatchIter, Dataset};
use lcasgd_nn::network::BnState;
use lcasgd_nn::Network;

struct PendingForward {
    graph: Graph,
    loss_var: Var,
    loss: f32,
}

/// One worker's local state.
pub struct WorkerNode {
    /// Local network replica.
    pub net: Network,
    batches: BatchIter,
    pending: Option<PendingForward>,
    /// A gradient vector this worker handed out earlier and got back
    /// ([`recycle_grads`](Self::recycle_grads)): the next backward pass
    /// writes into it instead of allocating.
    spent_grads: Vec<f32>,
    /// Momentum for the worker-local BN running EMA (regular-BN path).
    pub bn_momentum: f32,
}

impl WorkerNode {
    /// A worker over `data_len` training examples with the given batch
    /// size; `seed` derives its private shuffling stream.
    pub fn new(net: Network, data_len: usize, batch_size: usize, seed: u64) -> Self {
        Self::with_indices(net, (0..data_len).collect(), batch_size, seed)
    }

    /// A worker restricted to an explicit example subset — the
    /// partitioned-data setting ([`crate::config::DataPartition`]).
    pub fn with_indices(net: Network, indices: Vec<usize>, batch_size: usize, seed: u64) -> Self {
        WorkerNode {
            net,
            batches: BatchIter::from_indices(indices, batch_size, seed),
            pending: None,
            spent_grads: Vec::new(),
            bn_momentum: 0.1,
        }
    }

    /// Number of training examples this worker draws from.
    pub fn shard_len(&self) -> usize {
        self.batches.len()
    }

    /// Algorithm 1 lines 1–8: install the pulled weights, forward a batch,
    /// record loss + BN batch statistics. Keeps the graph alive for the
    /// deferred backward. Returns `(ℓ_m, batch BN stats)`.
    pub fn forward_phase(&mut self, weights: &[f32], data: &Dataset) -> (f32, Vec<BnBatchStats>) {
        // A tape shares the parameters' buffers; with the last one gone the
        // new weights are written into them in place.
        self.pending = None;
        self.net.set_flat_params(weights);
        let (x, y) = self.batches.next_batch(data);
        let mut graph = Graph::new();
        let (logits, ctx) = self.net.forward(&mut graph, x, true);
        let loss_var = graph.softmax_cross_entropy(logits, &y);
        let loss = graph.value(loss_var).item();
        let stats = ctx.bn_stats;
        // Maintain the worker-local running EMA (what a regular-BN worker
        // would report).
        self.net.update_bn_running(&stats, self.bn_momentum);
        self.pending = Some(PendingForward { graph, loss_var, loss });
        (loss, stats)
    }

    /// Algorithm 1 lines 9–12: backpropagate the compensated loss. `seed`
    /// is the gradient scale produced by the compensation mode (1.0 =
    /// plain ASGD). Returns the flat gradient `g_m`: the tape's gradient
    /// arena, which the backward pass wrote every parameter's gradient
    /// into. Pass the vector to [`recycle_grads`](Self::recycle_grads) once
    /// it has been sent and the next call reuses it.
    ///
    /// Panics if no forward is pending.
    pub fn backward_phase(&mut self, seed: f32) -> Vec<f32> {
        let mut p = self.pending.take().expect("backward_phase without forward_phase");
        p.graph.set_grad_arena(std::mem::take(&mut self.spent_grads));
        p.graph.backward_with_seed(p.loss_var, seed);
        self.net.flat_grads(&mut p.graph)
    }

    /// Hands back a gradient vector [`backward_phase`](Self::backward_phase)
    /// returned, once whoever took it is done with it. Its contents no
    /// longer matter.
    pub fn recycle_grads(&mut self, spent: Vec<f32>) {
        self.spent_grads = spent;
    }

    /// The loss recorded by the pending forward, if any.
    pub fn pending_loss(&self) -> Option<f32> {
        self.pending.as_ref().map(|p| p.loss)
    }

    /// Fused forward+backward with no compensation — the ASGD / DC-ASGD /
    /// SSGD iteration. Returns `(loss, flat gradient, BN batch stats)`.
    pub fn compute_gradient(
        &mut self,
        weights: &[f32],
        data: &Dataset,
    ) -> (f32, Vec<f32>, Vec<BnBatchStats>) {
        let (loss, stats) = self.forward_phase(weights, data);
        let grads = self.backward_phase(1.0);
        (loss, grads, stats)
    }

    /// Snapshot of the worker's local BN running statistics (the payload a
    /// regular-BN worker pushes).
    pub fn bn_running(&self) -> BnState {
        self.net.bn_state()
    }

    /// The batch iterator's position as `(reshuffles, pos)` — checkpointed
    /// so a resumed run continues the data stream instead of re-seeing the
    /// same examples.
    pub fn batch_progress(&self) -> (u64, u64) {
        self.batches.progress()
    }

    /// Fast-forwards a freshly built worker's batch stream to a position
    /// captured by [`WorkerNode::batch_progress`] (replay-based; see
    /// [`BatchIter::replay_to`]).
    pub fn replay_batches_to(&mut self, reshuffles: u64, pos: u64) {
        self.batches.replay_to(reshuffles, pos);
    }

    /// Replaces this worker's data shard — the supervisor's straggler
    /// reassignment, delivered in a pull directive. The batch stream
    /// restarts on the new subset.
    pub fn set_shard(&mut self, indices: Vec<usize>) {
        self.batches.set_indices(indices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_data::synth::blobs;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_tensor::Rng;

    fn setup() -> (WorkerNode, Dataset, Vec<f32>) {
        let mut rng = Rng::seed_from_u64(231);
        let net = mlp(&[4, 8, 3], true, &mut rng);
        let weights = net.flat_params();
        let data = blobs(3, 4, 10, 0.3, 7);
        let w = WorkerNode::new(net, data.len(), 6, 1);
        (w, data, weights)
    }

    #[test]
    fn two_phase_matches_fused_with_unit_seed() {
        let (mut w, data, weights) = setup();
        let (loss1, _) = w.forward_phase(&weights, &data);
        let g1 = w.backward_phase(1.0);

        // Fresh worker with the identical batch stream.
        let mut rng = Rng::seed_from_u64(231);
        let net = mlp(&[4, 8, 3], true, &mut rng);
        let mut w2 = WorkerNode::new(net, data.len(), 6, 1);
        let (loss2, g2, _) = w2.compute_gradient(&weights, &data);
        assert_eq!(loss1, loss2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn seed_scales_gradient_linearly() {
        let (mut w, data, weights) = setup();
        w.forward_phase(&weights, &data);
        let g1 = w.backward_phase(1.0);
        // Same batch again requires a fresh identical worker.
        let mut rng = Rng::seed_from_u64(231);
        let net = mlp(&[4, 8, 3], true, &mut rng);
        let mut w2 = WorkerNode::new(net, data.len(), 6, 1);
        w2.forward_phase(&weights, &data);
        let g2 = w2.backward_phase(2.0);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "without forward_phase")]
    fn backward_without_forward_panics() {
        let (mut w, _, _) = setup();
        w.backward_phase(1.0);
    }

    #[test]
    fn forward_reports_bn_stats_per_layer() {
        let (mut w, data, weights) = setup();
        let (_, stats) = w.forward_phase(&weights, &data);
        assert_eq!(stats.len(), w.net.num_bn_layers());
    }

    #[test]
    fn pending_loss_lifecycle() {
        let (mut w, data, weights) = setup();
        assert!(w.pending_loss().is_none());
        let (loss, _) = w.forward_phase(&weights, &data);
        assert_eq!(w.pending_loss(), Some(loss));
        w.backward_phase(1.0);
        assert!(w.pending_loss().is_none());
    }

    #[test]
    fn set_shard_restricts_future_batches() {
        let (mut w, data, weights) = setup();
        w.set_shard(vec![0, 1, 2]);
        assert_eq!(w.shard_len(), 3);
        // Still trains: forward/backward over the narrowed shard works.
        let (loss, _) = w.forward_phase(&weights, &data);
        assert!(loss.is_finite());
        w.backward_phase(1.0);
    }

    #[test]
    fn local_bn_running_moves_after_forward() {
        let (mut w, data, weights) = setup();
        let before = w.bn_running();
        w.forward_phase(&weights, &data);
        let after = w.bn_running();
        assert_ne!(before, after, "running BN stats should EMA toward batch stats");
    }
}
