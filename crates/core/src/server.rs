//! The parameter server (paper Algorithm 2).

use crate::bnmode::BnMode;
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_nn::network::BnState;
use lcasgd_nn::Network;

/// Server-side state: the canonical weights, the global BN statistics,
/// the update counter `t`, and the `iter` arrival log.
pub struct ParameterServer {
    /// Flat canonical weights `w_t`.
    pub weights: Vec<f32>,
    /// Global BN running statistics (`E_z`, `Var_z` per layer).
    pub bn: BnState,
    /// Update counter `t` (number of applied gradients).
    pub version: u64,
    /// Arrival log: which worker's results arrived, in order ("iter").
    pub iter: Vec<usize>,
    /// Per-worker version at their previous logged arrival (for deriving
    /// the actual step count `k_m`).
    last_arrival_version: Vec<Option<u64>>,
    bn_mode: BnMode,
    /// Momentum `d` of Formulas 6–7.
    bn_momentum: f32,
}

impl ParameterServer {
    /// Initializes from the canonical network's weights and BN state.
    pub fn new(net: &Network, num_workers: usize, bn_mode: BnMode, bn_momentum: f32) -> Self {
        Self::with_weights(net.flat_params(), net.bn_state(), num_workers, bn_mode, bn_momentum)
    }

    /// A server over `weights` — all of a model's, or one shard's slice.
    pub fn with_weights(
        weights: Vec<f32>,
        bn: BnState,
        num_workers: usize,
        bn_mode: BnMode,
        bn_momentum: f32,
    ) -> Self {
        ParameterServer {
            weights,
            bn,
            version: 0,
            iter: Vec::new(),
            last_arrival_version: vec![None; num_workers],
            bn_mode,
            bn_momentum,
        }
    }

    /// Formula 8: `w_{t+1} = w_t − γ·g_m`.
    pub fn apply_grad(&mut self, grads: &[f32], lr: f32) {
        assert_eq!(grads.len(), self.weights.len(), "gradient length mismatch");
        for (w, &g) in self.weights.iter_mut().zip(grads) {
            *w -= lr * g;
        }
        self.version += 1;
    }

    /// DC-ASGD's Formula 3:
    /// `w_{t+τ+1} = w_{t+τ} − γ·(g + λ·g⊙g⊙(w_{t+τ} − w_bak))`.
    /// `w_bak` is the snapshot the pushing worker pulled.
    pub fn apply_grad_dc(&mut self, grads: &[f32], lr: f32, lambda: f32, w_bak: &[f32]) {
        assert_eq!(grads.len(), self.weights.len());
        assert_eq!(w_bak.len(), self.weights.len());
        for ((w, &g), &b) in self.weights.iter_mut().zip(grads).zip(w_bak) {
            let compensated = g + lambda * g * g * (*w - b);
            *w -= lr * compensated;
        }
        self.version += 1;
    }

    /// Averages M gradients and applies one update (SSGD, Formula 1).
    pub fn apply_grad_avg(&mut self, grads: &[impl AsRef<[f32]>], lr: f32) {
        assert!(!grads.is_empty());
        let scale = lr / grads.len() as f32;
        let grads: Vec<&[f32]> = grads.iter().map(AsRef::as_ref).collect();
        for g in &grads {
            assert_eq!(g.len(), self.weights.len());
        }
        for (i, w) in self.weights.iter_mut().enumerate() {
            let sum: f32 = grads.iter().map(|g| g[i]).sum();
            *w -= scale * sum;
        }
        self.version += 1;
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
    /// [`ParameterServer::arrival_state`]. Errs on a worker-count
    /// mismatch (e.g. a checkpoint taken with a different `--workers`)
    /// instead of aborting, so the caller can surface the mismatch
    /// through checkpoint load.
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

    /// The BN handling mode.
    pub fn bn_mode(&self) -> BnMode {
        self.bn_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_nn::mlp::mlp;
    use lcasgd_tensor::{Rng, Tensor};

    fn server(bn_mode: BnMode) -> ParameterServer {
        let mut rng = Rng::seed_from_u64(221);
        let net = mlp(&[4, 6, 2], true, &mut rng);
        ParameterServer::new(&net, 3, bn_mode, 0.5)
    }

    #[test]
    fn formula8_update() {
        let mut s = server(BnMode::Async);
        let w0 = s.weights[0];
        let mut g = vec![0.0; s.weights.len()];
        g[0] = 2.0;
        s.apply_grad(&g, 0.1);
        assert!((s.weights[0] - (w0 - 0.2)).abs() < 1e-7);
        assert_eq!(s.version, 1);
    }

    #[test]
    fn formula3_dc_compensation() {
        let mut s = server(BnMode::Async);
        let n = s.weights.len();
        // Set a known state: w = 1, g = 1, w_bak = 0 → compensated = 1 + λ·1·1·1.
        s.weights = vec![1.0; n];
        let g = vec![1.0; n];
        let bak = vec![0.0; n];
        s.apply_grad_dc(&g, 0.1, 0.5, &bak);
        // w = 1 − 0.1·(1 + 0.5) = 0.85
        assert!((s.weights[0] - 0.85).abs() < 1e-6);
    }

    #[test]
    fn dc_equals_plain_when_no_drift() {
        // w_bak == w → compensation vanishes.
        let mut a = server(BnMode::Async);
        let mut b = server(BnMode::Async);
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
        let mut s = server(BnMode::Async);
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
        let mut s = server(BnMode::Async);
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
        let mut s = server(BnMode::Async); // 3 workers
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
        let mut s = server(BnMode::Regular);
        let mut running = s.bn.clone();
        running.means[0] = Tensor::full(&[6], 9.0);
        s.absorb_bn(&running, &[]);
        assert_eq!(s.bn.means[0].data(), &[9.0; 6]);
    }

    #[test]
    fn async_bn_accumulates_formulas_6_7() {
        let mut s = server(BnMode::Async); // d = 0.5, initial mean 0, var 1
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
}
