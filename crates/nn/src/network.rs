//! `Network`: an ordered stack of layers with flat-weight serialization.
//!
//! The parameter server holds the canonical weights as a flat `Vec<f32>`;
//! workers deserialize into their local `Network`, train, and ship flat
//! gradients back. Flattening order is the parameter-visitor order, which
//! is defined to mirror forward registration order (asserted by tests).

use crate::layer::{ForwardCtx, Layer};
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_autograd::{Graph, Var};
use lcasgd_tensor::Tensor;

/// Snapshot of every BatchNorm layer's running statistics, in BN-visitor
/// order. This is the state Async-BN centralizes on the parameter server.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BnState {
    pub means: Vec<Tensor>,
    pub vars: Vec<Tensor>,
}

/// A feed-forward network (possibly containing residual blocks).
pub struct Network {
    layers: Vec<Layer>,
    /// Parameter scalars over all layers; a layer stack's shapes never
    /// change after construction.
    num_params: usize,
}

impl Network {
    /// Wraps a layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        let mut num_params = 0;
        for l in &layers {
            l.visit_params(&mut |t| num_params += t.numel());
        }
        Network { layers, num_params }
    }

    /// The layer stack, in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Forward pass over a batch; returns the logits node and the forward
    /// context (parameter vars + BN batch stats).
    pub fn forward(&self, g: &mut Graph, input: Tensor, train: bool) -> (Var, ForwardCtx) {
        let mut ctx = ForwardCtx::new(train);
        let mut x = g.input(input);
        for layer in &self.layers {
            x = layer.forward(g, x, &mut ctx);
        }
        (x, ctx)
    }

    /// Total number of parameter scalars.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Serializes all parameters into one flat buffer (visitor order).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params);
        for l in &self.layers {
            l.visit_params(&mut |t| out.extend_from_slice(t.data()));
        }
        out
    }

    /// Loads parameters from a flat buffer produced by [`flat_params`]
    /// on an identically shaped network.
    ///
    /// [`flat_params`]: Self::flat_params
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        for l in &mut self.layers {
            l.visit_params_mut(&mut |t| {
                let n = t.numel();
                t.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            });
        }
        assert_eq!(off, flat.len(), "flat parameter length mismatch");
    }

    /// Takes the gradient of every parameter after `g.backward(...)`,
    /// flattened in the same order as [`flat_params`](Self::flat_params).
    /// Parameters unreached by backward get zero gradients. Nothing is
    /// gathered: the forward pass registered the parameters in that order,
    /// so this is the tape's gradient arena as `backward` left it.
    pub fn flat_grads(&self, g: &mut Graph) -> Vec<f32> {
        let grads = g.take_grad_arena();
        assert_eq!(grads.len(), self.num_params, "the tape is not this network's forward pass");
        grads
    }

    /// Applies `params += alpha · grads` over the flat representation.
    pub fn axpy_params(&mut self, grads: &[f32], alpha: f32) {
        let mut off = 0;
        for l in &mut self.layers {
            l.visit_params_mut(&mut |t| {
                let n = t.numel();
                for (p, &g) in t.data_mut().iter_mut().zip(&grads[off..off + n]) {
                    *p += alpha * g;
                }
                off += n;
            });
        }
        assert_eq!(off, grads.len(), "flat gradient length mismatch");
    }

    /// Snapshot of all BN running statistics (BN-visitor order).
    pub fn bn_state(&self) -> BnState {
        let mut s = BnState::default();
        for l in &self.layers {
            l.visit_bn(&mut |b| {
                s.means.push(b.running_mean.clone());
                s.vars.push(b.running_var.clone());
            });
        }
        s
    }

    /// Installs BN running statistics (e.g. the server's Async-BN
    /// accumulators) into the model.
    pub fn set_bn_state(&mut self, state: &BnState) {
        let mut i = 0;
        for l in &mut self.layers {
            l.visit_bn_mut(&mut |b| {
                b.running_mean = state.means[i].clone();
                b.running_var = state.vars[i].clone();
                i += 1;
            });
        }
        assert_eq!(i, state.means.len(), "BN state layer-count mismatch");
    }

    /// Number of BatchNorm layers.
    pub fn num_bn_layers(&self) -> usize {
        let mut n = 0;
        for l in &self.layers {
            l.visit_bn(&mut |_| n += 1);
        }
        n
    }

    /// Locally EMA-updates running BN statistics from a forward pass's
    /// batch stats: `running = (1−m)·running + m·batch`. This is *regular*
    /// BN behaviour (each worker updates its own copy).
    pub fn update_bn_running(&mut self, stats: &[BnBatchStats], momentum: f32) {
        let mut i = 0;
        for l in &mut self.layers {
            l.visit_bn_mut(&mut |b| {
                let s = &stats[i];
                b.running_mean.scale_add_inplace(1.0 - momentum, &s.mean, momentum);
                b.running_var.scale_add_inplace(1.0 - momentum, &s.var, momentum);
                i += 1;
            });
        }
        assert_eq!(i, stats.len(), "BN stats layer-count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{BatchNorm, Linear, ResidualBlock};
    use lcasgd_tensor::Rng;

    fn tiny_net(rng: &mut Rng) -> Network {
        Network::new(vec![
            Layer::Linear(Linear::new(4, 8, rng)),
            Layer::BatchNorm(BatchNorm::new(8)),
            Layer::Relu,
            Layer::Linear(Linear::new(8, 3, rng)),
        ])
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = Rng::seed_from_u64(101);
        let net = tiny_net(&mut rng);
        let flat = net.flat_params();
        assert_eq!(flat.len(), net.num_params());
        let mut net2 = tiny_net(&mut rng); // different random weights
        assert_ne!(net2.flat_params(), flat);
        net2.set_flat_params(&flat);
        assert_eq!(net2.flat_params(), flat);
    }

    #[test]
    fn forward_backward_produces_full_grads() {
        let mut rng = Rng::seed_from_u64(102);
        let net = tiny_net(&mut rng);
        let mut g = Graph::new();
        let x = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let (logits, _) = net.forward(&mut g, x, true);
        let loss = g.softmax_cross_entropy(logits, &[0, 1, 2, 0, 1, 2]);
        g.backward(loss);
        let grads = net.flat_grads(&mut g);
        assert_eq!(grads.len(), net.num_params());
        assert!(grads.iter().any(|&v| v != 0.0), "gradients should be nonzero");
    }

    #[test]
    fn axpy_moves_params() {
        let mut rng = Rng::seed_from_u64(103);
        let mut net = tiny_net(&mut rng);
        let before = net.flat_params();
        let grads = vec![1.0; net.num_params()];
        net.axpy_params(&grads, -0.1);
        let after = net.flat_params();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - 0.1 - a).abs() < 1e-6);
        }
    }

    #[test]
    fn bn_state_roundtrip_and_count() {
        let mut rng = Rng::seed_from_u64(104);
        let mut net = Network::new(vec![
            Layer::Conv(crate::layer::Conv2d::new(
                lcasgd_tensor::ops::conv::Conv2dSpec {
                    in_channels: 3,
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &mut rng,
            )),
            Layer::Residual(ResidualBlock::basic(4, 4, 1, &mut rng)),
            Layer::GlobalAvgPool,
            Layer::Linear(Linear::new(4, 2, &mut rng)),
        ]);
        assert_eq!(net.num_bn_layers(), 2);
        let mut state = net.bn_state();
        state.means[0] = Tensor::full(&[4], 7.0);
        net.set_bn_state(&state);
        assert_eq!(net.bn_state().means[0].data(), &[7.0; 4]);
    }

    #[test]
    fn bn_running_ema_update() {
        let mut rng = Rng::seed_from_u64(105);
        let mut net = tiny_net(&mut rng);
        let stats =
            vec![BnBatchStats { mean: Tensor::full(&[8], 10.0), var: Tensor::full(&[8], 4.0) }];
        net.update_bn_running(&stats, 0.5);
        let st = net.bn_state();
        assert_eq!(st.means[0].data(), &[5.0; 8]); // (1-0.5)*0 + 0.5*10
        assert_eq!(st.vars[0].data(), &[2.5; 8]); // (1-0.5)*1 + 0.5*4
    }

    #[test]
    fn eval_mode_uses_running_stats_deterministically() {
        let mut rng = Rng::seed_from_u64(106);
        let net = tiny_net(&mut rng);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let mut g1 = Graph::new();
        let (y1, _) = net.forward(&mut g1, x.clone(), false);
        let mut g2 = Graph::new();
        let (y2, _) = net.forward(&mut g2, x, false);
        assert_eq!(g1.value(y1), g2.value(y2));
    }
}
