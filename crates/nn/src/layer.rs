//! Layers and the `Layer` composition enum.
//!
//! Layers are plain state holders; the forward pass threads an autograd
//! [`Graph`] plus a [`ForwardCtx`] that records (a) the tape `Var` of every
//! parameter, in visitation order — the order the tape's gradient arena
//! lays their gradients out in — and (b) the batch statistics of every
//! BatchNorm layer, in layer order — the payload a worker reports to the
//! parameter server for Async-BN.

use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_autograd::{Graph, Var};
use lcasgd_tensor::ops::conv::Conv2dSpec;
use lcasgd_tensor::{init, Rng, Tensor};

/// Per-forward bookkeeping.
pub struct ForwardCtx {
    /// Training mode: BatchNorm normalizes with batch statistics and
    /// records them; inference mode uses running statistics.
    pub train: bool,
    /// Tape handle of each parameter, in [`Layer::visit_params`] order.
    pub param_vars: Vec<Var>,
    /// Batch statistics of each BatchNorm layer, in layer order
    /// (training mode only).
    pub bn_stats: Vec<BnBatchStats>,
}

impl ForwardCtx {
    /// Fresh context in the given mode.
    pub fn new(train: bool) -> Self {
        ForwardCtx { train, param_vars: Vec::new(), bn_stats: Vec::new() }
    }

    /// Puts a layer's parameter on the tape. The tape shares the tensor's
    /// buffer instead of copying it, and its gradient goes to the next
    /// window of the tape's gradient arena ([`Graph::param`]).
    fn param(&mut self, g: &mut Graph, t: &Tensor) -> Var {
        let v = g.param(t.clone());
        self.param_vars.push(v);
        v
    }
}

/// Fully connected layer `y = x·Wᵀ + b` with `W: [out, in]`.
pub struct Linear {
    pub weight: Tensor,
    pub bias: Tensor,
}

impl Linear {
    /// He-initialized linear layer (suitable for ReLU networks).
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: init::he_normal(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
        }
    }

    /// Xavier-initialized linear layer (suitable near sigmoids/tanh, e.g.
    /// the LSTM output heads).
    pub fn new_xavier(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: init::xavier_uniform(
                &[out_features, in_features],
                in_features,
                out_features,
                rng,
            ),
            bias: Tensor::zeros(&[out_features]),
        }
    }

    /// Builds the forward node, registering parameters on the context.
    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        let w = ctx.param(g, &self.weight);
        let b = ctx.param(g, &self.bias);
        g.linear(x, w, b)
    }
}

/// Bias-free 2-D convolution (ResNet style: BatchNorm supplies the shift).
pub struct Conv2d {
    pub weight: Tensor,
    pub spec: Conv2dSpec,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(spec: Conv2dSpec, rng: &mut Rng) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        Conv2d {
            weight: init::he_normal(
                &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
                fan_in,
                rng,
            ),
            spec,
        }
    }

    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        let w = ctx.param(g, &self.weight);
        g.conv2d(x, w, self.spec)
    }
}

/// Batch normalization over channels (rank-4 input) or features (rank-2).
///
/// `running_mean` / `running_var` are *state*, not parameters: in regular
/// BN they are EMA-updated locally; under the paper's Async-BN the
/// parameter server owns them (Formulas 6–7) and pushes them into the
/// model before evaluation — hence they are public and settable.
pub struct BatchNorm {
    pub gamma: Tensor,
    pub beta: Tensor,
    pub running_mean: Tensor,
    pub running_var: Tensor,
    pub eps: f32,
}

impl BatchNorm {
    /// Identity-initialized BN over `features` channels.
    pub fn new(features: usize) -> Self {
        BatchNorm {
            gamma: Tensor::ones(&[features]),
            beta: Tensor::zeros(&[features]),
            running_mean: Tensor::zeros(&[features]),
            running_var: Tensor::ones(&[features]),
            eps: 1e-5,
        }
    }

    /// Number of channels.
    pub fn features(&self) -> usize {
        self.gamma.dims()[0]
    }

    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        let gamma = ctx.param(g, &self.gamma);
        let beta = ctx.param(g, &self.beta);
        if ctx.train {
            let rank = g.value(x).shape().rank();
            let (y, stats) = if rank == 4 {
                g.batch_norm2d(x, gamma, beta, self.eps)
            } else {
                g.batch_norm1d(x, gamma, beta, self.eps)
            };
            ctx.bn_stats.push(stats);
            y
        } else {
            g.batch_norm_inference(x, gamma, beta, &self.running_mean, &self.running_var, self.eps)
        }
    }
}

/// Pre-activation (v2) residual block: `x + f(x)`, where `f` is a chain
/// of BN-ReLU-Conv stages, with a 1×1 strided projection on the skip path
/// when the shape changes. Two 3×3 stages make the basic block
/// (ResNet-18/34), a 1×1 → 3×3 → 1×1 chain at a quarter of the width the
/// bottleneck (ResNet-50).
pub struct ResidualBlock {
    /// `(BN, conv)` per stage, in forward order; each BN normalizes its
    /// conv's input.
    pub stages: Vec<(BatchNorm, Conv2d)>,
    /// 1×1 projection for stride/width changes; `None` for identity skips.
    pub downsample: Option<Conv2d>,
}

impl ResidualBlock {
    /// A basic block mapping `in_ch -> out_ch`: two 3×3 convolutions, the
    /// first with the given stride.
    pub fn basic(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng) -> Self {
        Self::new(&[(in_ch, out_ch, 3, stride), (out_ch, out_ch, 3, 1)], stride, rng)
    }

    /// A bottleneck mapping `in_ch -> out_ch` with the given stride on the
    /// 3×3 convolution. The internal width is `out_ch / 4` (floored, min 1).
    pub fn bottleneck(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng) -> Self {
        let mid = (out_ch / 4).max(1);
        let convs = [(in_ch, mid, 1, 1), (mid, mid, 3, stride), (mid, out_ch, 1, 1)];
        Self::new(&convs, stride, rng)
    }

    /// One stage per `(in, out, kernel, stride)`, padded to keep the kernel
    /// centred. Draws the convolutions in stage order, then the projection.
    fn new(convs: &[(usize, usize, usize, usize)], stride: usize, rng: &mut Rng) -> Self {
        let conv = |in_channels, out_channels, kernel: usize, stride, rng: &mut Rng| {
            let padding = kernel / 2;
            Conv2d::new(Conv2dSpec { in_channels, out_channels, kernel, stride, padding }, rng)
        };
        let stages: Vec<_> = convs
            .iter()
            .map(|&(cin, cout, k, s)| (BatchNorm::new(cin), conv(cin, cout, k, s, rng)))
            .collect();
        let (in_ch, out_ch) = (convs[0].0, convs[convs.len() - 1].1);
        let downsample =
            (stride != 1 || in_ch != out_ch).then(|| conv(in_ch, out_ch, 1, stride, rng));
        ResidualBlock { stages, downsample }
    }

    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        let (mut h, mut pre) = (x, x);
        for (i, (bn, conv)) in self.stages.iter().enumerate() {
            let a = bn.forward(g, h, ctx);
            let a = g.relu(a);
            if i == 0 {
                pre = a;
            }
            h = conv.forward(g, a, ctx);
        }
        // Pre-activation (v2) convention: when projecting, project the
        // *pre-activated* input.
        let skip = match &self.downsample {
            Some(proj) => proj.forward(g, pre, ctx),
            None => x,
        };
        g.add(h, skip)
    }
}

/// A network layer. Composition is a tree: residual blocks nest layers.
pub enum Layer {
    Linear(Linear),
    Conv(Conv2d),
    BatchNorm(BatchNorm),
    Relu,
    GlobalAvgPool,
    Residual(ResidualBlock),
}

impl Layer {
    /// Builds the forward node(s) for this layer.
    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        match self {
            Layer::Linear(l) => l.forward(g, x, ctx),
            Layer::Conv(c) => c.forward(g, x, ctx),
            Layer::BatchNorm(b) => b.forward(g, x, ctx),
            Layer::Relu => g.relu(x),
            Layer::GlobalAvgPool => g.global_avg_pool(x),
            Layer::Residual(r) => r.forward(g, x, ctx),
        }
    }

    /// Visits every parameter tensor, depth-first, in forward order.
    pub fn visit_params(&self, f: &mut impl FnMut(&Tensor)) {
        match self {
            Layer::Linear(l) => {
                f(&l.weight);
                f(&l.bias);
            }
            Layer::Conv(c) => f(&c.weight),
            Layer::BatchNorm(b) => {
                f(&b.gamma);
                f(&b.beta);
            }
            Layer::Residual(r) => {
                // ResidualBlock::forward's registration order.
                for (bn, conv) in &r.stages {
                    f(&bn.gamma);
                    f(&bn.beta);
                    f(&conv.weight);
                }
                if let Some(d) = &r.downsample {
                    f(&d.weight);
                }
            }
            _ => {}
        }
    }

    /// Mutable variant of [`visit_params`](Self::visit_params); identical
    /// order.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        match self {
            Layer::Linear(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            Layer::Conv(c) => f(&mut c.weight),
            Layer::BatchNorm(b) => {
                f(&mut b.gamma);
                f(&mut b.beta);
            }
            Layer::Residual(r) => {
                for (bn, conv) in &mut r.stages {
                    f(&mut bn.gamma);
                    f(&mut bn.beta);
                    f(&mut conv.weight);
                }
                if let Some(d) = &mut r.downsample {
                    f(&mut d.weight);
                }
            }
            _ => {}
        }
    }

    /// Visits every BatchNorm layer in forward order — the order in which
    /// `ForwardCtx::bn_stats` entries are recorded.
    pub fn visit_bn_mut(&mut self, f: &mut impl FnMut(&mut BatchNorm)) {
        match self {
            Layer::BatchNorm(b) => f(b),
            Layer::Residual(r) => r.stages.iter_mut().for_each(|(bn, _)| f(bn)),
            _ => {}
        }
    }

    /// Immutable BN visitor, same order as [`visit_bn_mut`](Self::visit_bn_mut).
    pub fn visit_bn(&self, f: &mut impl FnMut(&BatchNorm)) {
        match self {
            Layer::BatchNorm(b) => f(b),
            Layer::Residual(r) => r.stages.iter().for_each(|(bn, _)| f(bn)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_shape_and_param_registration() {
        let mut rng = Rng::seed_from_u64(91);
        let l = Linear::new(4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 4]));
        let mut ctx = ForwardCtx::new(true);
        let y = l.forward(&mut g, x, &mut ctx);
        assert_eq!(g.value(y).dims(), &[2, 3]);
        assert_eq!(ctx.param_vars.len(), 2);
    }

    #[test]
    fn bn_train_records_stats_eval_does_not() {
        let mut rng = Rng::seed_from_u64(92);
        let b = BatchNorm::new(3);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[8, 3], 1.0, &mut rng));
        let mut ctx = ForwardCtx::new(true);
        b.forward(&mut g, x, &mut ctx);
        assert_eq!(ctx.bn_stats.len(), 1);

        let mut ctx2 = ForwardCtx::new(false);
        let mut g2 = Graph::new();
        let x2 = g2.leaf(Tensor::randn(&[8, 3], 1.0, &mut rng));
        b.forward(&mut g2, x2, &mut ctx2);
        assert!(ctx2.bn_stats.is_empty());
    }

    #[test]
    fn residual_identity_skip_when_shapes_match() {
        let mut rng = Rng::seed_from_u64(93);
        let r = ResidualBlock::basic(4, 4, 1, &mut rng);
        assert!(r.downsample.is_none());
        let r2 = ResidualBlock::basic(4, 8, 2, &mut rng);
        assert!(r2.downsample.is_some());
    }

    #[test]
    fn residual_forward_shapes() {
        let mut rng = Rng::seed_from_u64(94);
        let r = ResidualBlock::basic(3, 6, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng));
        let mut ctx = ForwardCtx::new(true);
        let y = Layer::Residual(r).forward(&mut g, x, &mut ctx);
        assert_eq!(g.value(y).dims(), &[2, 6, 4, 4]);
        // Two BN layers recorded stats.
        assert_eq!(ctx.bn_stats.len(), 2);
    }

    #[test]
    fn param_and_bn_visit_orders_match_forward_registration() {
        let mut rng = Rng::seed_from_u64(95);
        for block in [ResidualBlock::basic, ResidualBlock::bottleneck] {
            let layer = Layer::Residual(block(4, 8, 2, &mut rng));
            let mut g = Graph::new();
            let x = g.leaf(Tensor::randn(&[1, 4, 6, 6], 1.0, &mut rng));
            let mut ctx = ForwardCtx::new(true);
            layer.forward(&mut g, x, &mut ctx);
            let mut visited = Vec::new();
            layer.visit_params(&mut |t| visited.push(t.dims().to_vec()));
            let from_vars: Vec<Vec<usize>> =
                ctx.param_vars.iter().map(|&v| g.value(v).dims().to_vec()).collect();
            assert_eq!(visited, from_vars, "visitor order must mirror forward registration");
            let mut bn = Vec::new();
            layer.visit_bn(&mut |b| bn.push(b.features()));
            let from_stats: Vec<usize> = ctx.bn_stats.iter().map(|s| s.mean.numel()).collect();
            assert_eq!(bn, from_stats, "BN visitor order must mirror the recorded stats");
        }
    }
}
