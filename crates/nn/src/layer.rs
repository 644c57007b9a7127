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

/// Pre-activation residual block: `x + f(x)` where
/// `f = BN-ReLU-Conv — BN-ReLU-Conv`, with an optional 1×1 strided
/// projection on the skip path when the shape changes.
pub struct ResidualBlock {
    pub bn1: BatchNorm,
    pub conv1: Conv2d,
    pub bn2: BatchNorm,
    pub conv2: Conv2d,
    /// 1×1 projection for stride/width changes; `None` for identity skips.
    pub downsample: Option<Conv2d>,
}

impl ResidualBlock {
    /// A block mapping `in_ch -> out_ch` with the given stride on its
    /// first convolution.
    pub fn new(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng) -> Self {
        let conv1 = Conv2d::new(
            Conv2dSpec { in_channels: in_ch, out_channels: out_ch, kernel: 3, stride, padding: 1 },
            rng,
        );
        let conv2 = Conv2d::new(
            Conv2dSpec {
                in_channels: out_ch,
                out_channels: out_ch,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            rng,
        );
        let downsample = if stride != 1 || in_ch != out_ch {
            Some(Conv2d::new(
                Conv2dSpec {
                    in_channels: in_ch,
                    out_channels: out_ch,
                    kernel: 1,
                    stride,
                    padding: 0,
                },
                rng,
            ))
        } else {
            None
        };
        ResidualBlock {
            bn1: BatchNorm::new(in_ch),
            conv1,
            bn2: BatchNorm::new(out_ch),
            conv2,
            downsample,
        }
    }

    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        let pre = self.bn1.forward(g, x, ctx);
        let pre = g.relu(pre);
        let h = self.conv1.forward(g, pre, ctx);
        let h = self.bn2.forward(g, h, ctx);
        let h = g.relu(h);
        let h = self.conv2.forward(g, h, ctx);
        // Pre-activation (v2) convention: when projecting, project the
        // *pre-activated* input.
        let skip = match &self.downsample {
            Some(proj) => proj.forward(g, pre, ctx),
            None => x,
        };
        g.add(h, skip)
    }
}

/// Pre-activation bottleneck block (ResNet-50-family):
/// `BN-ReLU-Conv1×1(c/4) — BN-ReLU-Conv3×3(c/4, stride) — BN-ReLU-Conv1×1(c)`
/// plus the identity / 1×1-projection skip. Four× cheaper than a basic
/// block at equal width, which is how the 50-layer networks stay
/// tractable.
pub struct BottleneckBlock {
    pub bn1: BatchNorm,
    pub conv1: Conv2d,
    pub bn2: BatchNorm,
    pub conv2: Conv2d,
    pub bn3: BatchNorm,
    pub conv3: Conv2d,
    pub downsample: Option<Conv2d>,
}

impl BottleneckBlock {
    /// A bottleneck mapping `in_ch -> out_ch` with the given stride on the
    /// 3×3 convolution. The internal width is `out_ch / 4` (floored, min 1).
    pub fn new(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng) -> Self {
        let mid = (out_ch / 4).max(1);
        let conv1 = Conv2d::new(
            Conv2dSpec { in_channels: in_ch, out_channels: mid, kernel: 1, stride: 1, padding: 0 },
            rng,
        );
        let conv2 = Conv2d::new(
            Conv2dSpec { in_channels: mid, out_channels: mid, kernel: 3, stride, padding: 1 },
            rng,
        );
        let conv3 = Conv2d::new(
            Conv2dSpec { in_channels: mid, out_channels: out_ch, kernel: 1, stride: 1, padding: 0 },
            rng,
        );
        let downsample = if stride != 1 || in_ch != out_ch {
            Some(Conv2d::new(
                Conv2dSpec {
                    in_channels: in_ch,
                    out_channels: out_ch,
                    kernel: 1,
                    stride,
                    padding: 0,
                },
                rng,
            ))
        } else {
            None
        };
        BottleneckBlock {
            bn1: BatchNorm::new(in_ch),
            conv1,
            bn2: BatchNorm::new(mid),
            conv2,
            bn3: BatchNorm::new(mid),
            conv3,
            downsample,
        }
    }

    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        let pre = self.bn1.forward(g, x, ctx);
        let pre = g.relu(pre);
        let h = self.conv1.forward(g, pre, ctx);
        let h = self.bn2.forward(g, h, ctx);
        let h = g.relu(h);
        let h = self.conv2.forward(g, h, ctx);
        let h = self.bn3.forward(g, h, ctx);
        let h = g.relu(h);
        let h = self.conv3.forward(g, h, ctx);
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
    MaxPool {
        k: usize,
        stride: usize,
    },
    GlobalAvgPool,
    /// Flattens `[n, c, h, w]` to `[n, c·h·w]`.
    Flatten,
    /// Boxed (as is `Bottleneck`): whole conv/BN stacks live inside these
    /// block variants, making them an order of magnitude larger than the
    /// plain layers.
    Residual(Box<ResidualBlock>),
    Bottleneck(Box<BottleneckBlock>),
}

impl Layer {
    /// Builds the forward node(s) for this layer.
    pub fn forward(&self, g: &mut Graph, x: Var, ctx: &mut ForwardCtx) -> Var {
        match self {
            Layer::Linear(l) => l.forward(g, x, ctx),
            Layer::Conv(c) => c.forward(g, x, ctx),
            Layer::BatchNorm(b) => b.forward(g, x, ctx),
            Layer::Relu => g.relu(x),
            Layer::MaxPool { k, stride } => g.max_pool2d(x, *k, *stride),
            Layer::GlobalAvgPool => g.global_avg_pool(x),
            Layer::Flatten => {
                let d = g.value(x).dims().to_vec();
                let rest: usize = d[1..].iter().product();
                g.reshape(x, &[d[0], rest])
            }
            Layer::Residual(r) => r.forward(g, x, ctx),
            Layer::Bottleneck(b) => b.forward(g, x, ctx),
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
                // Must match ResidualBlock::forward's registration order:
                // bn1, conv1, bn2, conv2, downsample.
                f(&r.bn1.gamma);
                f(&r.bn1.beta);
                f(&r.conv1.weight);
                f(&r.bn2.gamma);
                f(&r.bn2.beta);
                f(&r.conv2.weight);
                if let Some(d) = &r.downsample {
                    f(&d.weight);
                }
            }
            Layer::Bottleneck(b) => {
                // Mirror of BottleneckBlock::forward's registration order.
                f(&b.bn1.gamma);
                f(&b.bn1.beta);
                f(&b.conv1.weight);
                f(&b.bn2.gamma);
                f(&b.bn2.beta);
                f(&b.conv2.weight);
                f(&b.bn3.gamma);
                f(&b.bn3.beta);
                f(&b.conv3.weight);
                if let Some(d) = &b.downsample {
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
                f(&mut r.bn1.gamma);
                f(&mut r.bn1.beta);
                f(&mut r.conv1.weight);
                f(&mut r.bn2.gamma);
                f(&mut r.bn2.beta);
                f(&mut r.conv2.weight);
                if let Some(d) = &mut r.downsample {
                    f(&mut d.weight);
                }
            }
            Layer::Bottleneck(b) => {
                f(&mut b.bn1.gamma);
                f(&mut b.bn1.beta);
                f(&mut b.conv1.weight);
                f(&mut b.bn2.gamma);
                f(&mut b.bn2.beta);
                f(&mut b.conv2.weight);
                f(&mut b.bn3.gamma);
                f(&mut b.bn3.beta);
                f(&mut b.conv3.weight);
                if let Some(d) = &mut b.downsample {
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
            Layer::Residual(r) => {
                f(&mut r.bn1);
                f(&mut r.bn2);
            }
            Layer::Bottleneck(b) => {
                f(&mut b.bn1);
                f(&mut b.bn2);
                f(&mut b.bn3);
            }
            _ => {}
        }
    }

    /// Immutable BN visitor, same order as [`visit_bn_mut`](Self::visit_bn_mut).
    pub fn visit_bn(&self, f: &mut impl FnMut(&BatchNorm)) {
        match self {
            Layer::BatchNorm(b) => f(b),
            Layer::Residual(r) => {
                f(&r.bn1);
                f(&r.bn2);
            }
            Layer::Bottleneck(b) => {
                f(&b.bn1);
                f(&b.bn2);
                f(&b.bn3);
            }
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
        let r = ResidualBlock::new(4, 4, 1, &mut rng);
        assert!(r.downsample.is_none());
        let r2 = ResidualBlock::new(4, 8, 2, &mut rng);
        assert!(r2.downsample.is_some());
    }

    #[test]
    fn residual_forward_shapes() {
        let mut rng = Rng::seed_from_u64(94);
        let r = ResidualBlock::new(3, 6, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng));
        let mut ctx = ForwardCtx::new(true);
        let y = Layer::Residual(Box::new(r)).forward(&mut g, x, &mut ctx);
        assert_eq!(g.value(y).dims(), &[2, 6, 4, 4]);
        // Two BN layers recorded stats.
        assert_eq!(ctx.bn_stats.len(), 2);
    }

    #[test]
    fn param_visit_order_matches_forward_registration() {
        let mut rng = Rng::seed_from_u64(95);
        let layer = Layer::Residual(Box::new(ResidualBlock::new(3, 6, 2, &mut rng)));
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng));
        let mut ctx = ForwardCtx::new(true);
        layer.forward(&mut g, x, &mut ctx);
        let mut visited = Vec::new();
        layer.visit_params(&mut |t| visited.push(t.dims().to_vec()));
        let from_vars: Vec<Vec<usize>> =
            ctx.param_vars.iter().map(|&v| g.value(v).dims().to_vec()).collect();
        assert_eq!(visited, from_vars, "visitor order must mirror forward registration");
    }

    #[test]
    fn flatten_shape() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 3, 4, 4]));
        let mut ctx = ForwardCtx::new(true);
        let y = Layer::Flatten.forward(&mut g, x, &mut ctx);
        assert_eq!(g.value(y).dims(), &[2, 48]);
    }
}
