//! ResNet builders: the paper-faithful CIFAR ResNet-18 plus scaled-down
//! presets used by the in-session experiments.
//!
//! The architecture follows the pre-activation (v2) layout the paper's
//! ImageNet experiments use ("ResNet-50(V2)"): a stem convolution, stages
//! of residual blocks (stride 2 between stages), a final BN+ReLU, global
//! average pooling, and a linear classifier.

use crate::layer::{BatchNorm, Conv2d, Layer, Linear, ResidualBlock};
use crate::network::Network;
use lcasgd_tensor::ops::conv::Conv2dSpec;
use lcasgd_tensor::Rng;

/// Which residual block family a network uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// Two 3×3 convolutions (ResNet-18/34 family).
    Basic,
    /// 1×1 → 3×3 → 1×1 with a 4× width bottleneck (ResNet-50+ family,
    /// the paper's ImageNet network).
    Bottleneck,
}

/// Architecture description for the ResNet family.
#[derive(Clone, Debug)]
pub struct ResNetConfig {
    /// Input channels (3 for RGB).
    pub in_channels: usize,
    /// Stem / first-stage width (64 in the paper, 8–16 in scaled presets).
    pub width: usize,
    /// Residual blocks per stage; width doubles and stride is 2 between
    /// stages. `[2, 2, 2, 2]` is ResNet-18.
    pub stage_blocks: Vec<usize>,
    /// Output classes.
    pub num_classes: usize,
    /// Residual block family.
    pub block: BlockKind,
}

impl ResNetConfig {
    /// The paper's CIFAR-10 network: ResNet-18, width 64, 3×32×32 inputs.
    pub fn resnet18_cifar(num_classes: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            width: 64,
            stage_blocks: vec![2, 2, 2, 2],
            num_classes,
            block: BlockKind::Basic,
        }
    }

    /// ResNet-50(v2): bottleneck blocks, stages [3, 4, 6, 3] — the
    /// paper's ImageNet network. Stage widths are the post-expansion
    /// channel counts (width × 4 relative to the bottleneck interior).
    pub fn resnet50_like(num_classes: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            width: 256,
            stage_blocks: vec![3, 4, 6, 3],
            num_classes,
            block: BlockKind::Bottleneck,
        }
    }

    /// Scaled-down preset for in-session training: 3 stages of 1 block,
    /// width 8. Same topology (residual + BN) at ~1/500 the FLOPs.
    pub fn tiny(in_channels: usize, num_classes: usize) -> Self {
        ResNetConfig {
            in_channels,
            width: 8,
            stage_blocks: vec![1, 1, 1],
            num_classes,
            block: BlockKind::Basic,
        }
    }

    /// Middle preset: 3 stages of 2 blocks, width 16.
    pub fn small(in_channels: usize, num_classes: usize) -> Self {
        ResNetConfig {
            in_channels,
            width: 16,
            stage_blocks: vec![2, 2, 2],
            num_classes,
            block: BlockKind::Basic,
        }
    }

    /// Scaled-down bottleneck preset: exercises the ResNet-50 block
    /// family at experiment-friendly cost.
    pub fn tiny_bottleneck(in_channels: usize, num_classes: usize) -> Self {
        ResNetConfig {
            in_channels,
            width: 16,
            stage_blocks: vec![1, 1, 1],
            num_classes,
            block: BlockKind::Bottleneck,
        }
    }

    /// Builds the network.
    pub fn build(&self, rng: &mut Rng) -> Network {
        let mut layers = Vec::new();
        // Stem: 3×3 conv, stride 1 (CIFAR-style stem; no max-pool).
        layers.push(Layer::Conv(Conv2d::new(
            Conv2dSpec {
                in_channels: self.in_channels,
                out_channels: self.width,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            rng,
        )));
        let block = match self.block {
            BlockKind::Basic => ResidualBlock::basic,
            BlockKind::Bottleneck => ResidualBlock::bottleneck,
        };
        let mut ch = self.width;
        for (stage, &blocks) in self.stage_blocks.iter().enumerate() {
            let out_ch = self.width << stage;
            for b in 0..blocks {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                layers.push(Layer::Residual(block(ch, out_ch, stride, rng)));
                ch = out_ch;
            }
        }
        // Final pre-activation BN + ReLU, pool, classify.
        layers.push(Layer::BatchNorm(BatchNorm::new(ch)));
        layers.push(Layer::Relu);
        layers.push(Layer::GlobalAvgPool);
        layers.push(Layer::Linear(Linear::new(ch, self.num_classes, rng)));
        Network::new(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_autograd::Graph;
    use lcasgd_tensor::Tensor;

    #[test]
    fn tiny_resnet_forward_shapes() {
        let mut rng = Rng::seed_from_u64(121);
        let net = ResNetConfig::tiny(3, 10).build(&mut rng);
        let mut g = Graph::new();
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let (logits, ctx) = net.forward(&mut g, x, true);
        assert_eq!(g.value(logits).dims(), &[2, 10]);
        // 3 stages × 1 block × 2 BN + final BN = 7 BN layers.
        assert_eq!(ctx.bn_stats.len(), 7);
        assert_eq!(net.num_bn_layers(), 7);
    }

    #[test]
    fn resnet18_block_count_and_params() {
        let mut rng = Rng::seed_from_u64(122);
        let net = ResNetConfig::resnet18_cifar(10).build(&mut rng);
        // stem + 8 residual blocks + bn + relu + pool + linear
        assert_eq!(net.layers().len(), 1 + 8 + 4);
        // ResNet-18 CIFAR has ~11.2M params; ours is v2-style with 1x1
        // projections — just sanity-bound it.
        let n = net.num_params();
        assert!(n > 10_000_000 && n < 13_000_000, "params {n}");
    }

    #[test]
    fn train_step_reduces_loss_on_fixed_batch() {
        // Full end-to-end smoke: a tiny ResNet overfits one batch.
        let mut rng = Rng::seed_from_u64(123);
        let mut net = ResNetConfig::tiny(2, 3).build(&mut rng);
        let x = Tensor::randn(&[6, 2, 8, 8], 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..30 {
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, x.clone(), true);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.backward(loss);
            let lv = g.value(loss).item();
            if step == 0 {
                first = lv;
            }
            last = lv;
            let grads = net.flat_grads(&mut g);
            net.axpy_params(&grads, -0.1);
        }
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn spatial_downsampling_matches_stage_count() {
        let mut rng = Rng::seed_from_u64(124);
        // 3 stages → 2 stride-2 transitions → 16/4 = 4 final spatial size.
        let net = ResNetConfig::tiny(3, 4).build(&mut rng);
        let mut g = Graph::new();
        let x = Tensor::randn(&[1, 3, 16, 16], 1.0, &mut rng);
        // Walk layers manually up to the pool to inspect the activation.
        let mut ctx = crate::layer::ForwardCtx::new(false);
        let mut v = g.leaf(x);
        for layer in &net.layers()[..net.layers().len() - 2] {
            v = layer.forward(&mut g, v, &mut ctx);
        }
        // Last inspected layer is BN+ReLU output before pooling.
        assert_eq!(&g.value(v).dims()[2..], &[4, 4]);
    }
}

#[cfg(test)]
mod bottleneck_tests {
    use super::*;
    use lcasgd_autograd::Graph;
    use lcasgd_tensor::Tensor;

    #[test]
    fn tiny_bottleneck_forward_and_shapes() {
        let mut rng = Rng::seed_from_u64(125);
        let net = ResNetConfig::tiny_bottleneck(3, 10).build(&mut rng);
        let mut g = Graph::new();
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let (logits, ctx) = net.forward(&mut g, x, true);
        assert_eq!(g.value(logits).dims(), &[2, 10]);
        // 3 stages × 1 block × 3 BN + final BN = 10 BN layers.
        assert_eq!(ctx.bn_stats.len(), 10);
        assert_eq!(net.num_bn_layers(), 10);
    }

    #[test]
    fn bottleneck_trains_on_fixed_batch() {
        let mut rng = Rng::seed_from_u64(127);
        let mut net = ResNetConfig::tiny_bottleneck(2, 3).build(&mut rng);
        let x = Tensor::randn(&[6, 2, 8, 8], 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..25 {
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, x.clone(), true);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.backward(loss);
            if step == 0 {
                first = g.value(loss).item();
            }
            last = g.value(loss).item();
            let grads = net.flat_grads(&mut g);
            net.axpy_params(&grads, -0.1);
        }
        assert!(last < first * 0.6, "loss {first} -> {last}");
    }

    #[test]
    fn resnet50_like_has_50ish_layers() {
        // 3+4+6+3 = 16 bottlenecks × 3 convs + stem + fc ≈ 50 weighted
        // layers, the namesake depth.
        let cfg = ResNetConfig::resnet50_like(1000);
        let convs_per_block = 3;
        let blocks: usize = cfg.stage_blocks.iter().sum();
        assert_eq!(blocks * convs_per_block + 2, 50);
        assert_eq!(cfg.block, BlockKind::Bottleneck);
    }
}
