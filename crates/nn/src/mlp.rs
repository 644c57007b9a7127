//! Multi-layer perceptron builder — the fast model for unit/integration
//! tests and quick experiments (BatchNorm1d keeps the Async-BN machinery
//! exercised even without convolutions).

use crate::layer::{BatchNorm, Layer, Linear};
use crate::network::Network;
use lcasgd_tensor::Rng;

/// Builds `dims[0] -> dims[1] -> … -> dims.last()` with ReLU between
/// layers and optional BatchNorm after each hidden linear layer.
pub fn mlp(dims: &[usize], batch_norm: bool, rng: &mut Rng) -> Network {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut layers = Vec::new();
    for w in 0..dims.len() - 1 {
        layers.push(Layer::Linear(Linear::new(dims[w], dims[w + 1], rng)));
        let is_last = w == dims.len() - 2;
        if !is_last {
            if batch_norm {
                layers.push(Layer::BatchNorm(BatchNorm::new(dims[w + 1])));
            }
            layers.push(Layer::Relu);
        }
    }
    Network::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_autograd::Graph;
    use lcasgd_tensor::Tensor;

    #[test]
    fn layer_structure() {
        let mut rng = Rng::seed_from_u64(131);
        let net = mlp(&[4, 8, 8, 2], true, &mut rng);
        // 3 linear + 2 bn + 2 relu
        assert_eq!(net.layers().len(), 7);
        assert_eq!(net.num_bn_layers(), 2);
        let net2 = mlp(&[4, 8, 2], false, &mut rng);
        assert_eq!(net2.layers().len(), 3);
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from_u64(132);
        let net = mlp(&[5, 16, 3], true, &mut rng);
        let mut g = Graph::new();
        let (y, _) = net.forward(&mut g, Tensor::zeros(&[7, 5]), true);
        assert_eq!(g.value(y).dims(), &[7, 3]);
    }

    #[test]
    fn learns_xor() {
        let mut rng = Rng::seed_from_u64(133);
        let mut net = mlp(&[2, 16, 2], false, &mut rng);
        let x = Tensor::from_vec(vec![0., 0., 0., 1., 1., 0., 1., 1.], &[4, 2]);
        let labels = [0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, x.clone(), true);
            let loss = g.softmax_cross_entropy(logits, &labels);
            g.backward(loss);
            last = g.value(loss).item();
            let grads = net.flat_grads(&mut g);
            net.axpy_params(&grads, -0.5);
        }
        assert!(last < 0.05, "xor loss {last}");
        // Check predictions.
        let mut g = Graph::new();
        let (logits, _) = net.forward(&mut g, x, true);
        assert_eq!(g.value(logits).argmax_rows(), vec![0, 1, 1, 0]);
    }
}
