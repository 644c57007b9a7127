//! Finite-difference gradient checking.
//!
//! Every differentiable op in this crate is validated by comparing its
//! analytic vector-Jacobian product against central finite differences of a
//! scalar-valued function. The checker perturbs one input element at a
//! time, so keep the tensors small in tests.

use lcasgd_tensor::Tensor;

/// Central-difference numeric gradient of `f` at `x`.
///
/// `f` must be a pure function of its input (rebuild the graph inside).
pub fn numeric_grad(mut f: impl FnMut(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut grad = Tensor::zeros_like(x);
    let mut probe = x.clone();
    for i in 0..x.numel() {
        let orig = probe.data()[i];
        probe.data_mut()[i] = orig + eps;
        let plus = f(&probe);
        probe.data_mut()[i] = orig - eps;
        let minus = f(&probe);
        probe.data_mut()[i] = orig;
        grad.data_mut()[i] = (plus - minus) / (2.0 * eps);
    }
    grad
}

/// Asserts the analytic gradient matches central differences within `tol`
/// (relative, with an absolute floor). Panics with the offending index.
pub fn assert_grad_matches(
    f: impl FnMut(&Tensor) -> f32,
    x: &Tensor,
    analytic: &Tensor,
    eps: f32,
    tol: f32,
) {
    let numeric = numeric_grad(f, x, eps);
    assert_eq!(numeric.shape(), analytic.shape(), "gradient shape mismatch");
    for (i, (&n, &a)) in numeric.data().iter().zip(analytic.data()).enumerate() {
        let denom = n.abs().max(a.abs()).max(1.0);
        assert!(
            (n - a).abs() / denom <= tol,
            "gradcheck failed at flat index {i}: numeric {n} vs analytic {a}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use lcasgd_tensor::ops::conv::Conv2dSpec;
    use lcasgd_tensor::Rng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    /// Checks d(loss)/d(x) for a scalar-producing builder.
    fn check(build: impl Fn(&mut Graph, crate::Var) -> crate::Var, x0: &Tensor) {
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let out = build(&mut g, x);
        g.backward(out);
        let analytic = g.grad(x).expect("no gradient reached input").clone();
        assert_grad_matches(
            |probe| {
                let mut g = Graph::new();
                let x = g.leaf(probe.clone());
                let out = build(&mut g, x);
                g.value(out).item()
            },
            x0,
            &analytic,
            EPS,
            TOL,
        );
    }

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::randn(dims, 1.0, &mut rng)
    }

    #[test]
    fn gc_elementwise_chain() {
        check(
            |g, x| {
                let y = g.tanh(x);
                let z = g.mul(y, x);
                let w = g.sigmoid(z);
                g.mean(w)
            },
            &randn(&[3, 4], 61),
        );
    }

    #[test]
    fn gc_relu() {
        // Keep activations away from the kink.
        let mut x = randn(&[10], 62);
        for v in x.data_mut() {
            if v.abs() < 0.2 {
                *v += 0.5;
            }
        }
        check(
            |g, x| {
                let y = g.relu(x);
                g.sum(y)
            },
            &x,
        );
    }

    #[test]
    fn gc_matmul() {
        let w = randn(&[4, 3], 63);
        check(
            move |g, x| {
                let wv = g.leaf(w.clone());
                let y = g.matmul(x, wv);
                let y2 = g.mul(y, y);
                g.sum(y2)
            },
            &randn(&[2, 4], 64),
        );
    }

    #[test]
    fn gc_linear_weight() {
        // Check the gradient w.r.t. the weight this time.
        let x0 = randn(&[3, 4], 65);
        let b0 = randn(&[2], 66);
        let w0 = randn(&[2, 4], 67);
        let build = |g: &mut Graph, w: crate::Var| {
            let x = g.leaf(x0.clone());
            let b = g.leaf(b0.clone());
            let y = g.linear(x, w, b);
            let y2 = g.mul(y, y);
            g.mean(y2)
        };
        let mut g = Graph::new();
        let w = g.leaf(w0.clone());
        let out = build(&mut g, w);
        g.backward(out);
        let analytic = g.grad(w).unwrap().clone();
        assert_grad_matches(
            |probe| {
                let mut g = Graph::new();
                let w = g.leaf(probe.clone());
                let out = build(&mut g, w);
                g.value(out).item()
            },
            &w0,
            &analytic,
            EPS,
            TOL,
        );
    }

    #[test]
    fn gc_conv2d_input() {
        let spec = Conv2dSpec { in_channels: 2, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let w = randn(&[2, 2, 3, 3], 68);
        check(
            move |g, x| {
                let wv = g.leaf(w.clone());
                let y = g.conv2d(x, wv, spec);
                let y2 = g.mul(y, y);
                g.mean(y2)
            },
            &randn(&[1, 2, 4, 4], 69),
        );
    }

    #[test]
    fn gc_conv2d_weight_strided() {
        let spec = Conv2dSpec { in_channels: 1, out_channels: 2, kernel: 3, stride: 2, padding: 1 };
        let x0 = randn(&[2, 1, 5, 5], 70);
        let w0 = randn(&[2, 1, 3, 3], 71);
        let build = |g: &mut Graph, w: crate::Var| {
            let x = g.leaf(x0.clone());
            let y = g.conv2d(x, w, spec);
            let y2 = g.mul(y, y);
            g.mean(y2)
        };
        let mut g = Graph::new();
        let w = g.leaf(w0.clone());
        let out = build(&mut g, w);
        g.backward(out);
        let analytic = g.grad(w).unwrap().clone();
        assert_grad_matches(
            |probe| {
                let mut g = Graph::new();
                let w = g.leaf(probe.clone());
                let out = build(&mut g, w);
                g.value(out).item()
            },
            &w0,
            &analytic,
            EPS,
            TOL,
        );
    }

    #[test]
    fn gc_conv2d_input_strided_nonsquare() {
        // Config the fused path specializes: stride 2, padding 1, a
        // non-square input, and cout = 3 (not a multiple of the MR=4 tile
        // height, so the GEMM runs a partial row tile).
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let w = randn(&[3, 2, 3, 3], 83);
        check(
            move |g, x| {
                let wv = g.leaf(w.clone());
                let y = g.conv2d(x, wv, spec);
                let y2 = g.mul(y, y);
                g.mean(y2)
            },
            &randn(&[1, 2, 5, 4], 84),
        );
    }

    #[test]
    fn gc_conv2d_1x1_input() {
        // 1x1 kernels degenerate to a per-pixel matmul; the packers must
        // still index correctly.
        let spec = Conv2dSpec { in_channels: 3, out_channels: 2, kernel: 1, stride: 1, padding: 0 };
        let w = randn(&[2, 3, 1, 1], 85);
        check(
            move |g, x| {
                let wv = g.leaf(w.clone());
                let y = g.conv2d(x, wv, spec);
                let y2 = g.mul(y, y);
                g.mean(y2)
            },
            &randn(&[2, 3, 3, 4], 86),
        );
    }

    #[test]
    fn gc_conv2d_weight_nonsquare_offtile_cout() {
        // Weight gradient with cout = 5 (partial MR tile) on a non-square
        // input — exercises conv2d_dw's pixel-major panel packer tails.
        let spec = Conv2dSpec { in_channels: 2, out_channels: 5, kernel: 3, stride: 1, padding: 1 };
        let x0 = randn(&[1, 2, 4, 6], 87);
        let w0 = randn(&[5, 2, 3, 3], 88);
        let build = |g: &mut Graph, w: crate::Var| {
            let x = g.leaf(x0.clone());
            let y = g.conv2d(x, w, spec);
            let y2 = g.mul(y, y);
            g.mean(y2)
        };
        let mut g = Graph::new();
        let w = g.leaf(w0.clone());
        let out = build(&mut g, w);
        g.backward(out);
        let analytic = g.grad(w).unwrap().clone();
        assert_grad_matches(
            |probe| {
                let mut g = Graph::new();
                let w = g.leaf(probe.clone());
                let out = build(&mut g, w);
                g.value(out).item()
            },
            &w0,
            &analytic,
            EPS,
            TOL,
        );
    }

    #[test]
    fn fused_update_matches_directional_derivative() {
        // The optimizer's fused axpy apply (`w += -lr·g`) must reduce the
        // loss by lr·‖g‖² to first order — ties the update kernel to the
        // same finite-difference oracle the per-op checks use.
        let x0 = randn(&[4, 3], 89);
        let w0 = randn(&[2, 3], 90);
        let b0 = randn(&[2], 91);
        let loss = |wt: &Tensor| {
            let mut g = Graph::new();
            let x = g.leaf(x0.clone());
            let w = g.leaf(wt.clone());
            let b = g.leaf(b0.clone());
            let y = g.linear(x, w, b);
            let y2 = g.mul(y, y);
            let out = g.mean(y2);
            g.value(out).item()
        };
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let w = g.leaf(w0.clone());
        let b = g.leaf(b0.clone());
        let y = g.linear(x, w, b);
        let y2 = g.mul(y, y);
        let out = g.mean(y2);
        g.backward(out);
        let grad = g.grad(w).unwrap().clone();

        let lr = 1e-3f32;
        let mut w1 = w0.clone();
        w1.add_assign_scaled(&grad, -lr);
        let drop = loss(&w0) - loss(&w1);
        let expect = lr * grad.dot(&grad);
        assert!(
            (drop - expect).abs() <= 0.05 * expect.abs().max(1e-6),
            "fused update: observed loss drop {drop} vs first-order prediction {expect}"
        );
    }

    #[test]
    fn gc_batch_norm1d() {
        check(
            |g, x| {
                let gamma = g.leaf(Tensor::from_vec(vec![1.5, 0.5, 2.0], &[3]));
                let beta = g.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]));
                let (y, _) = g.batch_norm1d(x, gamma, beta, 1e-3);
                let y2 = g.mul(y, y);
                let y3 = g.tanh(y2);
                g.mean(y3)
            },
            &randn(&[6, 3], 72),
        );
    }

    #[test]
    fn gc_batch_norm2d() {
        check(
            |g, x| {
                let gamma = g.leaf(Tensor::from_vec(vec![1.2, 0.8], &[2]));
                let beta = g.leaf(Tensor::from_vec(vec![0.0, 0.5], &[2]));
                let (y, _) = g.batch_norm2d(x, gamma, beta, 1e-3);
                let y2 = g.mul(y, y);
                g.mean(y2)
            },
            &randn(&[3, 2, 3, 3], 73),
        );
    }

    #[test]
    fn gc_bn_gamma() {
        let x0 = randn(&[5, 2], 74);
        let g0 = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let build = |g: &mut Graph, gamma: crate::Var| {
            let x = g.leaf(x0.clone());
            let beta = g.leaf(Tensor::zeros(&[2]));
            let (y, _) = g.batch_norm1d(x, gamma, beta, 1e-3);
            let y2 = g.mul(y, y);
            g.mean(y2)
        };
        let mut g = Graph::new();
        let gamma = g.leaf(g0.clone());
        let out = build(&mut g, gamma);
        g.backward(out);
        let analytic = g.grad(gamma).unwrap().clone();
        assert_grad_matches(
            |probe| {
                let mut g = Graph::new();
                let gamma = g.leaf(probe.clone());
                let out = build(&mut g, gamma);
                g.value(out).item()
            },
            &g0,
            &analytic,
            EPS,
            TOL,
        );
    }

    #[test]
    fn gc_softmax_cross_entropy() {
        check(|g, x| g.softmax_cross_entropy(x, &[1, 0, 3]), &randn(&[3, 4], 75));
    }

    #[test]
    fn gc_mse() {
        let target = randn(&[2, 3], 76);
        check(move |g, x| g.mse(x, target.clone()), &randn(&[2, 3], 77));
    }

    #[test]
    fn gc_global_avg_pool() {
        check(
            |g, x| {
                let y = g.global_avg_pool(x);
                let y2 = g.mul(y, y);
                g.sum(y2)
            },
            &randn(&[2, 3, 2, 2], 78),
        );
    }

    #[test]
    fn gc_concat_slice() {
        let other = randn(&[2, 2], 80);
        check(
            move |g, x| {
                let o = g.leaf(other.clone());
                let c = g.concat_cols(x, o);
                let s = g.slice_cols(c, 1, 3);
                let s2 = g.tanh(s);
                g.mean(s2)
            },
            &randn(&[2, 3], 81),
        );
    }

    #[test]
    fn gc_inference_bn() {
        let mean = Tensor::from_vec(vec![0.3, -0.2], &[2]);
        let var = Tensor::from_vec(vec![1.2, 0.6], &[2]);
        check(
            move |g, x| {
                let gamma = g.leaf(Tensor::from_vec(vec![1.1, 0.9], &[2]));
                let beta = g.leaf(Tensor::from_vec(vec![0.2, -0.1], &[2]));
                let y = g.batch_norm_inference(x, gamma, beta, &mean, &var, 1e-3);
                let y2 = g.mul(y, y);
                g.mean(y2)
            },
            &randn(&[4, 2], 82),
        );
    }
}
