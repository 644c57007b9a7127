//! Differentiable batch normalization (training mode) and constant-stats
//! normalization (inference mode).
//!
//! The training-mode ops also *return* the batch mean/variance so the
//! caller can maintain running statistics — that hook is exactly where the
//! paper's Async-BN plugs in: workers report batch statistics to the
//! parameter server (Algorithm 1 lines 6–7), which accumulates them with
//! Formulas 6–7 instead of keeping purely local running averages.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;

/// Batch statistics computed by a training-mode BN op.
#[derive(Clone, Debug)]
pub struct BnBatchStats {
    /// Per-channel batch mean.
    pub mean: Tensor,
    /// Per-channel biased batch variance.
    pub var: Tensor,
}

/// Training-mode backward: per-channel reductions, then
/// `dx = γ·inv_std/m · (m·dy − dbeta − x̂·dgamma)`.
struct BnBack {
    x: Var,
    gamma: Var,
    beta: Var,
    /// Normalized activations x̂ from the forward pass.
    xhat: Tensor,
    /// Per-channel 1/√(σ²+ε).
    inv_std: Tensor,
    /// Elements per channel (N·H·W for 2d, batch for 1d).
    m: usize,
    layout: Layout,
}

/// How an activation's flat index splits into `(outer, channel, inner)`:
/// `[n, c, h, w]` has `inner = h·w`, `[b, n]` is the same with
/// `inner = 1`. Every loop below walks *runs* — the `inner` consecutive
/// elements that share a channel — with that channel's scalars hoisted,
/// instead of recovering the channel of each element by division; a
/// channel's elements are still visited in ascending flat order, so
/// per-channel sums accumulate in the order a flat walk gives.
#[derive(Clone, Copy)]
struct Layout {
    c: usize,
    inner: usize,
}

impl Layout {
    fn of(x: &Tensor) -> Self {
        match *x.dims() {
            [_, n] => Layout { c: n, inner: 1 },
            [_, c, h, w] => Layout { c, inner: h * w },
            _ => panic!("batch norm on rank {}", x.shape().rank()),
        }
    }

    /// `(channel, flat range)` of every run, in ascending flat order.
    fn runs(self, len: usize) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> {
        let Layout { c, inner } = self;
        (0..len / (c * inner).max(1)).flat_map(move |outer| {
            (0..c).map(move |ch| {
                let at = (outer * c + ch) * inner;
                (ch, at..at + inner)
            })
        })
    }
}

/// `dgamma = Σ dy·x̂` and `dbeta = Σ dy` per channel, accumulated in `f64`.
fn channel_sums(layout: Layout, dy: &[f32], xhat: &[f32]) -> (Vec<f64>, Vec<f64>) {
    let mut dgamma = vec![0.0f64; layout.c];
    let mut dbeta = vec![0.0f64; layout.c];
    for (ch, run) in layout.runs(dy.len()) {
        let (mut dg, mut db) = (dgamma[ch], dbeta[ch]);
        for (&g, &xh) in dy[run.clone()].iter().zip(&xhat[run]) {
            db += g as f64;
            dg += (g * xh) as f64;
        }
        (dgamma[ch], dbeta[ch]) = (dg, db);
    }
    (dgamma, dbeta)
}

fn to_f32(sums: Vec<f64>) -> Tensor {
    let c = sums.len();
    Tensor::from_vec(sums.into_iter().map(|v| v as f32).collect(), &[c])
}

impl BackwardOp for BnBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let dy = ctx.grad.data();
        let xhat = self.xhat.data();
        let (dgamma, dbeta) = channel_sums(self.layout, dy, xhat);

        let gamma = ctx.value(self.gamma).data();
        let inv_std = self.inv_std.data();
        let m = self.m as f32;
        let mut dx = Tensor::zeros_like(&self.xhat);
        let dxd = dx.data_mut();
        for (ch, run) in self.layout.runs(dy.len()) {
            let scale = gamma[ch] * inv_std[ch] / m;
            let (db, dg) = (dbeta[ch] as f32, dgamma[ch] as f32);
            for i in run {
                dxd[i] = scale * (m * dy[i] - db - xhat[i] * dg);
            }
        }

        ctx.accumulate(self.x, dx);
        ctx.accumulate(self.gamma, to_f32(dgamma));
        ctx.accumulate(self.beta, to_f32(dbeta));
    }
}

/// Inference-mode backward. Fixed stats ⇒ x̂ is an affine function of x
/// alone: `dx = dy·γ·inv_std`.
struct InferenceBack {
    x: Var,
    gamma: Var,
    beta: Var,
    xhat: Tensor,
    inv_std: Tensor,
    layout: Layout,
}

impl BackwardOp for InferenceBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let dy = ctx.grad.data();
        let (dgamma, dbeta) = channel_sums(self.layout, dy, self.xhat.data());
        let gamma = ctx.value(self.gamma).data();
        let inv_std = self.inv_std.data();
        let mut dx = Tensor::zeros_like(&self.xhat);
        let dxd = dx.data_mut();
        for (ch, run) in self.layout.runs(dy.len()) {
            let (g, s) = (gamma[ch], inv_std[ch]);
            for i in run {
                dxd[i] = dy[i] * g * s;
            }
        }
        ctx.accumulate(self.x, dx);
        ctx.accumulate(self.gamma, to_f32(dgamma));
        ctx.accumulate(self.beta, to_f32(dbeta));
    }
}

/// `x̂ = (x − mean)·inv_std` and `y = x̂·γ + β`, one pass.
fn normalize(
    x: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    layout: Layout,
) -> (Tensor, Tensor, Tensor) {
    let inv_std =
        Tensor::from_vec(var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect(), var.dims());
    let mut xhat = x.clone();
    let mut y = Tensor::zeros_like(x);
    let (xh, yd) = (xhat.data_mut(), y.data_mut());
    let (md, isd, gd, bd) = (mean.data(), inv_std.data(), gamma.data(), beta.data());
    for (ch, run) in layout.runs(xh.len()) {
        let (m, s, g, b) = (md[ch], isd[ch], gd[ch], bd[ch]);
        for (v, o) in xh[run.clone()].iter_mut().zip(&mut yd[run]) {
            *v = (*v - m) * s;
            *o = *v * g + b;
        }
    }
    (y, xhat, inv_std)
}

impl Graph {
    /// Training-mode BatchNorm over an NCHW activation. Normalizes with the
    /// *batch* statistics and returns them for running-average maintenance.
    pub fn batch_norm2d(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> (Var, BnBatchStats) {
        let xt = self.value(x);
        assert_eq!(xt.shape().rank(), 4, "batch_norm2d expects NCHW");
        let d = xt.dims();
        let (n, hw) = (d[0], d[2] * d[3]);
        let mean = xt.channel_mean();
        let var = xt.channel_var(&mean);
        let layout = Layout::of(xt);
        let (y, xhat, inv_std) =
            normalize(xt, &mean, &var, self.value(gamma), self.value(beta), eps, layout);
        let back = BnBack { x, gamma, beta, xhat, inv_std, m: n * hw, layout };
        let out = self.push(y, Some(Box::new(back)));
        (out, BnBatchStats { mean, var })
    }

    /// Training-mode BatchNorm over a `[b, features]` activation.
    pub fn batch_norm1d(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> (Var, BnBatchStats) {
        let xt = self.value(x);
        assert_eq!(xt.shape().rank(), 2, "batch_norm1d expects [b, n]");
        let b = xt.dims()[0];
        let mean = xt.column_mean();
        let var = xt.column_var(&mean);
        let layout = Layout::of(xt);
        let (y, xhat, inv_std) =
            normalize(xt, &mean, &var, self.value(gamma), self.value(beta), eps, layout);
        let back = BnBack { x, gamma, beta, xhat, inv_std, m: b, layout };
        let out = self.push(y, Some(Box::new(back)));
        (out, BnBatchStats { mean, var })
    }

    /// Inference-mode normalization with fixed (running) statistics. The
    /// statistics are constants: gradients flow to `x`, `gamma`, `beta`
    /// only. Works for both NCHW (rank 4) and `[b, n]` (rank 2) inputs.
    pub fn batch_norm_inference(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
    ) -> Var {
        let xt = self.value(x);
        let layout = Layout::of(xt);
        let (y, xhat, inv_std) =
            normalize(xt, mean, var, self.value(gamma), self.value(beta), eps, layout);
        let back = InferenceBack { x, gamma, beta, xhat, inv_std, layout };
        self.push(y, Some(Box::new(back)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_tensor::{assert_close, Rng};

    #[test]
    fn bn1d_output_is_normalized() {
        let mut rng = Rng::seed_from_u64(51);
        let xt = Tensor::randn(&[64, 8], 3.0, &mut rng).add_scalar(5.0);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[8]));
        let beta = g.leaf(Tensor::zeros(&[8]));
        let (y, stats) = g.batch_norm1d(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let m = out.column_mean();
        let v = out.column_var(&m);
        for &mv in m.data() {
            assert!(mv.abs() < 1e-4, "mean {mv}");
        }
        for &vv in v.data() {
            assert!((vv - 1.0).abs() < 1e-2, "var {vv}");
        }
        // Reported stats describe the *input* batch.
        assert!(stats.mean.data().iter().all(|&x| (x - 5.0).abs() < 2.0));
    }

    #[test]
    fn bn2d_output_is_normalized_per_channel() {
        let mut rng = Rng::seed_from_u64(52);
        let xt = Tensor::randn(&[8, 3, 4, 4], 2.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[3]));
        let beta = g.leaf(Tensor::zeros(&[3]));
        let (y, _) = g.batch_norm2d(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let m = out.channel_mean();
        let v = out.channel_var(&m);
        for &mv in m.data() {
            assert!(mv.abs() < 1e-4);
        }
        for &vv in v.data() {
            assert!((vv - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gamma_beta_affine_transform() {
        let mut rng = Rng::seed_from_u64(53);
        let xt = Tensor::randn(&[32, 4], 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::full(&[4], 2.0));
        let beta = g.leaf(Tensor::full(&[4], -1.0));
        let (y, _) = g.batch_norm1d(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let m = out.column_mean();
        let v = out.column_var(&m);
        for &mv in m.data() {
            assert!((mv + 1.0).abs() < 1e-4, "mean should be beta, got {mv}");
        }
        for &vv in v.data() {
            assert!((vv - 4.0).abs() < 0.05, "var should be gamma², got {vv}");
        }
    }

    #[test]
    fn bn_grad_sums_to_zero_per_channel() {
        // The BN input gradient is mean-free per channel by construction.
        let mut rng = Rng::seed_from_u64(54);
        let xt = Tensor::randn(&[16, 3], 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[3]));
        let beta = g.leaf(Tensor::zeros(&[3]));
        let (y, _) = g.batch_norm1d(x, gamma, beta, 1e-5);
        // Arbitrary downstream: sum of squares.
        let y2 = g.mul(y, y);
        let s = g.sum(y2);
        g.backward(s);
        let gx = g.grad(x).unwrap();
        let col_sums = gx.sum_rows();
        for &cs in col_sums.data() {
            assert!(cs.abs() < 1e-3, "per-channel grad sum {cs}");
        }
    }

    #[test]
    fn inference_mode_uses_given_stats() {
        let xt = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let mean = Tensor::from_vec(vec![2.0, 3.0], &[2]);
        let var = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[2]));
        let beta = g.leaf(Tensor::zeros(&[2]));
        let y = g.batch_norm_inference(x, gamma, beta, &mean, &var, 0.0);
        assert_close(g.value(y), &Tensor::from_vec(vec![-1., -1., 1., 1.], &[2, 2]), 1e-5);
    }
}
