//! Differentiable 2-D convolution over the implicit-GEMM kernels.
//!
//! No pass materializes the im2col matrix: the backward pass calls the
//! dedicated `conv2d_dw`/`conv2d_dx` kernels instead of saving `cols` from
//! the forward pass, so no `[n·oh·ow, cin·k·k]` tensor lives in the tape
//! for the backward sweep — and `dX` is skipped outright when the input
//! is a data batch nobody differentiates ([`Graph::input`]).

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::ops::conv::{conv2d, conv2d_dw_into, conv2d_dx, Conv2dSpec};
use lcasgd_tensor::Tensor;

/// Reorders an NCHW tensor into pixel rows: `[n, c, h, w] -> [n·h·w, c]`,
/// row `(img, pixel)` holding that pixel's channel vector. This is the
/// layout the im2col matmul produces/consumes.
pub fn nchw_to_rows(t: &Tensor) -> Tensor {
    let d = t.dims();
    let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
    let mut out = Tensor::zeros(&[n * hw, c]);
    let src = t.data();
    let dst = out.data_mut();
    for img in 0..n {
        let base = img * c * hw;
        for ch in 0..c {
            for p in 0..hw {
                dst[(img * hw + p) * c + ch] = src[base + ch * hw + p];
            }
        }
    }
    out
}

/// Inverse of [`nchw_to_rows`].
pub fn rows_to_nchw(rows: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Tensor {
    let hw = h * w;
    assert_eq!(rows.dims(), &[n * hw, c], "rows_to_nchw shape");
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = rows.data();
    let dst = out.data_mut();
    for img in 0..n {
        let base = img * c * hw;
        for p in 0..hw {
            let row = &src[(img * hw + p) * c..(img * hw + p + 1) * c];
            for (ch, &v) in row.iter().enumerate() {
                dst[base + ch * hw + p] = v;
            }
        }
    }
    out
}

struct Conv2dBack {
    x: Var,
    w: Var,
    spec: Conv2dSpec,
    in_h: usize,
    in_w: usize,
}
impl BackwardOp for Conv2dBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        // `conv2d_dw_into` stores every element, so over the zeroed buffer
        // it leaves exactly what `conv2d_dw` returns.
        let (dy, x) = (ctx.grad, ctx.value(self.x));
        ctx.accumulate_with(self.w, |dw| conv2d_dw_into(dy, x, &self.spec, dw));
        if ctx.needs_grad(self.x) {
            let dx = conv2d_dx(ctx.grad, ctx.value(self.w), &self.spec, self.in_h, self.in_w);
            ctx.accumulate(self.x, dx);
        }
    }
}

impl Graph {
    /// 2-D convolution: `x: [n, cin, h, w]`, `w: [cout, cin, k, k]`.
    /// Bias-free (ResNet convs carry no bias; BatchNorm provides the shift).
    pub fn conv2d(&mut self, x: Var, w: Var, spec: Conv2dSpec) -> Var {
        let xt = self.value(x);
        let (in_h, in_w) = (xt.dims()[2], xt.dims()[3]);
        let y = conv2d(xt, self.value(w), &spec);
        self.push(y, Some(Box::new(Conv2dBack { x, w, spec, in_h, in_w })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_tensor::{assert_close, Rng};

    #[test]
    fn rows_roundtrip() {
        let mut rng = Rng::seed_from_u64(41);
        let t = Tensor::randn(&[2, 3, 4, 5], 1.0, &mut rng);
        let rows = nchw_to_rows(&t);
        assert_eq!(rows.dims(), &[2 * 20, 3]);
        assert_close(&rows_to_nchw(&rows, 2, 3, 4, 5), &t, 1e-6);
    }

    #[test]
    fn conv_forward_matches_tensor_kernel() {
        let mut rng = Rng::seed_from_u64(42);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let xt = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let wt = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt.clone());
        let w = g.leaf(wt.clone());
        let y = g.conv2d(x, w, spec);
        assert_close(g.value(y), &conv2d(&xt, &wt, &spec), 1e-5);
    }

    #[test]
    fn conv_weight_grad_via_sum_equals_input_patch_sums() {
        // With dY = 1 everywhere, dW[co, ci, ky, kx] = sum over all output
        // positions of the input pixel under (ky, kx) — equal for all co.
        let mut rng = Rng::seed_from_u64(43);
        let spec = Conv2dSpec { in_channels: 1, out_channels: 2, kernel: 1, stride: 1, padding: 0 };
        let xt = Tensor::randn(&[1, 1, 3, 3], 1.0, &mut rng);
        let wt = Tensor::randn(&[2, 1, 1, 1], 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt.clone());
        let w = g.leaf(wt);
        let y = g.conv2d(x, w, spec);
        let s = g.sum(y);
        g.backward(s);
        let dw = g.grad(w).unwrap();
        let expect = xt.sum();
        assert!((dw.data()[0] - expect).abs() < 1e-4);
        assert!((dw.data()[1] - expect).abs() < 1e-4);
    }
}
