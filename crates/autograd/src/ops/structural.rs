//! Shape-manipulating ops and reductions: concat, slice, sum, mean.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;

/// Concatenation of two rank-2 tensors along the column axis.
struct ConcatColsBack {
    a: Var,
    b: Var,
    na: usize,
    nb: usize,
}
impl BackwardOp for ConcatColsBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let rows = ctx.grad.dims()[0];
        let n = self.na + self.nb;
        let mut ga = Tensor::zeros(&[rows, self.na]);
        let mut gb = Tensor::zeros(&[rows, self.nb]);
        let src = ctx.grad.data();
        for r in 0..rows {
            ga.data_mut()[r * self.na..(r + 1) * self.na]
                .copy_from_slice(&src[r * n..r * n + self.na]);
            gb.data_mut()[r * self.nb..(r + 1) * self.nb]
                .copy_from_slice(&src[r * n + self.na..(r + 1) * n]);
        }
        ctx.accumulate(self.a, ga);
        ctx.accumulate(self.b, gb);
    }
}

struct SliceColsBack {
    x: Var,
    start: usize,
    in_cols: usize,
}
impl BackwardOp for SliceColsBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let rows = ctx.grad.dims()[0];
        let len = ctx.grad.dims()[1];
        let mut gx = Tensor::zeros(&[rows, self.in_cols]);
        let src = ctx.grad.data();
        for r in 0..rows {
            gx.data_mut()[r * self.in_cols + self.start..r * self.in_cols + self.start + len]
                .copy_from_slice(&src[r * len..(r + 1) * len]);
        }
        ctx.accumulate(self.x, gx);
    }
}

struct SumBack {
    x: Var,
    in_dims: Vec<usize>,
}
impl BackwardOp for SumBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        ctx.accumulate(self.x, Tensor::full(&self.in_dims, ctx.grad.item()));
    }
}

struct MeanBack {
    x: Var,
    in_dims: Vec<usize>,
}
impl BackwardOp for MeanBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let n: usize = self.in_dims.iter().product();
        ctx.accumulate(self.x, Tensor::full(&self.in_dims, ctx.grad.item() / n.max(1) as f32));
    }
}

impl Graph {
    /// Concatenates `[b, na]` and `[b, nb]` into `[b, na+nb]`. The LSTM cell
    /// uses this to join `x_t` with `h_{t-1}`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape().rank(), 2, "concat_cols lhs rank");
        assert_eq!(tb.shape().rank(), 2, "concat_cols rhs rank");
        assert_eq!(ta.dims()[0], tb.dims()[0], "concat_cols row mismatch");
        let (rows, na, nb) = (ta.dims()[0], ta.dims()[1], tb.dims()[1]);
        let mut out = Tensor::zeros(&[rows, na + nb]);
        for r in 0..rows {
            out.data_mut()[r * (na + nb)..r * (na + nb) + na]
                .copy_from_slice(&ta.data()[r * na..(r + 1) * na]);
            out.data_mut()[r * (na + nb) + na..(r + 1) * (na + nb)]
                .copy_from_slice(&tb.data()[r * nb..(r + 1) * nb]);
        }
        self.push(out, Some(Box::new(ConcatColsBack { a, b, na, nb })))
    }

    /// Extracts columns `[start, start+len)` of a rank-2 tensor. The LSTM
    /// cell uses this to split the packed gate pre-activations.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let t = self.value(x);
        assert_eq!(t.shape().rank(), 2, "slice_cols rank");
        let (rows, cols) = (t.dims()[0], t.dims()[1]);
        assert!(start + len <= cols, "slice_cols out of range");
        let mut out = Tensor::zeros(&[rows, len]);
        for r in 0..rows {
            out.data_mut()[r * len..(r + 1) * len]
                .copy_from_slice(&t.data()[r * cols + start..r * cols + start + len]);
        }
        self.push(out, Some(Box::new(SliceColsBack { x, start, in_cols: cols })))
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, x: Var) -> Var {
        let in_dims = self.value(x).dims().to_vec();
        let v = Tensor::scalar(self.value(x).sum());
        self.push(v, Some(Box::new(SumBack { x, in_dims })))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, x: Var) -> Var {
        let in_dims = self.value(x).dims().to_vec();
        let v = Tensor::scalar(self.value(x).mean());
        self.push(v, Some(Box::new(MeanBack { x, in_dims })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_then_slice_roundtrip_grads() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]));
        let b = g.leaf(Tensor::from_vec(vec![5., 6.], &[2, 1]));
        let c = g.concat_cols(a, b);
        assert_eq!(g.value(c).data(), &[1., 2., 5., 3., 4., 6.]);
        // Take only the b-part: gradient should hit b with ones, a with zeros.
        let sl = g.slice_cols(c, 2, 1);
        let s = g.sum(sl);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 1.]);
        assert_eq!(g.grad(a).unwrap().data(), &[0., 0., 0., 0.]);
    }

    #[test]
    fn mean_grad_is_uniform() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1., 2., 3., 4.], &[4]));
        let m = g.mean(x);
        g.backward(m);
        assert_eq!(g.grad(x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn sum_vs_mean_scaling() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[5]));
        let s = g.sum(x);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "slice_cols out of range")]
    fn slice_out_of_range_panics() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 3]));
        let _ = g.slice_cols(x, 2, 2);
    }
}
