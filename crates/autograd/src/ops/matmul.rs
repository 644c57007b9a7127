//! Matrix multiplication and the fused linear layer.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;

/// `C = A·B`: `dA = dC·Bᵀ`, `dB = Aᵀ·dC`.
struct MatmulBack {
    a: Var,
    b: Var,
}
impl BackwardOp for MatmulBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let da = ctx.grad.matmul_nt(ctx.value(self.b));
        let db = ctx.value(self.a).matmul_tn(ctx.grad);
        ctx.accumulate(self.a, da);
        ctx.accumulate(self.b, db);
    }
}

/// `Y = X·Wᵀ + b` (the PyTorch linear convention, `W: [out, in]`).
struct LinearBack {
    x: Var,
    w: Var,
    b: Var,
}
impl BackwardOp for LinearBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        // dX = dY·W ; dW = dYᵀ·X ; db = column-sum(dY)
        if ctx.needs_grad(self.x) {
            let dx = ctx.grad.matmul(ctx.value(self.w));
            ctx.accumulate(self.x, dx);
        }
        let (dy, x) = (ctx.grad, ctx.value(self.x));
        ctx.accumulate_with(self.w, |dw| dy.matmul_tn_into(x, dw));
        ctx.accumulate(self.b, dy.sum_rows());
    }
}

impl Graph {
    /// `[m, k] × [k, n] -> [m, n]` matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Some(Box::new(MatmulBack { a, b })))
    }

    /// Fused linear layer `x·wᵀ + bias` with `x: [batch, in]`,
    /// `w: [out, in]`, `bias: [out]`. One tape node instead of three.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let y = self.value(x).matmul_nt(self.value(w)).add_rows(self.value(b));
        self.push(y, Some(Box::new(LinearBack { x, w, b })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_tensor::{assert_close, Rng, Tensor};

    #[test]
    fn matmul_grads_match_formulas() {
        let mut rng = Rng::seed_from_u64(31);
        let at = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let bt = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let mut g = Graph::new();
        let a = g.leaf(at.clone());
        let b = g.leaf(bt.clone());
        let c = g.matmul(a, b);
        let s = g.sum(c);
        g.backward(s);
        // dC = ones; dA = ones·Bᵀ, dB = Aᵀ·ones
        let ones = Tensor::ones(&[3, 2]);
        assert_close(g.grad(a).unwrap(), &ones.matmul_nt(&bt), 1e-5);
        assert_close(g.grad(b).unwrap(), &at.matmul_tn(&ones), 1e-5);
    }

    #[test]
    fn linear_equals_composed_ops() {
        let mut rng = Rng::seed_from_u64(32);
        let xt = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let wt = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let bt = Tensor::randn(&[2], 1.0, &mut rng);

        // Fused path.
        let mut g1 = Graph::new();
        let (x1, w1, b1) = (g1.leaf(xt.clone()), g1.leaf(wt.clone()), g1.leaf(bt.clone()));
        let y1 = g1.linear(x1, w1, b1);
        let s1 = g1.mean(y1);
        g1.backward(s1);

        // Composed path: matmul against explicit transpose + add_rows.
        let mut g2 = Graph::new();
        let (x2, b2) = (g2.leaf(xt.clone()), g2.leaf(bt.clone()));
        let wt_t = g2.leaf(wt.transpose2d());
        let mm = g2.matmul(x2, wt_t);
        let y2 = g2.add_rows(mm, b2);
        let s2 = g2.mean(y2);
        g2.backward(s2);

        assert_close(g1.value(y1), g2.value(y2), 1e-5);
        assert_close(g1.grad(x1).unwrap(), g2.grad(x2).unwrap(), 1e-5);
        assert_close(g1.grad(b1).unwrap(), g2.grad(b2).unwrap(), 1e-5);
        assert_close(g1.grad(w1).unwrap(), &g2.grad(wt_t).unwrap().transpose2d(), 1e-5);
    }
}
