//! Elementwise differentiable ops: arithmetic, activations, broadcasts.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;

struct AddBack(Var, Var);
impl BackwardOp for AddBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        ctx.accumulate(self.0, ctx.grad.clone());
        ctx.accumulate(self.1, ctx.grad.clone());
    }
}

struct MulBack(Var, Var);
impl BackwardOp for MulBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let ga = ctx.grad.mul(ctx.value(self.1));
        let gb = ctx.grad.mul(ctx.value(self.0));
        ctx.accumulate(self.0, ga);
        ctx.accumulate(self.1, gb);
    }
}

/// ReLU's vector-Jacobian product from its saved output `y = max(x, 0)`:
/// `dx = dy` where `y > 0`, else `+0` (a NaN `y` passes `dy` on).
pub fn relu_backward(dy: &Tensor, y: &Tensor) -> Tensor {
    dy.zip_with(y, |g, y| if y <= 0.0 { 0.0 } else { g })
}

/// Saves the *output* (y = max(x, 0)); dx = dy · 1[y > 0].
struct ReluBack {
    x: Var,
    y: Tensor,
}
impl BackwardOp for ReluBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        ctx.accumulate(self.x, relu_backward(ctx.grad, &self.y));
    }
}

/// dx = dy · y · (1 − y) using the saved output.
struct SigmoidBack {
    x: Var,
    y: Tensor,
}
impl BackwardOp for SigmoidBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        ctx.accumulate(self.x, ctx.grad.zip_with(&self.y, |g, y| g * (y * (1.0 - y))));
    }
}

/// dx = dy · (1 − y²) using the saved output.
struct TanhBack {
    x: Var,
    y: Tensor,
}
impl BackwardOp for TanhBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        ctx.accumulate(self.x, ctx.grad.zip_with(&self.y, |g, y| g * (1.0 - y * y)));
    }
}

/// `[b, ...] + bias[...]`: bias gradient sums over the leading dimension.
struct AddRowsBack {
    x: Var,
    bias: Var,
}
impl BackwardOp for AddRowsBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        ctx.accumulate(self.bias, ctx.grad.sum_rows());
        ctx.accumulate(self.x, ctx.grad.clone());
    }
}

impl Graph {
    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Some(Box::new(AddBack(a, b))))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Some(Box::new(MulBack(a, b))))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let y = self.value(x).relu();
        let back = ReluBack { x, y: y.clone() };
        self.push(y, Some(Box::new(back)))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let y = self.value(x).sigmoid();
        let back = SigmoidBack { x, y: y.clone() };
        self.push(y, Some(Box::new(back)))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let y = self.value(x).tanh_map();
        let back = TanhBack { x, y: y.clone() };
        self.push(y, Some(Box::new(back)))
    }

    /// Adds `bias` (shape = trailing dims of `x`) to every leading slice.
    pub fn add_rows(&mut self, x: Var, bias: Var) -> Var {
        let v = self.value(x).add_rows(self.value(bias));
        self.push(v, Some(Box::new(AddRowsBack { x, bias })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d)
    }

    #[test]
    fn add_grads_are_identity() {
        let mut g = Graph::new();
        let a = g.leaf(t(vec![1., 2.], &[2]));
        let b = g.leaf(t(vec![3., 4.], &[2]));
        let c = g.add(a, b);
        let s = g.sum(c);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[1., 1.]);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 1.]);
    }

    #[test]
    fn product_rule() {
        let mut g = Graph::new();
        let a = g.leaf(t(vec![2., 3.], &[2]));
        let b = g.leaf(t(vec![5., 7.], &[2]));
        let c = g.mul(a, b);
        let s = g.sum(c);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[5., 7.]);
        assert_eq!(g.grad(b).unwrap().data(), &[2., 3.]);
    }

    #[test]
    fn shared_operand_accumulates() {
        // s = sum(x * x) => ds/dx = 2x
        let mut g = Graph::new();
        let x = g.leaf(t(vec![3., -4.], &[2]));
        let y = g.mul(x, x);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[6., -8.]);
    }

    #[test]
    fn relu_kills_negative_paths() {
        let mut g = Graph::new();
        let x = g.leaf(t(vec![-1., 2., 0.], &[3]));
        let y = g.relu(x);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0., 1., 0.]);
    }

    /// Hands `dy` to `v` as its upstream gradient, whatever the bits.
    struct Upstream(Var, Tensor);
    impl BackwardOp for Upstream {
        fn backward(&self, ctx: &mut Ctx<'_>) {
            ctx.accumulate(self.0, self.1.clone());
        }
    }

    /// Runs one saved-output node on the tape, with `y` as its saved output
    /// and `dy` as its upstream gradient; returns the gradient it hands on.
    fn run_node(
        node: impl FnOnce(Var, Tensor) -> Box<dyn BackwardOp>,
        y: &Tensor,
        dy: &Tensor,
    ) -> Tensor {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(y.dims()));
        let yv = g.push(y.clone(), Some(node(x, y.clone())));
        let out = g.push(Tensor::zeros(&[1]), Some(Box::new(Upstream(yv, dy.clone()))));
        g.backward(out);
        g.take_grad(x).expect("gradient reached x")
    }

    /// The loop each node ran before it became one `zip_with`: a copy of
    /// `dy` updated in place.
    fn old_loop(dy: &Tensor, y: &Tensor, update: impl Fn(&mut f32, f32)) -> Tensor {
        let mut g = dy.clone();
        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
            update(gv, yv);
        }
        g
    }

    #[test]
    fn saved_output_nodes_are_bitwise_their_old_loops_at_the_edges() {
        let ys = [f32::NAN, -0.0, 0.0, f32::from_bits(1), f32::INFINITY, 0.5, -1.5, 0.99, 3.0];
        let dys = [-0.0, f32::NAN, 1.25, -3.0];
        let (y, dy): (Vec<f32>, Vec<f32>) =
            ys.iter().flat_map(|&y| dys.iter().map(move |&d| (y, d))).unzip();
        let (y, dy) = (t(y, &[ys.len(), dys.len()]), t(dy, &[ys.len(), dys.len()]));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cases: [(&str, Tensor, Tensor); 3] = [
            (
                "relu",
                run_node(|x, y| Box::new(ReluBack { x, y }), &y, &dy),
                old_loop(&dy, &y, |gv, yv| {
                    if yv <= 0.0 {
                        *gv = 0.0;
                    }
                }),
            ),
            (
                "sigmoid",
                run_node(|x, y| Box::new(SigmoidBack { x, y }), &y, &dy),
                old_loop(&dy, &y, |gv, yv| *gv *= yv * (1.0 - yv)),
            ),
            (
                "tanh",
                run_node(|x, y| Box::new(TanhBack { x, y }), &y, &dy),
                old_loop(&dy, &y, |gv, yv| *gv *= 1.0 - yv * yv),
            ),
        ];
        for (name, got, want) in &cases {
            assert_eq!(bits(got), bits(want), "{name}: y = {:?}, dy = {:?}", y.data(), dy.data());
        }
        // The edges the rule is about: a NaN output passes dy on, a −0.0 dy
        // behind a positive output stays −0.0, and a ≤ 0 output gives +0.
        let relu = &cases[0].1;
        let at = |yi: usize, di: usize| relu.data()[yi * dys.len() + di];
        assert_eq!(at(0, 2), 1.25);
        assert_eq!(at(5, 0).to_bits(), (-0.0f32).to_bits());
        assert_eq!((at(1, 3).to_bits(), at(2, 1).to_bits()), (0, 0));
    }

    #[test]
    fn sigmoid_grad_at_zero_is_quarter() {
        let mut g = Graph::new();
        let x = g.leaf(t(vec![0.0], &[1]));
        let y = g.sigmoid(x);
        let s = g.sum(y);
        g.backward(s);
        assert!((g.grad(x).unwrap().data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_grad_at_zero_is_one() {
        let mut g = Graph::new();
        let x = g.leaf(t(vec![0.0], &[1]));
        let y = g.tanh(x);
        let s = g.sum(y);
        g.backward(s);
        assert!((g.grad(x).unwrap().data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn add_rows_bias_grad_sums_batch() {
        let mut g = Graph::new();
        let x = g.leaf(t(vec![0.; 6], &[3, 2]));
        let b = g.leaf(t(vec![1., 2.], &[2]));
        let y = g.add_rows(x, b);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().data(), &[3., 3.]);
        assert_eq!(g.grad(x).unwrap().dims(), &[3, 2]);
    }

    #[test]
    fn seed_scales_whole_chain() {
        let mut g = Graph::new();
        let x = g.leaf(t(vec![1., 2.], &[2]));
        let three = g.input(t(vec![3., 3.], &[2]));
        let y = g.mul(x, three);
        let s = g.sum(y);
        g.backward_with_seed(s, 2.0);
        assert_eq!(g.grad(x).unwrap().data(), &[6., 6.]);
    }
}
