//! Global average pooling, ResNet's last spatial reduction.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;

struct GlobalAvgPoolBack {
    x: Var,
    in_dims: [usize; 4],
}
impl BackwardOp for GlobalAvgPoolBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let [n, c, h, w] = self.in_dims;
        let hw = h * w;
        let scale = 1.0 / hw as f32;
        let mut dx = Tensor::zeros(&self.in_dims);
        let dst = dx.data_mut();
        let src = ctx.grad.data();
        for img in 0..n {
            for ch in 0..c {
                let g = src[img * c + ch] * scale;
                dst[(img * c + ch) * hw..(img * c + ch + 1) * hw].fill(g);
            }
        }
        ctx.accumulate(self.x, dx);
    }
}

impl Graph {
    /// Global average pooling: `[n, c, h, w] -> [n, c]`. ResNet's final
    /// spatial reduction before the classifier head.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let xt = self.value(x);
        assert_eq!(xt.shape().rank(), 4, "global_avg_pool expects NCHW");
        let d = xt.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let mut out = Tensor::zeros(&[n, c]);
        let src = xt.data();
        for (i, o) in out.data_mut().iter_mut().enumerate() {
            let plane = &src[i * hw..(i + 1) * hw];
            *o = plane.iter().sum::<f32>() / hw as f32;
        }
        self.push(out, Some(Box::new(GlobalAvgPoolBack { x, in_dims: [d[0], d[1], d[2], d[3]] })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_value_and_grad() {
        let xt = Tensor::from_vec(vec![1., 2., 3., 4., 10., 20., 30., 40.], &[1, 2, 2, 2]);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let y = g.global_avg_pool(x);
        assert_eq!(g.value(y).data(), &[2.5, 25.0]);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0.25; 8]);
    }
}
