//! Elementwise arithmetic, activation maps and in-place updates.
//!
//! Every op here is one serial, auto-vectorized pass. They used to fork
//! above 16 K elements; with the rayon shim's per-call thread spawn the
//! forked branch lost to the serial one at every size from 2¹⁴ to 2²²
//! elements on two cores (3 vs 38 µs, 59 vs 155 µs, 2.0 vs 2.4 ms — the
//! `relu` rows of `BENCH_kernels.json`), so the branch and its threshold
//! are gone. Revisit only with a persistent pool (ROADMAP item 3).

use crate::tensor::Tensor;

fn map_unary(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = t.clone();
    map_unary_inplace(&mut out, f);
    out
}

fn map_unary_inplace(t: &mut Tensor, f: impl Fn(f32) -> f32) {
    t.data_mut().iter_mut().for_each(|x| *x = f(*x));
}

fn zip_binary(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(
        a.shape(),
        b.shape(),
        "elementwise shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let mut out = a.clone();
    out.data_mut().iter_mut().zip(b.data()).for_each(|(x, &y)| *x = f(*x, y));
    out
}

impl Tensor {
    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        zip_binary(self, other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        zip_binary(self, other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product — the `⊗` of DC-ASGD's Formula 3.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        zip_binary(self, other, |a, b| a * b)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        map_unary(self, |x| x + s)
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        map_unary(self, |x| x * s)
    }

    /// In-place scale.
    pub fn scale_inplace(&mut self, s: f32) {
        map_unary_inplace(self, |x| x * s);
    }

    /// `self += alpha * other`, the axpy kernel at the heart of every SGD
    /// update in the workspace.
    pub fn add_assign_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        self.data_mut().iter_mut().zip(other.data()).for_each(|(x, &y)| *x += alpha * y);
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.add_assign_scaled(other, 1.0);
    }

    /// Fused `self = a·self + b·other` — one pass over both buffers instead
    /// of a `scale_inplace` followed by an `add_assign_scaled`. Used for the
    /// exponential-moving-average updates of BN running statistics
    /// (`a = 1−momentum, b = momentum`). Per-element arithmetic is identical
    /// to the two-pass form (`x·a` then `+ b·y`), so results are bitwise
    /// equal to the unfused sequence.
    pub fn scale_add_inplace(&mut self, a: f32, other: &Tensor, b: f32) {
        assert_eq!(self.shape(), other.shape(), "scale_add shape mismatch");
        self.data_mut().iter_mut().zip(other.data()).for_each(|(x, &y)| *x = *x * a + b * y);
    }

    /// Elementwise `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        map_unary(self, |x| x.max(0.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        map_unary(self, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Hyperbolic tangent.
    pub fn tanh_map(&self) -> Tensor {
        map_unary(self, |x| x.tanh())
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        map_unary(self, |x| x * x)
    }

    /// Adds `bias` (shape = trailing dims of `self`) to every slice along
    /// the first dimension: `[b, n] + [n]`, `[b, c, h, w] + [c, h, w]`.
    pub fn add_rows(&self, bias: &Tensor) -> Tensor {
        assert!(
            self.shape().broadcasts_rows(bias.shape()),
            "add_rows: {:?} cannot broadcast {:?}",
            self.shape(),
            bias.shape()
        );
        let row = bias.numel();
        let mut out = self.clone();
        let bd = bias.data();
        for chunk in out.data_mut().chunks_mut(row) {
            for (x, &b) in chunk.iter_mut().zip(bd) {
                *x += b;
            }
        }
        out
    }

    /// Adds a per-channel bias to a `[n, c, h, w]` activation (`bias` has
    /// shape `[c]`). Complements [`add_rows`](Self::add_rows) for conv
    /// layers where the bias does not span the spatial dims.
    pub fn add_channels(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 4, "add_channels expects NCHW");
        let (n, c, h, w) = (self.dims()[0], self.dims()[1], self.dims()[2], self.dims()[3]);
        assert_eq!(bias.dims(), &[c], "channel bias shape");
        let hw = h * w;
        let mut out = self.clone();
        let bd = bias.data();
        out.data_mut().chunks_mut(c * hw).for_each(|img| {
            for ch in 0..c {
                let b = bd[ch];
                for x in &mut img[ch * hw..(ch + 1) * hw] {
                    *x += b;
                }
            }
        });
        let _ = n;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn add_sub_roundtrip() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![0.5, -1., 2.], &[3]);
        assert_close(&a.add(&b).sub(&b), &a, 1e-6);
    }

    #[test]
    fn hadamard_matches_manual() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![4., 5., 6.], &[3]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
    }

    #[test]
    #[should_panic(expected = "elementwise shape mismatch")]
    fn mismatched_shapes_panic() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn axpy_matches_formula() {
        let mut w = Tensor::from_vec(vec![1., 1.], &[2]);
        let g = Tensor::from_vec(vec![2., 4.], &[2]);
        w.add_assign_scaled(&g, -0.5);
        assert_eq!(w.data(), &[0., -1.]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(vec![-1., 0., 2.], &[3]);
        assert_eq!(t.relu().data(), &[0., 0., 2.]);
    }

    #[test]
    fn sigmoid_symmetry() {
        let t = Tensor::from_vec(vec![-3., 0., 3.], &[3]);
        let s = t.sigmoid();
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!((s.data()[0] + s.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn add_rows_broadcasts() {
        let m = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let v = Tensor::from_vec(vec![10., 20.], &[2]);
        assert_eq!(m.add_rows(&v).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn add_channels_per_feature_map() {
        // [1, 2, 1, 2] activation, channel bias [100, 200]
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 2, 1, 2]);
        let b = Tensor::from_vec(vec![100., 200.], &[2]);
        assert_eq!(a.add_channels(&b).data(), &[101., 102., 203., 204.]);
    }

    #[test]
    fn fused_ema_bitwise_equals_two_pass() {
        let n = 1027; // a vector body plus a scalar tail
        let dst = Tensor::from_vec((0..n).map(|i| (i as f32).sin()).collect(), &[n]);
        let src = Tensor::from_vec((0..n).map(|i| (i as f32).cos()).collect(), &[n]);
        let momentum = 0.1f32;
        let mut fused = dst.clone();
        fused.scale_add_inplace(1.0 - momentum, &src, momentum);
        let two_pass = crate::ops::reference::ema_ref(&dst, &src, momentum);
        assert_eq!(fused.data(), two_pass.data());
    }
}
