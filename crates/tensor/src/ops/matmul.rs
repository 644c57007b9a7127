//! Matrix multiplication: packed/blocked GEMM for large products, simple
//! serial kernels for small ones.
//!
//! All three variants (`matmul`, `matmul_tn`, `matmul_nt`) dispatch on
//! shape alone (see [`tune`](super::tune)): products below
//! [`GEMM_PACK_FLOPS`](super::tune::GEMM_PACK_FLOPS) — notably the LSTM
//! predictors' `[1, h] × [h, 4h]` gate products — run a serial loop with no
//! packing or thread dispatch; everything larger goes through the shared
//! cache-blocked, register-tiled kernel in [`gemm`](super::gemm), which
//! handles transposed operands via strided packing instead of materialized
//! transposes and splits output rows across threads without changing
//! results (DESIGN.md §8).

use super::gemm::{gemm, MatRef};
use super::tune::{gemm_threads, use_packed_gemm};
use crate::tensor::Tensor;

fn matmul_rows_serial(out_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize, n: usize) {
    // out[i, :] += a[i, k] * b[k, :]
    for (out_row, a_row) in out_rows.chunks_exact_mut(n).zip(a_rows.chunks_exact(k)) {
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..kk * n + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

impl Tensor {
    /// `[m, k] × [k, n] -> [m, n]` matrix product.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul lhs rank {}", self.shape().rank());
        assert_eq!(other.shape().rank(), 2, "matmul rhs rank {}", other.shape().rank());
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul inner dims: [{m}, {k}] × [{k2}, {n}]");

        let mut out = Tensor::zeros(&[m, n]);
        let a = self.data();
        let b = other.data();
        if use_packed_gemm(m, n, k) {
            gemm(
                out.data_mut(),
                m,
                n,
                k,
                MatRef::row_major(a, k),
                MatRef::row_major(b, n),
                gemm_threads(m, n, k),
            );
        } else {
            matmul_rows_serial(out.data_mut(), a, b, k, n);
        }
        out
    }

    /// `self.transpose() × other` without materializing the transpose:
    /// `[k, m]ᵀ × [k, n] -> [m, n]`. Used by linear-layer backward passes.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.dims()[1], other.dims()[1]]);
        self.matmul_tn_into(other, out.data_mut());
        out
    }

    /// [`matmul_tn`](Self::matmul_tn) accumulated into `out` (`[m, n]`,
    /// row-major): `out += selfᵀ × other`. Over zeros that is the product,
    /// bit for bit what `matmul_tn` returns.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.shape().rank(), 2);
        assert_eq!(other.shape().rank(), 2);
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_tn inner dims");
        assert_eq!(out.len(), m * n, "matmul_tn output length");
        let a = self.data();
        let b = other.data();
        if use_packed_gemm(m, n, k) {
            gemm(
                out,
                m,
                n,
                k,
                MatRef::transposed(a, m),
                MatRef::row_major(b, n),
                gemm_threads(m, n, k),
            );
            return;
        }
        // out[i, j] = sum_k a[k, i] * b[k, j]; accumulate k-major so both
        // reads stream sequentially.
        for kk in 0..k {
            let a_row = &a[kk * m..kk * m + m];
            let b_row = &b[kk * n..kk * n + n];
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let o = &mut out[i * n..i * n + n];
                for (ov, &bv) in o.iter_mut().zip(b_row) {
                    *ov += aki * bv;
                }
            }
        }
    }

    /// `self × other.transpose()` without materializing the transpose:
    /// `[m, k] × [n, k]ᵀ -> [m, n]`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2);
        assert_eq!(other.shape().rank(), 2);
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_nt inner dims");
        let a = self.data();
        let b = other.data();
        let mut out = Tensor::zeros(&[m, n]);
        if use_packed_gemm(m, n, k) {
            gemm(
                out.data_mut(),
                m,
                n,
                k,
                MatRef::row_major(a, k),
                MatRef::transposed(b, k),
                gemm_threads(m, n, k),
            );
            return out;
        }
        for (i, out_row) in out.data_mut().chunks_mut(n).enumerate() {
            let a_row = &a[i * k..i * k + k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..j * k + k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        out
    }

    /// Matrix–vector product `[m, k] × [k] -> [m]`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2);
        assert_eq!(v.shape().rank(), 1);
        let (m, k) = (self.dims()[0], self.dims()[1]);
        assert_eq!(k, v.dims()[0], "matvec inner dims");
        let a = self.data();
        let x = v.data();
        let mut out = Tensor::zeros(&[m]);
        for (i, o) in out.data_mut().iter_mut().enumerate() {
            let row = &a[i * k..i * k + k];
            *o = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        out
    }

    /// Dot product of two rank-1 tensors (f64 accumulation).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.data().iter().zip(other.data()).map(|(&a, &b)| a as f64 * b as f64).sum::<f64>() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference;
    use crate::{assert_close, Rng};

    fn random(dims: &[usize], rng: &mut Rng) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.normal() as f32).collect(), dims)
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = Rng::seed_from_u64(1);
        let a = random(&[3, 5], &mut rng);
        let b = random(&[5, 4], &mut rng);
        assert_close(&a.matmul(&b), &reference::matmul_ref(&a, &b), 1e-4);
    }

    #[test]
    fn matches_naive_packed_path() {
        // Large enough to take the packed GEMM (and band-split) path.
        let mut rng = Rng::seed_from_u64(2);
        let a = random(&[96, 80], &mut rng);
        let b = random(&[80, 64], &mut rng);
        assert_close(&a.matmul(&b), &reference::matmul_ref(&a, &b), 1e-3);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from_u64(3);
        let a = random(&[6, 6], &mut rng);
        assert_close(&a.matmul(&Tensor::eye(6)), &a, 1e-5);
        assert_close(&Tensor::eye(6).matmul(&a), &a, 1e-5);
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(4);
        let a = random(&[7, 5], &mut rng);
        let b = random(&[7, 6], &mut rng);
        assert_close(&a.matmul_tn(&b), &a.transpose2d().matmul(&b), 1e-4);
    }

    #[test]
    fn tn_packed_equals_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(40);
        let a = random(&[70, 50], &mut rng);
        let b = random(&[70, 60], &mut rng);
        assert_close(&a.matmul_tn(&b), &a.transpose2d().matmul(&b), 1e-3);
    }

    #[test]
    fn tn_into_over_zeros_is_the_product_and_accumulates_otherwise() {
        let mut rng = Rng::seed_from_u64(41);
        for dims in [([7, 5], [7, 6]), ([70, 50], [70, 60])] {
            let (a, b) = (random(&dims.0, &mut rng), random(&dims.1, &mut rng));
            let want = a.matmul_tn(&b);
            let mut out = vec![0.0f32; want.numel()];
            a.matmul_tn_into(&b, &mut out);
            assert_eq!(out, want.data());
            a.matmul_tn_into(&b, &mut out);
            assert_close(&Tensor::from_vec(out, want.dims()), &want.scale(2.0), 1e-4);
        }
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(5);
        let a = random(&[7, 5], &mut rng);
        let b = random(&[6, 5], &mut rng);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose2d()), 1e-4);
    }

    #[test]
    fn nt_packed_equals_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(50);
        let a = random(&[70, 50], &mut rng);
        let b = random(&[60, 50], &mut rng);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose2d()), 1e-3);
    }

    #[test]
    fn matvec_equals_matmul_column() {
        let mut rng = Rng::seed_from_u64(6);
        let a = random(&[4, 9], &mut rng);
        let v = random(&[9], &mut rng);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshaped(&[9, 1]));
        assert_close(&mv, &mm.reshape(&[4]), 1e-5);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn inner_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_symmetry_and_norm() {
        let mut rng = Rng::seed_from_u64(7);
        let a = random(&[33], &mut rng);
        let b = random(&[33], &mut rng);
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-5);
        assert!((a.dot(&a).sqrt() - a.norm()).abs() < 1e-4);
    }
}
