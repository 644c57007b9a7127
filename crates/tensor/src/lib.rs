//! # lcasgd-tensor
//!
//! Dense, contiguous, row-major `f32` tensors with the operation set needed
//! by the LC-ASGD reproduction: elementwise arithmetic, rayon-parallel
//! blocked matrix multiplication, reductions, and im2col-based convolution
//! helpers.
//!
//! The crate is deliberately small and predictable rather than general:
//! every tensor is contiguous and owns its storage, so there are no stride
//! or aliasing surprises in the hot paths. Parallelism is applied only
//! where a call's work is several times a thread fork's cost (the shape
//! rules in [`ops::tune`]), so small tensors (the LSTM predictors' hidden
//! states, a ResNet-tiny convolution) never pay dispatch overhead.
//!
//! ```
//! use lcasgd_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod init;
pub mod ops;
pub mod rng;
pub mod shape;
#[allow(clippy::module_inception)]
pub mod tensor;

pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by [`Tensor::allclose`] and the test helpers.
pub const DEFAULT_ATOL: f32 = 1e-5;

/// Asserts two tensors are elementwise close; panics with the first
/// offending index on failure. Intended for tests.
pub fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch: {:?} vs {:?}", a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            (x - y).abs() <= tol + tol * x.abs().max(y.abs()),
            "mismatch at flat index {i}: {x} vs {y} (tol {tol})"
        );
    }
}
