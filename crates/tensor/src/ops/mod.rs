//! Tensor operations, grouped by kind.
//!
//! Every op validates shapes eagerly (panicking with a descriptive message)
//! so that shape bugs surface at the op that caused them, not three layers
//! downstream in a backward pass.
//!
//! Dispatch thresholds and cache-blocking parameters are centralized in
//! [`tune`]; the packed GEMM behind the matmul variants and the implicit
//! GEMM behind the convolutions share one micro-kernel in [`gemm`].
//! Deliberately-naive reference kernels for differential testing live in
//! [`reference`] (test builds and the `reference-kernels` feature only).

pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod matmul;
pub mod reduce;
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference;
pub mod tune;
