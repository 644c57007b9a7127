//! # lcasgd-nn
//!
//! Stateful neural-network modules on top of `lcasgd-autograd`:
//!
//! * [`layer`] — `Linear`, `Conv2d`, `BatchNorm` and the pre-activation
//!   residual block (basic or bottleneck), composed through the
//!   [`layer::Layer`] enum;
//! * [`network`] — [`network::Network`]: an ordered layer stack with
//!   parameter visitors, flat (de)serialization of weights, and gradient
//!   extraction — the unit the parameter server ships to workers;
//! * [`lstm`] — the multi-layer LSTM used by LC-ASGD's loss & step
//!   predictors, with one-step online training;
//! * [`resnet`] / [`mlp`] — model builders (paper-faithful `resnet18_cifar`
//!   plus scaled presets);
//! * [`optimizer`] — the paper's step learning-rate schedule;
//! * [`metrics`] — error-rate helpers.

pub mod layer;
pub mod lstm;
pub mod metrics;
pub mod mlp;
pub mod network;
pub mod optimizer;
pub mod resnet;

pub use layer::{BatchNorm, Conv2d, ForwardCtx, Layer, Linear};
pub use lstm::Lstm;
pub use network::Network;
pub use optimizer::LrSchedule;
