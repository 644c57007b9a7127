//! # lc-asgd
//!
//! Umbrella crate for the LC-ASGD reproduction (ICPP 2020: *Developing a
//! Loss Prediction-based Asynchronous Stochastic Gradient Descent Algorithm
//! for Distributed Training of Deep Neural Networks*).
//!
//! Re-exports every workspace crate under one namespace so examples and
//! downstream users need a single dependency:
//!
//! * [`tensor`] — dense f32 tensors and parallel kernels
//! * [`autograd`] — tape-based reverse-mode AD
//! * [`nn`] — layers, ResNet/MLP/LSTM builders, losses, SGD
//! * [`data`] — deterministic synthetic datasets
//! * [`simcluster`] — discrete-event cluster simulator + thread backend,
//!   and the shared `ClusterBackend` contract
//! * [`netcluster`] — TCP parameter server speaking the same protocol
//!   over real sockets (length-prefixed frames, heartbeats, reconnects)
//! * [`core`] — the LC-ASGD algorithm, its predictors, and all baselines

pub use lcasgd_autograd as autograd;
pub use lcasgd_core as core;
pub use lcasgd_data as data;
pub use lcasgd_netcluster as netcluster;
pub use lcasgd_nn as nn;
pub use lcasgd_simcluster as simcluster;
pub use lcasgd_tensor as tensor;

/// Commonly used items for examples and quick experiments.
pub mod prelude {
    pub use lcasgd_autograd::{Graph, Var};
    pub use lcasgd_core::algorithms::Algorithm;
    pub use lcasgd_core::bnmode::BnMode;
    pub use lcasgd_core::checkpoint::TrainingCheckpoint;
    pub use lcasgd_core::compensation::CompensationMode;
    pub use lcasgd_core::config::{ExperimentConfig, Scale};
    pub use lcasgd_core::metrics::{FaultReport, RunResult};
    pub use lcasgd_core::replication::{ReplicationReport, StandbyConfig};
    pub use lcasgd_core::supervisor::{
        AdmissionPolicy, AlgoMode, HealthEvent, HealthReport, SupervisorConfig,
    };
    pub use lcasgd_core::trace::{ClockDomain, TraceFormat, TraceLog, TraceSink};
    pub use lcasgd_core::trainer::{run_cluster, run_cluster_with, run_experiment, RunOptions};
    pub use lcasgd_data::{Dataset, SyntheticImageSpec};
    pub use lcasgd_netcluster::{NetCluster, NetConfig};
    pub use lcasgd_simcluster::{
        ClusterBackend, ClusterError, FaultKind, FaultPlan, FaultRecord, ThreadCluster,
        TransportStats,
    };
    pub use lcasgd_tensor::{Rng, Tensor};
}
