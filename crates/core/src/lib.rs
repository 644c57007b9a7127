//! # lcasgd-core
//!
//! The paper's contribution and its baselines:
//!
//! * [`predictor`] — the two online-trained LSTM predictors that define
//!   LC-ASGD: the **loss predictor** (Algorithm 3) forecasting the global
//!   loss `k` steps ahead, and the **step predictor** (Algorithm 4)
//!   forecasting how many other updates will land while a worker computes;
//! * [`shard`] — the parameter server (Algorithm 2):
//!   [`shard::ShardGroup`] holds the one flat weight vector, its weight
//!   updates (Formula 8), the `iter` arrival log and the BN statistics
//!   (Formulas 6–7 for Async-BN); [`shard::ShardSpec`] splits the weights
//!   into the contiguous ranges pulls and pushes carry;
//! * [`worker`] — the worker-side computation (Algorithm 1): pull, forward
//!   with BN-stat recording, compensated backward (Formula 5), push;
//! * [`algorithms`] — SGD / SSGD / ASGD / DC-ASGD / LC-ASGD selection;
//! * [`compensation`] — the three readings of Formula 5 (see DESIGN.md §1);
//! * [`trainer`] — the training engine: [`trainer::run_cluster`], a
//!   parameter-server state machine and a worker loop joined by any
//!   [`ClusterBackend`](lcasgd_simcluster::ClusterBackend) (simulator,
//!   real threads, or TCP sockets); [`trainer::run_experiment`] runs it on
//!   the simulator for the paper's figures;
//! * [`protocol`] — the wire encoding of the pull / push-state / push-grad
//!   messages those backends carry;
//! * [`supervisor`] — the self-healing health state machine: divergence
//!   sentinels with quarantine and rollback, a staleness bound with
//!   straggler resharding, and the graded LC→DC→ASGD fallback ladder;
//! * [`metrics`] — epoch records, staleness, predictor traces, overheads,
//!   transport statistics;
//! * [`trace`] — the observability layer: phase-tagged span events from
//!   every backend on an explicit clock domain, exported as a Chrome
//!   trace.

// The engine was one 1,000-line function once (`run_cluster_with`); the
// threshold in the workspace's clippy.toml keeps one from growing back.
#![warn(clippy::too_many_lines)]

pub mod algorithms;
pub mod bnmode;
pub mod checkpoint;
pub mod comm;
pub mod compensation;
pub mod config;
pub mod metrics;
pub mod predictor;
pub mod protocol;
pub mod replication;
pub mod shard;
pub mod supervisor;
pub mod trace;
pub mod trainer;
pub mod worker;

pub use algorithms::Algorithm;
pub use bnmode::BnMode;
pub use checkpoint::TrainingCheckpoint;
pub use comm::Compression;
pub use compensation::CompensationMode;
pub use config::{CostModel, ExperimentConfig, Scale};
pub use metrics::{EpochRecord, FaultReport, OverheadStats, PredictorTrace, RunResult};
pub use protocol::{ClusterReq, ClusterResp};
pub use replication::{
    EpochFence, LogRecord, PushVerdict, ReplicaPayload, ReplicationReport, StandbyConfig,
    StandbyReplica,
};
pub use shard::{ShardGroup, ShardSpec};
pub use supervisor::{AlgoMode, HealthEvent, HealthReport, Supervisor, SupervisorConfig};
pub use trace::{ClockDomain, TraceEvent, TraceLog, TraceSink};
