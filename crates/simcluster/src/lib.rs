//! # lcasgd-simcluster
//!
//! The distributed-training substrate: what the paper ran on a V100
//! cluster, reproduced as (a) a deterministic discrete-event simulator and
//! (b) a real-thread parameter-server scaffold.
//!
//! The phenomenon LC-ASGD addresses is *gradient staleness*: while worker
//! `m` computes on weights `w_t`, `k_m` other workers commit updates, so
//! `m`'s gradient lands on `w_{t+k_m}`. Staleness is entirely determined
//! by the ordering and timing of worker↔server messages — which is exactly
//! what this crate models:
//!
//! * [`event`] — a deterministic virtual-time event queue;
//! * [`models`] — per-worker compute-speed models (heterogeneity, lognormal
//!   jitter, straggler episodes) and per-link latency models;
//! * [`sim`] — [`sim::ClusterSim`]: schedules worker phases and serializes
//!   server processing, yielding message arrivals in virtual-time order;
//! * [`thread_cluster`] — the same worker/server protocol over real OS
//!   threads and crossbeam channels, for validating that simulated
//!   staleness distributions match organic ones.

pub mod backend;
pub mod codec;
mod crc;
pub mod event;
pub mod faults;
pub mod models;
pub mod sim;
pub mod sim_backend;
pub mod thread_cluster;

pub use backend::{
    channel_duplex_pair, ChannelDuplex, ClockDomain, ClusterBackend, ClusterError,
    LatencyHistogram, ReplicaDuplex, ReplicaDuplexPair, ServerCtx, TraceHook, TransportStats,
    WireMsg, WireReader, WorkerLink,
};
pub use codec::{PackedF32, WireCodec};
pub use event::EventQueue;
pub use faults::{FaultEvent, FaultHooks, FaultKind, FaultLog, FaultPlan, FaultRecord, FaultyLink};
pub use models::{ClusterSpec, LinkModel, WorkerModel};
pub use sim::{Arrival, ClusterSim};
pub use sim_backend::SimPayload;
pub use thread_cluster::{ThreadCluster, WorkerHandle};
