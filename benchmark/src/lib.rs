//! End-to-end and per-layer benchmark of real LC-ASGD training runs: the
//! library behind the `lcasgd-e2e-bench` binary (see `README.md` beside
//! this package and `BENCHMARK.json` at the repository root).

pub mod agree;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod phases;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod run;
pub mod stats;
pub mod workloads;
