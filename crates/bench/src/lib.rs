//! # lcasgd-bench
//!
//! The benchmark harness: runners for every figure and table of the paper
//! over `lcasgd-core`'s two scenarios, and plain-text renderers.
//!
//! Each paper artifact, and each of the two ablations the paper leaves
//! open, is a section of the `repro-all` binary (`src/bin/`), which
//! prints the regenerated rows/series; `EXPERIMENTS.md` at the workspace
//! root records the paper-vs-measured comparison it produced. The other
//! two binaries time the kernels (`kernel-baseline`) and the transport
//! (`net-scale`) against committed baselines.

pub mod ablations;
mod baseline;
pub mod figures;
pub mod kernels;
pub mod netscale;
pub mod render;
pub mod tables;

pub use lcasgd_core::scenario::{Scenario, ScenarioKind};

use lcasgd_core::config::Scale;

/// Parses the scale argument shared by the harness binaries:
/// `tiny` (default for smoke runs), `small` (the documented EXPERIMENTS.md
/// setting), or `paper` (full-size models/epochs; hours of CPU).
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        _ => Scale::Tiny,
    }
}

/// The seed `repro-all` uses, so printed numbers are reproducible.
pub const REPRO_SEED: u64 = 2020;
