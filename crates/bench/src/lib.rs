//! # lcasgd-bench
//!
//! The benchmark harness: experiment scenarios (synthetic CIFAR-10-like
//! and ImageNet-like workloads with matching ResNet presets), runners for
//! every figure and table of the paper, and plain-text renderers.
//!
//! Each paper artifact is a section of the `repro-all` binary
//! (`src/bin/`), which prints the regenerated rows/series;
//! `EXPERIMENTS.md` at the workspace root records the paper-vs-measured
//! comparison it produced. The criterion targets (`benches/`) are the
//! ablations and the micro-benchmarks.

mod baseline;
pub mod figures;
pub mod kernels;
pub mod netscale;
pub mod render;
pub mod scenario;
pub mod tables;

pub use scenario::{Scenario, ScenarioKind};

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

/// Seconds-long experiment helpers for the ablation bench targets: the
/// Tiny CIFAR-like scenario with a reduced epoch budget, a cached dataset,
/// and the ablations' knobs. The full-length regenerations live in
/// `repro-all`; the benches measure the *cost* of each pipeline.
pub mod quick {
    use crate::Scenario;
    use lcasgd_core::algorithms::Algorithm;
    use lcasgd_core::bnmode::BnMode;
    use lcasgd_core::compensation::CompensationMode;
    use lcasgd_core::config::Scale;
    use lcasgd_core::metrics::RunResult;
    use lcasgd_core::trainer::{run_cluster, run_experiment};
    use lcasgd_simcluster::{ThreadCluster, WireCodec};
    use lcasgd_tensor::Rng;
    use std::sync::OnceLock;

    fn cifar() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::cifar(Scale::Tiny))
    }

    fn run(
        scenario: &Scenario,
        algo: Algorithm,
        m: usize,
        epochs: usize,
        bn: BnMode,
        comp: CompensationMode,
    ) -> RunResult {
        let mut cfg = scenario.config(algo, m, crate::REPRO_SEED);
        cfg.epochs = epochs;
        cfg.bn_mode = bn;
        cfg.compensation = comp;
        cfg.max_eval_train = 128;
        let build = |rng: &mut Rng| scenario.build_model(rng);
        run_experiment(&cfg, &build, &scenario.train, &scenario.test)
    }

    /// Short CIFAR-like run with explicit BN mode.
    pub fn cifar_run_bn(algo: Algorithm, m: usize, bn: BnMode) -> RunResult {
        run(cifar(), algo, m, 2, bn, CompensationMode::Relative)
    }

    /// Short LC-ASGD CIFAR run with an explicit compensation mode.
    pub fn cifar_run_comp(m: usize, comp: CompensationMode) -> RunResult {
        run(cifar(), Algorithm::LcAsgd, m, 2, BnMode::Async, comp)
    }

    /// Short ASGD CIFAR run on `m` threads with `codec` on the wire (the
    /// simulator's wire is `f32` only).
    pub fn cifar_run_codec(m: usize, codec: WireCodec) -> RunResult {
        let scenario = cifar();
        let mut cfg = scenario.config(Algorithm::Asgd, m, crate::REPRO_SEED);
        cfg.epochs = 2;
        cfg.max_eval_train = 128;
        let build = |rng: &mut Rng| scenario.build_model(rng);
        let backend = ThreadCluster::new(m).with_wire_codec(codec);
        run_cluster(backend, &cfg, &build, &scenario.train, &scenario.test)
            .unwrap_or_else(|e| panic!("{} thread run failed: {e}", codec.name()))
    }
}
