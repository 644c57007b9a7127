//! # lcasgd-bench
//!
//! The benchmark harness: experiment scenarios (synthetic CIFAR-10-like
//! and ImageNet-like workloads with matching ResNet presets), runners for
//! every figure and table of the paper, and plain-text renderers.
//!
//! Each paper artifact has both a criterion bench target (`benches/`) and
//! a section of the `repro-all` binary (`src/bin/`) that prints the
//! regenerated rows/series. `EXPERIMENTS.md` at the workspace root records
//! the paper-vs-measured comparison it produced.

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

/// Seconds-long experiment helpers for the criterion bench targets: the
/// Tiny scenario with a reduced epoch budget, cached datasets, and knobs
/// for the ablations. The full-length regenerations live in
/// `repro-all`; the benches measure the *cost* of each pipeline.
pub mod quick {
    use crate::Scenario;
    use lcasgd_core::algorithms::Algorithm;
    use lcasgd_core::bnmode::BnMode;
    use lcasgd_core::compensation::CompensationMode;
    use lcasgd_core::config::Scale;
    use lcasgd_core::metrics::RunResult;
    use lcasgd_core::trainer::run_experiment;
    use lcasgd_tensor::Rng;
    use std::sync::OnceLock;

    fn cifar() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::cifar(Scale::Tiny))
    }

    fn imagenet() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::imagenet(Scale::Tiny))
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

    /// Short CIFAR-like run (2 epochs).
    pub fn cifar_run(algo: Algorithm, m: usize) -> RunResult {
        run(cifar(), algo, m, 2, BnMode::Async, CompensationMode::Relative)
    }

    /// Short CIFAR-like run with explicit BN mode.
    pub fn cifar_run_bn(algo: Algorithm, m: usize, bn: BnMode) -> RunResult {
        run(cifar(), algo, m, 2, bn, CompensationMode::Relative)
    }

    /// Short LC-ASGD CIFAR run with an explicit compensation mode.
    pub fn cifar_run_comp(m: usize, comp: CompensationMode) -> RunResult {
        run(cifar(), Algorithm::LcAsgd, m, 2, BnMode::Async, comp)
    }

    /// Short ImageNet-like run (1 epoch; the model is larger).
    pub fn imagenet_run(algo: Algorithm, m: usize) -> RunResult {
        run(imagenet(), algo, m, 1, BnMode::Async, CompensationMode::Relative)
    }

    /// Short ASGD CIFAR run with gradient compression on the push.
    pub fn cifar_run_compressed(
        m: usize,
        compression: lcasgd_core::comm::Compression,
    ) -> RunResult {
        let scenario = cifar();
        let mut cfg = scenario.config(Algorithm::Asgd, m, crate::REPRO_SEED);
        cfg.epochs = 2;
        cfg.max_eval_train = 128;
        cfg.compression = compression;
        let build = |rng: &mut Rng| scenario.build_model(rng);
        run_experiment(&cfg, &build, &scenario.train, &scenario.test)
    }
}
