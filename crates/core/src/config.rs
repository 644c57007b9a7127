//! Experiment configuration.

use crate::algorithms::Algorithm;
use crate::bnmode::BnMode;
use crate::compensation::CompensationMode;
use lcasgd_nn::LrSchedule;
use lcasgd_simcluster::ClusterSpec;

/// Nominal compute costs (virtual seconds per mini-batch phase) charged to
/// workers in the simulation. Calibrated so that a full iteration matches
/// the paper's measured per-iteration times (Table 2: ~32 ms on CIFAR-10,
/// Table 3: ~183 ms on ImageNet).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Forward pass (loss + BN stats), seconds.
    pub forward: f64,
    /// Backward pass (gradients), seconds.
    pub backward: f64,
    /// Server-side loss-predictor cost per state arrival, seconds. A
    /// *deterministic* nominal charge (calibrated to the paper's Table 2/3
    /// measurements) so simulations replay bit-identically; the
    /// implementation's own measured CPU time is reported separately in
    /// [`crate::metrics::OverheadStats`].
    pub loss_pred: f64,
    /// Server-side step-predictor cost per state arrival, seconds.
    pub step_pred: f64,
}

impl CostModel {
    /// CIFAR-10-like iteration cost (≈32 ms total, Table 2).
    pub fn cifar() -> Self {
        CostModel { forward: 0.010, backward: 0.022, loss_pred: 0.0013, step_pred: 0.0014 }
    }

    /// ImageNet-like iteration cost (≈183 ms total, Table 3).
    pub fn imagenet() -> Self {
        CostModel { forward: 0.060, backward: 0.123, loss_pred: 0.0013, step_pred: 0.0015 }
    }

    /// Total per-iteration compute.
    pub fn iteration(&self) -> f64 {
        self.forward + self.backward
    }
}

/// How training data is distributed across workers.
///
/// The paper's experiments share the full dataset ("all of the workers …
/// not only share the model but also use the same data"); its stated
/// future work is the partitioned setting, implemented here as an
/// extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPartition {
    /// Every worker samples batches from the full training set (paper).
    Shared,
    /// Round-robin disjoint shards, one per worker (future-work setting).
    Partitioned,
}

/// Experiment size knob: how far the in-session runs are scaled down from
/// the paper's full setting (see DESIGN.md §1 — full-scale single-machine
/// CPU training of ResNet-18 for 160 epochs is not feasible here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-run; unit/integration tests and smoke benches.
    Tiny,
    /// Minutes-per-run; the default for regenerating figures/tables.
    Small,
    /// The paper's full setting (ResNet-18/50 widths, 160/120 epochs).
    Paper,
}

impl Scale {
    /// Training epochs for the CIFAR-like experiments
    /// (paper: 160).
    pub fn cifar_epochs(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Small => 16,
            Scale::Paper => 160,
        }
    }

    /// Training epochs for the ImageNet-like experiments (paper: 120).
    pub fn imagenet_epochs(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Small => 12,
            Scale::Paper => 120,
        }
    }

    /// Synthetic image resolution (paper: 32×32 CIFAR / 224×224 ImageNet).
    pub fn cifar_hw(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Small => 10,
            Scale::Paper => 32,
        }
    }

    /// ImageNet-like resolution.
    pub fn imagenet_hw(self) -> usize {
        match self {
            Scale::Tiny => 10,
            Scale::Small => 12,
            Scale::Paper => 64,
        }
    }

    /// Training samples per class (paper: 5000 CIFAR).
    pub fn cifar_train_per_class(self) -> usize {
        match self {
            Scale::Tiny => 24,
            Scale::Small => 96,
            Scale::Paper => 5000,
        }
    }

    /// Test samples per class (paper: 1000 CIFAR).
    pub fn cifar_test_per_class(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Small => 64,
            Scale::Paper => 1000,
        }
    }

    /// Base learning rate at this scale's batch size. At Paper scale this
    /// is exactly the paper's 0.3 (batch 128). The reduced scales use the
    /// linearly batch-rescaled rate ×2: the sweep DESIGN.md §1 cites shows
    /// that factor places the scaled task in the same mildly-unstable
    /// regime where the paper's staleness effects are visible (×1
    /// under-trains in the reduced epoch budget, ×4 washes the algorithm
    /// differences out).
    pub fn cifar_lr(self) -> f32 {
        match self {
            Scale::Paper => 0.3,
            s => 2.0 * 0.3 * s.batch_size() as f32 / 128.0,
        }
    }

    /// Mini-batch size (paper: 128).
    pub fn batch_size(self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 16,
            Scale::Paper => 128,
        }
    }
}

/// Full configuration of one training run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub algorithm: Algorithm,
    pub bn_mode: BnMode,
    pub compensation: CompensationMode,
    /// Number of workers M (ignored for sequential SGD).
    pub workers: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: LrSchedule,
    /// Compensation strength: LC-ASGD's λ (Formula 5) and DC-ASGD's λ_t
    /// (Formula 3).
    pub lambda: f32,
    /// Async-BN accumulation momentum `d` (Formulas 6–7); also the
    /// worker-local EMA momentum under regular BN.
    pub bn_momentum: f32,
    pub seed: u64,
    pub cluster: ClusterSpec,
    pub cost: CostModel,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// SSGD-only learning-rate multiplier (linear scaling rule). SSGD's
    /// gradient averaging moves the model M× less per data epoch than the
    /// asynchronous algorithms; in the paper's 160-epoch budget that
    /// merely slows SSGD down, but in the reduced-scale epoch budgets it
    /// would leave SSGD unconverged and mask the *generalization* gap the
    /// paper attributes to large effective batches. Defaults to M;
    /// set to 1.0 to reproduce the paper's literal setting.
    pub ssgd_lr_scale: f32,
    /// Cap on train-set examples used for the per-epoch train-error curve.
    pub max_eval_train: usize,
    /// Record per-iteration predictor traces (Figures 7–8). Costs memory.
    pub record_traces: bool,
    /// Shared (paper) or per-worker-sharded training data (the paper's
    /// future-work extension).
    pub partition: DataPartition,
}

impl ExperimentConfig {
    /// A sane default configuration for the given algorithm and worker
    /// count at the given scale, CIFAR-like costs.
    pub fn new(algorithm: Algorithm, workers: usize, scale: Scale, seed: u64) -> Self {
        let epochs = scale.cifar_epochs();
        let batch = scale.batch_size();
        ExperimentConfig {
            algorithm,
            bn_mode: BnMode::Async,
            compensation: CompensationMode::Relative,
            workers,
            epochs,
            batch_size: batch,
            // The paper's LR recipe (0.3 at batch 128, /10 at 50%/75%),
            // batch-rescaled at the reduced scales — see [`Scale::cifar_lr`].
            lr: LrSchedule::paper_step(scale.cifar_lr(), epochs),
            lambda: 0.5,
            bn_momentum: 0.1,
            seed,
            cluster: ClusterSpec::heterogeneous(workers.max(1), seed),
            cost: CostModel::cifar(),
            ssgd_lr_scale: workers.max(1) as f32,
            eval_batch: 64,
            max_eval_train: 512,
            record_traces: false,
            partition: DataPartition::Shared,
        }
    }

    /// Switches to ImageNet-like epochs/costs (ResNet recipe: base LR 0.1
    /// at batch 128, /10 at 50%/75%).
    pub fn imagenet(mut self, scale: Scale) -> Self {
        self.epochs = scale.imagenet_epochs();
        let base = match scale {
            Scale::Paper => 0.1,
            s => 2.0 * 0.1 * s.batch_size() as f32 / 128.0,
        };
        self.lr = LrSchedule::paper_step(base, self.epochs);
        self.cost = CostModel::imagenet();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_models_match_paper_tables() {
        assert!((CostModel::cifar().iteration() - 0.032).abs() < 1e-9);
        assert!((CostModel::imagenet().iteration() - 0.183).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_matches_paper_hyperparams() {
        assert_eq!(Scale::Paper.cifar_epochs(), 160);
        assert_eq!(Scale::Paper.imagenet_epochs(), 120);
        assert_eq!(Scale::Paper.batch_size(), 128);
        assert_eq!(Scale::Paper.cifar_train_per_class(), 5000);
        let cfg = ExperimentConfig::new(Algorithm::LcAsgd, 4, Scale::Paper, 0);
        assert_eq!(cfg.lr.milestones, vec![80, 120]);
        assert!((cfg.lr.base - 0.3).abs() < 1e-7);
    }

    #[test]
    fn cluster_size_tracks_workers() {
        let cfg = ExperimentConfig::new(Algorithm::Asgd, 16, Scale::Tiny, 3);
        assert_eq!(cfg.cluster.num_workers(), 16);
    }

    #[test]
    fn imagenet_switch_updates_epochs_and_costs() {
        let cfg = ExperimentConfig::new(Algorithm::Ssgd, 8, Scale::Small, 1).imagenet(Scale::Small);
        assert_eq!(cfg.epochs, Scale::Small.imagenet_epochs());
        assert!((cfg.cost.iteration() - 0.183).abs() < 1e-9);
    }
}
