//! Cross-crate end-to-end tests: synthetic data → ResNet → distributed
//! training on the simulated cluster, through the umbrella crate's public
//! API exactly as a downstream user would drive it.

use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::prelude::*;

fn tiny_image_task() -> (Dataset, Dataset) {
    SyntheticImageSpec::cifar10_like(8, 8, 16, 8).generate()
}

fn cfg(algorithm: Algorithm, workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algorithm, workers, Scale::Tiny, 5);
    cfg.epochs = 6;
    cfg
}

#[test]
fn every_algorithm_trains_a_resnet_end_to_end() {
    let (train, test) = tiny_image_task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    for algorithm in Algorithm::ALL {
        let workers = if algorithm == Algorithm::Sgd { 1 } else { 4 };
        let r = run_experiment(&cfg(algorithm, workers), &build, &train, &test);
        assert_eq!(r.epochs.len(), 6, "{algorithm}: epoch records");
        let first = r.epochs.first().unwrap();
        let last = r.epochs.last().unwrap();
        assert!(
            last.train_error < first.train_error + 0.05,
            "{algorithm}: train error should not grow ({} -> {})",
            first.train_error,
            last.train_error
        );
        assert!(last.train_loss.is_finite(), "{algorithm}: finite loss");
        assert!(r.total_time > 0.0, "{algorithm}: virtual time advanced");
    }
}

#[test]
fn all_algorithms_start_from_identical_weights() {
    // The paper requires "the same randomly initialized model" across
    // algorithms: the builder must be deterministic in the config seed.
    let resnet = ResNetConfig::tiny(3, 10);
    let w1 = resnet.build(&mut Rng::seed_from_u64(5)).flat_params();
    let w2 = resnet.build(&mut Rng::seed_from_u64(5)).flat_params();
    assert_eq!(w1, w2);
}

#[test]
fn full_run_is_bit_reproducible() {
    let (train, test) = tiny_image_task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let c = cfg(Algorithm::LcAsgd, 4);
    let a = run_experiment(&c, &build, &train, &test);
    let b = run_experiment(&c, &build, &train, &test);
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.train_error, eb.train_error);
        assert_eq!(ea.test_error, eb.test_error);
        assert_eq!(ea.time, eb.time);
    }
    assert_eq!(a.staleness, b.staleness);
}

#[test]
fn changing_seed_changes_the_run() {
    let (train, test) = tiny_image_task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let mut c1 = cfg(Algorithm::Asgd, 4);
    let mut c2 = cfg(Algorithm::Asgd, 4);
    c1.seed = 1;
    c2.seed = 2;
    let a = run_experiment(&c1, &build, &train, &test);
    let b = run_experiment(&c2, &build, &train, &test);
    assert_ne!(
        a.epochs.last().unwrap().train_loss,
        b.epochs.last().unwrap().train_loss,
        "different seeds should diverge"
    );
}

#[test]
fn asgd_epoch_time_shrinks_with_more_workers() {
    // The throughput scaling that makes ASGD attractive (Figure 4's
    // x-axis compression from M=4 to M=16).
    let (train, test) = tiny_image_task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let t4 = run_experiment(&cfg(Algorithm::Asgd, 4), &build, &train, &test).total_time;
    let t16 = run_experiment(&cfg(Algorithm::Asgd, 16), &build, &train, &test).total_time;
    assert!(
        t16 < t4 / 2.0,
        "16 workers should be at least 2x faster than 4 (got {t4:.1}s vs {t16:.1}s)"
    );
}

#[test]
fn lc_asgd_pays_predictor_overhead_in_virtual_time() {
    let (train, test) = tiny_image_task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let asgd = run_experiment(&cfg(Algorithm::Asgd, 16), &build, &train, &test);
    let lc = run_experiment(&cfg(Algorithm::LcAsgd, 16), &build, &train, &test);
    assert!(
        lc.total_time > asgd.total_time,
        "LC-ASGD's serialized predictor work must cost virtual time ({:.2}s vs {:.2}s)",
        lc.total_time,
        asgd.total_time
    );
}

/// LC-ASGD on the simulator is a pure function of its configuration: the
/// step predictor's `t_comm` / `t_comp` come from the worker's virtual
/// clock, so every run trains the same loss bits.
#[test]
fn lc_asgd_on_the_simulator_trains_one_loss_stream() {
    use lc_asgd::simcluster::{ClusterSim, SimPayload};
    use std::collections::HashSet;
    let (train, test) = tiny_image_task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    for workers in [4, 8] {
        let mut c = cfg(Algorithm::LcAsgd, workers);
        c.epochs = 4;
        let streams: HashSet<Vec<u32>> = (0..20)
            .map(|_| {
                let sim: ClusterSim<SimPayload> = ClusterSim::new(c.cluster.clone());
                let r = run_cluster(sim, &c, &build, &train, &test).expect("simulated run");
                r.epochs.iter().map(|e| e.train_loss.to_bits()).collect()
            })
            .collect();
        assert_eq!(streams.len(), 1, "M = {workers}: distinct train-loss streams in 20 runs");
    }
}
