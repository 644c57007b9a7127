//! Cross-validation of the discrete-event simulator against the
//! real-thread backend: both run the same ASGD protocol; the organic
//! staleness from OS scheduling should look like the simulated one, and
//! both should converge.

use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::prelude::*;

fn task() -> (Dataset, Dataset) {
    blobs_split(4, 6, 30, 12, 0.5, 31)
}

fn cfg(workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Algorithm::Asgd, workers, Scale::Tiny, 17);
    cfg.epochs = 10;
    cfg.batch_size = 10;
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    mlp(&[6, 16, 4], false, rng)
}

#[test]
fn both_backends_converge_on_the_same_task() {
    let (train, test) = task();
    let sim = run_experiment(&cfg(4), &build, &train, &test);
    let threads = run_cluster(ThreadCluster::new(4), &cfg(4), &build, &train, &test).unwrap();
    assert!(sim.final_test_error() < 0.25, "sim err {}", sim.final_test_error());
    assert!(threads.final_test_error() < 0.25, "thread err {}", threads.final_test_error());
}

#[test]
fn staleness_scales_with_worker_count_in_both_backends() {
    let (train, test) = task();
    for backend in ["sim", "threads"] {
        let run = |m: usize| {
            if backend == "sim" {
                run_experiment(&cfg(m), &build, &train, &test)
            } else {
                run_cluster(ThreadCluster::new(m), &cfg(m), &build, &train, &test).unwrap()
            }
        };
        let s2 = run(2).mean_staleness();
        let s8 = run(8).mean_staleness();
        assert!(s8 > s2, "{backend}: staleness should grow with workers ({s2:.2} vs {s8:.2})");
    }
}

#[test]
fn simulated_staleness_mean_matches_theory() {
    // In a near-homogeneous cluster, each of M workers sees roughly M−1
    // other updates per iteration once the pipeline is warm.
    let (train, test) = task();
    let m = 8;
    let r = run_experiment(&cfg(m), &build, &train, &test);
    let mean = r.mean_staleness();
    assert!(
        (mean - (m as f64 - 1.0)).abs() < 2.0,
        "mean staleness {mean:.2} should be near {}",
        m - 1
    );
}

#[test]
fn threaded_staleness_is_nonnegative_and_bounded() {
    let (train, test) = task();
    let r = run_cluster(ThreadCluster::new(4), &cfg(4), &build, &train, &test).unwrap();
    // Every gradient's staleness is well-defined and no worker starves
    // completely (upper bound: nothing should exceed total updates).
    assert!(!r.staleness.is_empty());
    let max = *r.staleness.iter().max().unwrap() as u64;
    assert!(max < r.iterations, "staleness {max} vs iterations {}", r.iterations);
}
