//! Table runners: regenerate the paper's Tables 1–3.

use crate::render::{pct, table};
use crate::{Scenario, ScenarioKind};
use lcasgd_core::algorithms::Algorithm;
use lcasgd_core::bnmode::BnMode;
use lcasgd_core::metrics::RunResult;
use lcasgd_core::trainer::run_experiment;
use lcasgd_tensor::Rng;

/// Table 1 for one dataset: final test error and degradation for
/// `{SGD} ∪ {SSGD, ASGD, DC-ASGD, LC-ASGD} × {4, 8, 16} × {BN, Async-BN}`.
///
/// The degradation baseline matches the paper: sequential SGD on CIFAR-10;
/// SSGD with 4 workers on ImageNet (where sequential training is skipped).
pub fn table1(scenario: &Scenario, seed: u64) -> String {
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let run = |algo: Algorithm, m: usize, bn: BnMode| -> RunResult {
        let mut cfg = scenario.config(algo, m, seed);
        cfg.bn_mode = bn;
        run_experiment(&cfg, &build, &scenario.train, &scenario.test)
    };

    let include_sgd = scenario.kind == ScenarioKind::Cifar;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut baseline: [Option<f32>; 2] = [None, None];

    if include_sgd {
        let mut row = vec!["1".to_string(), "SGD".to_string()];
        for (i, bn) in [BnMode::Regular, BnMode::Async].iter().enumerate() {
            let r = run(Algorithm::Sgd, 1, *bn);
            baseline[i] = Some(r.final_test_error());
            row.push(pct(r.final_test_error()));
            row.push("baseline".into());
        }
        rows.push(row);
    }

    for m in [4usize, 8, 16] {
        for algo in Algorithm::DISTRIBUTED {
            let mut row = vec![m.to_string(), algo.to_string()];
            for (i, bn) in [BnMode::Regular, BnMode::Async].iter().enumerate() {
                let r = run(algo, m, *bn);
                let err = r.final_test_error();
                // ImageNet's baseline is SSGD at M=4 (the first row run).
                if !include_sgd && m == 4 && algo == Algorithm::Ssgd {
                    baseline[i] = Some(err);
                }
                row.push(pct(err));
                match baseline[i] {
                    Some(b) if (err - b).abs() > 1e-9 => {
                        row.push(format!("{:+.2}", (err - b) / b * 100.0))
                    }
                    Some(_) => row.push("baseline".into()),
                    None => row.push("-".into()),
                }
            }
            rows.push(row);
        }
    }

    table(
        &format!("Table 1 ({}): final test error (%) and degradation (%)", scenario.name()),
        &["M", "Algorithm", "BN err", "BN deg", "Async-BN err", "Async-BN deg"],
        &rows,
    )
}

/// Tables 2–3: LC-ASGD predictor overhead per training iteration for
/// M ∈ {4, 8, 16}. The predictor columns are *measured* wall-clock CPU
/// milliseconds; the "Total Training" column is *virtual* milliseconds
/// from the cost model (the run's clock domain — see
/// [`RunResult::clock`]). The cost model is calibrated so a virtual
/// iteration stands in for a real one, which is what makes the overhead
/// ratio meaningful; the clock domains are named here so the mix is a
/// choice, not an accident.
pub fn table2_3(scenario: &Scenario, seed: u64) -> String {
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let mut rows = Vec::new();
    for m in [4usize, 8, 16] {
        let cfg = scenario.config(Algorithm::LcAsgd, m, seed);
        let r = run_experiment(&cfg, &build, &scenario.train, &scenario.test);
        let o = r.overhead.as_ref().expect("LC-ASGD reports overhead");
        let loss_ms = o.avg_loss_pred_ms();
        let step_ms = o.avg_step_pred_ms();
        // The paper's "Total Training" column is the per-worker iteration
        // latency. `avg_iteration_ms` is server *throughput* (M workers in
        // parallel), so multiply back by M; this includes queueing behind
        // the serialized predictor work, as the paper's measurement does.
        let total_ms = r.avg_iteration_ms() * m as f64;
        rows.push(vec![
            m.to_string(),
            format!("{loss_ms:.2}"),
            format!("{step_ms:.2}"),
            format!("{total_ms:.2}"),
            format!("{:.2}", (loss_ms + step_ms) / total_ms * 100.0),
        ]);
    }
    let id = if scenario.kind == ScenarioKind::Cifar {
        "Table 2 (CIFAR-10)"
    } else {
        "Table 3 (ImageNet)"
    };
    table(
        &format!("{id}: average per-iteration predictor time"),
        &[
            "Workers",
            "Loss Pred. (ms)",
            "Step Pred. (ms)",
            "Total Training (virtual ms)",
            "Overhead (%)",
        ],
        &rows,
    )
}
