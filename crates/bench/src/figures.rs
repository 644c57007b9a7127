//! Figure runners: regenerate each figure of the paper's evaluation as
//! plain-text series (one column per curve).

use crate::render::{series_table, sparkline};
use crate::Scenario;
use lcasgd_core::algorithms::Algorithm;
use lcasgd_core::metrics::RunResult;
use lcasgd_core::trainer::run_experiment;
use lcasgd_tensor::Rng;

/// A set of runs sharing a panel (same M, same dataset).
pub struct CurveSet {
    pub title: String,
    pub runs: Vec<RunResult>,
}

impl CurveSet {
    /// Renders train+test error against epochs (Figures 2, 3 and 5).
    pub fn render_by_epoch(&self) -> String {
        let xs: Vec<f64> = self.longest_epochs().iter().map(|&e| e as f64).collect();
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for r in &self.runs {
            series.push((
                format!("{} train", short(&r.label)),
                r.epochs.iter().map(|e| e.train_error as f64).collect(),
            ));
            series.push((
                format!("{} test", short(&r.label)),
                r.epochs.iter().map(|e| e.test_error as f64).collect(),
            ));
        }
        let named: Vec<(&str, Vec<f64>)> =
            series.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let mut out = series_table(&format!("{} (by epoch)", self.title), "epoch", &xs, &named);
        out.push('\n');
        for r in &self.runs {
            let ys: Vec<f64> = r.epochs.iter().map(|e| e.test_error as f64).collect();
            out.push_str(&format!("{:>10} test {}\n", short(&r.label), sparkline(&ys)));
        }
        out
    }

    /// Renders error against elapsed seconds (Figures 4 and 6) — each
    /// curve carries its own time axis, so rows print per run. The axis is
    /// labelled with the runs' clock domain: the simulator reports
    /// *virtual* seconds, real backends wall seconds
    /// ([`RunResult::clock`]).
    pub fn render_by_time(&self) -> String {
        let clock = self.runs.first().map(|r| r.clock).unwrap_or_default();
        let mut out = format!("== {} (by {clock}-clock seconds) ==\n", self.title);
        // Convergence-speed crossover: seconds to reach 2× the panel's
        // best final error — the quantity Figure 4/6 plots answer.
        let best_final =
            self.runs.iter().map(|r| r.final_test_error()).fold(f32::INFINITY, f32::min);
        let threshold = (best_final * 2.0).max(best_final + 0.01);
        for r in &self.runs {
            let reach = r
                .time_to_error(threshold)
                .map(|t| format!("{t:.1}s"))
                .unwrap_or_else(|| "never".into());
            out.push_str(&format!(
                "{:>10}: total {:>8.1}s  ({} updates, {:.1} ms/update, reaches {:.1}% err at {})\n",
                short(&r.label),
                r.total_time,
                r.iterations,
                r.avg_iteration_ms(),
                threshold * 100.0,
                reach
            ));
        }
        for r in &self.runs {
            let xs: Vec<f64> = r.epochs.iter().map(|e| e.time).collect();
            let train: Vec<f64> = r.epochs.iter().map(|e| e.train_error as f64).collect();
            let test: Vec<f64> = r.epochs.iter().map(|e| e.test_error as f64).collect();
            out.push_str(&series_table(
                &format!("{} vs time", short(&r.label)),
                &format!("{}-s", r.clock),
                &xs,
                &[("train_err", train), ("test_err", test)],
            ));
        }
        out
    }

    fn longest_epochs(&self) -> Vec<usize> {
        let n = self.runs.iter().map(|r| r.epochs.len()).max().unwrap_or(0);
        (1..=n).collect()
    }
}

fn short(label: &str) -> String {
    label.split(' ').next().unwrap_or(label).to_string()
}

/// Figure 2: DC-ASGD's test error rises with the worker count
/// (ResNet-18 / CIFAR-10), against the sequential-SGD reference.
pub fn fig2(scenario: &Scenario, seed: u64) -> CurveSet {
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let mut runs = Vec::new();
    let cfg = scenario.config(Algorithm::Sgd, 1, seed);
    runs.push(run_experiment(&cfg, &build, &scenario.train, &scenario.test));
    for m in [4usize, 8, 16] {
        let cfg = scenario.config(Algorithm::DcAsgd, m, seed);
        let mut r = run_experiment(&cfg, &build, &scenario.train, &scenario.test);
        r.label = format!("DC-ASGD-{m}");
        runs.push(r);
    }
    CurveSet { title: format!("Figure 2: DC-ASGD degradation on {}", scenario.name()), runs }
}

/// One panel of Figures 3–4 (CIFAR) or 5–6 (ImageNet): every algorithm at
/// a fixed worker count. `include_sgd` adds the sequential reference
/// (present in Figure 3, absent in Figure 5).
pub fn panel(scenario: &Scenario, workers: usize, include_sgd: bool, seed: u64) -> CurveSet {
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let mut runs = Vec::new();
    if include_sgd {
        let cfg = scenario.config(Algorithm::Sgd, 1, seed);
        runs.push(run_experiment(&cfg, &build, &scenario.train, &scenario.test));
    }
    for algo in Algorithm::DISTRIBUTED {
        let cfg = scenario.config(algo, workers, seed);
        runs.push(run_experiment(&cfg, &build, &scenario.train, &scenario.test));
    }
    CurveSet { title: format!("{} with Async-BN, M = {workers}", scenario.name()), runs }
}

/// Figures 7–8: the predictor traces from one LC-ASGD run with `workers`
/// workers. Returns `(loss-predictor table, step-predictor table)`.
pub fn fig7_8(scenario: &Scenario, workers: usize, seed: u64) -> (String, String) {
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let mut cfg = scenario.config(Algorithm::LcAsgd, workers, seed);
    cfg.record_traces = true;
    let r = run_experiment(&cfg, &build, &scenario.train, &scenario.test);
    let t = r.trace.expect("traces were requested");

    // Figure 7 shows a window of ~80 iterations once the predictor has
    // warmed up.
    let window = 80usize;
    let start = t.actual_loss.len().saturating_sub(window);
    let xs: Vec<f64> = (start..t.actual_loss.len()).map(|i| i as f64).collect();
    let actual: Vec<f64> = t.actual_loss[start..].iter().map(|&v| v as f64).collect();
    let pred: Vec<f64> = t.predicted_loss[start..].iter().map(|&v| v as f64).collect();
    let mut fig7 = series_table(
        &format!("Figure 7: loss predictor, {} workers, {}", workers, scenario.name()),
        "iteration",
        &xs,
        &[("Loss", actual), ("Loss Predictor", pred)],
    );
    fig7.push_str(&format!("one-step MAE over full run: {:.4}\n", t.loss_mae()));

    let start = t.actual_step.len().saturating_sub(window);
    let xs: Vec<f64> = (start..t.actual_step.len()).map(|i| i as f64).collect();
    let actual: Vec<f64> = t.actual_step[start..].iter().map(|&v| v as f64).collect();
    let pred: Vec<f64> = t.predicted_step[start..].iter().map(|&v| v as f64).collect();
    let mut fig8 = series_table(
        &format!("Figure 8: step predictor, {} workers, {}", workers, scenario.name()),
        "iteration",
        &xs,
        &[("Actual k", actual), ("Step Predictor", pred)],
    );
    fig8.push_str(&format!("step MAE over full run: {:.3}\n", t.step_mae()));
    (fig7, fig8)
}
