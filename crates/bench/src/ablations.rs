//! Ablation runners: the two questions the paper leaves to the
//! reproduction — which reading of Formula 5 (DESIGN.md §1), and how wide
//! a predictor (§5.4: "there is a trade-off between the complexity and the
//! accuracy when designing the prediction model").

use crate::render::{pct, table};
use crate::Scenario;
use lcasgd_core::algorithms::Algorithm;
use lcasgd_core::compensation::CompensationMode;
use lcasgd_core::predictor::{LossPredictor, StepPredictor};
use lcasgd_core::trainer::run_experiment;
use lcasgd_tensor::Rng;

/// LC-ASGD at M = 16 under each [`CompensationMode`], with the scenario's
/// own epoch budget: final train loss and test error per reading of
/// Formula 5.
pub fn compensation(scenario: &Scenario, seed: u64) -> String {
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let rows: Vec<Vec<String>> =
        [CompensationMode::Literal, CompensationMode::Relative, CompensationMode::Off]
            .into_iter()
            .map(|comp| {
                let mut cfg = scenario.config(Algorithm::LcAsgd, 16, seed);
                cfg.compensation = comp;
                let r = run_experiment(&cfg, &build, &scenario.train, &scenario.test);
                let loss = r.epochs.last().map_or(f32::NAN, |e| e.train_loss);
                vec![comp.name().to_string(), format!("{loss:.4}"), pct(r.final_test_error())]
            })
            .collect();
    table(
        &format!("Ablation ({}): Formula 5 reading, LC-ASGD at M = 16", scenario.name()),
        &["Compensation", "Final train loss", "Test err (%)"],
        &rows,
    )
}

/// Online calls per predictor in [`predictor_width`].
const CALLS: usize = 300;

/// Sweeps the hidden width of both LSTM predictors. Accuracy: the loss
/// predictor's one-step tracking error (MAE) over the last 100 of
/// `CALLS` losses of a decaying curve. Cost: measured milliseconds per
/// `observe_and_predict` call of each predictor.
pub fn predictor_width() -> String {
    let rows: Vec<Vec<String>> = [16usize, 32, 64, 128]
        .into_iter()
        .map(|hidden| {
            let mut loss = LossPredictor::with_hidden(hidden, &mut Rng::seed_from_u64(11));
            let mut err = 0.0f32;
            let mut count = 0;
            for i in 0..CALLS {
                let actual = 2.0 * (-(i as f32) / 150.0).exp() + 0.5;
                if i >= CALLS - 100 {
                    if let Some(f) = loss.pending_forecast() {
                        err += (f - actual).abs();
                        count += 1;
                    }
                }
                loss.observe_and_predict(actual, 4);
            }
            let mut step = StepPredictor::with_hidden(8, hidden, &mut Rng::seed_from_u64(13));
            for i in 0..CALLS {
                step.observe_and_predict(i % 8, 7.0, 0.002, 0.03);
            }
            vec![
                hidden.to_string(),
                format!("{:.4}", err / count as f32),
                format!("{:.3}", loss.elapsed_ms / CALLS as f64),
                format!("{:.3}", step.elapsed_ms / CALLS as f64),
            ]
        })
        .collect();
    table(
        "Ablation: predictor LSTM hidden width (paper: 64 loss, 128 step)",
        &["Hidden", "Late loss MAE", "Loss Pred. (ms/call)", "Step Pred. (ms/call)"],
        &rows,
    )
}
