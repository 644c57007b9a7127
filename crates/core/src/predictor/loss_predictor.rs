//! The loss predictor (paper Algorithm 3).
//!
//! A 2-layer LSTM (hidden 64) + linear head models the sequence of loss
//! values arriving at the server as a time series. It is trained *online*:
//! every arriving loss `ℓ_m` acts as the label for the previous value
//! `ℓ_t`, then the model is rolled `k` steps into the future (feeding each
//! prediction back as the next input) and the `k` predictions are summed
//! into `ℓ_delay` (Formula 9).
//!
//! All CPU time spent here is accumulated in [`LossPredictor::elapsed_ms`]
//! so the trainer can charge it to the simulated server — that measured
//! time is what Tables 2–3 report.

use lcasgd_nn::lstm::{Lstm, LstmState};
use lcasgd_tensor::{Rng, Tensor};
use std::time::Instant;

/// Output of one [`LossPredictor::observe_and_predict`] call.
#[derive(Clone, Copy, Debug)]
pub struct LossPrediction {
    /// Summed predicted loss over the next `k` steps (Formula 9's
    /// `ℓ_delay`). Zero when `k == 0`.
    pub l_delay: f32,
    /// The model's forecast of the *next* arriving loss — compared against
    /// the actual next arrival to produce Figure 7's curves.
    pub one_step: f32,
}

/// Serializable state of a [`LossPredictor`]: model weights in
/// [`Lstm::flat_params`] order, per-layer `(h, c)` recurrent state, and
/// the online-training bookkeeping. The building block for the full
/// training checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct LossPredictorSnapshot {
    pub params: Vec<f32>,
    pub state: Vec<(Vec<f32>, Vec<f32>)>,
    pub last_loss: Option<f32>,
    pub next_forecast: Option<f32>,
    pub train_steps: u64,
}

/// Online LSTM loss forecaster.
pub struct LossPredictor {
    lstm: Lstm,
    /// State after consuming every loss up to (but not including) the most
    /// recent one.
    state: LstmState,
    /// The most recent loss (`ℓ_t` in Algorithm 3).
    last_loss: Option<f32>,
    /// Forecast of the next arrival, cached for trace comparison.
    next_forecast: Option<f32>,
    /// The rollout's forecasts, kept so a call allocates nothing.
    preds: Vec<f32>,
    /// Online SGD learning rate.
    pub lr: f32,
    /// Accumulated measured CPU milliseconds.
    pub elapsed_ms: f64,
    /// Online training steps taken.
    pub train_steps: u64,
}

impl LossPredictor {
    /// Paper configuration: hidden size 64, two LSTM layers.
    pub fn new(rng: &mut Rng) -> Self {
        Self::with_hidden(64, rng)
    }

    /// Custom hidden width (the overhead ablation sweeps this).
    pub fn with_hidden(hidden: usize, rng: &mut Rng) -> Self {
        let lstm = Lstm::new(1, hidden, 2, 1, rng);
        let state = lstm.zero_state();
        LossPredictor {
            lstm,
            state,
            last_loss: None,
            next_forecast: None,
            preds: Vec::new(),
            lr: 0.02,
            elapsed_ms: 0.0,
            train_steps: 0,
        }
    }

    /// The forecast the model previously made for the value that is about
    /// to arrive (None until two losses have been seen).
    pub fn pending_forecast(&self) -> Option<f32> {
        self.next_forecast
    }

    /// Captures everything needed to resume this predictor exactly where
    /// it left off: model weights, recurrent state, and the online
    /// training bookkeeping.
    pub fn snapshot(&self) -> LossPredictorSnapshot {
        LossPredictorSnapshot {
            params: self.lstm.flat_params(),
            state: self
                .state
                .layers
                .iter()
                .map(|(h, c)| (h.data().to_vec(), c.data().to_vec()))
                .collect(),
            last_loss: self.last_loss,
            next_forecast: self.next_forecast,
            train_steps: self.train_steps,
        }
    }

    /// Installs a snapshot into an identically configured predictor (same
    /// hidden width/layer count). Panics on an architecture mismatch.
    pub fn restore(&mut self, snap: &LossPredictorSnapshot) {
        self.lstm.set_flat_params(&snap.params);
        assert_eq!(snap.state.len(), self.state.layers.len(), "LSTM layer count mismatch");
        let hidden = self.lstm.hidden();
        self.state = LstmState {
            layers: snap
                .state
                .iter()
                .map(|(h, c)| {
                    (
                        Tensor::from_vec(h.clone(), &[1, hidden]),
                        Tensor::from_vec(c.clone(), &[1, hidden]),
                    )
                })
                .collect(),
        };
        self.last_loss = snap.last_loss;
        self.next_forecast = snap.next_forecast;
        self.train_steps = snap.train_steps;
    }

    /// Algorithm 3: consume the arriving loss `ℓ_m`, train online on
    /// `(ℓ_t → ℓ_m)`, then forecast the next `k` losses and return their
    /// sum.
    pub fn observe_and_predict(&mut self, loss_m: f32, k: usize) -> LossPrediction {
        let t0 = Instant::now();

        // Line 1: train lossPred with (data = ℓ_t, label = ℓ_m).
        if let Some(prev) = self.last_loss {
            self.lstm.train_step(&[prev], &[loss_m], &mut self.state, self.lr);
            self.train_steps += 1;
        }

        // Line 2–3: roll `k` steps from ℓ_m and sum the predictions.
        self.lstm.rollout(&[loss_m], &self.state, k.max(1), &mut self.preds);
        let one_step = self.preds[0];
        let l_delay: f32 = if k == 0 { 0.0 } else { self.preds.iter().sum() };

        // Line 4: ℓ_t = ℓ_m.
        self.last_loss = Some(loss_m);
        self.next_forecast = Some(one_step);

        self.elapsed_ms += t0.elapsed().as_secs_f64() * 1e3;
        LossPrediction { l_delay, one_step }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_then_predict_constant_series() {
        let mut rng = Rng::seed_from_u64(201);
        let mut p = LossPredictor::with_hidden(16, &mut rng);
        let mut last = LossPrediction { l_delay: 0.0, one_step: 0.0 };
        for _ in 0..300 {
            last = p.observe_and_predict(1.5, 1);
        }
        assert!((last.one_step - 1.5).abs() < 0.1, "one-step {}", last.one_step);
        assert!((last.l_delay - 1.5).abs() < 0.1, "l_delay {}", last.l_delay);
    }

    #[test]
    fn l_delay_scales_with_horizon_on_flat_series() {
        let mut rng = Rng::seed_from_u64(202);
        let mut p = LossPredictor::with_hidden(16, &mut rng);
        for _ in 0..300 {
            p.observe_and_predict(2.0, 1);
        }
        let k4 = p.observe_and_predict(2.0, 4);
        // Four future predictions of ≈2.0 each.
        assert!((k4.l_delay - 8.0).abs() < 1.0, "l_delay {}", k4.l_delay);
    }

    #[test]
    fn k_zero_gives_zero_delay() {
        let mut rng = Rng::seed_from_u64(203);
        let mut p = LossPredictor::with_hidden(8, &mut rng);
        let out = p.observe_and_predict(1.0, 0);
        assert_eq!(out.l_delay, 0.0);
    }

    #[test]
    fn tracks_decreasing_series_like_figure7() {
        // Figure 7's regime: a slowly decaying loss around 3.15. The
        // one-step forecasts should hug the actual values after warm-up.
        let mut rng = Rng::seed_from_u64(204);
        let mut p = LossPredictor::with_hidden(32, &mut rng);
        let series: Vec<f32> = (0..400).map(|i| 3.176 - 0.0001 * i as f32).collect();
        let mut errs = Vec::new();
        for &l in &series {
            if let Some(f) = p.pending_forecast() {
                errs.push((f - l).abs());
            }
            p.observe_and_predict(l, 2);
        }
        let late = &errs[errs.len() - 50..];
        let mae: f32 = late.iter().sum::<f32>() / late.len() as f32;
        assert!(mae < 0.05, "late one-step MAE {mae}");
    }

    #[test]
    fn measures_elapsed_time() {
        let mut rng = Rng::seed_from_u64(205);
        let mut p = LossPredictor::with_hidden(8, &mut rng);
        p.observe_and_predict(1.0, 2);
        p.observe_and_predict(0.9, 2);
        assert!(p.elapsed_ms > 0.0);
        assert_eq!(p.train_steps, 1); // first call has no (ℓt, ℓm) pair yet
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;

    #[test]
    fn no_forecast_before_first_observation() {
        let mut rng = Rng::seed_from_u64(221);
        let p = LossPredictor::with_hidden(8, &mut rng);
        assert!(p.pending_forecast().is_none());
    }

    #[test]
    fn first_observation_trains_nothing_but_forecasts() {
        let mut rng = Rng::seed_from_u64(222);
        let mut p = LossPredictor::with_hidden(8, &mut rng);
        let out = p.observe_and_predict(1.0, 3);
        assert_eq!(p.train_steps, 0);
        assert!(p.pending_forecast().is_some());
        assert!(out.l_delay.is_finite());
    }

    #[test]
    fn forecasts_stay_finite_under_extreme_losses() {
        let mut rng = Rng::seed_from_u64(223);
        let mut p = LossPredictor::with_hidden(8, &mut rng);
        for &l in &[1e4f32, 0.0, 1e-8, 500.0, 2.0] {
            let out = p.observe_and_predict(l, 8);
            assert!(out.l_delay.is_finite(), "l_delay for input {l}");
            assert!(out.one_step.is_finite());
        }
    }
}
