//! The step predictor (paper Algorithm 4).
//!
//! Forecasts `k_m`: how many other workers will commit updates while
//! worker `m` runs its local computation. Input is multivariate — the
//! worker's previous step count, its communication cost `t_comm`, and its
//! computation cost `t_comp` — because the step count depends on system
//! state ("computing capacity of each worker, the network quality…").
//!
//! One LSTM (2 layers, hidden 128) is shared across workers; each worker
//! keeps its own recurrent state so its series stays coherent. Inputs are
//! normalized (steps by the worker count, times by a running mean) to keep
//! the online optimization well-conditioned.

use lcasgd_nn::lstm::{Lstm, LstmState};
use lcasgd_tensor::{Rng, Tensor};
use std::time::Instant;

struct WorkerStream {
    state: LstmState,
    /// Previous observation `(step, t_comm, t_comp)` — the training input
    /// when the next actual step arrives.
    prev: Option<[f32; 3]>,
}

/// One worker's serialized stream: per-layer `(h, c)` recurrent state and
/// the previous normalized observation, if any.
pub type StreamSnapshot = (Vec<(Vec<f32>, Vec<f32>)>, Option<[f32; 3]>);

/// Serializable state of a [`StepPredictor`]: shared model weights, one
/// `(recurrent state, previous observation)` pair per worker, and the
/// input-normalization running means.
#[derive(Clone, Debug, PartialEq)]
pub struct StepPredictorSnapshot {
    pub params: Vec<f32>,
    pub streams: Vec<StreamSnapshot>,
    pub comm_scale: f64,
    pub comp_scale: f64,
    pub samples: u64,
    pub train_steps: u64,
}

/// Online multivariate LSTM staleness forecaster.
pub struct StepPredictor {
    lstm: Lstm,
    streams: Vec<WorkerStream>,
    num_workers: usize,
    /// Running mean of t_comm / t_comp used for input normalization.
    comm_scale: f64,
    comp_scale: f64,
    samples: u64,
    /// Online SGD learning rate.
    pub lr: f32,
    /// Accumulated measured CPU milliseconds.
    pub elapsed_ms: f64,
    /// Online training steps taken.
    pub train_steps: u64,
}

impl StepPredictor {
    /// Paper configuration: hidden 128, two LSTM layers.
    pub fn new(num_workers: usize, rng: &mut Rng) -> Self {
        Self::with_hidden(num_workers, 128, rng)
    }

    /// Custom hidden width (overhead ablation).
    pub fn with_hidden(num_workers: usize, hidden: usize, rng: &mut Rng) -> Self {
        let lstm = Lstm::new(3, hidden, 2, 1, rng);
        let streams = (0..num_workers)
            .map(|_| WorkerStream { state: lstm.zero_state(), prev: None })
            .collect();
        StepPredictor {
            lstm,
            streams,
            num_workers,
            comm_scale: 0.0,
            comp_scale: 0.0,
            samples: 0,
            lr: 0.02,
            elapsed_ms: 0.0,
            train_steps: 0,
        }
    }

    fn normalize(&self, step: f32, t_comm: f32, t_comp: f32) -> [f32; 3] {
        let m = self.num_workers.max(1) as f32;
        let cs = if self.comm_scale > 0.0 { self.comm_scale as f32 } else { 1.0 };
        let ps = if self.comp_scale > 0.0 { self.comp_scale as f32 } else { 1.0 };
        [step / m, t_comm / cs, t_comp / ps]
    }

    fn update_scales(&mut self, t_comm: f32, t_comp: f32) {
        self.samples += 1;
        let a = 1.0 / self.samples.min(100) as f64;
        self.comm_scale = (1.0 - a) * self.comm_scale + a * t_comm.max(1e-9) as f64;
        self.comp_scale = (1.0 - a) * self.comp_scale + a * t_comp.max(1e-9) as f64;
    }

    /// Algorithm 4: worker `m` reports its newest `(t_comm, t_comp)` and
    /// the *actual* step count of its just-finished iteration (derived
    /// from the server's `iter` list). Trains on the previous observation
    /// → actual step, then forecasts the step count of the iteration now
    /// starting. The forecast is clamped to `[0, 4·M]`.
    pub fn observe_and_predict(
        &mut self,
        m: usize,
        actual_step: f32,
        t_comm: f32,
        t_comp: f32,
    ) -> f32 {
        let t0 = Instant::now();
        self.update_scales(t_comm, t_comp);
        let mw = self.num_workers.max(1) as f32;

        // Line 2: train stepPred with (prev observation → actual step).
        let stream = &mut self.streams[m];
        if let Some(prev) = stream.prev {
            self.lstm.train_step(&prev, &[actual_step / mw], &mut stream.state, self.lr);
            self.train_steps += 1;
        }

        // Line 3: forecast the next step from the current observation.
        let cur = self.normalize(actual_step, t_comm, t_comp);
        let stream = &mut self.streams[m];
        let pred = self.lstm.predict(&cur, &stream.state)[0];
        // Line 4: remember the current observation for the next round.
        stream.prev = Some(cur);

        self.elapsed_ms += t0.elapsed().as_secs_f64() * 1e3;
        (pred * mw).clamp(0.0, 4.0 * mw)
    }

    /// Number of workers this predictor serves.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Forgets worker `m`'s series: zero recurrent state, no previous
    /// observation. Called when a crashed worker rejoins — its old series
    /// describes a process that no longer exists, so the shared model
    /// restarts that stream from scratch (the shared weights are kept;
    /// they encode cluster-wide dynamics, not one incarnation's).
    pub fn reset_worker(&mut self, m: usize) {
        self.streams[m] = WorkerStream { state: self.lstm.zero_state(), prev: None };
    }

    /// Captures everything needed to resume this predictor exactly where
    /// it left off.
    pub fn snapshot(&self) -> StepPredictorSnapshot {
        StepPredictorSnapshot {
            params: self.lstm.flat_params(),
            streams: self
                .streams
                .iter()
                .map(|s| {
                    let layers = s
                        .state
                        .layers
                        .iter()
                        .map(|(h, c)| (h.data().to_vec(), c.data().to_vec()))
                        .collect();
                    (layers, s.prev)
                })
                .collect(),
            comm_scale: self.comm_scale,
            comp_scale: self.comp_scale,
            samples: self.samples,
            train_steps: self.train_steps,
        }
    }

    /// Installs a snapshot into an identically configured predictor (same
    /// hidden width, layer count and worker count). Panics on a mismatch.
    pub fn restore(&mut self, snap: &StepPredictorSnapshot) {
        self.lstm.set_flat_params(&snap.params);
        assert_eq!(snap.streams.len(), self.num_workers, "worker count mismatch");
        let hidden = self.lstm.hidden();
        self.streams = snap
            .streams
            .iter()
            .map(|(layers, prev)| WorkerStream {
                state: LstmState {
                    layers: layers
                        .iter()
                        .map(|(h, c)| {
                            (
                                Tensor::from_vec(h.clone(), &[1, hidden]),
                                Tensor::from_vec(c.clone(), &[1, hidden]),
                            )
                        })
                        .collect(),
                },
                prev: *prev,
            })
            .collect();
        self.comm_scale = snap.comm_scale;
        self.comp_scale = snap.comp_scale;
        self.samples = snap.samples;
        self.train_steps = snap.train_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_constant_staleness() {
        // In a homogeneous cluster every worker sees k ≈ M−1. The
        // predictor must converge to that.
        let mut rng = Rng::seed_from_u64(211);
        let m = 4;
        let mut p = StepPredictor::with_hidden(m, 16, &mut rng);
        let mut last = 0.0;
        for _ in 0..200 {
            for w in 0..m {
                last = p.observe_and_predict(w, (m - 1) as f32, 0.002, 0.03);
            }
        }
        assert!((last - 3.0).abs() < 0.6, "prediction {last}");
    }

    #[test]
    fn distinguishes_fast_and_slow_workers() {
        // Worker 0 is slow (sees high staleness 6), worker 1 is fast
        // (staleness 1). The shared model with per-worker state must keep
        // the two series apart.
        let mut rng = Rng::seed_from_u64(212);
        let mut p = StepPredictor::with_hidden(4, 24, &mut rng);
        let (mut p0, mut p1) = (0.0, 0.0);
        for _ in 0..400 {
            p0 = p.observe_and_predict(0, 6.0, 0.002, 0.08);
            p1 = p.observe_and_predict(1, 1.0, 0.002, 0.01);
        }
        assert!(p0 > p1 + 2.0, "slow {p0} vs fast {p1}");
    }

    #[test]
    fn prediction_clamped_to_sane_range() {
        let mut rng = Rng::seed_from_u64(213);
        let mut p = StepPredictor::with_hidden(4, 8, &mut rng);
        for _ in 0..20 {
            let k = p.observe_and_predict(0, 1e6, 1.0, 1.0);
            assert!((0.0..=16.0).contains(&k));
        }
    }

    #[test]
    fn elapsed_time_measured() {
        let mut rng = Rng::seed_from_u64(214);
        let mut p = StepPredictor::with_hidden(2, 8, &mut rng);
        p.observe_and_predict(0, 1.0, 0.001, 0.01);
        p.observe_and_predict(0, 1.0, 0.001, 0.01);
        assert!(p.elapsed_ms > 0.0);
        assert_eq!(p.train_steps, 1);
    }
}
