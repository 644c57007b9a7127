//! Run results: everything the figure/table harnesses consume.

use crate::supervisor::HealthReport;
use crate::trace::TraceLog;
use lcasgd_simcluster::{ClockDomain, FaultKind, FaultRecord, TransportStats};

/// One row of a learning curve (Figures 3–6 plot these).
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Seconds at the end of the epoch, measured on the run's clock —
    /// virtual seconds on the simulator, monotonic wall seconds on the
    /// thread/TCP backends. [`RunResult::clock`] says which; values from
    /// runs in different domains are not comparable.
    pub time: f64,
    /// Error rate on the (sub-sampled) training set, eval mode.
    pub train_error: f32,
    /// Error rate on the held-out test set.
    pub test_error: f32,
    /// Mean training loss observed during the epoch (online, train mode).
    pub train_loss: f32,
    /// Learning rate in effect during the epoch.
    pub lr: f32,
}

/// Per-iteration predictor traces (Figures 7–8).
#[derive(Clone, Debug, Default)]
pub struct PredictorTrace {
    /// Actual loss values arriving at the server, in arrival order.
    pub actual_loss: Vec<f32>,
    /// The loss predictor's one-step-ahead forecast for each arrival
    /// (made *before* the actual value arrived).
    pub predicted_loss: Vec<f32>,
    /// Actual per-iteration staleness of each gradient (k_m).
    pub actual_step: Vec<f32>,
    /// The step predictor's forecast of that staleness.
    pub predicted_step: Vec<f32>,
    /// Worker rank finishing at each iteration (Figure 8's brown curve).
    pub finish_order: Vec<usize>,
}

impl PredictorTrace {
    /// Mean absolute one-step loss-prediction error.
    pub fn loss_mae(&self) -> f32 {
        mae(&self.actual_loss, &self.predicted_loss)
    }

    /// Mean absolute step-prediction error.
    pub fn step_mae(&self) -> f32 {
        mae(&self.actual_step, &self.predicted_step)
    }
}

fn mae(a: &[f32], b: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32
}

/// Predictor overhead accounting (Tables 2–3). Times are genuinely
/// *measured* CPU milliseconds of this implementation's predictor
/// operations, charged to the simulated server.
#[derive(Clone, Debug, Default)]
pub struct OverheadStats {
    /// Total loss-predictor CPU milliseconds.
    pub loss_pred_ms: f64,
    /// Total step-predictor CPU milliseconds.
    pub step_pred_ms: f64,
    /// Number of server iterations (gradient applications).
    pub iterations: u64,
}

impl OverheadStats {
    /// Average loss-predictor milliseconds per training iteration.
    pub fn avg_loss_pred_ms(&self) -> f64 {
        self.loss_pred_ms / self.iterations.max(1) as f64
    }

    /// Average step-predictor milliseconds per training iteration.
    pub fn avg_step_pred_ms(&self) -> f64 {
        self.step_pred_ms / self.iterations.max(1) as f64
    }
}

/// Fault-injection and recovery accounting for a chaos run (a run driven
/// with a [`FaultPlan`](lcasgd_simcluster::FaultPlan)).
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Everything the plan recorded, in canonical order: injections,
    /// worker restarts, server halts/resumes.
    pub records: Vec<FaultRecord>,
    /// True when the run halted itself at a planned server-restart point
    /// after writing a checkpoint (resume it with
    /// [`RunOptions::resume`](crate::trainer::RunOptions)).
    pub server_halted: bool,
    /// Applied-update count this run resumed from (0 = fresh start).
    pub resumed_at: u64,
}

impl FaultReport {
    /// The report of a run's fault list: whether it halted, and where it
    /// resumed from, are in the records.
    pub fn new(records: Vec<FaultRecord>) -> Self {
        let server_halted = records.iter().any(|r| matches!(r, FaultRecord::ServerHalted { .. }));
        let resumed_at = records.iter().find_map(|r| match r {
            FaultRecord::Resumed { at_update } => Some(*at_update),
            _ => None,
        });
        FaultReport { records, server_halted, resumed_at: resumed_at.unwrap_or(0) }
    }

    /// Scheduled faults that actually fired.
    pub fn injected(&self) -> usize {
        self.records.iter().filter(|r| matches!(r, FaultRecord::Injected { .. })).count()
    }

    /// Worker crashes injected.
    pub fn crashes(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, FaultRecord::Injected { kind: FaultKind::Crash { .. }, .. }))
            .count()
    }

    /// Crashed workers whose processes were restarted and rejoined.
    pub fn worker_restarts(&self) -> usize {
        self.records.iter().filter(|r| matches!(r, FaultRecord::WorkerRestarted { .. })).count()
    }
}

/// Everything produced by one training run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Algorithm / BN labels for table rendering.
    pub label: String,
    pub epochs: Vec<EpochRecord>,
    /// Raw staleness samples (k_m per applied gradient).
    pub staleness: Vec<u32>,
    /// Predictor traces, when the run used LC-ASGD with tracing on.
    pub trace: Option<PredictorTrace>,
    /// Predictor overhead, when the run used LC-ASGD.
    pub overhead: Option<OverheadStats>,
    /// Total gradient applications at the server.
    pub iterations: u64,
    /// Elapsed seconds for the whole run, in [`RunResult::clock`]'s
    /// domain.
    pub total_time: f64,
    /// The clock domain `total_time` and every [`EpochRecord::time`] are
    /// measured in: [`ClockDomain::Virtual`] for the discrete-event
    /// simulator, [`ClockDomain::Wall`] for the thread and TCP backends.
    pub clock: ClockDomain,
    /// Real (monotonic wall-clock) seconds the run took, regardless of
    /// domain: equal to `total_time` on wall-clock backends, and the
    /// host-side execution time of a simulated run otherwise — so both
    /// clocks are recorded where both exist.
    pub wall_time: f64,
    /// Phase-tagged span timeline, when the run was traced (see
    /// [`crate::trace`]); `None` otherwise.
    pub timeline: Option<TraceLog>,
    /// Transport accounting (bytes, round trips, serialization time) of
    /// the [`ClusterBackend`] the run was driven through.
    ///
    /// [`ClusterBackend`]: lcasgd_simcluster::ClusterBackend
    pub transport: Option<TransportStats>,
    /// Fault-injection and recovery accounting when the run carried a
    /// [`FaultPlan`](lcasgd_simcluster::FaultPlan) or recorded a fault or a
    /// recovery without one (a resume, a lost standby, a failed checkpoint
    /// write); `None` for fault-free runs.
    pub faults: Option<FaultReport>,
    /// Health transitions recorded by the training supervisor
    /// ([`crate::supervisor`]); `None` when no supervisor was attached.
    pub health: Option<HealthReport>,
    /// Hot-standby replication accounting
    /// ([`crate::replication::ReplicationReport`]); `None` when the run
    /// had no standby attached.
    pub replication: Option<crate::replication::ReplicationReport>,
    /// Parameter-server shard count the run used (≥ 1).
    pub shards: usize,
}

impl RunResult {
    /// Final test error (the number Table 1 reports).
    pub fn final_test_error(&self) -> f32 {
        self.epochs.last().map(|e| e.test_error).unwrap_or(f32::NAN)
    }

    /// Best (minimum) test error across epochs.
    pub fn best_test_error(&self) -> f32 {
        self.epochs.iter().map(|e| e.test_error).fold(f32::INFINITY, f32::min)
    }

    /// Performance degradation (%) relative to a baseline error, as used
    /// in Table 1: `(err − base)/base · 100`.
    pub fn degradation_vs(&self, baseline_error: f32) -> f32 {
        (self.final_test_error() - baseline_error) / baseline_error * 100.0
    }

    /// Mean staleness of applied gradients.
    pub fn mean_staleness(&self) -> f64 {
        if self.staleness.is_empty() {
            return 0.0;
        }
        self.staleness.iter().map(|&s| s as f64).sum::<f64>() / self.staleness.len() as f64
    }

    /// Staleness histogram up to `max` (last bucket accumulates the tail).
    pub fn staleness_histogram(&self, max: usize) -> Vec<usize> {
        let mut h = vec![0usize; max + 1];
        for &s in &self.staleness {
            h[(s as usize).min(max)] += 1;
        }
        h
    }

    /// Average per-iteration milliseconds, in the run's clock domain.
    pub fn avg_iteration_ms(&self) -> f64 {
        self.total_time * 1e3 / self.iterations.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: usize, test_error: f32) -> EpochRecord {
        EpochRecord {
            epoch,
            time: epoch as f64,
            train_error: 0.1,
            test_error,
            train_loss: 1.0,
            lr: 0.3,
        }
    }

    #[test]
    fn final_and_best_errors() {
        let r = RunResult {
            label: "x".into(),
            epochs: vec![rec(1, 0.5), rec(2, 0.2), rec(3, 0.3)],
            staleness: vec![],
            trace: None,
            overhead: None,
            iterations: 10,
            total_time: 1.0,
            ..RunResult::default()
        };
        assert_eq!(r.final_test_error(), 0.3);
        assert_eq!(r.best_test_error(), 0.2);
    }

    #[test]
    fn degradation_formula_matches_table1() {
        // Paper: SSGD 5.67 vs SGD 5.15 → 10.10%.
        let r = RunResult {
            label: "ssgd".into(),
            epochs: vec![rec(1, 0.0567)],
            staleness: vec![],
            trace: None,
            overhead: None,
            iterations: 1,
            total_time: 1.0,
            ..RunResult::default()
        };
        let deg = r.degradation_vs(0.0515);
        assert!((deg - 10.097).abs() < 0.05, "{deg}");
    }

    #[test]
    fn staleness_stats() {
        let r = RunResult {
            label: "a".into(),
            epochs: vec![],
            staleness: vec![0, 1, 2, 3, 10],
            trace: None,
            overhead: None,
            iterations: 5,
            total_time: 0.16,
            ..RunResult::default()
        };
        assert!((r.mean_staleness() - 3.2).abs() < 1e-9);
        let h = r.staleness_histogram(3);
        assert_eq!(h, vec![1, 1, 1, 2]); // 3 and 10 share the tail bucket
        assert!((r.avg_iteration_ms() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn trace_maes() {
        let t = PredictorTrace {
            actual_loss: vec![1.0, 2.0],
            predicted_loss: vec![1.5, 2.0],
            actual_step: vec![3.0],
            predicted_step: vec![5.0],
            finish_order: vec![0],
        };
        assert!((t.loss_mae() - 0.25).abs() < 1e-6);
        assert!((t.step_mae() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn overhead_averages() {
        let o = OverheadStats { loss_pred_ms: 130.0, step_pred_ms: 140.0, iterations: 100 };
        assert!((o.avg_loss_pred_ms() - 1.3).abs() < 1e-9);
        assert!((o.avg_step_pred_ms() - 1.4).abs() < 1e-9);
    }
}

impl RunResult {
    /// Virtual seconds until the test error first reaches `threshold`
    /// (`None` if never) — the quantity that locates the wall-clock
    /// crossovers in Figures 4 and 6.
    pub fn time_to_error(&self, threshold: f32) -> Option<f64> {
        self.epochs.iter().find(|e| e.test_error <= threshold).map(|e| e.time)
    }

    /// Epochs until the test error first reaches `threshold`.
    pub fn epochs_to_error(&self, threshold: f32) -> Option<usize> {
        self.epochs.iter().find(|e| e.test_error <= threshold).map(|e| e.epoch)
    }

    /// Staleness quantile (`q` in [0, 1]) under the **nearest-rank**
    /// definition: the smallest sample `v` such that at least `⌈q·n⌉` of
    /// the `n` samples are ≤ `v` — i.e. `sorted[max(⌈q·n⌉, 1) − 1]`. So
    /// 0.0 = min, 0.5 = lower median, 1.0 = max, and every returned value
    /// is an actual sample (no interpolation). The tail quantiles are
    /// what distinguish a volatile (straggler-prone) cluster from a
    /// merely slow one.
    ///
    /// (The previous `round((n−1)·q)` formula drifted up to one rank high
    /// at interior quantiles, e.g. the median of 4 samples came back as
    /// the 3rd-smallest instead of the 2nd.)
    pub fn staleness_quantile(&self, q: f64) -> u32 {
        if self.staleness.is_empty() {
            return 0;
        }
        let mut s = self.staleness.clone();
        s.sort_unstable();
        let n = s.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        s[rank - 1]
    }
}

#[cfg(test)]
mod convergence_tests {
    use super::*;

    fn run_with(errors: &[f32]) -> RunResult {
        RunResult {
            label: "t".into(),
            epochs: errors
                .iter()
                .enumerate()
                .map(|(i, &e)| EpochRecord {
                    epoch: i + 1,
                    time: (i + 1) as f64 * 2.0,
                    train_error: e,
                    test_error: e,
                    train_loss: 1.0,
                    lr: 0.1,
                })
                .collect(),
            staleness: vec![1, 5, 3, 2, 9, 4, 7],
            trace: None,
            overhead: None,
            iterations: 7,
            total_time: 10.0,
            ..RunResult::default()
        }
    }

    #[test]
    fn time_to_error_finds_first_crossing() {
        let r = run_with(&[0.9, 0.5, 0.2, 0.25, 0.1]);
        assert_eq!(r.time_to_error(0.3), Some(6.0)); // epoch 3, t = 6
        assert_eq!(r.epochs_to_error(0.3), Some(3));
        assert_eq!(r.time_to_error(0.05), None);
    }

    #[test]
    fn staleness_quantiles() {
        let r = run_with(&[0.5]);
        assert_eq!(r.staleness_quantile(0.0), 1);
        assert_eq!(r.staleness_quantile(0.5), 4);
        assert_eq!(r.staleness_quantile(1.0), 9);
    }

    #[test]
    fn empty_staleness_quantile_is_zero() {
        let mut r = run_with(&[0.5]);
        r.staleness = Vec::new();
        assert_eq!(r.staleness_quantile(0.5), 0);
    }
}

#[cfg(test)]
mod quantile_proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference nearest-rank quantile: the smallest sample `v` with
    /// `|{x : x ≤ v}| ≥ ⌈q·n⌉`, found by counting values rather than
    /// indexing into the sorted array.
    fn reference_nearest_rank(samples: &[u32], q: f64) -> u32 {
        let n = samples.len() as f64;
        let need = (q.clamp(0.0, 1.0) * n).ceil().max(1.0);
        let mut vals = samples.to_vec();
        vals.sort_unstable();
        vals.dedup();
        for v in vals {
            let cnt = samples.iter().filter(|&&x| x <= v).count() as f64;
            if cnt >= need {
                return v;
            }
        }
        unreachable!("the maximum always satisfies the rank");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn quantile_matches_reference(
            samples in prop::collection::vec(0u32..64, 1..40),
            q in 0.0f64..=1.0,
        ) {
            let r = RunResult { staleness: samples.clone(), ..RunResult::default() };
            prop_assert_eq!(r.staleness_quantile(q), reference_nearest_rank(&samples, q));
        }
    }

    #[test]
    fn median_of_four_is_second_smallest() {
        // The old round((n−1)·q) formula returned the 3rd-smallest here.
        let r = RunResult { staleness: vec![10, 20, 30, 40], ..RunResult::default() };
        assert_eq!(r.staleness_quantile(0.25), 10);
        assert_eq!(r.staleness_quantile(0.5), 20);
        assert_eq!(r.staleness_quantile(0.75), 30);
        assert_eq!(r.staleness_quantile(1.0), 40);
    }
}
