//! One real training run through the public API, timed from outside, and
//! the end-to-end numbers and correctness verdict read off its result.

use crate::procfs::{self, CpuTimes};
use crate::workloads::{planned_updates, Backend, Transport, Workload, BATCH};
use lc_asgd::core::metrics::EpochRecord;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;
use std::time::Instant;

/// A finished call to `run_cluster_with` and what it cost.
pub struct TimedRun {
    pub result: Result<RunResult, String>,
    /// Dataset generation + model build + backend construction, seconds.
    pub setup_s: f64,
    /// Wall seconds inside `run_cluster_with`.
    pub wall_s: f64,
    /// Process CPU seconds burned during the call (all threads).
    pub cpu: CpuTimes,
    pub planned_updates: u64,
    pub params: usize,
}

/// Sets the workload up from `seed` and trains it once. A transport error
/// is reported in `result`, never as a panic: a failed run still counts
/// its planned updates as attempted.
pub fn train_once(w: &Workload, seed: u64, epochs: usize, trace: bool) -> TimedRun {
    let t_setup = Instant::now();
    let task = w.setup(seed, epochs);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut cfg = task.cfg;
    // Figures 7–8's per-arrival predictor traces feed `predictor.*_mae`;
    // they cost memory, so only the traced run records them.
    cfg.record_traces = trace;
    let build = |rng: &mut Rng| w.build_model(rng);
    let opts = w.run_options(trace);
    let cpu0 = procfs::cpu_times();
    let t0 = Instant::now();
    let result = match task.backend {
        Backend::Threads(b) => run_cluster_with(b, &cfg, &build, &task.train, &task.test, opts),
        Backend::Tcp(b) => run_cluster_with(b, &cfg, &build, &task.train, &task.test, opts),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = match (cpu0, procfs::cpu_times()) {
        (Some(a), Some(b)) => CpuTimes { user_s: b.user_s - a.user_s, sys_s: b.sys_s - a.sys_s },
        _ => CpuTimes { user_s: f64::NAN, sys_s: f64::NAN },
    };
    TimedRun {
        result: result.map_err(|e| e.to_string()),
        setup_s,
        wall_s,
        cpu,
        planned_updates: planned_updates(epochs, task.train.len()),
        params: task.net.num_params(),
    }
}

/// Wall seconds at which the epoch-mean train loss first reaches
/// `target`, linearly interpolated between the crossing epoch's record
/// and the one before it. A crossing in the very first epoch has no
/// earlier point and reports that epoch's end time. `None` = never.
pub fn time_to_target(epochs: &[EpochRecord], target: f32) -> Option<f64> {
    let i = epochs.iter().position(|e| e.train_loss <= target)?;
    let hit = &epochs[i];
    let Some(prev) = i.checked_sub(1).map(|p| &epochs[p]) else {
        return Some(hit.time);
    };
    let drop = f64::from(prev.train_loss - hit.train_loss);
    let frac = if drop > 0.0 { f64::from(prev.train_loss - target) / drop } else { 1.0 };
    Some(prev.time + (hit.time - prev.time) * frac.clamp(0.0, 1.0))
}

/// Wire bytes one applied update should move: one weights reply down and
/// one gradient up, each `params` values at the codec's width (int8
/// carries one f32 scale per 256-value block).
pub fn predicted_bytes_per_update(params: usize, codec: WireCodec) -> f64 {
    let p = params as f64;
    match codec {
        WireCodec::F32 => 2.0 * 4.0 * p,
        WireCodec::Bf16 => 2.0 * 2.0 * p,
        WireCodec::Int8 => 2.0 * (p + 4.0 * (p / 256.0).ceil()),
    }
}

/// The numbers a user of the system sees, for one run.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub samples_per_s: f64,
    pub time_to_target_s: Option<f64>,
    pub test_accuracy: f64,
    pub first_loss: f32,
    pub final_loss: f32,
    pub applied_updates: u64,
    /// Wire bytes per applied update; `None` off TCP.
    pub bytes_per_update: Option<f64>,
    /// Every reason this run is not a correct one (empty = correct).
    pub misses: Vec<String>,
    /// The run's result cannot be used at all: it returned an error,
    /// produced a non-finite loss or never reached its target.
    pub void: bool,
}

impl EndToEnd {
    /// Planned updates that did not count: the shortfall of a usable run,
    /// every one of a void run.
    pub fn failed_updates(&self, planned: u64) -> u64 {
        if self.void {
            planned
        } else {
            planned.saturating_sub(self.applied_updates)
        }
    }
}

/// Reads the end-to-end numbers off a finished run and applies the
/// correctness gate: every planned update applied, loss fell into the
/// workload's band and reached its target, accuracy above the floor, and
/// on TCP the bytes moved per update within 1 % (plus a fixed allowance
/// for headers and batch-norm statistics) of what the codec width
/// predicts. A `smoke` run is too short to converge, so it is held only to
/// the checks that do not depend on convergence.
pub fn end_to_end(w: &Workload, run: &TimedRun, smoke: bool) -> EndToEnd {
    let r = match &run.result {
        Ok(r) => r,
        Err(e) => {
            return EndToEnd {
                samples_per_s: 0.0,
                time_to_target_s: None,
                test_accuracy: 0.0,
                first_loss: f32::NAN,
                final_loss: f32::NAN,
                applied_updates: 0,
                bytes_per_update: None,
                misses: vec![format!("run failed: {e}")],
                void: true,
            }
        }
    };
    let first_loss = r.epochs.first().map_or(f32::NAN, |e| e.train_loss);
    let final_loss = r.epochs.last().map_or(f32::NAN, |e| e.train_loss);
    let test_accuracy = 1.0 - f64::from(r.final_test_error());
    let time_to_target_s = time_to_target(&r.epochs, w.target_loss);
    let bytes_per_update = match (w.transport, &r.transport) {
        (Transport::Tcp, Some(t)) if r.iterations > 0 => {
            Some((t.bytes_sent + t.bytes_received) as f64 / r.iterations as f64)
        }
        _ => None,
    };

    let mut misses = Vec::new();
    if r.iterations != run.planned_updates {
        misses.push(format!("applied {} of {} planned updates", r.iterations, run.planned_updates));
    }
    let mut void = false;
    if r.epochs.is_empty() || r.epochs.iter().any(|e| !e.train_loss.is_finite()) {
        misses.push("non-finite train loss".into());
        void = true;
    }
    if !smoke && time_to_target_s.is_none() {
        misses.push(format!("train loss never reached the target {}", w.target_loss));
        void = true;
    }
    // (A NaN loss or accuracy was already caught as non-finite above.)
    if r.epochs.len() > 1 && final_loss >= first_loss {
        misses.push(format!("final train loss {final_loss} not below the first {first_loss}"));
    }
    if !smoke && final_loss > w.final_loss_max {
        misses.push(format!("final train loss {final_loss} above the band {}", w.final_loss_max));
    }
    if !smoke && test_accuracy < f64::from(w.min_accuracy) {
        misses.push(format!("test accuracy {test_accuracy:.3} below the floor {}", w.min_accuracy));
    }
    if let Some(got) = bytes_per_update {
        let want = predicted_bytes_per_update(run.params, w.codec);
        // When the last update lands, every worker may have one more
        // iteration in flight: its pull and its dropped push cross the
        // wire but belong to no applied update.
        let tail = want * w.workers as f64 / run.planned_updates.max(1) as f64;
        if (got - want).abs() > BYTES_TOLERANCE * want + BYTES_OVERHEAD + tail {
            misses.push(format!("{got:.0} wire bytes per update, codec width predicts {want:.0}"));
        }
    }
    EndToEnd {
        samples_per_s: r.iterations as f64 * BATCH as f64 / run.wall_s,
        time_to_target_s,
        test_accuracy,
        first_loss,
        final_loss,
        applied_updates: r.iterations,
        bytes_per_update,
        misses,
        void,
    }
}

/// Allowed relative gap between measured and predicted wire bytes per
/// update.
const BYTES_TOLERANCE: f64 = 0.01;

/// Bytes per update the prediction leaves out and the gate therefore
/// allows on top: frame headers, the scalars of each message, and the
/// batch-norm statistics LC-ASGD's state push and every gradient carry
/// (≈ 3.4 KB per update on ResNet-tiny).
const BYTES_OVERHEAD: f64 = 4096.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: usize, time: f64, train_loss: f32) -> EpochRecord {
        EpochRecord { epoch, time, train_error: 0.0, test_error: 0.0, train_loss, lr: 0.1 }
    }

    #[test]
    fn crossing_is_interpolated_between_epoch_records() {
        let e = [rec(1, 2.0, 1.0), rec(2, 4.0, 0.6), rec(3, 6.0, 0.2), rec(4, 8.0, 0.1)];
        // 0.5 sits a quarter of the way from 0.6 (t=4) to 0.2 (t=6).
        assert!((time_to_target(&e, 0.5).unwrap() - 4.5).abs() < 1e-6);
        // Exactly on a record.
        assert!((time_to_target(&e, 0.2).unwrap() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn crossing_in_the_first_epoch_reports_its_end() {
        let e = [rec(1, 2.5, 0.3), rec(2, 5.0, 0.1)];
        assert_eq!(time_to_target(&e, 0.5), Some(2.5));
    }

    #[test]
    fn target_never_reached_is_none() {
        let e = [rec(1, 1.0, 2.0), rec(2, 2.0, 1.5)];
        assert_eq!(time_to_target(&e, 0.5), None);
        assert_eq!(time_to_target(&[], 0.5), None);
        // NaN losses never compare ≤ target.
        assert_eq!(time_to_target(&[rec(1, 1.0, f32::NAN)], 0.5), None);
    }

    #[test]
    fn first_crossing_wins_when_loss_bounces() {
        let e = [rec(1, 1.0, 1.0), rec(2, 2.0, 0.4), rec(3, 3.0, 0.9), rec(4, 4.0, 0.3)];
        let t = time_to_target(&e, 0.5).unwrap();
        assert!(t > 1.0 && t < 2.0, "{t}");
    }

    fn finished(losses: &[f32], test_error: f32, applied: u64, planned: u64) -> TimedRun {
        let epochs = losses
            .iter()
            .enumerate()
            .map(|(i, &l)| EpochRecord { test_error, ..rec(i + 1, (i + 1) as f64, l) })
            .collect();
        TimedRun {
            result: Ok(RunResult { epochs, iterations: applied, ..RunResult::default() }),
            setup_s: 0.01,
            wall_s: losses.len() as f64,
            cpu: CpuTimes { user_s: 1.0, sys_s: 0.1 },
            planned_updates: planned,
            params: 19_858,
        }
    }

    #[test]
    fn the_gate_passes_a_converged_run_and_names_each_miss() {
        let w = crate::workloads::find("sgd_1w").unwrap();
        let good = end_to_end(w, &finished(&[2.0, 0.9, 0.4, 0.3], 0.05, 240, 240), false);
        assert!(good.misses.is_empty(), "{:?}", good.misses);
        assert_eq!(good.failed_updates(240), 0);
        assert!((good.samples_per_s - 240.0 * 16.0 / 4.0).abs() < 1e-9);
        assert!((good.test_accuracy - 0.95).abs() < 1e-6);

        // Ten updates short: a miss, and exactly those ten fail.
        let short = end_to_end(w, &finished(&[2.0, 0.9, 0.4, 0.3], 0.05, 230, 240), false);
        assert_eq!(short.misses.len(), 1);
        assert_eq!(short.failed_updates(240), 10);

        // Inaccurate: a miss, but no update failed.
        let wrong = end_to_end(w, &finished(&[2.0, 0.9, 0.4, 0.3], 0.5, 240, 240), false);
        assert_eq!(wrong.misses.len(), 1);
        assert_eq!(wrong.failed_updates(240), 0);
    }

    #[test]
    fn a_run_that_misses_its_target_diverges_or_errors_forfeits_every_update() {
        let w = crate::workloads::find("sgd_1w").unwrap();
        let stalled = end_to_end(w, &finished(&[2.0, 1.5, 1.2], 0.05, 240, 240), false);
        assert!(stalled.void && stalled.time_to_target_s.is_none());
        assert_eq!(stalled.failed_updates(240), 240);
        // The same short curve is acceptable to a smoke run, which cannot converge.
        assert!(end_to_end(w, &finished(&[2.0, 1.5, 1.2], 0.05, 240, 240), true).misses.is_empty());

        let diverged = end_to_end(w, &finished(&[2.0, f32::NAN], 0.9, 240, 240), true);
        assert!(diverged.void);
        let errored =
            TimedRun { result: Err("worker 1 timed out".into()), ..finished(&[], 0.0, 0, 240) };
        let e = end_to_end(w, &errored, false);
        assert!(e.void && e.misses[0].contains("timed out"));
        assert_eq!(e.failed_updates(240), 240);
    }

    #[test]
    fn predicted_bytes_follow_the_codec_width() {
        assert_eq!(predicted_bytes_per_update(1000, WireCodec::F32), 8000.0);
        assert_eq!(predicted_bytes_per_update(1000, WireCodec::Bf16), 4000.0);
        // 1000 values = 4 blocks of 256 → 4 scales each way.
        assert_eq!(predicted_bytes_per_update(1000, WireCodec::Int8), 2.0 * (1000.0 + 16.0));
    }
}
