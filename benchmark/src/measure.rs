//! The two measurements of one workload: end-to-end metrics with tracing
//! off, and per-layer metrics from a traced run plus the probes.
//!
//! Every training run happens in a **fresh child process** — this binary
//! re-executed with `--once` — for two reasons. CPU time and peak RSS are
//! then per run. And a run starts in the state a user's run starts in: on
//! the thread backend a run that follows large frees in the same process
//! (a previous run's teardown, or throw-away set-ups) finds glibc's
//! dynamic mmap/trim thresholds already raised and is ≈ 20 % faster than
//! the same run in a new process, so in-process repeats would measure
//! something no user sees.

use crate::json::Json;
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::phases::{iteration_seconds, PhaseShares};
use crate::run::{end_to_end, train_once, EndToEnd, TimedRun};
use crate::stats::{median, percentile};
use crate::workloads::{Transport, Workload};
use crate::{probes, procfs};
use lc_asgd::prelude::RunResult;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Epochs of a `--smoke` run.
const SMOKE_EPOCHS: usize = 2;

/// Set-ups timed after the training run, besides the run's own, so one
/// run's `setup_s` is a median of 21 samples. A set-up takes 10–30 ms.
const EXTRA_SETUPS: usize = 20;

/// Seed of the `i`-th training run of a time-budgeted measurement. Run 0
/// uses the measurement's own seed, so a traced and an untraced
/// measurement at the same seed train on identical inputs.
fn run_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9))
}

fn epochs_for(w: &Workload, smoke: bool) -> usize {
    if smoke {
        SMOKE_EPOCHS.min(w.epochs)
    } else {
        w.epochs
    }
}

fn report_run(w: &Workload, seed: u64, trace: bool, run: &TimedRun, e: &EndToEnd) {
    let label = format!("[{}] seed {seed}{}", w.name, if trace { " traced" } else { "" });
    eprintln!(
        "{label}: {:.1} samples/s, target {} in {}, accuracy {:.4}, loss {:.4} -> {:.4}, \
         {}/{} updates, {:.2} s wall, setup {:.4} s",
        e.samples_per_s,
        w.target_loss,
        e.time_to_target_s.map_or("never".to_string(), |t| format!("{t:.3} s")),
        e.test_accuracy,
        e.first_loss,
        e.final_loss,
        e.applied_updates,
        run.planned_updates,
        run.wall_s,
        run.setup_s,
    );
    if let Ok(r) = &run.result {
        let curve: Vec<String> = r.epochs.iter().map(|e| format!("{:.3}", e.train_loss)).collect();
        eprintln!("{label}: train loss by epoch: {}", curve.join(" "));
    }
    for miss in &e.misses {
        eprintln!("{label}: MISS {miss}");
    }
}

/// One training run of `w` **in this process** — what a `--once` child
/// does — and its record: `correct`, `attempted`, `failed`, and a flat
/// `metrics` object. An untraced run reports the end-to-end metrics and
/// its process's CPU use; a traced one every metric that comes from the
/// `TraceLog` / `RunResult`.
pub fn once(w: &Workload, seed: u64, trace: bool, smoke: bool) -> Json {
    let epochs = epochs_for(w, smoke);
    let run = train_once(w, seed, epochs, trace);
    // Before anything else allocates: the high-water mark of this one run.
    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or(f64::NAN);
    let e = end_to_end(w, &run, smoke);
    report_run(w, seed, trace, &run, &e);

    let mut correct = e.misses.is_empty();
    let mut metrics: Vec<(&'static str, f64)> = vec![("samples_per_s", e.samples_per_s)];
    if trace {
        if let Ok(r) = &run.result {
            let (traced, tiles) = traced_metrics(w, r, &e);
            metrics.extend(traced);
            correct &= tiles;
        }
    } else {
        let mut setups = vec![run.setup_s];
        // (A smoke run has no time for them and gates nothing on them.)
        setups.extend((0..if smoke { 0 } else { EXTRA_SETUPS }).map(|i| {
            let t = Instant::now();
            drop(std::hint::black_box(w.setup(run_seed(seed, i + 1), epochs)));
            t.elapsed().as_secs_f64()
        }));
        let nproc = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        metrics.extend([
            // A run that never reaches the target reports its whole
            // duration (and has already counted as failed).
            ("time_to_target_s", e.time_to_target_s.unwrap_or(run.wall_s)),
            ("test_accuracy", e.test_accuracy),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", median(&setups).expect("at least one set-up")),
            ("proc.cpu_user_s", run.cpu.user_s),
            ("proc.cpu_sys_s", run.cpu.sys_s),
            ("proc.cpu_util", (run.cpu.user_s + run.cpu.sys_s) / (run.wall_s * nproc)),
        ]);
    }
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(run.planned_updates as f64)),
        ("failed", Json::Num(e.failed_updates(run.planned_updates) as f64)),
        ("metrics", Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v))))),
    ])
}

/// The per-layer metrics a traced run yields, and whether its worker
/// phases tile the timeline (pull + compute + push + untiled = 1 ± 0.05).
fn traced_metrics(w: &Workload, r: &RunResult, e: &EndToEnd) -> (Vec<(&'static str, f64)>, bool) {
    let log = r.timeline.as_ref().expect("a traced run carries a timeline");
    let wall = r.total_time;
    let workers = w.workers as f64;
    let shares = PhaseShares::of(log, w.workers, wall);
    let tiles = (shares.tiling_sum() - 1.0).abs() <= 0.05;
    if !tiles {
        eprintln!(
            "[{}] MISS worker phases tile {:.3} of the timeline",
            w.name,
            shares.tiling_sum()
        );
    }
    let iters = iteration_seconds(log, w.workers);
    let iter_mean_ms = iters.iter().sum::<f64>() / iters.len().max(1) as f64 * 1e3;
    eprintln!("[{}] worker iterations: n = {}, mean {iter_mean_ms:.3} ms", w.name, iters.len());
    let (over, ptrace) = (r.overhead.as_ref(), r.trace.as_ref());
    let net = r.transport.as_ref().filter(|_| w.transport == Transport::Tcp);
    let repl = r.replication.as_ref();
    let metrics = vec![
        (
            "predictor.overhead_ratio",
            over.map_or(0.0, |o| (o.avg_loss_pred_ms() + o.avg_step_pred_ms()) / iter_mean_ms),
        ),
        ("predictor.loss_mae", ptrace.map_or(0.0, |t| f64::from(t.loss_mae()))),
        ("predictor.step_mae", ptrace.map_or(0.0, |t| f64::from(t.step_mae()))),
        ("staleness.mean", r.mean_staleness()),
        ("staleness.p95", f64::from(r.staleness_quantile(0.95))),
        ("net.rtt_mean_us", net.map_or(0.0, |t| t.rtt.mean_seconds() * 1e6)),
        ("net.rtt_max_us", net.map_or(0.0, |t| t.rtt.max_seconds() * 1e6)),
        ("net.codec_share", net.map_or(0.0, |t| t.serialize_seconds / (workers * wall))),
        ("net.bytes_per_update", e.bytes_per_update.unwrap_or(0.0)),
        ("replication.log_records", repl.map_or(0.0, |p| p.log_records as f64)),
        ("replication.flushes", repl.map_or(0.0, |p| p.flushes as f64)),
        ("replication.max_lag", repl.map_or(0.0, |p| p.max_lag as f64)),
        ("phase.pull_share", shares.pull),
        ("phase.compute_share", shares.compute),
        ("phase.push_share", shares.push),
        ("phase.comm_share", shares.comm),
        ("phase.codec_share", shares.codec),
        ("phase.predictor_loss_share", shares.predictor_loss),
        ("phase.predictor_step_share", shares.predictor_step),
        ("phase.server_apply_share", shares.server_apply),
        ("phase.checkpoint_share", shares.checkpoint),
        ("phase.coalesce_share", shares.coalesce),
        ("worker.blocked_share", shares.blocked),
        ("phase.untiled_share", shares.untiled),
        ("worker.iter_p50_ms", median(&iters).unwrap_or(0.0) * 1e3),
        ("worker.iter_p99_ms", percentile(&iters, 0.99).unwrap_or(0.0) * 1e3),
    ];
    (metrics, tiles)
}

/// [`once`] in a fresh child process: this binary re-executed with
/// `--once`. Waits for the child; its progress lines go to our stderr.
fn spawn_once(w: &Workload, seed: u64, trace: bool, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--once", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start the child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run of {} exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().ok_or("child run printed nothing")?)
}

fn metric(record: &Json, name: &str) -> Result<f64, String> {
    record
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_f64)
        .ok_or(format!("a run's record has no {name}"))
}

fn count(record: &Json, key: &str) -> u64 {
    record.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn is_correct(record: &Json) -> bool {
    record.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Which untraced runs an end-to-end measurement makes.
pub enum Repeats {
    /// One run per seed (the full report's `--repeats`).
    Seeds(Vec<u64>),
    /// As many whole runs as fit in `seconds`, always at least one (the
    /// benchmark contract's `--seconds`).
    Budget { seed: u64, seconds: f64 },
}

/// The untraced runs of one end-to-end measurement: every run's value of
/// every end-to-end metric, in [`END_TO_END`]'s order.
pub struct EndToEndRuns {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, Vec<f64>)>,
}

impl EndToEndRuns {
    fn of(records: &[Json]) -> Result<EndToEndRuns, String> {
        let values = END_TO_END
            .iter()
            .map(|d| {
                Ok((d.name, records.iter().map(|r| metric(r, d.name)).collect::<Result<_, _>>()?))
            })
            .collect::<Result<_, String>>()?;
        Ok(EndToEndRuns {
            correct: records.iter().all(is_correct),
            attempted: records.iter().map(|r| count(r, "attempted")).sum(),
            failed: records.iter().map(|r| count(r, "failed")).sum(),
            values,
        })
    }

    /// Each metric's median over the runs.
    pub fn medians(&self) -> Measured {
        Measured {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .values
                .iter()
                .map(|(name, v)| (*name, median(v).expect("at least one run")))
                .collect(),
        }
    }
}

/// Trains `w` with tracing off, one fresh process per run.
pub fn measure_end_to_end(
    w: &Workload,
    repeats: &Repeats,
    smoke: bool,
) -> Result<EndToEndRuns, String> {
    let mut records = Vec::new();
    match repeats {
        Repeats::Seeds(seeds) => {
            for &seed in seeds {
                records.push(spawn_once(w, seed, false, smoke)?);
            }
        }
        Repeats::Budget { seed, seconds } => {
            let started = Instant::now();
            loop {
                records.push(spawn_once(w, run_seed(*seed, records.len()), false, smoke)?);
                let elapsed = started.elapsed().as_secs_f64();
                if elapsed + elapsed / records.len() as f64 > *seconds {
                    break;
                }
            }
        }
    }
    EndToEndRuns::of(&records)
}

/// One untraced and one traced run of `w` at the same seed, each in its
/// own process, then the probes (skipped under `smoke`) in this one:
/// every per-layer metric.
pub fn measure_per_layer(w: &Workload, seed: u64, smoke: bool) -> Result<Measured, String> {
    let plain = spawn_once(w, seed, false, smoke)?;
    let traced = spawn_once(w, seed, true, smoke)?;
    let overhead = 1.0 - metric(&traced, "samples_per_s")? / metric(&plain, "samples_per_s")?;
    let probed = if smoke { Vec::new() } else { probes::run(w, seed) };

    let mut metrics = Vec::new();
    for d in &PER_LAYER {
        let value = match d.name {
            "trace.overhead_frac" => overhead,
            name if name.starts_with("proc.") => metric(&plain, name)?,
            name if probes::NAMES.contains(&name) => {
                match probed.iter().find(|(n, _)| *n == name) {
                    Some((_, v)) => *v,
                    None => continue, // `--smoke` skips the probes
                }
            }
            name => metric(&traced, name)?,
        };
        metrics.push((d.name, value));
    }
    Ok(Measured {
        correct: is_correct(&plain) && is_correct(&traced),
        attempted: count(&plain, "attempted") + count(&traced, "attempted"),
        failed: count(&plain, "failed") + count(&traced, "failed"),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;
    use std::collections::BTreeSet;

    fn metric_names(record: &Json) -> BTreeSet<String> {
        match record.get("metrics") {
            Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    #[test]
    fn an_untraced_run_reports_every_end_to_end_metric() {
        let record = once(find("sgd_1w").unwrap(), 5, false, true);
        assert!(is_correct(&record), "a short SGD run applies every update and lowers the loss");
        assert_eq!((count(&record, "attempted"), count(&record, "failed")), (2 * 60, 0));
        for d in &END_TO_END {
            let v = metric(&record, d.name).unwrap();
            assert!(v.is_finite() && v > 0.0, "{} = {v}", d.name);
        }
        let runs = EndToEndRuns::of(&[record.clone(), record]).unwrap();
        let names: Vec<&str> = runs.medians().metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(runs.attempted, 4 * 60);
    }

    /// An untraced run, a traced run and the probes together must produce
    /// exactly the per-layer metrics `BENCHMARK.json` declares (all but
    /// `trace.overhead_frac`, which compares the two runs), on the workload
    /// that enters every layer and on the one that enters the fewest.
    #[test]
    fn runs_plus_probes_cover_the_declared_per_layer_metrics() {
        let declared: BTreeSet<String> = PER_LAYER.iter().map(|d| d.name.to_string()).collect();
        let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        for name in ["lc_2w_tcp_wide_q", "sgd_1w"] {
            let w = find(name).unwrap();
            let (plain, traced) = (once(w, 5, false, true), once(w, 5, true, true));
            assert!(is_correct(&plain) && is_correct(&traced), "{name}");
            let mut got: BTreeSet<String> = metric_names(&plain)
                .union(&metric_names(&traced))
                .filter(|n| !end_to_end.contains(*n))
                .cloned()
                .collect();
            for (metric, value) in probes::run(w, 5) {
                assert!(got.insert(metric.to_string()), "{name}: {metric} reported twice");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            got.insert("trace.overhead_frac".into());
            assert_eq!(got, declared, "{name}");
        }
        // Every layer but convolution and batch norm is on the path of the
        // int8 / sharded / replicated workload.
        let probed = probes::run(find("lc_2w_tcp_wide_q").unwrap(), 5);
        let idle: Vec<&str> = probed.iter().filter(|(_, v)| *v == 0.0).map(|(n, _)| *n).collect();
        assert_eq!(
            idle,
            ["tensor.conv_fwd_ms", "tensor.conv_dw_ms", "tensor.conv_dx_ms", "server.absorb_bn_us"]
        );
    }
}
