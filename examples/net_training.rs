//! LC-ASGD end to end over real TCP sockets.
//!
//! A `ReactorServer` parameter server and four `NetWorker` client threads talk
//! over loopback, speaking the full Algorithm 1/2 protocol (pull →
//! forward → push state → compensated backward → push gradient) through
//! the same `run_cluster` driver the simulator and thread backends use.
//! The run prints per-epoch progress and the transport accounting that
//! only a real wire produces: bytes moved, round-trip latency, and time
//! spent in the codec.
//!
//! ```sh
//! cargo run --release --example net_training
//! ```

use std::time::Duration;

use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::optimizer::LrSchedule;
use lc_asgd::prelude::*;

/// Maps the transport-agnostic tuning knobs in `ExperimentConfig` onto
/// the TCP backend's own config (core never depends on sockets, so the
/// translation lives with the caller).
fn net_config(t: &NetTuning) -> NetConfig {
    NetConfig {
        heartbeat_interval: Duration::from_millis(t.heartbeat_interval_ms),
        heartbeat_timeout: Duration::from_millis(t.heartbeat_timeout_ms),
        request_timeout: Duration::from_millis(t.request_timeout_ms),
        ..NetConfig::default()
    }
}

fn main() {
    let workers = 4;
    let (train, test) = blobs_split(4, 6, 40, 12, 0.5, 9);

    let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, workers, Scale::Tiny, 3);
    cfg.epochs = 12;
    cfg.batch_size = 10;
    cfg.lr = LrSchedule::constant(0.1);

    let build = |rng: &mut Rng| mlp(&[6, 16, 4], false, rng);

    // A little chaos on the wire: one worker crashes and rejoins, another
    // rides a briefly slowed link. The run must absorb both.
    let plan = FaultPlan::new()
        .with_event(1, 6, FaultKind::Crash { restart_after_ms: Some(25) })
        .with_event(3, 4, FaultKind::SlowLink { delay_ms: 15 });
    let backend =
        NetCluster::new(workers).with_config(net_config(&cfg.net)).with_fault_plan(plan.clone());
    let opts = RunOptions { fault_plan: Some(plan), trace: true, ..RunOptions::default() };

    println!("training LC-ASGD with {workers} workers over loopback TCP (with fault injection)…\n");
    let r = run_cluster_with(backend, &cfg, &build, &train, &test, opts)
        .expect("TCP training run failed");

    println!("epoch  train-loss  test-error");
    for (i, e) in r.epochs.iter().enumerate() {
        println!("{:>5}  {:>10.4}  {:>10.3}", i + 1, e.train_loss, e.test_error);
    }

    let first = r.epochs.first().expect("at least one epoch");
    let last = r.epochs.last().expect("at least one epoch");
    println!(
        "\nloss {:.4} → {:.4}, test error {:.3} → {:.3} over {} server updates in {:.2}s",
        first.train_loss,
        last.train_loss,
        first.test_error,
        last.test_error,
        r.iterations,
        r.total_time
    );
    assert!(last.train_loss < first.train_loss, "training over TCP must decrease the loss");

    let f = r.faults.as_ref().expect("fault-injected runs carry a report");
    println!(
        "\nfaults: {} injected ({} crashes), {} worker restarts",
        f.injected(),
        f.crashes(),
        f.worker_restarts()
    );
    for rec in &f.records {
        match rec {
            FaultRecord::Injected { worker, op, kind } => {
                println!("  worker {worker} op {op:>3}: injected {kind:?}")
            }
            FaultRecord::WorkerRestarted { worker, op } => {
                println!("  worker {worker} op {op:>3}: restarted and rejoined")
            }
            FaultRecord::ServerHalted { at_update } => {
                println!("  server halted at update {at_update}")
            }
            FaultRecord::Resumed { at_update } => {
                println!("  resumed from checkpoint at update {at_update}")
            }
            FaultRecord::CheckpointFailed { at_update, error } => {
                println!("  checkpoint write failed at update {at_update}: {error}")
            }
            FaultRecord::FailedOver { at_update, from_epoch, to_epoch, lost_updates } => {
                println!(
                    "  primary killed at update {at_update}: standby promoted \
                     (epoch {from_epoch}→{to_epoch}, {lost_updates} updates lost)"
                )
            }
            FaultRecord::StandbyLost { at_update, error } => {
                println!("  standby lost at update {at_update}: {error} (running unreplicated)")
            }
        }
    }
    println!(
        "staleness k_m: mean {:.2}, p95 {}, p99 {} (tail = how stale the worst updates were)",
        r.mean_staleness(),
        r.staleness_quantile(0.95),
        r.staleness_quantile(0.99)
    );

    let t = r.transport.clone().expect("backend runs always report transport stats");
    println!("\ntransport (what actually crossed the wire):");
    println!("  worker→server bytes : {}", t.bytes_sent);
    println!("  server→worker bytes : {}", t.bytes_received);
    println!("  blocking requests   : {}", t.requests);
    println!("  one-way pushes      : {}", t.oneways);
    println!("  codec time          : {:.1} ms", t.serialize_seconds * 1e3);
    if t.rtt.count() > 0 {
        println!(
            "  round trips         : {} (mean {:.0} µs, max {:.0} µs)",
            t.rtt.count(),
            t.rtt.mean_seconds() * 1e6,
            t.rtt.max_seconds() * 1e6,
        );
        println!("  rtt histogram (µs floor → count):");
        for (floor, n) in t.rtt.nonempty_buckets() {
            println!("    {:>8} → {}", floor, n);
        }
    }

    // The run was traced (`opts.trace`): the same fault timeline, phase
    // spans, and transport numbers land in a Chrome trace you can open in
    // chrome://tracing or Perfetto.
    let trace_path = std::env::temp_dir().join("lcasgd_net_training.trace.json");
    let chrome = lc_asgd::core::trace::export(&r, TraceFormat::Chrome)
        .expect("traced runs carry a timeline");
    std::fs::write(&trace_path, chrome).expect("write trace");
    let log = r.timeline.as_ref().expect("traced runs carry a timeline");
    println!(
        "\ntrace: {} span events ({} fault markers) written to {}",
        log.len(),
        log.instants().count(),
        trace_path.display()
    );
}
