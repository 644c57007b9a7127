//! `lcasgd` — command-line front end for the LC-ASGD library.
//!
//! ```text
//! lcasgd train   [--algorithm sgd|ssgd|asgd|dc-asgd|lc-asgd] [--workers N]
//!                [--scale tiny|small|paper] [--epochs N] [--seed N]
//!                [--bn regular|async] [--dataset cifar|imagenet]
//!                [--partitioned] [--stragglers]
//!                [--checkpoint PATH] [--checkpoint-every N]
//!                [--fault-plan PATH] [--resume PATH]
//!                [--trace PATH] [--trace-format chrome|prometheus|summary]
//!                [--staleness-bound N] [--admission reject|clip|requeue]
//!                [--fallback auto|off] [--health-log PATH]
//!                [--standby] [--flush-every N] [--lease-ms N]
//!                [--shards N] [--wire-codec f32|bf16|int8]
//! lcasgd staleness [--workers N] [--seed N] [--stragglers]
//! lcasgd help
//! ```
//!
//! `train` runs one experiment and prints the learning curve;
//! `staleness` profiles the cluster simulator's staleness distribution
//! without any model computation.
//!
//! `--checkpoint`, `--fault-plan`, `--resume`, and `--trace` switch the
//! run to the real-thread cluster backend: `--checkpoint PATH` writes a
//! full training checkpoint every `--checkpoint-every` updates (default:
//! once per epoch), `--fault-plan PATH` injects the crash/drop/delay
//! schedule described by the text file, and `--resume PATH` continues a
//! run from a previously written checkpoint.
//!
//! `--trace PATH` records a phase-tagged span timeline of the run and
//! writes it to `PATH` in the format chosen by `--trace-format`:
//! `chrome` (default; load the file in `chrome://tracing` or Perfetto),
//! `prometheus` (text exposition of phase totals, staleness histogram,
//! and transport counters), or `summary` (a per-epoch phase breakdown
//! table).
//!
//! The supervisor flags arm the self-healing training supervisor:
//! `--staleness-bound N` caps the accepted staleness at `N` under the
//! `--admission` policy, `--fallback auto|off` enables or freezes the
//! graded LC-ASGD → DC-ASGD → ASGD fallback ladder (default: auto), and
//! `--health-log PATH` writes the run's health event log to `PATH`.
//! Any supervisor flag also routes the run through the thread cluster.
//!
//! `--standby` attaches a hot-standby replica of the parameter server:
//! every applied update streams to a warm mirror as write-ahead log
//! records, one per model shard, flushed as one acknowledged batch at the
//! first update boundary at or after `--flush-every` records (default 4;
//! a kill loses fewer than that many), the primary's write lease lasts
//! `--lease-ms` milliseconds (default 500), and a fault plan with a
//! `primary-kill at-update=N` line promotes the standby in place of the
//! killed primary with a bumped fencing epoch. Asynchronous algorithms
//! only.
//!
//! `--shards N` partitions the parameter server into `N` model shards:
//! each shard owns a contiguous range of the flat weight vector with its
//! own version counter and DC-ASGD backups, and workers fan each pull
//! and push out across the owning shards. `--shards 1` (the default) is
//! bitwise identical to the unsharded protocol. Asynchronous algorithms
//! only; routes the run through the thread cluster backend.
//!
//! `--wire-codec f32|bf16|int8` picks the wire precision for the
//! pull/push exchange: `f32` (the default) is the lossless seed
//! encoding, `bf16` halves both directions (weights as bf16 halves,
//! gradients through the bf16 error-feedback scheme), and `int8`
//! quarters them (block-scaled int8 weights, 8-bit uniform quantization
//! with error feedback on the gradients). Routes the run through the
//! thread cluster backend, whose lossy effect is identical to the TCP
//! transport's.

use lc_asgd::core::config::DataPartition;
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{ClusterSim, ClusterSpec};
use std::path::PathBuf;
use std::process::exit;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(|s| s.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {name}: {v}");
                exit(2)
            }),
            None => default,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  lcasgd train [--algorithm sgd|ssgd|asgd|dc-asgd|lc-asgd] [--workers N]\n               [--scale tiny|small|paper] [--epochs N] [--seed N]\n               [--bn regular|async] [--dataset cifar|imagenet]\n               [--partitioned] [--stragglers]\n               [--checkpoint PATH] [--checkpoint-every N]\n               [--fault-plan PATH] [--resume PATH]\n               [--trace PATH] [--trace-format chrome|prometheus|summary]\n               [--staleness-bound N] [--admission reject|clip|requeue]\n               [--fallback auto|off] [--health-log PATH]\n               [--standby] [--flush-every N] [--lease-ms N]\n               [--shards N] [--wire-codec f32|bf16|int8]\n  lcasgd staleness [--workers N] [--seed N] [--stragglers]"
    );
    exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else { usage() };
    let args = Args(argv[1..].to_vec());
    match cmd.as_str() {
        "train" => train(&args),
        "staleness" => staleness(&args),
        _ => usage(),
    }
}

/// Builds the supervisor configuration when any supervisor flag is
/// present; `None` leaves the run unsupervised. `--health-log` alone is
/// enough to arm the supervisor with its defaults.
fn supervisor_config(args: &Args, health_log: bool) -> Option<SupervisorConfig> {
    let bound = args.value("--staleness-bound").map(|v| {
        v.parse::<u32>().unwrap_or_else(|_| {
            eprintln!("invalid value for --staleness-bound: {v}");
            exit(2)
        })
    });
    let admission = args.value("--admission").map(|v| match v {
        "reject" => AdmissionPolicy::Reject,
        "clip" => AdmissionPolicy::Clip,
        "requeue" => AdmissionPolicy::Requeue,
        other => {
            eprintln!("unknown admission policy: {other} (want reject|clip|requeue)");
            exit(2)
        }
    });
    let fallback = args.value("--fallback").map(|v| match v {
        "auto" => true,
        "off" => false,
        other => {
            eprintln!("unknown fallback mode: {other} (want auto|off)");
            exit(2)
        }
    });
    if bound.is_none() && admission.is_none() && fallback.is_none() && !health_log {
        return None;
    }
    let mut cfg = SupervisorConfig { staleness_bound: bound, ..SupervisorConfig::default() };
    if let Some(policy) = admission {
        cfg.admission = policy;
    }
    if let Some(enabled) = fallback {
        cfg.fallback = enabled;
    }
    Some(cfg)
}

fn train(args: &Args) {
    let algorithm = match args.value("--algorithm").unwrap_or("lc-asgd") {
        "sgd" => Algorithm::Sgd,
        "ssgd" => Algorithm::Ssgd,
        "asgd" => Algorithm::Asgd,
        "dc-asgd" => Algorithm::DcAsgd,
        "lc-asgd" => Algorithm::LcAsgd,
        other => {
            eprintln!("unknown algorithm: {other}");
            exit(2)
        }
    };
    let scale = match args.value("--scale").unwrap_or("tiny") {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        other => {
            eprintln!("unknown scale: {other}");
            exit(2)
        }
    };
    let workers: usize = args.parse("--workers", 8);
    let seed: u64 = args.parse("--seed", 2020);
    let dataset = args.value("--dataset").unwrap_or("cifar").to_string();

    // Dataset + model matching the bench scenarios' spirit.
    let hw = if dataset == "imagenet" { scale.imagenet_hw() } else { scale.cifar_hw() };
    let (spec, classes) = if dataset == "imagenet" {
        (
            SyntheticImageSpec::imagenet_like(
                16,
                hw,
                hw,
                scale.cifar_train_per_class(),
                scale.cifar_test_per_class(),
            ),
            16,
        )
    } else {
        (
            SyntheticImageSpec::cifar10_like(
                hw,
                hw,
                scale.cifar_train_per_class(),
                scale.cifar_test_per_class(),
            ),
            10,
        )
    };
    let (train_set, test_set) = spec.generate();
    let resnet = match scale {
        Scale::Paper if dataset == "imagenet" => ResNetConfig::resnet50_like(classes),
        Scale::Paper => ResNetConfig::resnet18_cifar(classes),
        _ => ResNetConfig::tiny(3, classes),
    };
    let build = |rng: &mut Rng| resnet.build(rng);

    let mut cfg = ExperimentConfig::new(algorithm, workers, scale, seed);
    if dataset == "imagenet" {
        cfg = cfg.imagenet(scale);
    }
    cfg.epochs = args.parse("--epochs", cfg.epochs);
    if args.value("--bn") == Some("regular") {
        cfg.bn_mode = BnMode::Regular;
    }
    if args.flag("--partitioned") {
        cfg.partition = DataPartition::Partitioned;
    }
    if args.flag("--stragglers") {
        cfg.cluster = ClusterSpec::with_stragglers(workers.max(1), seed);
    }

    let fault_plan = args.value("--fault-plan").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read fault plan {path}: {e}");
            exit(2)
        });
        FaultPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("invalid fault plan {path}: {e}");
            exit(2)
        })
    });
    let resume = args.value("--resume").map(|path| {
        TrainingCheckpoint::load(path).unwrap_or_else(|e| {
            eprintln!("cannot load checkpoint {path}: {e}");
            exit(2)
        })
    });
    let checkpoint_path = args.value("--checkpoint").map(PathBuf::from);
    let trace_path = args.value("--trace").map(PathBuf::from);
    let trace_format: TraceFormat = args.parse("--trace-format", TraceFormat::Chrome);
    let health_log = args.value("--health-log").map(PathBuf::from);
    let supervisor = supervisor_config(args, health_log.is_some());
    let standby = args.flag("--standby").then(|| StandbyConfig {
        flush_every: args.parse("--flush-every", StandbyConfig::default().flush_every),
        lease: std::time::Duration::from_millis(args.parse("--lease-ms", 500)),
    });
    let shards: usize = args.parse("--shards", 1);
    if shards == 0 {
        eprintln!("--shards must be at least 1");
        exit(2);
    }
    let wire_codec = args.value("--wire-codec").map(|v| {
        lc_asgd::simcluster::WireCodec::parse(v).unwrap_or_else(|| {
            eprintln!("invalid value for --wire-codec: {v} (expected f32, bf16 or int8)");
            exit(2)
        })
    });
    // Any robustness or observability flag routes the run through the
    // real-thread cluster backend; the default path is the simulator.
    let cluster_run = fault_plan.is_some()
        || resume.is_some()
        || checkpoint_path.is_some()
        || trace_path.is_some()
        || supervisor.is_some()
        || standby.is_some()
        || shards > 1
        || wire_codec.is_some();
    if fault_plan.is_some() && matches!(algorithm, Algorithm::Sgd | Algorithm::Ssgd) {
        eprintln!("--fault-plan requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)");
        exit(2);
    }
    if supervisor.is_some() && matches!(algorithm, Algorithm::Sgd | Algorithm::Ssgd) {
        eprintln!("the supervisor requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)");
        exit(2);
    }
    if standby.is_some() && matches!(algorithm, Algorithm::Sgd | Algorithm::Ssgd) {
        eprintln!("--standby requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)");
        exit(2);
    }
    if shards > 1 && matches!(algorithm, Algorithm::Sgd | Algorithm::Ssgd) {
        eprintln!("--shards requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)");
        exit(2);
    }

    println!(
        "training {algorithm} on {dataset}-like data: {} train / {} test, M={workers}, {} epochs",
        train_set.len(),
        test_set.len(),
        cfg.epochs
    );
    let result = if cluster_run {
        let mut backend = match &fault_plan {
            Some(plan) => ThreadCluster::new(workers.max(1)).with_fault_plan(plan.clone()),
            None => ThreadCluster::new(workers.max(1)),
        };
        if let Some(codec) = wire_codec {
            backend = backend.with_wire_codec(codec);
        }
        let opts = RunOptions {
            fault_plan,
            checkpoint_path: checkpoint_path.clone(),
            checkpoint_every: args.parse("--checkpoint-every", 0),
            resume,
            trace: trace_path.is_some(),
            supervisor,
            standby,
            shards,
        };
        run_cluster_with(backend, &cfg, &build, &train_set, &test_set, opts).unwrap_or_else(|e| {
            eprintln!("cluster run failed: {e}");
            exit(1)
        })
    } else {
        run_experiment(&cfg, &build, &train_set, &test_set)
    };
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "epoch", "train err", "test err", "loss", "t (s)"
    );
    for e in &result.epochs {
        println!(
            "{:>6} {:>9.2}% {:>9.2}% {:>10.4} {:>10.2}",
            e.epoch,
            e.train_error * 100.0,
            e.test_error * 100.0,
            e.train_loss,
            e.time
        );
    }
    // `total_time` is measured on the backend's clock: virtual seconds on
    // the discrete-event simulator, wall seconds on real backends.
    println!(
        "\nfinal test error {:.2}% | mean staleness {:.2} (p95 {}) | {} updates in {:.1} {} s",
        result.final_test_error() * 100.0,
        result.mean_staleness(),
        result.staleness_quantile(0.95),
        result.iterations,
        result.total_time,
        result.clock
    );
    if let Some(o) = &result.overhead {
        println!(
            "predictor overhead: loss {:.2} ms + step {:.2} ms per iteration (measured)",
            o.avg_loss_pred_ms(),
            o.avg_step_pred_ms()
        );
    }

    if let Some(f) = &result.faults {
        println!(
            "faults: {} injected ({} crashes), {} worker restarts | staleness p99 {}",
            f.injected(),
            f.crashes(),
            f.worker_restarts(),
            result.staleness_quantile(0.99)
        );
        if f.resumed_at > 0 {
            println!("resumed from checkpoint at update {}", f.resumed_at);
        }
        if f.server_halted {
            println!("server halted at the planned restart point; rerun with --resume to continue");
        }
    }
    if result.shards > 1 {
        println!("parameter server sharded across {} model shards", result.shards);
    }
    if let Some(r) = &result.replication {
        println!("{}", r.to_text());
    }
    if let Some(h) = &result.health {
        println!(
            "supervisor: {} quarantines, {} rollbacks, {} demotions, {} promotions, {} rejected, {} reshards",
            h.quarantines(),
            h.rollbacks(),
            h.demotions(),
            h.promotions(),
            h.rejected(),
            h.reshards()
        );
        if let Some(path) = &health_log {
            let mut text = h.to_text();
            if text.is_empty() {
                text.push_str("healthy: no supervisor events\n");
            }
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write health log to {}: {e}", path.display());
                exit(1);
            }
            println!("health log written to {}", path.display());
        }
    }
    if let Some(path) = &checkpoint_path {
        println!("training checkpoints written to {}", path.display());
    }
    if let Some(path) = &trace_path {
        match lc_asgd::core::trace::export(&result, trace_format) {
            Some(text) => {
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("cannot write trace to {}: {e}", path.display());
                    exit(1);
                }
                println!("{trace_format} trace written to {}", path.display());
            }
            None => eprintln!("no timeline was recorded; trace not written"),
        }
    }
}

fn staleness(args: &Args) {
    let workers: usize = args.parse("--workers", 16);
    let seed: u64 = args.parse("--seed", 2020);
    let spec = if args.flag("--stragglers") {
        ClusterSpec::with_stragglers(workers, seed)
    } else {
        ClusterSpec::heterogeneous(workers, seed)
    };
    // Pure timing profile: replay the ASGD message pattern with no model.
    let mut sim: ClusterSim<u64> = ClusterSim::new(spec);
    let mut version = 0u64;
    let mut pulled = vec![0u64; workers];
    let mut samples = Vec::new();
    for (w, p) in pulled.iter_mut().enumerate() {
        *p = version;
        sim.submit(w, 0.0, 0.032, w as u64);
    }
    for _ in 0..workers * 200 {
        let arr = sim.next_arrival().expect("queue");
        samples.push((version - pulled[arr.worker]) as u32);
        version += 1;
        let down = sim.downlink(arr.worker);
        pulled[arr.worker] = version;
        sim.submit(arr.worker, arr.time + down, 0.032, arr.payload);
    }
    samples.sort_unstable();
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    println!(
        "staleness over {} simulated updates (M={workers}): mean {:.2}, p50 {}, p90 {}, p99 {}, max {}",
        samples.len(),
        samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64,
        q(0.5),
        q(0.9),
        q(0.99),
        samples.last().unwrap()
    );
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn args(s: &[&str]) -> Args {
        Args(s.iter().map(|x| x.to_string()).collect())
    }

    #[test]
    fn flags_and_values() {
        let a = args(&["--workers", "8", "--stragglers"]);
        assert!(a.flag("--stragglers"));
        assert!(!a.flag("--partitioned"));
        assert_eq!(a.value("--workers"), Some("8"));
        assert_eq!(a.value("--seed"), None);
    }

    #[test]
    fn parse_with_default() {
        let a = args(&["--workers", "12"]);
        assert_eq!(a.parse::<usize>("--workers", 4), 12);
        assert_eq!(a.parse::<usize>("--epochs", 10), 10);
    }

    #[test]
    fn value_at_end_without_payload_is_none() {
        let a = args(&["--checkpoint"]);
        assert_eq!(a.value("--checkpoint"), None);
    }

    #[test]
    fn supervisor_flags_build_a_config() {
        use lc_asgd::prelude::AdmissionPolicy;
        let a = args(&["--staleness-bound", "6", "--admission", "clip", "--fallback", "off"]);
        let sc = super::supervisor_config(&a, false).expect("flags arm the supervisor");
        assert_eq!(sc.staleness_bound, Some(6));
        assert!(matches!(sc.admission, AdmissionPolicy::Clip));
        assert!(!sc.fallback);
        // No supervisor flags and no health log: unsupervised run.
        assert!(super::supervisor_config(&args(&[]), false).is_none());
        // A health log alone arms the defaults.
        let sc = super::supervisor_config(&args(&[]), true).expect("health log arms defaults");
        assert_eq!(sc.staleness_bound, None);
        assert!(sc.fallback);
    }
}
