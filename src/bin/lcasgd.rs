//! `lcasgd` — command-line front end for the LC-ASGD library.
//!
//! ```text
//! lcasgd train   [--algorithm sgd|ssgd|asgd|dc-asgd|lc-asgd] [--workers N]
//!                [--scale tiny|small|paper] [--epochs N] [--seed N]
//!                [--bn regular|async] [--dataset cifar|imagenet] [--partitioned]
//!                [--checkpoint PATH] [--checkpoint-every N]
//!                [--fault-plan PATH] [--resume PATH]
//!                [--trace PATH] [--staleness-bound N] [--health-log PATH]
//!                [--standby] [--flush-every N]
//!                [--shards N] [--wire-codec f32|bf16|int8]
//! lcasgd help
//! ```
//!
//! `train` runs one experiment and prints the learning curve; `help` (or
//! `--help`) prints the usage above. A flag `train` does not know exits 2
//! and names the flag; so does a flag given twice, a flag whose value is
//! another flag (`--trace --standby`), a flag given without the flag it needs
//! (`--checkpoint-every` without `--checkpoint`, `--flush-every` without
//! `--standby`), naming both, and a value outside a flag's set above (or a
//! `--workers`, `--epochs` or `--shards` of 0), naming the flag and the
//! value.
//!
//! `--checkpoint`, `--fault-plan`, `--resume`, and `--trace` switch the
//! run to the real-thread cluster backend: `--checkpoint PATH` writes a
//! full training checkpoint every `--checkpoint-every` updates (default:
//! once per epoch), `--fault-plan PATH` injects the crash/drop/delay
//! schedule described by the text file, and `--resume PATH` continues a
//! run from a previously written checkpoint.
//!
//! `--trace PATH` records a phase-tagged span timeline of the run and
//! writes it to `PATH` as Chrome `trace_event` JSON (load the file in
//! `chrome://tracing` or Perfetto).
//!
//! The supervisor flags arm the self-healing training supervisor, with
//! its graded LC-ASGD → DC-ASGD → ASGD fallback ladder:
//! `--staleness-bound N` drops every gradient pushed more than `N`
//! updates stale, and `--health-log PATH` writes the run's health event
//! log to `PATH`. Either flag also routes the run through the thread
//! cluster.
//!
//! `--standby` attaches a hot-standby replica of the parameter server:
//! every applied update streams to a warm mirror as write-ahead log
//! records, one per model shard, flushed as one acknowledged batch at the
//! first update boundary at or after `--flush-every` records (default 4;
//! a kill loses fewer than that many), and a fault plan with a
//! `primary-kill at-update=N` line promotes the standby in place of the
//! killed primary with a bumped fencing epoch. Asynchronous algorithms
//! only.
//!
//! `--shards N` splits the pulls and pushes into `N` model shards: each
//! shard is a contiguous range of the server's one flat weight vector,
//! and workers fan each pull and push out across the shards. `--shards
//! 1` (the default) is bitwise identical to the unsharded protocol.
//! Asynchronous algorithms only; routes the run through the thread
//! cluster backend.
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
use std::path::PathBuf;
use std::process::exit;

/// `train`'s flags that take a value.
const TRAIN_VALUES: &[&str] = &[
    "--algorithm",
    "--workers",
    "--scale",
    "--epochs",
    "--seed",
    "--bn",
    "--dataset",
    "--checkpoint",
    "--checkpoint-every",
    "--fault-plan",
    "--resume",
    "--trace",
    "--staleness-bound",
    "--health-log",
    "--flush-every",
    "--shards",
    "--wire-codec",
];

/// `train`'s flags that stand alone.
const TRAIN_SWITCHES: &[&str] = &["--partitioned", "--standby"];

/// `train`'s flags that do nothing without another: (flag, flag it needs).
const TRAIN_NEEDS: &[(&str, &str)] =
    &[("--checkpoint-every", "--checkpoint"), ("--flush-every", "--standby")];

const USAGE: &str = "usage:
  lcasgd train [--algorithm sgd|ssgd|asgd|dc-asgd|lc-asgd] [--workers N]
               [--scale tiny|small|paper] [--epochs N] [--seed N]
               [--bn regular|async] [--dataset cifar|imagenet] [--partitioned]
               [--checkpoint PATH] [--checkpoint-every N]
               [--fault-plan PATH] [--resume PATH]
               [--trace PATH] [--staleness-bound N] [--health-log PATH]
               [--standby] [--flush-every N]
               [--shards N] [--wire-codec f32|bf16|int8]
  lcasgd help";

struct Args(Vec<String>);

impl Args {
    /// What is wrong with the arguments, as the message to exit with: an
    /// argument that is no flag of `switches` or `values` (a misspelt flag
    /// would run with the defaults), a flag given twice, or a value that is
    /// itself a flag (`--trace --standby` would trace to a file `--standby`).
    fn misparse(&self, values: &[&str], switches: &[&str]) -> Option<String> {
        let mut seen = Vec::new();
        let mut args = self.0.iter().map(String::as_str);
        while let Some(a) = args.next() {
            if !values.contains(&a) && !switches.contains(&a) {
                return Some(format!("unknown argument for train: {a}"));
            }
            if seen.contains(&a) {
                return Some(format!("{a} is given twice"));
            }
            seen.push(a);
            let value = if values.contains(&a) { args.next() } else { None };
            if let Some(v) = value.filter(|v| v.starts_with("--")) {
                return Some(format!("{a} takes a value, not the flag {v}"));
            }
        }
        None
    }

    /// The first of `needs`' flags that is given without the flag it
    /// needs, which would otherwise be silently ignored.
    fn unmet<'a>(&self, needs: &[(&'a str, &'a str)]) -> Option<(&'a str, &'a str)> {
        needs.iter().copied().find(|&(flag, needed)| self.flag(flag) && !self.flag(needed))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(|s| s.as_str())
    }

    /// `name`'s value, which must be one of `choices`; the first is the
    /// default.
    fn one_of<'a>(&self, name: &str, choices: &[&'a str]) -> Result<&'a str, String> {
        let Some(v) = self.value(name) else { return Ok(choices[0]) };
        choices.iter().copied().find(|&c| c == v).ok_or_else(|| {
            format!("invalid value for {name}: {v} (expected one of {})", choices.join(", "))
        })
    }

    /// `name`'s value as a count of at least 1.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name).map(|v| (v, v.parse())) {
            None => Ok(default),
            Some((v, Ok(0))) => Err(format!("invalid value for {name}: {v} (expected at least 1)")),
            Some((_, Ok(n))) => Ok(n),
            Some((v, Err(_))) => Err(format!("invalid value for {name}: {v}")),
        }
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

/// The value of a checked flag, or exit 2 with its message.
fn or_exit<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args(argv.get(1..).unwrap_or_default().to_vec());
    match argv.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => println!("{USAGE}"),
        Some("train") => {
            if let Some(error) = args.misparse(TRAIN_VALUES, TRAIN_SWITCHES) {
                eprintln!("{error}\n{USAGE}");
                exit(2)
            }
            if let Some((flag, needed)) = args.unmet(TRAIN_NEEDS) {
                eprintln!("{flag} has no effect without {needed}\n{USAGE}");
                exit(2)
            }
            train(&args)
        }
        _ => {
            eprintln!("{USAGE}");
            exit(2)
        }
    }
}

/// Builds the supervisor configuration when any supervisor flag is
/// present; `None` leaves the run unsupervised. `--health-log` alone is
/// enough to arm the supervisor with its defaults.
fn supervisor_config(args: &Args, health_log: bool) -> Option<SupervisorConfig> {
    let bound = args.value("--staleness-bound").map(|_| args.parse("--staleness-bound", 0));
    if bound.is_none() && !health_log {
        return None;
    }
    Some(SupervisorConfig { staleness_bound: bound, ..SupervisorConfig::default() })
}

fn train(args: &Args) {
    let algorithm =
        match or_exit(args.one_of("--algorithm", &["lc-asgd", "sgd", "ssgd", "asgd", "dc-asgd"])) {
            "sgd" => Algorithm::Sgd,
            "ssgd" => Algorithm::Ssgd,
            "asgd" => Algorithm::Asgd,
            "dc-asgd" => Algorithm::DcAsgd,
            _ => Algorithm::LcAsgd,
        };
    let scale = match or_exit(args.one_of("--scale", &["tiny", "small", "paper"])) {
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        _ => Scale::Tiny,
    };
    let workers = or_exit(args.count("--workers", 8));
    let seed: u64 = args.parse("--seed", 2020);
    let dataset = or_exit(args.one_of("--dataset", &["cifar", "imagenet"]));

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
    cfg.epochs = or_exit(args.count("--epochs", cfg.epochs));
    if or_exit(args.one_of("--bn", &["async", "regular"])) == "regular" {
        cfg.bn_mode = BnMode::Regular;
    }
    if args.flag("--partitioned") {
        cfg.partition = DataPartition::Partitioned;
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
    let health_log = args.value("--health-log").map(PathBuf::from);
    let supervisor = supervisor_config(args, health_log.is_some());
    let standby = args.flag("--standby").then(|| StandbyConfig {
        flush_every: args.parse("--flush-every", StandbyConfig::default().flush_every),
    });
    let shards = or_exit(args.count("--shards", 1));
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
    // What only the asynchronous algorithms run: (given, what it is).
    let async_only = [
        (fault_plan.is_some(), "--fault-plan"),
        (supervisor.is_some(), "the supervisor"),
        (standby.is_some(), "--standby"),
        (shards > 1, "--shards"),
    ];
    if let Some((_, what)) = async_only.iter().find(|(given, _)| *given) {
        if matches!(algorithm, Algorithm::Sgd | Algorithm::Ssgd) {
            eprintln!("{what} requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)");
            exit(2);
        }
    }

    println!(
        "training {algorithm} on {dataset}-like data: {} train / {} test, M={workers}, {} epochs",
        train_set.len(),
        test_set.len(),
        cfg.epochs
    );
    let result = if cluster_run {
        let mut backend = match &fault_plan {
            Some(plan) => ThreadCluster::new(workers).with_fault_plan(plan.clone()),
            None => ThreadCluster::new(workers),
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
        match &result.timeline {
            Some(log) => {
                if let Err(e) = std::fs::write(path, log.to_chrome_json()) {
                    eprintln!("cannot write trace to {}: {e}", path.display());
                    exit(1);
                }
                println!("chrome trace written to {}", path.display());
            }
            None => eprintln!("no timeline was recorded; trace not written"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Args, TRAIN_NEEDS, TRAIN_SWITCHES, TRAIN_VALUES, USAGE};

    fn args(s: &[&str]) -> Args {
        Args(s.iter().map(|x| x.to_string()).collect())
    }

    #[test]
    fn flags_and_values() {
        let a = args(&["--workers", "8", "--standby"]);
        assert!(a.flag("--standby"));
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
        let a = args(&["--staleness-bound", "6"]);
        let sc = super::supervisor_config(&a, false).expect("flags arm the supervisor");
        assert_eq!(sc.staleness_bound, Some(6));
        // No supervisor flags and no health log: unsupervised run.
        assert!(super::supervisor_config(&args(&[]), false).is_none());
        // A health log alone arms the defaults.
        let sc = super::supervisor_config(&args(&[]), true).expect("health log arms defaults");
        assert_eq!(sc.staleness_bound, None);
    }

    #[test]
    fn train_accepts_every_flag_it_reads() {
        let a = args(&[
            "--workers",
            "2",
            "--partitioned",
            "--trace",
            "t.json",
            "--standby",
            "--shards",
            "4",
        ]);
        assert_eq!(a.misparse(TRAIN_VALUES, TRAIN_SWITCHES), None);
        assert_eq!(args(&[]).misparse(TRAIN_VALUES, TRAIN_SWITCHES), None);
    }

    #[test]
    fn train_names_a_flag_it_does_not_read() {
        let misparse = |s: &[&str]| args(s).misparse(TRAIN_VALUES, TRAIN_SWITCHES);
        let unknown = |flag: &str| Some(format!("unknown argument for train: {flag}"));
        assert_eq!(misparse(&["--admission", "clip"]), unknown("--admission"));
        assert_eq!(misparse(&["--shard", "4"]), unknown("--shard"));
        assert_eq!(misparse(&["--epochs", "2", "--fallback", "off"]), unknown("--fallback"));
        assert_eq!(misparse(&["--standby", "4"]), unknown("4"));
        // A value that is a flag is refused, naming both, whether or not
        // `train` reads the second.
        assert_eq!(
            misparse(&["--trace", "--x.json"]).as_deref(),
            Some("--trace takes a value, not the flag --x.json")
        );
        assert_eq!(
            misparse(&["--trace", "--standby"]).as_deref(),
            Some("--trace takes a value, not the flag --standby")
        );
        // A value that merely starts with a dash is a value.
        assert_eq!(misparse(&["--trace", "-x.json"]), None);
    }

    #[test]
    fn train_names_a_flag_given_twice() {
        let misparse = |s: &[&str]| args(s).misparse(TRAIN_VALUES, TRAIN_SWITCHES);
        assert_eq!(
            misparse(&["--algorithm", "asgd", "--algorithm", "sgd", "--workers", "2"]).as_deref(),
            Some("--algorithm is given twice")
        );
        assert_eq!(
            misparse(&["--standby", "--standby"]).as_deref(),
            Some("--standby is given twice")
        );
        // A value equal to a flag's name later on is not a second flag.
        assert_eq!(misparse(&["--checkpoint", "c", "--resume", "c"]), None);
    }

    #[test]
    fn train_names_a_flag_without_the_flag_it_needs() {
        let unmet = |s: &[&str]| args(s).unmet(TRAIN_NEEDS);
        assert_eq!(unmet(&["--flush-every", "4"]), Some(("--flush-every", "--standby")));
        assert_eq!(
            unmet(&["--checkpoint-every", "5", "--standby"]),
            Some(("--checkpoint-every", "--checkpoint"))
        );
        assert_eq!(unmet(&["--standby", "--flush-every", "4"]), None);
        assert_eq!(unmet(&["--checkpoint", "c.ck", "--checkpoint-every", "5"]), None);
        assert_eq!(unmet(&[]), None);
        for (flag, needed) in TRAIN_NEEDS {
            assert!(TRAIN_VALUES.contains(flag), "{flag} is a flag train reads");
            assert!(TRAIN_VALUES.contains(needed) || TRAIN_SWITCHES.contains(needed), "{needed}");
        }
    }

    #[test]
    fn usage_lists_every_train_flag() {
        for flag in TRAIN_VALUES.iter().chain(TRAIN_SWITCHES) {
            assert!(USAGE.contains(&format!("[{flag}")), "usage misses {flag}");
        }
    }

    #[test]
    fn a_value_outside_its_set_names_the_flag_and_the_value() {
        let dataset = |s: &[&str]| args(s).one_of("--dataset", &["cifar", "imagenet"]);
        assert_eq!(dataset(&[]), Ok("cifar"));
        assert_eq!(dataset(&["--dataset", "imagenet"]), Ok("imagenet"));
        assert_eq!(
            dataset(&["--dataset", "foo"]),
            Err("invalid value for --dataset: foo (expected one of cifar, imagenet)".into())
        );
        let bn = args(&["--bn", "foo"]).one_of("--bn", &["async", "regular"]);
        assert!(bn.unwrap_err().starts_with("invalid value for --bn: foo"));
    }

    #[test]
    fn a_count_of_zero_names_the_flag_and_the_value() {
        assert_eq!(args(&[]).count("--workers", 8), Ok(8));
        assert_eq!(args(&["--workers", "3"]).count("--workers", 8), Ok(3));
        assert_eq!(
            args(&["--workers", "0"]).count("--workers", 8),
            Err("invalid value for --workers: 0 (expected at least 1)".into())
        );
        assert_eq!(
            args(&["--epochs", "0"]).count("--epochs", 2),
            Err("invalid value for --epochs: 0 (expected at least 1)".into())
        );
        assert_eq!(
            args(&["--shards", "x"]).count("--shards", 1),
            Err("invalid value for --shards: x".into())
        );
    }
}
