//! `lcasgd` — command-line front end for the LC-ASGD library.
//!
//! `lcasgd train [FLAG]...` runs one of the paper's two benchmarks — the
//! `Scenario` data, model and configuration `repro-all` runs — and prints
//! the learning curve. `lcasgd help` lists every flag with its help line.
//!
//! Each flag is declared once, as a row of `TRAIN`. The parser, the usage
//! text, the refusals and the choice of backend are all read from it. A
//! refused command line exits 2 with a message that names the flag.

use lc_asgd::core::config::DataPartition;
use lc_asgd::core::scenario::Scenario;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;
use std::collections::HashMap;
use std::process::exit;
use Kind::{Count, Number, OneOf, Path, Switch};

/// What a flag's value may be.
#[derive(Clone, Copy)]
enum Kind {
    /// No value.
    Switch,
    /// One of a set; the first is the default.
    OneOf(&'static [&'static str]),
    /// A count of at least 1. It takes effect above 1: one shard is none.
    Count,
    /// A non-negative integer.
    Number,
    /// A file path.
    Path,
}

/// One `train` flag: its name, what its value may be, what it needs and
/// does, and its help line.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The flag without which this one has no effect.
    needs: Option<&'static str>,
    /// Whether only the asynchronous algorithms run it.
    async_only: bool,
    /// Whether it moves the run from the simulator to the thread backend.
    threads: bool,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, kind, needs: None, async_only: false, threads: false, help }
}

impl Flag {
    const fn needs(self, flag: Flag) -> Flag {
        Flag { needs: Some(flag.name), ..self }
    }

    const fn async_only(self) -> Flag {
        Flag { async_only: true, ..self }
    }

    const fn threads(self) -> Flag {
        Flag { threads: true, ..self }
    }
}

/// Declares each row as a const `Flag`, and `TRAIN` as the table of all the
/// rows: a flag `train` reads is a flag it parses.
macro_rules! table {
    ($($id:ident = $row:expr;)*) => {
        $(const $id: Flag = $row;)*
        /// Every flag `train` reads, in the order `lcasgd help` lists them.
        const TRAIN: &[Flag] = &[$($id),*];
    };
}

table! {
    ALGORITHM = flag("--algorithm", OneOf(&["lc-asgd", "sgd", "ssgd", "asgd", "dc-asgd"]),
        "the algorithm");
    WORKERS = flag("--workers", Count, "the number of workers M (default 8)");
    SCALE = flag("--scale", OneOf(&["tiny", "small", "paper"]), "the data, model and epoch budget");
    EPOCHS = flag("--epochs", Count, "epochs to train (default: the scale's)");
    SEED = flag("--seed", Number, "the seed of data, model and run (default 2020)");
    BN = flag("--bn", OneOf(&["async", "regular"]), "Async-BN's blended statistics, or plain BN's");
    DATASET = flag("--dataset", OneOf(&["cifar", "imagenet"]), "the CIFAR-10- or ImageNet-like task");
    PARTITIONED = flag("--partitioned", Switch, "give each worker a disjoint part of the train set");
    CHECKPOINT = flag("--checkpoint", Path, "write full training checkpoints to PATH").threads();
    CHECKPOINT_EVERY = flag("--checkpoint-every", Number,
        "updates between checkpoints (default 0: each epoch)").needs(CHECKPOINT);
    FAULT_PLAN = flag("--fault-plan", Path, "inject the crash/drop/delay schedule in PATH")
        .async_only().threads();
    RESUME = flag("--resume", Path, "continue the run from the checkpoint at PATH").threads();
    TRACE = flag("--trace", Path, "write the run's timeline to PATH as Chrome trace JSON").threads();
    STALENESS_BOUND = flag("--staleness-bound", Number,
        "supervise the run; drop gradients over N updates stale").async_only().threads();
    HEALTH_LOG = flag("--health-log", Path, "supervise the run; write its health events to PATH")
        .async_only().threads();
    STANDBY = flag("--standby", Switch, "stream every update to a hot-standby server")
        .async_only().threads();
    FLUSH_EVERY = flag("--flush-every", Count, "log records per flush to the standby (default 4)")
        .needs(STANDBY);
    SHARDS = flag("--shards", Count, "split the model into N shards (default 1)")
        .async_only().threads();
    WIRE_CODEC = flag("--wire-codec", OneOf(&["f32", "bf16", "int8"]),
        "the precision pulls and pushes carry").threads();
}

/// `lcasgd help`'s text, generated from `TRAIN`.
fn usage() -> String {
    let mut text = String::from(
        "usage:\n  lcasgd train [FLAG]...   train and print the learning curve\n  lcasgd help\n\n\
         train's flags (a set's first value is its default):\n",
    );
    for f in TRAIN {
        let value = match f.kind {
            Switch => String::new(),
            OneOf(set) => format!(" {}", set.join("|")),
            Count | Number => " N".into(),
            Path => " PATH".into(),
        };
        let mut notes = f.needs.map_or(String::new(), |n| format!("; needs {n}"));
        if f.async_only {
            notes += "; async algorithms only";
        }
        if f.threads {
            notes += "; runs on threads";
        }
        text += &format!("  [{}{value}]\n        {}{notes}\n", f.name, f.help);
    }
    text
}

impl Kind {
    /// `v`, checked as the value of flag `name` of this kind.
    fn check(self, name: &str, v: Option<&String>) -> Result<String, String> {
        let v = v.ok_or_else(|| format!("{name} takes a value"))?;
        let invalid = |expected: String| Err(format!("invalid value for {name}: {v}{expected}"));
        match self {
            _ if v.starts_with("--") => Err(format!("{name} takes a value, not the flag {v}")),
            OneOf(set) if !set.contains(&v.as_str()) => {
                invalid(format!(" (expected one of {})", set.join(", ")))
            }
            Count if v.parse() == Ok(0usize) => invalid(" (expected at least 1)".into()),
            Count if v.parse::<usize>().is_err() => invalid(String::new()),
            Number if v.parse::<u64>().is_err() => invalid(String::new()),
            _ => Ok(v.clone()),
        }
    }
}

/// `train`'s command line, checked against `TRAIN`: each flag given, with
/// its value.
struct Args(HashMap<&'static str, Option<String>>);

impl Args {
    /// Reads `argv` in one pass, checking each argument against `TRAIN`;
    /// then checks each flag's need and, under SGD or SSGD, the async-only
    /// flags. The error is the refusal to exit 2 with, and names the flag.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args(HashMap::new());
        let mut argv = argv.iter();
        while let Some(a) = argv.next() {
            let Some(&flag) = TRAIN.iter().find(|f| f.name == a) else {
                return Err(format!("unknown argument for train: {a}"));
            };
            if args.given(flag) {
                return Err(format!("{a} is given twice"));
            }
            let value = match flag.kind {
                Switch => None,
                kind => Some(kind.check(a, argv.next())?),
            };
            args.0.insert(flag.name, value);
        }
        for f in TRAIN.iter().filter(|&&f| args.given(f)) {
            if let Some(needed) = f.needs.filter(|n| !args.0.contains_key(n)) {
                return Err(format!("{} has no effect without {needed}", f.name));
            }
        }
        let sync = matches!(args.one_of(ALGORITHM), "sgd" | "ssgd");
        match TRAIN.iter().find(|&&f| sync && f.async_only && args.in_effect(f)) {
            Some(f) => Err(format!(
                "{} requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)",
                f.name
            )),
            None => Ok(args),
        }
    }

    fn given(&self, f: Flag) -> bool {
        self.0.contains_key(f.name)
    }

    fn value(&self, f: Flag) -> Option<&str> {
        self.0.get(f.name)?.as_deref()
    }

    /// Whether `f` changes the run: it is given, and a count is above 1.
    fn in_effect(&self, f: Flag) -> bool {
        self.given(f) && !matches!(f.kind, Count if self.count(f, 1usize) == 1)
    }

    /// Whether a flag in effect moves the run to the thread backend.
    fn on_threads(&self) -> bool {
        TRAIN.iter().any(|&f| f.threads && self.in_effect(f))
    }

    /// A set flag's value, or its default.
    fn one_of(&self, f: Flag) -> &str {
        let OneOf(set) = f.kind else { panic!("{} is no set flag", f.name) };
        self.value(f).unwrap_or(set[0])
    }

    /// A count flag's value, or `default`.
    fn count<T: std::str::FromStr>(&self, f: Flag, default: T) -> T {
        self.value(f).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A number flag's value as a `T`, if given; a number `T` cannot hold
    /// is refused.
    fn number<T: std::str::FromStr>(&self, f: Flag) -> Option<T> {
        let v = self.value(f)?;
        Some(v.parse().unwrap_or_else(|_| fail(2, &format!("invalid value for {}: {v}", f.name))))
    }
}

/// Prints `error` and exits with `code`.
fn fail(code: i32, error: &str) -> ! {
    eprintln!("{error}");
    exit(code)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => println!("{}", usage()),
        Some("train") => match Args::parse(&argv[1..]) {
            Ok(args) => train(&args),
            Err(refusal) => fail(2, &format!("{refusal}\n{}", usage())),
        },
        _ => fail(2, &usage()),
    }
}

/// The supervisor's configuration when a supervisor flag is given; `None`
/// leaves the run unsupervised. A health log alone arms the defaults.
fn supervisor_config(args: &Args) -> Option<SupervisorConfig> {
    let bound = args.number(STALENESS_BOUND);
    let armed = bound.is_some() || args.given(HEALTH_LOG);
    armed.then(|| SupervisorConfig { staleness_bound: bound, ..SupervisorConfig::default() })
}

/// Writes `text` to `path` as the run's `what`, or exits 1.
fn write(path: &str, what: &str, text: String) {
    if let Err(e) = std::fs::write(path, text) {
        fail(1, &format!("cannot write {what} to {path}: {e}"));
    }
    println!("{what} written to {path}");
}

fn train(args: &Args) {
    let name = args.one_of(ALGORITHM);
    let algorithm = Algorithm::ALL.into_iter().find(|a| a.name().eq_ignore_ascii_case(name));
    let algorithm = algorithm.expect("the algorithm set holds the algorithms' names");
    let scale = match args.one_of(SCALE) {
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        _ => Scale::Tiny,
    };
    let workers = args.count(WORKERS, 8);
    let seed = args.number(SEED).unwrap_or(2020);
    let dataset = args.one_of(DATASET);
    let scenario =
        if dataset == "imagenet" { Scenario::imagenet(scale) } else { Scenario::cifar(scale) };
    let build = |rng: &mut Rng| scenario.build_model(rng);
    let mut cfg = scenario.config(algorithm, workers, seed);
    cfg.epochs = args.count(EPOCHS, cfg.epochs);
    if args.one_of(BN) == "regular" {
        cfg.bn_mode = BnMode::Regular;
    }
    if args.given(PARTITIONED) {
        cfg.partition = DataPartition::Partitioned;
    }
    // Read before the run starts, so that a bad file is refused before any output.
    let opts = args.on_threads().then(|| RunOptions {
        fault_plan: args.value(FAULT_PLAN).map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(2, &format!("cannot read fault plan {path}: {e}")));
            FaultPlan::parse(&text)
                .unwrap_or_else(|e| fail(2, &format!("invalid fault plan {path}: {e}")))
        }),
        checkpoint_path: args.value(CHECKPOINT).map(Into::into),
        checkpoint_every: args.number(CHECKPOINT_EVERY).unwrap_or(0),
        resume: args.value(RESUME).map(|path| {
            TrainingCheckpoint::load(path)
                .unwrap_or_else(|e| fail(2, &format!("cannot load checkpoint {path}: {e}")))
        }),
        trace: args.given(TRACE),
        supervisor: supervisor_config(args),
        standby: args.given(STANDBY).then(|| StandbyConfig {
            flush_every: args.count(FLUSH_EVERY, StandbyConfig::default().flush_every),
        }),
        shards: args.count(SHARDS, 1),
    });
    println!(
        "training {algorithm} on {dataset}-like data: {} train / {} test, M={workers}, {} epochs",
        scenario.train.len(),
        scenario.test.len(),
        cfg.epochs
    );
    let result = match opts {
        Some(opts) => {
            let mut backend = ThreadCluster::new(workers);
            if let Some(plan) = &opts.fault_plan {
                backend = backend.with_fault_plan(plan.clone());
            }
            if let Some(codec) = args.value(WIRE_CODEC).and_then(WireCodec::parse) {
                backend = backend.with_wire_codec(codec);
            }
            run_cluster_with(backend, &cfg, &build, &scenario.train, &scenario.test, opts)
                .unwrap_or_else(|e| fail(1, &format!("cluster run failed: {e}")))
        }
        None => run_experiment(&cfg, &build, &scenario.train, &scenario.test),
    };
    println!(" epoch  train err   test err       loss      t (s)");
    for e in &result.epochs {
        let (train, test) = (e.train_error * 100.0, e.test_error * 100.0);
        println!(
            "{:>6} {train:>9.2}% {test:>9.2}% {:>10.4} {:>10.2}",
            e.epoch, e.train_loss, e.time
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
        let (loss, step) = (o.avg_loss_pred_ms(), o.avg_step_pred_ms());
        println!(
            "predictor overhead: loss {loss:.2} ms + step {step:.2} ms per iteration (measured)"
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
            let resume = RESUME.name;
            println!("server halted at the planned restart point; rerun with {resume} to continue");
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
        if let Some(path) = args.value(HEALTH_LOG) {
            let mut text = h.to_text();
            if text.is_empty() {
                text.push_str("healthy: no supervisor events\n");
            }
            write(path, "health log", text);
        }
    }
    if let Some(path) = args.value(CHECKPOINT) {
        println!("training checkpoints written to {path}");
    }
    if let Some(path) = args.value(TRACE) {
        match &result.timeline {
            Some(log) => write(path, "chrome trace", log.to_chrome_json()),
            None => eprintln!("no timeline was recorded; trace not written"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{supervisor_config, usage, Args, Flag, Kind, TRAIN};

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    fn args(s: &[&str]) -> Args {
        parse(s).unwrap_or_else(|e| panic!("{s:?} is refused: {e}"))
    }

    /// What `train` refuses `s` with; empty if it accepts it.
    fn refusal(s: &[&str]) -> String {
        parse(s).err().unwrap_or_default()
    }

    fn row(name: &str) -> Flag {
        *TRAIN.iter().find(|f| f.name == name).expect("a train flag")
    }

    #[test]
    fn flags_and_values() {
        let a = args(&["--workers", "8", "--standby"]);
        assert!(a.given(row("--standby")));
        assert!(!a.given(row("--partitioned")));
        assert_eq!(a.value(row("--workers")), Some("8"));
        assert_eq!(a.value(row("--seed")), None);
    }

    #[test]
    fn parse_with_default() {
        let a = args(&["--workers", "12", "--seed", "7"]);
        assert_eq!(a.count(row("--workers"), 4), 12);
        assert_eq!(a.count(row("--epochs"), 10), 10);
        assert_eq!(a.number::<u64>(row("--seed")), Some(7));
        assert_eq!(a.number::<usize>(row("--checkpoint-every")), None);
    }

    #[test]
    fn value_at_end_without_payload_is_none() {
        // It is refused, not run as if the flag were absent.
        assert_eq!(refusal(&["--checkpoint"]), "--checkpoint takes a value");
    }

    #[test]
    fn a_value_flag_given_last_is_refused() {
        let trace = refusal(&["--algorithm", "sgd", "--workers", "1", "--epochs", "1", "--trace"]);
        assert_eq!(trace, "--trace takes a value");
        for f in TRAIN.iter().filter(|f| !matches!(f.kind, Kind::Switch)) {
            assert_eq!(refusal(&["--partitioned", f.name]), format!("{} takes a value", f.name));
        }
    }

    #[test]
    fn supervisor_flags_build_a_config() {
        let sc = supervisor_config(&args(&["--staleness-bound", "6"]));
        assert_eq!(sc.expect("flags arm the supervisor").staleness_bound, Some(6));
        // No supervisor flags and no health log: unsupervised run.
        assert!(supervisor_config(&args(&[])).is_none());
        // A health log alone arms the defaults.
        let sc = supervisor_config(&args(&["--health-log", "h.log"]));
        assert_eq!(sc.expect("health log arms defaults").staleness_bound, None);
    }

    #[test]
    fn train_accepts_every_flag_it_reads() {
        let a =
            ["--workers", "2", "--partitioned", "--trace", "t.json", "--standby", "--shards", "4"];
        assert_eq!(refusal(&a), "");
        assert_eq!(refusal(&[]), "");
    }

    #[test]
    fn train_names_a_flag_it_does_not_read() {
        let unknown = |flag: &str| format!("unknown argument for train: {flag}");
        assert_eq!(refusal(&["--admission", "clip"]), unknown("--admission"));
        assert_eq!(refusal(&["--shard", "4"]), unknown("--shard"));
        assert_eq!(refusal(&["--epochs", "2", "--fallback", "off"]), unknown("--fallback"));
        assert_eq!(refusal(&["--standby", "4"]), unknown("4"));
        // A value that is a flag is refused, naming both, whether or not
        // `train` reads the second.
        for v in ["--x.json", "--standby"] {
            assert_eq!(
                refusal(&["--trace", v]),
                format!("--trace takes a value, not the flag {v}")
            );
        }
        // A value that merely starts with a dash is a value.
        assert_eq!(refusal(&["--trace", "-x.json"]), "");
    }

    #[test]
    fn train_names_a_flag_given_twice() {
        let twice = refusal(&["--algorithm", "asgd", "--algorithm", "sgd", "--workers", "2"]);
        assert_eq!(twice, "--algorithm is given twice");
        assert_eq!(refusal(&["--standby", "--standby"]), "--standby is given twice");
        // A value equal to a flag's name later on is not a second flag.
        assert_eq!(refusal(&["--checkpoint", "c", "--resume", "c"]), "");
    }

    #[test]
    fn train_names_a_flag_without_the_flag_it_needs() {
        assert_eq!(
            refusal(&["--flush-every", "4"]),
            "--flush-every has no effect without --standby"
        );
        assert_eq!(
            refusal(&["--checkpoint-every", "5", "--standby"]),
            "--checkpoint-every has no effect without --checkpoint"
        );
        assert_eq!(refusal(&["--standby", "--flush-every", "4"]), "");
        assert_eq!(refusal(&["--checkpoint", "c.ck", "--checkpoint-every", "5"]), "");
        assert_eq!(refusal(&[]), "");
        for (f, needed) in TRAIN.iter().filter_map(|f| Some((f, f.needs?))) {
            assert!(!matches!(f.kind, Kind::Switch), "{} is a flag with a value", f.name);
            assert!(TRAIN.iter().any(|g| g.name == needed), "{needed}");
        }
    }

    #[test]
    fn usage_lists_every_train_flag() {
        for f in TRAIN {
            assert!(usage().contains(&format!("[{}", f.name)), "usage misses {}", f.name);
        }
    }

    #[test]
    fn a_value_outside_its_set_names_the_flag_and_the_value() {
        let dataset = |s: &[&str]| args(s).one_of(row("--dataset")).to_string();
        assert_eq!(dataset(&[]), "cifar");
        assert_eq!(dataset(&["--dataset", "imagenet"]), "imagenet");
        assert_eq!(
            refusal(&["--dataset", "foo"]),
            "invalid value for --dataset: foo (expected one of cifar, imagenet)"
        );
        assert!(refusal(&["--bn", "foo"]).starts_with("invalid value for --bn: foo"));
    }

    #[test]
    fn a_count_of_zero_names_the_flag_and_the_value() {
        assert_eq!(args(&[]).count(row("--workers"), 8), 8);
        assert_eq!(args(&["--workers", "3"]).count(row("--workers"), 8), 3);
        for flag in ["--workers", "--epochs"] {
            let zero = format!("invalid value for {flag}: 0 (expected at least 1)");
            assert_eq!(refusal(&[flag, "0"]), zero);
        }
        assert_eq!(refusal(&["--shards", "x"]), "invalid value for --shards: x");
        // The replication stream would clamp a 0 to 1 and flush every push.
        let flush = refusal(&["--standby", "--flush-every", "0"]);
        assert_eq!(flush, "invalid value for --flush-every: 0 (expected at least 1)");
    }

    #[test]
    fn sgd_and_ssgd_refuse_the_async_only_flags() {
        let names: Vec<_> = TRAIN.iter().filter(|f| f.async_only).map(|f| f.name).collect();
        assert_eq!(
            names,
            ["--fault-plan", "--staleness-bound", "--health-log", "--standby", "--shards"]
        );
        for f in TRAIN.iter().filter(|f| f.async_only) {
            let flag =
                if matches!(f.kind, Kind::Switch) { vec![f.name] } else { vec![f.name, "2"] };
            for algorithm in ["sgd", "ssgd", "asgd"] {
                let refused = refusal(&[&["--algorithm", algorithm][..], &flag].concat());
                let error = format!(
                    "{} requires an asynchronous algorithm (asgd, dc-asgd, lc-asgd)",
                    f.name
                );
                assert_eq!(refused, if algorithm == "asgd" { String::new() } else { error });
            }
        }
        // One shard is no sharding.
        assert_eq!(refusal(&["--algorithm", "sgd", "--shards", "1"]), "");
    }

    #[test]
    fn the_table_picks_the_backend() {
        let threads = |s: &[&str]| args(s).on_threads();
        assert!(!threads(&[]));
        assert!(!threads(&["--partitioned", "--workers", "4", "--epochs", "2"]));
        // `--shards 1` stays on the simulator.
        assert!(!threads(&["--shards", "1"]));
        assert!(threads(&["--shards", "2"]));
        assert!(threads(&["--wire-codec", "f32"]));
        assert!(threads(&["--trace", "t.json"]));
        assert!(threads(&["--staleness-bound", "0"]));
    }

    #[test]
    fn readme_train_commands_parse() {
        let readme = include_str!("../../README.md");
        let mut lines = readme.lines();
        let mut commands = 0;
        while let Some(line) = lines.next() {
            let Some((_, rest)) = line.split_once("lcasgd -- train") else { continue };
            let mut command = rest.to_string();
            while let Some(continued) = command.strip_suffix('\\') {
                command = format!("{continued} {}", lines.next().expect("a continued line"));
            }
            let argv: Vec<&str> = command.split_whitespace().collect();
            assert_eq!(refusal(&argv), "", "README's `lcasgd train{command}` is refused");
            commands += 1;
        }
        assert!(commands > 0, "README shows no train command");
    }
}
