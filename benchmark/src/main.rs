//! End-to-end and per-layer benchmark of real LC-ASGD training runs.
//!
//! Three ways in (see `README.md` beside this package):
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — measure one
//!   workload and print one JSON object as the last line: the end-to-end
//!   metrics (`--trace 0`) or the per-layer ones (`--trace 1`). This is
//!   the form `BENCHMARK.json`'s command takes.
//! * no `--trace` — the full report: every workload (or `--workload`),
//!   `--repeats` untraced child runs plus one traced, all metrics printed
//!   by name, `--out PATH` for a results file, `--smoke` for a short run.
//! * `agree A.json B.json` — compare two results files against the bounds
//!   in `BENCHMARK.json`.
//!
//! Every training run is made by a child: this binary re-executed with
//! the internal `--once` flag (one run in-process, one record printed).

use lcasgd_e2e_bench::json::Json;
use lcasgd_e2e_bench::measure::{self, Repeats};
use lcasgd_e2e_bench::{agree, metrics, report, workloads};
use std::process::ExitCode;

const USAGE: &str = "usage:
  lcasgd-e2e-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  lcasgd-e2e-bench [--workload NAME] [--seed N] [--repeats N] [--smoke] [--out PATH]
  lcasgd-e2e-bench agree A.json B.json [--benchmark BENCHMARK.json]";

/// Default seed of the full report (the paper's year).
const DEFAULT_SEED: u64 = 2020;
const DEFAULT_REPEATS: usize = 3;

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    /// 0 = exactly one run.
    seconds: f64,
    trace: Option<bool>,
    repeats: Option<usize>,
    smoke: bool,
    once: bool,
    out: Option<String>,
    benchmark: Option<String>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a whole number"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            "--repeats" => {
                let v = value("a count")?;
                let n: usize = v.parse().map_err(|_| format!("--repeats {v}: not a count"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--repeats {v}: expected 1 to 100"));
                }
                args.repeats = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--once" => args.once = true,
            "--out" => args.out = Some(value("a path")?),
            "--benchmark" => args.benchmark = Some(value("a path")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn selected(name: Option<&str>) -> Result<Vec<&'static workloads::Workload>, String> {
    match name {
        None => Ok(workloads::WORKLOADS.iter().collect()),
        Some(name) => {
            let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            let w = workloads::find(name)
                .ok_or(format!("unknown workload {name}; known: {}", known.join(", ")))?;
            Ok(vec![w])
        }
    }
}

/// `Ok(true)` = everything measured was correct.
fn dispatch(args: Args) -> Result<bool, String> {
    if args.positional.first().map(String::as_str) == Some("agree") {
        let [_, a, b] = args.positional.as_slice() else {
            return Err("agree takes exactly two results files".into());
        };
        let benchmark = read_json(args.benchmark.as_deref().unwrap_or("BENCHMARK.json"))?;
        let disagreements = agree::compare(&benchmark, &read_json(a)?, &read_json(b)?)?;
        println!("{disagreements} end-to-end metric(s) disagree");
        return Ok(disagreements == 0);
    }
    if let Some(extra) = args.positional.first() {
        return Err(format!("unexpected argument {extra}"));
    }
    let workloads = selected(args.workload.as_deref())?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);

    let Some(trace) = args.trace else {
        let opts = report::ReportOptions {
            seed,
            repeats: if args.smoke { 1 } else { args.repeats.unwrap_or(DEFAULT_REPEATS) },
            smoke: args.smoke,
            out: args.out,
        };
        return report::run(&workloads, &opts);
    };
    let [w] = workloads.as_slice() else {
        return Err("--trace measures one workload: name it with --workload".into());
    };
    // The verdict travels in the record (`correct`, `failed`); the exit
    // code only says whether a record was produced.
    if args.once {
        println!("{}", measure::once(w, seed, trace, args.smoke).encode());
        return Ok(true);
    }
    let (measured, defs) = if trace {
        (measure::measure_per_layer(w, seed, args.smoke)?, &metrics::PER_LAYER[..])
    } else {
        let repeats = Repeats::Budget { seed, seconds: args.seconds };
        let runs = measure::measure_end_to_end(w, &repeats, args.smoke)?;
        (runs.medians(), &metrics::END_TO_END[..])
    };
    println!("{}", measured.to_json(defs).encode());
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
