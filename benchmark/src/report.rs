//! The full report: every workload measured end to end and per layer,
//! the results printed by name with units, and optionally written to a
//! file.

use crate::json::Json;
use crate::measure::{measure_end_to_end, measure_per_layer, Repeats};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Workload;
use std::process::{Command, Stdio};

pub struct ReportOptions {
    pub seed: u64,
    pub repeats: usize,
    pub smoke: bool,
    pub out: Option<String>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken: without this a results file
/// cannot be compared with another.
fn environment(opts: &ReportOptions) -> Json {
    Json::obj([
        (
            "git_revision",
            Json::str(command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64)),
        (
            "rayon_num_threads",
            Json::str(std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("repeats", Json::Num(opts.repeats as f64)),
        ("smoke", Json::Bool(opts.smoke)),
    ])
}

fn print_row(def: &MetricDef, body: &str) {
    println!("  {:<28} {body} {} ({} is better)", def.name, def.unit, def.better.as_str());
}

/// Measures one workload: `repeats` untraced runs at seeds `seed,
/// seed+1, …` and the per-layer measurement at `seed`. Prints its rows
/// and returns its section of the results file plus whether it passed.
fn report_workload(w: &Workload, opts: &ReportOptions) -> Result<(Json, bool), String> {
    println!("\n== {} — {}", w.name, w.why);
    let seeds = (0..opts.repeats as u64).map(|i| opts.seed + i).collect();
    let runs = measure_end_to_end(w, &Repeats::Seeds(seeds), opts.smoke)?;
    let layers = measure_per_layer(w, opts.seed, opts.smoke)?;

    let mut end_to_end = Vec::new();
    for (def, (_, values)) in END_TO_END.iter().zip(&runs.values) {
        let s = Summary::of(values).ok_or(format!("no run reported {}", def.name))?;
        print_row(
            def,
            &format!("{:>14.4}  [min {:.4}, max {:.4}, n = {}]", s.median, s.min, s.max, s.n),
        );
        end_to_end.push((
            def.name,
            Json::obj([
                ("unit", Json::str(def.unit)),
                ("median", Json::Num(s.median)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("values", Json::Arr(values.iter().copied().map(Json::Num).collect())),
            ]),
        ));
    }
    let mut per_layer = Vec::new();
    for def in &PER_LAYER {
        // `--smoke` skips the probes, so their metrics are absent.
        let Some((_, v)) = layers.metrics.iter().find(|(name, _)| *name == def.name) else {
            continue;
        };
        print_row(def, &format!("{v:>14.4}"));
        per_layer
            .push((def.name, Json::obj([("unit", Json::str(def.unit)), ("value", Json::Num(*v))])));
    }

    let attempted = runs.attempted + layers.attempted;
    let failed = runs.failed + layers.failed;
    let correct = runs.correct && layers.correct;
    println!(
        "  ops_failed {failed} of ops_attempted {attempted} ({:.2} %), correctness gate {}",
        100.0 * failed as f64 / attempted.max(1) as f64,
        if correct { "passed" } else { "FAILED" }
    );
    let section = Json::obj([
        ("correct", Json::Bool(correct)),
        ("ops_attempted", Json::Num(attempted as f64)),
        ("ops_failed", Json::Num(failed as f64)),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
    ]);
    Ok((section, correct && failed == 0))
}

/// Runs the whole report over `workloads`. `Ok(true)` when every
/// workload passed its correctness gate with no failed update.
pub fn run(workloads: &[&Workload], opts: &ReportOptions) -> Result<bool, String> {
    let env = environment(opts);
    println!("environment: {}", env.encode());
    let mut sections = Vec::new();
    let mut all_ok = true;
    for w in workloads {
        let (section, ok) = report_workload(w, opts)?;
        all_ok &= ok;
        sections.push((w.name, section));
    }
    if let Some(path) = &opts.out {
        let file = Json::obj([("environment", env), ("workloads", Json::obj(sections))]);
        std::fs::write(path, file.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nresults written to {path}");
    }
    Ok(all_ok)
}
