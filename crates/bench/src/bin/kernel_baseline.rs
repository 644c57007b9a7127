//! `kernel-baseline` — measures the hot tensor kernels (seed copies vs the
//! packed/fused implementations) and maintains `BENCH_kernels.json`.
//!
//! * `kernel-baseline` — full run: measures with a generous sample count,
//!   prints the table, and (re)writes `BENCH_kernels.json` in the working
//!   directory. Run from the repo root to refresh the committed baseline.
//! * `kernel-baseline --smoke` — CI mode: quick re-measurement, validates
//!   the committed baseline's schema, and exits nonzero if any kernel's
//!   single-thread speedup over its seed fell more than 20 % below the
//!   committed one (or its time more than 3× above it). When no baseline
//!   file exists the gate is skipped (first run on a new checkout).

use lcasgd_bench::kernels::{
    measure_all, parse_baseline, regression_gate, to_json, BASELINE_FILE, GATE_TOLERANCE,
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let samples = if smoke { 3 } else { 11 };

    eprintln!(
        "kernel-baseline: measuring {} mode ({} samples per kernel, min-of-samples)...",
        if smoke { "smoke" } else { "full" },
        samples
    );
    let reports = measure_all(samples);

    println!(
        "{:<18} {:<24} {:>10} {:>10} {:>9} {:>9}",
        "kernel", "shape", "seed ms", "opt ms", "speedup", "1 thread"
    );
    for r in &reports {
        println!(
            "{:<18} {:<24} {:>10.4} {:>10.4} {:>8.2}x {:>8.2}x",
            r.name,
            r.shape,
            r.seed_ms,
            r.opt_ms,
            r.speedup(),
            r.speedup_1t
        );
    }

    if smoke {
        match std::fs::read_to_string(BASELINE_FILE) {
            Ok(json) => {
                let baseline = match parse_baseline(&json) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("kernel-baseline: committed {BASELINE_FILE} is invalid: {e}");
                        std::process::exit(1);
                    }
                };
                if let Err(e) = regression_gate(&reports, &baseline, GATE_TOLERANCE) {
                    eprintln!("kernel-baseline: {e}");
                    std::process::exit(1);
                }
                println!(
                    "kernel-baseline --smoke: schema ok, {} kernels' single-thread speedups x {:.2} at or above baseline",
                    baseline.len(),
                    1.0 + GATE_TOLERANCE
                );
            }
            Err(_) => {
                println!(
                    "kernel-baseline --smoke: no {BASELINE_FILE} found; regression gate skipped"
                );
            }
        }
    } else {
        let json = to_json(&reports, samples);
        // Validate what we are about to write with the same parser CI uses.
        if let Err(e) = parse_baseline(&json) {
            eprintln!("kernel-baseline: generated document failed self-validation: {e}");
            std::process::exit(1);
        }
        std::fs::write(BASELINE_FILE, &json).unwrap_or_else(|e| {
            eprintln!("kernel-baseline: cannot write {BASELINE_FILE}: {e}");
            std::process::exit(1);
        });
        println!("wrote {BASELINE_FILE}");
    }
}
