//! `net-scale` — measures the netcluster server under 64–1024 simulated
//! workers and maintains `BENCH_net.json`.
//!
//! * `net-scale` — full run: measures the reactor at 64, 256 and 1024
//!   workers on loopback, prints the table, and (re)writes
//!   `BENCH_net.json` in the working directory. Run from the repo root
//!   to refresh the committed baseline.
//! * `net-scale --smoke` — CI mode: quick re-measurement of the reactor
//!   at 256 workers, validates the committed baseline's schema, and
//!   exits nonzero if updates/sec regressed more than 20 % against it.
//!   When no baseline file exists the gate is skipped (first run on a
//!   new checkout).

use lcasgd_bench::netscale::{
    parse_baseline, regression_gate, run_one, to_json, Row, BASELINE_FILE, FULL_GRID,
    GATE_TOLERANCE, SMOKE_WORKERS,
};
use std::time::Duration;

fn print_table(rows: &[Row]) {
    println!("{:<10} {:>8} {:>14} {:>12}", "transport", "workers", "updates/sec", "p99 rtt us");
    for r in rows {
        println!(
            "{:<10} {:>8} {:>14.0} {:>12.0}",
            r.transport, r.workers, r.updates_per_sec, r.p99_rtt_us
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (warmup, measure) = if smoke {
        (Duration::from_millis(300), Duration::from_millis(1000))
    } else {
        (Duration::from_millis(500), Duration::from_millis(2000))
    };

    if smoke {
        eprintln!(
            "net-scale: smoke mode (reactor @ {SMOKE_WORKERS} workers, {:.1}s window)...",
            measure.as_secs_f64()
        );
        let row = run_one(SMOKE_WORKERS, warmup, measure);
        print_table(std::slice::from_ref(&row));
        match std::fs::read_to_string(BASELINE_FILE) {
            Ok(json) => {
                let baseline = match parse_baseline(&json) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("net-scale: committed {BASELINE_FILE} is invalid: {e}");
                        std::process::exit(1);
                    }
                };
                if let Err(e) = regression_gate(&row, &baseline, GATE_TOLERANCE) {
                    eprintln!("net-scale: {e}");
                    std::process::exit(1);
                }
                println!(
                    "net-scale --smoke: schema ok, reactor @ {SMOKE_WORKERS} within {:.0}% of baseline",
                    GATE_TOLERANCE * 100.0
                );
            }
            Err(_) => {
                println!("net-scale --smoke: no {BASELINE_FILE} found; regression gate skipped");
            }
        }
        return;
    }

    let mut rows = Vec::new();
    for &workers in &FULL_GRID {
        // The committed 1024-worker row was measured with these longer
        // windows (sized for the retired thread-per-connection server,
        // whose first cycles at 1024 took whole seconds); kept so that a
        // refreshed row stays comparable with it.
        let (warmup, measure) = if workers >= 1024 {
            (Duration::from_secs(4), Duration::from_secs(6))
        } else {
            (warmup, measure)
        };
        eprintln!("net-scale: measuring {workers} workers...");
        rows.push(run_one(workers, warmup, measure));
    }
    print_table(&rows);

    let json = to_json(&rows, measure);
    // Validate what we are about to write with the same parser CI uses.
    if let Err(e) = parse_baseline(&json) {
        eprintln!("net-scale: generated document failed self-validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(BASELINE_FILE, &json).unwrap_or_else(|e| {
        eprintln!("net-scale: cannot write {BASELINE_FILE}: {e}");
        std::process::exit(1);
    });
    println!("wrote {BASELINE_FILE}");
}
