//! The command-line contract, exercised on the real binary: one JSON
//! record as the last stdout line, training runs in child processes, and
//! distinct exit codes for verdicts and usage errors.

use lcasgd_e2e_bench::json::Json;
use lcasgd_e2e_bench::metrics::{END_TO_END, PER_LAYER};
use lcasgd_e2e_bench::probes;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lcasgd-e2e-bench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn record(out: &Output) -> Json {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = Json::parse(stdout.lines().last().expect("a last line")).expect("a JSON record");
    let keys: Vec<&str> = match &record {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    record
}

fn metric_names(record: &Json) -> Vec<String> {
    match record.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name} has no unit");
                name.clone()
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn an_end_to_end_measurement_prints_the_contracted_record() {
    let out = bench(&[
        "--workload",
        "sgd_1w",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--smoke",
    ]);
    let r = record(&out);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(r.get("attempted"), Some(&Json::Num(120.0)));
    assert_eq!(r.get("failed"), Some(&Json::Num(0.0)));
    assert_eq!(metric_names(&r), END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
    // The run itself happened in a child, which reported on our stderr.
    assert!(String::from_utf8_lossy(&out.stderr).contains("[sgd_1w] seed 3:"));
}

#[test]
fn a_per_layer_smoke_measurement_prints_everything_but_the_probes() {
    let out = bench(&[
        "--workload",
        "lc_4w_tcp",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--smoke",
    ]);
    let r = record(&out);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(r.get("attempted"), Some(&Json::Num(240.0)));
    let want: Vec<&str> =
        PER_LAYER.iter().map(|d| d.name).filter(|n| !probes::NAMES.contains(n)).collect();
    assert_eq!(metric_names(&r), want);
}

#[test]
fn usage_errors_exit_2_without_a_record() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--seed", "1", "--trace", "0"],
        &["--trace", "2", "--workload", "sgd_1w"],
        &["--seed", "minus one"],
        &["--frobnicate"],
        &["agree", "only-one.json"],
        &["agree", "/nonexistent/a.json", "/nonexistent/b.json"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
