//! `agree A.json B.json`: do two result files of the same commit tell the
//! same story, within the bounds `BENCHMARK.json` fixes?

use crate::json::Json;

/// How much worse the worse of `a` and `b` is, as a share of the better
/// one — the base a regression bound is a share of.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let (better, worse) = if (a >= b) == higher_is_better { (a, b) } else { (b, a) };
    if better == 0.0 {
        return if worse == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (better - worse).abs() / better.abs()
}

fn end_to_end_median(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get("median")?.as_f64()
}

fn per_layer_value(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?.get(workload)?.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

struct Declared<'a> {
    name: &'a str,
    higher_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
}

fn declared<'a>(benchmark: &'a Json, section: &str) -> Result<Vec<Declared<'a>>, String> {
    let list = benchmark
        .get(section)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let better =
                m.get("better").and_then(Json::as_str).ok_or("a metric without `better`")?;
            Ok(Declared {
                name,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Prints one row per (workload, metric) and returns how many end-to-end
/// metrics disagree: differ by more than their bound, or are missing
/// from either file.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<usize, String> {
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    let end_to_end = declared(benchmark, "end_to_end")?;
    let per_layer = declared(benchmark, "per_layer")?;
    let mut disagreements = 0;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for w in workloads {
        let w = w.get("name").and_then(Json::as_str).ok_or("a workload without a name")?;
        for m in &end_to_end {
            let bound = m.bound.ok_or(format!("end-to-end metric {} has no bound", m.name))?;
            match (end_to_end_median(a, w, m.name), end_to_end_median(b, w, m.name)) {
                (Some(x), Some(y)) => {
                    let diff = worse_by(x, y, m.higher_is_better);
                    let ok = diff <= bound;
                    disagreements += usize::from(!ok);
                    println!(
                        "{w:<18} {:<28} {x:>14.4} {y:>14.4} {:>7.1}% {:>6.1}%  {}",
                        m.name,
                        diff * 100.0,
                        bound * 100.0,
                        if ok { "agree" } else { "DISAGREE" }
                    );
                }
                _ => {
                    disagreements += 1;
                    println!("{w:<18} {:<28} missing from a file  DISAGREE", m.name);
                }
            }
        }
        for m in &per_layer {
            let (Some(x), Some(y)) = (per_layer_value(a, w, m.name), per_layer_value(b, w, m.name))
            else {
                continue;
            };
            println!(
                "{w:<18} {:<28} {x:>14.4} {y:>14.4} {:>7.1}% {:>7}  (no bound)",
                m.name,
                worse_by(x, y, m.higher_is_better) * 100.0,
                "-"
            );
        }
    }
    Ok(disagreements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_is_a_share_of_the_better_value() {
        // Lower is better: 12 is 20 % worse than 10, either way round.
        assert!((worse_by(10.0, 12.0, false) - 0.2).abs() < 1e-12);
        assert!((worse_by(12.0, 10.0, false) - 0.2).abs() < 1e-12);
        // Higher is better: 80 is 20 % worse than 100.
        assert!((worse_by(100.0, 80.0, true) - 0.2).abs() < 1e-12);
        assert!((worse_by(80.0, 100.0, true) - 0.2).abs() < 1e-12);
        assert_eq!(worse_by(5.0, 5.0, true), 0.0);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
        assert_eq!(worse_by(0.0, 3.0, false), f64::INFINITY);
    }

    fn file(samples_per_s: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"w1": {{"end_to_end": {{"samples_per_s": {{"median": {samples_per_s}}}}},
                "per_layer": {{"x.us": {{"value": 3}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_counts_only_end_to_end_disagreements() {
        let benchmark = Json::parse(
            r#"{"workloads": [{"name": "w1", "why": "test"}],
                "end_to_end": [{"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "x.us", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(compare(&benchmark, &file(100.0), &file(95.0)), Ok(0));
        assert_eq!(compare(&benchmark, &file(100.0), &file(80.0)), Ok(1));
        // A metric missing from one file is a disagreement, not a pass.
        let empty = Json::parse(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(compare(&benchmark, &file(100.0), &empty), Ok(1));
    }
}
