//! The metrics the benchmark declares: the same names, units and
//! directions `BENCHMARK.json` lists (a unit test holds them together),
//! and the record one measured workload run prints.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees; measured with tracing off. The
/// regression bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 5] = [
    higher("samples_per_s", "1/s"),
    lower("time_to_target_s", "s"),
    higher("test_accuracy", "ratio"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Single-layer metrics from the traced run (T), exact counts (C), the
/// untraced companion run's process accounting, and the probes (P).
pub const PER_LAYER: [MetricDef; 56] = [
    // tensor (P)
    lower("tensor.matmul_ms", "ms"),
    lower("tensor.conv_fwd_ms", "ms"),
    lower("tensor.conv_dw_ms", "ms"),
    lower("tensor.conv_dx_ms", "ms"),
    // core::worker / nn / autograd / data (P)
    lower("worker.forward_ms", "ms"),
    lower("worker.backward_ms", "ms"),
    lower("nn.flat_params_us", "us"),
    lower("data.batch_us", "us"),
    // core::predictor (P, then T)
    lower("predictor.loss_ms", "ms"),
    lower("predictor.step_ms", "ms"),
    lower("predictor.overhead_ratio", "ratio"),
    lower("predictor.loss_mae", "loss"),
    lower("predictor.step_mae", "steps"),
    // core::server / shard (P, then T)
    lower("server.apply_us", "us"),
    lower("server.assemble_us", "us"),
    lower("server.absorb_bn_us", "us"),
    lower("staleness.mean", "steps"),
    lower("staleness.p95", "steps"),
    // core::protocol / comm, simcluster::codec (P)
    lower("protocol.encode_us", "us"),
    lower("protocol.decode_us", "us"),
    lower("codec.pack_us", "us"),
    lower("codec.unpack_us", "us"),
    lower("comm.compress_us", "us"),
    lower("comm.decompress_us", "us"),
    // netcluster (P, then T and C)
    lower("frame.crc_us", "us"),
    lower("frame.write_us", "us"),
    lower("frame.read_us", "us"),
    lower("net.rtt_mean_us", "us"),
    lower("net.rtt_max_us", "us"),
    lower("net.codec_share", "ratio"),
    lower("net.bytes_per_update", "B"),
    // core::replication / checkpoint (P, then C)
    lower("replication.digest_us", "us"),
    lower("replication.apply_us", "us"),
    lower("checkpoint.to_bytes_ms", "ms"),
    lower("checkpoint.from_bytes_ms", "ms"),
    lower("replication.log_records", "count"),
    lower("replication.flushes", "count"),
    lower("replication.max_lag", "count"),
    // traced run (T)
    lower("phase.pull_share", "ratio"),
    higher("phase.compute_share", "ratio"),
    lower("phase.push_share", "ratio"),
    lower("phase.comm_share", "ratio"),
    lower("phase.codec_share", "ratio"),
    lower("phase.predictor_loss_share", "ratio"),
    lower("phase.predictor_step_share", "ratio"),
    lower("phase.server_apply_share", "ratio"),
    lower("phase.checkpoint_share", "ratio"),
    lower("phase.coalesce_share", "ratio"),
    lower("worker.blocked_share", "ratio"),
    lower("phase.untiled_share", "ratio"),
    lower("worker.iter_p50_ms", "ms"),
    lower("worker.iter_p99_ms", "ms"),
    lower("trace.overhead_frac", "ratio"),
    // process, untraced companion run
    lower("proc.cpu_user_s", "s"),
    lower("proc.cpu_sys_s", "s"),
    higher("proc.cpu_util", "ratio"),
];

/// What one measured run of one workload prints as its last line.
#[derive(Clone, Debug)]
pub struct Measured {
    pub correct: bool,
    /// Planned parameter updates over every training run made.
    pub attempted: u64,
    /// Planned updates that were not applied, plus every planned update
    /// of a run that failed, diverged or missed its target.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Measured {
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {name:
    /// {"value": …, "unit": …}}}`, metrics in `defs`' order with `defs`'
    /// units.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        debug_assert!(
            self.metrics.iter().all(|(name, _)| defs.iter().any(|d| d.name == *name)),
            "a measured metric is not declared"
        );
        let metrics = defs.iter().filter_map(|d| {
            let (_, value) = self.metrics.iter().find(|(name, _)| *name == d.name)?;
            Some((d.name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(d.unit))])))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(section: &Json) -> Vec<(String, String, String)> {
        section
            .as_arr()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn in_code(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_in_code() {
        let b = benchmark_json();
        assert_eq!(declared(b.get("end_to_end").unwrap()), in_code(&END_TO_END));
        assert_eq!(declared(b.get("per_layer").unwrap()), in_code(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_workloads_in_code() {
        let b = benchmark_json();
        let listed: Vec<(String, String)> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let coded: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(listed, coded);
    }

    #[test]
    fn names_are_unique_across_the_whole_file() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
        }
    }

    #[test]
    fn measured_prints_the_contracted_shape() {
        let m = Measured {
            correct: true,
            attempted: 960,
            failed: 0,
            metrics: vec![("samples_per_s", 1234.5678), ("setup_s", 0.0123)],
        };
        assert_eq!(
            m.to_json(&END_TO_END).encode(),
            r#"{"correct": true, "attempted": 960, "failed": 0, "metrics": {"samples_per_s": {"value": 1234.5678, "unit": "1/s"}, "setup_s": {"value": 0.0123, "unit": "s"}}}"#
        );
    }
}
