//! End-to-end observability contract: a traced LC-ASGD run on each of the
//! three `ClusterBackend`s must produce
//!
//! * a valid Chrome `trace_event` JSON document,
//! * phase spans that *tile* each worker's timeline — the tiling phases
//!   summed over all workers and divided by M land within 5% of the run's
//!   `total_time`, in the run's own clock domain,
//! * fault-log entries as instant events on the same timeline,
//! * a staleness sample per applied update,
//!
//! plus frame-exact transport byte accounting on the TCP backend
//! (heartbeats, hellos and goodbyes must not leak into the counters).

use lc_asgd::core::trace::phase;
use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::optimizer::LrSchedule;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{ClusterSim, ServerCtx, SimPayload, WireMsg};

// ------------------------------------------------------- tiny JSON check
//
// A minimal recursive-descent validator (no serde in the workspace): the
// Chrome exporter is hand-written, so the test must prove the output is
// well-formed JSON, not just that it contains the right substrings.

fn json_validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    json_value(b, &mut i)?;
    json_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(format!("trailing garbage at byte {i}"))
    }
}

fn json_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn json_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    json_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            json_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                json_ws(b, i);
                json_string(b, i)?;
                json_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                json_value(b, i)?;
                json_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            json_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                json_value(b, i)?;
                json_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => json_string(b, i),
        Some(b't') => json_literal(b, i, "true"),
        Some(b'f') => json_literal(b, i, "false"),
        Some(b'n') => json_literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            Ok(())
        }
        other => Err(format!("unexpected {other:?} at byte {i}")),
    }
}

fn json_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            0x00..=0x1f => return Err(format!("raw control byte 0x{c:02x} in string at {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn json_literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

// --------------------------------------------------------- shared set-up

const WORKERS: usize = 4;

fn task() -> (Dataset, Dataset) {
    blobs_split(4, 6, 40, 12, 0.5, 71)
}

fn lc_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, WORKERS, Scale::Tiny, 17);
    // Long enough that what no worker span covers — set-up, teardown and
    // the last epoch's evaluation, which the server waits for after the
    // workers have stopped — stays near 1% of the run: ≈ 1 ms of ≈ 250 ms.
    // At 12 epochs a run is 40–50 ms and the 5% tiling bound failed one
    // run in fifty on a busy box.
    cfg.epochs = 72;
    cfg.batch_size = 10;
    cfg.lr = LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    mlp(&[6, 16, 4], false, rng)
}

/// The ISSUE's acceptance contract, per backend.
fn assert_trace_contract(r: &RunResult, label: &str) {
    let log = r.timeline.as_ref().unwrap_or_else(|| panic!("{label}: traced run has no timeline"));
    assert!(!log.is_empty(), "{label}: timeline is empty");

    // 1. Phase tiling: the covering phases, summed over all M workers and
    //    divided by M, must land within 5% of total_time in the run's own
    //    clock domain. (codec/comm on the TCP backend are nested inside
    //    pull/push and deliberately excluded.)
    let tiling: &[&str] = match r.clock {
        ClockDomain::Virtual => &[phase::COMPUTE, phase::COMM, phase::FAULT_INJECT],
        ClockDomain::Wall => &[phase::PULL, phase::COMPUTE, phase::PUSH],
    };
    let covered: f64 =
        tiling.iter().map(|p| log.phase_total(p, r.clock)).sum::<f64>() / WORKERS as f64;
    assert!(r.total_time > 0.0, "{label}: total_time must be positive");
    let rel = (covered - r.total_time).abs() / r.total_time;
    assert!(
        rel < 0.05,
        "{label}: phase tiling off by {:.2}% ({} clock): covered {covered:.6}s vs total {:.6}s",
        rel * 100.0,
        r.clock,
        r.total_time
    );

    // 2. Fault events ride the same timeline as instants.
    assert!(
        log.instants().any(|e| e.phase == phase::FAULT_INJECT),
        "{label}: injected faults must appear as instant events"
    );

    // 3. Valid Chrome trace JSON with the expected envelope.
    let chrome = log.to_chrome_json();
    json_validate(&chrome).unwrap_or_else(|e| panic!("{label}: invalid chrome JSON: {e}"));
    assert!(chrome.contains("\"traceEvents\""), "{label}: missing traceEvents array");
    assert!(chrome.contains("\"ph\":\"X\""), "{label}: no complete (span) events");
    assert!(chrome.contains("\"ph\":\"i\""), "{label}: no instant (fault) events");

    // 4. The async run records staleness.
    assert!(!r.staleness.is_empty(), "{label}: async run records staleness");
}

// ------------------------------------------------------------- backends

#[test]
fn traced_lc_asgd_on_the_simulator_tiles_virtual_time() {
    let (train, test) = task();
    let cfg = lc_cfg();
    // Crashes and link delays are fine here: the simulator charges the
    // outage to virtual `fault_inject` spans, so the tiling stays exact.
    let plan = FaultPlan::new()
        .with_event(1, 6, FaultKind::Crash { restart_after_ms: Some(40) })
        .with_event(3, 4, FaultKind::SlowLink { delay_ms: 25 });
    let backend: ClusterSim<SimPayload> =
        ClusterSim::new(cfg.cluster.clone()).with_fault_plan(plan.clone());
    let opts = RunOptions { fault_plan: Some(plan), trace: true, ..RunOptions::default() };
    let r = run_cluster_with(backend, &cfg, &build, &train, &test, opts).expect("sim run");

    assert_eq!(r.clock, ClockDomain::Virtual, "the simulator reports virtual time");
    assert!(r.wall_time > 0.0, "wall time is recorded alongside");
    assert_trace_contract(&r, "sim");
}

#[test]
fn traced_lc_asgd_on_threads_tiles_wall_time() {
    let (train, test) = task();
    let cfg = lc_cfg();
    // Only a link stall: it is injected inside the blocked request, so it
    // stays covered by the worker's own pull/push spans. (A crash would
    // leave the restart window as an uncovered hole in wall time.)
    let plan = FaultPlan::new().with_event(2, 5, FaultKind::SlowLink { delay_ms: 10 });
    let backend = ThreadCluster::new(WORKERS).with_fault_plan(plan.clone());
    let opts = RunOptions { fault_plan: Some(plan), trace: true, ..RunOptions::default() };
    let r = run_cluster_with(backend, &cfg, &build, &train, &test, opts).expect("thread run");

    assert_eq!(r.clock, ClockDomain::Wall);
    assert_trace_contract(&r, "threads");
}

#[test]
fn traced_lc_asgd_over_tcp_tiles_wall_time_and_nests_codec() {
    let (train, test) = task();
    let cfg = lc_cfg();
    let plan = FaultPlan::new().with_event(1, 5, FaultKind::SlowLink { delay_ms: 10 });
    let backend =
        NetCluster::new(WORKERS).with_config(NetConfig::fast()).with_fault_plan(plan.clone());
    let opts = RunOptions { fault_plan: Some(plan), trace: true, ..RunOptions::default() };
    let r = run_cluster_with(backend, &cfg, &build, &train, &test, opts).expect("tcp run");

    assert_eq!(r.clock, ClockDomain::Wall);
    assert_trace_contract(&r, "tcp");

    // Codec time must land in `codec` spans, not inflate `compute`: every
    // second the transport books as serialize_seconds has a matching span,
    // so the two totals agree.
    let log = r.timeline.as_ref().unwrap();
    let codec = log.phase_total(phase::CODEC, ClockDomain::Wall);
    let t = r.transport.as_ref().expect("tcp reports transport");
    assert!(codec > 0.0, "codec spans must be recorded");
    assert!(
        (codec - t.serialize_seconds).abs() < 1e-6,
        "codec span total {codec} must equal serialize_seconds {}",
        t.serialize_seconds
    );
    // And codec is a nested refinement: it can never exceed the
    // pull/push/compute envelope it lives inside.
    let envelope = log.phase_total(phase::PULL, ClockDomain::Wall)
        + log.phase_total(phase::PUSH, ClockDomain::Wall)
        + log.phase_total(phase::COMPUTE, ClockDomain::Wall);
    assert!(codec < envelope, "codec ({codec}) must nest inside pull/push/compute ({envelope})");
}

// ------------------------------------------------- transport accounting

#[test]
fn netcluster_byte_accounting_is_frame_exact() {
    // Fixed-size request/reply payloads make the expected wire traffic
    // computable to the byte: M workers × K requests, each one
    // header + payload in both directions. Heartbeats run concurrently on
    // their own thread (interval 20ms < the sleep below), so if they — or
    // the hello/goodbye handshakes — leaked into the counters, the
    // equality would fail.
    const HEADER: u64 = 24;
    const M: usize = 3;
    const K: usize = 20;
    let req: Vec<f32> = vec![1.5; 16];
    let resp: Vec<f32> = vec![2.5; 32];
    let req_wire = HEADER + req.encoded().len() as u64;
    let resp_wire = HEADER + resp.encoded().len() as u64;

    let resp_payload = resp.clone();
    let stats = NetCluster::new(M)
        .with_config(NetConfig::fast())
        .run(
            move |_w, got: Vec<f32>, ctx: &mut ServerCtx<Vec<f32>>| {
                assert_eq!(got.len(), 16);
                ctx.reply(resp_payload.clone());
            },
            |_w, link| {
                for k in 0..K {
                    if k == K / 2 {
                        // Long enough for several heartbeat frames to
                        // cross the wire mid-run.
                        std::thread::sleep(std::time::Duration::from_millis(60));
                    }
                    let r = link.request(req.clone()).expect("request");
                    assert_eq!(r.len(), 32);
                }
            },
        )
        .expect("net run");

    let n = (M * K) as u64;
    assert_eq!(stats.requests, n, "every request counted exactly once");
    assert_eq!(stats.oneways, 0);
    assert_eq!(
        stats.bytes_sent,
        n * req_wire,
        "worker→server bytes must equal the encoded request frames exactly"
    );
    assert_eq!(
        stats.bytes_received,
        n * resp_wire,
        "server→worker bytes must equal the encoded reply frames exactly"
    );
    assert_eq!(stats.rtt.count(), n, "one RTT sample per request, no retry double-count");
    assert!(stats.serialize_seconds > 0.0, "codec time is accounted");
}

// --------------------------------------------------------- clock domains

#[test]
fn co_simulated_drivers_report_the_virtual_clock() {
    let (train, test) = task();
    for algo in [Algorithm::Sgd, Algorithm::Ssgd, Algorithm::Asgd, Algorithm::LcAsgd] {
        let mut cfg = ExperimentConfig::new(algo, WORKERS, Scale::Tiny, 17);
        cfg.epochs = 2;
        cfg.batch_size = 10;
        let r = run_experiment(&cfg, &build, &train, &test);
        assert_eq!(r.clock, ClockDomain::Virtual, "{algo}: co-sim time is virtual");
        assert!(r.wall_time > 0.0, "{algo}: wall time still measured");
        assert!(r.total_time > 0.0, "{algo}");
        // Epoch records are stamped on the same clock as total_time: the
        // last epoch can never end after the run does.
        let last = r.epochs.last().expect("epochs recorded");
        assert!(
            last.time <= r.total_time + 1e-9,
            "{algo}: epoch time {} is on a different clock than total {}",
            last.time,
            r.total_time
        );
    }
}

#[test]
fn cluster_epoch_records_share_the_runs_clock() {
    let (train, test) = task();
    let mut cfg = lc_cfg();
    cfg.epochs = 3;
    let r = run_cluster(ThreadCluster::new(WORKERS), &cfg, &build, &train, &test).expect("run");
    assert_eq!(r.clock, ClockDomain::Wall);
    let mut prev = 0.0;
    for e in &r.epochs {
        assert!(e.time >= prev, "epoch times are monotonic");
        prev = e.time;
    }
    assert!(prev <= r.total_time + 1e-9, "epoch times and total_time share the wall clock");
}
