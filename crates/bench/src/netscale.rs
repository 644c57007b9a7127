//! Transport scale bench: updates/sec and p99 RTT of the netcluster
//! server under 64–1024 simulated workers on loopback.
//!
//! The `net-scale` binary drives [`lcasgd_netcluster::ReactorServer`] with
//! a synthetic parameter-server workload: every cycle a worker pushes a
//! compressed gradient (a small oneway, the post-quantization uplink
//! shape) and pulls the dense f32 weights back (a 32 KiB reply, the
//! downlink shape whose encode + CRC the reactor coalesces across
//! concurrent pulls). Workers
//! are *simulated*: a handful of driver threads multiplex hundreds of
//! nonblocking sockets, so the bench measures the server, not a thousand
//! driver threads fighting for the CPU.
//!
//! The committed `BENCH_net.json` is the perf baseline: CI re-measures in
//! `--smoke` mode and fails when the reactor's updates/sec at 256 workers
//! regresses more than [`GATE_TOLERANCE`] against it, mirroring the
//! kernel baseline gate.

use crate::baseline;
use lcasgd_netcluster::frame::{self, Frame, FrameKind, HEADER_LEN};
use lcasgd_netcluster::{NetConfig, ReactorServer};
use lcasgd_simcluster::backend::{wire, ServerCtx};
use lcasgd_simcluster::{ClusterError, WireCodec, WireMsg, WireReader};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative regression tolerance for the CI gate: fail when the measured
/// reactor updates/sec falls more than 20 % below the committed baseline.
pub const GATE_TOLERANCE: f64 = 0.20;

/// Schema tag written to (and required of) `BENCH_net.json`.
pub const SCHEMA: &str = "net_scale/v1";

/// Default output filename, written into the working directory (repo
/// root when invoked via `ci.sh` or the README quickstart).
pub const BASELINE_FILE: &str = "BENCH_net.json";

/// Dense f32 weights per pull reply (32 KiB on the wire): the downlink.
/// Dense on purpose — weights pulls are the bandwidth the paper's
/// protocol cannot compress away, and their encode + CRC is exactly the
/// per-request cost the reactor coalesces.
pub const WEIGHTS_LEN: usize = 8192;

/// Quantized levels per gradient push (256 B on the wire): the uplink
/// after int8/top-k compression has done its work.
pub const GRAD_LEN: usize = 256;

/// Driver threads multiplexing the simulated workers. Deliberately few:
/// the workers are nonblocking sockets, not threads.
const DRIVER_THREADS: usize = 4;

/// The worker counts a full run measures.
pub const FULL_GRID: [usize; 3] = [64, 256, 1024];

/// The configuration the smoke gate re-measures.
pub const SMOKE_WORKERS: usize = 256;

// ------------------------------------------------------- wire messages

/// Uplink of the synthetic workload.
pub enum ScaleReq {
    /// Request the current weights (a blocking request).
    Pull,
    /// Push a quantized gradient (a oneway). The levels are opaque bytes
    /// with the int8 uplink's wire shape.
    Grad { levels: Vec<u8> },
}

/// Downlink: the dense weights snapshot and its version.
pub struct ScaleResp {
    pub flat: Vec<f32>,
    pub version: u64,
}

impl WireMsg for ScaleReq {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ScaleReq::Pull => wire::put_u8(buf, 0),
            ScaleReq::Grad { levels } => {
                wire::put_u8(buf, 1);
                wire::put_u64(buf, levels.len() as u64);
                buf.extend_from_slice(levels);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => Ok(ScaleReq::Pull),
            1 => {
                let n = r.len(1)?;
                let levels = (0..n).map(|_| r.u8()).collect::<Result<_, _>>()?;
                Ok(ScaleReq::Grad { levels })
            }
            tag => Err(ClusterError::Protocol(format!("unknown ScaleReq tag {tag}"))),
        }
    }
}

impl WireMsg for ScaleResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_vec_f32(buf, &self.flat);
        wire::put_u64(buf, self.version);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        Ok(ScaleResp { flat: r.vec_f32()?, version: r.u64()? })
    }
}

// ------------------------------------------------------------ workload

fn bench_config() -> NetConfig {
    NetConfig {
        // Generous liveness windows: at 1024 workers the connection storm
        // takes a while, and a reaped conn would corrupt the measurement.
        heartbeat_timeout: Duration::from_secs(30),
        hello_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    }
}

/// The server side of the workload: every `Grad` oneway bumps the
/// version (the cheapest possible apply, so the measurement isolates the
/// transport), every `Pull` answers with the full weights snapshot keyed
/// by version — the reactor encodes each version tick once and answers
/// the rest of the concurrent pulls from the cache.
fn server_fn() -> impl FnMut(usize, ScaleReq, &mut ServerCtx<ScaleResp>) {
    let weights = vec![0.125f32; WEIGHTS_LEN];
    let mut version = 0u64;
    move |_w, req, ctx| match req {
        ScaleReq::Grad { .. } => version += 1,
        ScaleReq::Pull => {
            ctx.reply_keyed(ScaleResp { flat: weights.clone(), version }, version);
        }
    }
}

// -------------------------------------------------------------- driver

/// Per-connection state machine: write the cycle bytes, read the reply,
/// repeat. `Hello` rides the first write; `Goodbye` replaces the cycle
/// once the stop flag is up.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_off: usize,
    inb: Vec<u8>,
    in_filled: usize,
    cycle_start: Instant,
    /// Reply already validated once (the first is decoded end to end).
    validated: bool,
    saying_goodbye: bool,
    done: bool,
}

enum Step {
    Progressed,
    Idle,
    /// A completed pull cycle, with its RTT.
    Cycle(Duration),
}

fn cycle_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    let grad = ScaleReq::Grad { levels: vec![7u8; GRAD_LEN] }.encoded();
    out.extend_from_slice(
        &frame::header_bytes(FrameKind::Oneway, 0, grad.len(), frame::crc32(&grad))
            .expect("grad frame"),
    );
    out.extend_from_slice(&grad);
    let pull = ScaleReq::Pull.encoded();
    out.extend_from_slice(
        &frame::header_bytes(FrameKind::Request, 1, pull.len(), frame::crc32(&pull))
            .expect("pull frame"),
    );
    out.extend_from_slice(&pull);
    out
}

fn frame_to_bytes(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_frame(&mut out, f).expect("in-memory frame write");
    out
}

impl Conn {
    fn connect(addr: SocketAddr, rank: usize, cycle: &[u8]) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut out = frame_to_bytes(&Frame::hello_for(rank, WireCodec::F32));
        out.extend_from_slice(cycle);
        Ok(Conn {
            stream,
            out,
            out_off: 0,
            inb: vec![0u8; HEADER_LEN],
            in_filled: 0,
            cycle_start: Instant::now(),
            validated: false,
            saying_goodbye: false,
            done: false,
        })
    }

    /// Advances the state machine by at most one IO completion.
    fn step(&mut self, cycle: &[u8], stopping: bool) -> std::io::Result<Step> {
        if self.done {
            return Ok(Step::Idle);
        }
        // Write side first: the cycle (or goodbye) must reach the server
        // before there is anything to read.
        if self.out_off < self.out.len() {
            match self.stream.write(&self.out[self.out_off..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "server hung up mid-frame",
                    ))
                }
                Ok(n) => {
                    self.out_off += n;
                    if self.out_off == self.out.len() && self.saying_goodbye {
                        self.done = true;
                    }
                    return Ok(Step::Progressed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(Step::Idle),
                Err(e) => return Err(e),
            }
        }
        // Read side: header, then payload.
        match self.stream.read(&mut self.inb[self.in_filled..]) {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed while a reply was due",
            )),
            Ok(n) => {
                self.in_filled += n;
                if self.in_filled == HEADER_LEN && self.inb.len() == HEADER_LEN {
                    let hdr = frame::parse_header(&self.inb)
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                    self.inb.resize(HEADER_LEN + hdr.payload_len as usize, 0);
                }
                if self.in_filled == self.inb.len() && self.inb.len() > HEADER_LEN {
                    // Full reply. Validate the first one end to end; after
                    // that trust the transport (CRC checks would bill the
                    // driver for work the real worker does off-path).
                    if !self.validated {
                        let hdr = frame::parse_header(&self.inb)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        let payload = &self.inb[HEADER_LEN..];
                        if frame::crc32(payload) != hdr.crc {
                            return Err(std::io::Error::other("reply CRC mismatch"));
                        }
                        let resp = ScaleResp::decoded(payload)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        if resp.flat.len() != WEIGHTS_LEN {
                            return Err(std::io::Error::other("reply has wrong weights length"));
                        }
                        self.validated = true;
                    }
                    let rtt = self.cycle_start.elapsed();
                    self.inb.truncate(HEADER_LEN);
                    self.in_filled = 0;
                    if stopping {
                        self.out = frame_to_bytes(&Frame::new(FrameKind::Goodbye, 0, Vec::new()));
                        self.saying_goodbye = true;
                    } else {
                        self.out.clear();
                        self.out.extend_from_slice(cycle);
                    }
                    self.out_off = 0;
                    self.cycle_start = Instant::now();
                    return Ok(Step::Cycle(rtt));
                }
                Ok(Step::Progressed)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(Step::Idle),
            Err(e) => Err(e),
        }
    }
}

struct DriverReport {
    updates: u64,
    rtts_us: Vec<u64>,
}

fn drive(
    addr: SocketAddr,
    ranks: std::ops::Range<usize>,
    measuring: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> DriverReport {
    let cycle = cycle_bytes();
    let mut conns: Vec<Conn> = ranks
        .map(|rank| Conn::connect(addr, rank, &cycle).expect("bench driver connect"))
        .collect();
    let mut report = DriverReport { updates: 0, rtts_us: Vec::new() };
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        let mut progressed = false;
        let mut live = 0usize;
        for conn in &mut conns {
            if conn.done {
                continue;
            }
            live += 1;
            match conn.step(&cycle, stopping) {
                Ok(Step::Idle) => {}
                Ok(Step::Progressed) => progressed = true,
                Ok(Step::Cycle(rtt)) => {
                    progressed = true;
                    if measuring.load(Ordering::Relaxed) {
                        report.updates += 1;
                        report.rtts_us.push(rtt.as_micros() as u64);
                    }
                }
                Err(_) => conn.done = true,
            }
        }
        if live == 0 {
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    report
}

// ---------------------------------------------------------- harnessing

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub transport: &'static str,
    pub workers: usize,
    pub updates_per_sec: f64,
    pub p99_rtt_us: f64,
}

/// The `transport` tag of every measured row. `BENCH_net.json` keeps the
/// field from when a second, thread-per-connection server was measured
/// next to this one (DESIGN.md §12 has its last numbers).
const TRANSPORT: &str = "reactor";

/// Runs one cell: spin the server up, drive it with multiplexed simulated
/// workers, measure for `measure` after `warmup`.
pub fn run_one(workers: usize, warmup: Duration, measure: Duration) -> Row {
    let srv = ReactorServer::bind("127.0.0.1:0", workers, bench_config()).expect("bench bind");
    let addr = srv.local_addr().expect("bench addr");
    let server = std::thread::spawn(move || srv.serve(server_fn()).map(|_| ()));

    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let per = workers.div_ceil(DRIVER_THREADS);
    let drivers: Vec<_> = (0..DRIVER_THREADS)
        .filter_map(|d| {
            let lo = d * per;
            let hi = ((d + 1) * per).min(workers);
            (lo < hi).then(|| {
                let (measuring, stop) = (measuring.clone(), stop.clone());
                std::thread::spawn(move || drive(addr, lo..hi, measuring, stop))
            })
        })
        .collect();

    std::thread::sleep(warmup);
    measuring.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(measure);
    measuring.store(false, Ordering::Relaxed);
    let window = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);

    let mut updates = 0u64;
    let mut rtts: Vec<u64> = Vec::new();
    for d in drivers {
        let r = d.join().expect("bench driver panicked");
        updates += r.updates;
        rtts.extend(r.rtts_us);
    }
    server.join().expect("bench server panicked").expect("bench server errored");

    rtts.sort_unstable();
    let p99 = if rtts.is_empty() { 0.0 } else { rtts[(rtts.len() - 1) * 99 / 100] as f64 };
    Row { transport: TRANSPORT, workers, updates_per_sec: updates as f64 / window, p99_rtt_us: p99 }
}

// ------------------------------------------------------------ baseline

/// Serializes measured rows in the committed `BENCH_net.json` shape.
pub fn to_json(rows: &[Row], measure: Duration) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"measure_s\": {:.1},\n", measure.as_secs_f64()));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"transport\": \"{}\", \"workers\": {}, \"updates_per_sec\": {:.0}, \"p99_rtt_us\": {:.0}}}{}\n",
            r.transport,
            r.workers,
            r.updates_per_sec,
            r.p99_rtt_us,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A row parsed back from a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    pub transport: String,
    pub workers: usize,
    pub updates_per_sec: f64,
}

/// Parses (and schema-validates) a `BENCH_net.json` document, of the
/// exact shape [`to_json`] emits (see `crate::baseline`).
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineRow>, String> {
    let mut rows = Vec::new();
    for obj in baseline::objects(json, SCHEMA, "rows")? {
        let transport = baseline::string(obj, "transport")
            .ok_or_else(|| format!("row missing transport: {obj}"))?;
        let workers = baseline::number(obj, "workers")
            .ok_or_else(|| format!("row {transport} missing workers"))?
            as usize;
        let ups = baseline::number(obj, "updates_per_sec")
            .ok_or_else(|| format!("row {transport}/{workers} missing updates_per_sec"))?;
        if !(ups.is_finite() && ups > 0.0) {
            return Err(format!("row {transport}/{workers} has invalid updates_per_sec {ups}"));
        }
        rows.push(BaselineRow { transport, workers, updates_per_sec: ups });
    }
    Ok(rows)
}

/// The CI gate: the measured reactor updates/sec at the smoke worker
/// count must stay within `tolerance` of the committed baseline row.
pub fn regression_gate(
    current: &Row,
    baseline: &[BaselineRow],
    tolerance: f64,
) -> Result<(), String> {
    let Some(base) =
        baseline.iter().find(|b| b.transport == current.transport && b.workers == current.workers)
    else {
        return Err(format!(
            "baseline has no {}/{} row to gate against",
            current.transport, current.workers
        ));
    };
    if current.updates_per_sec < base.updates_per_sec * (1.0 - tolerance) {
        return Err(format!(
            "net-scale perf regression (> {:.0}% under baseline): {}/{}: {:.0} updates/s vs \
             baseline {:.0} (-{:.0}%)",
            tolerance * 100.0,
            current.transport,
            current.workers,
            current.updates_per_sec,
            base.updates_per_sec,
            (1.0 - current.updates_per_sec / base.updates_per_sec) * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_messages_roundtrip() {
        let grad = ScaleReq::Grad { levels: vec![1, 2, 3, 255] };
        match ScaleReq::decoded(&grad.encoded()).unwrap() {
            ScaleReq::Grad { levels } => assert_eq!(levels, vec![1, 2, 3, 255]),
            _ => panic!("variant changed"),
        }
        assert!(matches!(ScaleReq::decoded(&ScaleReq::Pull.encoded()), Ok(ScaleReq::Pull)));
        let resp = ScaleResp { flat: vec![0.5; 8], version: 42 };
        let back = ScaleResp::decoded(&resp.encoded()).unwrap();
        assert_eq!((back.flat, back.version), (vec![0.5; 8], 42));
    }

    #[test]
    fn baseline_json_roundtrips_through_the_scanner() {
        let rows = vec![
            Row { transport: "reactor", workers: 64, updates_per_sec: 9876.0, p99_rtt_us: 120.0 },
            Row { transport: "reactor", workers: 256, updates_per_sec: 1234.0, p99_rtt_us: 850.0 },
        ];
        let json = to_json(&rows, Duration::from_secs(2));
        let back = parse_baseline(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].transport, "reactor");
        assert_eq!(back[0].workers, 64);
        assert_eq!(back[0].updates_per_sec, 9876.0);
    }

    #[test]
    fn gate_trips_on_regression_and_missing_rows() {
        let baseline = vec![BaselineRow {
            transport: "reactor".into(),
            workers: 256,
            updates_per_sec: 1000.0,
        }];
        let ok =
            Row { transport: "reactor", workers: 256, updates_per_sec: 850.0, p99_rtt_us: 0.0 };
        regression_gate(&ok, &baseline, GATE_TOLERANCE).unwrap();
        let slow =
            Row { transport: "reactor", workers: 256, updates_per_sec: 700.0, p99_rtt_us: 0.0 };
        assert!(regression_gate(&slow, &baseline, GATE_TOLERANCE).is_err());
        let missing =
            Row { transport: "reactor", workers: 64, updates_per_sec: 9999.0, p99_rtt_us: 0.0 };
        assert!(regression_gate(&missing, &baseline, GATE_TOLERANCE).is_err());
    }

    #[test]
    fn invalid_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"net_scale/v0\"}").is_err());
        let empty = format!("{{\"schema\": \"{SCHEMA}\", \"rows\": []}}");
        assert!(parse_baseline(&empty).is_err());
    }

    /// End-to-end micro-run of the harness itself: the server serves a
    /// handful of simulated workers for a fraction of a second.
    #[test]
    fn harness_measures_the_server() {
        let row = run_one(4, Duration::from_millis(50), Duration::from_millis(150));
        assert_eq!(row.workers, 4);
        assert!(row.updates_per_sec > 0.0, "measured no updates");
    }
}
