//! Scale-out suite for the readiness-driven reactor transport:
//!
//! 1. 256 concurrent workers pushing uniquely-numbered oneways — the
//!    server must observe every `push_seq` exactly once (zero dropped,
//!    zero duplicated) across the whole storm.
//! 2. Pull coalescing is invisible on the wire: replies served from the
//!    per-version cache are byte-identical to the replies a
//!    coalescing-off server encodes per request, and identical across
//!    all workers sharing the key. The trace hook proves the cache
//!    actually fired (coalesce spans only when the knob is on).
//! 3. Chaos: a full `NetCluster` training run under an active
//!    `FaultPlan` completes while rogue connections repeatedly deliver
//!    partial headers / truncated payloads and disconnect mid-frame.

use lc_asgd::netcluster::{frame, NetCluster, NetConfig, NetWorker, ReactorServer, COALESCE_PHASE};
use lc_asgd::prelude::*;
use lc_asgd::simcluster::backend::wire;
use lc_asgd::simcluster::{ServerCtx, TraceHook, WireCodec, WireMsg, WireReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// --------------------------------------------------------- test protocol

#[derive(Debug, Clone, PartialEq)]
enum Req {
    Push { push_seq: u64 },
    Pull,
}

#[derive(Debug, Clone, PartialEq)]
struct Resp {
    flat: Vec<f32>,
    version: u64,
}

impl WireMsg for Req {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Req::Push { push_seq } => {
                wire::put_u8(buf, 0);
                wire::put_u64(buf, *push_seq);
            }
            Req::Pull => wire::put_u8(buf, 1),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => Ok(Req::Push { push_seq: r.u64()? }),
            1 => Ok(Req::Pull),
            tag => Err(ClusterError::Protocol(format!("unknown Req tag {tag}"))),
        }
    }
}

impl WireMsg for Resp {
    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_vec_f32(buf, &self.flat);
        wire::put_u64(buf, self.version);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        Ok(Resp { flat: r.vec_f32()?, version: r.u64()? })
    }
}

/// Liveness windows wide enough for a 256-connection storm on few cores.
fn storm_config() -> NetConfig {
    NetConfig {
        heartbeat_timeout: Duration::from_secs(30),
        hello_timeout: Duration::from_secs(60),
        connect_attempts: 10,
        connect_backoff: Duration::from_millis(20),
        connect_backoff_cap: Duration::from_millis(500),
        ..NetConfig::default()
    }
}

// ------------------------------------------------- 1. zero drop/dup seqs

#[test]
fn reactor_at_256_workers_drops_and_duplicates_no_push_seqs() {
    const M: usize = 256;
    const PUSHES: u64 = 8;

    let cfg = storm_config();
    let server = ReactorServer::bind("127.0.0.1:0", M, cfg.clone()).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");

    let mut seen: Vec<u64> = Vec::with_capacity(M * PUSHES as usize);
    let replied = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for rank in 0..M {
            let cfg = cfg.clone();
            let replied = &replied;
            scope.spawn(move || {
                let mut link =
                    NetWorker::connect(addr, rank, cfg).expect("every rank must connect");
                for i in 0..PUSHES {
                    let push_seq = rank as u64 * PUSHES + i;
                    link.send(&Req::Push { push_seq }).expect("oneway push");
                }
                // A final request proves the request path interleaves with
                // the oneway stream without reordering past it.
                let resp = link.request::<_, Resp>(&Req::Pull).expect("final pull");
                assert_eq!(resp.flat.len(), 4, "reply payload intact");
                replied.fetch_add(1, Ordering::Relaxed);
                link.finish().expect("clean goodbye");
            });
        }

        server
            .serve(|_w, req: Req, ctx: &mut ServerCtx<Resp>| match req {
                Req::Push { push_seq } => seen.push(push_seq),
                Req::Pull => ctx.reply(Resp { flat: vec![0.5; 4], version: seen.len() as u64 }),
            })
            .expect("server must drain the storm cleanly");
    });

    assert_eq!(replied.load(Ordering::Relaxed), M, "every rank must get its pull answered");
    assert_eq!(seen.len(), M * PUSHES as usize, "no dropped or duplicated oneways");
    seen.sort_unstable();
    let expected: Vec<u64> = (0..M as u64 * PUSHES).collect();
    assert_eq!(seen, expected, "the received push_seq multiset must be exactly 0..M*PUSHES");
}

// ------------------------------------- 2. coalescing is wire-transparent

#[derive(Default)]
struct SpanCounter {
    coalesced: AtomicUsize,
}

impl TraceHook for SpanCounter {
    fn wall_span(
        &self,
        worker: Option<usize>,
        phase: &'static str,
        _start: std::time::Instant,
        _dur_seconds: f64,
    ) {
        if phase == COALESCE_PHASE {
            assert_eq!(worker, None, "coalesce spans are server-side work");
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Drives `workers` raw blocking sockets through hello + one keyed Pull
/// each (all requests written before any reply is read, so a coalescing
/// server answers them in one sweep), and returns the reply payloads
/// plus the number of coalesce spans the server emitted.
fn keyed_pull_replies(coalescing: bool, workers: usize) -> (Vec<Vec<u8>>, usize) {
    let cfg = NetConfig { pull_coalescing: coalescing, ..storm_config() };
    let mut server = ReactorServer::bind("127.0.0.1:0", workers, cfg).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let spans = Arc::new(SpanCounter::default());
    server.set_trace_hook(spans.clone());

    let serve = std::thread::spawn(move || {
        server.serve(|_w, req: Req, ctx: &mut ServerCtx<Resp>| {
            if let Req::Pull = req {
                // Same key for every request: maximally coalescable.
                let flat: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
                ctx.reply_keyed(Resp { flat, version: 7 }, 42);
            }
        })
    });

    let mut conns: Vec<TcpStream> = (0..workers)
        .map(|rank| {
            let mut s = TcpStream::connect(addr).expect("connect");
            frame::write_frame(&mut s, &frame::Frame::hello_for(rank, WireCodec::F32))
                .expect("hello");
            s
        })
        .collect();

    let mut payload = Vec::new();
    Req::Pull.encode(&mut payload);
    for s in &mut conns {
        frame::write_frame(s, &frame::Frame::new(frame::FrameKind::Request, 1, payload.clone()))
            .expect("request");
    }

    let replies: Vec<Vec<u8>> = conns
        .iter_mut()
        .map(|s| {
            let (f, _) = frame::read_frame(s).expect("reply frame");
            assert_eq!(f.kind, frame::FrameKind::Reply);
            assert_eq!(f.seq, 1, "reply must echo the request seq");
            f.payload
        })
        .collect();

    for s in &mut conns {
        frame::write_frame(s, &frame::Frame::new(frame::FrameKind::Goodbye, 2, Vec::new()))
            .expect("goodbye");
    }
    drop(conns);
    serve.join().expect("serve thread").expect("server exits cleanly");

    (replies, spans.coalesced.load(Ordering::Relaxed))
}

#[test]
fn coalesced_pull_replies_are_byte_identical_to_per_request_replies() {
    const WORKERS: usize = 3;
    let (coalesced, hits_on) = keyed_pull_replies(true, WORKERS);
    let (plain, hits_off) = keyed_pull_replies(false, WORKERS);

    for w in 1..WORKERS {
        assert_eq!(coalesced[w], coalesced[0], "same-key replies must share bytes (rank {w})");
        assert_eq!(plain[w], plain[0], "per-request encoding is deterministic (rank {w})");
    }
    assert_eq!(
        coalesced[0], plain[0],
        "a cache-served reply must be byte-identical to a freshly encoded one"
    );

    let decoded = Resp::decode(&mut WireReader::new(&coalesced[0])).expect("reply decodes");
    assert_eq!(decoded.version, 7);
    assert_eq!(decoded.flat.len(), 512);

    assert_eq!(hits_off, 0, "coalescing off must never serve from cache");
    assert!(
        hits_on >= 1,
        "with all {WORKERS} requests in flight on one key, at least one reply must coalesce"
    );
}

// ----------------------------- 3. mid-frame disconnects under chaos load

/// Writes deliberately unfinished traffic on a fresh connection: a valid
/// header whose payload never fully arrives, a bare header prefix, or
/// plain garbage — then drops the socket mid-frame.
fn rogue_burst(addr: SocketAddr, variant: usize) {
    let Ok(mut s) = TcpStream::connect(addr) else { return };
    use std::io::Write;
    let _ = match variant % 3 {
        0 => {
            // Full header announcing 64 payload bytes, deliver only 16.
            let hdr = frame::header_bytes(frame::FrameKind::Hello, 1, 64, 0xDEAD_BEEF)
                .expect("64-byte payload is within bounds");
            s.write_all(&hdr).and_then(|_| s.write_all(&[0u8; 16]))
        }
        1 => {
            // A header cut off halfway through.
            let hdr = frame::header_bytes(frame::FrameKind::Request, 2, 32, 0)
                .expect("32-byte payload is within bounds");
            s.write_all(&hdr[..frame::HEADER_LEN / 2])
        }
        _ => s.write_all(b"not a frame at all"),
    };
    // Dropping the stream here is the mid-frame disconnect.
}

#[test]
fn training_run_survives_mid_frame_disconnects_under_an_active_fault_plan() {
    // Reserve a concrete port so the rogue thread knows where to aim.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };

    let stop = AtomicBool::new(false);
    let bursts = Mutex::new(0usize);

    let plan = FaultPlan::new()
        .with_event(0, 4, FaultKind::Crash { restart_after_ms: Some(30) })
        .with_event(1, 3, FaultKind::Drop)
        .with_event(2, 5, FaultKind::Duplicate)
        .with_event(3, 2, FaultKind::SlowLink { delay_ms: 10 });

    let (train, test) = lc_asgd::data::synth::blobs_split(4, 6, 30, 12, 0.5, 33);
    let mut c = ExperimentConfig::new(Algorithm::Asgd, 4, Scale::Tiny, 23);
    c.epochs = 8;
    c.batch_size = 10;
    c.lr = lc_asgd::nn::optimizer::LrSchedule::constant(0.1);
    let build = |rng: &mut Rng| lc_asgd::nn::mlp::mlp(&[6, 16, 4], false, rng);

    let result = std::thread::scope(|scope| {
        let stop = &stop;
        let bursts = &bursts;
        scope.spawn(move || {
            let mut variant = 0usize;
            while !stop.load(Ordering::Relaxed) {
                rogue_burst(addr, variant);
                variant += 1;
                *bursts.lock().unwrap() += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let backend = NetCluster::new(4)
            .with_config(NetConfig::fast())
            .with_addr(addr)
            .with_fault_plan(plan.clone());
        let opts = RunOptions { fault_plan: Some(plan.clone()), ..RunOptions::default() };
        let r = run_cluster_with(backend, &c, &build, &train, &test, opts);
        stop.store(true, Ordering::Relaxed);
        r
    })
    .expect("training must complete despite rogue mid-frame disconnects");

    assert!(result.iterations > 0, "the run must actually train");
    assert!(result.final_test_error().is_finite(), "final error must be finite");
    let report = result.faults.as_ref().expect("chaos run carries a fault report");
    assert_eq!(report.injected(), 4, "all scheduled faults must fire");
    let fired = *bursts.lock().unwrap();
    assert!(fired > 0, "the rogue thread must have attacked at least once");
}
