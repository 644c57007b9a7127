//! # lcasgd-netcluster
//!
//! The real-sockets member of the backend family: a TCP parameter server
//! speaking the same pull / push-state / push-grad protocol as the
//! discrete-event simulator and the in-process thread scaffold, behind
//! the same [`ClusterBackend`] trait — so every algorithm in lcasgd-core
//! runs over loopback (or a real network) unchanged.
//!
//! Pieces:
//!
//! * [`frame`] — the length-prefixed binary wire format: magic,
//!   protocol version, frame kind, sequence number and CRC-32 payload
//!   checksum (see the module docs for the byte layout);
//! * [`ReactorServer`] — one readiness-driven thread owning the listener
//!   and every connection, multiplexed onto one serialized Algorithm-2
//!   event loop, with pooled read buffers, coalesced pull replies and
//!   heartbeat-based dead-worker reaping;
//! * [`NetWorker`] — the client: bounded-exponential-backoff connect and
//!   reconnect, per-request deadlines, a background heartbeat thread,
//!   and a clean `Goodbye` handshake;
//! * [`NetCluster`] — the [`ClusterBackend`] glue that launches a
//!   loopback server plus M in-process worker threads, for tests,
//!   examples and backend-equivalence experiments.
//!
//! Transport accounting: the server counts bytes and messages; each
//! worker measures its own request round trips and serialization time.
//! [`NetCluster`] merges both sides into one
//! [`TransportStats`](lcasgd_simcluster::TransportStats).

pub mod breaker;
pub mod config;
pub mod frame;
pub mod pool;
pub mod reactor;
pub mod worker;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use config::{BackoffSchedule, NetConfig};
pub use pool::BufferPool;
pub use reactor::{ReactorServer, COALESCE_PHASE};
pub use worker::NetWorker;

use frame::{read_frame, write_payload, FrameKind};
use lcasgd_simcluster::{
    ClusterBackend, ClusterError, FaultPlan, FaultyLink, ReplicaDuplex, ReplicaDuplexPair,
    ServerCtx, TraceHook, TransportStats, WireMsg, WorkerLink,
};
use parking_lot::Mutex;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// [`ReplicaDuplex`] endpoint over a loopback TCP stream: every
/// replication payload rides one CRC-checked [`Frame`], so the
/// primary→standby stream exercises the same wire format (magic, version,
/// sequence, checksum) as worker traffic. The primary's frames are
/// `Request`s, the standby's acknowledgements `Reply`s.
struct TcpReplicaDuplex {
    stream: TcpStream,
    kind: FrameKind,
    seq: u64,
}

impl ReplicaDuplex for TcpReplicaDuplex {
    fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
        self.seq += 1;
        write_payload(&mut self.stream, self.kind, self.seq, payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
        let (frame, _wire) = read_frame(&mut self.stream)?;
        Ok(frame.payload)
    }
}

/// Builds a connected CRC-framed loopback pair: `(primary_end,
/// standby_end)`.
fn tcp_replica_pair() -> Result<(TcpReplicaDuplex, TcpReplicaDuplex), ClusterError> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let dial = TcpStream::connect(listener.local_addr()?)?;
    let (accepted, _peer) = listener.accept()?;
    dial.set_nodelay(true)?;
    accepted.set_nodelay(true)?;
    Ok((
        TcpReplicaDuplex { stream: dial, kind: FrameKind::Request, seq: 0 },
        TcpReplicaDuplex { stream: accepted, kind: FrameKind::Reply, seq: 0 },
    ))
}

/// TCP instantiation of [`ClusterBackend`]: one [`ReactorServer`] and M
/// `NetWorker` threads, over loopback by default.
pub struct NetCluster {
    workers: usize,
    cfg: NetConfig,
    addr: SocketAddr,
    fault_plan: Option<FaultPlan>,
    trace_hook: Option<Arc<dyn TraceHook>>,
}

impl NetCluster {
    /// A loopback cluster on an OS-assigned port with default timeouts.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        NetCluster {
            workers,
            cfg: NetConfig::default(),
            addr: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            fault_plan: None,
            trace_hook: None,
        }
    }

    /// Overrides the liveness/retry configuration.
    pub fn with_config(mut self, cfg: NetConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Binds the server to a specific address instead of an ephemeral
    /// loopback port.
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Attaches a fault schedule: each worker link is wrapped in a
    /// [`FaultyLink`], crashes kill the TCP transport abruptly (no
    /// `Goodbye`), and a crashed worker redials + re-`Hello`s after its
    /// restart delay.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl ClusterBackend for NetCluster {
    fn workers(&self) -> usize {
        self.workers
    }

    fn wire_codec(&self) -> lcasgd_simcluster::WireCodec {
        self.cfg.wire_codec
    }

    fn attach_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.trace_hook = Some(hook);
    }

    fn replica_duplex(&mut self) -> Result<ReplicaDuplexPair, ClusterError> {
        let (primary, standby) = tcp_replica_pair()?;
        Ok((Box::new(primary), Box::new(standby)))
    }

    fn run<Req, Resp, S, W>(
        self,
        server_fn: S,
        worker_fn: W,
    ) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync,
    {
        let m = self.workers;
        let mut server = ReactorServer::bind(self.addr, m, self.cfg.clone())?;
        if let Some(hook) = &self.trace_hook {
            server.set_trace_hook(Arc::clone(hook));
        }
        let addr = server.local_addr()?;
        let plan = self.fault_plan;
        let hook = self.trace_hook;
        let worker_stats: Mutex<TransportStats> = Mutex::new(TransportStats::default());
        let mut server_result: Result<TransportStats, ClusterError> =
            Err(ClusterError::Disconnected);

        std::thread::scope(|scope| {
            for w in 0..m {
                let cfg = self.cfg.clone();
                let plan = plan.clone();
                let hook = hook.clone();
                let worker_fn = &worker_fn;
                let worker_stats = &worker_stats;
                scope.spawn(move || {
                    // A worker that cannot connect is simply absent; the
                    // server writes its rank off after the hello timeout
                    // and the survivors keep training.
                    let Ok(mut link) = NetWorker::connect(addr, w, cfg) else {
                        return;
                    };
                    if let Some(hook) = hook {
                        link.set_trace_hook(hook);
                    }
                    // A panicking worker must still hang up cleanly, or
                    // the server would wait out the heartbeat timeout.
                    let (mut link, outcome) = match plan {
                        None => {
                            let mut link = link;
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker_fn(w, &mut link)
                                }));
                            (link, outcome)
                        }
                        Some(plan) => {
                            let mut faulty = FaultyLink::new(link, w, &plan);
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    loop {
                                        worker_fn(w, &mut faulty);
                                        let Some(delay_ms) = faulty.crashed_restart_ms() else {
                                            break; // finished, or dead for good
                                        };
                                        std::thread::sleep(std::time::Duration::from_millis(
                                            u64::from(delay_ms),
                                        ));
                                        // The next operation redials and
                                        // re-Hellos, reviving the rank.
                                        faulty.resume();
                                    }
                                }));
                            (faulty.into_inner(), outcome)
                        }
                    };
                    let _ = link.finish();
                    worker_stats.lock().merge(&link.take_stats());
                    if let Err(payload) = outcome {
                        std::panic::resume_unwind(payload);
                    }
                });
            }
            server_result = server.serve(server_fn);
        });

        let mut stats = server_result?;
        stats.merge(&worker_stats.into_inner());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn fast(workers: usize) -> NetCluster {
        NetCluster::new(workers).with_config(NetConfig::fast())
    }

    #[test]
    fn request_reply_roundtrips_over_tcp() {
        let mut served = 0u32;
        let stats = fast(4)
            .run(
                |_w, x: u32, ctx: &mut ServerCtx<u32>| {
                    served += 1;
                    ctx.reply(x * 2);
                },
                |_w, h| {
                    for i in 0..8u32 {
                        assert_eq!(h.request(i).unwrap(), i * 2);
                    }
                },
            )
            .unwrap();
        assert_eq!(served, 32);
        assert_eq!(stats.requests, 32);
        assert_eq!(stats.rtt.count(), 32);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    #[test]
    fn oneway_sums_arrive() {
        // No flush needed: oneways and the Goodbye ride the same ordered
        // connection, so the server sums everything before terminating.
        let mut sum = 0u64;
        let stats = fast(3)
            .run(
                |_w, x: u64, _ctx: &mut ServerCtx<()>| sum += x,
                |_w, h| {
                    for i in 1..=10u64 {
                        h.send(i).unwrap();
                    }
                },
            )
            .unwrap();
        assert_eq!(sum, 3 * 55);
        assert_eq!(stats.oneways, 30);
    }

    #[test]
    fn deferred_replies_release_a_barrier() {
        let mut parked: Vec<usize> = Vec::new();
        fast(4)
            .run(
                |w, round: u32, ctx: &mut ServerCtx<u32>| {
                    parked.push(w);
                    if parked.len() == 4 {
                        for t in parked.drain(..) {
                            ctx.reply_to(t, round);
                        }
                    }
                },
                |_w, h| {
                    for round in 0..3u32 {
                        assert_eq!(h.request(round).unwrap(), round);
                    }
                },
            )
            .unwrap();
    }

    #[test]
    fn reply_to_idle_worker_is_a_protocol_error() {
        let err = fast(2)
            .run(
                |_w, _x: u8, ctx: &mut ServerCtx<u8>| ctx.reply_to(1, 0),
                |w, h| {
                    if w == 0 {
                        let _ = h.request(0);
                    } else {
                        // Keep rank 1 alive but idle until the server
                        // aborts; it must never block the run's exit.
                        std::thread::sleep(Duration::from_millis(50));
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(_)));
    }

    #[test]
    fn hung_worker_is_reaped_and_survivors_finish() {
        let finished = AtomicUsize::new(0);
        let cfg = NetConfig::fast();
        let server = ReactorServer::bind("127.0.0.1:0", 3, cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();

        std::thread::scope(|scope| {
            for w in 0..3usize {
                let cfg = cfg.clone();
                let finished = &finished;
                scope.spawn(move || {
                    let mut link = NetWorker::connect(addr, w, cfg).unwrap();
                    let first: u32 = link.request(&7u32).unwrap();
                    assert_eq!(first, 14);
                    if w == 2 {
                        // Socket stays open, all traffic stops: only the
                        // heartbeat timeout can catch this.
                        link.hang();
                        return;
                    }
                    for _ in 0..20 {
                        let _: u32 = link.request(&7u32).unwrap();
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    link.finish().unwrap();
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            let stats =
                server.serve(|_w, x: u32, ctx: &mut ServerCtx<u32>| ctx.reply(x * 2)).unwrap();
            assert!(stats.requests >= 41);
        });
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn replica_duplex_roundtrips_crc_frames_over_loopback() {
        let (mut primary, mut standby) =
            NetCluster::new(2).replica_duplex().expect("loopback pair");
        let standby_thread = std::thread::spawn(move || {
            // Echo each payload back reversed until the primary hangs up.
            let mut served = 0u32;
            while let Ok(mut bytes) = standby.recv() {
                bytes.reverse();
                standby.send(&bytes).unwrap();
                served += 1;
            }
            served
        });
        for i in 0..8u8 {
            let payload = vec![i, i + 1, i + 2];
            primary.send(&payload).unwrap();
            let mut back = primary.recv().unwrap();
            back.reverse();
            assert_eq!(back, payload);
        }
        drop(primary); // EOF → the standby's recv errors out
        assert_eq!(standby_thread.join().unwrap(), 8);
    }

    #[test]
    fn bind_and_connect_reject_invalid_configs() {
        let mut bad = NetConfig::fast();
        bad.heartbeat_timeout = Duration::from_millis(5); // below the 20ms interval
        let err = match ReactorServer::bind("127.0.0.1:0", 1, bad) {
            Err(e) => e,
            Ok(_) => panic!("inverted heartbeat windows must be rejected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("heartbeat_timeout"), "unhelpful error: {err}");

        let server = ReactorServer::bind("127.0.0.1:0", 1, NetConfig::fast()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut bad = NetConfig::fast();
        bad.request_timeout = Duration::ZERO;
        let err = match NetWorker::connect(addr, 0, bad) {
            Err(e) => e,
            Ok(_) => panic!("zero request_timeout must be rejected"),
        };
        assert!(
            matches!(&err, ClusterError::Protocol(why) if why.contains("request_timeout")),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn worker_reconnects_after_server_side_drop() {
        // A flaky worker whose heartbeat interval exceeds the server's
        // timeout goes silent between requests and gets reaped; its next
        // successful request must ride the automatic reconnect +
        // re-Hello. A second, healthy worker keeps the run alive while
        // the flaky rank is dead.
        let server_cfg = NetConfig::fast();
        let healthy_cfg = NetConfig::fast();
        let mut flaky_cfg = NetConfig::fast();
        flaky_cfg.heartbeat_interval = Duration::from_secs(30); // silence
        flaky_cfg.request_timeout = Duration::from_millis(300);

        let server = ReactorServer::bind("127.0.0.1:0", 2, server_cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let flaky_done = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|scope| {
            let flaky_done = &flaky_done;
            scope.spawn(move || {
                let mut link = NetWorker::connect(addr, 0, flaky_cfg).unwrap();
                assert_eq!(link.request::<u32, u32>(&1).unwrap(), 2);
                // Silence long past the server's 200ms heartbeat timeout.
                std::thread::sleep(Duration::from_millis(500));
                // The old connection is dead server-side. Depending on
                // how the RST races the write, the first attempt may
                // reconnect transparently or surface one error; within a
                // few tries the reconnect path must land a request.
                let mut revived = None;
                for _ in 0..4 {
                    if let Ok(v) = link.request::<u32, u32>(&3) {
                        revived = Some(v);
                        break;
                    }
                }
                assert_eq!(revived, Some(6), "reconnect never recovered the link");
                link.finish().unwrap();
                flaky_done.store(true, Ordering::SeqCst);
            });
            scope.spawn(move || {
                let mut link = NetWorker::connect(addr, 1, healthy_cfg).unwrap();
                while !flaky_done.load(Ordering::SeqCst) {
                    let _: u32 = link.request(&5u32).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                }
                link.finish().unwrap();
            });
            server.serve(|_w, x: u32, ctx: &mut ServerCtx<u32>| ctx.reply(x * 2)).unwrap();
        });
    }
}
