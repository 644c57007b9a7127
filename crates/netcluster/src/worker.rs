//! The worker side of the TCP backend.
//!
//! A `NetWorker` owns one connection to the parameter server: the read
//! half stays on the calling thread (the only server→worker traffic is
//! replies), the write half is shared with a background heartbeat thread
//! that keeps the connection visibly alive between pushes.
//!
//! Failure handling:
//! * connects (initial and re-) retry with bounded exponential backoff;
//! * every blocking request carries a deadline ([`NetConfig::request_timeout`]);
//! * a failed *write* triggers one reconnect-and-resend — a request is
//!   never resent after it may have been processed, so server-side
//!   effects stay at-most-once (LC-ASGD's pulls and pushes tolerate a
//!   dropped message far better than a doubled gradient);
//! * [`NetWorker::finish`] performs the `Goodbye` handshake; dropping
//!   without it looks like a crash to the server, which is exactly what
//!   the fault-injection tests rely on.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::config::NetConfig;
use crate::frame::{
    crc32, header_bytes, read_frame_into, write_frame, write_payload, Frame, FrameKind, HEADER_LEN,
};
use lcasgd_simcluster::backend::keep_spent;
use lcasgd_simcluster::{ClusterError, FaultHooks, TraceHook, TransportStats, WireMsg, WorkerLink};
use parking_lot::Mutex;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Interruptible stop flag: the heartbeat thread waits on the condvar
/// between beats, so teardown wakes it instantly instead of waiting out
/// a full heartbeat interval.
struct StopSignal {
    stopped: StdMutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    fn new() -> Arc<StopSignal> {
        Arc::new(StopSignal { stopped: StdMutex::new(false), cv: Condvar::new() })
    }

    fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Waits up to `timeout`; returns true once stopped.
    fn wait(&self, timeout: std::time::Duration) -> bool {
        let guard = self.stopped.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |stopped| !*stopped)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

/// Handed-back reply vectors a worker keeps for decoding into: the caller
/// holds one pulled model at a time and swaps it for the next, so one is in
/// use and one is on its way back.
const SPENT_CAP: usize = 2;

struct Conn {
    /// Read half; replies are consumed on the worker's own thread.
    read: TcpStream,
    /// Write half, shared with the heartbeat thread.
    write: Arc<Mutex<TcpStream>>,
    hb_stop: Arc<StopSignal>,
    hb: Option<JoinHandle<()>>,
}

/// A connected worker client implementing [`WorkerLink`] over TCP.
pub struct NetWorker {
    rank: usize,
    addr: SocketAddr,
    cfg: NetConfig,
    conn: Option<Conn>,
    seq: u64,
    stats: TransportStats,
    finished: bool,
    trace_hook: Option<Arc<dyn TraceHook>>,
    /// Gates reconnect storms: repeated transport failures open the
    /// breaker and further dial attempts fail fast until the cooldown
    /// admits a half-open probe.
    breaker: CircuitBreaker,
    /// The outgoing frame, `header ‖ payload`, encoded in place and
    /// written with one call. Reused across messages: it holds at most
    /// the largest frame this worker has sent.
    wbuf: Vec<u8>,
    /// Reply payloads land here instead of in a fresh allocation per
    /// reply; holds at most the largest reply payload received.
    rbuf: Vec<u8>,
    /// Payload vectors of replies the caller has finished with
    /// ([`WorkerLink::recycle`]); the next model-sized replies are decoded
    /// into them. At most [`SPENT_CAP`] are kept.
    spent: Vec<Vec<f32>>,
}

impl NetWorker {
    /// Connects to the server (with backoff retries) and announces
    /// `rank`.
    pub fn connect(
        addr: SocketAddr,
        rank: usize,
        cfg: NetConfig,
    ) -> Result<NetWorker, ClusterError> {
        cfg.validate_worker()
            .map_err(|why| ClusterError::Protocol(format!("invalid NetConfig: {why}")))?;
        let breaker = CircuitBreaker::new(cfg.breaker.clone());
        let mut worker = NetWorker {
            rank,
            addr,
            cfg,
            conn: None,
            seq: 0,
            stats: TransportStats::default(),
            finished: false,
            trace_hook: None,
            breaker,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            spent: Vec::new(),
        };
        worker.reconnect()?;
        Ok(worker)
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Installs a span observer: frame encode/decode time is reported as
    /// `codec` spans and each request round trip as a `comm` span, all on
    /// the wall clock.
    pub fn set_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.trace_hook = Some(hook);
    }

    fn span(&self, phase: &'static str, t0: Instant, dur: f64) {
        if let Some(h) = &self.trace_hook {
            h.wall_span(Some(self.rank), phase, t0, dur);
        }
    }

    /// Tears down any existing connection, then dials the server again
    /// through the config's [`crate::BackoffSchedule`] and re-sends the
    /// `Hello`. An open circuit breaker fails fast instead of dialing at
    /// all; a successful dial closes it.
    fn reconnect(&mut self) -> Result<(), ClusterError> {
        self.teardown();
        if !self.breaker.allow(Instant::now()) {
            return Err(ClusterError::Disconnected);
        }
        let mut last_err = ClusterError::Disconnected;
        for delay in self.cfg.backoff().delays() {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            let stream = match TcpStream::connect(self.addr) {
                Ok(s) => s,
                Err(e) => {
                    last_err = e.into();
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            if let Err(e) = stream.set_read_timeout(Some(self.cfg.request_timeout)) {
                last_err = e.into();
                continue;
            }
            let write_half = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    last_err = e.into();
                    continue;
                }
            };
            let write = Arc::new(Mutex::new(write_half));
            let hello = Frame::hello_for(self.rank, self.cfg.wire_codec);
            if let Err(e) = write_frame(&mut *write.lock(), &hello) {
                last_err = e;
                continue;
            }
            let hb_stop = StopSignal::new();
            let hb = {
                let write = Arc::clone(&write);
                let stop = Arc::clone(&hb_stop);
                let interval = self.cfg.heartbeat_interval;
                std::thread::spawn(move || {
                    while !stop.wait(interval) {
                        let sent = write_payload(&mut *write.lock(), FrameKind::Heartbeat, 0, &[]);
                        if sent.is_err() {
                            // The request path will notice and reconnect;
                            // a beating heart on a dead socket helps nobody.
                            break;
                        }
                    }
                })
            };
            self.conn = Some(Conn { read: stream, write, hb_stop, hb: Some(hb) });
            self.breaker.record_success();
            return Ok(());
        }
        self.breaker.record_failure(Instant::now());
        Err(last_err)
    }

    /// The reconnect circuit breaker's current state.
    pub fn breaker_state(&mut self) -> BreakerState {
        self.breaker.state(Instant::now())
    }

    fn teardown(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            conn.hb_stop.stop();
            let _ = conn.read.shutdown(Shutdown::Both);
            if let Some(hb) = conn.hb.take() {
                let _ = hb.join();
            }
        }
    }

    /// Encodes `req` as the next frame of `kind` into the write buffer:
    /// payload after a header-sized gap, then the header (sequence
    /// number, length, checksum) filled in over the gap.
    fn stage<Req: WireMsg>(&mut self, kind: FrameKind, req: &Req) -> Result<u64, ClusterError> {
        let t0 = Instant::now();
        self.wbuf.clear();
        self.wbuf.reserve(HEADER_LEN + req.size_hint());
        self.wbuf.resize(HEADER_LEN, 0);
        req.encode(&mut self.wbuf);
        let encode = t0.elapsed().as_secs_f64();
        self.stats.serialize_seconds += encode;
        self.span("codec", t0, encode);
        self.seq += 1;
        let payload = &self.wbuf[HEADER_LEN..];
        let header = header_bytes(kind, self.seq, payload.len(), crc32(payload))?;
        self.wbuf[..HEADER_LEN].copy_from_slice(&header);
        Ok(self.seq)
    }

    /// Writes the staged frame, reconnecting and retrying once if the
    /// write itself fails.
    fn write_with_retry(&mut self) -> Result<(), ClusterError> {
        match self.write_staged() {
            Ok(()) => Ok(()),
            Err(_) => {
                self.reconnect()?;
                self.write_staged()
            }
        }
    }

    fn write_staged(&mut self) -> Result<(), ClusterError> {
        let conn = self.conn.as_ref().ok_or(ClusterError::Disconnected)?;
        let mut write = conn.write.lock();
        write.write_all(&self.wbuf)?;
        write.flush()?;
        Ok(())
    }

    /// Sends a blocking request and waits for the matching reply.
    pub fn request<Req: WireMsg, Resp: WireMsg>(
        &mut self,
        req: &Req,
    ) -> Result<Resp, ClusterError> {
        let seq = self.stage(FrameKind::Request, req)?;
        self.write_with_retry()?;

        let sent = Instant::now();
        loop {
            let conn = self.conn.as_mut().ok_or(ClusterError::Disconnected)?;
            let header = match read_frame_into(&mut conn.read, &mut self.rbuf) {
                Ok(header) => header,
                Err(e) => {
                    // Timeouts and disconnects both leave the stream in
                    // an unknown framing state; drop the connection so
                    // the next operation starts clean.
                    self.breaker.record_failure(Instant::now());
                    self.teardown();
                    return Err(e);
                }
            };
            if header.kind != FrameKind::Reply {
                self.teardown();
                return Err(ClusterError::Protocol(format!(
                    "server sent unexpected {:?} frame to a worker",
                    header.kind
                )));
            }
            if header.seq != seq {
                // A stale reply from before a reconnect; skip it, but
                // keep the overall deadline.
                if sent.elapsed() > self.cfg.request_timeout {
                    self.teardown();
                    return Err(ClusterError::Timeout);
                }
                continue;
            }
            // Requests/oneways/bytes are counted server-side; recording
            // them here too would double-count after the backend merge.
            let rtt = sent.elapsed().as_secs_f64();
            self.stats.rtt.record(rtt);
            self.span("comm", sent, rtt);
            let t0 = Instant::now();
            let payload = &self.rbuf[..header.payload_len];
            let resp = match Resp::decoded_reusing(payload, &mut self.spent) {
                Ok(resp) => resp,
                Err(e) => {
                    // The frame layer vouched for the bytes, but the codec
                    // rejected them: the connection's protocol state is
                    // suspect, so start the next operation from a clean
                    // reconnect instead of reading mid-conversation.
                    self.teardown();
                    return Err(e);
                }
            };
            let decode = t0.elapsed().as_secs_f64();
            self.stats.serialize_seconds += decode;
            self.span("codec", t0, decode);
            return Ok(resp);
        }
    }

    /// Fire-and-forget send.
    pub fn send<Req: WireMsg>(&mut self, req: &Req) -> Result<(), ClusterError> {
        self.stage(FrameKind::Oneway, req)?;
        self.write_with_retry()
    }

    /// Performs the clean `Goodbye` handshake and closes the connection.
    /// Idempotent.
    pub fn finish(&mut self) -> Result<(), ClusterError> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.seq += 1;
        let res = match &self.conn {
            Some(conn) => write_payload(&mut *conn.write.lock(), FrameKind::Goodbye, self.seq, &[]),
            None => Err(ClusterError::Disconnected),
        };
        self.teardown();
        res.map(|_| ())
    }

    /// Abruptly kills the transport — no `Goodbye`, sockets closed — as a
    /// fault-plan crash. Unlike [`NetWorker::finish`] the worker is *not*
    /// marked finished, so the next request/send after a restart dials the
    /// server again, re-sends `Hello`, and revives the rank.
    pub fn crash_transport(&mut self) {
        self.teardown();
    }

    /// Writes a frame whose CRC deliberately disagrees with its payload —
    /// the wire-level expression of a corrupted message. The server's
    /// reader rejects it and drops the connection; the connection is torn
    /// down locally too so the next operation starts from a clean
    /// reconnect instead of stalling on a reply that will never come.
    pub fn inject_corrupt_frame(&mut self) {
        if let Some(conn) = self.conn.as_ref() {
            let payload = b"deliberately corrupted payload";
            let mut buf = [0u8; crate::frame::HEADER_LEN];
            buf[0..4].copy_from_slice(&crate::frame::MAGIC.to_le_bytes());
            buf[4..6].copy_from_slice(&crate::frame::VERSION.to_le_bytes());
            buf[6] = FrameKind::Oneway as u8;
            buf[7] = 0;
            self.seq += 1;
            buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
            buf[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            let bad_crc = crate::frame::crc32(payload) ^ 0xFFFF_FFFF;
            buf[20..24].copy_from_slice(&bad_crc.to_le_bytes());
            {
                let mut write = conn.write.lock();
                let _ = write.write_all(&buf);
                let _ = write.write_all(payload);
                let _ = write.flush();
            }
        }
        self.teardown();
    }

    /// Simulates a *hung* worker for fault-injection tests: stops all
    /// traffic (heartbeats included) while leaving the socket open, so
    /// the server can only detect the loss via its heartbeat timeout.
    /// The leaked socket closes when the process exits.
    pub fn hang(mut self) {
        self.finished = true; // suppress the Drop-path Goodbye
        if let Some(mut conn) = self.conn.take() {
            conn.hb_stop.stop();
            if let Some(hb) = conn.hb.take() {
                let _ = hb.join();
            }
            std::mem::forget(conn.read);
            std::mem::forget(conn.write);
        }
    }

    /// Worker-side transport statistics accumulated so far (RTTs and
    /// serialization time; byte totals are accounted server-side).
    pub fn take_stats(&mut self) -> TransportStats {
        std::mem::take(&mut self.stats)
    }
}

impl Drop for NetWorker {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

// Fault-plan hooks: a crash is an abrupt socket kill (the restart delay is
// slept by the backend's worker loop), and wire corruption is a real
// bad-CRC frame that exercises the server's per-connection recovery. Link
// delays use the default wall-clock sleep.
impl FaultHooks for NetWorker {
    fn fault_crash(&mut self, _restart_after_ms: Option<u32>) {
        self.crash_transport();
    }

    fn fault_corrupt_wire(&mut self) {
        self.inject_corrupt_frame();
    }
}

impl<Req: WireMsg, Resp: WireMsg> WorkerLink<Req, Resp> for NetWorker {
    fn worker(&self) -> usize {
        self.rank
    }

    fn request(&mut self, req: Req) -> Result<Resp, ClusterError> {
        NetWorker::request(self, &req)
    }

    fn send(&mut self, req: Req) -> Result<Option<Req>, ClusterError> {
        NetWorker::send(self, &req)?;
        Ok(Some(req))
    }

    fn recycle(&mut self, spent: Vec<f32>) {
        keep_spent(&mut self.spent, [spent], SPENT_CAP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn breaker_opens_after_repeated_reconnect_failures_and_fails_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut cfg = NetConfig::fast();
        cfg.connect_attempts = 1;
        cfg.request_timeout = Duration::from_millis(100);
        cfg.breaker = crate::breaker::BreakerConfig {
            failure_threshold: 2,
            window: Duration::from_secs(5),
            cooldown: Duration::from_secs(5), // long: stays Open for the test
            cooldown_cap: Duration::from_secs(5),
        };
        let accepted = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream
        });
        let mut w = NetWorker::connect(addr, 0, cfg).unwrap();
        assert_eq!(w.breaker_state(), BreakerState::Closed);
        // Server side (and the listener) go away entirely.
        drop(accepted.join().unwrap());
        // Failures accumulate — the dead read, then a refused redial —
        // until the breaker trips.
        for _ in 0..4 {
            if w.request::<u32, u32>(&1).is_ok() {
                panic!("no server to answer");
            }
            if w.breaker_state() == BreakerState::Open {
                break;
            }
        }
        assert_eq!(w.breaker_state(), BreakerState::Open);
        // Open breaker: the next request fails fast, without dialing.
        let t0 = Instant::now();
        assert!(w.request::<u32, u32>(&1).is_err());
        assert!(t0.elapsed() < Duration::from_millis(50), "open breaker must not dial");
        w.finished = true; // skip the Drop-path Goodbye on a dead socket
    }
}
