//! The worker side of the TCP backend.
//!
//! A `NetWorker` owns one connection to the parameter server: the read
//! half stays on the calling thread (the only server→worker traffic is
//! replies), the write half is shared with a background heartbeat thread
//! that keeps the connection visibly alive between pushes.
//!
//! No frame is ever whole in memory. A message goes out as its header —
//! length and CRC from one checksum pass over the message — then its
//! payload, encoded one window at a time into the worker's staging block
//! and written from it. A reply comes in through the same block, one
//! read at a time, decoded as it arrives and hashed as it lands; a reply
//! whose checksum fails is a framing failure however its bytes decode.
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

use crate::config::NetConfig;
use crate::frame::{
    checksum, header_bytes, read_header, read_msg, write_frame, write_msg, write_payload, Frame,
    FrameKind, HEADER_LEN,
};
use lcasgd_simcluster::backend::{keep_spent, StopSignal};
use lcasgd_simcluster::{ClusterError, FaultHooks, TraceHook, TransportStats, WireMsg, WorkerLink};
use parking_lot::Mutex;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// The one staging block, used both ways: a frame goes out encoded
    /// into it one window at a time, a reply comes in through it one block
    /// at a time ([`crate::frame::STAGE`] bytes).
    stage: Vec<u8>,
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
        let mut worker = NetWorker {
            rank,
            addr,
            cfg,
            conn: None,
            seq: 0,
            stats: TransportStats::default(),
            finished: false,
            trace_hook: None,
            stage: Vec::new(),
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
    /// `Hello`.
    fn reconnect(&mut self) -> Result<(), ClusterError> {
        self.teardown();
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
            let hb_stop = Arc::new(StopSignal::default());
            let hb = {
                let write = Arc::clone(&write);
                let stop = Arc::clone(&hb_stop);
                let interval = self.cfg.heartbeat_interval;
                let beat = move || {
                    while !stop.wait(interval) {
                        let sent = write_payload(&mut *write.lock(), FrameKind::Heartbeat, 0, &[]);
                        if sent.is_err() {
                            // The request path will notice and reconnect;
                            // a beating heart on a dead socket helps nobody.
                            break;
                        }
                    }
                };
                std::thread::Builder::new()
                    .name(format!("heartbeat-{}", self.rank))
                    .spawn(beat)
                    .expect("spawn the heartbeat thread")
            };
            self.conn = Some(Conn { read: stream, write, hb_stop, hb: Some(hb) });
            return Ok(());
        }
        Err(last_err)
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

    /// Sends `msg` as the next frame of `kind`: the header from one
    /// checksum pass over the message, then the payload one staging
    /// window at a time. A failed write reconnects and sends it once more,
    /// encoded again from the message. Returns the frame's sequence
    /// number.
    fn send_frame<M: WireMsg>(&mut self, kind: FrameKind, msg: &M) -> Result<u64, ClusterError> {
        let t0 = Instant::now();
        self.seq += 1;
        let (crc, len) = checksum(msg);
        let header = header_bytes(kind, self.seq, len, crc)?;
        let mut encode = t0.elapsed().as_secs_f64();
        encode += match self.write_staged(&header, msg, len) {
            Ok(secs) => secs,
            Err(_) => {
                self.reconnect()?;
                self.write_staged(&header, msg, len)?
            }
        };
        self.stats.serialize_seconds += encode;
        self.span("codec", t0, encode);
        Ok(self.seq)
    }

    fn write_staged<M: WireMsg>(
        &mut self,
        header: &[u8; HEADER_LEN],
        msg: &M,
        len: usize,
    ) -> Result<f64, ClusterError> {
        let conn = self.conn.as_ref().ok_or(ClusterError::Disconnected)?;
        let mut write = conn.write.lock();
        write_msg(&mut *write, header, msg, len, &mut self.stage)
    }

    /// A reply that failed as a frame — timeout, disconnect, bad header or
    /// checksum — leaves the stream in an unknown framing state: the
    /// connection is dropped so the next operation starts clean.
    fn framing_failure(&mut self, e: ClusterError) -> ClusterError {
        self.teardown();
        e
    }

    /// Sends a blocking request and waits for the matching reply, which
    /// is decoded as it arrives.
    pub fn request<Req: WireMsg, Resp: WireMsg>(
        &mut self,
        req: &Req,
    ) -> Result<Resp, ClusterError> {
        let seq = self.send_frame(FrameKind::Request, req)?;

        let sent = Instant::now();
        loop {
            let conn = self.conn.as_mut().ok_or(ClusterError::Disconnected)?;
            let header = match read_header(&mut conn.read) {
                Ok(header) => header,
                Err(e) => return Err(self.framing_failure(e)),
            };
            if header.kind != FrameKind::Reply {
                self.teardown();
                return Err(ClusterError::Protocol(format!(
                    "server sent unexpected {:?} frame to a worker",
                    header.kind
                )));
            }
            if header.seq != seq {
                // A stale reply from before a reconnect: read past it,
                // checksum and all (as `()`, which decodes none of it),
                // but keep the overall deadline.
                let stale =
                    read_msg::<()>(&mut conn.read, &header, &mut self.stage, &mut self.spent);
                if let Err(e) = stale {
                    return Err(self.framing_failure(e));
                }
                if sent.elapsed() > self.cfg.request_timeout {
                    self.teardown();
                    return Err(ClusterError::Timeout);
                }
                continue;
            }
            let read = read_msg::<Resp>(&mut conn.read, &header, &mut self.stage, &mut self.spent);
            let (resp, decode) = match read {
                Ok(read) => read,
                Err(e) => return Err(self.framing_failure(e)),
            };
            // Requests/oneways/bytes are counted server-side; recording
            // them here too would double-count after the backend merge.
            // The round trip is the wait and the reading; what decoding
            // took, interleaved with the reading, is the codec's.
            let rtt = sent.elapsed().as_secs_f64() - decode;
            self.stats.rtt.record(rtt);
            self.span("comm", sent, rtt);
            let Ok(resp) = resp else {
                // The frame layer vouched for the bytes, but the codec
                // rejected them: the connection's protocol state is
                // suspect, so start the next operation from a clean
                // reconnect instead of reading mid-conversation.
                self.teardown();
                return resp;
            };
            self.stats.serialize_seconds += decode;
            self.span("codec", sent + Duration::from_secs_f64(rtt), decode);
            return Ok(resp);
        }
    }

    /// Fire-and-forget send.
    pub fn send<Req: WireMsg>(&mut self, req: &Req) -> Result<(), ClusterError> {
        self.send_frame(FrameKind::Oneway, req).map(|_| ())
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
