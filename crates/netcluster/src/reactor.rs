//! The parameter-server side of the TCP backend: a readiness-driven
//! reactor — one thread, all connections.
//!
//! `ReactorServer` accepts up to M worker connections and multiplexes
//! their frames onto one serialized event loop — Algorithm 2's `repeat …
//! until forever`, with real sockets instead of a virtual clock. The loop
//! owns all mutable server state, so the algorithm closure needs no
//! locking. (Its predecessor spent a thread per connection; past a few
//! dozen workers the scheduler, the per-frame allocations and the
//! serialized reply encoding dominated the apply loop. DESIGN.md §12 keeps
//! that server's last measured numbers.)
//!
//! * **One reactor thread** owns the listener and every connection as
//!   nonblocking sockets, sweeping them for readiness (a small poll loop —
//!   no epoll binding, no extra threads, trivial teardown).
//! * **One read buffer per connection**: each connection parses frames
//!   in place out of its own buffer, which grows only to the largest
//!   frame its peer sends and is freed with the connection.
//! * **Replies are values, not bytes**: a queued reply is the reply
//!   itself, with its checksum and length from one pass that builds
//!   nothing ([`checksum`]); it is encoded one window at a time into the
//!   reactor's one staging block as the socket takes it, so no model-sized
//!   byte buffer exists on the way out, and a reply sent to many
//!   connections is encoded once per window.
//! * **Pull coalescing**: within a sweep, control frames and oneways
//!   (gradient pushes) are applied first and blocking requests are
//!   answered second, at the post-apply server state. Replies carrying
//!   the same coalescing key (see `ServerCtx::reply_keyed`) are then all
//!   served from one cached reply + CRC — the reply header is re-stamped
//!   per request (the checksum covers only the payload), so N concurrent
//!   pulls of one weights version cost one checksum pass instead of N. An
//!   entry lives for its sweep, and after it only while a queued write
//!   holds its reply.
//!
//! Coalesced replies are *byte-identical* to per-request replies by
//! construction: the same reply encoded, the same CRC, only the echoed
//! `seq` differs — exactly as if each had been checksummed fresh.
//!
//! Ordering contract: frames from one connection are processed in arrival
//! order, except that a blocking `Request` is answered after any oneways
//! that arrived in the same sweep (from any connection). A worker blocks
//! on its own request, so a request is always the last frame of its
//! connection's batch and per-connection FIFO is preserved; cross-
//! connection ordering was never guaranteed by any backend.
//!
//! Liveness: any frame (heartbeats included) refreshes a connection's
//! `last_seen`. A connection silent past the heartbeat timeout is shut
//! down and its worker marked dead — the loop keeps serving the survivors
//! instead of stalling. A rank that never says hello within the hello
//! timeout is likewise written off. A worker may reconnect and re-`Hello`
//! at any time, superseding (and closing) its old connection and reviving
//! a dead rank; a rank whose frames keep failing the payload codec has its
//! redials refused by a per-rank circuit breaker until the cooldown admits
//! a half-open probe.
//!
//! Termination: the run ends when every rank has either finished cleanly
//! (`Goodbye`) or been declared dead.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::config::NetConfig;
use crate::frame::{checksum, crc32, header_bytes, parse_header, FrameKind, HEADER_LEN, STAGE};
use lcasgd_simcluster::backend::keep_spent;
use lcasgd_simcluster::{ClusterError, ServerCtx, TraceHook, TransportStats, Window, WireMsg};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phase label for a coalesced (cache-served) reply. Attributed to no
/// worker: the span represents work *saved* for the whole sweep, not time
/// inside any single worker's request. Wall-clock domain, like every
/// server-side span on the TCP backend.
pub const COALESCE_PHASE: &str = "coalesce";

/// Sleep when a sweep found no work; bounds reactor latency while keeping
/// the idle loop off the CPU.
const IDLE_SLEEP: Duration = Duration::from_micros(300);

/// Smallest read buffer. A connection's buffer grows beyond it only to
/// the exact size of a frame that does not fit, so it never exceeds the
/// largest frame its peer has sent (`HEADER_LEN + MAX_PAYLOAD` at most).
const READ_CHUNK: usize = 4 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    Pending,
    Active,
    Finished,
    Dead,
}

/// One queued reply: a per-request header and the reply itself, shared
/// (coalescing) with other replies and the cache. It is encoded one
/// window at a time as the socket takes it.
struct PendingWrite<Resp> {
    header: [u8; HEADER_LEN],
    reply: Rc<Resp>,
    /// Frame length, header included.
    total: usize,
    /// Bytes of the frame already written.
    off: usize,
    /// The worker it answers, and when it was queued: its `codec` span.
    rank: usize,
    queued: Instant,
    /// Seconds spent encoding its windows so far.
    encode: f64,
}

struct Conn<Resp> {
    stream: TcpStream,
    rank: Option<usize>,
    last_seen: Instant,
    /// Read buffer; `buf[..filled]` holds unparsed stream bytes.
    buf: Vec<u8>,
    filled: usize,
    wq: VecDeque<PendingWrite<Resp>>,
}

/// The reactor's one staging block: bytes `[from, from + block.len())` of
/// `reply`'s payload, the window encoded last. Every connection writes
/// from it (the frame's header and then the window, in one vectored
/// write), so a reply sent to many connections — a coalesced pull — is
/// encoded once per window, not once per connection. The `Weak` keeps the
/// reply's address, not its value: no later reply can be taken for it,
/// and the reply's snapshot is freed with its last write.
struct Stage<Resp> {
    block: Vec<u8>,
    reply: Weak<Resp>,
    from: usize,
}

/// A reply the cache can serve again: the reply, and its encoding's
/// checksum and length.
struct CachedReply<Resp> {
    reply: Rc<Resp>,
    crc: u32,
    len: usize,
}

/// The coalescing cache: one reply, with its checksum and length, per
/// key. An entry outlives its sweep only while a queued write still holds
/// its reply ([`ReplyCache::retire`]), so the cache holds at most one
/// entry per pending request and one per connection, and never keeps a
/// superseded weights snapshot alive after its writes are done.
struct ReplyCache<Resp> {
    entries: HashMap<u64, CachedReply<Resp>>,
}

impl<Resp> ReplyCache<Resp> {
    fn new() -> Self {
        ReplyCache { entries: HashMap::new() }
    }

    fn get(&self, key: u64) -> Option<&CachedReply<Resp>> {
        self.entries.get(&key)
    }

    /// Caches `entry` under `key`, which must not be present.
    fn insert(&mut self, key: u64, entry: CachedReply<Resp>) {
        self.entries.insert(key, entry);
    }

    /// Drops every entry no queued write holds. Called at the end of each
    /// sweep: a key is version-unique, so once the next sweep may have
    /// applied a push the entry may be dead — and a dead weights reply
    /// would pin its snapshot, making the server's next snapshot a new
    /// allocation instead of a refill.
    fn retire(&mut self) {
        self.entries.retain(|_, e| Rc::strong_count(&e.reply) > 1);
    }
}

/// A blocking request parsed this sweep, answered after all oneways.
struct PendingReq<Req> {
    rank: usize,
    seq: u64,
    req: Req,
}

/// A bound-but-not-yet-serving reactor parameter server.
pub struct ReactorServer {
    listener: TcpListener,
    workers: usize,
    cfg: NetConfig,
    trace_hook: Option<Arc<dyn TraceHook>>,
}

impl ReactorServer {
    /// Binds the listener. Pass `127.0.0.1:0` to let the OS pick a port.
    pub fn bind(
        addr: impl ToSocketAddrs,
        workers: usize,
        cfg: NetConfig,
    ) -> io::Result<ReactorServer> {
        assert!(workers > 0, "need at least one worker");
        cfg.validate_server().map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
        Ok(ReactorServer { listener: TcpListener::bind(addr)?, workers, cfg, trace_hook: None })
    }

    /// Installs a span observer (`codec` spans for encode/decode time,
    /// [`COALESCE_PHASE`] spans for cache-served replies).
    pub fn set_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.trace_hook = Some(hook);
    }

    /// The address workers should connect to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the reactor loop until every rank is finished or dead.
    pub fn serve<Req, Resp, S>(self, mut server_fn: S) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg,
        Resp: WireMsg,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
    {
        let m = self.workers;
        let cfg = &self.cfg;
        let hook = self.trace_hook.clone();
        self.listener.set_nonblocking(true)?;

        let mut conns: HashMap<u64, Conn<Resp>> = HashMap::new();
        let mut next_id = 0u64;
        let mut rank_conn: Vec<Option<u64>> = vec![None; m];
        let mut rank_breakers: Vec<CircuitBreaker> =
            (0..m).map(|_| CircuitBreaker::new(cfg.breaker.clone())).collect();
        let mut rank_state = vec![RankState::Pending; m];
        let mut awaiting: Vec<Option<u64>> = vec![None; m];
        let mut stats = TransportStats::default();
        let mut result: Result<(), ClusterError> = Ok(());
        let mut cache = ReplyCache::new();
        let mut stage = Stage { block: Vec::new(), reply: Weak::new(), from: 0 };
        let mut pending: Vec<PendingReq<Req>> = Vec::new();
        // Payload vectors of requests the server has finished with
        // (`ServerCtx::recycle`); the next model-sized requests are decoded
        // into them. A worker has one such request in flight at a time, so
        // `m` of them is all a run can use: whatever comes back beyond that
        // is dropped (`keep_spent`), whoever made it.
        let mut spent: Vec<Vec<f32>> = Vec::new();
        let started = Instant::now();

        'serve: loop {
            let mut activity = false;

            // -- accept everything the listener has queued ------------
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conns.insert(
                            next_id,
                            Conn {
                                stream,
                                rank: None,
                                last_seen: Instant::now(),
                                buf: vec![0; READ_CHUNK],
                                filled: 0,
                                wq: VecDeque::new(),
                            },
                        );
                        next_id += 1;
                        activity = true;
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }

            // -- phase A: read every connection, apply control frames
            //    and oneways, queue blocking requests -----------------
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                let Some(conn) = conns.get_mut(&id) else { continue };

                let mut closed = false;
                loop {
                    if conn.filled == conn.buf.len() {
                        // Full. Grow only for a head frame that cannot
                        // complete in this buffer, and then to exactly
                        // its size. Otherwise complete frames (or a
                        // header the parser will reject) are waiting:
                        // let the parse pass below drain them first.
                        match parse_header(&conn.buf[..HEADER_LEN]) {
                            Ok(h) if HEADER_LEN + h.payload_len > conn.buf.len() => {
                                let total = HEADER_LEN + h.payload_len;
                                conn.buf.reserve_exact(total - conn.buf.len());
                                conn.buf.resize(total, 0);
                            }
                            _ => break,
                        }
                    }
                    match conn.stream.read(&mut conn.buf[conn.filled..]) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.filled += n;
                            activity = true;
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }

                // Take the buffer out so frame payloads can be decoded
                // in place while handlers borrow the connection table.
                let mut lbuf = std::mem::take(&mut conn.buf);
                let lfilled = std::mem::replace(&mut conn.filled, 0);
                let mut conn_rank = conn.rank;
                let mut pos = 0usize;
                let mut poison = false;
                let mut parsed_any = false;

                while lfilled - pos >= HEADER_LEN {
                    let header = match parse_header(&lbuf[pos..pos + HEADER_LEN]) {
                        Ok(h) => h,
                        Err(_) => {
                            // An unparseable header means the stream can
                            // never resynchronize: drop the connection
                            // (the threaded server's reader thread exits
                            // here too). Not a breaker event — the
                            // breaker guards the payload codec, not the
                            // framing layer.
                            poison = true;
                            break;
                        }
                    };
                    let total = HEADER_LEN + header.payload_len;
                    if lfilled - pos < total {
                        break; // incomplete frame; wait for more bytes
                    }
                    let payload = &lbuf[pos + HEADER_LEN..pos + total];
                    if crc32(payload) != header.crc {
                        poison = true;
                        break;
                    }
                    pos += total;
                    parsed_any = true;

                    match header.kind {
                        FrameKind::Heartbeat => {}
                        FrameKind::Reply => {
                            // Workers never send replies.
                            poison = true;
                            break;
                        }
                        FrameKind::Hello => {
                            let hello =
                                crate::frame::Frame::new(header.kind, header.seq, payload.to_vec());
                            let (Ok(rank), Ok(codec)) = (hello.hello_rank(), hello.hello_codec())
                            else {
                                poison = true;
                                break;
                            };
                            if rank >= m || conn_rank.is_some() || codec != cfg.wire_codec {
                                poison = true;
                                break;
                            }
                            if !rank_breakers[rank].allow(Instant::now()) {
                                // Open breaker: refuse the redial. The
                                // rank is still unbound, so this only
                                // drops the socket.
                                poison = true;
                                break;
                            }
                            conn_rank = Some(rank);
                            // A reconnect supersedes the old socket.
                            if let Some(old) = rank_conn[rank] {
                                if old != id {
                                    close_conn(
                                        &mut conns,
                                        old,
                                        &mut rank_conn,
                                        &mut rank_state,
                                        &mut awaiting,
                                    );
                                }
                            }
                            rank_conn[rank] = Some(id);
                            if rank_state[rank] != RankState::Finished {
                                rank_state[rank] = RankState::Active;
                            }
                        }
                        FrameKind::Goodbye => {
                            if let Some(rank) = conn_rank {
                                rank_state[rank] = RankState::Finished;
                                awaiting[rank] = None;
                            }
                        }
                        FrameKind::Request | FrameKind::Oneway => {
                            let Some(rank) = conn_rank else {
                                // Traffic before Hello: rogue peer.
                                poison = true;
                                break;
                            };
                            let expects_reply = header.kind == FrameKind::Request;
                            stats.bytes_sent += total as u64;
                            if expects_reply {
                                stats.requests += 1;
                                awaiting[rank] = Some(header.seq);
                            } else {
                                stats.oneways += 1;
                            }
                            let t0 = Instant::now();
                            let req = match Req::decoded_reusing(payload, &mut spent) {
                                Ok(req) => req,
                                Err(_) => {
                                    // Framed correctly but fails the
                                    // codec: per-connection failure that
                                    // feeds the rank's breaker, exactly
                                    // like the threaded server.
                                    rank_breakers[rank].record_failure(Instant::now());
                                    poison = true;
                                    break;
                                }
                            };
                            if rank_breakers[rank].state(Instant::now()) != BreakerState::Closed {
                                rank_breakers[rank].record_success();
                            }
                            let decode = t0.elapsed().as_secs_f64();
                            stats.serialize_seconds += decode;
                            if let Some(h) = &hook {
                                h.wall_span(Some(rank), "codec", t0, decode);
                            }

                            if expects_reply {
                                pending.push(PendingReq { rank, seq: header.seq, req });
                            } else {
                                let mut ctx = ServerCtx::new(rank, false);
                                server_fn(rank, req, &mut ctx);
                                keep_spent(&mut spent, ctx.take_recycled(), m);
                                if let Err(e) = deliver_replies(
                                    ctx.take_keyed_replies(),
                                    m,
                                    &mut conns,
                                    &mut rank_conn,
                                    &mut rank_state,
                                    &mut awaiting,
                                    &mut cache,
                                    &mut stage,
                                    &mut stats,
                                    &hook,
                                ) {
                                    result = Err(e);
                                    break 'serve;
                                }
                            }
                        }
                    }
                }

                // Put the (compacted) buffer back, then apply whatever
                // fate the batch decided.
                if let Some(conn) = conns.get_mut(&id) {
                    if pos > 0 {
                        lbuf.copy_within(pos..lfilled, 0);
                    }
                    conn.filled = lfilled - pos;
                    conn.buf = lbuf;
                    conn.rank = conn_rank;
                    if parsed_any {
                        conn.last_seen = Instant::now();
                    }
                    if poison || closed {
                        close_conn(&mut conns, id, &mut rank_conn, &mut rank_state, &mut awaiting);
                    }
                }
            }

            // -- phase B: answer this sweep's blocking requests at the
            //    post-apply server state. Same-key replies coalesce. ---
            for preq in pending.drain(..) {
                if rank_state[preq.rank] != RankState::Active
                    || awaiting[preq.rank] != Some(preq.seq)
                {
                    // The connection died or said Goodbye after queueing:
                    // the worker is gone, drop its request like the
                    // threaded server drops replies to dead ranks.
                    continue;
                }
                let mut ctx = ServerCtx::new(preq.rank, true);
                server_fn(preq.rank, preq.req, &mut ctx);
                keep_spent(&mut spent, ctx.take_recycled(), m);
                if let Err(e) = deliver_replies(
                    ctx.take_keyed_replies(),
                    m,
                    &mut conns,
                    &mut rank_conn,
                    &mut rank_state,
                    &mut awaiting,
                    &mut cache,
                    &mut stage,
                    &mut stats,
                    &hook,
                ) {
                    result = Err(e);
                    break 'serve;
                }
            }

            // -- flush write queues stalled on a full socket. Only a
            //    byte written is activity: a socket that took nothing
            //    leaves the sweep idle, so a peer that stops reading
            //    does not make the loop spin. -----------------------
            let stalled: Vec<u64> =
                conns.iter().filter(|(_, c)| !c.wq.is_empty()).map(|(&id, _)| id).collect();
            for id in stalled {
                let Some(conn) = conns.get_mut(&id) else { continue };
                match try_flush(conn, &mut stage, &mut stats, &hook) {
                    Ok(wrote) => activity |= wrote,
                    Err(_) => {
                        close_conn(&mut conns, id, &mut rank_conn, &mut rank_state, &mut awaiting)
                    }
                }
            }
            cache.retire();

            // -- liveness sweeps --------------------------------------
            let now = Instant::now();
            let stale: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_seen) > cfg.heartbeat_timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in stale {
                close_conn(&mut conns, id, &mut rank_conn, &mut rank_state, &mut awaiting);
            }
            if started.elapsed() > cfg.hello_timeout {
                for state in rank_state.iter_mut() {
                    if *state == RankState::Pending {
                        *state = RankState::Dead;
                    }
                }
            }

            if rank_state.iter().all(|s| matches!(s, RankState::Finished | RankState::Dead)) {
                break 'serve;
            }

            if !activity {
                std::thread::sleep(IDLE_SLEEP);
            }
        }

        // Give queued replies a bounded chance to drain before teardown
        // (a worker may still be blocked reading its final reply).
        let deadline = Instant::now() + Duration::from_millis(500);
        while conns.values().any(|c| !c.wq.is_empty()) && Instant::now() < deadline {
            let stalled: Vec<u64> =
                conns.iter().filter(|(_, c)| !c.wq.is_empty()).map(|(&id, _)| id).collect();
            for id in stalled {
                let Some(conn) = conns.get_mut(&id) else { continue };
                if try_flush(conn, &mut stage, &mut stats, &hook).is_err() {
                    conn.wq.clear();
                }
            }
            std::thread::sleep(IDLE_SLEEP);
        }

        // Teardown: shut every surviving connection.
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in ids {
            close_conn(&mut conns, id, &mut rank_conn, &mut rank_state, &mut awaiting);
        }

        result.map(|()| stats)
    }
}

/// Hard-closes a connection: shuts the socket, frees its buffers, and
/// updates rank bookkeeping (an Active rank that loses its
/// live connection is Dead until it re-Hellos).
fn close_conn<Resp>(
    conns: &mut HashMap<u64, Conn<Resp>>,
    id: u64,
    rank_conn: &mut [Option<u64>],
    rank_state: &mut [RankState],
    awaiting: &mut [Option<u64>],
) {
    if let Some(conn) = conns.remove(&id) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        if let Some(rank) = conn.rank {
            if rank_conn[rank] == Some(id) {
                rank_conn[rank] = None;
                if rank_state[rank] == RankState::Active {
                    rank_state[rank] = RankState::Dead;
                    awaiting[rank] = None;
                }
            }
        }
    }
}

/// Writes as much of `conn`'s queue as the socket will take, encoding the
/// front reply one [`STAGE`] window at a time into the reactor's staging
/// block unless that block already holds the bytes. `Ok(true)` if any byte
/// was written; `Ok` means the socket is healthy (the queue may still be
/// nonempty), `Err` that the peer is gone and the connection should be
/// closed. A reply's encoding time is booked as one `codec` span when its
/// last byte is written.
fn try_flush<Resp: WireMsg>(
    conn: &mut Conn<Resp>,
    stage: &mut Stage<Resp>,
    stats: &mut TransportStats,
    hook: &Option<Arc<dyn TraceHook>>,
) -> io::Result<bool> {
    let mut wrote = false;
    loop {
        let Some(front) = conn.wq.front_mut() else { return Ok(wrote) };
        if front.off == front.total {
            stats.serialize_seconds += front.encode;
            if let Some(h) = hook {
                h.wall_span(Some(front.rank), "codec", front.queued, front.encode);
            }
            conn.wq.pop_front();
            continue;
        }
        let at = front.off.saturating_sub(HEADER_LEN);
        let staged = Weak::as_ptr(&stage.reply) == Rc::as_ptr(&front.reply)
            && (stage.from..stage.from + stage.block.len()).contains(&at);
        if !staged {
            let t0 = Instant::now();
            stage.block.clear();
            front.reply.encode(&mut Window::new(&mut stage.block, at, STAGE));
            stage.reply = Rc::downgrade(&front.reply);
            stage.from = at;
            front.encode += t0.elapsed().as_secs_f64();
        }
        let head = IoSlice::new(&front.header[front.off.min(HEADER_LEN)..]);
        let window = IoSlice::new(&stage.block[at - stage.from..]);
        match conn.stream.write_vectored(&[head, window]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                front.off += n;
                wrote = true;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(wrote),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Queues one batch of replies. Same-key replies are served from the
/// coalescing cache: one checksum pass shared across requests, with a
/// fresh header stamped per `seq`.
#[allow(clippy::too_many_arguments)]
fn deliver_replies<Resp: WireMsg>(
    replies: Vec<(usize, Resp, Option<u64>)>,
    m: usize,
    conns: &mut HashMap<u64, Conn<Resp>>,
    rank_conn: &mut [Option<u64>],
    rank_state: &mut [RankState],
    awaiting: &mut [Option<u64>],
    cache: &mut ReplyCache<Resp>,
    stage: &mut Stage<Resp>,
    stats: &mut TransportStats,
    hook: &Option<Arc<dyn TraceHook>>,
) -> Result<(), ClusterError> {
    for (target, resp, key) in replies {
        if target >= m {
            return Err(ClusterError::Protocol(format!(
                "reply to worker {target}, but the cluster has {m}"
            )));
        }
        if rank_state[target] == RankState::Dead {
            // Dropped worker: discard, like a real PS talking to a ghost.
            continue;
        }
        let Some(seq) = awaiting[target].take() else {
            return Err(ClusterError::Protocol(format!(
                "reply to worker {target}, which has no pending request"
            )));
        };

        let t0 = Instant::now();
        let (reply, crc, len) = match key.and_then(|k| cache.get(k)) {
            Some(hit) => {
                // Cache hit: byte-identical to a fresh reply (same value,
                // same CRC), no checksum pass booked — that's the whole
                // point. The span is attributed to no worker: it is
                // sweep-level work, not part of any single request.
                if let Some(h) = hook {
                    h.wall_span(None, COALESCE_PHASE, t0, t0.elapsed().as_secs_f64());
                }
                (Rc::clone(&hit.reply), hit.crc, hit.len)
            }
            None => {
                let (crc, len) = checksum(&resp);
                let encode = t0.elapsed().as_secs_f64();
                stats.serialize_seconds += encode;
                if let Some(h) = hook {
                    h.wall_span(Some(target), "codec", t0, encode);
                }
                let reply = Rc::new(resp);
                if let Some(k) = key {
                    cache.insert(k, CachedReply { reply: Rc::clone(&reply), crc, len });
                }
                (reply, crc, len)
            }
        };

        let header = header_bytes(FrameKind::Reply, seq, len, crc)?;
        let total = HEADER_LEN + len;
        let cid = rank_conn[target];
        let queued = match cid.and_then(|cid| conns.get_mut(&cid)) {
            Some(conn) => {
                let write = PendingWrite {
                    header,
                    reply,
                    total,
                    off: 0,
                    rank: target,
                    queued: Instant::now(),
                    encode: 0.0,
                };
                conn.wq.push_back(write);
                Some(try_flush(conn, stage, stats, hook).is_ok())
            }
            None => None,
        };
        match queued {
            Some(true) => stats.bytes_received += total as u64,
            Some(false) => {
                // Write failure: the worker is gone; reap it and move on.
                close_conn(conns, cid.unwrap(), rank_conn, rank_state, awaiting);
            }
            None => {
                // No live connection: likewise.
                rank_conn[target] = None;
                if rank_state[target] == RankState::Active {
                    rank_state[target] = RankState::Dead;
                    awaiting[target] = None;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::frame::{read_frame, write_frame, Frame};
    use crate::worker::NetWorker;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn entry(reply: &Rc<Vec<f32>>) -> CachedReply<Vec<f32>> {
        CachedReply { reply: Rc::clone(reply), crc: 0, len: 0 }
    }

    #[test]
    fn the_cache_keeps_only_what_a_queued_write_holds() {
        let mut cache = ReplyCache::new();
        let queued = Rc::new(vec![1.0f32; 8]);
        let written = Rc::new(vec![2.0f32; 8]);
        cache.insert(1, entry(&queued));
        cache.insert(2, entry(&written));
        drop(written);
        // Within the sweep both serve hits.
        assert!(cache.get(1).is_some() && cache.get(2).is_some());
        cache.retire();
        assert!(cache.get(1).is_some(), "a reply still being written stays");
        assert!(cache.get(2).is_none(), "a written reply goes with its sweep");
        drop(queued);
        cache.retire();
        assert!(cache.entries.is_empty());
    }

    /// Frames correctly (valid CRC) but fails the `u32` payload codec.
    fn garbage_request(seq: u64) -> Frame {
        Frame::new(FrameKind::Request, seq, vec![1, 2, 3])
    }

    fn valid_request(seq: u64, x: u32) -> Frame {
        Frame::new(FrameKind::Request, seq, x.encoded())
    }

    /// CPU time the calling thread has run, from the scheduler's
    /// statistics.
    #[cfg(target_os = "linux")]
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        Duration::from_nanos(stat.split_whitespace().next().unwrap().parse().unwrap())
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_reply_its_peer_does_not_read_leaves_the_reactor_idle() {
        // 16 MB, more than loopback's socket buffers hold: the write
        // stalls until the peer reads.
        const N: usize = 4 << 20;
        const STALL: Duration = Duration::from_millis(500);
        let mut cfg = NetConfig::fast();
        cfg.heartbeat_timeout = Duration::from_secs(5);
        let server = ReactorServer::bind("127.0.0.1:0", 1, cfg).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let peer = scope.spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                write_frame(&mut s, &Frame::hello(0)).unwrap();
                write_frame(&mut s, &valid_request(1, 7)).unwrap();
                std::thread::sleep(STALL);
                let (reply, _) = read_frame(&mut s).unwrap();
                write_frame(&mut s, &Frame::new(FrameKind::Goodbye, 2, Vec::new())).unwrap();
                Vec::<f32>::decoded(&reply.payload).unwrap().len()
            });
            let (wall, cpu) = (Instant::now(), thread_cpu());
            server
                .serve(|_w, _x: u32, ctx: &mut ServerCtx<Vec<f32>>| ctx.reply(vec![1.0; N]))
                .unwrap();
            let (wall, cpu) = (wall.elapsed(), thread_cpu() - cpu);
            assert_eq!(peer.join().unwrap(), N);
            assert!(wall >= STALL);
            assert!(cpu < wall / 4, "the reactor ran {cpu:?} of {wall:?} while nothing was read");
        });
    }

    #[test]
    fn replies_interleaved_through_the_shared_stage_arrive_intact() {
        // Two 8 MB replies, each larger than a socket holds: one peer reads
        // at once, the other later, so the reactor's staging block moves
        // back and forth between two replies at different offsets. Then two
        // small replies each, every one from offset 0, where the block
        // still holds the previous reply's window. Every value carries its
        // rank and request, and `read_frame` checks each reply's CRC.
        let reply = |rank: usize, x: u32| {
            let n = if x == 7 { 2 << 20 } else { 1024 };
            (0..n).map(|i| (i * 2 + rank) as f32 + x as f32 * 0.5).collect::<Vec<f32>>()
        };
        let mut cfg = NetConfig::fast();
        cfg.heartbeat_timeout = Duration::from_secs(5);
        let server = ReactorServer::bind("127.0.0.1:0", 2, cfg).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let peers: Vec<_> = (0..2usize)
                .map(|rank| {
                    scope.spawn(move || {
                        let mut s = TcpStream::connect(addr).unwrap();
                        write_frame(&mut s, &Frame::hello(rank)).unwrap();
                        let mut got = Vec::new();
                        for (seq, x) in [(1, 7), (2, 8), (3, 9)] {
                            write_frame(&mut s, &valid_request(seq, x)).unwrap();
                            if seq == 1 {
                                std::thread::sleep(Duration::from_millis(100 * rank as u64));
                            }
                            let (frame, _) = read_frame(&mut s).unwrap();
                            got.push(Vec::<f32>::decoded(&frame.payload).unwrap());
                        }
                        write_frame(&mut s, &Frame::new(FrameKind::Goodbye, 4, Vec::new()))
                            .unwrap();
                        got
                    })
                })
                .collect();
            server
                .serve(|w, x: u32, ctx: &mut ServerCtx<Vec<f32>>| ctx.reply(reply(w, x)))
                .unwrap();
            for (rank, peer) in peers.into_iter().enumerate() {
                let got = peer.join().unwrap();
                assert!(got == [7, 8, 9].map(|x| reply(rank, x)), "rank {rank}'s replies");
            }
        });
    }

    #[test]
    fn codec_failures_trip_the_rank_breaker_until_cooldown() {
        let mut cfg = NetConfig::fast();
        cfg.breaker = BreakerConfig {
            failure_threshold: 2,
            window: Duration::from_secs(5),
            cooldown: Duration::from_millis(500),
            cooldown_cap: Duration::from_millis(500),
        };
        let server = ReactorServer::bind("127.0.0.1:0", 2, cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let done = &done;
            // A healthy rank 1 keeps the run alive while rank 0 abuses
            // the codec from raw sockets.
            scope.spawn(move || {
                let mut link = NetWorker::connect(addr, 1, cfg).unwrap();
                while !done.load(Ordering::SeqCst) {
                    let _: u32 = link.request(&5u32).unwrap();
                    std::thread::sleep(Duration::from_millis(10));
                }
                link.finish().unwrap();
            });
            scope.spawn(move || {
                // Two codec failures (threshold 2) trip rank 0's breaker;
                // each one costs the connection.
                for seq in 0..2u64 {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                    write_frame(&mut s, &Frame::hello(0)).unwrap();
                    write_frame(&mut s, &garbage_request(seq)).unwrap();
                    assert!(read_frame(&mut s).is_err(), "codec failure must drop the link");
                }
                // During the cooldown even a clean redial is refused: the
                // Hello is answered with a hangup, so the valid request
                // after it never sees a reply.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                write_frame(&mut s, &Frame::hello(0)).unwrap();
                let _ = write_frame(&mut s, &valid_request(10, 7));
                assert!(read_frame(&mut s).is_err(), "open breaker must refuse the redial");
                // Past the cooldown the half-open probe is admitted, and
                // its first clean frame closes the breaker again.
                std::thread::sleep(Duration::from_millis(700));
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                write_frame(&mut s, &Frame::hello(0)).unwrap();
                write_frame(&mut s, &valid_request(11, 7)).unwrap();
                let (reply, _) = read_frame(&mut s).unwrap();
                assert_eq!(reply.kind, FrameKind::Reply);
                assert_eq!(u32::decoded(&reply.payload).unwrap(), 14);
                write_frame(&mut s, &Frame::new(FrameKind::Goodbye, 12, Vec::new())).unwrap();
                done.store(true, Ordering::SeqCst);
            });
            server.serve(|_w, x: u32, ctx: &mut ServerCtx<u32>| ctx.reply(x * 2)).unwrap();
        });
    }
}
