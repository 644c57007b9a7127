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
//! * **Pooled read buffers**: each connection parses frames in place out
//!   of a buffer borrowed from a [`BufferPool`], returned on every close
//!   path, so connection churn stops allocating once warm.
//! * **Pull coalescing**: within a sweep, control frames and oneways
//!   (gradient pushes) are applied first and blocking requests are
//!   answered second, at the post-apply server state. Replies carrying
//!   the same coalescing key (see `ServerCtx::reply_keyed`) are then all
//!   served from one cached payload encoding + CRC — the reply header is
//!   re-stamped per request (the checksum covers only the payload), so N
//!   concurrent pulls of one weights version cost one encode instead of N.
//!
//! Coalesced replies are *byte-identical* to per-request replies by
//! construction: same payload bytes, same CRC, only the echoed `seq`
//! differs — exactly as if each had been encoded fresh.
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
use crate::frame::{crc32, header_bytes, parse_header, FrameKind, HEADER_LEN};
use crate::pool::BufferPool;
use lcasgd_simcluster::backend::keep_spent;
use lcasgd_simcluster::{ClusterError, ServerCtx, TraceHook, TransportStats, WireMsg};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::rc::Rc;
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

/// Most reply encodings the coalescing cache keeps.
const CACHE_CAP: usize = 64;

/// Byte budget of the coalescing cache: this many times the payload being
/// inserted, or [`CACHE_FLOOR_BYTES`] if that is more. Keys are
/// version-unique, so an entry can only be hit until the next apply moves
/// the version; on a model-sized reply anything older than the last few
/// is dead weight, and 64 of those would be hundreds of MB.
///
/// The cache is emptied wholesale at its bounds, not trimmed one entry at
/// a time: evicting the oldest 80 KB payload on every insert punches a
/// hole low in the heap per reply, and on `lc_4w_tcp` glibc's trim/regrow
/// of the heap top around those holes doubled the server thread's system
/// time (−15 % samples/s). Freed together the payloads coalesce.
const CACHE_PAYLOADS: usize = 4;

/// Budget floor: small replies (a sharded model's slices, a small model)
/// may fill all [`CACHE_CAP`] entries, as they always could.
const CACHE_FLOOR_BYTES: usize = 8 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    Pending,
    Active,
    Finished,
    Dead,
}

/// One queued outbound frame: a per-request header plus a payload that
/// may be shared with other replies (coalescing) or the cache.
struct PendingWrite {
    header: [u8; HEADER_LEN],
    payload: Rc<Vec<u8>>,
    /// Bytes of header+payload already written.
    off: usize,
}

struct Conn {
    stream: TcpStream,
    rank: Option<usize>,
    last_seen: Instant,
    /// Pooled read buffer; `buf[..filled]` holds unparsed stream bytes.
    buf: Vec<u8>,
    filled: usize,
    wq: VecDeque<PendingWrite>,
}

struct CachedReply {
    payload: Rc<Vec<u8>>,
    crc: u32,
}

/// The coalescing cache: one payload encoding + CRC per key. It is
/// emptied wholesale whenever the next insert would take it past
/// [`CACHE_CAP`] entries or past `max(CACHE_PAYLOADS × newcomer,
/// CACHE_FLOOR_BYTES)` bytes; the newcomer — the only entry sure to be
/// live — always stays. A dropped payload that is still queued for
/// writing lives on in that write queue only.
#[derive(Default)]
struct ReplyCache {
    entries: HashMap<u64, CachedReply>,
    bytes: usize,
}

impl ReplyCache {
    fn get(&self, key: u64) -> Option<&CachedReply> {
        self.entries.get(&key)
    }

    /// Caches `payload` under `key`, which must not be present.
    fn insert(&mut self, key: u64, payload: Rc<Vec<u8>>, crc: u32) {
        let size = payload.capacity();
        let budget = (CACHE_PAYLOADS * size).max(CACHE_FLOOR_BYTES);
        if self.entries.len() >= CACHE_CAP || self.bytes + size > budget {
            self.entries.clear();
            self.bytes = 0;
        }
        self.bytes += size;
        self.entries.insert(key, CachedReply { payload, crc });
    }

    /// Bytes of payload capacity the cache itself keeps alive.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.bytes
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

        let mut pool = BufferPool::new();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id = 0u64;
        let mut rank_conn: Vec<Option<u64>> = vec![None; m];
        let mut rank_breakers: Vec<CircuitBreaker> =
            (0..m).map(|_| CircuitBreaker::new(cfg.breaker.clone())).collect();
        let mut rank_state = vec![RankState::Pending; m];
        let mut awaiting: Vec<Option<u64>> = vec![None; m];
        let mut stats = TransportStats::default();
        let mut result: Result<(), ClusterError> = Ok(());
        let mut cache = ReplyCache::default();
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
                        let mut buf = pool.get();
                        let cap = buf.capacity().max(READ_CHUNK);
                        buf.resize(cap, 0);
                        conns.insert(
                            next_id,
                            Conn {
                                stream,
                                rank: None,
                                last_seen: Instant::now(),
                                buf,
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
                                        &mut pool,
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
                                    cfg.pull_coalescing,
                                    &mut conns,
                                    &mut pool,
                                    &mut rank_conn,
                                    &mut rank_state,
                                    &mut awaiting,
                                    &mut cache,
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
                // fate the batch decided. Every close path runs through
                // close_conn, which returns the buffer to the pool.
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
                        close_conn(
                            &mut conns,
                            id,
                            &mut pool,
                            &mut rank_conn,
                            &mut rank_state,
                            &mut awaiting,
                        );
                    }
                } else {
                    // The connection vanished while its frames were being
                    // handled; its pool slot was already settled by
                    // close_conn, so the taken buffer replaces the empty
                    // one that was returned there.
                    drop(lbuf);
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
                    cfg.pull_coalescing,
                    &mut conns,
                    &mut pool,
                    &mut rank_conn,
                    &mut rank_state,
                    &mut awaiting,
                    &mut cache,
                    &mut stats,
                    &hook,
                ) {
                    result = Err(e);
                    break 'serve;
                }
            }

            // -- flush write queues stalled on a full socket -----------
            let stalled: Vec<u64> =
                conns.iter().filter(|(_, c)| !c.wq.is_empty()).map(|(&id, _)| id).collect();
            for id in stalled {
                let Some(conn) = conns.get_mut(&id) else { continue };
                if try_flush(conn).is_err() {
                    close_conn(
                        &mut conns,
                        id,
                        &mut pool,
                        &mut rank_conn,
                        &mut rank_state,
                        &mut awaiting,
                    );
                } else {
                    activity = true;
                }
            }

            // -- liveness sweeps --------------------------------------
            let now = Instant::now();
            let stale: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_seen) > cfg.heartbeat_timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in stale {
                close_conn(
                    &mut conns,
                    id,
                    &mut pool,
                    &mut rank_conn,
                    &mut rank_state,
                    &mut awaiting,
                );
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
                if try_flush(conn).is_err() {
                    conn.wq.clear();
                }
            }
            std::thread::sleep(IDLE_SLEEP);
        }

        // Teardown: every surviving connection's buffer goes back to the
        // pool; the audit proves no close path leaked one.
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in ids {
            close_conn(&mut conns, id, &mut pool, &mut rank_conn, &mut rank_state, &mut awaiting);
        }
        debug_assert_eq!(pool.outstanding(), 0, "reactor leaked read buffers");

        result.map(|()| stats)
    }
}

/// Hard-closes a connection: shuts the socket, returns the read buffer to
/// the pool, and updates rank bookkeeping (an Active rank that loses its
/// live connection is Dead until it re-Hellos).
fn close_conn(
    conns: &mut HashMap<u64, Conn>,
    id: u64,
    pool: &mut BufferPool,
    rank_conn: &mut [Option<u64>],
    rank_state: &mut [RankState],
    awaiting: &mut [Option<u64>],
) {
    if let Some(conn) = conns.remove(&id) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        pool.put(conn.buf);
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

/// Writes as much of `conn`'s queue as the socket will take. `Ok` means
/// the socket is healthy (queue may still be nonempty); `Err` means the
/// peer is gone and the connection should be closed.
fn try_flush(conn: &mut Conn) -> io::Result<()> {
    while let Some(front) = conn.wq.front_mut() {
        while front.off < HEADER_LEN {
            match conn.stream.write(&front.header[front.off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => front.off += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let total = HEADER_LEN + front.payload.len();
        while front.off < total {
            match conn.stream.write(&front.payload[front.off - HEADER_LEN..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => front.off += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        conn.wq.pop_front();
    }
    Ok(())
}

/// Encodes and queues one batch of replies. Same-key replies are served
/// from the coalescing cache: one payload encoding + CRC shared across
/// requests, with a fresh header stamped per `seq`.
#[allow(clippy::too_many_arguments)]
fn deliver_replies<Resp: WireMsg>(
    replies: Vec<(usize, Resp, Option<u64>)>,
    m: usize,
    coalescing: bool,
    conns: &mut HashMap<u64, Conn>,
    pool: &mut BufferPool,
    rank_conn: &mut [Option<u64>],
    rank_state: &mut [RankState],
    awaiting: &mut [Option<u64>],
    cache: &mut ReplyCache,
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
        let (payload, crc) = match key.filter(|_| coalescing) {
            Some(k) => {
                if let Some(hit) = cache.get(k) {
                    // Cache hit: byte-identical to a fresh encode (same
                    // payload, same CRC), no serialize time booked —
                    // that's the whole point. The span is attributed to
                    // no worker: it is sweep-level work, not part of any
                    // single request.
                    if let Some(h) = hook {
                        h.wall_span(None, COALESCE_PHASE, t0, t0.elapsed().as_secs_f64());
                    }
                    (Rc::clone(&hit.payload), hit.crc)
                } else {
                    let payload = Rc::new(resp.encoded());
                    let crc = crc32(&payload);
                    let encode = t0.elapsed().as_secs_f64();
                    stats.serialize_seconds += encode;
                    if let Some(h) = hook {
                        h.wall_span(Some(target), "codec", t0, encode);
                    }
                    cache.insert(k, Rc::clone(&payload), crc);
                    (payload, crc)
                }
            }
            None => {
                let payload = Rc::new(resp.encoded());
                let crc = crc32(&payload);
                let encode = t0.elapsed().as_secs_f64();
                stats.serialize_seconds += encode;
                if let Some(h) = hook {
                    h.wall_span(Some(target), "codec", t0, encode);
                }
                (payload, crc)
            }
        };

        let header = header_bytes(FrameKind::Reply, seq, payload.len(), crc)?;
        let wire = (HEADER_LEN + payload.len()) as u64;
        let cid = rank_conn[target];
        let queued = match cid.and_then(|cid| conns.get_mut(&cid)) {
            Some(conn) => {
                conn.wq.push_back(PendingWrite { header, payload, off: 0 });
                Some(try_flush(conn).is_ok())
            }
            None => None,
        };
        match queued {
            Some(true) => stats.bytes_received += wire,
            Some(false) => {
                // Write failure: the worker is gone; reap it and move on.
                close_conn(conns, cid.unwrap(), pool, rank_conn, rank_state, awaiting);
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

    fn payload(len: usize) -> Rc<Vec<u8>> {
        Rc::new(vec![7u8; len])
    }

    #[test]
    fn model_sized_versions_do_not_accumulate_in_the_cache() {
        // 200 distinct versions of a 5 MiB reply, as 200 applies produce.
        let size = 5 << 20;
        let mut cache = ReplyCache::default();
        for version in 0..200u64 {
            cache.insert(version, payload(size), version as u32);
            assert!(cache.retained_bytes() <= CACHE_PAYLOADS * size, "at version {version}");
            assert!(cache.entries.len() <= CACHE_PAYLOADS);
            // The live (newest) key always hits, with its own CRC.
            assert_eq!(cache.get(version).map(|e| e.crc), Some(version as u32));
        }
        assert!(cache.get(0).is_none(), "superseded versions are gone");
    }

    #[test]
    fn small_replies_keep_the_entry_cap() {
        let mut cache = ReplyCache::default();
        for key in 0..200u64 {
            cache.insert(key, payload(80_000), 0);
            assert!(cache.entries.len() <= CACHE_CAP);
            assert!(cache.retained_bytes() <= CACHE_CAP * 80_000);
        }
        // 64 × 80 KB sits under the byte floor: only the entry cap binds,
        // so the cache filled up exactly as it did before the budget.
        const { assert!(CACHE_CAP * 80_000 <= CACHE_FLOOR_BYTES) };
        assert_eq!(cache.entries.len(), 200 % CACHE_CAP);
    }

    #[test]
    fn a_newcomer_that_would_break_the_budget_empties_the_cache_first() {
        let mut cache = ReplyCache::default();
        for key in 0..CACHE_CAP as u64 - 1 {
            cache.insert(key, payload(120_000), 0);
        }
        assert!(cache.retained_bytes() <= CACHE_FLOOR_BYTES);
        let size = 2 << 20;
        cache.insert(1000, payload(size), 0);
        assert_eq!(cache.retained_bytes(), size);
        assert_eq!(cache.entries.len(), 1);
        assert!(cache.get(1000).is_some());
    }

    /// Frames correctly (valid CRC) but fails the `u32` payload codec.
    fn garbage_request(seq: u64) -> Frame {
        Frame::new(FrameKind::Request, seq, vec![1, 2, 3])
    }

    fn valid_request(seq: u64, x: u32) -> Frame {
        Frame::new(FrameKind::Request, seq, x.encoded())
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
