//! The unified cluster-backend contract.
//!
//! Three transports speak the same pull / push-state / push-grad protocol:
//! the discrete-event simulator ([`crate::sim::ClusterSim`]), the
//! real-thread scaffold ([`crate::thread_cluster::ThreadCluster`]), and the
//! TCP parameter server (`lcasgd-netcluster`). This module defines what
//! they have in common so the algorithm layer can drive any of them
//! unchanged:
//!
//! * [`ClusterBackend`] — "spawn M workers, serialize their messages
//!   through one server closure, return transport statistics";
//! * [`WorkerLink`] — the worker-side handle (blocking `request`,
//!   fire-and-forget `send`), fallible because real sockets fail;
//! * [`ServerCtx`] — the server-side reply sink, supporting *deferred*
//!   replies so synchronous barriers (SSGD) work over message passing;
//! * [`WireMsg`] — the length-prefixed little-endian codec every payload
//!   implements (the same conventions as `lcasgd-nn`'s checkpoint format:
//!   `u64` element counts followed by `f32` LE values);
//! * [`TransportStats`] / [`LatencyHistogram`] — bytes, serialization
//!   time and round-trip latency accounting.

use std::fmt;

// ------------------------------------------------------------------ error

/// Why a cluster operation failed. Shared by every backend so algorithm
/// code handles a dead simulator worker and a dead TCP peer identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The peer hung up (channel closed, connection reset, server gone).
    Disconnected,
    /// A request exceeded its deadline.
    Timeout,
    /// The peer violated the protocol (bad frame, codec mismatch, reply
    /// to a worker that was not awaiting one).
    Protocol(String),
    /// Socket-level failure outside the protocol itself.
    Io(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Disconnected => write!(f, "peer disconnected"),
            ClusterError::Timeout => write!(f, "request timed out"),
            ClusterError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ClusterError::Io(why) => write!(f, "i/o error: {why}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        match e.kind() {
            TimedOut | WouldBlock => ClusterError::Timeout,
            UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe | NotConnected => {
                ClusterError::Disconnected
            }
            _ => ClusterError::Io(e.to_string()),
        }
    }
}

// ------------------------------------------------------------------ codec

/// Cursor over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Vectors earlier messages were decoded into and their consumer has
    /// handed back ([`WireMsg::decoded_reusing`]).
    spent: Option<&'a mut Vec<Vec<f32>>>,
}

macro_rules! reader_scalar {
    ($name:ident, $t:ty) => {
        pub fn $name(&mut self) -> Result<$t, ClusterError> {
            const N: usize = std::mem::size_of::<$t>();
            let bytes = self.take(N)?;
            Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
        }
    };
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0, spent: None }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        if self.remaining() < n {
            return Err(ClusterError::Protocol(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    reader_scalar!(u8, u8);
    reader_scalar!(u16, u16);
    reader_scalar!(u32, u32);
    reader_scalar!(u64, u64);
    reader_scalar!(f32, f32);
    reader_scalar!(f64, f64);

    pub fn bool(&mut self) -> Result<bool, ClusterError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ClusterError::Protocol(format!("invalid bool byte {b}"))),
        }
    }

    /// A `u64` length guarded against running past the payload end, so a
    /// corrupt count cannot trigger a huge allocation.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, ClusterError> {
        let n = self.u64()? as usize;
        if n.checked_mul(elem_size.max(1)).is_none_or(|total| total > self.remaining()) {
            return Err(ClusterError::Protocol(format!(
                "length {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// The next `n` raw payload bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        self.take(n)
    }

    /// `n` little-endian `f32`s in one pass: one bounds check for the
    /// whole run, then a conversion loop the compiler vectorizes.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ClusterError> {
        let mut out = Vec::new();
        self.f32s_into(n, &mut out)?;
        Ok(out)
    }

    fn f32s_into(&mut self, n: usize, out: &mut Vec<f32>) -> Result<(), ClusterError> {
        let bytes = self.take(n.saturating_mul(4))?;
        out.clear();
        out.extend(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())));
        Ok(())
    }

    /// `n` little-endian `u16`s in one pass (see [`WireReader::f32s`]).
    pub fn u16s(&mut self, n: usize) -> Result<Vec<u16>, ClusterError> {
        let bytes = self.take(n.saturating_mul(2))?;
        Ok(bytes.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// `n` bytes reinterpreted as two's-complement `i8`s in one pass.
    pub fn i8s(&mut self, n: usize) -> Result<Vec<i8>, ClusterError> {
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    pub fn vec_f32(&mut self) -> Result<Vec<f32>, ClusterError> {
        let n = self.len(4)?;
        self.f32s(n)
    }

    /// [`vec_f32`](Self::vec_f32) for a message's model-sized payload (a
    /// weights reply, a dense gradient): decoded into a vector the reader
    /// was lent, when it has one, so a steady stream of such messages is
    /// decoded into the same few allocations.
    pub fn bulk_vec_f32(&mut self) -> Result<Vec<f32>, ClusterError> {
        let n = self.len(4)?;
        let mut out = self.spent.as_mut().and_then(|spent| spent.pop()).unwrap_or_default();
        self.f32s_into(n, &mut out)?;
        Ok(out)
    }

    pub fn string(&mut self) -> Result<String, ClusterError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ClusterError::Protocol("invalid utf-8 string".into()))
    }

    /// Asserts the payload is fully consumed.
    pub fn finish(self) -> Result<(), ClusterError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ClusterError::Protocol(format!("{} trailing bytes", self.remaining())))
        }
    }
}

/// Encoding helpers (little-endian, `u64` length prefixes — the same
/// conventions as the checkpoint file format).
pub mod wire {
    pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }
    pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
        buf.push(v as u8);
    }
    /// Raw little-endian `f32`s, no length prefix. The exact-size
    /// iterator lets `extend` reserve once and fill in a vectorized loop.
    pub fn put_f32s(buf: &mut Vec<u8>, v: &[f32]) {
        buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }
    /// Raw little-endian `u16`s, no length prefix.
    pub fn put_u16s(buf: &mut Vec<u8>, v: &[u16]) {
        buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }
    /// Raw two's-complement `i8`s, no length prefix.
    pub fn put_i8s(buf: &mut Vec<u8>, v: &[i8]) {
        buf.extend(v.iter().map(|&x| x as u8));
    }
    pub fn put_vec_f32(buf: &mut Vec<u8>, v: &[f32]) {
        put_u64(buf, v.len() as u64);
        put_f32s(buf, v);
    }
    pub fn put_string(buf: &mut Vec<u8>, s: &str) {
        put_u64(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    }
}

/// A message that can cross a wire. Every backend payload implements this
/// — the in-memory backends don't serialize on the hot path, but the
/// shared bound guarantees that a protocol developed against them runs
/// over TCP unchanged.
pub trait WireMsg: Sized {
    fn encode(&self, buf: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError>;

    /// In-place *valid-CRC* payload corruption: deterministically mutate
    /// this message's value payload (seeded by `seed`) so the result still
    /// frames, checksums and decodes cleanly — garbage that only a
    /// semantic sentinel can catch. With `nan` the mutation poisons floats
    /// to NaN instead of flipping bits. Returns `false` when the message
    /// carries no corruptible payload (the default); such messages pass
    /// through unchanged.
    fn corrupt_payload(&mut self, seed: u64, nan: bool) -> bool {
        let _ = (seed, nan);
        false
    }

    /// Roughly how many bytes [`WireMsg::encode`] will append. Only a
    /// capacity hint: [`WireMsg::encoded`] sizes its buffer from it, so a
    /// model-sized message is written into one allocation instead of
    /// being copied through a series of doublings. Messages that carry
    /// vectors override it; a few bytes over or under cost nothing.
    fn size_hint(&self) -> usize {
        0
    }

    fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.size_hint());
        self.encode(&mut buf);
        buf
    }

    fn decoded(bytes: &[u8]) -> Result<Self, ClusterError> {
        Self::decoded_reusing(bytes, &mut Vec::new())
    }

    /// [`decoded`](WireMsg::decoded) for a receiver that gets its messages'
    /// payload vectors back: `spent` holds vectors earlier messages were
    /// decoded into and their consumer has finished with
    /// ([`WorkerLink::recycle`], [`ServerCtx::recycle`]), and a model-sized
    /// payload is decoded into one of them instead of a new allocation
    /// ([`WireReader::bulk_vec_f32`]).
    fn decoded_reusing(bytes: &[u8], spent: &mut Vec<Vec<f32>>) -> Result<Self, ClusterError> {
        let mut r = WireReader { buf: bytes, pos: 0, spent: Some(spent) };
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl WireMsg for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        Ok(())
    }
}

macro_rules! wiremsg_scalar {
    ($($t:ty => $get:ident / $put:ident),*) => {$(
        impl WireMsg for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                wire::$put(buf, *self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
                r.$get()
            }
        }
    )*};
}

wiremsg_scalar!(
    u8 => u8 / put_u8,
    u16 => u16 / put_u16,
    u32 => u32 / put_u32,
    u64 => u64 / put_u64,
    f32 => f32 / put_f32,
    f64 => f64 / put_f64,
    bool => bool / put_bool
);

impl WireMsg for Vec<f32> {
    fn size_hint(&self) -> usize {
        8 + 4 * self.len()
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_vec_f32(buf, self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        r.vec_f32()
    }
}

impl WireMsg for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_string(buf, self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        r.string()
    }
}

// ------------------------------------------------------------------ stats

/// Log-bucketed latency histogram: bucket `i` covers round-trip times in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also absorbs sub-microsecond
/// samples).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyHistogram {
    counts: [u64; 32],
    sum_seconds: f64,
    max_seconds: f64,
}

impl LatencyHistogram {
    pub fn record(&mut self, seconds: f64) {
        let micros = (seconds * 1e6).max(0.0);
        let bucket = if micros < 1.0 { 0 } else { (micros.log2() as usize).min(31) };
        self.counts[bucket] += 1;
        self.sum_seconds += seconds.max(0.0);
        self.max_seconds = self.max_seconds.max(seconds);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn mean_seconds(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_seconds / n as f64
        }
    }

    pub fn max_seconds(&self) -> f64 {
        self.max_seconds
    }

    /// `(bucket_floor_micros, count)` for each nonempty bucket.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum_seconds += other.sum_seconds;
        self.max_seconds = self.max_seconds.max(other.max_seconds);
    }
}

/// What a backend run cost in transport terms. In-memory backends report
/// message counts only; the TCP backend fills in every field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportStats {
    /// Worker→server payload bytes (including framing where it exists).
    pub bytes_sent: u64,
    /// Server→worker payload bytes.
    pub bytes_received: u64,
    /// Wall-clock seconds spent encoding + decoding payloads.
    pub serialize_seconds: f64,
    /// Blocking request/response round trips completed.
    pub requests: u64,
    /// Fire-and-forget messages delivered.
    pub oneways: u64,
    /// Round-trip latency of blocking requests.
    pub rtt: LatencyHistogram,
}

impl TransportStats {
    pub fn merge(&mut self, other: &TransportStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.serialize_seconds += other.serialize_seconds;
        self.requests += other.requests;
        self.oneways += other.oneways;
        self.rtt.merge(&other.rtt);
    }
}

// ------------------------------------------------------------- tracing

/// Which clock a duration or timestamp was measured against.
///
/// The discrete-event simulator advances a *virtual* clock; the thread and
/// TCP backends run in real time on the *wall* (monotonic) clock. The two
/// are never comparable, so every timed figure a run reports carries its
/// domain explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// Real monotonic time (`std::time::Instant`).
    #[default]
    Wall,
    /// Simulated seconds from the discrete-event queue.
    Virtual,
}

impl std::fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClockDomain::Wall => write!(f, "wall"),
            ClockDomain::Virtual => write!(f, "virtual"),
        }
    }
}

/// Observer interface backends use to report phase-tagged span events.
///
/// Backends are instrumented at their natural measurement points — the
/// simulator emits virtual-clock compute/communication spans as it
/// schedules them, the TCP transport emits wall-clock codec spans around
/// frame encode/decode — and forward them here. The driver (`core`)
/// provides the implementation that aggregates the events into a
/// timeline; the default methods are no-ops so trivial hooks only
/// implement what they observe.
///
/// All methods take `&self`: hooks are shared across worker threads and
/// must synchronize internally.
pub trait TraceHook: Send + Sync {
    /// A wall-clock span: `phase` ran for `dur_seconds` starting at
    /// `start`. `worker` is `None` for server-side work.
    fn wall_span(
        &self,
        worker: Option<usize>,
        phase: &'static str,
        start: std::time::Instant,
        dur_seconds: f64,
    ) {
        let _ = (worker, phase, start, dur_seconds);
    }

    /// A virtual-clock span (simulator backends only), in simulated
    /// seconds from the start of the run.
    fn virt_span(
        &self,
        worker: Option<usize>,
        phase: &'static str,
        start_seconds: f64,
        dur_seconds: f64,
    ) {
        let _ = (worker, phase, start_seconds, dur_seconds);
    }
}

// ---------------------------------------------------------- replication

/// Byte-level duplex between a primary parameter server and its hot
/// standby. The replication stream is payload-agnostic at this layer —
/// `core` encodes [`WireMsg`] replication records into the byte frames —
/// so in-memory backends can carry it over channels while the TCP backend
/// routes it through its CRC-checked frame codec.
pub trait ReplicaDuplex: Send {
    /// Delivers one replication frame to the peer.
    fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError>;

    /// Blocks for the next replication frame from the peer.
    /// `Disconnected` means the peer hung up (end of stream).
    fn recv(&mut self) -> Result<Vec<u8>, ClusterError>;

    /// [`recv`](Self::recv) into a buffer the caller keeps across frames:
    /// the frame is `buf[..n]` for the returned `n`. The default moves the
    /// received vector into `buf`; a transport that reads from a socket
    /// reads into `buf` itself, so a steady stream of model-sized frames
    /// allocates nothing.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<usize, ClusterError> {
        *buf = self.recv()?;
        Ok(buf.len())
    }
}

/// In-process [`ReplicaDuplex`] over a pair of mpsc channels — the
/// default transport for `ClusterSim` and `ThreadCluster`, where primary
/// and standby share an address space.
pub struct ChannelDuplex {
    tx: std::sync::mpsc::Sender<Vec<u8>>,
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
}

impl ReplicaDuplex for ChannelDuplex {
    fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
        self.tx.send(payload.to_vec()).map_err(|_| ClusterError::Disconnected)
    }

    fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
        self.rx.recv().map_err(|_| ClusterError::Disconnected)
    }
}

/// A connected `(primary_end, standby_end)` duplex pair, as built by
/// [`ClusterBackend::replica_duplex`].
pub type ReplicaDuplexPair = (Box<dyn ReplicaDuplex>, Box<dyn ReplicaDuplex>);

/// Builds a connected pair of in-process duplex endpoints: whatever one
/// end sends, the other receives, in order.
pub fn channel_duplex_pair() -> (ChannelDuplex, ChannelDuplex) {
    let (atx, brx) = std::sync::mpsc::channel();
    let (btx, arx) = std::sync::mpsc::channel();
    (ChannelDuplex { tx: atx, rx: arx }, ChannelDuplex { tx: btx, rx: brx })
}

// -------------------------------------------------------------- contract

/// The worker side of a backend: rank plus the two message primitives of
/// Algorithm 1. Object-safe so `worker_fn` receives `&mut dyn WorkerLink`
/// and algorithm code stays backend-agnostic.
pub trait WorkerLink<Req, Resp> {
    /// This worker's rank in `0..M`.
    fn worker(&self) -> usize;

    /// Sends a request and blocks for the server's response (pull
    /// weights, push state and await ℓ_delay, …).
    fn request(&mut self, req: Req) -> Result<Resp, ClusterError>;

    /// Fire-and-forget send (push gradients). A transport that only reads
    /// the message — one that encodes it onto a wire — hands it back as
    /// `Ok(Some(req))` so the caller can reuse its buffers; `Ok(None)`
    /// means the message itself travelled to the server.
    fn send(&mut self, req: Req) -> Result<Option<Req>, ClusterError>;

    /// Hands back the payload vector of a reply the caller has finished
    /// with. A transport that decodes replies decodes the next one into it
    /// ([`WireMsg::decoded_reusing`]); the others drop it.
    fn recycle(&mut self, spent: Vec<f32>) {
        drop(spent);
    }

    /// Declares the compute phase the worker just finished: `nominal`
    /// seconds of the run's cost model. The simulator charges the phase to
    /// this worker's virtual clock, so the next message leaves after it;
    /// on a real backend the phase took the time it took and this does
    /// nothing.
    fn compute(&mut self, nominal: f64) {
        let _ = nominal;
    }

    /// Seconds on the clock this worker lives on, for the durations it
    /// measures (Algorithm 4's `t_comm` / `t_comp`): the wall clock on real
    /// backends; on the simulator the worker's virtual time — its last
    /// reply's arrival plus the compute charged since.
    fn now(&self) -> f64 {
        static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
    }
}

/// Adds vectors handed back to a decoding transport ([`WorkerLink::recycle`],
/// [`ServerCtx::recycle`]) to its `spent` list, dropping those that would
/// take the list past `cap`. The list is popped only when a model-sized
/// payload is decoded, so without the bound a caller that hands back
/// vectors the transport never made would grow it for the whole run.
pub fn keep_spent(spent: &mut Vec<Vec<f32>>, back: impl IntoIterator<Item = Vec<f32>>, cap: usize) {
    let room = cap.saturating_sub(spent.len());
    spent.extend(back.into_iter().take(room));
}

/// The server side's reply sink for one incoming message.
///
/// Replying is decoupled from returning so the server can (a) answer the
/// current worker immediately, (b) defer — leave the worker blocked and
/// release it from a later message's handler (the SSGD barrier), or (c)
/// answer several blocked workers at once.
pub struct ServerCtx<Resp> {
    current: usize,
    expects_reply: bool,
    queued: Vec<(usize, Resp, Option<u64>)>,
    recycled: Vec<Vec<f32>>,
    time: Option<f64>,
    charged: f64,
}

impl<Resp> ServerCtx<Resp> {
    /// Builds the context for one message. Backends call this; algorithm
    /// code only consumes it.
    pub fn new(current: usize, expects_reply: bool) -> Self {
        ServerCtx {
            current,
            expects_reply,
            queued: Vec::new(),
            recycled: Vec::new(),
            time: None,
            charged: 0.0,
        }
    }

    /// [`ServerCtx::new`] for a message the server picks up at virtual
    /// time `seconds`. Simulator backends only.
    pub fn at(current: usize, expects_reply: bool, seconds: f64) -> Self {
        ServerCtx { time: Some(seconds), ..Self::new(current, expects_reply) }
    }

    /// The virtual time the server picked this message up at; `None` on
    /// wall-clock backends.
    pub fn time(&self) -> Option<f64> {
        self.time
    }

    /// Charges `seconds` of server work for this message. The simulator
    /// holds the server busy that long, so the messages behind this one
    /// wait; this message's replies leave when it was picked up. Real
    /// backends ignore it: the work took the time it took.
    pub fn charge(&mut self, seconds: f64) {
        self.charged += seconds;
    }

    /// Seconds charged through [`ServerCtx::charge`]. Backend-side only.
    pub fn charged(&self) -> f64 {
        self.charged
    }

    /// Rank of the worker whose message is being processed.
    pub fn worker(&self) -> usize {
        self.current
    }

    /// Whether the current message is a blocking request.
    pub fn expects_reply(&self) -> bool {
        self.expects_reply
    }

    /// Replies to the current worker.
    pub fn reply(&mut self, resp: Resp) {
        self.queued.push((self.current, resp, None));
    }

    /// Replies to an arbitrary blocked worker (barrier release). The
    /// backend verifies the target is actually awaiting a reply.
    pub fn reply_to(&mut self, worker: usize, resp: Resp) {
        self.queued.push((worker, resp, None));
    }

    /// [`ServerCtx::reply`] plus a *coalescing key*: a caller-chosen id
    /// that is stable iff the reply's encoded payload is stable. A
    /// transport that encodes replies may serve every same-key reply from
    /// one cached encoding (the TCP reactor does); transports that ship
    /// values directly ignore the key.
    pub fn reply_keyed(&mut self, resp: Resp, key: u64) {
        self.queued.push((self.current, resp, Some(key)));
    }

    /// [`ServerCtx::reply_to`] with a coalescing key.
    pub fn reply_to_keyed(&mut self, worker: usize, resp: Resp, key: u64) {
        self.queued.push((worker, resp, Some(key)));
    }

    /// Drains the queued replies, dropping coalescing keys. Backend-side
    /// only; backends that cannot exploit the key use this.
    pub fn take_replies(&mut self) -> Vec<(usize, Resp)> {
        std::mem::take(&mut self.queued).into_iter().map(|(w, r, _)| (w, r)).collect()
    }

    /// Drains the queued replies with their coalescing keys. Backend-side
    /// only.
    pub fn take_keyed_replies(&mut self) -> Vec<(usize, Resp, Option<u64>)> {
        std::mem::take(&mut self.queued)
    }

    /// Hands back the payload vector of a request the server has finished
    /// with (an applied gradient): the server-side counterpart of
    /// [`WorkerLink::recycle`].
    pub fn recycle(&mut self, spent: Vec<f32>) {
        self.recycled.push(spent);
    }

    /// Drains the vectors handed back through [`ServerCtx::recycle`].
    /// Backend-side only; a backend that decodes nothing need not call it.
    pub fn take_recycled(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.recycled)
    }
}

/// A transport that can run one parameter-server round: M workers
/// executing `worker_fn` against [`WorkerLink`]s, every message processed
/// serially by `server_fn` in arrival order (Algorithm 2's event loop),
/// until all workers have finished.
pub trait ClusterBackend {
    /// Number of workers this backend will spawn.
    fn workers(&self) -> usize;

    /// Which clock this backend's timings are measured against. Real
    /// backends run on the wall clock; the simulator overrides this.
    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::Wall
    }

    /// How this backend packs dense `f32` payloads on the wire. Protocols
    /// that support quantized encodings consult this to pick matching
    /// message variants; the default
    /// ([`WireCodec::F32`](crate::codec::WireCodec::F32)) is the seed
    /// protocol's bit-exact encoding.
    fn wire_codec(&self) -> crate::codec::WireCodec {
        crate::codec::WireCodec::F32
    }

    /// Installs a [`TraceHook`] the backend will report span events to
    /// during [`ClusterBackend::run`]. Backends without internal
    /// measurement points may ignore it (the default), in which case the
    /// driver's own instrumentation is the only event source.
    fn attach_trace_hook(&mut self, hook: std::sync::Arc<dyn TraceHook>) {
        let _ = hook;
    }

    /// Builds the replication duplex between the primary server and a hot
    /// standby: `(primary_end, standby_end)`. In-memory backends use
    /// process-local channels (the default); the TCP backend overrides
    /// this to route the stream through its CRC-framed loopback transport
    /// so replication traffic exercises the same codec as worker traffic.
    fn replica_duplex(&mut self) -> Result<ReplicaDuplexPair, ClusterError> {
        let (p, s) = channel_duplex_pair();
        Ok((Box::new(p), Box::new(s)))
    }

    /// Runs the round to completion and reports transport statistics.
    fn run<Req, Resp, S, W>(
        self,
        server_fn: S,
        worker_fn: W,
    ) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut buf = Vec::new();
        42u8.encode(&mut buf);
        7u16.encode(&mut buf);
        9u32.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        1.5f32.encode(&mut buf);
        (-2.25f64).encode(&mut buf);
        true.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(u8::decode(&mut r).unwrap(), 42);
        assert_eq!(u16::decode(&mut r).unwrap(), 7);
        assert_eq!(u32::decode(&mut r).unwrap(), 9);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(f32::decode(&mut r).unwrap(), 1.5);
        assert_eq!(f64::decode(&mut r).unwrap(), -2.25);
        assert!(bool::decode(&mut r).unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn vec_and_string_roundtrip() {
        let v = vec![1.0f32, -2.5, f32::MIN_POSITIVE];
        let s = "hello wire".to_string();
        let mut buf = v.encoded();
        s.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(Vec::<f32>::decode(&mut r).unwrap(), v);
        assert_eq!(String::decode(&mut r).unwrap(), s);
    }

    #[test]
    fn truncated_payload_is_protocol_error() {
        let buf = 1234u64.encoded();
        let mut r = WireReader::new(&buf[..4]);
        assert!(matches!(u64::decode(&mut r), Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn huge_length_is_rejected_without_allocating() {
        // A corrupt count (u64::MAX elements) must fail cleanly.
        let buf = u64::MAX.encoded();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.vec_f32(), Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn handed_back_vectors_past_the_cap_are_dropped() {
        let mut spent = vec![vec![1.0f32]];
        keep_spent(&mut spent, [vec![2.0], vec![3.0], vec![4.0]], 3);
        assert_eq!(spent, [[1.0], [2.0], [3.0]]);
        keep_spent(&mut spent, [vec![5.0]], 3);
        keep_spent(&mut spent, [vec![6.0]], 2);
        assert_eq!(spent.len(), 3, "a full list neither grows nor is cut");
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut buf = 5u32.encoded();
        buf.push(0);
        assert!(matches!(u32::decoded(&buf), Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        assert!(matches!(bool::decoded(&[7]), Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = LatencyHistogram::default();
        h.record(0.5e-6); // sub-microsecond → bucket 0
        h.record(3e-6); // bucket 1 (2–4 µs)
        h.record(1.0); // 1 s = 1e6 µs → bucket 19
        assert_eq!(h.count(), 3);
        assert!(h.max_seconds() == 1.0);
        assert!((h.mean_seconds() - (0.5e-6 + 3e-6 + 1.0) / 3.0).abs() < 1e-12);
        let buckets = h.nonempty_buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].0, 1);
        assert_eq!(buckets[1].0, 2);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = TransportStats { bytes_sent: 10, requests: 2, ..Default::default() };
        a.rtt.record(1e-3);
        let mut b = TransportStats { bytes_received: 5, oneways: 1, ..Default::default() };
        b.rtt.record(2e-3);
        a.merge(&b);
        assert_eq!(a.bytes_sent, 10);
        assert_eq!(a.bytes_received, 5);
        assert_eq!(a.requests, 2);
        assert_eq!(a.oneways, 1);
        assert_eq!(a.rtt.count(), 2);
    }

    #[test]
    fn io_error_mapping() {
        use std::io::{Error, ErrorKind};
        assert_eq!(ClusterError::from(Error::from(ErrorKind::TimedOut)), ClusterError::Timeout);
        assert_eq!(
            ClusterError::from(Error::from(ErrorKind::ConnectionReset)),
            ClusterError::Disconnected
        );
        assert!(matches!(
            ClusterError::from(Error::from(ErrorKind::PermissionDenied)),
            ClusterError::Io(_)
        ));
    }

    #[test]
    fn server_ctx_queues_replies() {
        let mut ctx: ServerCtx<u32> = ServerCtx::new(2, true);
        assert_eq!(ctx.worker(), 2);
        assert!(ctx.expects_reply());
        ctx.reply(7);
        ctx.reply_to(0, 9);
        assert_eq!(ctx.take_replies(), vec![(2, 7), (0, 9)]);
        assert!(ctx.take_replies().is_empty());
    }
}
