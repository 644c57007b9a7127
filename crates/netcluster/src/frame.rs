//! Length-prefixed binary framing for the TCP parameter server.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! offset  size  field          notes
//!      0     4  magic          "LCNW", little-endian u32
//!      4     2  version        protocol version, currently 1
//!      6     1  kind           FrameKind discriminant
//!      7     1  flags          reserved, must be zero
//!      8     8  seq            sender sequence number; a Reply echoes
//!                              the seq of the Request it answers
//!     16     4  payload_len    bytes of payload following the header
//!     20     4  crc32          IEEE CRC-32 over the payload bytes
//!     24     …  payload        a WireMsg encoding (or rank for Hello)
//! ```
//!
//! All integers are little-endian, matching the
//! [`WireMsg`] codec and the checkpoint file
//! format. The checksum covers only the payload: header corruption is
//! caught by the magic/version/kind/flags checks, payload corruption by
//! the CRC. A frame that fails any check is a
//! [`ClusterError::Protocol`]; socket-level failures map through
//! `From<std::io::Error>` (EOF/reset → `Disconnected`, deadline →
//! `Timeout`).

use lcasgd_simcluster::backend::keep_spent;
pub use lcasgd_simcluster::codec::crc32;
use lcasgd_simcluster::codec::Crc32;
use lcasgd_simcluster::{ClusterError, Window, WireCodec, WireMsg, WireReader};
use std::io::{Read, Write};
use std::time::Instant;

/// `b"LCNW"` interpreted as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"LCNW");
/// Current protocol version. Peers speaking a different version are
/// rejected with a protocol error rather than misparsed.
pub const VERSION: u16 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Upper bound on a single payload (256 MiB): a corrupt length field must
/// never trigger an unbounded allocation.
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// What a frame means to the parameter-server protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// First frame on every connection: payload is the worker's rank
    /// (u32). Re-sent after a reconnect to re-bind the rank.
    Hello = 1,
    /// Blocking request; the server answers with a `Reply` echoing `seq`.
    Request = 2,
    /// Fire-and-forget message (gradient push); never answered.
    Oneway = 3,
    /// Server→worker answer to a `Request`.
    Reply = 4,
    /// Worker liveness beacon; empty payload. A server that sees no
    /// traffic from a connection within the heartbeat timeout drops it.
    Heartbeat = 5,
    /// Clean end-of-training handshake; a connection that closes without
    /// one is treated as a crashed worker.
    Goodbye = 6,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::Request,
            3 => FrameKind::Oneway,
            4 => FrameKind::Reply,
            5 => FrameKind::Heartbeat,
            6 => FrameKind::Goodbye,
            _ => return None,
        })
    }
}

/// One parsed wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub seq: u64,
    pub payload: Vec<u8>,
}

impl Frame {
    pub fn new(kind: FrameKind, seq: u64, payload: Vec<u8>) -> Frame {
        Frame { kind, seq, payload }
    }

    /// Builds the connection-opening rank announcement (seed form: the
    /// 4-byte rank, implying the [`WireCodec::F32`] codec).
    pub fn hello(rank: usize) -> Frame {
        Frame::new(FrameKind::Hello, 0, (rank as u32).to_le_bytes().to_vec())
    }

    /// Builds a `Hello` advertising a wire codec. `F32` emits the seed
    /// 4-byte form so a quantization-off cluster is byte-identical to the
    /// seed protocol; other codecs append a fifth byte with the codec id.
    pub fn hello_for(rank: usize, codec: WireCodec) -> Frame {
        let mut payload = (rank as u32).to_le_bytes().to_vec();
        if codec != WireCodec::F32 {
            payload.push(codec.id());
        }
        Frame::new(FrameKind::Hello, 0, payload)
    }

    /// Parses the rank out of a `Hello` payload (either form).
    pub fn hello_rank(&self) -> Result<usize, ClusterError> {
        if self.payload.len() != 4 && self.payload.len() != 5 {
            return Err(ClusterError::Protocol("malformed hello payload".into()));
        }
        let bytes: [u8; 4] = self.payload[..4].try_into().unwrap();
        Ok(u32::from_le_bytes(bytes) as usize)
    }

    /// Parses the advertised wire codec out of a `Hello` payload. The
    /// 4-byte seed form means `F32`; an unknown codec id is a protocol
    /// error.
    pub fn hello_codec(&self) -> Result<WireCodec, ClusterError> {
        match self.payload.len() {
            4 => Ok(WireCodec::F32),
            5 => WireCodec::from_id(self.payload[4]).ok_or_else(|| {
                ClusterError::Protocol(format!("unknown wire codec id {}", self.payload[4]))
            }),
            _ => Err(ClusterError::Protocol("malformed hello payload".into())),
        }
    }

    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> u64 {
        (HEADER_LEN + self.payload.len()) as u64
    }
}

/// Builds one frame header for a payload whose CRC is already known.
/// This is how the reactor stamps a fresh `seq` onto a cached payload
/// encoding without rehashing it: the checksum covers only the payload,
/// so the cached CRC stays valid under any header.
pub fn header_bytes(
    kind: FrameKind,
    seq: u64,
    payload_len: usize,
    crc: u32,
) -> Result<[u8; HEADER_LEN], ClusterError> {
    if payload_len as u64 > MAX_PAYLOAD as u64 {
        return Err(ClusterError::Protocol(format!(
            "payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte frame limit"
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = kind as u8;
    header[7] = 0; // flags
    header[8..16].copy_from_slice(&seq.to_le_bytes());
    header[16..20].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header[20..24].copy_from_slice(&crc.to_le_bytes());
    Ok(header)
}

/// A validated frame header, parsed separately from its payload so a
/// nonblocking reader can know how many payload bytes to wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedHeader {
    pub kind: FrameKind,
    pub seq: u64,
    pub payload_len: usize,
    pub crc: u32,
}

/// Validates the first [`HEADER_LEN`] bytes of `bytes` as a frame header
/// (magic, version, kind, flags, length bound). The payload checksum is
/// verified later, once the payload has fully arrived.
pub fn parse_header(bytes: &[u8]) -> Result<ParsedHeader, ClusterError> {
    debug_assert!(bytes.len() >= HEADER_LEN);
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(ClusterError::Protocol(format!("bad frame magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(ClusterError::Protocol(format!(
            "unsupported protocol version {version} (want {VERSION})"
        )));
    }
    let Some(kind) = FrameKind::from_u8(bytes[6]) else {
        return Err(ClusterError::Protocol(format!("unknown frame kind {}", bytes[6])));
    };
    if bytes[7] != 0 {
        return Err(ClusterError::Protocol(format!("nonzero reserved flags {:#04x}", bytes[7])));
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ClusterError::Protocol(format!(
            "declared payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame limit"
        )));
    }
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    Ok(ParsedHeader { kind, seq, payload_len: len as usize, crc })
}

/// Writes one frame. Returns the number of bytes put on the wire.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<u64, ClusterError> {
    write_payload(w, frame.kind, frame.seq, &frame.payload)
}

/// [`write_frame`] for a payload the caller only borrows, so a
/// model-sized message need not be copied into a [`Frame`] first.
pub fn write_payload(
    w: &mut impl Write,
    kind: FrameKind,
    seq: u64,
    payload: &[u8],
) -> Result<u64, ClusterError> {
    let header = header_bytes(kind, seq, payload.len(), crc32(payload))?;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok((HEADER_LEN + payload.len()) as u64)
}

/// Bytes a frame is staged through on either side of the socket: a
/// message is encoded into it one window at a time before each write, and
/// a reply is read into it and decoded one block at a time. Well under a
/// core's L2, so a block is still in cache when it is hashed, written or
/// decoded; large enough that a model-sized frame costs a few dozen
/// system calls.
pub const STAGE: usize = 128 * 1024;

fn check_crc(want: u32, got: u32) -> Result<(), ClusterError> {
    if got != want {
        return Err(ClusterError::Protocol(format!(
            "payload checksum mismatch: header says {want:#010x}, payload hashes to {got:#010x}"
        )));
    }
    Ok(())
}

/// Fills `payload` from `r`, hashing each piece as it arrives, and checks
/// the result against the header's checksum.
fn read_payload(r: &mut impl Read, payload: &mut [u8], want_crc: u32) -> Result<(), ClusterError> {
    let mut crc = Crc32::new();
    for piece in payload.chunks_mut(STAGE) {
        r.read_exact(piece)?;
        crc.update(piece);
    }
    check_crc(want_crc, crc.finish())
}

/// One `read` into `buf`: at least one byte, or the error `read_exact`
/// would have given (end of stream is a disconnect).
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ClusterError> {
    loop {
        match r.read(buf) {
            Ok(0) => return Err(ClusterError::Disconnected),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Reads and validates one frame header.
pub fn read_header(r: &mut impl Read) -> Result<ParsedHeader, ClusterError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    parse_header(&header)
}

/// The checksum and length of `msg`'s encoding, from one pass that builds
/// nothing: what a frame header carrying it needs before its first byte
/// is written.
pub fn checksum(msg: &impl WireMsg) -> (u32, usize) {
    let mut crc = Crc32::new();
    msg.encode(&mut crc);
    (crc.finish(), crc.hashed())
}

/// Writes frame `header ‖ msg`, whose payload is `len` bytes, one
/// [`STAGE`] window at a time through `stage`. Returns the seconds spent
/// encoding.
pub fn write_msg(
    w: &mut impl Write,
    header: &[u8; HEADER_LEN],
    msg: &impl WireMsg,
    len: usize,
    stage: &mut Vec<u8>,
) -> Result<f64, ClusterError> {
    let mut encode = 0.0;
    let mut at = 0;
    while at < HEADER_LEN + len {
        let t0 = Instant::now();
        stage.clear();
        stage.extend_from_slice(&header[at.min(HEADER_LEN)..]);
        let room = STAGE - stage.len();
        msg.encode(&mut Window::new(stage, at.saturating_sub(HEADER_LEN), room));
        encode += t0.elapsed().as_secs_f64();
        w.write_all(stage)?;
        at += stage.len();
    }
    w.flush()?;
    Ok(encode)
}

/// Reads the payload `header` announces from `r` and decodes it as it
/// arrives, one [`STAGE`] block at a time through `stage`, hashing each
/// block as it lands. A model-sized payload is decoded into a vector from
/// `spent` ([`WireReader::bulk_vec_f32`]).
///
/// The outer error is the frame's: the socket failed, or the payload does
/// not match its checksum. Every byte is read and hashed before the
/// outcome is decided, so a corrupt frame is a checksum failure even where
/// its bytes also fail to decode, exactly as if the whole payload had been
/// checked first; a message decoded from such a frame gives its vectors
/// back to `spent`. The inner result is the codec's, for a sound frame,
/// with the seconds spent decoding — the time not spent waiting for or
/// hashing bytes.
pub fn read_msg<M: WireMsg>(
    r: &mut impl Read,
    header: &ParsedHeader,
    stage: &mut Vec<u8>,
    spent: &mut Vec<Vec<f32>>,
) -> Result<(Result<M, ClusterError>, f64), ClusterError> {
    let t0 = Instant::now();
    let lent = spent.len();
    let mut crc = Crc32::new();
    let mut io = 0.0;
    let mut failed = None;
    // No larger than the payload: a small reply zero-fills no 128 KiB.
    stage.resize(header.payload_len.clamp(8, STAGE), 0);
    let (decoded, trailing) = {
        let mut refill = |block: &mut [u8]| {
            if let Some(e) = &failed {
                return Err(ClusterError::clone(e));
            }
            let t = Instant::now();
            let got = read_some(r, block);
            if let Ok(n) = got {
                crc.update(&block[..n]);
            }
            io += t.elapsed().as_secs_f64();
            got.inspect_err(|e| failed = Some(e.clone()))
        };
        let mut reader =
            WireReader::streaming(stage, header.payload_len, &mut refill).lending(spent);
        let decoded = M::decode(&mut reader);
        let trailing = reader.remaining();
        let _ = reader.drain();
        (decoded, trailing)
    };
    if let Some(e) = failed {
        return Err(e);
    }
    let decode = t0.elapsed().as_secs_f64() - io;
    if let Err(e) = check_crc(header.crc, crc.finish()) {
        if let Ok(msg) = decoded {
            let mut back = Vec::new();
            msg.give_back(&mut back);
            keep_spent(spent, back, lent);
        }
        return Err(e);
    }
    let msg = match decoded {
        Ok(_) if trailing > 0 => Err(ClusterError::Protocol(format!("{trailing} trailing bytes"))),
        other => other,
    };
    Ok((msg, decode))
}

/// Reads one frame, validating magic, version, flags, kind, length bound
/// and checksum. Returns the frame and its on-wire size.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), ClusterError> {
    let parsed = read_header(r)?;
    let mut payload = vec![0u8; parsed.payload_len];
    read_payload(r, &mut payload, parsed.crc)?;
    let frame = Frame { kind: parsed.kind, seq: parsed.seq, payload };
    let wire = frame.wire_len();
    Ok((frame, wire))
}

/// [`read_frame`] into a buffer the caller keeps across frames: on
/// success the payload is `buf[..header.payload_len]`. `buf` only ever
/// grows, and only to the largest payload read through it (at most
/// [`MAX_PAYLOAD`]), so a steady stream of replies allocates and
/// zero-fills nothing.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<ParsedHeader, ClusterError> {
    let parsed = read_header(r)?;
    if buf.len() < parsed.payload_len {
        buf.resize(parsed.payload_len, 0);
    }
    read_payload(r, &mut buf[..parsed.payload_len], parsed.crc)?;
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, frame).unwrap();
        assert_eq!(wrote as usize, buf.len());
        let (parsed, read) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(read, wrote);
        parsed
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Request,
            FrameKind::Oneway,
            FrameKind::Reply,
            FrameKind::Heartbeat,
            FrameKind::Goodbye,
        ] {
            let frame = Frame::new(kind, 0xDEAD_BEEF_0BAD_F00D, vec![1, 2, 3, 255, 0]);
            assert_eq!(roundtrip(&frame), frame);
        }
        let empty = Frame::new(FrameKind::Heartbeat, 0, Vec::new());
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn reused_buffer_reads_match_owned_reads() {
        // Large then small through one buffer: the payload is the prefix
        // the header names, stale bytes beyond it are never exposed, and
        // the buffer does not shrink or regrow.
        let big = Frame::new(FrameKind::Reply, 1, (0..300_000u32).map(|i| i as u8).collect());
        let small = Frame::new(FrameKind::Reply, 2, vec![9, 8, 7]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_payload(&mut wire, small.kind, small.seq, &small.payload).unwrap();
        let mut r = Cursor::new(&wire);
        let mut buf = Vec::new();
        for want in [&big, &small] {
            let h = read_frame_into(&mut r, &mut buf).unwrap();
            assert_eq!((h.kind, h.seq), (want.kind, want.seq));
            assert_eq!(&buf[..h.payload_len], &want.payload[..]);
            assert_eq!(buf.len(), big.payload.len());
        }
        // A corrupted byte in a late piece of a multi-piece payload fails.
        wire[HEADER_LEN + 290_000] ^= 1;
        let err = read_frame_into(&mut Cursor::new(&wire), &mut buf).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(ref why) if why.contains("checksum")));
    }

    #[test]
    fn hello_carries_rank() {
        let f = Frame::hello(17);
        assert_eq!(f.payload.len(), 4, "seed hello form is the bare rank");
        assert_eq!(f.hello_rank().unwrap(), 17);
        assert_eq!(f.hello_codec().unwrap(), WireCodec::F32);
        let bad = Frame::new(FrameKind::Hello, 0, vec![1, 2]);
        assert!(matches!(bad.hello_rank(), Err(ClusterError::Protocol(_))));
        assert!(matches!(bad.hello_codec(), Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn hello_negotiates_the_wire_codec() {
        // F32 must stay byte-identical to the seed hello.
        assert_eq!(Frame::hello_for(9, WireCodec::F32), Frame::hello(9));
        for codec in [WireCodec::Bf16, WireCodec::Int8] {
            let f = Frame::hello_for(9, codec);
            assert_eq!(f.payload.len(), 5);
            assert_eq!(f.hello_rank().unwrap(), 9);
            assert_eq!(f.hello_codec().unwrap(), codec);
        }
        let unknown = Frame::new(FrameKind::Hello, 0, vec![9, 0, 0, 0, 0xEE]);
        assert_eq!(unknown.hello_rank().unwrap(), 9);
        assert!(matches!(unknown.hello_codec(), Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn parsed_header_matches_the_streaming_reader() {
        let frame = Frame::new(FrameKind::Reply, 77, vec![3; 19]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let h = parse_header(&buf[..HEADER_LEN]).unwrap();
        assert_eq!(h.kind, FrameKind::Reply);
        assert_eq!(h.seq, 77);
        assert_eq!(h.payload_len, 19);
        assert_eq!(h.crc, crc32(&frame.payload));
        // header_bytes must reproduce the writer's header exactly.
        let rebuilt = header_bytes(h.kind, h.seq, h.payload_len, h.crc).unwrap();
        assert_eq!(&buf[..HEADER_LEN], &rebuilt);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(FrameKind::Request, 1, vec![9; 64])).unwrap();
        buf[HEADER_LEN + 10] ^= 0x40;
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(ref why) if why.contains("checksum")));
    }

    #[test]
    fn bad_magic_version_kind_flags_are_rejected() {
        let mut ok = Vec::new();
        write_frame(&mut ok, &Frame::new(FrameKind::Oneway, 2, vec![7])).unwrap();

        let corrupt = |offset: usize, value: u8, expect: &str| {
            let mut buf = ok.clone();
            buf[offset] = value;
            let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
            match err {
                ClusterError::Protocol(why) => {
                    assert!(why.contains(expect), "{why:?} should mention {expect:?}")
                }
                other => panic!("expected protocol error, got {other:?}"),
            }
        };
        corrupt(0, b'X', "magic");
        corrupt(4, 99, "version");
        corrupt(6, 42, "kind");
        corrupt(7, 1, "flags");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(FrameKind::Request, 3, vec![1])).unwrap();
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(ref why) if why.contains("limit")));
    }

    #[test]
    fn truncated_stream_is_a_disconnect() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(FrameKind::Reply, 4, vec![5; 32])).unwrap();
        // Cut inside the header and inside the payload.
        for cut in [HEADER_LEN / 2, HEADER_LEN + 8] {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err, ClusterError::Disconnected);
        }
    }

    #[test]
    fn oversized_payload_refuses_to_write() {
        // vec![0; n] is a lazily-mapped zero page allocation; write_frame
        // rejects on len() before touching the bytes.
        let frame = Frame::new(FrameKind::Request, 5, vec![0; (MAX_PAYLOAD as usize) + 1]);
        let mut sink = Vec::new();
        assert!(matches!(write_frame(&mut sink, &frame), Err(ClusterError::Protocol(_))));
    }
}
