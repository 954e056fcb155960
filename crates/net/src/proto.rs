//! The pbdmm wire protocol: versioned, length-prefixed binary frames.
//!
//! A connection starts with a fixed 8-byte **handshake** in each direction
//! (magic `b"PBDM"`, protocol version, reserved zeros); an endpoint that
//! reads anything else drops the connection before parsing a single frame,
//! so a stray client speaking HTTP (or an old pbdmm version) fails fast and
//! loud instead of corrupting state.
//!
//! After the handshake the stream is a sequence of frames:
//!
//! ```text
//! | len: u32 LE | opcode: u8 | payload: len-1 bytes |
//! ```
//!
//! `len` counts the body (opcode + payload). The decoder applies the same
//! rigor as the WAL reader ([`pbdmm_graph::wal`]): a declared length is
//! **bounds-checked against the frame cap before a single byte is
//! buffered**, truncation mid-frame is detected and reported as
//! [`FrameError::Torn`] (clean EOF is only legal *between* frames), count
//! fields inside a payload are validated against the bytes actually present
//! before any allocation, and no input — hostile or torn — can make the
//! decoder panic.
//!
//! Requests flow client → daemon ([`Request`]), responses daemon → client
//! ([`Response`]). One request may produce one response
//! ([`Response::Completion`] for [`Request::SubmitBatch`]), and a
//! subscription ([`Request::SubscribeDeltas`]) produces a *stream* of
//! [`Response::DeltaEvent`] frames interleaved with other responses —
//! clients must tolerate interleaving.
//!
//! Both directions hold frames to [`MAX_FRAME`]: a reader refuses a longer
//! one, so an encoder refuses to produce it ([`Request::encode_frame`],
//! [`Response::encode_frame`]).
//!
//! # Example
//! ```
//! use pbdmm_net::proto::{self, Request, Response};
//!
//! let req = Request::PointQuery { req_id: 7, vertex: 3 };
//! let mut wire = Vec::new();
//! proto::write_frame(&mut wire, &req.encode()).unwrap();
//!
//! let mut body = Vec::new();
//! let mut r = &wire[..];
//! assert!(proto::read_frame(&mut r, proto::MAX_FRAME, &mut body).unwrap().is_some());
//! assert_eq!(Request::decode(&body).unwrap(), req);
//! ```

use std::io::{Read, Write};

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::update::Update;
use pbdmm_matching::snapshot::SnapshotDelta;
use pbdmm_primitives::obs::{ProfileReport, NUM_COUNTERS, NUM_PHASES};

/// Handshake magic: the first four bytes either endpoint sends.
pub const MAGIC: [u8; 4] = *b"PBDM";

/// Protocol version carried in the handshake. Bumped on any frame-layout
/// change, including a change to the phase or counter list, which the
/// [`ProfileReport`] inside [`Response::Stats`] encodes by position.
/// Endpoints refuse to talk across versions. Version 4 removed the
/// epoch-ping subscription (request opcode `0x04`, response `0x84`);
/// version 5 removed the linger window's flush-cause counter.
pub const VERSION: u16 = 5;

/// Cap on one frame's body (opcode + payload), for daemon and client. A
/// declared length above the cap is rejected *before* allocating — the
/// admission control of the byte layer — and no endpoint encodes one.
pub const MAX_FRAME: usize = 1 << 20;

/// The most updates one [`Request::SubmitBatch`] may carry: the most whose
/// [`Response::Completion`] fits one frame. The completion header (opcode,
/// `req_id`, `epoch`, result count) takes 21 bytes and the largest result
/// 25. The daemon refuses a larger frame before applying any of it.
pub const MAX_BATCH_UPDATES: usize = (MAX_FRAME - 21) / 25;

// Request opcodes (client → daemon).
const OP_SUBMIT_BATCH: u8 = 0x01;
const OP_POINT_QUERY: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x05;
const OP_SUBSCRIBE_DELTAS: u8 = 0x06;

// Response opcodes (daemon → client): high bit set.
const OP_COMPLETION: u8 = 0x81;
const OP_QUERY_RESULT: u8 = 0x82;
const OP_STATS_RESULT: u8 = 0x83;
const OP_DELTA_EVENT: u8 = 0x85;
const OP_ERROR: u8 = 0x8F;

// Per-update tags inside SubmitBatch.
const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

// Per-result tags inside Completion.
const TAG_INSERTED: u8 = 0;
const TAG_DELETED: u8 = 1;
const TAG_ALREADY_DELETED: u8 = 2;
const TAG_REJECTED: u8 = 3;

/// Why a frame could not be read or decoded. Mirrors the WAL reader's
/// failure taxonomy: I/O, truncation, oversize, malformed content.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read or write failed.
    Io(std::io::Error),
    /// The stream ended mid-frame: inside the length prefix or inside a
    /// body whose prefix promised more bytes. (Clean EOF *between* frames
    /// is not an error — [`read_frame`] returns `Ok(None)` for it.)
    Torn {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The declared body length is zero or exceeds the frame cap. Rejected
    /// before any allocation; an encoder refuses a body over the cap the
    /// same way.
    TooLarge {
        /// The declared length.
        len: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// The body bytes do not decode as a valid frame (unknown opcode, bad
    /// tag, count field exceeding the payload, trailing garbage, …).
    Malformed(String),
    /// The 8-byte handshake did not carry the expected magic/version.
    BadHandshake(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::Torn { expected, got } => {
                write!(f, "torn frame: expected {expected} more bytes, got {got}")
            }
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame length {len} outside (0, {cap}]")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::BadHandshake(m) => write!(f, "bad handshake: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Machine-readable error codes carried by [`Response::Error`] and
/// [`UpdateResult::Rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control refused the work: the connection's in-flight
    /// window is full or the daemon is at its connection cap (back off and
    /// retry), or the frame holds more than [`MAX_BATCH_UPDATES`] updates
    /// (split it).
    Overloaded = 1,
    /// The peer violated the protocol (bad magic, oversized or torn frame,
    /// unknown opcode). The daemon closes the offending connection.
    Protocol = 2,
    /// A deletion named an id that is not a live edge.
    UnknownEdge = 3,
    /// An insertion's vertex set was empty.
    EmptyEdge = 4,
    /// The service closed before the update applied.
    Closed = 5,
    /// The daemon is draining: it no longer admits new work.
    Draining = 6,
    /// Anything else (WAL failure, internal error).
    Internal = 7,
}

impl ErrorCode {
    /// Decode from the wire representation.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Protocol,
            3 => ErrorCode::UnknownEdge,
            4 => ErrorCode::EmptyEdge,
            5 => ErrorCode::Closed,
            6 => ErrorCode::Draining,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Protocol => "protocol violation",
            ErrorCode::UnknownEdge => "unknown edge",
            ErrorCode::EmptyEdge => "empty edge",
            ErrorCode::Closed => "service closed",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(s)
    }
}

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a batch of updates; the daemon answers with one
    /// [`Response::Completion`] carrying a result per update, in order.
    SubmitBatch {
        /// Client-chosen correlation id echoed in the response.
        req_id: u64,
        /// The updates, applied through the coalescing service.
        updates: Vec<Update>,
    },
    /// Resolve a point query against the latest snapshot.
    PointQuery {
        /// Correlation id.
        req_id: u64,
        /// The vertex to look up.
        vertex: u32,
    },
    /// Ask for the snapshot gauges and every count the daemon's recorder
    /// holds. Answered with [`Response::Stats`].
    Stats {
        /// Correlation id.
        req_id: u64,
    },
    /// Subscribe to **state deltas**: the daemon streams one
    /// [`Response::DeltaEvent`] per observed publication, interleaved with
    /// this connection's other responses, carrying exactly what changed
    /// since the event the client last saw — the wire projection of
    /// `QueryHandle::changes_since`. If the server-side delta log no
    /// longer reaches back to the client's epoch, the daemon sends one
    /// event with `resync` set whose delta rebuilds the full state from
    /// scratch (the client clears its mirror first). An event that would
    /// exceed [`MAX_FRAME`] ends the stream with one [`Response::Error`]
    /// (`Internal`, this request's `req_id`); the connection stays up.
    SubscribeDeltas {
        /// Correlation id.
        req_id: u64,
        /// Deltas are delivered for epochs strictly greater than this.
        /// Pass 0 to mirror from genesis (the first event is a resync).
        from_epoch: u64,
    },
    /// Ask the daemon to drain and exit (stop accepting, flush in-flight
    /// tickets, final stats). Answered with [`Response::Stats`].
    Shutdown {
        /// Correlation id.
        req_id: u64,
    },
}

/// The per-update slice of a [`Response::Completion`], mirroring
/// `pbdmm_service::{Done, Completion, ServiceError}` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateResult {
    /// The insertion was applied and assigned this id.
    Inserted {
        /// The assigned edge id.
        id: u64,
        /// Position in the daemon's global apply order.
        seq: u64,
        /// Epoch at which the update became visible to readers.
        epoch: u64,
    },
    /// The deletion was applied.
    Deleted {
        /// The deleted edge id.
        id: u64,
        /// Position in the daemon's global apply order.
        seq: u64,
        /// Epoch at which the update became visible to readers.
        epoch: u64,
    },
    /// The edge was already deleted by a coalesced duplicate in the same
    /// batch; gone all the same.
    AlreadyDeleted {
        /// The edge id.
        id: u64,
        /// Shared apply-order position of the winning delete.
        seq: u64,
        /// Epoch at which the batch became visible.
        epoch: u64,
    },
    /// The update was rejected (per-update; the rest of the batch stands).
    Rejected {
        /// Why.
        code: ErrorCode,
    },
}

impl UpdateResult {
    /// The visibility epoch, if the update was applied.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            UpdateResult::Inserted { epoch, .. }
            | UpdateResult::Deleted { epoch, .. }
            | UpdateResult::AlreadyDeleted { epoch, .. } => Some(*epoch),
            UpdateResult::Rejected { .. } => None,
        }
    }

    /// The edge id, if the update was applied.
    pub fn id(&self) -> Option<EdgeId> {
        match self {
            UpdateResult::Inserted { id, .. }
            | UpdateResult::Deleted { id, .. }
            | UpdateResult::AlreadyDeleted { id, .. } => Some(EdgeId(*id)),
            UpdateResult::Rejected { .. } => None,
        }
    }
}

/// What [`Response::Stats`] carries: the snapshot gauges plus the
/// daemon's [`ProfileReport`], which holds every count (connections,
/// `Overloaded` refusals, protocol errors, batches, WAL batches,
/// checkpoints, …) and, when the daemon times phases, the phase spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Latest published snapshot epoch.
    pub epoch: u64,
    /// Live edges in that snapshot.
    pub num_edges: u64,
    /// Matched edges in that snapshot.
    pub matching_size: u64,
    /// Connections currently open.
    pub connections: u32,
    /// 1 once the daemon started draining.
    pub draining: u8,
    /// The daemon recorder's counters and phase spans; render it with
    /// [`ProfileReport::render`].
    pub report: ProfileReport,
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::SubmitBatch`]: one result per submitted update,
    /// in submission order. `epoch` is the largest visibility epoch in the
    /// batch — once received, a reader consulted by this client is never
    /// older than it (read-your-writes over the wire).
    Completion {
        /// Echoed correlation id.
        req_id: u64,
        /// Max visibility epoch across the results.
        epoch: u64,
        /// Per-update outcomes, in submission order.
        results: Vec<UpdateResult>,
    },
    /// Answer to [`Request::PointQuery`].
    QueryResult {
        /// Echoed correlation id.
        req_id: u64,
        /// Epoch of the snapshot the query was resolved against.
        epoch: u64,
        /// The matched edge covering the vertex, if any.
        matched_edge: Option<u64>,
        /// All vertices of that edge (including the queried one); empty if
        /// unmatched.
        partners: Vec<u32>,
    },
    /// Answer to [`Request::Stats`] (and the final frame of a drain).
    Stats {
        /// Echoed correlation id.
        req_id: u64,
        /// The gauges and the daemon's counts.
        stats: WireStats,
    },
    /// One state delta, streamed to [`Request::SubscribeDeltas`] clients.
    DeltaEvent {
        /// When set, the delta log did not reach back to the client's
        /// epoch: `delta` rebuilds the full state and the client must
        /// clear its mirror before applying it.
        resync: bool,
        /// What changed (or, under `resync`, the whole state). Applying it
        /// to a mirror at `from_epoch` yields the state at `to_epoch`:
        /// remove `deleted`, add `inserted`, clear the match status of
        /// `unmatched`, then record `matched` (id → vertex set).
        delta: SnapshotDelta,
    },
    /// A request failed, or the connection violated the protocol
    /// (`req_id == 0` marks a connection-level error sent just before the
    /// daemon closes the stream).
    Error {
        /// Correlation id of the failing request, or 0.
        req_id: u64,
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Handshake + frame transport
// ---------------------------------------------------------------------------

/// Send the 8-byte handshake.
pub fn write_handshake(w: &mut impl Write) -> Result<(), FrameError> {
    let mut hs = [0u8; 8];
    hs[..4].copy_from_slice(&MAGIC);
    hs[4..6].copy_from_slice(&VERSION.to_le_bytes());
    w.write_all(&hs)?;
    Ok(())
}

/// Read and validate the peer's 8-byte handshake.
pub fn read_handshake(r: &mut impl Read) -> Result<(), FrameError> {
    let mut hs = [0u8; 8];
    r.read_exact(&mut hs).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::BadHandshake("peer closed before completing the handshake".into())
        } else {
            FrameError::Io(e)
        }
    })?;
    if hs[..4] != MAGIC {
        return Err(FrameError::BadHandshake(format!(
            "bad magic {:02x?} (not a pbdmm peer)",
            &hs[..4]
        )));
    }
    let version = u16::from_le_bytes([hs[4], hs[5]]);
    if version != VERSION {
        return Err(FrameError::BadHandshake(format!(
            "protocol version {version}, expected {VERSION}"
        )));
    }
    Ok(())
}

/// Write one frame: length prefix + body, in one `write_all`. The body
/// must already contain the opcode (see [`Request::encode`] /
/// [`Response::encode`]) and fit [`MAX_FRAME`]. Hot paths encode straight
/// into a reused buffer instead ([`Request::encode_frame`] /
/// [`Response::encode_frame`]).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    let mut frame = Vec::with_capacity(4 + body.len());
    push_frame(&mut frame, |out| out.extend_from_slice(body))?;
    w.write_all(&frame)?;
    Ok(())
}

/// Append one frame to `out`: a length prefix, then the body `encode`
/// appends (opcode + payload). A body over [`MAX_FRAME`], which every
/// reader refuses, is [`FrameError::TooLarge`]; on error `out` is left as
/// it was.
fn push_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), FrameError> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let body = out.len() - at - 4;
    debug_assert!(body > 0, "a frame body carries at least an opcode");
    if body > MAX_FRAME {
        out.truncate(at);
        return Err(FrameError::TooLarge {
            len: body,
            cap: MAX_FRAME,
        });
    }
    out[at..at + 4].copy_from_slice(&(body as u32).to_le_bytes());
    Ok(())
}

/// Read one frame body into `buf` (cleared first). Returns `Ok(None)` on a
/// clean EOF *at a frame boundary*; EOF inside the length prefix or the
/// body is [`FrameError::Torn`]. The declared length is checked against
/// `cap` before any buffering.
pub fn read_frame(
    r: &mut impl Read,
    cap: usize,
    buf: &mut Vec<u8>,
) -> Result<Option<()>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean boundary EOF
            Ok(0) => {
                return Err(FrameError::Torn {
                    expected: 4 - got,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > cap {
        return Err(FrameError::TooLarge { len, cap });
    }
    buf.clear();
    buf.resize(len, 0);
    let mut filled = 0;
    while filled < len {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Torn {
                    expected: len - filled,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(()))
}

// ---------------------------------------------------------------------------
// Body codec
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a frame body. Every getter
/// fails softly ([`FrameError::Malformed`]) instead of slicing out of
/// bounds — hostile bytes can never panic the decoder.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed(format!(
                "{what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A count field about to size a loop/allocation: validated against the
    /// bytes actually remaining (each element needs at least
    /// `min_elem_bytes`), so a hostile count cannot drive an allocation the
    /// payload does not back.
    fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, FrameError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(FrameError::Malformed(format!(
                "{what}: count {n} exceeds payload ({} bytes left)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// The body must be fully consumed: trailing bytes are as malformed as
    /// missing ones.
    fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a [`ProfileReport`] payload. Histogram buckets are sparse on the
/// wire — `(index: u8, count: u64)` pairs for non-zero buckets only — so an
/// idle report costs a few dozen bytes, not 11 × 64 × 8.
fn put_profile(out: &mut Vec<u8>, report: &ProfileReport) {
    put_u64(out, report.wall_ns);
    put_u32(out, report.phases.len() as u32);
    for p in &report.phases {
        put_u64(out, p.total_ns);
        put_u64(out, p.count);
        put_u64(out, p.max_ns);
        let nonzero = p.buckets.iter().filter(|&&b| b != 0).count();
        put_u32(out, nonzero as u32);
        for (i, &b) in p.buckets.iter().enumerate() {
            if b != 0 {
                out.push(i as u8);
                put_u64(out, b);
            }
        }
    }
    put_u32(out, report.counters.len() as u32);
    for &v in &report.counters {
        put_u64(out, v);
    }
}

/// Decode a [`ProfileReport`] payload (see [`put_profile`]). Phases or
/// counters beyond the ones this build knows ([`NUM_PHASES`] /
/// [`NUM_COUNTERS`]) are decoded and discarded, so a peer with a newer
/// phase list still interoperates.
fn get_profile(c: &mut Cursor<'_>) -> Result<ProfileReport, FrameError> {
    let mut report = ProfileReport::empty();
    report.wall_ns = c.u64("wall_ns")?;
    let bucket_cap = report.phases[0].buckets.len();
    // Each phase needs at least total/count/max + its bucket count.
    let n_phases = c.count(28, "phase count")?;
    for i in 0..n_phases {
        let total_ns = c.u64("phase total_ns")?;
        let count = c.u64("phase count field")?;
        let max_ns = c.u64("phase max_ns")?;
        let n_buckets = c.count(9, &format!("phase {i} bucket count"))?;
        let mut buckets = vec![0u64; bucket_cap];
        for _ in 0..n_buckets {
            let idx = c.u8("bucket index")? as usize;
            let v = c.u64("bucket value")?;
            if idx >= buckets.len() {
                return Err(FrameError::Malformed(format!(
                    "phase {i}: bucket index {idx} out of range"
                )));
            }
            buckets[idx] = v;
        }
        if let Some(p) = report.phases.get_mut(i) {
            p.total_ns = total_ns;
            p.count = count;
            p.max_ns = max_ns;
            p.buckets = buckets;
        }
    }
    let n_counters = c.count(8, "counter count")?;
    for i in 0..n_counters {
        let v = c.u64("counter value")?;
        if let Some(slot) = report.counters.get_mut(i) {
            *slot = v;
        }
    }
    // Keep the compiler honest that the constants stay in sync with empty().
    debug_assert_eq!(report.phases.len(), NUM_PHASES);
    debug_assert_eq!(report.counters.len(), NUM_COUNTERS);
    Ok(report)
}

impl Request {
    /// Encode into a frame body (opcode + payload) for [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_body(&mut out);
        out
    }

    /// Append this request to `out` as one whole frame (length prefix
    /// and body), so a caller can hand `out` — this frame, or a window of
    /// frames — to the socket in one write. A body over [`MAX_FRAME`] is
    /// [`FrameError::TooLarge`] and leaves `out` unchanged.
    pub fn encode_frame(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        push_frame(out, |out| self.encode_body(out))
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Request::SubmitBatch { req_id, updates } => {
                out.push(OP_SUBMIT_BATCH);
                put_u64(out, *req_id);
                put_u32(out, updates.len() as u32);
                for u in updates {
                    match u {
                        Update::Insert(vs) => {
                            out.push(TAG_INSERT);
                            put_u32(out, vs.len() as u32);
                            for &v in vs {
                                put_u32(out, v);
                            }
                        }
                        Update::Delete(id) => {
                            out.push(TAG_DELETE);
                            put_u64(out, id.raw());
                        }
                    }
                }
            }
            Request::PointQuery { req_id, vertex } => {
                out.push(OP_POINT_QUERY);
                put_u64(out, *req_id);
                put_u32(out, *vertex);
            }
            Request::Stats { req_id } => {
                out.push(OP_STATS);
                put_u64(out, *req_id);
            }
            Request::SubscribeDeltas { req_id, from_epoch } => {
                out.push(OP_SUBSCRIBE_DELTAS);
                put_u64(out, *req_id);
                put_u64(out, *from_epoch);
            }
            Request::Shutdown { req_id } => {
                out.push(OP_SHUTDOWN);
                put_u64(out, *req_id);
            }
        }
    }

    /// Decode a frame body. Never panics; hostile bytes yield
    /// [`FrameError::Malformed`].
    pub fn decode(body: &[u8]) -> Result<Request, FrameError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let req = match op {
            OP_SUBMIT_BATCH => {
                let req_id = c.u64("req_id")?;
                let n = c.count(1, "update count")?;
                let mut updates = Vec::with_capacity(n);
                for i in 0..n {
                    match c.u8("update tag")? {
                        TAG_INSERT => {
                            let nv = c.count(4, &format!("insert {i} vertex count"))?;
                            let mut vs = Vec::with_capacity(nv);
                            for _ in 0..nv {
                                vs.push(c.u32("vertex")?);
                            }
                            updates.push(Update::Insert(vs));
                        }
                        TAG_DELETE => updates.push(Update::Delete(EdgeId(c.u64("edge id")?))),
                        t => {
                            return Err(FrameError::Malformed(format!(
                                "update {i}: unknown tag {t}"
                            )))
                        }
                    }
                }
                Request::SubmitBatch { req_id, updates }
            }
            OP_POINT_QUERY => Request::PointQuery {
                req_id: c.u64("req_id")?,
                vertex: c.u32("vertex")?,
            },
            OP_STATS => Request::Stats {
                req_id: c.u64("req_id")?,
            },
            OP_SUBSCRIBE_DELTAS => Request::SubscribeDeltas {
                req_id: c.u64("req_id")?,
                from_epoch: c.u64("from_epoch")?,
            },
            OP_SHUTDOWN => Request::Shutdown {
                req_id: c.u64("req_id")?,
            },
            op => {
                return Err(FrameError::Malformed(format!(
                    "unknown request opcode {op:#04x}"
                )))
            }
        };
        c.finish("request")?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame body (opcode + payload) for [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        self.encode_body(&mut out);
        out
    }

    /// Append this response to `out` as one whole frame (length prefix
    /// and body), so a caller can hand `out` — this frame, or a window of
    /// frames — to the socket in one write. A body over [`MAX_FRAME`] is
    /// [`FrameError::TooLarge`] and leaves `out` unchanged.
    pub fn encode_frame(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        push_frame(out, |out| self.encode_body(out))
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Response::Completion {
                req_id,
                epoch,
                results,
            } => {
                out.push(OP_COMPLETION);
                put_u64(out, *req_id);
                put_u64(out, *epoch);
                put_u32(out, results.len() as u32);
                for r in results {
                    match r {
                        UpdateResult::Inserted { id, seq, epoch } => {
                            out.push(TAG_INSERTED);
                            put_u64(out, *id);
                            put_u64(out, *seq);
                            put_u64(out, *epoch);
                        }
                        UpdateResult::Deleted { id, seq, epoch } => {
                            out.push(TAG_DELETED);
                            put_u64(out, *id);
                            put_u64(out, *seq);
                            put_u64(out, *epoch);
                        }
                        UpdateResult::AlreadyDeleted { id, seq, epoch } => {
                            out.push(TAG_ALREADY_DELETED);
                            put_u64(out, *id);
                            put_u64(out, *seq);
                            put_u64(out, *epoch);
                        }
                        UpdateResult::Rejected { code } => {
                            out.push(TAG_REJECTED);
                            put_u16(out, *code as u16);
                        }
                    }
                }
            }
            Response::QueryResult {
                req_id,
                epoch,
                matched_edge,
                partners,
            } => {
                out.push(OP_QUERY_RESULT);
                put_u64(out, *req_id);
                put_u64(out, *epoch);
                match matched_edge {
                    Some(id) => {
                        out.push(1);
                        put_u64(out, *id);
                    }
                    None => out.push(0),
                }
                put_u32(out, partners.len() as u32);
                for &v in partners {
                    put_u32(out, v);
                }
            }
            Response::Stats { req_id, stats } => {
                out.push(OP_STATS_RESULT);
                put_u64(out, *req_id);
                put_u64(out, stats.epoch);
                put_u64(out, stats.num_edges);
                put_u64(out, stats.matching_size);
                put_u32(out, stats.connections);
                out.push(stats.draining);
                put_profile(out, &stats.report);
            }
            Response::DeltaEvent { resync, delta } => {
                out.push(OP_DELTA_EVENT);
                out.push(u8::from(*resync));
                put_u64(out, delta.from_epoch);
                put_u64(out, delta.to_epoch);
                put_u32(out, delta.inserted.len() as u32);
                for id in &delta.inserted {
                    put_u64(out, id.raw());
                }
                put_u32(out, delta.deleted.len() as u32);
                for id in &delta.deleted {
                    put_u64(out, id.raw());
                }
                put_u32(out, delta.matched.len() as u32);
                for (id, vs) in &delta.matched {
                    put_u64(out, id.raw());
                    put_u32(out, vs.len() as u32);
                    for &v in vs {
                        put_u32(out, v);
                    }
                }
                put_u32(out, delta.unmatched.len() as u32);
                for id in &delta.unmatched {
                    put_u64(out, id.raw());
                }
            }
            Response::Error {
                req_id,
                code,
                message,
            } => {
                out.push(OP_ERROR);
                put_u64(out, *req_id);
                put_u16(out, *code as u16);
                put_u32(out, message.len() as u32);
                out.extend_from_slice(message.as_bytes());
            }
        }
    }

    /// Decode a frame body. Never panics; hostile bytes yield
    /// [`FrameError::Malformed`].
    pub fn decode(body: &[u8]) -> Result<Response, FrameError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let resp = match op {
            OP_COMPLETION => {
                let req_id = c.u64("req_id")?;
                let epoch = c.u64("epoch")?;
                let n = c.count(3, "result count")?;
                let mut results = Vec::with_capacity(n);
                for i in 0..n {
                    let tag = c.u8("result tag")?;
                    results.push(match tag {
                        TAG_INSERTED | TAG_DELETED | TAG_ALREADY_DELETED => {
                            let id = c.u64("id")?;
                            let seq = c.u64("seq")?;
                            let epoch = c.u64("epoch")?;
                            match tag {
                                TAG_INSERTED => UpdateResult::Inserted { id, seq, epoch },
                                TAG_DELETED => UpdateResult::Deleted { id, seq, epoch },
                                _ => UpdateResult::AlreadyDeleted { id, seq, epoch },
                            }
                        }
                        TAG_REJECTED => {
                            let raw = c.u16("reject code")?;
                            let code = ErrorCode::from_u16(raw).ok_or_else(|| {
                                FrameError::Malformed(format!("result {i}: unknown code {raw}"))
                            })?;
                            UpdateResult::Rejected { code }
                        }
                        t => {
                            return Err(FrameError::Malformed(format!(
                                "result {i}: unknown tag {t}"
                            )))
                        }
                    });
                }
                Response::Completion {
                    req_id,
                    epoch,
                    results,
                }
            }
            OP_QUERY_RESULT => {
                let req_id = c.u64("req_id")?;
                let epoch = c.u64("epoch")?;
                let matched_edge = match c.u8("matched tag")? {
                    0 => None,
                    1 => Some(c.u64("matched edge")?),
                    t => {
                        return Err(FrameError::Malformed(format!("bad option tag {t}")));
                    }
                };
                let n = c.count(4, "partner count")?;
                let mut partners = Vec::with_capacity(n);
                for _ in 0..n {
                    partners.push(c.u32("partner")?);
                }
                Response::QueryResult {
                    req_id,
                    epoch,
                    matched_edge,
                    partners,
                }
            }
            OP_STATS_RESULT => Response::Stats {
                req_id: c.u64("req_id")?,
                stats: WireStats {
                    epoch: c.u64("epoch")?,
                    num_edges: c.u64("num_edges")?,
                    matching_size: c.u64("matching_size")?,
                    connections: c.u32("connections")?,
                    draining: c.u8("draining")?,
                    report: get_profile(&mut c)?,
                },
            },
            OP_DELTA_EVENT => {
                let resync = match c.u8("resync flag")? {
                    0 => false,
                    1 => true,
                    t => return Err(FrameError::Malformed(format!("bad resync flag {t}"))),
                };
                let from_epoch = c.u64("from_epoch")?;
                let to_epoch = c.u64("to_epoch")?;
                let n = c.count(8, "inserted count")?;
                let mut inserted = Vec::with_capacity(n);
                for _ in 0..n {
                    inserted.push(EdgeId(c.u64("inserted id")?));
                }
                let n = c.count(8, "deleted count")?;
                let mut deleted = Vec::with_capacity(n);
                for _ in 0..n {
                    deleted.push(EdgeId(c.u64("deleted id")?));
                }
                let n = c.count(12, "matched count")?;
                let mut matched = Vec::with_capacity(n);
                for i in 0..n {
                    let id = EdgeId(c.u64("matched id")?);
                    let nv = c.count(4, &format!("matched {i} vertex count"))?;
                    let mut vs = Vec::with_capacity(nv);
                    for _ in 0..nv {
                        vs.push(c.u32("matched vertex")?);
                    }
                    matched.push((id, vs));
                }
                let n = c.count(8, "unmatched count")?;
                let mut unmatched = Vec::with_capacity(n);
                for _ in 0..n {
                    unmatched.push(EdgeId(c.u64("unmatched id")?));
                }
                Response::DeltaEvent {
                    resync,
                    delta: SnapshotDelta {
                        from_epoch,
                        to_epoch,
                        inserted,
                        deleted,
                        matched,
                        unmatched,
                    },
                }
            }
            OP_ERROR => {
                let req_id = c.u64("req_id")?;
                let raw = c.u16("error code")?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| FrameError::Malformed(format!("unknown error code {raw}")))?;
                let len = c.count(1, "message length")?;
                let bytes = c.take(len, "message")?;
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| FrameError::Malformed("error message is not UTF-8".into()))?;
                Response::Error {
                    req_id,
                    code,
                    message,
                }
            }
            op => {
                return Err(FrameError::Malformed(format!(
                    "unknown response opcode {op:#04x}"
                )))
            }
        };
        c.finish("response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_round_trips_and_rejects_imposters() {
        let mut wire = Vec::new();
        write_handshake(&mut wire).unwrap();
        assert_eq!(wire.len(), 8);
        read_handshake(&mut &wire[..]).unwrap();

        let http = b"GET / HT";
        assert!(matches!(
            read_handshake(&mut &http[..]),
            Err(FrameError::BadHandshake(_))
        ));
        // Both neighbouring versions are refused: a peer built before or
        // after a frame-layout change never mislabels positional fields.
        for other in [VERSION - 1, VERSION + 1] {
            let mut foreign = wire.clone();
            foreign[4..6].copy_from_slice(&other.to_le_bytes());
            assert!(matches!(
                read_handshake(&mut &foreign[..]),
                Err(FrameError::BadHandshake(_))
            ));
        }
        assert!(matches!(
            read_handshake(&mut &wire[..4]),
            Err(FrameError::BadHandshake(_))
        ));
    }

    #[test]
    fn frame_boundary_eof_is_clean_but_mid_frame_is_torn() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0xAB, 1, 2, 3]).unwrap();
        let mut body = Vec::new();
        // Whole frame reads back.
        let mut r = &wire[..];
        assert!(read_frame(&mut r, MAX_FRAME, &mut body).unwrap().is_some());
        assert_eq!(body, [0xAB, 1, 2, 3]);
        assert!(read_frame(&mut r, MAX_FRAME, &mut body).unwrap().is_none());
        // Truncation at every interior byte is Torn, never a panic.
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert!(
                matches!(
                    read_frame(&mut r, MAX_FRAME, &mut body),
                    Err(FrameError::Torn { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected_before_buffering() {
        let mut wire = (8u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 8]);
        let mut body = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], 4, &mut body),
            Err(FrameError::TooLarge { len: 8, cap: 4 })
        ));
        let zero = (0u32).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..], MAX_FRAME, &mut body),
            Err(FrameError::TooLarge { len: 0, .. })
        ));
    }

    #[test]
    fn hostile_counts_cannot_drive_allocations() {
        // A SubmitBatch declaring u32::MAX updates backed by 0 bytes.
        let mut body = vec![OP_SUBMIT_BATCH];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    /// A writer that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let req = Request::SubmitBatch {
            req_id: 5,
            updates: vec![Update::Insert(vec![1, 2]), Update::Delete(EdgeId(3))],
        };
        let mut w = CountingWriter::default();
        write_frame(&mut w, &req.encode()).unwrap();
        assert_eq!(w.writes, 1, "length prefix and body go out together");
        // The same bytes `encode_frame` appends to a reused buffer.
        let mut framed = vec![0xEE];
        req.encode_frame(&mut framed).unwrap();
        assert_eq!(framed[1..], w.bytes[..]);
        let mut body = Vec::new();
        assert!(read_frame(&mut &w.bytes[..], MAX_FRAME, &mut body)
            .unwrap()
            .is_some());
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut body = Request::Stats { req_id: 3 }.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn delta_subscription_frames_round_trip() {
        let req = Request::SubscribeDeltas {
            req_id: 11,
            from_epoch: 42,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);

        let resp = Response::DeltaEvent {
            resync: false,
            delta: SnapshotDelta {
                from_epoch: 42,
                to_epoch: 48,
                inserted: vec![EdgeId(5), EdgeId(9)],
                deleted: vec![EdgeId(2)],
                matched: vec![(EdgeId(5), vec![1, 2]), (EdgeId(9), vec![3, 4, 5])],
                unmatched: vec![EdgeId(2)],
            },
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        // A resync event with an empty delta (epoch-0 state).
        let resync = Response::DeltaEvent {
            resync: true,
            delta: SnapshotDelta::empty(0, 0),
        };
        assert_eq!(Response::decode(&resync.encode()).unwrap(), resync);
    }

    #[test]
    fn encoders_refuse_a_body_over_the_frame_cap() {
        // The cap is a legal body; one byte more is what every reader
        // refuses, so no encoder produces it and `out` keeps what it held.
        let mut out = Vec::new();
        write_frame(&mut out, &vec![0xAB; MAX_FRAME]).unwrap();
        let before = out.clone();
        let err = write_frame(&mut out, &vec![0xAB; MAX_FRAME + 1]).unwrap_err();
        assert!(
            matches!(err, FrameError::TooLarge { len, cap: MAX_FRAME } if len == MAX_FRAME + 1)
        );
        // 100k inserts encode to 1.3 MB: a client fails them locally.
        let updates = (0..100_000).map(|v| Update::Insert(vec![v, v + 1]));
        let big = Request::SubmitBatch {
            req_id: 2,
            updates: updates.collect(),
        };
        let err = big.encode_frame(&mut out).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { cap: MAX_FRAME, .. }));
        assert_eq!(out, before);
    }

    #[test]
    fn removed_epoch_ping_opcodes_are_malformed() {
        // Up to version 3, request 0x04 was SubscribeEpoch{req_id,
        // from_epoch} and response 0x84 was EpochEvent{epoch}.
        let sub = [[0x04].as_slice(), &[0; 16]].concat();
        assert!(matches!(
            Request::decode(&sub),
            Err(FrameError::Malformed(_))
        ));
        let ping = [[0x84].as_slice(), &[0; 8]].concat();
        assert!(matches!(
            Response::decode(&ping),
            Err(FrameError::Malformed(_))
        ));
    }

    /// Decode a lowercase hex string.
    fn unhex(s: &str) -> Vec<u8> {
        let digit = |i| u8::from_str_radix(&s[i..i + 2], 16).unwrap();
        (0..s.len()).step_by(2).map(digit).collect()
    }

    #[test]
    fn delta_stream_bytes_are_pinned() {
        // Frames (length prefix included) as protocol version 3 encoded
        // them: a subscriber reads the same bytes after the version bump.
        let sub = Request::SubscribeDeltas {
            req_id: 0x0102_0304_0506_0708,
            from_epoch: 42,
        };
        let mut out = Vec::new();
        sub.encode_frame(&mut out).unwrap();
        assert_eq!(out, unhex("110000000608070605040302012a00000000000000"));
        assert_eq!(Request::decode(&out[4..]).unwrap(), sub);

        let delta = Response::DeltaEvent {
            resync: false,
            delta: SnapshotDelta {
                from_epoch: 42,
                to_epoch: 48,
                inserted: vec![EdgeId(5), EdgeId(9)],
                deleted: vec![EdgeId(2)],
                matched: vec![(EdgeId(5), vec![1, 2]), (EdgeId(9), vec![3, 4, 5])],
                unmatched: vec![EdgeId(7)],
            },
        };
        let resync = Response::DeltaEvent {
            resync: true,
            delta: SnapshotDelta {
                from_epoch: 0,
                to_epoch: 300,
                inserted: vec![EdgeId(1), EdgeId(0x1_0000_0000)],
                deleted: vec![EdgeId(3)],
                matched: vec![(EdgeId(0x1_0000_0000), vec![7, 0xdead_beef])],
                unmatched: vec![EdgeId(4)],
            },
        };
        let delta_hex = "6e00000085002a00000000000000300000000000000002000000050000000000\
            0000090000000000000001000000020000000000000002000000050000000000\
            0000020000000100000002000000090000000000000003000000030000000400\
            000005000000010000000700000000000000";
        let resync_hex = "56000000850100000000000000002c0100000000000002000000010000000000\
            0000000000000100000001000000030000000000000001000000000000000100\
            00000200000007000000efbeadde010000000400000000000000";
        for (resp, hex) in [(delta, delta_hex), (resync, resync_hex)] {
            let mut out = Vec::new();
            resp.encode_frame(&mut out).unwrap();
            assert_eq!(out, unhex(hex));
            assert_eq!(Response::decode(&out[4..]).unwrap(), resp);
        }
    }

    /// A `Stats` frame with gauges and `report`.
    fn stats_frame(req_id: u64, report: ProfileReport) -> Response {
        Response::Stats {
            req_id,
            stats: WireStats {
                epoch: 40,
                num_edges: 12,
                matching_size: 5,
                connections: 2,
                draining: 0,
                report,
            },
        }
    }

    /// A `Stats` frame carries phases and counters by position, so these
    /// lists are part of the wire format: a change to either one bumps
    /// `VERSION`, and this test with it.
    #[test]
    fn stats_lists_are_pinned_to_the_version() {
        use pbdmm_primitives::obs::{Counter, Phase};
        assert_eq!(VERSION, 5);
        let phases: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            phases,
            [
                "batch",
                "plan",
                "wal_append",
                "apply",
                "settle",
                "snapshot_publish",
                "complete",
                "net_decode",
                "net_dispatch",
            ]
        );
        let counters: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            counters,
            [
                "batches",
                "updates",
                "batch_max",
                "flush_full",
                "flush_idle",
                "flush_close",
                "settle_rounds",
                "levels_touched",
                "scratch_high_water",
                "frames_decoded",
                "protocol_errors",
                "dup_deletes",
                "rejected",
                "wal_batches",
                "checkpoints",
                "checkpoint_failures",
                "segments_removed",
                "connections",
                "overloaded",
            ]
        );
    }

    #[test]
    fn profile_frames_round_trip() {
        use pbdmm_primitives::obs::{Counter, Phase, Recorder};

        let req = Request::Stats { req_id: 21 };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);

        // A populated report survives the sparse-bucket wire encoding.
        let rec = Recorder::enabled();
        rec.record_ns(Phase::Batch, 50_000);
        rec.record_ns(Phase::Plan, 1_100);
        rec.record_ns(Phase::Plan, 2_000_000);
        rec.add(Counter::Batches, 2);
        rec.record_max(Counter::BatchMax, 64);
        let resp = stats_frame(21, rec.snapshot());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        // The all-zero report of a fresh daemon too.
        let empty = stats_frame(3, ProfileReport::empty());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn hostile_profile_frames_are_malformed_not_panics() {
        // The report starts after op + req_id(8) + the gauges: epoch,
        // edges, matching (8 each), connections (4) and draining (1).
        let gauges = 1 + 8 + 8 + 8 + 8 + 4 + 1;

        // A phase count of u32::MAX backed by no bytes.
        let mut body = stats_frame(9, ProfileReport::empty()).encode();
        body.truncate(gauges);
        body.extend_from_slice(&0u64.to_le_bytes()); // wall_ns
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&body),
            Err(FrameError::Malformed(_))
        ));

        // A bucket index beyond the histogram is malformed, not a panic.
        let mut resp = stats_frame(9, ProfileReport::empty()).encode();
        // Rewrite the first phase to claim one bucket at index 200. The
        // empty report encodes as wall(8) + nphases(4), then per phase
        // total(8)+count(8)+max(8)+nbuckets(4).
        let first_nbuckets = gauges + 8 + 4 + 8 + 8 + 8;
        resp[first_nbuckets..first_nbuckets + 4].copy_from_slice(&1u32.to_le_bytes());
        resp.insert(first_nbuckets + 4, 200); // bucket index
        let pos = first_nbuckets + 5;
        for (i, b) in 7u64.to_le_bytes().iter().enumerate() {
            resp.insert(pos + i, *b); // bucket value
        }
        assert!(matches!(
            Response::decode(&resp),
            Err(FrameError::Malformed(_))
        ));

        // Truncating a valid stats frame at any interior byte is
        // malformed (or torn at the transport layer), never a panic.
        let whole = stats_frame(1, ProfileReport::empty()).encode();
        for cut in 1..whole.len() {
            assert!(Response::decode(&whole[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_delta_counts_cannot_drive_allocations() {
        // A DeltaEvent declaring u32::MAX inserted ids backed by 0 bytes.
        let mut body = vec![OP_DELTA_EVENT, 0];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&body),
            Err(FrameError::Malformed(_))
        ));
    }
}
