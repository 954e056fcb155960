//! A small blocking wire client for the pbdmm daemon.
//!
//! [`Client`] owns one TCP connection: it performs the magic/version
//! handshake on connect, encodes [`Request`] frames, and decodes
//! [`Response`] frames. Requests may be **pipelined** (send many, then
//! read the responses in order); the daemon serializes a connection's
//! responses in request order, with one exception — a delta subscription
//! interleaves [`Response::DeltaEvent`] frames anywhere in the stream.
//! [`Client::recv_response`] surfaces every frame; the correlation helpers
//! ([`Client::submit_updates`], [`Client::point_query`], …) skip events
//! (buffering them for [`Client::take_delta_events`]) and match on
//! `req_id`. A request too large for one frame ([`MAX_FRAME`]) fails
//! locally with [`FrameError::TooLarge`]; nothing is sent.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pbdmm_graph::Update;
use pbdmm_matching::snapshot::SnapshotDelta;

use crate::proto::{
    self, ErrorCode, FrameError, Request, Response, UpdateResult, WireStats, MAX_FRAME,
};

/// Why a client call failed: the transport/codec layer, or a structured
/// error frame from the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// The connection or codec failed (I/O, torn frame, malformed bytes).
    Frame(FrameError),
    /// The daemon answered with a [`Response::Error`] frame.
    Server {
        /// Machine-readable cause (e.g. [`ErrorCode::Overloaded`]).
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon answered with a frame of the wrong kind for the request.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "daemon: {code}: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A batch completion as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDone {
    /// Max visibility epoch across the applied updates (0 if none applied).
    pub epoch: u64,
    /// Per-update outcomes, in submission order.
    pub results: Vec<UpdateResult>,
}

/// A point-query answer as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    /// Epoch of the snapshot the daemon resolved the query against.
    pub epoch: u64,
    /// The matched edge covering the vertex, if any.
    pub matched_edge: Option<u64>,
    /// All vertices of that edge (including the queried one).
    pub partners: Vec<u32>,
}

/// One blocking connection to a pbdmm daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Encoded request frames not yet written: [`Client::flush`] hands
    /// them to the socket in one write.
    out: Vec<u8>,
    body: Vec<u8>,
    next_req_id: u64,
    /// Delta events that arrived interleaved while a correlation helper
    /// was waiting for its response (`resync` flag + delta).
    delta_events: Vec<(bool, SnapshotDelta)>,
}

impl Client {
    /// Connect and complete the handshake in both directions. Fails fast
    /// (with [`FrameError::BadHandshake`]) against a non-pbdmm peer or a
    /// version mismatch — including the daemon's over-capacity refusal,
    /// which arrives as an `Error{Overloaded}` frame right after its
    /// handshake and is surfaced by the first call on the client.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        Self::from_stream(stream)
    }

    /// Handshake over an already-connected stream. The stream is switched
    /// to `TCP_NODELAY`: a flushed frame leaves at once, not after the
    /// peer's delayed ACK.
    pub fn from_stream(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        let read_half = stream.try_clone().map_err(FrameError::Io)?;
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        proto::write_handshake(&mut writer)?;
        proto::read_handshake(&mut reader)?;
        Ok(Client {
            reader,
            writer,
            out: Vec::new(),
            body: Vec::new(),
            next_req_id: 1,
            delta_events: Vec::new(),
        })
    }

    /// Bound how long [`Client::recv_response`] blocks for the next frame
    /// (`None`: forever). A timeout surfaces as [`FrameError::Io`].
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(t)
            .map_err(FrameError::Io)?;
        Ok(())
    }

    /// Allocate the next request correlation id.
    pub fn next_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    /// Encode and send one request frame (with any frames still buffered,
    /// in one write before this returns). Use with
    /// [`Client::recv_response`] to pipeline.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.send_buffered(req)?;
        self.flush()
    }

    /// Encode and buffer one request frame without writing it — the
    /// pipelined half of [`Client::send`]; call [`Client::flush`] when the
    /// window is assembled.
    pub fn send_buffered(&mut self, req: &Request) -> Result<(), ClientError> {
        req.encode_frame(&mut self.out)?;
        Ok(())
    }

    /// Write every buffered request frame to the socket, in one write.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if !self.out.is_empty() {
            let written = self.writer.write_all(&self.out);
            self.out.clear();
            written.map_err(FrameError::Io)?;
        }
        Ok(())
    }

    /// Read the next response frame. `Ok(None)` means the daemon closed the
    /// connection cleanly (EOF at a frame boundary).
    pub fn recv_response(&mut self) -> Result<Option<Response>, ClientError> {
        match proto::read_frame(&mut self.reader, MAX_FRAME, &mut self.body)? {
            None => Ok(None),
            Some(()) => Ok(Some(Response::decode(&self.body)?)),
        }
    }

    /// Delta events buffered while correlation helpers were waiting;
    /// returns and clears the buffer. Each entry is `(resync, delta)` —
    /// feed them to [`Mirror::apply`] in order.
    pub fn take_delta_events(&mut self) -> Vec<(bool, SnapshotDelta)> {
        std::mem::take(&mut self.delta_events)
    }

    /// Read until the response correlated with `req_id` arrives. Delta
    /// events are buffered; an error frame for `req_id` (or a
    /// connection-level one, `req_id == 0`) becomes [`ClientError::Server`].
    pub fn recv_for(&mut self, req_id: u64) -> Result<Response, ClientError> {
        loop {
            let resp = self.recv_response()?.ok_or_else(|| {
                ClientError::Frame(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )))
            })?;
            match resp {
                Response::DeltaEvent { resync, delta } => self.delta_events.push((resync, delta)),
                Response::Error {
                    req_id: rid,
                    code,
                    message,
                } if rid == req_id || rid == 0 => {
                    return Err(ClientError::Server { code, message })
                }
                r if response_req_id(&r) == Some(req_id) => return Ok(r),
                r => {
                    return Err(ClientError::Unexpected(format!(
                        "frame for request {:?} while waiting for {req_id}",
                        response_req_id(&r)
                    )))
                }
            }
        }
    }

    /// Submit one batch of updates and block for its completion.
    pub fn submit_updates(&mut self, updates: Vec<Update>) -> Result<BatchDone, ClientError> {
        let req_id = self.next_req_id();
        self.send(&Request::SubmitBatch { req_id, updates })?;
        match self.recv_for(req_id)? {
            Response::Completion { epoch, results, .. } => Ok(BatchDone { epoch, results }),
            r => Err(ClientError::Unexpected(format!("{r:?} to SubmitBatch"))),
        }
    }

    /// Resolve one point query against the daemon's latest snapshot.
    pub fn point_query(&mut self, vertex: u32) -> Result<QueryAnswer, ClientError> {
        let req_id = self.next_req_id();
        self.send(&Request::PointQuery { req_id, vertex })?;
        match self.recv_for(req_id)? {
            Response::QueryResult {
                epoch,
                matched_edge,
                partners,
                ..
            } => Ok(QueryAnswer {
                epoch,
                matched_edge,
                partners,
            }),
            r => Err(ClientError::Unexpected(format!("{r:?} to PointQuery"))),
        }
    }

    /// Fetch the snapshot gauges and the daemon's counts (and its phase
    /// spans, when it times them) in [`WireStats::report`].
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        let req_id = self.next_req_id();
        self.send(&Request::Stats { req_id })?;
        match self.recv_for(req_id)? {
            Response::Stats { stats, .. } => Ok(stats),
            r => Err(ClientError::Unexpected(format!("{r:?} to Stats"))),
        }
    }

    /// Subscribe this connection to **state deltas** newer than
    /// `from_epoch`; subsequent changes arrive as interleaved
    /// [`Response::DeltaEvent`] frames. Pass `from_epoch = 0` to mirror
    /// from genesis (the first event may be a resync). Maintain local
    /// state by feeding each event to a [`Mirror`].
    pub fn subscribe_deltas(&mut self, from_epoch: u64) -> Result<(), ClientError> {
        let req_id = self.next_req_id();
        self.send(&Request::SubscribeDeltas { req_id, from_epoch })
    }

    /// Ask the daemon to drain and exit; returns its goodbye stats frame.
    pub fn shutdown(&mut self) -> Result<WireStats, ClientError> {
        let req_id = self.next_req_id();
        self.send(&Request::Shutdown { req_id })?;
        match self.recv_for(req_id)? {
            Response::Stats { stats, .. } => Ok(stats),
            r => Err(ClientError::Unexpected(format!("{r:?} to Shutdown"))),
        }
    }
}

/// The correlation id a response carries (None for event frames).
fn response_req_id(r: &Response) -> Option<u64> {
    match r {
        Response::Completion { req_id, .. }
        | Response::QueryResult { req_id, .. }
        | Response::Stats { req_id, .. }
        | Response::Error { req_id, .. } => Some(*req_id),
        Response::DeltaEvent { .. } => None,
    }
}

/// A client-side mirror of the daemon's matching state, folded from a
/// delta subscription's [`Response::DeltaEvent`] stream.
///
/// The mirror is keyed sparsely on purpose: the ids come from the peer, and
/// a dense map (such as a `MatchingSnapshot`'s) would let one hostile id
/// near 2^50 make the client allocate a huge spine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mirror {
    /// Epoch of the last applied delta.
    pub epoch: u64,
    /// Live edge ids.
    pub live: std::collections::BTreeSet<u64>,
    /// Matched edges (id → vertex set).
    pub matched: std::collections::BTreeMap<u64, Vec<u32>>,
}

impl Mirror {
    /// Fold one delta event into the mirror. A `resync` event clears the
    /// mirror first (the delta then rebuilds the full state).
    pub fn apply(&mut self, resync: bool, d: &SnapshotDelta) {
        if resync {
            self.live.clear();
            self.matched.clear();
        }
        for id in &d.deleted {
            self.live.remove(&id.raw());
            self.matched.remove(&id.raw());
        }
        for id in &d.inserted {
            self.live.insert(id.raw());
        }
        for id in &d.unmatched {
            self.matched.remove(&id.raw());
        }
        for (id, vs) in &d.matched {
            self.matched.insert(id.raw(), vs.clone());
        }
        self.epoch = d.to_epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connected_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            proto::write_handshake(&mut s).unwrap();
            proto::read_handshake(&mut s).unwrap();
        });
        let client = Client::connect(addr).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
        peer.join().unwrap();
    }
}
