//! The pbdmm daemon: a std-only TCP front end over the coalescing service.
//!
//! One accept loop, one **reader/writer thread pair per connection** — no
//! async runtime. Every connection funnels into the same
//! [`ServiceHandle`]/[`QueryHandle`] pair, so coalescing, WAL durability,
//! epoch snapshots, and read-your-writes all come for free from the
//! in-process service; the network tier adds exactly two things:
//!
//! * **Admission control** — a cap on concurrent connections (excess
//!   connections are greeted, told [`ErrorCode::Overloaded`], and closed)
//!   and a per-connection bounded in-flight window (a `SubmitBatch` that
//!   would exceed it, or whose `Completion` would not fit one frame, is
//!   refused with `Overloaded` instead of queueing without bound or being
//!   applied unanswered). Daemon memory is bounded by
//!   `connections × (window + channel slack)`.
//! * **Fault isolation** — a protocol violation (bad magic, oversized or
//!   torn frame, unknown opcode) draws a structured [`Response::Error`] and
//!   closes *that* connection; the daemon and its other clients keep
//!   running.
//!
//! Shutdown is a graceful drain: on a [`Request::Shutdown`] frame (or
//! [`StopHandle::stop`]) the daemon stops accepting, half-closes every
//! connection so readers see EOF, lets writers flush their in-flight
//! completions, then shuts the service down and returns the structure and
//! final counters in a [`DaemonReport`].

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pbdmm_matching::snapshot::{Changes, MatchingSnapshot, SnapshotDelta};
use pbdmm_matching::DynamicMatching;
use pbdmm_primitives::obs::{Counter, Phase, ProfileReport, Recorder};
use pbdmm_primitives::pool::ParPool;
use pbdmm_service::{
    BatchTicket, Done, QueryHandle, RecoveryInfo, ServiceBuilder, ServiceConfig, ServiceError,
    ServiceHandle, ServiceStats, UpdateService, WalConfig, DEFAULT_MAX_BATCH,
};

use crate::proto::{
    self, ErrorCode, FrameError, Request, Response, UpdateResult, WireStats, MAX_BATCH_UPDATES,
    MAX_FRAME,
};

/// How long a subscribed writer waits for a new epoch before re-checking
/// its work channel. Bounds subscription wake-up latency without polling
/// the snapshot (the wait rides the publication condvar).
const SUBSCRIPTION_TICK: Duration = Duration::from_millis(25);

/// Write timeout on every connection: a client that stops reading cannot
/// stall the drain forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Handshake deadline: a connected-but-silent peer cannot hold an
/// admission slot indefinitely.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A writer hands its encoded responses to the socket once its queue is
/// empty, or once this many bytes are pending, whichever comes first: a
/// pipelined burst leaves in few writes, and the buffer stays bounded.
const WRITE_CHUNK: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 = ephemeral; read the
    /// bound port back from [`Daemon::local_addr`]).
    pub addr: String,
    /// Connection cap; further connections are refused with
    /// [`ErrorCode::Overloaded`].
    pub max_connections: usize,
    /// Per-connection in-flight update window: a `SubmitBatch` that would
    /// push the connection past this many un-completed updates is refused
    /// with [`ErrorCode::Overloaded`], as is one of more than
    /// [`MAX_BATCH_UPDATES`], whose `Completion` would not fit one frame.
    pub max_inflight: usize,
    /// The service's batch cap (see `ServiceBuilder::max_batch`).
    pub max_batch: usize,
    /// Durable write-ahead log (None: in-memory only).
    pub wal: Option<WalConfig>,
    /// Scheduler every `apply` runs on (None: the process-global pool).
    pub pool: Option<Arc<ParPool>>,
    /// The recorder shared with the service and matching tiers: every
    /// count goes to it, and [`Request::Stats`] serves its report. Timing
    /// is off by default; [`Recorder::enabled`] adds per-phase spans.
    pub obs: Recorder,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            max_inflight: 4096,
            max_batch: DEFAULT_MAX_BATCH,
            wal: None,
            pool: None,
            obs: Recorder::disabled(),
        }
    }
}

/// Wire-tier counts of one daemon run: its recorder's counters between
/// the daemon's start and its drain (the service-tier counts ride in
/// [`ServiceStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Connections ever accepted (including refused ones).
    pub total_connections: u64,
    /// `SubmitBatch` frames and connections refused with
    /// [`ErrorCode::Overloaded`].
    pub overloaded: u64,
    /// Connections closed for protocol violations.
    pub protocol_errors: u64,
}

impl WireCounters {
    /// The counts `obs` gathered from `start` until now.
    fn between(start: &ProfileReport, obs: &Recorder) -> Self {
        let d = obs.snapshot().delta(start);
        WireCounters {
            total_connections: d.counter(Counter::Connections),
            overloaded: d.counter(Counter::Overloaded),
            protocol_errors: d.counter(Counter::ProtocolErrors),
        }
    }
}

/// Everything a drained daemon hands back.
#[derive(Debug)]
pub struct DaemonReport {
    /// The structure, for final-state inspection (`final:` line, invariant
    /// checks) exactly as an in-process `serve` run would yield it.
    pub structure: DynamicMatching,
    /// Service-tier counters.
    pub service: ServiceStats,
    /// Wire-tier counters.
    pub wire: WireCounters,
}

/// State shared by the acceptor and every connection thread.
struct Shared {
    handle: ServiceHandle,
    query: QueryHandle<MatchingSnapshot>,
    cfg: DaemonConfig,
    draining: AtomicBool,
    conn_count: AtomicUsize,
    /// Read-half clones of every open connection, for the drain's
    /// half-close. Entries are removed as connections exit.
    registry: Mutex<Vec<(u64, TcpStream)>>,
    /// Connection/writer thread handles the drain joins.
    joins: Mutex<Vec<JoinHandle<()>>>,
    /// Signals the drain (a `Shutdown` frame or a [`StopHandle`]).
    control: mpsc::Sender<()>,
}

impl Shared {
    fn wire_stats(&self) -> WireStats {
        let st = self.query.snapshot().stats();
        WireStats {
            epoch: st.epoch,
            num_edges: st.num_edges as u64,
            matching_size: st.matching_size as u64,
            connections: self.conn_count.load(Ordering::Relaxed) as u32,
            draining: self.draining.load(Ordering::Relaxed) as u8,
            report: self.cfg.obs.snapshot(),
        }
    }
}

/// A cloneable handle that asks a running [`Daemon`] to drain, for
/// in-process embedders (benchmarks, tests) that have no wire client handy.
#[derive(Clone)]
pub struct StopHandle {
    shared: Arc<Shared>,
}

impl StopHandle {
    /// Begin the drain (idempotent).
    pub fn stop(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let _ = self.shared.control.send(());
    }
}

/// A running daemon. Bind with [`Daemon::start`], read the ephemeral port
/// from [`Daemon::local_addr`], then block in [`Daemon::run`] until a
/// client (or a [`StopHandle`]) requests shutdown.
pub struct Daemon {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    svc: UpdateService<DynamicMatching>,
    acceptor: JoinHandle<()>,
    control_rx: mpsc::Receiver<()>,
    /// The recorder's counts when the daemon started.
    start: ProfileReport,
}

impl Daemon {
    /// Bind the listener, start the coalescing service over `structure`,
    /// and spawn the accept loop. Fails if the address cannot be bound or
    /// the WAL cannot be created.
    pub fn start(structure: DynamicMatching, cfg: DaemonConfig) -> Result<Daemon, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let (svc, query) = builder_for(&cfg)
            .start_serving(structure)
            .map_err(|e| format!("start service: {e}"))?;
        Self::assemble(listener, cfg, svc, query)
    }

    /// Bind the listener and **recover** the structure from the configured
    /// WAL directory (newest intact checkpoint + tail segments), then
    /// resume serving and appending where the log left off. The
    /// structure's seed and id mode come from the configured WAL metadata,
    /// so a kill/restart loop needs nothing beyond the same
    /// [`DaemonConfig`]. An empty or missing directory starts fresh.
    pub fn recover_and_start(cfg: DaemonConfig) -> Result<(Daemon, RecoveryInfo), String> {
        if cfg.wal.is_none() {
            return Err("recovery requires a WAL directory (DaemonConfig::wal)".into());
        }
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let (svc, query, info) = builder_for(&cfg)
            .recover_and_start_serving()
            .map_err(|e| format!("recover service: {e}"))?;
        Ok((Self::assemble(listener, cfg, svc, query)?, info))
    }

    /// Wire a started service + listener into a running daemon.
    fn assemble(
        listener: TcpListener,
        cfg: DaemonConfig,
        svc: UpdateService<DynamicMatching>,
        query: QueryHandle<MatchingSnapshot>,
    ) -> Result<Daemon, String> {
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let (control, control_rx) = mpsc::channel();
        let start = cfg.obs.snapshot();
        let shared = Arc::new(Shared {
            handle: svc.handle(),
            query,
            cfg,
            draining: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            registry: Mutex::new(Vec::new()),
            joins: Mutex::new(Vec::new()),
            control,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pbdmm-acceptor".into())
                .spawn(move || accept_loop(listener, shared))
                .map_err(|e| format!("spawn acceptor: {e}"))?
        };
        Ok(Daemon {
            local_addr,
            shared,
            svc,
            acceptor,
            control_rx,
            start,
        })
    }

    /// The bound address (resolves `--port 0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can trigger the drain without a wire client.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Block until shutdown is requested, then drain: stop accepting,
    /// half-close every connection (readers see EOF), let writers flush
    /// their remaining completions, shut the service down, and return the
    /// final state and counters.
    pub fn run(self) -> DaemonReport {
        // Block until a Shutdown frame / StopHandle fires. A disconnected
        // channel (impossible while `shared.control` lives in Shared, but
        // defensive) also drains.
        let _ = self.control_rx.recv();
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection, then join.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.acceptor.join();
        // Half-close every open connection: blocked reads return EOF, the
        // reader exits, its writer drains the in-flight tickets and exits.
        for (_, s) in self.shared.registry.lock().expect("registry").iter() {
            let _ = s.shutdown(std::net::Shutdown::Read);
        }
        loop {
            let handle = self.shared.joins.lock().expect("joins").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let (structure, service) = self.svc.shutdown();
        let wire = WireCounters::between(&self.start, &self.shared.cfg.obs);
        DaemonReport {
            structure,
            service,
            wire,
        }
    }
}

/// The service builder a [`DaemonConfig`] describes (batch cap, WAL, pool).
fn builder_for(cfg: &DaemonConfig) -> ServiceBuilder {
    let mut b = ServiceConfig::builder()
        .max_batch(cfg.max_batch)
        .obs(cfg.obs.clone());
    if let Some(wal) = cfg.wal.clone() {
        b = b.wal(wal);
    }
    if let Some(pool) = cfg.pool.clone() {
        b = b.pool(pool);
    }
    b
}

/// Accept until draining. Over-capacity connections are refused politely
/// (handshake + `Error{Overloaded}`) on a detached thread so a slow peer
/// never blocks the accept loop. A connection no thread can be started
/// for is closed and counted as `Overloaded`; the loop keeps accepting.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let obs = &shared.cfg.obs;
    let mut conn_id = 0u64;
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break; // woken by the drain's throwaway connection
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Every frame leaves in one write; without Nagle's algorithm it
        // leaves at once instead of waiting on the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        obs.add(Counter::Connections, 1);
        conn_id += 1;
        reap_finished(&shared);
        // Reserve a slot atomically; refuse when full.
        let admitted = shared
            .conn_count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < shared.cfg.max_connections).then_some(c + 1)
            })
            .is_ok();
        if !admitted {
            obs.add(Counter::Overloaded, 1);
            // Without a thread for the refusal, the stream just closes.
            if let Ok(h) = std::thread::Builder::new().spawn(move || refuse(stream)) {
                shared.joins.lock().expect("joins").push(h);
            }
            continue;
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("pbdmm-conn".into())
            .spawn(move || {
                connection(stream, &conn_shared, conn_id);
                conn_shared.conn_count.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(h) => shared.joins.lock().expect("joins").push(h),
            // The stream closed with the unspawned closure; free its slot.
            Err(_) => {
                obs.add(Counter::Overloaded, 1);
                shared.conn_count.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Join connection threads that have already exited, so the handle list
/// tracks *live* connections rather than total connections served — daemon
/// memory stays bounded by the connection cap, not by uptime.
fn reap_finished(shared: &Arc<Shared>) {
    let mut joins = shared.joins.lock().expect("joins");
    let mut i = 0;
    while i < joins.len() {
        if joins[i].is_finished() {
            let _ = joins.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Greet and turn away one over-capacity connection.
fn refuse(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut out = Vec::new();
    let _ = proto::write_handshake(&mut out);
    let err = Response::Error {
        req_id: 0,
        code: ErrorCode::Overloaded,
        message: "connection limit reached".into(),
    };
    let _ = err.encode_frame(&mut out);
    let _ = (&stream).write_all(&out);
    linger_close(&stream);
}

/// Graceful close for a connection we are abandoning while the peer may
/// still be mid-send: send our FIN first, then drain the peer's bytes
/// until its EOF (bounded by a deadline). Dropping a socket with unread
/// bytes pending resets the connection, which can discard the final frames
/// we wrote (the refusal / protocol-error verdict) before the peer reads
/// them — the drain guarantees those frames survive delivery.
fn linger_close(stream: &TcpStream) {
    use std::io::Read;
    // Short deadline: a peer that holds its end open only delays its own
    // thread this long; the frames we already flushed are ACKed well within
    // it on any real link.
    const LINGER_TIMEOUT: Duration = Duration::from_secs(1);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER_TIMEOUT));
    let mut sink = [0u8; 512];
    let mut r = stream;
    while matches!(r.read(&mut sink), Ok(n) if n > 0) {}
}

/// What the reader hands the writer, in request order.
enum WorkItem {
    /// A submitted batch: the writer waits its one ticket, builds the
    /// `Completion`, and releases the in-flight window.
    Batch { req_id: u64, ticket: BatchTicket },
    /// A response the reader already resolved (queries, stats, errors).
    Ready(Response),
    /// Switch the writer into delta-subscription mode from `from_epoch`.
    Subscribe { req_id: u64, from_epoch: u64 },
}

/// One connection, run on its own thread: handshake, spawn the writer,
/// then decode requests until EOF, error, or violation.
fn connection(stream: TcpStream, shared: &Arc<Shared>, conn_id: u64) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    // Handshake, under a read deadline so silent peers release their slot.
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    if proto::write_handshake(&mut &stream).is_err() {
        return;
    }
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if let Err(e) = proto::read_handshake(&mut read_half) {
        shared.cfg.obs.add(Counter::ProtocolErrors, 1);
        let err = Response::Error {
            req_id: 0,
            code: ErrorCode::Protocol,
            message: format!("{e}"),
        };
        let _ = proto::write_frame(&mut &stream, &err.encode());
        linger_close(&stream);
        return;
    }
    let _ = stream.set_read_timeout(None);

    // Register the read half so the drain can half-close it.
    if let Ok(clone) = stream.try_clone() {
        shared
            .registry
            .lock()
            .expect("registry")
            .push((conn_id, clone));
    }

    // The writer: bounded channel, so even a request flood cannot queue
    // unboundedly — the reader blocks, TCP backpressure does the rest.
    let inflight = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::sync_channel::<WorkItem>(shared.cfg.max_inflight.max(16));
    let writer = stream.try_clone().and_then(|stream| {
        let shared = Arc::clone(shared);
        let inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name("pbdmm-conn-writer".into())
            .spawn(move || writer_loop(stream, rx, &shared, &inflight))
    });
    match writer {
        Ok(writer) => {
            shared.joins.lock().expect("joins").push(writer);
            reader_loop(&mut read_half, tx, shared, &inflight);
        }
        // No thread (or no descriptor) for the writer: turn the
        // connection away; the caller frees its slot.
        Err(_) => {
            shared.cfg.obs.add(Counter::Overloaded, 1);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    shared
        .registry
        .lock()
        .expect("registry")
        .retain(|(id, _)| *id != conn_id);
}

/// Map a per-update service error onto its wire code.
fn code_of(e: &ServiceError) -> ErrorCode {
    match e {
        ServiceError::UnknownEdge(_) => ErrorCode::UnknownEdge,
        ServiceError::EmptyEdge => ErrorCode::EmptyEdge,
        ServiceError::Closed => ErrorCode::Closed,
        ServiceError::Rejected(_) | ServiceError::Wal(_) | ServiceError::Spawn(_) => {
            ErrorCode::Internal
        }
    }
}

/// Decode requests until the client leaves or misbehaves. Resolves reads
/// inline (snapshots never block the coalescer); forwards writes as
/// tickets. Returning closes the channel, which lets the writer finish.
fn reader_loop(
    read_half: &mut TcpStream,
    tx: mpsc::SyncSender<WorkItem>,
    shared: &Arc<Shared>,
    inflight: &AtomicUsize,
) {
    let obs = shared.cfg.obs.clone();
    let mut body = Vec::new();
    loop {
        // The blocking socket read stays outside the decode span — idle
        // wait is not decode time.
        let frame = proto::read_frame(read_half, MAX_FRAME, &mut body);
        let request = match frame {
            Ok(None) => return, // clean EOF: client is done
            Ok(Some(())) => {
                let _decode = obs.span(Phase::NetDecode);
                Request::decode(&body)
            }
            Err(FrameError::Io(_)) => return, // reset/timeout: nothing to say
            Err(e) => Err(e),
        };
        let request = match request {
            Ok(r) => {
                obs.add(Counter::FramesDecoded, 1);
                r
            }
            Err(e) => {
                // Protocol violation: structured error, then close only
                // this connection.
                obs.add(Counter::ProtocolErrors, 1);
                let _ = tx.send(WorkItem::Ready(Response::Error {
                    req_id: 0,
                    code: ErrorCode::Protocol,
                    message: format!("{e}"),
                }));
                return;
            }
        };
        let _dispatch = obs.span(Phase::NetDispatch);
        let item = match request {
            Request::SubmitBatch { req_id, updates } => {
                if shared.draining.load(Ordering::SeqCst) {
                    WorkItem::Ready(Response::Error {
                        req_id,
                        code: ErrorCode::Draining,
                        message: "daemon is draining".into(),
                    })
                } else {
                    let n = updates.len();
                    let window = shared.cfg.max_inflight;
                    // Refused before anything is applied: a frame larger
                    // than the window, or than one `Completion` can answer.
                    let cap = window.min(MAX_BATCH_UPDATES);
                    if n > cap || inflight.load(Ordering::SeqCst) + n > window {
                        obs.add(Counter::Overloaded, 1);
                        WorkItem::Ready(Response::Error {
                            req_id,
                            code: ErrorCode::Overloaded,
                            message: if n > cap {
                                format!("a frame holds at most {cap} updates")
                            } else {
                                format!("in-flight window ({window} updates) is full")
                            },
                        })
                    } else {
                        inflight.fetch_add(n, Ordering::SeqCst);
                        WorkItem::Batch {
                            req_id,
                            ticket: shared.handle.submit_batch(updates),
                        }
                    }
                }
            }
            Request::PointQuery { req_id, vertex } => {
                let snap = shared.query.snapshot();
                let matched = snap.matched_edge_of(vertex);
                let partners = matched
                    .and_then(|_| snap.partners(vertex))
                    .map(<[u32]>::to_vec)
                    .unwrap_or_default();
                WorkItem::Ready(Response::QueryResult {
                    req_id,
                    epoch: snap.epoch(),
                    matched_edge: matched.map(|e| e.raw()),
                    partners,
                })
            }
            Request::Stats { req_id } => WorkItem::Ready(Response::Stats {
                req_id,
                stats: shared.wire_stats(),
            }),
            Request::SubscribeDeltas { req_id, from_epoch } => {
                WorkItem::Subscribe { req_id, from_epoch }
            }
            Request::Shutdown { req_id } => {
                shared.draining.store(true, Ordering::SeqCst);
                let _ = shared.control.send(());
                // The requester's goodbye: the final stats frame.
                WorkItem::Ready(Response::Stats {
                    req_id,
                    stats: shared.wire_stats(),
                })
            }
        };
        if tx.send(item).is_err() {
            return; // writer died (client stopped reading)
        }
    }
}

/// Serialize responses in request order; in subscription mode, ride the
/// snapshot publication condvar and interleave `DeltaEvent` frames. Every
/// response is encoded into one reused buffer, which goes to the socket in
/// one write when the queue runs empty (or [`WRITE_CHUNK`] bytes pend). An
/// event too large for one frame ends the subscription with an `Error`
/// frame on its `req_id`; the connection keeps being served.
fn writer_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<WorkItem>,
    shared: &Arc<Shared>,
    inflight: &AtomicUsize,
) {
    let mut out: Vec<u8> = Vec::new();
    // An idle connection keeps at most WRITE_CHUNK of buffer, whatever
    // the largest frame it ever sent (a resync delta can be large).
    let send = |out: &mut Vec<u8>| {
        let sent = (&stream).write_all(out).is_ok();
        out.clear();
        out.shrink_to(WRITE_CHUNK);
        sent
    };
    // The subscription's `req_id` and the last epoch delivered to it
    // (None: not subscribed).
    let mut subscribed: Option<(u64, u64)> = None;
    loop {
        let item = match rx.try_recv() {
            Ok(item) => item,
            Err(mpsc::TryRecvError::Empty) => {
                if !out.is_empty() && !send(&mut out) {
                    break;
                }
                if let Some((req_id, last)) = subscribed {
                    let snap = shared.query.wait_for_newer(last, SUBSCRIPTION_TICK);
                    if snap.epoch() > last {
                        let (to_epoch, ev) = match shared.query.changes_since(last) {
                            // The publication raced past between the
                            // wait and the read; pick it up next tick.
                            Changes::UpToDate => continue,
                            Changes::Delta { to_epoch, delta } => (
                                to_epoch,
                                Response::DeltaEvent {
                                    resync: false,
                                    delta,
                                },
                            ),
                            Changes::Resync(full) => (
                                full.epoch(),
                                Response::DeltaEvent {
                                    resync: true,
                                    delta: resync_delta(&full),
                                },
                            ),
                        };
                        subscribed = Some((req_id, to_epoch));
                        if let Err(e) = ev.encode_frame(&mut out) {
                            subscribed = None;
                            let end = Response::Error {
                                req_id,
                                code: ErrorCode::Internal,
                                message: format!("subscription ended: delta event {e}"),
                            };
                            if end.encode_frame(&mut out).is_err() {
                                break;
                            }
                        }
                        if !send(&mut out) {
                            break;
                        }
                    }
                    continue;
                }
                match rx.recv() {
                    Ok(item) => item,
                    Err(_) => break, // reader gone, everything written
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
        let response = match item {
            WorkItem::Ready(r) => r,
            WorkItem::Subscribe { req_id, from_epoch } => {
                subscribed = Some((req_id, from_epoch));
                continue;
            }
            WorkItem::Batch { req_id, ticket } => {
                let outcomes = ticket.wait();
                inflight.fetch_sub(outcomes.len(), Ordering::SeqCst);
                // Every applied update of one caller batch shares its
                // batch's epoch.
                let mut epoch = 0u64;
                let results = outcomes
                    .into_iter()
                    .map(|outcome| match outcome {
                        Ok(c) => {
                            epoch = epoch.max(c.epoch);
                            let (id, seq, epoch) = (c.done.id().raw(), c.seq, c.epoch);
                            match c.done {
                                Done::Inserted(_) => UpdateResult::Inserted { id, seq, epoch },
                                Done::Deleted(_) => UpdateResult::Deleted { id, seq, epoch },
                                Done::AlreadyDeleted(_) => {
                                    UpdateResult::AlreadyDeleted { id, seq, epoch }
                                }
                            }
                        }
                        Err(e) => UpdateResult::Rejected { code: code_of(&e) },
                    })
                    .collect();
                Response::Completion {
                    req_id,
                    epoch,
                    results,
                }
            }
        };
        if response.encode_frame(&mut out).is_err() {
            break;
        }
        if out.len() >= WRITE_CHUNK && !send(&mut out) {
            break;
        }
    }
    if !out.is_empty() {
        send(&mut out);
    }
    // By the time the channel closes the reader has already exited, so the
    // drain below never steals a live frame from it.
    linger_close(&stream);
}

/// Synthesize the full state of `snap` as one delta — the resync payload a
/// subscriber that fell behind the delta ring rebuilds its mirror from.
fn resync_delta(snap: &MatchingSnapshot) -> SnapshotDelta {
    SnapshotDelta {
        inserted: snap.live_edges().collect(),
        matched: snap
            .matched_edges()
            .map(|(e, vs)| (e, vs.clone()))
            .collect(),
        ..SnapshotDelta::empty(0, snap.epoch())
    }
}
