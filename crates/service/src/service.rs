//! The concurrent ingest/serve engine: [`UpdateService`].
//!
//! Many producer threads submit caller batches ([`ServiceHandle::submit_batch`],
//! or single [`Update`]s through [`ServiceHandle::submit`]) through a
//! cloneable [`ServiceHandle`] (an MPSC ingress); one coalescer thread owns
//! the structure, merges whole caller batches into valid mixed batches by
//! group commit (see [`crate::coalesce`]), appends each formed batch to
//! the durable WAL **before** applying it, drives `apply` on a pinned
//! [`ParPool`], and completes each caller batch's one-shot cell with its
//! slice of the [`BatchOutcome`] — the per-update mapping
//! [`BatchOutcome::per_update`] exposes, computed slot-wise here so the
//! hot path never clones the batch.
//!
//! [`BatchOutcome`]: pbdmm_matching::api::BatchOutcome
//! [`BatchOutcome::per_update`]: pbdmm_matching::api::BatchOutcome::per_update

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pbdmm_graph::edge::{EdgeId, EdgeVertices};
use pbdmm_graph::update::{Batch, Update};
use pbdmm_graph::wal::{self, WalMeta};
use pbdmm_matching::api::{BatchDynamic, UpdateError};
use pbdmm_matching::checkpoint::Checkpoint;
use pbdmm_matching::snapshot::Snapshots;
use pbdmm_primitives::obs::{Counter, Phase, ProfileReport, Recorder};
use pbdmm_primitives::pool::ParPool;

use crate::coalesce::{plan_batch, Slot, DEFAULT_MAX_BATCH};
use crate::replay::{
    ckpt_path, list_wal_dir, recover_dir_with, segment_path, Recovery, RecoveryInfo,
};

/// The read side of a serving deployment, returned by
/// [`ServiceBuilder::start_serving`]: the matching crate's cloneable
/// snapshot handle. A snapshot observed after a ticket's `wait()` returned
/// is never older than that ticket's [`Completion::epoch`] (read-your-writes).
///
/// ```
/// use pbdmm_matching::DynamicMatching;
/// use pbdmm_service::ServiceConfig;
///
/// let (svc, query) = ServiceConfig::builder()
///     .start_serving(DynamicMatching::with_seed(7))
///     .unwrap();
/// let c = svc.handle().insert(vec![0, 1]).wait().unwrap();
/// // The batch is already visible: read your writes.
/// assert!(query.epoch() >= c.epoch);
/// let snap = query.snapshot();
/// assert!(snap.is_matched(0) && snap.partner(0) == Some(1));
/// svc.shutdown();
/// ```
pub use pbdmm_matching::snapshot::QueryHandle;

/// Why a single submitted update failed. Per-update: one bad submission
/// never poisons the batch it was coalesced into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The deletion named an id that is not a live edge.
    UnknownEdge(EdgeId),
    /// The insertion's vertex set was empty.
    EmptyEdge,
    /// The whole batch was rejected by the structure (defensive: the
    /// coalescer pre-validates, so this indicates a planner/structure
    /// disagreement).
    Rejected(UpdateError),
    /// The WAL append failed; the batch was **not** applied (write-ahead
    /// durability: no un-logged mutation).
    Wal(String),
    /// The service shut down before this update was applied.
    Closed,
    /// A service thread (the coalescer or the checkpoint writer) could not
    /// be started: the process is out of threads or memory. Only
    /// [`ServiceBuilder`]'s terminals return it.
    Spawn(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownEdge(id) => write!(f, "unknown or dead edge {id}"),
            ServiceError::EmptyEdge => write!(f, "edge with empty vertex set"),
            ServiceError::Rejected(e) => write!(f, "batch rejected: {e}"),
            ServiceError::Wal(e) => write!(f, "WAL append failed: {e}"),
            ServiceError::Closed => write!(f, "service closed"),
            ServiceError::Spawn(e) => write!(f, "cannot start service thread: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a submitted update resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Done {
    /// The insertion was applied and assigned this id.
    Inserted(EdgeId),
    /// The deletion was applied; the edge is gone.
    Deleted(EdgeId),
    /// An earlier update in the same batch already deleted this id; the
    /// edge is gone all the same (idempotent coalesced delete).
    AlreadyDeleted(EdgeId),
}

impl Done {
    /// The edge id this update resolved to.
    pub fn id(&self) -> EdgeId {
        match self {
            Done::Inserted(id) | Done::Deleted(id) | Done::AlreadyDeleted(id) => *id,
        }
    }
}

/// A completed update: what happened, plus the global apply-order sequence
/// number. Sorting the completions whose `done` is [`Done::Inserted`] or
/// [`Done::Deleted`] by `seq` yields a valid linearization: re-applying
/// those updates sequentially in that order reproduces an equivalent state
/// (the property the service's tests check). [`Done::AlreadyDeleted`]
/// completions are *coalesced* updates — they share the `seq` of the delete
/// that held the batch slot and must be skipped when re-applying, since
/// their edge is already gone at that point in the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Position of this update in the service's global apply order.
    /// Coalesced duplicate deletes share the sequence number of the delete
    /// that held the batch slot.
    pub seq: u64,
    /// The epoch at which this update's batch became **visible** on the
    /// snapshot read path (shared by every update of the batch).
    ///
    /// For a service started with [`ServiceBuilder::start_serving`] this is
    /// the *structure's* update count right after the batch applied (the
    /// service captures the structure's pre-existing epoch at start and
    /// offsets by it), and the snapshot carrying this batch is published
    /// *before* the ticket completes — so a reader consulted after
    /// `wait()` returns never observes
    /// `QueryHandle::epoch() < completion.epoch`: read your writes.
    ///
    /// For a plain [`ServiceBuilder::start`] (no read path, so no
    /// `Snapshots` bound to ask the structure through) the base is 0:
    /// epochs then count updates applied *through this service*, which
    /// coincides with the structure's epoch exactly when the structure
    /// started fresh.
    pub epoch: u64,
    /// What the update resolved to.
    pub done: Done,
}

/// One update's outcome, as a ticket returns it.
type Outcome = Result<Completion, ServiceError>;

/// The one-shot completion cell of one caller batch: the coalescer fills
/// it once with one outcome per update, and the submitter's ticket blocks
/// on it until then.
#[derive(Debug, Default)]
struct CompletionCell {
    outcomes: Mutex<Option<Vec<Outcome>>>,
    filled: Condvar,
}

impl CompletionCell {
    fn fill(&self, outcomes: Vec<Outcome>) {
        *self.outcomes.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcomes);
        self.filled.notify_one();
    }

    fn wait(&self) -> Vec<Outcome> {
        let mut guard = self.outcomes.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcomes) = guard.take() {
                return outcomes;
            }
            guard = self.filled.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The coalescer's side of a [`CompletionCell`]: fills it exactly once. Dropped
/// unfilled — the request never reached the coalescer, or the service
/// closed with it still queued — it resolves every update of the caller
/// batch as [`ServiceError::Closed`].
struct Completer {
    cell: Option<Arc<CompletionCell>>,
    len: usize,
}

impl Completer {
    fn complete(mut self, outcomes: Vec<Outcome>) {
        debug_assert_eq!(outcomes.len(), self.len);
        if let Some(cell) = self.cell.take() {
            cell.fill(outcomes);
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.fill(vec![Err(ServiceError::Closed); self.len]);
        }
    }
}

/// The submitter's side of one in-flight caller batch: blocks until the
/// service batch containing it commits (or rejects it), then returns one
/// outcome per update, in the caller's order. The coalescer never splits
/// a caller batch, so all of its applied updates share one epoch.
#[derive(Debug)]
pub struct BatchTicket(Arc<CompletionCell>);

impl BatchTicket {
    /// Block until the caller batch is applied (or rejected / the service
    /// closes); one outcome per submitted update, in submission order.
    pub fn wait(self) -> Vec<Result<Completion, ServiceError>> {
        self.0.wait()
    }
}

/// The submitter's side of one in-flight update: a one-update
/// [`BatchTicket`].
#[derive(Debug)]
pub struct Ticket(BatchTicket);

impl Ticket {
    /// Block until the update is applied (or rejected / the service closes).
    pub fn wait(self) -> Result<Completion, ServiceError> {
        self.0.wait().pop().unwrap_or(Err(ServiceError::Closed))
    }
}

/// One queued caller batch: its updates plus its completion cell.
struct Req {
    ops: Vec<Update>,
    done: Completer,
}

/// What flows through the ingress: caller batches, or the shutdown marker
/// [`UpdateService::shutdown`] enqueues so it never deadlocks on a
/// still-alive [`ServiceHandle`].
enum Msg {
    Batch(Req),
    Shutdown,
}

/// The cloneable producer side of an [`UpdateService`]: submit caller
/// batches (or single updates) from any thread; each returns a ticket.
#[derive(Clone)]
pub struct ServiceHandle {
    tx: mpsc::Sender<Msg>,
}

impl ServiceHandle {
    /// Submit one caller batch: one ingress message, applied whole inside
    /// one service batch (the coalescer may merge it with others but never
    /// splits it). Never blocks (the ingress is unbounded); the returned
    /// ticket resolves, with one outcome per update in `ops` order, when
    /// that batch commits. An empty batch resolves at once, to no outcomes.
    pub fn submit_batch(&self, ops: Vec<Update>) -> BatchTicket {
        let cell = Arc::new(CompletionCell::default());
        let done = Completer {
            cell: Some(Arc::clone(&cell)),
            len: ops.len(),
        };
        // An empty batch is never sent: `done` drops here, filling no
        // outcomes. A refused send hands the request back, and dropping it
        // resolves the batch as `Closed`.
        if !ops.is_empty() {
            let _ = self.tx.send(Msg::Batch(Req { ops, done }));
        }
        BatchTicket(cell)
    }

    /// Submit one update: a one-update caller batch. The returned ticket
    /// resolves when the batch containing the update commits.
    pub fn submit(&self, op: Update) -> Ticket {
        Ticket(self.submit_batch(vec![op]))
    }

    /// Submit an insertion of a hyperedge over `vertices`.
    pub fn insert(&self, vertices: EdgeVertices) -> Ticket {
        self.submit(Update::Insert(vertices))
    }

    /// Submit a deletion of the live edge `id`.
    pub fn delete(&self, id: EdgeId) -> Ticket {
        self.submit(Update::Delete(id))
    }
}

/// One service's counts, returned by [`UpdateService::shutdown`]: its
/// recorder's [`Counter`]s between the service's start and its end (built
/// only by `ServiceStats::between`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Updates applied to the structure (insertions + deletions; excludes
    /// coalesced duplicates and rejects).
    pub updates: u64,
    /// Batches applied.
    pub batches: u64,
    /// Batches closed because they reached `max_batch`.
    pub flush_full: u64,
    /// Batches closed by group commit: the ingress went momentarily empty.
    pub flush_idle: u64,
    /// Batches closed because the service was shutting down (final drain).
    pub flush_close: u64,
    /// Duplicate in-batch deletes coalesced away.
    pub dup_deletes: u64,
    /// Individually rejected updates (unknown id / empty vertex set).
    pub rejected: u64,
    /// Largest batch applied (a high-water mark: on a shared recorder it
    /// includes earlier services' batches).
    pub max_batch_len: usize,
    /// Batches appended to the WAL (0 when no WAL is configured).
    pub wal_batches: u64,
    /// Checkpoints made durable (WAL with a checkpoint interval).
    pub checkpoints: u64,
    /// Checkpoint files the writer thread failed to make durable (the
    /// service keeps running — a missed checkpoint only means recovery
    /// replays a longer tail). Serialization itself cannot fail.
    pub checkpoint_failures: u64,
    /// Old WAL segments deleted by compaction.
    pub wal_segments_removed: u64,
}

impl ServiceStats {
    /// The counts `obs` gathered from `start` until now.
    fn between(start: &ProfileReport, obs: &Recorder) -> Self {
        let d = obs.snapshot().delta(start);
        let c = |counter| d.counter(counter);
        ServiceStats {
            updates: c(Counter::Updates),
            batches: c(Counter::Batches),
            flush_full: c(Counter::FlushFull),
            flush_idle: c(Counter::FlushIdle),
            flush_close: c(Counter::FlushClose),
            dup_deletes: c(Counter::DupDeletes),
            rejected: c(Counter::Rejected),
            max_batch_len: c(Counter::BatchMax) as usize,
            wal_batches: c(Counter::WalBatches),
            checkpoints: c(Counter::Checkpoints),
            checkpoint_failures: c(Counter::CheckpointFailures),
            wal_segments_removed: c(Counter::SegmentsRemoved),
        }
    }

    /// Mean updates per applied batch — the coalescing factor.
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.updates as f64 / self.batches as f64
        }
    }
}

/// Durable-log configuration for an [`UpdateService`]: a segment
/// directory of numbered `NNNNNN.seg` files (each a self-contained WAL
/// whose `# base:` header carries its first batch seq) plus `NNNNNN.ckpt`
/// checkpoints at segment boundaries. Recovery loads the newest intact
/// checkpoint and replays only the tail segments after it. A fresh start
/// refuses a directory that already holds a log: recover from it, or pick
/// another path.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The segment directory (created if missing).
    pub path: PathBuf,
    /// Header metadata — record the structure kind and seed so
    /// [`crate::replay`] can rebuild an identically-seeded instance.
    pub meta: WalMeta,
    /// `fsync` after every appended batch (durability against power loss,
    /// not just process crash). Default `false`: flush to the OS only.
    pub sync: bool,
    /// Take a checkpoint (and rotate the segment) after at least this many
    /// updates. `None` disables rotation — one segment `000000.seg`,
    /// full-replay recovery.
    pub checkpoint_every: Option<u64>,
}

impl WalConfig {
    /// A flush-only (no fsync), overwrite-refusing WAL directory at `path`
    /// with checkpoint/compaction enabled at the default interval (see
    /// [`WalConfig::DEFAULT_CHECKPOINT_EVERY`]).
    pub fn dir(path: impl Into<PathBuf>, meta: WalMeta) -> Self {
        WalConfig {
            path: path.into(),
            meta,
            sync: false,
            checkpoint_every: Some(Self::DEFAULT_CHECKPOINT_EVERY),
        }
    }

    /// Default checkpoint interval for [`WalConfig::dir`], in updates.
    pub const DEFAULT_CHECKPOINT_EVERY: u64 = 65_536;
}

/// Service configuration: batch cap, optional WAL, optional pinned
/// scheduler. Construct through [`ServiceConfig::builder`] — the struct
/// remains public for inspection and for code that stores a config.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The most updates the coalescer merges from several caller batches
    /// (see [`crate::coalesce`]); `0` counts as `1`.
    pub max_batch: usize,
    /// Durable write-ahead log (None: in-memory only).
    pub wal: Option<WalConfig>,
    /// Scheduler every `apply` runs on (None: the process-global pool).
    pub pool: Option<Arc<ParPool>>,
    /// The recorder the coalescer, the checkpoint writer and the structure
    /// (via [`BatchDynamic::set_obs`]) count every event through, and
    /// time phases through when its timing is on (off by default).
    pub obs: Recorder,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch: DEFAULT_MAX_BATCH,
            wal: None,
            pool: None,
            obs: Recorder::disabled(),
        }
    }
}

impl ServiceConfig {
    /// The one construction surface for services: configure the batch
    /// cap, WAL directory, fsync, checkpoint interval, and scheduler, then
    /// call a terminal ([`ServiceBuilder::start`],
    /// [`ServiceBuilder::start_serving`],
    /// [`ServiceBuilder::recover_and_start_serving`], …) to get a running
    /// service — and, for the `serving` terminals, its [`QueryHandle`] — in
    /// one call.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }
}

/// Builder for a running [`UpdateService`]; see [`ServiceConfig::builder`].
///
/// ```
/// use pbdmm_matching::DynamicMatching;
/// use pbdmm_service::ServiceConfig;
///
/// let (svc, query) = ServiceConfig::builder()
///     .start_serving(DynamicMatching::with_seed(7))
///     .unwrap();
/// svc.handle().insert(vec![0, 1]).wait().unwrap();
/// assert!(query.snapshot().is_matched(0));
/// svc.shutdown();
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceBuilder {
    /// Everything but the WAL's fsync and checkpoint settings, which
    /// [`Self::config`] applies last so they are order-independent.
    config: ServiceConfig,
    sync: bool,
    /// `Some(override)` once [`Self::checkpoint_every`] was called;
    /// otherwise the [`WalConfig`]'s interval stands.
    checkpoint_every: Option<Option<u64>>,
}

/// What [`ServiceBuilder::recover_and_start_serving`] yields: the resumed
/// service, the snapshot read handle, and the recovery report.
pub type ServingRecovery<S> = (
    UpdateService<S>,
    QueryHandle<<S as Snapshots>::Snap>,
    RecoveryInfo,
);

impl ServiceBuilder {
    /// Merge at most `n` updates from several caller batches into one
    /// batch (default [`DEFAULT_MAX_BATCH`]; `0` counts as `1`). A single
    /// caller batch is never split, so one larger than `n` is applied
    /// alone and whole; `1` applies every caller batch on its own.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n;
        self
    }

    /// Pin every `apply` to this scheduler (default: process-global pool).
    pub fn pool(mut self, pool: Arc<ParPool>) -> Self {
        self.config.pool = Some(pool);
        self
    }

    /// Attach a [`Recorder`] (default: a fresh one, timing off) for every
    /// count; with timing on it also gets per-batch plan / WAL-append /
    /// apply / complete spans, with settlement and snapshot publication
    /// nested under apply. Snapshot it at any time for the live counts.
    pub fn obs(mut self, obs: Recorder) -> Self {
        self.config.obs = obs;
        self
    }

    /// Log batches to a WAL segment directory with checkpointing and
    /// compaction (see [`WalConfig::dir`]). Recovery loads the newest
    /// intact checkpoint and replays only the tail segments.
    pub fn wal_dir(mut self, path: impl Into<PathBuf>, meta: WalMeta) -> Self {
        self.config.wal = Some(WalConfig::dir(path, meta));
        self
    }

    /// Adopt a fully-specified [`WalConfig`] (escape hatch; its `sync` /
    /// `checkpoint_every` become the builder's).
    pub fn wal(mut self, cfg: WalConfig) -> Self {
        self.sync = cfg.sync;
        self.checkpoint_every = Some(cfg.checkpoint_every);
        self.config.wal = Some(cfg);
        self
    }

    /// `fsync` each appended batch (default off: flush to the OS only).
    /// Order-independent with respect to `wal_dir`.
    pub fn wal_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// Checkpoint + rotate after at least this many updates; `0` disables
    /// checkpointing (one segment `000000.seg`, full-replay recovery).
    /// Default: [`WalConfig::DEFAULT_CHECKPOINT_EVERY`].
    pub fn checkpoint_every(mut self, updates: u64) -> Self {
        self.checkpoint_every = Some((updates > 0).then_some(updates));
        self
    }

    /// The [`ServiceConfig`] this builder currently describes.
    pub fn config(&self) -> ServiceConfig {
        let mut config = self.config.clone();
        if let Some(w) = config.wal.as_mut() {
            w.sync = self.sync;
            if let Some(every) = self.checkpoint_every {
                w.checkpoint_every = every;
            }
        }
        config
    }

    /// Terminal: start the service (write path only).
    pub fn start<S>(self, structure: S) -> Result<UpdateService<S>, ServiceError>
    where
        S: BatchDynamic + Checkpoint + Send + 'static,
    {
        UpdateService::start_inner(structure, self.config(), 0, 0)
    }

    /// Terminal: start the service with the snapshot read path enabled,
    /// returning the running service and its [`QueryHandle`] in one call.
    /// Ordering guarantee as before: a batch's snapshot publishes before
    /// its tickets complete (read-your-writes).
    pub fn start_serving<S>(
        self,
        mut structure: S,
    ) -> Result<(UpdateService<S>, QueryHandle<S::Snap>), ServiceError>
    where
        S: BatchDynamic + Checkpoint + Snapshots + Send + 'static,
    {
        // Capture the pre-service epoch: `seq` numbers count updates
        // applied *through this service*, while epochs count updates ever
        // applied to the structure — they coincide exactly when the
        // structure starts fresh, and differ by this base otherwise.
        let epoch_base = structure.epoch();
        let query = structure.enable_snapshots();
        let svc = UpdateService::start_inner(structure, self.config(), epoch_base, 0)?;
        Ok((svc, query))
    }

    /// Terminal: recover from the configured WAL directory (newest intact
    /// checkpoint + tail segments; see [`crate::replay::recover_dir_with`]),
    /// enable the snapshot read path, and resume appending where the log
    /// left off. An empty or not-yet-created directory starts fresh from
    /// `make()` — so a crash/restart loop needs no first-run special case.
    pub fn recover_and_start_serving<S, F>(
        self,
        make: F,
    ) -> Result<ServingRecovery<S>, ServiceError>
    where
        S: BatchDynamic + Checkpoint + Snapshots + Send + 'static,
        F: FnMut() -> S,
    {
        let (config, mut rec) = self.recover(make)?;
        let info = rec.info();
        let epoch_base = rec.structure.epoch();
        let query = rec.structure.enable_snapshots();
        let svc = UpdateService::start_inner(rec.structure, config, epoch_base, rec.next_seq)?;
        Ok((svc, query, info))
    }

    fn recover<S, F>(&self, mut make: F) -> Result<(ServiceConfig, Recovery<S>), ServiceError>
    where
        S: BatchDynamic + Checkpoint,
        F: FnMut() -> S,
    {
        let config = self.config();
        let Some(wal) = &config.wal else {
            return Err(ServiceError::Wal(
                "recovery requires a WAL directory (ServiceBuilder::wal_dir)".into(),
            ));
        };
        // Missing or empty directory: nothing to recover, start fresh. Any
        // other scan error (the removed sharded layout, say) is fatal:
        // starting fresh would write a new log beside the old history.
        let has_history = match list_wal_dir(&wal.path) {
            Ok(c) => !c.segments.is_empty() || !c.checkpoints.is_empty(),
            Err(_) if !wal.path.exists() => false,
            Err(e) => return Err(ServiceError::Wal(e)),
        };
        if !has_history {
            let rec = Recovery {
                structure: make(),
                checkpoint: None,
                next_seq: 0,
                segments_replayed: 0,
                report: crate::replay::ReplayReport::default(),
                meta: wal.meta.clone(),
                truncated: false,
            };
            return Ok((config, rec));
        }
        // The log's header is checked before a checkpoint loads or a batch
        // replays.
        let make = |logged: &WalMeta| {
            if *logged != wal.meta {
                return Err(format!(
                    "WAL dir metadata mismatch: the log records {logged:?}, the builder \
                     configured {:?} — recovery would resume under the wrong identity",
                    wal.meta
                ));
            }
            Ok(make())
        };
        let rec = recover_dir_with(&wal.path, make, false).map_err(ServiceError::Wal)?;
        Ok((config, rec))
    }
}

/// One checkpoint request: the serialized state after exactly `seq` batches.
struct CkptJob {
    seq: u64,
    payload: Vec<u8>,
}

/// The off-thread checkpoint writer of a [`WalSink`], with its interval.
struct CkptWriter {
    /// Checkpoint (and rotate) after at least this many updates.
    every: u64,
    /// Hands serialized checkpoints to the writer thread.
    tx: mpsc::Sender<CkptJob>,
    join: JoinHandle<()>,
}

/// The write side of the WAL: the current segment of the log directory,
/// buffered, plus the append-before-apply rule. The segment rotates at
/// checkpoint boundaries.
struct WalSink {
    w: std::io::BufWriter<std::fs::File>,
    dir: PathBuf,
    meta: WalMeta,
    sync: bool,
    /// Global batch sequence the next append gets (continues across
    /// segments and, after recovery, across process restarts).
    seq: u64,
    /// `None` when checkpointing is off (interval 0): the log stays one
    /// segment.
    ckpt: Option<CkptWriter>,
    /// Updates appended since the last checkpoint/rotation.
    updates_since_ckpt: u64,
}

impl Drop for WalSink {
    fn drop(&mut self) {
        // Disconnect first so the writer drains its queue and exits, then
        // wait for the in-flight checkpoint to reach disk — shutdown must
        // not race compaction.
        if let Some(CkptWriter { tx, join, .. }) = self.ckpt.take() {
            drop(tx);
            let _ = join.join();
        }
    }
}

impl WalSink {
    /// Open a segment directory for appending, continuing the global batch
    /// sequence at `resume_seq` (0 for a fresh log; the recovered batch
    /// count when the caller just recovered from this directory). A new
    /// segment `resume_seq.seg` is always started: appending to a possibly
    /// torn previous segment is never attempted, and by definition no
    /// committed batch lives at or past `resume_seq`.
    fn open(cfg: &WalConfig, resume_seq: u64, obs: &Recorder) -> Result<Self, ServiceError> {
        let werr = |what: &str, e: std::io::Error| ServiceError::Wal(format!("{what}: {e}"));
        std::fs::create_dir_all(&cfg.path)
            .map_err(|e| werr(&format!("create WAL dir {:?}", cfg.path), e))?;
        let contents = list_wal_dir(&cfg.path).map_err(ServiceError::Wal)?;
        if resume_seq == 0 && (!contents.segments.is_empty() || !contents.checkpoints.is_empty()) {
            return Err(ServiceError::Wal(format!(
                "refusing to overwrite existing WAL dir {:?} — recover from it \
                 (ServiceBuilder::recover*) or pick another path",
                cfg.path
            )));
        }
        let seg_path = segment_path(&cfg.path, resume_seq);
        let file = std::fs::File::create(&seg_path)
            .map_err(|e| werr(&format!("create segment {seg_path:?}"), e))?;
        let mut w = std::io::BufWriter::new(file);
        wal::write_segment_header(&mut w, &cfg.meta, resume_seq)
            .and_then(|()| w.flush())
            .and_then(|()| fsync_dir(&cfg.path))
            .map_err(|e| werr("write segment header", e))?;
        let ckpt = cfg
            .checkpoint_every
            .map(|every| {
                let (tx, rx) = mpsc::channel::<CkptJob>();
                let (dir, obs) = (cfg.path.clone(), obs.clone());
                let join = std::thread::Builder::new()
                    .name("pbdmm-ckpt".into())
                    .spawn(move || checkpoint_writer_loop(dir, rx, obs))
                    .map_err(|e| ServiceError::Spawn(format!("pbdmm-ckpt: {e}")))?;
                Ok(CkptWriter { every, tx, join })
            })
            .transpose()?;
        Ok(WalSink {
            w,
            dir: cfg.path.clone(),
            meta: cfg.meta.clone(),
            sync: cfg.sync,
            seq: resume_seq,
            ckpt,
            updates_since_ckpt: 0,
        })
    }

    /// Post-apply hook: count `updates` toward the checkpoint interval and
    /// — when it is reached — serialize the structure (in memory, on the
    /// coalescer: the one O(n) step of the serving path), rotate to a fresh
    /// segment, and hand the image to the checkpoint writer thread, which
    /// makes it durable and compacts old segments without ever stalling
    /// this thread. Serialization cannot fail; rotation I/O failure is a
    /// real WAL error.
    fn after_apply<S: Checkpoint>(&mut self, s: &S, updates: u64) -> Result<(), ServiceError> {
        let Some(ckpt) = &self.ckpt else {
            return Ok(());
        };
        self.updates_since_ckpt += updates;
        if self.updates_since_ckpt < ckpt.every {
            return Ok(());
        }
        // The payload is the state after exactly `self.seq` batches — the
        // boundary the new segment starts at.
        let mut payload = Vec::new();
        s.write_checkpoint(&mut payload);
        let seg_path = segment_path(&self.dir, self.seq);
        let next = std::fs::File::create(&seg_path)
            .map_err(|e| ServiceError::Wal(format!("rotate to {seg_path:?}: {e}")))?;
        let mut next_w = std::io::BufWriter::new(next);
        wal::write_segment_header(&mut next_w, &self.meta, self.seq)
            .and_then(|()| next_w.flush())
            .and_then(|()| fsync_dir(&self.dir))
            .map_err(|e| ServiceError::Wal(format!("write segment header: {e}")))?;
        // Retire the old segment: everything in it is already flushed per
        // append (and fsynced if `sync`); nothing further is owed to it.
        self.w = next_w;
        self.updates_since_ckpt = 0;
        let _ = ckpt.tx.send(CkptJob {
            seq: self.seq,
            payload,
        });
        Ok(())
    }

    /// Byte offset the next append will start at. The buffer is empty
    /// between appends (every append flushes), so the file length is the
    /// logical end of the log.
    fn mark(&mut self) -> Result<u64, ServiceError> {
        self.w
            .get_ref()
            .metadata()
            .map(|md| md.len())
            .map_err(|e| ServiceError::Wal(format!("stat WAL: {e}")))
    }

    /// Undo the most recent append: truncate the file back to `mark` and
    /// rewind the sequence counter. Used when the batch that was just
    /// logged could not be applied — the log must match the applied state
    /// exactly, or replay would reconstruct a phantom batch.
    fn rollback(&mut self, mark: u64) -> Result<(), ServiceError> {
        use std::io::Seek;
        self.w
            .get_ref()
            .set_len(mark)
            .and_then(|()| self.w.get_mut().seek(std::io::SeekFrom::Start(mark)))
            .map_err(|e| ServiceError::Wal(format!("rollback batch {}: {e}", self.seq - 1)))?;
        self.seq -= 1;
        Ok(())
    }

    /// Append one batch and make it durable (flush, optionally fsync)
    /// *before* the caller applies it.
    fn append(&mut self, batch: &Batch) -> Result<(), ServiceError> {
        wal::write_batch(&mut self.w, self.seq, batch)
            .and_then(|()| self.w.flush())
            .map_err(|e| ServiceError::Wal(format!("append batch {}: {e}", self.seq)))?;
        if self.sync {
            self.w
                .get_ref()
                .sync_data()
                .map_err(|e| ServiceError::Wal(format!("fsync batch {}: {e}", self.seq)))?;
        }
        self.seq += 1;
        Ok(())
    }
}

/// Fsync a directory so renames/creations inside it are durable.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_data()
}

/// The checkpoint writer thread: makes each serialized checkpoint durable
/// (tmp → fsync → rename → fsync dir) and then compacts the directory —
/// all off the coalescer, so the hot path never waits on checkpoint I/O.
/// Exits when the coalescer drops its sender (and drains first, so the
/// final checkpoint of a run still lands).
fn checkpoint_writer_loop(dir: PathBuf, rx: mpsc::Receiver<CkptJob>, obs: Recorder) {
    while let Ok(mut job) = rx.recv() {
        // If the coalescer outran us, only the newest pending checkpoint
        // matters — the ones in between are superseded before they ever
        // reach disk.
        while let Ok(newer) = rx.try_recv() {
            job = newer;
        }
        match write_checkpoint_file(&dir, job.seq, &job.payload) {
            Ok(()) => {
                obs.add(Counter::Checkpoints, 1);
                // Compaction failure is not fatal: the files retry after
                // the next checkpoint, and recovery works regardless.
                if let Ok(removed) = compact_dir(&dir) {
                    obs.add(Counter::SegmentsRemoved, removed);
                }
            }
            Err(_) => obs.add(Counter::CheckpointFailures, 1),
        }
    }
}

/// Durably install one checkpoint file: write to a `.tmp` sibling, fsync,
/// rename into place, fsync the directory. A crash anywhere in this
/// sequence leaves either no `NNNNNN.ckpt` or a complete one — recovery
/// additionally verifies the image's length and checksum, so even a
/// non-atomic rename cannot smuggle in a torn checkpoint.
fn write_checkpoint_file(dir: &Path, seq: u64, payload: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{seq:06}.ckpt.tmp"));
    let dst = ckpt_path(dir, seq);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(payload)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &dst)?;
    fsync_dir(dir)
}

/// Delete log history a retained checkpoint makes redundant. Keeps the two
/// newest checkpoints (the newest plus one fallback in case the newest is
/// later found torn), then deletes every segment fully covered by the
/// *older* retained checkpoint — a segment is dead once its successor's
/// base is ≤ that checkpoint's sequence, because recovery will never
/// replay batches below it. The newest segment (the active tail) is never
/// deleted. Returns the number of segments removed.
fn compact_dir(dir: &Path) -> std::io::Result<u64> {
    let contents =
        list_wal_dir(dir).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let ckpts = &contents.checkpoints;
    if ckpts.len() > 2 {
        for (_, path) in &ckpts[..ckpts.len() - 2] {
            std::fs::remove_file(path)?;
        }
    }
    let Some(&(floor, _)) = ckpts.iter().rev().take(2).next_back() else {
        return Ok(0);
    };
    let mut removed = 0u64;
    for pair in contents.segments.windows(2) {
        let (_, path) = &pair[0];
        let (successor_base, _) = pair[1];
        if successor_base <= floor {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    if removed > 0 || ckpts.len() > 2 {
        fsync_dir(dir)?;
    }
    Ok(removed)
}

/// A batch-coalescing update service over any [`BatchDynamic`] structure.
///
/// See the [crate docs](crate) for the full lifecycle; in short:
///
/// ```
/// use pbdmm_matching::DynamicMatching;
/// use pbdmm_service::ServiceConfig;
///
/// let svc = ServiceConfig::builder().start(DynamicMatching::with_seed(7)).unwrap();
/// let h = svc.handle();
/// let t1 = h.insert(vec![0, 1]);
/// let t2 = h.insert(vec![1, 2]);
/// let id = t1.wait().unwrap().done.id();
/// t2.wait().unwrap();
/// h.delete(id).wait().unwrap();
/// let (m, stats) = svc.shutdown();
/// assert_eq!(m.num_edges(), 1);
/// assert_eq!(stats.updates, 3);
/// ```
pub struct UpdateService<S: BatchDynamic + Send + 'static> {
    tx: Option<mpsc::Sender<Msg>>,
    join: Option<JoinHandle<(S, ServiceStats)>>,
}

impl<S: BatchDynamic + Checkpoint + Send + 'static> UpdateService<S> {
    /// Spawn the coalescer thread, which takes ownership of `structure`
    /// (get it back from [`Self::shutdown`]). Fails if the WAL cannot be
    /// opened or a service thread cannot be started.
    fn start_inner(
        mut structure: S,
        config: ServiceConfig,
        epoch_base: u64,
        resume_seq: u64,
    ) -> Result<Self, ServiceError> {
        // The structure shares the service's recorder, so settlement and
        // snapshot-publication spans nest under the coalescer's apply span.
        structure.set_obs(config.obs.clone());
        // This service's counts are the recorder's from here on.
        let start = config.obs.snapshot();
        let wal_sink = config
            .wal
            .as_ref()
            .map(|cfg| WalSink::open(cfg, resume_seq, &config.obs))
            .transpose()?;
        let (tx, rx) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name("pbdmm-coalescer".into())
            .spawn(move || coalescer_loop(structure, config, wal_sink, rx, epoch_base, start))
            .map_err(|e| ServiceError::Spawn(format!("pbdmm-coalescer: {e}")))?;
        Ok(UpdateService {
            tx: Some(tx),
            join: Some(join),
        })
    }
}

impl<S: BatchDynamic + Send + 'static> UpdateService<S> {
    /// A new producer handle. Handles are cheap to clone and `Send`; the
    /// coalescer drains until every handle (and the service itself) is gone.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            tx: self.tx.clone().expect("service not shut down"),
        }
    }

    /// Stop the service: everything already queued (including updates
    /// racing in from still-alive [`ServiceHandle`] clones) is drained,
    /// batched, and completed, then the coalescer exits and the structure
    /// and run statistics come back. Does **not** require outstanding
    /// handles to be dropped first — a shutdown marker flows through the
    /// ingress, and tickets submitted after it resolve with
    /// [`ServiceError::Closed`].
    pub fn shutdown(mut self) -> (S, ServiceStats) {
        let tx = self.tx.take().expect("service not shut down");
        let _ = tx.send(Msg::Shutdown);
        drop(tx);
        self.join
            .take()
            .expect("service not shut down")
            .join()
            .expect("coalescer thread panicked")
    }
}

/// The coalescer: drain → plan → WAL → apply → complete, until the ingress
/// disconnects (every handle and the service dropped) or the shutdown
/// marker arrives and the backlog queued ahead of it is flushed.
fn coalescer_loop<S: BatchDynamic + Checkpoint>(
    mut s: S,
    config: ServiceConfig,
    mut wal: Option<WalSink>,
    rx: mpsc::Receiver<Msg>,
    epoch_base: u64,
    start: ProfileReport,
) -> (S, ServiceStats) {
    let max_batch = config.max_batch.max(1);
    let obs = config.obs.clone();
    let mut next_seq: u64 = 0;
    // Once the shutdown marker is seen, stop blocking for new work and just
    // drain whatever is already queued.
    let mut closing = false;
    // The ingress is disconnected, or drained after the shutdown marker:
    // nothing more will be received.
    let mut closed = false;
    // A caller batch that did not fit in the previous batch: it opens the
    // next one, so FIFO order holds and nothing received is ever dropped.
    let mut carry: Option<Req> = None;
    // Set on the first WAL append failure: the durability contract ("an
    // acknowledged update is on the log") can no longer be met, so the
    // service fail-stops — every subsequent update is refused with the
    // original error instead of being applied un-logged.
    let mut wal_wedged: Option<ServiceError> = None;
    loop {
        // --- Drain one batch's worth of whole caller batches.
        let mut drain = Drain::new(max_batch);
        if let Some(r) = carry.take() {
            drain.admit(r);
        }
        // Block for the first caller batch (unless already closing).
        while drain.reqs.is_empty() && !closed {
            let first = if closing {
                rx.try_recv().map_err(|_| ())
            } else {
                rx.recv().map_err(|_| ())
            };
            match first {
                Ok(Msg::Batch(r)) => drain.admit(r),
                Ok(Msg::Shutdown) => closing = true,
                Err(()) => closed = true,
            }
        }
        if drain.reqs.is_empty() {
            break;
        }
        // Group commit: take everything already queued.
        while !drain.full() && !closed {
            match rx.try_recv() {
                Ok(Msg::Batch(r)) => drain.admit(r),
                Ok(Msg::Shutdown) => closing = true,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => closed = true,
            }
        }
        let cause = if closed || closing {
            Counter::FlushClose
        } else if drain.full() {
            Counter::FlushFull
        } else {
            Counter::FlushIdle
        };
        obs.add(cause, 1);
        carry = drain.carry.take();
        let reqs = drain.reqs;

        // Fail-stopped: refuse everything drained without applying.
        if let Some(e) = &wal_wedged {
            for r in reqs {
                let n = r.ops.len();
                r.done.complete(vec![Err(e.clone()); n]);
            }
            continue;
        }

        // Busy span: everything from planning to the last completion —
        // the per-batch processing cost, excluding the blocking wait for
        // the first caller batch above (idle time, not work).
        let _batch_span = obs.span(Phase::Batch);

        // --- Plan: conflict resolution per the apply contract ------------
        let plan_span = obs.span(Phase::Plan);
        // Concatenate the caller batches in arrival order (moving each
        // update), keeping each one's cell for completion.
        let mut ops: Vec<Update> = Vec::new();
        let mut callers: Vec<Completer> = Vec::with_capacity(reqs.len());
        for Req { ops: mut o, done } in reqs {
            callers.push(done);
            if ops.is_empty() {
                ops = o;
            } else {
                ops.append(&mut o);
            }
        }
        let plan = plan_batch(ops, |id| s.contains_edge(id));
        // The batch's delete prefix, for slot → completion mapping below.
        let delete_ids: Vec<EdgeId> = plan
            .batch
            .iter()
            .map_while(|u| match u {
                Update::Delete(id) => Some(*id),
                Update::Insert(_) => None,
            })
            .collect();
        let num_deletes = delete_ids.len();
        let slots = plan.slots;
        // Individually invalid updates resolve as rejected whatever the
        // batch's fate: a later WAL/apply failure must not repaint them as
        // durability errors.
        let rejected = slots
            .iter()
            .filter(|s| matches!(s, Slot::RejectUnknown(_) | Slot::RejectEmpty))
            .count();
        obs.add(Counter::Rejected, rejected as u64);
        drop(plan_span);

        // Resolve every caller batch's cell at once: `fate` is the
        // committed batch's outcome, or the error that kept it from
        // committing.
        let complete = |callers: Vec<Completer>, fate: Result<Commit, &ServiceError>| {
            let mut slots = slots.iter();
            for done in callers {
                let outcomes = slots
                    .by_ref()
                    .take(done.len)
                    .map(|&slot| match (slot, &fate) {
                        (Slot::RejectUnknown(id), _) => Err(ServiceError::UnknownEdge(id)),
                        (Slot::RejectEmpty, _) => Err(ServiceError::EmptyEdge),
                        (_, Err(e)) => Err((*e).clone()),
                        (Slot::InBatch(pos), Ok(c)) => Ok(Completion {
                            seq: c.base + pos as u64,
                            epoch: c.epoch,
                            done: if pos < num_deletes {
                                Done::Deleted(delete_ids[pos])
                            } else {
                                Done::Inserted(c.inserted[pos - num_deletes])
                            },
                        }),
                        (Slot::DuplicateDelete(pos), Ok(c)) => Ok(Completion {
                            seq: c.base + pos as u64,
                            epoch: c.epoch,
                            done: Done::AlreadyDeleted(delete_ids[pos]),
                        }),
                    })
                    .collect();
                done.complete(outcomes);
            }
        };

        // --- WAL: append-before-apply -------------------------------------
        // Log end before this append, so a failed apply can roll the
        // phantom batch back out of the log.
        let wal_span = obs.span(Phase::WalAppend);
        let mut wal_mark: Option<u64> = None;
        if !plan.batch.is_empty() {
            if let Some(sink) = wal.as_mut() {
                // Durability contract: an un-logged batch must not be
                // applied — and once the log is wedged no later batch can
                // be made durable either, so the service fail-stops: this
                // drain and every subsequent update are refused with the
                // WAL error (acknowledged state stays exactly the
                // replayable committed prefix).
                let appended = sink.mark().and_then(|m| {
                    wal_mark = Some(m);
                    sink.append(&plan.batch)
                });
                if let Err(e) = appended {
                    complete(callers, Err(&e));
                    wal = None;
                    wal_wedged = Some(e);
                    continue;
                }
            }
        }
        drop(wal_span);

        // --- Apply on the pinned scheduler --------------------------------
        let apply_span = obs.span(Phase::Apply);
        let batch_len = plan.batch.len();
        let inserted = if plan.batch.is_empty() {
            Vec::new()
        } else {
            let batch = plan.batch;
            let result = match &config.pool {
                Some(pool) => pool.install(|| s.apply(batch)),
                None => s.apply(batch),
            };
            match result {
                Ok(out) => out.inserted,
                Err(e) => {
                    // Planner and structure disagreed (should not happen):
                    // the structure is untouched. The batch is already on
                    // the log though — roll it back out so replay never
                    // reconstructs a batch that was not applied; if the
                    // rollback itself fails, the log is lying and the
                    // service must fail-stop.
                    if let (Some(sink), Some(mark)) = (wal.as_mut(), wal_mark) {
                        if let Err(werr) = sink.rollback(mark) {
                            wal = None;
                            wal_wedged = Some(werr);
                        }
                    }
                    complete(callers, Err(&ServiceError::Rejected(e)));
                    continue;
                }
            }
        };
        drop(apply_span);

        // The batch is durable and applied: it counts as a WAL batch now.
        if wal_mark.is_some() {
            obs.add(Counter::WalBatches, 1);
        }

        // --- Complete each caller batch with its BatchOutcome slice -------
        // Slot `pos` maps into the outcome exactly as `per_update` would:
        // positions below `num_deletes` are the delete prefix, the rest
        // line up with the inserted ids in batch order.
        let complete_span = obs.span(Phase::Complete);
        let base = next_seq;
        if batch_len > 0 {
            obs.add(Counter::Batches, 1);
            obs.add(Counter::Updates, batch_len as u64);
            obs.record_max(Counter::BatchMax, batch_len as u64);
        }
        next_seq += batch_len as u64;
        let dup_deletes = slots
            .iter()
            .filter(|s| matches!(s, Slot::DuplicateDelete(_)))
            .count();
        obs.add(Counter::DupDeletes, dup_deletes as u64);
        // The epoch at which this whole batch became visible: the
        // structure's update count right after the apply — which is also
        // the epoch the snapshot published inside `apply` carries, so
        // completing the cells *after* this point is what makes
        // read-your-writes hold.
        complete(
            callers,
            Ok(Commit {
                base,
                epoch: epoch_base + next_seq,
                inserted: &inserted,
            }),
        );
        drop(complete_span);

        // --- Checkpoint boundary ------------------------------------------
        // Fold the batch into the checkpoint interval, rotating and
        // scheduling a checkpoint at the boundary — after completion, so
        // the callers of the batch that crosses the interval do not wait
        // out the serialization. A rotation failure wedges the WAL like
        // any other log I/O failure, but only for *later* batches: this
        // one is already committed and completed.
        if batch_len > 0 {
            if let Some(sink) = wal.as_mut() {
                if let Err(e) = sink.after_apply(&s, batch_len as u64) {
                    wal = None;
                    wal_wedged = Some(e);
                }
            }
        }
    }
    // Dropping the sink disconnects the checkpoint writer, which drains its
    // queue (so a final in-flight checkpoint still lands) and is joined —
    // only then are the checkpoint counters final.
    drop(wal);
    (s, ServiceStats::between(&start, &obs))
}

/// One batch's worth of whole caller batches, in arrival order.
struct Drain {
    reqs: Vec<Req>,
    /// Updates in `reqs`.
    total: usize,
    /// The most updates merged from several caller batches.
    max_batch: usize,
    /// The first caller batch that did not fit: it opens the next batch.
    carry: Option<Req>,
}

impl Drain {
    fn new(max_batch: usize) -> Self {
        Drain {
            reqs: Vec::new(),
            total: 0,
            max_batch,
            carry: None,
        }
    }

    /// Take caller batch `r` whole if it fits within `max_batch` (the
    /// first one always does, however large), else carry it.
    fn admit(&mut self, r: Req) {
        if self.reqs.is_empty() || self.total + r.ops.len() <= self.max_batch {
            self.total += r.ops.len();
            self.reqs.push(r);
        } else {
            self.carry = Some(r);
        }
    }

    /// No further caller batch can join.
    fn full(&self) -> bool {
        self.total >= self.max_batch || self.carry.is_some()
    }
}

/// A committed batch, as its callers' completions need it.
struct Commit<'a> {
    /// Sequence number of the batch's first update.
    base: u64,
    /// The epoch at which the batch became visible.
    epoch: u64,
    /// The ids the batch's insertions got, in batch order.
    inserted: &'a [EdgeId],
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbdmm_matching::verify::check_invariants;
    use pbdmm_matching::DynamicMatching;
    use std::time::Duration;

    /// A service with the default settings over a fresh matching.
    fn start(seed: u64) -> UpdateService<DynamicMatching> {
        ServiceConfig::builder()
            .start(DynamicMatching::with_seed(seed))
            .unwrap()
    }

    #[test]
    fn insert_then_delete_through_tickets() {
        let svc = start(1);
        let h = svc.handle();
        let tickets: Vec<Ticket> = (0..8).map(|v| h.insert(vec![v, v + 1])).collect();
        let ids: Vec<EdgeId> = tickets
            .into_iter()
            .map(|t| match t.wait().unwrap().done {
                Done::Inserted(id) => id,
                other => panic!("expected insert, got {other:?}"),
            })
            .collect();
        assert_eq!(ids.len(), 8);
        for &id in &ids[..4] {
            assert!(matches!(
                h.delete(id).wait().unwrap().done,
                Done::Deleted(d) if d == id
            ));
        }
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 4);
        assert_eq!(stats.updates, 12);
        assert_eq!(stats.dup_deletes + stats.rejected, 0);
        check_invariants(&m).unwrap();
    }

    #[test]
    fn coalesced_duplicate_deletes_resolve_idempotently() {
        let dir = temp_wal_dir("pbdmm_svc_dup_deletes");
        let obs = Recorder::disabled();
        let svc = ServiceConfig::builder()
            .obs(obs.clone())
            .wal_dir(&dir, meta(2))
            .checkpoint_every(1)
            .start(DynamicMatching::with_seed(2))
            .unwrap();
        let h = svc.handle();
        let id = h.insert(vec![0, 1]).wait().unwrap().done.id();
        // One caller batch is one service batch: of its two deletes of
        // `id`, one wins the slot and one is deduplicated.
        let deletes = vec![
            Update::Delete(id),
            Update::Delete(id),
            Update::Delete(EdgeId(999)),
        ];
        let outs = h.submit_batch(deletes).wait();
        let (c1, c2) = (outs[0].as_ref().unwrap(), outs[1].as_ref().unwrap());
        assert_eq!(c1.done, Done::Deleted(id));
        assert_eq!(c2.done, Done::AlreadyDeleted(id));
        // The duplicate shares the winner's apply-order position.
        assert_eq!(c1.seq, c2.seq);
        assert_eq!(outs[2], Err(ServiceError::UnknownEdge(EdgeId(999))));
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 0);
        assert_eq!(stats.dup_deletes, 1);
        assert_eq!((stats.updates, stats.rejected), (2, 1));
        assert_eq!(stats.wal_batches, stats.batches);
        assert!(stats.checkpoints >= 1, "{stats:?}");

        // Every field is its counter: the recorder saw only this service.
        let r = obs.snapshot();
        let fields = [
            (stats.updates, Counter::Updates),
            (stats.batches, Counter::Batches),
            (stats.flush_full, Counter::FlushFull),
            (stats.flush_idle, Counter::FlushIdle),
            (stats.flush_close, Counter::FlushClose),
            (stats.dup_deletes, Counter::DupDeletes),
            (stats.rejected, Counter::Rejected),
            (stats.max_batch_len as u64, Counter::BatchMax),
            (stats.wal_batches, Counter::WalBatches),
            (stats.checkpoints, Counter::Checkpoints),
            (stats.checkpoint_failures, Counter::CheckpointFailures),
            (stats.wal_segments_removed, Counter::SegmentsRemoved),
        ];
        for (field, counter) in fields {
            assert_eq!(field, r.counter(counter), "{}", counter.name());
        }

        // A second service on the same recorder reports only its own sums.
        let svc = ServiceConfig::builder()
            .obs(obs.clone())
            .start(DynamicMatching::with_seed(3))
            .unwrap();
        svc.handle().insert(vec![4, 5]).wait().unwrap();
        let (_, second) = svc.shutdown();
        assert_eq!((second.updates, second.batches), (1, 1));
        assert_eq!((second.dup_deletes, second.rejected), (0, 0));
        assert_eq!((second.wal_batches, second.checkpoints), (0, 0));
        assert_eq!(obs.snapshot().counter(Counter::Updates), stats.updates + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_updates_are_rejected_individually() {
        let svc = start(3);
        let h = svc.handle();
        let good = h.insert(vec![0, 1]);
        let empty = h.insert(vec![]);
        let unknown = h.delete(EdgeId(999));
        assert!(good.wait().is_ok());
        assert_eq!(empty.wait(), Err(ServiceError::EmptyEdge));
        assert_eq!(unknown.wait(), Err(ServiceError::UnknownEdge(EdgeId(999))));
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 1);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.updates, 1);
    }

    #[test]
    fn shutdown_drains_backlog_and_closes_later_submits() {
        let svc = start(4);
        let h = svc.handle();
        let pre = h.insert(vec![0, 1]);
        // Shutdown with the handle still alive: everything queued before the
        // marker is applied, and the call does not deadlock.
        let (m, stats) = svc.shutdown();
        assert!(matches!(pre.wait().unwrap().done, Done::Inserted(_)));
        assert_eq!(m.num_edges(), 1);
        assert_eq!(stats.updates, 1);
        // Submissions after shutdown resolve with Closed.
        assert_eq!(h.insert(vec![2, 3]).wait(), Err(ServiceError::Closed));
        assert_eq!(h.delete(EdgeId(0)).wait(), Err(ServiceError::Closed));
    }

    #[test]
    fn singleton_policy_applies_one_update_per_batch() {
        let svc = ServiceConfig::builder()
            .max_batch(1)
            .start(DynamicMatching::with_seed(5))
            .unwrap();
        let h = svc.handle();
        for v in 0..6u32 {
            h.insert(vec![v, v + 1]).wait().unwrap();
        }
        drop(h);
        let (_, stats) = svc.shutdown();
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.max_batch_len, 1);
        assert!((stats.mean_batch_len() - 1.0).abs() < 1e-9);
    }

    /// `n` insertions over fresh vertex pairs, numbered from `base`.
    fn inserts(base: u32, n: u32) -> Vec<Update> {
        (0..n)
            .map(|i| Update::Insert(vec![base + 2 * i, base + 2 * i + 1]))
            .collect()
    }

    #[test]
    fn caller_batches_stay_whole_and_ordered_among_singletons() {
        let svc = start(13);
        // Force the ingress order A0, B0, A1, B1, …: producer A submits a
        // caller batch, then producer B a singleton, in lockstep.
        let step = std::sync::Barrier::new(2);
        let (batches, singles) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let h = svc.handle();
                let mut tickets = Vec::new();
                for k in 0..4u32 {
                    tickets.push(h.submit_batch(inserts(1000 * k, 64)));
                    step.wait();
                    step.wait();
                }
                tickets
            });
            let b = scope.spawn(|| {
                let h = svc.handle();
                let mut tickets = Vec::new();
                for k in 0..4u32 {
                    step.wait();
                    tickets.push(h.insert(vec![100_000 + 2 * k, 100_001 + 2 * k]));
                    step.wait();
                }
                tickets
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        let mut next_seq = 0;
        for (batch, single) in batches.into_iter().zip(singles) {
            let outs: Vec<Completion> = batch.wait().into_iter().map(Result::unwrap).collect();
            assert_eq!(outs.len(), 64);
            for (i, c) in outs.iter().enumerate() {
                assert!(matches!(c.done, Done::Inserted(_)), "{c:?}");
                // Contiguous seqs in caller order, right after the previous
                // producer's update: nothing was merged into the middle.
                assert_eq!(c.seq, next_seq + i as u64);
                assert_eq!(c.epoch, outs[0].epoch, "one caller batch, one epoch");
            }
            let single = single.wait().unwrap();
            assert_eq!(single.seq, next_seq + 64);
            next_seq += 65;
        }
        // A mixed caller batch resolves in caller order, not batch order
        // (the planner moves its deletes to the front).
        let h = svc.handle();
        let ids: Vec<EdgeId> = h
            .submit_batch(inserts(200_000, 3))
            .wait()
            .into_iter()
            .map(|o| o.unwrap().done.id())
            .collect();
        let mixed = vec![
            Update::Insert(vec![300_000, 300_001]),
            Update::Delete(ids[2]),
            Update::Insert(vec![]),
            Update::Delete(ids[0]),
            Update::Delete(ids[2]),
        ];
        let outs = h.submit_batch(mixed).wait();
        assert!(matches!(
            outs[0],
            Ok(Completion {
                done: Done::Inserted(_),
                ..
            })
        ));
        assert_eq!(outs[1].as_ref().unwrap().done, Done::Deleted(ids[2]));
        assert_eq!(outs[2], Err(ServiceError::EmptyEdge));
        assert_eq!(outs[3].as_ref().unwrap().done, Done::Deleted(ids[0]));
        assert_eq!(outs[4].as_ref().unwrap().done, Done::AlreadyDeleted(ids[2]));
        assert_eq!(outs[4].as_ref().unwrap().seq, outs[1].as_ref().unwrap().seq);
        drop(h);
        let (m, _) = svc.shutdown();
        assert_eq!(m.num_edges(), 4 * 65 + 3 - 2 + 1);
        check_invariants(&m).unwrap();
    }

    #[test]
    fn singleton_policy_applies_a_caller_batch_whole() {
        let svc = ServiceConfig::builder()
            .max_batch(1)
            .start(DynamicMatching::with_seed(14))
            .unwrap();
        let outs = svc.handle().submit_batch(inserts(0, 10)).wait();
        let epochs: Vec<u64> = outs.iter().map(|o| o.as_ref().unwrap().epoch).collect();
        assert_eq!(epochs, vec![10; 10]);
        let (_, stats) = svc.shutdown();
        assert_eq!((stats.batches, stats.max_batch_len), (1, 10));
    }

    /// Caller batches that overflow `max_batch` in every way: pairs that
    /// do not fit together, and one larger than `max_batch` on its own.
    fn overflowing_backlog(h: &ServiceHandle) -> Vec<BatchTicket> {
        let mut tickets: Vec<BatchTicket> = (0..5)
            .map(|k| h.submit_batch(inserts(100 * k, 3)))
            .collect();
        tickets.push(h.submit_batch(inserts(1000, 10)));
        tickets
    }

    fn all_inserted(tickets: Vec<BatchTicket>) -> Vec<u64> {
        let mut seqs = Vec::new();
        for t in tickets {
            for o in t.wait() {
                let c = o.expect("every queued caller batch is applied");
                assert!(matches!(c.done, Done::Inserted(_)));
                seqs.push(c.seq);
            }
        }
        seqs
    }

    #[test]
    fn shutdown_applies_a_backlog_that_overflows_max_batch() {
        // Through `shutdown`, with a handle still alive.
        let svc = ServiceConfig::builder()
            .max_batch(4)
            .start(DynamicMatching::with_seed(15))
            .unwrap();
        let h = svc.handle();
        let tickets = overflowing_backlog(&h);
        let (m, stats) = svc.shutdown();
        assert_eq!(all_inserted(tickets), (0..25).collect::<Vec<u64>>());
        assert_eq!(m.num_edges(), 25);
        assert_eq!((stats.batches, stats.max_batch_len), (6, 10));

        // After every handle and the service itself are dropped: the
        // coalescer sees the ingress disconnect and still applies all.
        let svc = ServiceConfig::builder()
            .max_batch(4)
            .start(DynamicMatching::with_seed(15))
            .unwrap();
        let tickets = overflowing_backlog(&svc.handle());
        drop(svc);
        assert_eq!(all_inserted(tickets), (0..25).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_tickets_after_shutdown_resolve_closed() {
        let svc = start(16);
        let h = svc.handle();
        svc.shutdown();
        let outs = h.submit_batch(inserts(0, 3)).wait();
        assert_eq!(outs, vec![Err(ServiceError::Closed); 3]);
        assert!(h.submit_batch(Vec::new()).wait().is_empty());
    }

    #[test]
    fn an_empty_caller_batch_resolves_to_no_outcomes() {
        let svc = start(17);
        assert!(svc.handle().submit_batch(Vec::new()).wait().is_empty());
        let (_, stats) = svc.shutdown();
        assert_eq!((stats.batches, stats.updates), (0, 0));
    }

    #[test]
    fn query_handle_reads_latest_epoch_and_state() {
        let (svc, q) = ServiceConfig::builder()
            .start_serving(DynamicMatching::with_seed(8))
            .unwrap();
        assert_eq!(q.epoch(), 0);
        assert_eq!(q.snapshot().num_edges(), 0);
        let h = svc.handle();
        let c = h.insert(vec![0, 1]).wait().unwrap();
        // Read-your-writes: the batch's snapshot was published before the
        // ticket completed.
        assert!(q.epoch() >= c.epoch);
        let snap = q.snapshot();
        assert!(snap.contains_edge(c.done.id()));
        assert!(snap.is_matched(0));
        assert_eq!(snap.partner(0), Some(1));
        snap.check_consistency().unwrap();

        let c2 = h.delete(c.done.id()).wait().unwrap();
        assert!(c2.epoch > c.epoch);
        assert!(!q.snapshot().contains_edge(c.done.id()));
        // The old snapshot is immutable: still shows the edge.
        assert!(snap.contains_edge(c.done.id()));
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(stats.updates, 2);
        assert_eq!(pbdmm_matching::snapshot::Snapshots::epoch(&m), 2);
        // The handle outlives the service; it serves the final state.
        assert_eq!(q.epoch(), 2);
    }

    #[test]
    fn wait_for_newer_observes_batches_as_they_publish() {
        let (svc, q) = ServiceConfig::builder()
            .start_serving(DynamicMatching::with_seed(12))
            .unwrap();
        let h = svc.handle();
        // Timeout path: nothing newer than epoch 0 exists yet.
        let snap = q.wait_for_newer(0, Duration::from_millis(5));
        assert_eq!(snap.epoch(), 0);
        // Subscription path: a waiter blocked on epoch 0 wakes when the
        // first batch publishes, and read-your-writes pins its view.
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.wait_for_newer(0, Duration::from_secs(60)))
        };
        let c = h.insert(vec![0, 1]).wait().unwrap();
        let snap = waiter.join().unwrap();
        assert!(snap.epoch() >= 1);
        assert!(snap.epoch() <= c.epoch);
        drop(h);
        svc.shutdown();
    }

    #[test]
    fn completion_epochs_are_batch_visibility_points() {
        // Singleton batches: each update's epoch is its seq + 1 (visible
        // right after its own one-update batch).
        let (svc, q) = ServiceConfig::builder()
            .max_batch(1)
            .start_serving(DynamicMatching::with_seed(9))
            .unwrap();
        let h = svc.handle();
        for v in 0..5u32 {
            let c = h.insert(vec![v, v + 1]).wait().unwrap();
            assert_eq!(c.epoch, c.seq + 1);
            assert!(q.epoch() >= c.epoch);
        }
        drop(h);
        svc.shutdown();
    }

    #[test]
    fn epoch_base_offsets_a_non_fresh_structure() {
        // A structure that already applied updates before serving: seq
        // numbers still start at 0, epochs continue from the structure's
        // history, and read-your-writes holds throughout.
        let mut m = DynamicMatching::with_seed(10);
        let pre = m.insert_edges(&[vec![0, 1], vec![2, 3]]);
        let (svc, q) = ServiceConfig::builder().start_serving(m).unwrap();
        assert_eq!(q.epoch(), 2);
        assert!(q.snapshot().contains_edge(pre[0]));
        let c = svc.handle().insert(vec![4, 5]).wait().unwrap();
        assert_eq!(c.seq, 0, "seq space is the service's own");
        assert_eq!(c.epoch, 3, "epoch space is the structure's history");
        assert!(q.epoch() >= c.epoch);
        svc.shutdown();
    }

    fn temp_wal_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn meta(seed: u64) -> WalMeta {
        WalMeta {
            structure: "matching".into(),
            seed,
            ids_recycling: false,
        }
    }

    #[test]
    fn segmented_wal_checkpoints_and_recovers() {
        let dir = temp_wal_dir("pbdmm_svc_seg_rotate");
        let svc = ServiceConfig::builder()
            .max_batch(1)
            .wal_dir(&dir, meta(33))
            .checkpoint_every(8)
            .start(DynamicMatching::with_seed(33))
            .unwrap();
        let h = svc.handle();
        for v in 0..40u32 {
            h.insert(vec![2 * v, 2 * v + 1]).wait().unwrap();
        }
        drop(h);
        let (m, stats) = svc.shutdown();
        assert_eq!(m.num_edges(), 40);
        assert!(stats.checkpoints >= 1, "{stats:?}");
        assert_eq!(stats.checkpoint_failures, 0);
        // Recovery loads a checkpoint (not genesis) and lands on the exact
        // final state.
        let rec = crate::replay::recover_matching_from_dir(&dir, false).unwrap();
        assert!(rec.checkpoint.is_some());
        assert_eq!(rec.next_seq, 40);
        assert!(!rec.truncated);
        assert_eq!(
            Snapshots::snapshot(&rec.structure),
            Snapshots::snapshot(&m),
            "recovered state must equal the served state exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_and_resume_continues_the_log() {
        let dir = temp_wal_dir("pbdmm_svc_seg_resume");
        let build = || {
            ServiceConfig::builder()
                .max_batch(1)
                .wal_dir(&dir, meta(34))
                .checkpoint_every(4)
        };
        // First run starts fresh: the directory does not exist yet.
        let (svc, _, info) = build()
            .recover_and_start_serving(|| DynamicMatching::with_seed(34))
            .unwrap();
        assert_eq!(info.batches, 0);
        assert_eq!(info.checkpoint, None);
        let h = svc.handle();
        let mut ids = Vec::new();
        for v in 0..10u32 {
            ids.push(h.insert(vec![v, v + 100]).wait().unwrap().done.id());
        }
        drop(h);
        svc.shutdown();
        // Second run resumes at batch 10 and keeps appending; recorded ids
        // stay valid across the restart.
        let (svc, q, info) = build()
            .recover_and_start_serving(|| DynamicMatching::with_seed(34))
            .unwrap();
        assert_eq!(info.batches, 10);
        assert_eq!(q.epoch(), 10, "the recovered state is served at once");
        let h = svc.handle();
        assert!(matches!(
            h.delete(ids[0]).wait().unwrap().done,
            Done::Deleted(d) if d == ids[0]
        ));
        for v in 0..5u32 {
            h.insert(vec![200 + v, 300 + v]).wait().unwrap();
        }
        drop(h);
        let (m2, _) = svc.shutdown();
        assert_eq!(m2.num_edges(), 14);
        // A third recovery reproduces the resumed run's exact final state.
        let rec = crate::replay::recover_matching_from_dir(&dir, false).unwrap();
        assert_eq!(rec.next_seq, 16);
        assert_eq!(
            Snapshots::snapshot(&rec.structure),
            Snapshots::snapshot(&m2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_refuses_contradictory_recovery_configs() {
        let no_wal =
            ServiceConfig::builder().recover_and_start_serving(|| DynamicMatching::with_seed(1));
        assert!(matches!(no_wal, Err(ServiceError::Wal(_))));
    }

    #[test]
    fn fresh_start_refuses_a_dir_with_history() {
        let dir = temp_wal_dir("pbdmm_svc_seg_refuse");
        let svc = ServiceConfig::builder()
            .wal_dir(&dir, meta(35))
            .start(DynamicMatching::with_seed(35))
            .unwrap();
        svc.handle().insert(vec![0, 1]).wait().unwrap();
        svc.shutdown();
        let refused = ServiceConfig::builder()
            .wal_dir(&dir, meta(35))
            .start(DynamicMatching::with_seed(35));
        assert!(matches!(refused, Err(ServiceError::Wal(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seq_numbers_are_dense_in_apply_order() {
        let svc = start(6);
        let h = svc.handle();
        let tickets: Vec<Ticket> = (0..16).map(|v| h.insert(vec![v, v + 1])).collect();
        let mut seqs: Vec<u64> = tickets.into_iter().map(|t| t.wait().unwrap().seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..16).collect::<Vec<u64>>());
        drop(h);
        svc.shutdown();
    }
}
