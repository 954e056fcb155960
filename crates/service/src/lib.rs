//! # pbdmm-service
//!
//! The concurrent **ingest/serve layer** over a [`DynamicMatching`] (a
//! served set cover is the same matching read with sets as vertices):
//! turns a firehose of individual updates from many producer threads into
//! the well-formed mixed batches the paper's algorithm is efficient on —
//! the way bulk-synchronous streaming systems amortize per-update cost into
//! supersteps.
//!
//! Lifecycle (`ingress → coalesce → WAL → apply → complete`):
//!
//! 1. **Ingress** — producers submit caller batches of [`Update`]s
//!    ([`ServiceHandle::submit_batch`], one ingress message each) or single
//!    updates ([`ServiceHandle::submit`], a one-update caller batch)
//!    through a cloneable [`ServiceHandle`] (an MPSC channel); each
//!    submission returns a [`BatchTicket`] or [`Ticket`] over one one-shot
//!    completion cell.
//! 2. **Coalesce** — one coalescer thread drains the ingress by group
//!    commit: it takes every caller batch queued by the time it is free,
//!    up to `max_batch` updates ([`ServiceBuilder::max_batch`]), and never
//!    splits one (see [`coalesce`]). It resolves conflicts per the strict
//!    `apply` contract: deletions ordered before insertions, in-batch
//!    duplicate deletes deduplicated, and individually invalid updates
//!    (unknown id, empty vertex set) rejected without poisoning the batch.
//! 3. **WAL** — the formed batch is appended to a durable write-ahead log
//!    *before* it is applied, so a crash never loses an acknowledged batch.
//!    The log is a segment directory ([`WalConfig::dir`]): numbered
//!    `NNNNNN.seg` files in the [`pbdmm_graph::wal`] format (same
//!    line-based conventions as `graph::io`), rotated at checkpoints.
//! 4. **Apply** — one [`DynamicMatching::apply`] call on a pinned
//!    [`ParPool`], settling the whole batch in one leveled round.
//! 5. **Complete** — each caller batch's cell is filled once, waking its
//!    ticket with its slice of the [`BatchOutcome`] (the assigned
//!    [`EdgeId`] for inserts) plus each update's position in the global
//!    apply order.
//! 6. **Checkpoint** — once the batch that crosses the checkpoint interval
//!    has completed, the coalescer serializes the structure as one binary
//!    image ([`pbdmm_matching::checkpoint`]; the serving path's one O(n)
//!    step), rotates to a new segment, and hands the image to a writer
//!    thread that makes it durable and compacts the log.
//!
//! The **read path** rides on epoch snapshots: start the service with
//! [`ServiceBuilder::start_serving`] and any number of reader threads
//! resolve `is_matched` / `partner` / `stats` queries through a cloneable
//! [`QueryHandle`] against the latest snapshot the structure published —
//! never blocking the coalescer. Every [`Completion`] carries the epoch at
//! which its batch became visible, published *before* the ticket resolves,
//! so completed writes are always readable (read-your-writes), and every
//! observed snapshot equals a sequential replay prefix of the WAL at its
//! epoch (the property `tests/snapshots.rs` checks).
//!
//! [`replay`] reconstructs a structure from a recorded WAL
//! deterministically — crash recovery and a trace-replay harness for
//! benchmarking real update streams in one mechanism: both run the same
//! loop over the logged batches.
//!
//! ```
//! use pbdmm_matching::DynamicMatching;
//! use pbdmm_service::{Done, ServiceConfig};
//!
//! let svc = ServiceConfig::builder()
//!     .start(DynamicMatching::with_seed(42))
//!     .unwrap();
//!
//! // Producers: clone the handle freely across threads.
//! let h = svc.handle();
//! let ticket = h.insert(vec![0, 1]);
//! let id = match ticket.wait().unwrap().done {
//!     Done::Inserted(id) => id,
//!     _ => unreachable!(),
//! };
//! h.delete(id).wait().unwrap();
//!
//! drop(h);
//! let (structure, stats) = svc.shutdown();
//! assert_eq!(structure.num_edges(), 0);
//! assert_eq!(stats.updates, 2);
//! ```
//!
//! [`Update`]: pbdmm_graph::update::Update
//! [`EdgeId`]: pbdmm_graph::edge::EdgeId
//! [`DynamicMatching`]: pbdmm_matching::DynamicMatching
//! [`DynamicMatching::apply`]: pbdmm_matching::DynamicMatching::apply
//! [`BatchOutcome`]: pbdmm_matching::api::BatchOutcome
//! [`ParPool`]: pbdmm_primitives::pool::ParPool

#![warn(missing_docs)]

pub mod coalesce;
pub mod replay;
pub mod service;

pub use coalesce::{plan_batch, BatchPlan, Slot, DEFAULT_MAX_BATCH};
pub use replay::{
    matching_for, recover_dir_with, recover_matching_from_dir, wal_dir_meta, Recovery,
    RecoveryInfo, ReplayReport,
};
pub use service::{
    BatchTicket, Completion, Done, QueryHandle, ServiceBuilder, ServiceConfig, ServiceError,
    ServiceHandle, ServiceStats, Ticket, UpdateService, WalConfig,
};
