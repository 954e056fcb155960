//! # pbdmm — Parallel Batch-Dynamic Maximal Matching
//!
//! A production-quality Rust reproduction of *Blelloch & Brady, "Parallel
//! Batch-Dynamic Maximal Matching with Constant Work per Update", SPAA 2025*
//! (arXiv:2503.09908).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`matching`] ([`DynamicMatching`]) — the batch-dynamic maximal matching
//!   structure: `O(1)` expected amortized work per update on graphs,
//!   `O(r³)` on rank-`r` hypergraphs, `O(log³ m)` depth per batch whp;
//! * [`matching::api`] ([`Batch`], [`Update`], [`BatchDynamic`]) — the
//!   unified mixed-batch update surface every contender implements;
//! * [`matching::greedy`] — work-efficient static maximal hypergraph
//!   matching (`O(m')` work, `O(log² m)` depth whp);
//! * [`setcover`] ([`DynamicSetCover`]) — static and batch-dynamic
//!   r-approximate set cover via the matching reduction;
//! * [`graph`] — hypergraphs, generators, oblivious workload streams, and
//!   the durable write-ahead log ([`graph::wal`]);
//! * [`service`] ([`UpdateService`]) — the concurrent ingest/serve layer:
//!   many producers submit single updates, a coalescer forms valid mixed
//!   batches under a size/latency policy, logs them to a WAL, applies them
//!   on a pinned pool, and completes per-submitter tickets;
//! * [`net`] ([`net::Daemon`]) — the deployable network tier: a std-only
//!   TCP daemon speaking a versioned length-prefixed wire protocol
//!   ([`net::proto`]), with per-connection backpressure and admission
//!   control over the service layer, plus the blocking client and the
//!   multi-connection load generator behind `pbdmm daemon` / `pbdmm load`;
//! * [`primitives`] — the parallel toolbox (scan, semisort, dictionaries,
//!   random permutations, work/depth metering).
//!
//! ## Quickstart
//!
//! The single entry point is [`DynamicMatching::apply`]: one mixed
//! [`Batch`] of insertions and deletions, settled in one leveled round —
//! the paper's native batch semantics.
//!
//! ```
//! use pbdmm::{Batch, DynamicMatching};
//!
//! let mut m = DynamicMatching::with_seed(7);
//! let out = m
//!     .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]))
//!     .unwrap();
//! assert!(m.matching_size() >= 1); // maximal after every batch
//!
//! // Mixed batch: one deletion + one insertion, one settlement round.
//! let out = m
//!     .apply(Batch::new().delete(out.inserted[0]).insert(vec![0, 3]))
//!     .unwrap();
//! assert_eq!(out.deleted_count(), 1);
//! assert_eq!(m.num_edges(), 3);
//! ```

#![warn(missing_docs)]

pub use pbdmm_graph as graph;
pub use pbdmm_matching as matching;
pub use pbdmm_net as net;
pub use pbdmm_primitives as primitives;
pub use pbdmm_service as service;
pub use pbdmm_setcover as setcover;

pub use pbdmm_graph::{Batch, DeletionOrder, EdgeId, Hypergraph, Update, VertexId, Workload};
pub use pbdmm_matching::{
    BatchDynamic, BatchOutcome, DynamicMatching, LevelingConfig, MatchResult, UpdateError,
    UpdateOutcome,
};
pub use pbdmm_service::{ServiceConfig, UpdateService};
pub use pbdmm_setcover::{DynamicSetCover, ElementId, SetId};
