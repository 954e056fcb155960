//! # pbdmm-matching
//!
//! Parallel batch-dynamic maximal matching on graphs and hypergraphs with
//! constant (resp. `O(r³)`) expected amortized work per edge update —
//! a reproduction of *Blelloch & Brady, SPAA 2025*.
//!
//! * [`api`] — the unified batch-update surface: [`Update`]/[`Batch`], the
//!   [`BatchDynamic`] trait every contender implements, [`BatchOutcome`],
//!   and [`UpdateError`].
//! * [`greedy`] — the static random greedy maximal matcher (§3): the
//!   sequential oracle (Fig. 1) and the work-efficient parallel
//!   implementation (Fig. 2, Lemma 1.3) that computes the identical
//!   lexicographically-first matching with sample spaces.
//! * [`level`] — the leveled matching structure (Definition 4.1, Table 1).
//! * [`dynamic`] — the batch-dynamic algorithm (Fig. 3/4, Theorem 1.1):
//!   [`DynamicMatching`].
//! * [`baseline`] — comparators: static recompute per batch, a naive
//!   neighbor-rescan dynamic algorithm, and single-update (sequential
//!   dynamic model) driving.
//! * [`driver`] — replay an oblivious workload against any [`BatchDynamic`].
//! * [`snapshot`] — the epoch-versioned read path: immutable
//!   [`MatchingSnapshot`]s published after every batch via an atomic-swap
//!   `Arc`, so concurrent readers query while batches apply.
//! * [`verify`] — invariant checking (used pervasively in tests).
//! * [`stats`] — epoch/payment accounting mirroring the paper's charging
//!   scheme, consumed by the experiment harness.
//!
//! ## Quickstart
//!
//! One structure, one entry point: [`DynamicMatching::apply`] consumes a
//! mixed [`Batch`] of insertions and deletions and settles them in a single
//! leveled round, exactly the paper's single-batch semantics.
//!
//! ```
//! use pbdmm_matching::api::Batch;
//! use pbdmm_matching::DynamicMatching;
//!
//! let mut m = DynamicMatching::with_seed(42);
//! let out = m
//!     .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]))
//!     .unwrap();
//! assert!(m.matching_size() >= 1);
//!
//! // Mixed batch: delete one edge, insert another — one settlement round.
//! let out = m
//!     .apply(Batch::new().delete(out.inserted[0]).insert(vec![3, 4]))
//!     .unwrap();
//! assert_eq!(out.deleted_count(), 1);
//! // The matching is maintained maximal after every batch.
//! assert!(pbdmm_matching::verify::check_invariants(&m).is_ok());
//! ```
//!
//! The legacy split calls still work (`insert_edges` returns ids,
//! `delete_edges` now returns the ids that were actually live):
//!
//! ```
//! use pbdmm_matching::DynamicMatching;
//!
//! let mut m = DynamicMatching::with_seed(42);
//! let ids = m.insert_edges(&[vec![0, 1], vec![1, 2]]);
//! let gone = m.delete_edges(&ids);
//! assert_eq!(gone, ids);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod baseline;
pub mod checkpoint;
pub mod driver;
pub mod dynamic;
pub mod greedy;
pub mod level;
pub mod snapshot;
pub mod stats;
pub mod verify;

pub use api::{Batch, BatchDynamic, BatchOutcome, Update, UpdateError, UpdateOutcome};
pub use checkpoint::Checkpoint;
pub use dynamic::{BatchReport, DynamicMatching, LevelOccupancy, StorageStats};
pub use greedy::{
    parallel_greedy_match, parallel_greedy_match_in, parallel_greedy_match_with_priorities,
    parallel_greedy_match_with_priorities_in, sequential_greedy_match,
    sequential_greedy_match_with_priorities, GreedyScratch, MatchResult,
};
pub use level::{EdgeType, LeveledStructure, LevelingConfig};
pub use snapshot::{
    Changes, MatchingSnapshot, QueryHandle, Snapshot, SnapshotDelta, SnapshotStats, Snapshots,
};
pub use stats::{EpochEnd, MatchingStats};
