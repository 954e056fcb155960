//! The unified batch-update API: [`BatchDynamic`], [`Batch`]/[`Update`],
//! [`BatchOutcome`], and [`UpdateError`].
//!
//! The paper's algorithm (Fig. 3/4, Theorem 1.1) processes a *single batch
//! containing both insertions and deletions*. This module makes that the
//! public surface: every maximal-matching maintainer (and the set-cover
//! adapter) implements [`BatchDynamic`], whose one entry point
//! [`BatchDynamic::apply`] consumes a mixed [`Batch`] and returns a
//! [`BatchOutcome`] carrying the assigned ids, the ids actually deleted, and
//! an implementation-specific report.
//!
//! Semantics shared by all implementations:
//!
//! * within one `apply`, **all deletions are processed before all
//!   insertions**, in one settlement round (for [`DynamicMatching`] this is
//!   literally one leveled settlement: the edges freed by deletions and the
//!   fresh insertions share the final greedy round);
//! * `apply` is **strict**: an empty vertex set, an unknown/dead edge id, or
//!   a duplicate deletion makes the whole batch fail with [`UpdateError`]
//!   *before any mutation* — the structure is unchanged on error;
//! * the `k`-th `Insert` in the batch corresponds to
//!   `outcome.inserted[k]`;
//! * the legacy `insert_edges`/`delete_edges` methods remain as thin
//!   wrappers over `apply` with their historical (panicking / tolerant)
//!   behavior.
//!
//! # Example
//! ```
//! use pbdmm_matching::api::{Batch, BatchDynamic};
//! use pbdmm_matching::DynamicMatching;
//!
//! let mut m = DynamicMatching::with_seed(42);
//! let out = m.apply(Batch::new().inserts([vec![0, 1], vec![1, 2]])).unwrap();
//! assert_eq!(out.inserted.len(), 2);
//!
//! // One call, mixed deletions + insertions, one settlement round.
//! let out = m
//!     .apply(Batch::new().delete(out.inserted[0]).insert(vec![2, 3]))
//!     .unwrap();
//! assert_eq!(out.deleted_count(), 1);
//! assert!(pbdmm_matching::verify::check_invariants(&m).is_ok());
//! ```
//!
//! [`DynamicMatching`]: crate::DynamicMatching

use pbdmm_graph::edge::{normalize_vertices, EdgeId, EdgeVertices};
use pbdmm_primitives::hash::FxHashSet;
use pbdmm_primitives::obs::Recorder;

pub use pbdmm_graph::update::{Batch, Update};

/// Why a batch was rejected. `apply` validates the whole batch up front and
/// mutates nothing on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An insertion's vertex set was empty after normalization (arity
    /// violation — a hyperedge needs at least one vertex).
    EmptyEdge {
        /// Position of the offending update within the batch.
        index: usize,
    },
    /// A deletion named an id that is not a live edge.
    UnknownEdge {
        /// The unknown id.
        id: EdgeId,
        /// Position of the offending update within the batch.
        index: usize,
    },
    /// The same id was deleted twice within one batch.
    DuplicateDelete {
        /// The duplicated id.
        id: EdgeId,
        /// Position of the second occurrence within the batch.
        index: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::EmptyEdge { index } => {
                write!(f, "update {index}: edge with empty vertex set")
            }
            UpdateError::UnknownEdge { id, index } => {
                write!(f, "update {index}: unknown or dead edge {id}")
            }
            UpdateError::DuplicateDelete { id, index } => {
                write!(f, "update {index}: edge {id} deleted twice in one batch")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// What one `apply` call did: ids assigned to insertions (in batch order),
/// ids actually removed, and the implementation's per-batch report.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome<R = ()> {
    /// Ids assigned to the batch's insertions, in batch order.
    pub inserted: Vec<EdgeId>,
    /// Ids that were live and are now deleted. Under strict `apply` this is
    /// every requested deletion; under the tolerant legacy wrappers it is
    /// the surviving subset, so callers can reconcile.
    pub deleted: Vec<EdgeId>,
    /// Implementation-specific per-batch report (e.g. settle iterations and
    /// model cost for [`DynamicMatching`](crate::DynamicMatching)).
    pub report: R,
}

/// What one update in a batch did, from [`BatchOutcome::per_update`]: the
/// per-submitter view of a strict-apply outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The update was an insertion; this id was assigned to it.
    Inserted(EdgeId),
    /// The update was a deletion of this id.
    Deleted(EdgeId),
}

impl UpdateOutcome {
    /// The edge id this update resolved to (assigned for insertions, the
    /// requested id for deletions).
    pub fn id(&self) -> EdgeId {
        match self {
            UpdateOutcome::Inserted(id) | UpdateOutcome::Deleted(id) => *id,
        }
    }
}

impl<R> BatchOutcome<R> {
    /// Number of edges actually deleted (the count the legacy
    /// `delete_edges -> usize` API used to return).
    pub fn deleted_count(&self) -> usize {
        self.deleted.len()
    }

    /// Split this outcome back onto the batch that produced it: one
    /// [`UpdateOutcome`] per update, **in batch order**, so custom batch
    /// drivers (ticket-completion layers, trace recorders) can hand each
    /// submitter exactly its own slice of the result. (The in-tree service
    /// computes the identical mapping slot-wise so its hot path never
    /// clones the batch; this method is the reusable form of that
    /// contract.)
    ///
    /// Defined for strict [`BatchDynamic::apply`] outcomes, where every
    /// requested deletion succeeded and `inserted` has one id per `Insert`.
    ///
    /// # Panics
    /// If `batch` is not the batch this outcome came from (its insertion or
    /// deletion counts disagree with the outcome's).
    pub fn per_update(&self, batch: &Batch) -> Vec<UpdateOutcome> {
        assert_eq!(
            batch.num_inserts(),
            self.inserted.len(),
            "outcome does not belong to this batch"
        );
        assert_eq!(
            batch.num_deletes(),
            self.deleted.len(),
            "outcome does not belong to this batch"
        );
        let mut next_inserted = self.inserted.iter();
        batch
            .iter()
            .map(|u| match u {
                Update::Insert(_) => {
                    UpdateOutcome::Inserted(*next_inserted.next().expect("one id per insertion"))
                }
                Update::Delete(id) => UpdateOutcome::Deleted(*id),
            })
            .collect()
    }

    /// Total updates applied.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Did this batch change nothing?
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Validate a mixed batch against a liveness predicate and split it into
/// normalized insertions (batch order) and deduplicate-checked deletions
/// (batch order). This is the shared strict-validation front end every
/// [`BatchDynamic`] implementation uses; on `Err` the caller must leave its
/// structure untouched.
pub fn validate_batch<F>(
    batch: &Batch,
    mut is_live: F,
) -> Result<(Vec<EdgeVertices>, Vec<EdgeId>), UpdateError>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut inserts = Vec::with_capacity(batch.num_inserts());
    let mut deletes = Vec::with_capacity(batch.num_deletes());
    let mut seen: FxHashSet<EdgeId> = FxHashSet::default();
    for (index, u) in batch.iter().enumerate() {
        match u {
            Update::Insert(vs) => {
                let vs = normalize_vertices(vs.clone()).ok_or(UpdateError::EmptyEdge { index })?;
                inserts.push(vs);
            }
            Update::Delete(id) => {
                if !is_live(*id) {
                    return Err(UpdateError::UnknownEdge { id: *id, index });
                }
                if !seen.insert(*id) {
                    return Err(UpdateError::DuplicateDelete { id: *id, index });
                }
                deletes.push(*id);
            }
        }
    }
    Ok((inserts, deletes))
}

/// The tolerant legacy-delete front end, shared by the trait's default
/// `delete_edges` and `DynamicMatching`'s inherent wrapper so the
/// skip-unknown/skip-duplicate contract lives in exactly one place:
/// keep the ids that are live (per `is_live`), first occurrence only,
/// input order preserved. One copy + one in-place `retain` pass — no
/// per-id allocation, and the seen-set is sized up front so
/// duplicate-heavy batches never rehash.
pub(crate) fn filter_live_dedup<F>(ids: &[EdgeId], mut is_live: F) -> Vec<EdgeId>
where
    F: FnMut(EdgeId) -> bool,
{
    let mut seen: FxHashSet<EdgeId> =
        FxHashSet::with_capacity_and_hasher(ids.len(), Default::default());
    let mut out = ids.to_vec();
    out.retain(|&e| is_live(e) && seen.insert(e));
    out
}

/// A maximal-matching maintainer (or adapter) driven by mixed update
/// batches. This is the seam the whole harness goes through: the workload
/// driver, the CLI, the benchmarks and the experiments all accept any
/// `BatchDynamic` so every contender replays identical streams.
///
/// The legacy split-call surface (`insert_edges` / `delete_edges`) is
/// provided as default methods on top of [`Self::apply`]; prefer `apply`.
pub trait BatchDynamic {
    /// Per-batch report type (e.g. [`crate::BatchReport`]).
    type Report;

    /// Apply one mixed batch: deletions first, then insertions, one
    /// settlement round. Strict — see [`UpdateError`]; the structure is
    /// unchanged on error.
    fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<Self::Report>, UpdateError>;

    /// Current matching size.
    fn matching_size(&self) -> usize;

    /// Is this edge currently in the matching?
    fn is_matched(&self, e: EdgeId) -> bool;

    /// Is this edge currently live?
    fn contains_edge(&self, e: EdgeId) -> bool;

    /// Number of live edges.
    fn num_edges(&self) -> usize;

    /// Total model work charged so far.
    fn work(&self) -> u64;

    /// Attach a phase [`Recorder`]: structures that support per-phase
    /// observability record settlement/publication spans and counters
    /// through it. The default does nothing, so plain adapters (the
    /// baselines, test doubles) need no change.
    fn set_obs(&mut self, _obs: Recorder) {}

    /// Legacy wrapper: insert a batch of edges, returning their ids in input
    /// order.
    ///
    /// # Panics
    /// If any edge has an empty vertex set (the historical contract).
    fn insert_edges(&mut self, batch: &[EdgeVertices]) -> Vec<EdgeId> {
        self.apply(Batch::new().inserts(batch.iter().cloned()))
            .expect("edge with empty vertex set")
            .inserted
    }

    /// Legacy wrapper: delete a batch of edges by id, *tolerantly* —
    /// unknown, dead, and duplicate ids are skipped rather than erroring.
    /// Returns the ids that were actually live and are now deleted, so
    /// callers can reconcile; the count is `returned.len()` (also available
    /// as [`BatchOutcome::deleted_count`] on the `apply` path).
    fn delete_edges(&mut self, ids: &[EdgeId]) -> Vec<EdgeId> {
        let live = filter_live_dedup(ids, |e| self.contains_edge(e));
        self.apply(Batch::new().deletes(live))
            .expect("validated deletions cannot fail")
            .deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_invariants;
    use crate::DynamicMatching;

    #[test]
    fn strict_apply_rejects_and_leaves_structure_untouched() {
        let mut m = DynamicMatching::with_seed(1);
        let ids = m.insert_edges(&[vec![0, 1], vec![1, 2]]);
        let before = m.matching();

        // Unknown id.
        let err = m.apply(Batch::new().delete(EdgeId(999))).unwrap_err();
        assert!(matches!(err, UpdateError::UnknownEdge { .. }));
        // Duplicate delete.
        let err = m.apply(Batch::new().deletes([ids[0], ids[0]])).unwrap_err();
        assert!(matches!(err, UpdateError::DuplicateDelete { .. }));
        // Empty edge.
        let err = m.apply(Batch::new().insert(vec![])).unwrap_err();
        assert_eq!(err, UpdateError::EmptyEdge { index: 0 });
        // Mixed batch failing late still mutates nothing.
        let err = m
            .apply(Batch::new().insert(vec![5, 6]).delete(EdgeId(999)))
            .unwrap_err();
        assert!(matches!(err, UpdateError::UnknownEdge { .. }));

        assert_eq!(m.num_edges(), 2);
        assert_eq!(m.matching(), before);
        check_invariants(&m).unwrap();
    }

    #[test]
    fn error_messages_name_the_violation() {
        let e = UpdateError::EmptyEdge { index: 3 };
        assert!(e.to_string().contains("empty vertex set"));
        let e = UpdateError::UnknownEdge {
            id: EdgeId(7),
            index: 0,
        };
        assert!(e.to_string().contains("unknown"));
        let e = UpdateError::DuplicateDelete {
            id: EdgeId(7),
            index: 1,
        };
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn per_update_splits_in_batch_order() {
        let mut m = DynamicMatching::with_seed(5);
        let ids = m.insert_edges(&[vec![0, 1], vec![2, 3]]);
        let batch = Batch::new()
            .delete(ids[0])
            .insert(vec![4, 5])
            .delete(ids[1])
            .insert(vec![6, 7]);
        let out = m.apply(batch.clone()).unwrap();
        let per = out.per_update(&batch);
        assert_eq!(per.len(), 4);
        assert_eq!(per[0], UpdateOutcome::Deleted(ids[0]));
        assert_eq!(per[1], UpdateOutcome::Inserted(out.inserted[0]));
        assert_eq!(per[2], UpdateOutcome::Deleted(ids[1]));
        assert_eq!(per[3], UpdateOutcome::Inserted(out.inserted[1]));
        assert_eq!(per[1].id(), out.inserted[0]);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn per_update_rejects_foreign_batch() {
        let mut m = DynamicMatching::with_seed(6);
        let out = m.apply(Batch::new().insert(vec![0, 1])).unwrap();
        out.per_update(&Batch::new().inserts([vec![0, 1], vec![2, 3]]));
    }

    #[test]
    fn validate_batch_splits_in_order() {
        let batch = Batch::new()
            .insert(vec![3, 1])
            .delete(EdgeId(0))
            .insert(vec![2]);
        let (ins, del) = validate_batch(&batch, |_| true).unwrap();
        assert_eq!(ins, vec![vec![1, 3], vec![2]]); // normalized
        assert_eq!(del, vec![EdgeId(0)]);
    }

    #[test]
    fn trait_wrappers_match_inherent_behavior() {
        let mut m = DynamicMatching::with_seed(3);
        let ids = BatchDynamic::insert_edges(&mut m, &[vec![0, 1], vec![1, 2]]);
        assert_eq!(ids.len(), 2);
        // Tolerant deletes skip unknown/duplicate ids.
        let gone = BatchDynamic::delete_edges(&mut m, &[ids[0], ids[0], EdgeId(99)]);
        assert_eq!(gone, vec![ids[0]]);
        assert_eq!(m.num_edges(), 1);
    }
}
