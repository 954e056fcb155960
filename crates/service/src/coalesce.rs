//! Batch formation: the one batching rule, and the pure planning step
//! between caller batches and one valid mixed [`Batch`] for
//! [`BatchDynamic::apply`].
//!
//! The rule is **group commit over whole caller batches**. The coalescer
//! thread blocks for the first pending caller batch (one
//! `ServiceHandle::submit_batch`, or one `submit`), takes every caller
//! batch already queued behind it, and closes the batch once the ingress
//! is momentarily empty. It never splits a caller batch: `max_batch`
//! (default [`DEFAULT_MAX_BATCH`]) caps how much it merges. Whole caller
//! batches join while the total stays within `max_batch`; the first one
//! that does not fit opens the next batch, and one larger than `max_batch`
//! is applied alone and whole. The rule is self-clocking: while one batch
//! applies, new submissions queue up and become the next one, so batch
//! sizes grow with load and an idle stream waits on no timer. A caller
//! that wants bigger batches submits bigger caller batches.
//!
//! The coalescer concatenates the merged caller batches in arrival order
//! and hands the updates to [`plan_batch`], which resolves conflicts per
//! the strict `apply` contract:
//!
//! * **deletions are ordered before insertions** in the formed batch (the
//!   contract processes them first anyway; the explicit order keeps the WAL
//!   record and the per-ticket mapping canonical);
//! * **in-batch duplicate deletes are deduplicated** — the first request
//!   wins a batch slot, later duplicates resolve as already-deleted once the
//!   batch commits (strict `apply` would reject the whole batch otherwise);
//! * a delete of an id that is not live, and an insert with an empty
//!   vertex set, are **rejected individually** instead of poisoning the
//!   batch. Ids are assigned at apply time, so a delete can only name an
//!   edge whose insert already committed; a delete of an edge inserted by
//!   the same pending batch is an unknown id like any other.
//!
//! [`BatchDynamic::apply`]: pbdmm_matching::api::BatchDynamic::apply

use std::collections::hash_map::Entry;

use pbdmm_graph::edge::{normalize_vertices, EdgeId};
use pbdmm_graph::update::{Batch, Update};
use pbdmm_primitives::hash::FxHashMap;

/// The default `max_batch`: the most updates the coalescer merges from
/// several caller batches. `ServiceBuilder::max_batch`,
/// `DaemonConfig::default` and the CLI's `--max-batch` all start here.
pub const DEFAULT_MAX_BATCH: usize = 1024;

/// Where one pending request ended up after planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Included in the formed batch at this position (batch order: all
    /// deletions first, then insertions).
    InBatch(usize),
    /// In-batch duplicate delete, coalesced away: the id's first delete
    /// holds the batch slot at this position; this request resolves as
    /// already-deleted, with that slot's sequence number, once the batch
    /// commits.
    DuplicateDelete(usize),
    /// Delete of an id that is not live.
    RejectUnknown(EdgeId),
    /// Insert with an empty vertex set.
    RejectEmpty,
}

/// The outcome of planning one drain of pending requests.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// The formed batch: deletions (deduplicated, first-occurrence order)
    /// followed by insertions (normalized, arrival order).
    pub batch: Batch,
    /// One [`Slot`] per input request, in input order.
    pub slots: Vec<Slot>,
}

/// Resolve a drained request list into one valid mixed batch (see the
/// module docs for the conflict rules). Takes the updates by value — the
/// coalescer's hot path moves every insertion's vertex list straight into
/// the formed batch, no per-update clone. `is_live` answers whether an edge
/// id is currently live in the structure.
pub fn plan_batch<L>(reqs: Vec<Update>, mut is_live: L) -> BatchPlan
where
    L: FnMut(EdgeId) -> bool,
{
    // First pass: classify. Batch positions depend on the final delete
    // count, so record per-kind ordinals and fix them up after.
    let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());
    let mut deletes: Vec<EdgeId> = Vec::new();
    let mut inserts: Vec<Vec<u32>> = Vec::new();
    // Each planned delete's batch position, so a duplicate names the slot
    // it shares without scanning the batch.
    let mut seen: FxHashMap<EdgeId, usize> = FxHashMap::default();
    // Ordinal of the request within its kind; fixed up to batch positions
    // below (deletes keep their ordinal, inserts shift by the delete count).
    const INSERT_TAG: usize = usize::MAX / 2;
    for u in reqs {
        match u {
            Update::Delete(id) => {
                if !is_live(id) {
                    slots.push(Slot::RejectUnknown(id));
                    continue;
                }
                match seen.entry(id) {
                    Entry::Occupied(held) => slots.push(Slot::DuplicateDelete(*held.get())),
                    Entry::Vacant(slot) => {
                        slot.insert(deletes.len());
                        slots.push(Slot::InBatch(deletes.len()));
                        deletes.push(id);
                    }
                }
            }
            Update::Insert(vs) => match normalize_vertices(vs) {
                None => slots.push(Slot::RejectEmpty),
                Some(vs) => {
                    slots.push(Slot::InBatch(INSERT_TAG + inserts.len()));
                    inserts.push(vs);
                }
            },
        }
    }
    let num_deletes = deletes.len();
    for s in &mut slots {
        if let Slot::InBatch(pos) = s {
            if *pos >= INSERT_TAG {
                *pos = *pos - INSERT_TAG + num_deletes;
            }
        }
    }
    BatchPlan {
        batch: Batch::new().deletes(deletes).inserts(inserts),
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u64]) -> Vec<EdgeId> {
        raw.iter().map(|&i| EdgeId(i)).collect()
    }

    #[test]
    fn orders_deletes_before_inserts() {
        let reqs = vec![
            Update::Insert(vec![0, 1]),
            Update::Delete(EdgeId(7)),
            Update::Insert(vec![2, 3]),
            Update::Delete(EdgeId(8)),
        ];
        let plan = plan_batch(reqs, |_| true);
        assert_eq!(
            plan.batch.as_slice(),
            &[
                Update::Delete(EdgeId(7)),
                Update::Delete(EdgeId(8)),
                Update::Insert(vec![0, 1]),
                Update::Insert(vec![2, 3]),
            ]
        );
        // Slots map each request to its batch position.
        assert_eq!(
            plan.slots,
            vec![
                Slot::InBatch(2),
                Slot::InBatch(0),
                Slot::InBatch(3),
                Slot::InBatch(1),
            ]
        );
    }

    #[test]
    fn dedups_duplicate_deletes() {
        let reqs = vec![
            Update::Delete(EdgeId(5)),
            Update::Delete(EdgeId(5)),
            Update::Delete(EdgeId(6)),
            Update::Delete(EdgeId(6)),
            Update::Delete(EdgeId(5)),
        ];
        let plan = plan_batch(reqs, |_| true);
        assert_eq!(plan.batch.num_deletes(), 2);
        // Each duplicate names the batch position of the delete it shares.
        assert_eq!(
            plan.slots,
            vec![
                Slot::InBatch(0),
                Slot::DuplicateDelete(0),
                Slot::InBatch(1),
                Slot::DuplicateDelete(1),
                Slot::DuplicateDelete(0),
            ]
        );
    }

    #[test]
    fn rejects_individually_without_poisoning_the_batch() {
        let live = ids(&[1]);
        let reqs = vec![
            Update::Insert(vec![]),        // empty -> rejected
            Update::Delete(EdgeId(99)),    // unknown -> rejected
            Update::Delete(EdgeId(1)),     // fine
            Update::Insert(vec![4, 4, 2]), // normalized -> {2, 4}
        ];
        let plan = plan_batch(reqs, |id| live.contains(&id));
        assert_eq!(plan.slots[0], Slot::RejectEmpty);
        assert_eq!(plan.slots[1], Slot::RejectUnknown(EdgeId(99)));
        assert_eq!(
            plan.batch.as_slice(),
            &[Update::Delete(EdgeId(1)), Update::Insert(vec![2, 4])]
        );
    }

    #[test]
    fn empty_input_plans_empty_batch() {
        let plan = plan_batch(Vec::new(), |_| true);
        assert!(plan.batch.is_empty());
        assert!(plan.slots.is_empty());
    }
}
