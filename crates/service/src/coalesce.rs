//! Batch formation: the pure planning step between raw per-update requests
//! and one valid mixed [`Batch`] for [`BatchDynamic::apply`].
//!
//! The coalescer thread drains pending caller batches under a size/latency
//! policy ([`CoalescePolicy`]), concatenates them in arrival order, and
//! hands the updates to [`plan_batch`], which resolves conflicts per the
//! strict `apply` contract:
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
use std::time::Duration;

use pbdmm_graph::edge::{normalize_vertices, EdgeId};
use pbdmm_graph::update::{Batch, Update};
use pbdmm_primitives::hash::FxHashMap;

/// The size/latency flush policy: a batch is closed as soon as it holds
/// `max_batch` updates, or `max_delay` after its first update arrived,
/// whichever comes first — and, in the default group-commit mode
/// (`max_delay == 0`), as soon as the ingress is momentarily empty.
///
/// The unit the coalescer merges is a *caller batch* (one
/// `ServiceHandle::submit_batch`, or one `submit`), and it never splits
/// one: `max_batch` caps how much it merges. Whole caller batches join a
/// batch while its total stays within `max_batch`; the first one that does
/// not fit opens the next batch, and a single caller batch larger than
/// `max_batch` is applied alone and whole.
///
/// Group commit is self-clocking: while one batch is being applied, new
/// submissions queue up and become the next batch, so batch sizes grow
/// with load and idle streams pay no added latency. A positive `max_delay`
/// is an explicit *linger* window instead: the coalescer holds a non-full
/// batch open that long to maximize coalescing (deterministic batching for
/// tests; bigger batches under open-loop trickle load at the cost of tail
/// latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Flush when this many updates are pending (amortization knob): the
    /// most updates the coalescer merges from several caller batches.
    pub max_batch: usize,
    /// Zero (default): group commit — flush whenever the ingress is
    /// momentarily empty. Positive: hold non-full batches open this long
    /// after their first update (linger window, tail latency knob).
    pub max_delay: Duration,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_batch: 1024,
            max_delay: Duration::ZERO,
        }
    }
}

impl CoalescePolicy {
    /// A policy that effectively disables coalescing (singleton batches) —
    /// the baseline the service is measured against.
    pub fn singleton() -> Self {
        CoalescePolicy {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }
}

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

impl BatchPlan {
    /// Number of requests that made it into the batch.
    pub fn planned(&self) -> usize {
        self.batch.len()
    }
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

    #[test]
    fn policy_defaults_and_singleton() {
        let p = CoalescePolicy::default();
        assert!(p.max_batch > 1);
        // Default is group commit: no linger window.
        assert!(p.max_delay.is_zero());
        let s = CoalescePolicy::singleton();
        assert_eq!(s.max_batch, 1);
        assert_eq!(s.max_delay, Duration::ZERO);
    }
}
