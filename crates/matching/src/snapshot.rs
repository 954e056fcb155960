//! Epoch-versioned immutable snapshots: the read path.
//!
//! The batch-dynamic structure is single-writer by construction — one
//! `apply` at a time mutates the leveled structure — but a serving
//! deployment must answer point queries (*is this vertex matched? who is
//! its partner? how big is the matching?*) **while** batches apply. The
//! mechanism here is the flat-snapshot pattern of parallel graph systems:
//! after every batch the writer publishes a compact immutable
//! [`MatchingSnapshot`] by atomically swapping an [`Arc`]; any number of
//! concurrent readers resolve queries against the latest published
//! snapshot through a cloneable [`QueryHandle`] without ever blocking the
//! writer.
//!
//! **Incremental publication.** Snapshots are built on chunked
//! copy-on-write maps (`CowMap`), so the writer does *not* rebuild the
//! whole snapshot per batch: `apply` emits a [`SnapshotDelta`] (the edges
//! and match bindings the batch changed) and the publisher patches the
//! previous snapshot in `O(batch)` via [`MatchingSnapshot::apply_delta`].
//! Unchanged chunks are shared between consecutive snapshots; readers
//! holding an old `Arc` keep exactly the state they loaded. The canonical
//! chunk form makes `PartialEq` still mean *content* equality, so a
//! patched snapshot compares equal to a from-scratch
//! [`MatchingSnapshot::capture`] of the same state (asserted in debug
//! builds and by the property suite).
//!
//! **Epochs.** Every snapshot carries an *epoch*: the total number of
//! updates (insertions + deletions) the structure had applied when the
//! snapshot was captured. Epochs are exactly the batch boundaries of the
//! apply history, which makes two properties checkable:
//!
//! * **prefix consistency** — a snapshot at epoch `E` equals the state
//!   produced by sequentially replaying the first `E` updates of the
//!   write-ahead log (asserted by the service's property tests);
//! * **read-your-writes** — the ingest service completes a ticket only
//!   *after* the snapshot containing its batch is published, so a submitter
//!   that observes completion epoch `E` never reads a snapshot older
//!   than `E`.
//!
//! **Delta subscriptions.** The publication point retains a short ring of
//! recently published deltas; [`QueryHandle::changes_since`] turns it into a
//! catch-up API — a subscriber at epoch `E` gets either *up-to-date*, a
//! merged delta covering `E → latest`, or a full resync snapshot if it
//! fell too far behind ([`Changes`]).
//!
//! [`DynamicMatching`] is the one publisher: [`DynamicMatching::enable_snapshots`]
//! hands out the [`QueryHandle`] that bare structures and the serving
//! layer share. A served set cover is a matching read with sets as
//! vertices, so it is served as [`MatchingSnapshot`]s too.
//!
//! # Example
//! ```
//! use pbdmm_matching::api::Batch;
//! use pbdmm_matching::DynamicMatching;
//!
//! let mut m = DynamicMatching::with_seed(7);
//! let reader = m.enable_snapshots(); // cloneable; Send + Sync
//! let out = m.apply(Batch::new().inserts([vec![0, 1], vec![2, 3]])).unwrap();
//!
//! // `reader` could live on any number of other threads.
//! let snap = reader.snapshot();
//! assert_eq!(snap.epoch(), 2); // two updates applied so far
//! assert!(snap.is_matched(0) && snap.is_matched(2));
//! assert_eq!(snap.matched_edge_of(1), Some(out.inserted[0]));
//! assert_eq!(snap.partner(0), Some(1));
//! assert_eq!(snap.stats().matching_size, 2);
//! ```

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use pbdmm_graph::edge::{EdgeId, EdgeVertices, VertexId};

use crate::dynamic::DynamicMatching;

// ---------------------------------------------------------------------------
// CowMap: a chunked copy-on-write map over dense integer keys
// ---------------------------------------------------------------------------

/// Keys per leaf chunk.
const CHUNK: usize = 64;
/// Chunks per spine group.
const GROUP: usize = 64;
/// Keys per spine group.
const GROUP_SPAN: u64 = (CHUNK * GROUP) as u64;

/// A leaf chunk: a fixed-width window of `CHUNK` consecutive keys.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk<V> {
    /// Always exactly `CHUNK` slots; `slots[k % CHUNK]` holds key `k`.
    slots: Vec<Option<V>>,
    /// Occupied slots (kept so "chunk became empty" is O(1)).
    len: u32,
}

impl<V> Chunk<V> {
    fn empty() -> Self {
        Chunk {
            slots: (0..CHUNK).map(|_| None).collect(),
            len: 0,
        }
    }
}

type Group<V> = Vec<Option<Arc<Chunk<V>>>>;

/// A persistent (copy-on-write) map from dense `u64` keys to values,
/// stored as a two-level spine of `Arc`-shared fixed-size chunks.
///
/// `patch` clones only the spine and the chunks an edit touches, so
/// producing the next version costs `O(edits · CHUNK + spine)` regardless
/// of total map size — the mechanism behind O(batch) snapshot publication.
///
/// **Canonical form** (maintained by every constructor and `patch`): an
/// empty chunk is stored as `None`, trailing `None` chunks are trimmed
/// from each group, and trailing `None` groups are trimmed from the
/// spine. Hence the derived `PartialEq` is *content* equality: two maps
/// holding the same key→value pairs always compare equal, no matter what
/// sequence of patches produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CowMap<V> {
    groups: Vec<Option<Arc<Group<V>>>>,
    len: usize,
}

impl<V: Clone> CowMap<V> {
    /// The empty map.
    pub(crate) fn new() -> Self {
        CowMap {
            groups: Vec::new(),
            len: 0,
        }
    }

    /// Number of keys present.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Look up `key`. O(1).
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let g = (key / GROUP_SPAN) as usize;
        let group = self.groups.get(g)?.as_ref()?;
        let c = (key as usize / CHUNK) % GROUP;
        let chunk = group.get(c)?.as_ref()?;
        chunk.slots[key as usize % CHUNK].as_ref()
    }

    /// Is `key` present? O(1).
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Build from `(key, value)` pairs with strictly ascending keys.
    pub(crate) fn from_sorted<I: IntoIterator<Item = (u64, V)>>(pairs: I) -> Self {
        let mut map = CowMap::new();
        let mut chunk = Chunk::empty();
        let mut chunk_idx: Option<u64> = None; // key / CHUNK of the open chunk
        let flush = |map: &mut CowMap<V>, chunk: &mut Chunk<V>, idx: u64| {
            let done = std::mem::replace(chunk, Chunk::empty());
            let g = (idx as usize) / GROUP;
            let c = (idx as usize) % GROUP;
            if map.groups.len() <= g {
                map.groups.resize(g + 1, None);
            }
            let group = map.groups[g].get_or_insert_with(|| Arc::new(vec![None; GROUP]));
            Arc::make_mut(group)[c] = Some(Arc::new(done));
        };
        let mut prev: Option<u64> = None;
        for (key, value) in pairs {
            if let Some(p) = prev {
                debug_assert!(key > p, "from_sorted keys must be strictly ascending");
            }
            prev = Some(key);
            let idx = key / CHUNK as u64;
            match chunk_idx {
                Some(open) if open == idx => {}
                Some(open) => {
                    flush(&mut map, &mut chunk, open);
                    chunk_idx = Some(idx);
                }
                None => chunk_idx = Some(idx),
            }
            chunk.slots[key as usize % CHUNK] = Some(value);
            chunk.len += 1;
            map.len += 1;
        }
        if let Some(open) = chunk_idx {
            if chunk.len > 0 {
                flush(&mut map, &mut chunk, open);
            }
        }
        map.trim_group_tails();
        map
    }

    /// Produce the next version with `edits` applied: `(key, Some(v))`
    /// upserts, `(key, None)` removes. Edits must be sorted by key and
    /// unique per key. Removing an absent key and re-inserting a present
    /// one are tolerated (`len` only moves on real membership changes).
    ///
    /// Cost: `O(edits · CHUNK + touched groups · GROUP + spine)`; all
    /// untouched chunks are shared with `self`.
    pub(crate) fn patch(&self, edits: &[(u64, Option<V>)]) -> Self {
        debug_assert!(
            edits.windows(2).all(|w| w[0].0 < w[1].0),
            "patch edits must be sorted and unique by key"
        );
        let mut next = CowMap {
            groups: self.groups.clone(),
            len: self.len,
        };
        let mut i = 0;
        while i < edits.len() {
            let g = (edits[i].0 / GROUP_SPAN) as usize;
            // Gather this group's run of edits.
            let mut j = i;
            while j < edits.len() && (edits[j].0 / GROUP_SPAN) as usize == g {
                j += 1;
            }
            if next.groups.len() <= g {
                next.groups.resize(g + 1, None);
            }
            let group = next.groups[g].get_or_insert_with(|| Arc::new(vec![None; GROUP]));
            let group = Arc::make_mut(group);
            if group.len() < GROUP {
                group.resize(GROUP, None); // un-trim for in-place edits
            }
            let mut k = i;
            while k < j {
                let c = (edits[k].0 as usize / CHUNK) % GROUP;
                let mut l = k;
                while l < j && (edits[l].0 as usize / CHUNK) % GROUP == c {
                    l += 1;
                }
                let chunk = match &group[c] {
                    Some(existing) => {
                        let mut chunk = Chunk::clone(existing);
                        for &(key, ref v) in &edits[k..l] {
                            let slot = &mut chunk.slots[key as usize % CHUNK];
                            match (slot.is_some(), v.is_some()) {
                                (false, true) => {
                                    chunk.len += 1;
                                    next.len += 1;
                                }
                                (true, false) => {
                                    chunk.len -= 1;
                                    next.len -= 1;
                                }
                                _ => {}
                            }
                            *slot = v.clone();
                        }
                        chunk
                    }
                    None => {
                        let mut chunk = Chunk::empty();
                        for &(key, ref v) in &edits[k..l] {
                            if v.is_some() {
                                chunk.len += 1;
                                next.len += 1;
                                chunk.slots[key as usize % CHUNK] = v.clone();
                            }
                        }
                        chunk
                    }
                };
                group[c] = if chunk.len == 0 {
                    None
                } else {
                    Some(Arc::new(chunk))
                };
                k = l;
            }
            // Re-canonicalize this group: trim trailing Nones; drop if empty.
            while group.last().is_some_and(|c| c.is_none()) {
                group.pop();
            }
            if group.is_empty() {
                next.groups[g] = None;
            }
            i = j;
        }
        while next.groups.last().is_some_and(|g| g.is_none()) {
            next.groups.pop();
        }
        next
    }

    /// Iterate `(key, &value)` pairs in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.groups.iter().enumerate().flat_map(|(g, group)| {
            group.iter().flat_map(move |group| {
                group.iter().enumerate().flat_map(move |(c, chunk)| {
                    chunk.iter().flat_map(move |chunk| {
                        chunk.slots.iter().enumerate().filter_map(move |(s, v)| {
                            v.as_ref()
                                .map(|v| (g as u64 * GROUP_SPAN + (c * CHUNK + s) as u64, v))
                        })
                    })
                })
            })
        })
    }

    /// Canonicalize after bulk construction: trim trailing `None` chunks in
    /// every group and trailing `None` groups in the spine.
    fn trim_group_tails(&mut self) {
        for slot in &mut self.groups {
            if let Some(group) = slot {
                let group = Arc::make_mut(group);
                while group.last().is_some_and(|c| c.is_none()) {
                    group.pop();
                }
                if group.is_empty() {
                    *slot = None;
                }
            }
        }
        while self.groups.last().is_some_and(|g| g.is_none()) {
            self.groups.pop();
        }
    }
}

/// Sort `edits` by key and keep the **last** edit pushed for each key.
/// Callers push removals before inserts, so an id removed and re-added in
/// one batch (recycling) resolves to the insert.
fn canonicalize_edits<V>(edits: &mut Vec<(u64, Option<V>)>) {
    edits.sort_by_key(|e| e.0); // stable: preserves push order per key
    let mut w = 0;
    for i in 0..edits.len() {
        if w > 0 && edits[w - 1].0 == edits[i].0 {
            edits.swap(w - 1, i);
        } else {
            edits.swap(w, i);
            w += 1;
        }
    }
    edits.truncate(w);
}

// ---------------------------------------------------------------------------
// SnapshotDelta
// ---------------------------------------------------------------------------

/// What one applied batch changed, as seen by the snapshot layer: the edge
/// membership changes and the matched-binding changes between two epochs.
///
/// Produced by `DynamicMatching::apply` (when snapshots are enabled),
/// consumed by [`MatchingSnapshot::apply_delta`] and streamed to
/// subscribers via [`QueryHandle::changes_since`].
///
/// Conventions (all vectors sorted ascending by id):
/// * `matched` lists edges matched at `to_epoch` that were unmatched at
///   `from_epoch` **or** whose vertex binding changed (an id recycled
///   within the span);
/// * `unmatched` lists edges matched at `from_epoch` that are unmatched at
///   `to_epoch` **or** rebound — a rebind appears in *both* lists;
/// * removals are idempotent: a delta may delete or unmatch ids the
///   consumer never saw (this falls out of merging), and appliers treat
///   those as no-ops.
///
/// # Example
///
/// A delta patches the snapshot it spans *from* into the snapshot it
/// spans *to*, and the patched result content-equals a from-scratch
/// capture of the same state:
///
/// ```
/// use pbdmm_matching::api::Batch;
/// use pbdmm_matching::snapshot::{Changes, MatchingSnapshot};
/// use pbdmm_matching::DynamicMatching;
///
/// let mut m = DynamicMatching::with_seed(3);
/// let reader = m.enable_snapshots();
/// let base = reader.snapshot(); // epoch 0, empty
///
/// m.apply(Batch::new().inserts([vec![0, 1], vec![2, 3]])).unwrap();
/// let delta = match reader.changes_since(base.epoch()) {
///     Changes::Delta { delta, .. } => delta,
///     _ => unreachable!("one publish behind, the ring holds it"),
/// };
/// assert_eq!((delta.from_epoch, delta.to_epoch), (0, 2));
/// assert_eq!(delta.inserted.len(), 2);
///
/// let patched = base.apply_delta(&delta);
/// assert_eq!(patched, MatchingSnapshot::capture(&m));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Epoch this delta patches *from* (exclusive floor of the span).
    pub from_epoch: u64,
    /// Epoch this delta patches *to*.
    pub to_epoch: u64,
    /// Edge ids inserted (live at `to`, not live at `from`), ascending.
    pub inserted: Vec<EdgeId>,
    /// Edge ids deleted (live at `from`, not live at `to`), ascending.
    pub deleted: Vec<EdgeId>,
    /// Edges matched at `to` (new matches and rebinds), with their vertex
    /// lists, ascending by id.
    pub matched: Vec<(EdgeId, EdgeVertices)>,
    /// Edges un-matched since `from` (including rebinds), ascending.
    pub unmatched: Vec<EdgeId>,
}

impl SnapshotDelta {
    /// A no-op delta spanning `from → to`.
    pub fn empty(from_epoch: u64, to_epoch: u64) -> Self {
        SnapshotDelta {
            from_epoch,
            to_epoch,
            inserted: Vec::new(),
            deleted: Vec::new(),
            matched: Vec::new(),
            unmatched: Vec::new(),
        }
    }

    /// Does this delta change anything at all?
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.deleted.is_empty()
            && self.matched.is_empty()
            && self.unmatched.is_empty()
    }

    /// Compose two consecutive deltas (`older.to_epoch` must equal
    /// `newer.from_epoch`) into one spanning `older.from → newer.to`.
    /// Applying the result equals applying `older` then `newer`.
    pub fn merge(older: SnapshotDelta, newer: &SnapshotDelta) -> SnapshotDelta {
        debug_assert_eq!(
            older.to_epoch, newer.from_epoch,
            "merging non-adjacent deltas"
        );
        // Newer wins on match bindings: drop older.matched entries that the
        // newer span un-matched or rebound, then upsert newer.matched.
        let mut matched: Vec<(EdgeId, EdgeVertices)> = older
            .matched
            .into_iter()
            .filter(|(e, _)| newer.unmatched.binary_search(e).is_err())
            .collect();
        for (e, vs) in &newer.matched {
            match matched.binary_search_by_key(e, |&(id, _)| id) {
                Ok(i) => matched[i].1 = vs.clone(),
                Err(i) => matched.insert(i, (*e, vs.clone())),
            }
        }
        // An edge the newer span deleted was never visible if the older span
        // inserted it; everything else accumulates (removes are idempotent).
        let mut inserted: Vec<EdgeId> = older
            .inserted
            .into_iter()
            .filter(|e| newer.deleted.binary_search(e).is_err())
            .collect();
        inserted.extend(&newer.inserted);
        inserted.sort_unstable();
        inserted.dedup();
        let mut deleted = older.deleted;
        deleted.extend(&newer.deleted);
        deleted.sort_unstable();
        deleted.dedup();
        let mut unmatched = older.unmatched;
        unmatched.extend(&newer.unmatched);
        unmatched.sort_unstable();
        unmatched.dedup();
        SnapshotDelta {
            from_epoch: older.from_epoch,
            to_epoch: newer.to_epoch,
            inserted,
            deleted,
            matched,
            unmatched,
        }
    }
}

// ---------------------------------------------------------------------------
// Publication cell and reader
// ---------------------------------------------------------------------------

/// How many recent deltas a publication point retains for
/// [`QueryHandle::changes_since`]. A subscriber more than this many
/// publications behind gets a full [`Changes::Resync`].
const DELTA_RING_CAP: usize = 64;

/// The answer to [`QueryHandle::changes_since`]: how a subscriber at
/// some epoch catches up to the latest published snapshot.
#[derive(Debug)]
pub enum Changes {
    /// The subscriber already holds the latest epoch.
    UpToDate,
    /// A (merged) delta advancing the subscriber to `to_epoch`.
    Delta {
        /// Epoch the subscriber is at after applying `delta`.
        to_epoch: u64,
        /// The composed change record.
        delta: SnapshotDelta,
    },
    /// The subscriber fell behind the delta ring (or its epoch predates
    /// it); here is the latest full snapshot to resync from.
    Resync(Arc<MatchingSnapshot>),
}

/// A single-slot publication point: the writer swaps in a fresh
/// [`Arc`]-wrapped snapshot, concurrent readers grab the latest one
/// through a [`QueryHandle`].
///
/// The cell is a `RwLock<Arc<MatchingSnapshot>>` used *only* for the
/// pointer swap: readers hold the lock just long enough to clone the `Arc`
/// (two atomic ops) and the writer just long enough to store it, so
/// neither side ever blocks on snapshot-sized work. This is the std-only
/// equivalent of an atomic `Arc` swap (no external `arc-swap` dependency).
///
/// Alongside the slot, the cell keeps a bounded ring of the most recent
/// [`SnapshotDelta`]s (`(from_epoch, to_epoch, delta)`), fed by
/// [`Self::publish`] and drained by [`QueryHandle::changes_since`].
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    slot: RwLock<Arc<MatchingSnapshot>>,
    /// Publication counter guarding the condvar below. Bumped *after* the
    /// slot swap, so a waiter that re-checks the slot on every pulse never
    /// misses a publication (slot-write happens-before pulse-bump).
    pulse: Mutex<u64>,
    published: Condvar,
    /// Recent deltas as `(from_epoch, to_epoch, delta)`, oldest first;
    /// consecutive entries chain (`entry[i].to == entry[i+1].from`).
    deltas: Mutex<VecDeque<(u64, u64, Arc<SnapshotDelta>)>>,
}

impl SnapshotCell {
    /// Create a cell holding `initial`.
    pub(crate) fn new(initial: MatchingSnapshot) -> Self {
        SnapshotCell {
            slot: RwLock::new(Arc::new(initial)),
            pulse: Mutex::new(0),
            published: Condvar::new(),
            deltas: Mutex::new(VecDeque::new()),
        }
    }

    /// The latest published snapshot (cheap: clones the `Arc`, not the
    /// snapshot).
    #[inline]
    pub(crate) fn load(&self) -> Arc<MatchingSnapshot> {
        self.slot.read().expect("snapshot cell poisoned").clone()
    }

    /// Atomically replace the published snapshot and record the delta that
    /// produced it (spanning the previous snapshot's epoch to `next`'s).
    /// Readers that already hold an `Arc` keep their (older) snapshot
    /// alive; new loads see `next`. Wakes every
    /// [`QueryHandle::wait_for_newer`] waiter. Order matters: slot swap,
    /// then ring push, then pulse bump — a waiter woken by the pulse always
    /// finds the ring entry present.
    pub(crate) fn publish(&self, next: MatchingSnapshot, delta: SnapshotDelta) {
        let to = next.epoch();
        let mut guard = self.slot.write().expect("snapshot cell poisoned");
        let old = std::mem::replace(&mut *guard, Arc::new(next));
        drop(guard);
        let from = old.epoch();
        // If this was the last reference, the old snapshot's deallocation
        // (O(its size)) happens here — outside the lock, so readers are
        // never stalled behind it.
        drop(old);
        {
            let mut ring = self.deltas.lock().expect("delta ring poisoned");
            if ring.len() == DELTA_RING_CAP {
                ring.pop_front();
            }
            ring.push_back((from, to, Arc::new(delta)));
        }
        // Pulse strictly after the slot swap: a waiter woken by this notify
        // is guaranteed to observe (at least) the snapshot just published.
        let mut gen = self.pulse.lock().expect("snapshot pulse poisoned");
        *gen += 1;
        self.published.notify_all();
    }
}

/// The read side of a published structure: cloneable, `Send + Sync`, and
/// never blocks the writer. Obtained from
/// [`DynamicMatching::enable_snapshots`] (or, behind the ingest service,
/// from its `start_serving` terminals).
///
/// The full read surface: [`Self::snapshot`] (grab the newest snapshot),
/// [`Self::epoch`] (just its position), [`Self::wait_for_newer`] (block
/// until progress), and [`Self::changes_since`] (stream deltas). A handle
/// outlives the structure's writer: after the writer is gone it keeps
/// serving the last published snapshot.
///
/// The type parameter has one value, its default [`MatchingSnapshot`]:
/// it only keeps the spelling `QueryHandle<MatchingSnapshot>` valid, and
/// every method is implemented for that type alone.
#[derive(Debug)]
pub struct QueryHandle<T = MatchingSnapshot> {
    cell: Arc<SnapshotCell>,
    snapshot: PhantomData<fn() -> T>,
}

impl Clone for QueryHandle {
    fn clone(&self) -> Self {
        QueryHandle {
            cell: Arc::clone(&self.cell),
            snapshot: PhantomData,
        }
    }
}

impl QueryHandle {
    /// The latest published snapshot (cheap: an `Arc` clone; the snapshot
    /// itself is immutable and stays valid for as long as the caller holds
    /// it, regardless of how many batches apply meanwhile).
    #[inline]
    pub fn snapshot(&self) -> Arc<MatchingSnapshot> {
        self.cell.load()
    }

    /// Epoch of the latest published snapshot: how many updates were
    /// applied when it was captured.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Block until a snapshot with epoch **greater than** `epoch` is
    /// published, or `timeout` elapses — whichever first — and return the
    /// latest snapshot either way (the caller distinguishes progress from
    /// timeout by its epoch). Delta subscriptions ride on this: no polling
    /// loop, one condvar wakeup per publication.
    pub fn wait_for_newer(&self, epoch: u64, timeout: Duration) -> Arc<MatchingSnapshot> {
        let cell = &*self.cell;
        let deadline = Instant::now() + timeout;
        let mut gen = cell.pulse.lock().expect("snapshot pulse poisoned");
        loop {
            // Check the slot while holding the pulse lock: a publisher that
            // swapped the slot after this load cannot complete its pulse
            // bump (and drop its notify) until we wait — no lost wakeup.
            let snap = cell.load();
            if snap.epoch() > epoch {
                return snap;
            }
            let now = Instant::now();
            if now >= deadline {
                return snap;
            }
            gen = cell
                .published
                .wait_timeout(gen, deadline - now)
                .expect("snapshot pulse poisoned")
                .0;
        }
    }

    /// What changed since `epoch`? Returns [`Changes::UpToDate`] if the
    /// latest snapshot *is* epoch `epoch`, a single merged
    /// [`Changes::Delta`] if every publication since `epoch` is still in
    /// the delta ring, and [`Changes::Resync`] (with the latest full
    /// snapshot) if the subscriber fell too far behind — the streaming
    /// pattern net subscriptions use.
    ///
    /// ```
    /// use pbdmm_matching::api::Batch;
    /// use pbdmm_matching::snapshot::Changes;
    /// use pbdmm_matching::DynamicMatching;
    ///
    /// let mut m = DynamicMatching::with_seed(1);
    /// let reader = m.enable_snapshots();
    /// let mut at = reader.epoch(); // subscriber position: epoch 0
    ///
    /// m.apply(Batch::new().inserts([vec![0, 1], vec![2, 3]])).unwrap();
    /// match reader.changes_since(at) {
    ///     Changes::Delta { to_epoch, delta } => {
    ///         assert_eq!(to_epoch, 2);
    ///         assert_eq!(delta.inserted.len(), 2); // both edges arrived
    ///         at = to_epoch;
    ///     }
    ///     _ => unreachable!("one publish behind, ring holds it"),
    /// }
    /// assert!(matches!(reader.changes_since(at), Changes::UpToDate));
    /// ```
    pub fn changes_since(&self, epoch: u64) -> Changes {
        let ring = self.cell.deltas.lock().expect("delta ring poisoned");
        let latest = self.cell.load();
        if latest.epoch() == epoch {
            return Changes::UpToDate;
        }
        // The ring chains from→to; a subscriber can be caught up iff some
        // retained entry starts exactly at its epoch.
        let Some(start) = ring.iter().position(|&(from, _, _)| from == epoch) else {
            return Changes::Resync(latest);
        };
        let mut merged = (*ring[start].2).clone();
        let mut to = ring[start].1;
        for (_, entry_to, delta) in ring.iter().skip(start + 1) {
            merged = SnapshotDelta::merge(merged, delta);
            to = *entry_to;
        }
        Changes::Delta {
            to_epoch: to,
            delta: merged,
        }
    }
}

/// Summary counters of a [`MatchingSnapshot`] — the `stats()` answer the
/// serving layer returns without touching any per-edge data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Updates applied when the snapshot was captured.
    pub epoch: u64,
    /// Live edges.
    pub num_edges: usize,
    /// Matched edges.
    pub matching_size: usize,
}

// ---------------------------------------------------------------------------
// MatchingSnapshot
// ---------------------------------------------------------------------------

/// A compact immutable snapshot of a [`DynamicMatching`]: the live edge
/// set, the per-vertex matched-edge assignment, and the matched edges with
/// their vertex lists, each held in a chunked copy-on-write map
/// (`CowMap`) in canonical form so snapshots of equal states compare
/// equal.
///
/// Point queries are `O(1)` chunk lookups; the snapshot shares *chunks*
/// (not mutable state) with its neighbors in the publication history, so
/// readers keep any version alive (via [`Arc`]) for as long as they like
/// without blocking writers, and producing the next version via
/// [`Self::apply_delta`] costs `O(batch)` — not `O(state)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingSnapshot {
    epoch: u64,
    /// Live edge ids (key = raw edge id).
    live: CowMap<()>,
    /// Covering matched edge per vertex (key = vertex id).
    matched_of: CowMap<EdgeId>,
    /// Vertex list per matched edge (key = raw edge id).
    matched_edges: CowMap<EdgeVertices>,
}

impl MatchingSnapshot {
    /// Capture the current state of `m` at its current epoch. Cost is
    /// linear (plus sorting) in the *live* state — edges and matched
    /// vertices — independent of how large the vertex id space once grew.
    pub fn capture(m: &DynamicMatching) -> Self {
        let s = m.structure();
        let mut live: Vec<u64> = s.edges.ids().iter().map(|e| e.raw()).collect();
        live.sort_unstable();
        let mut matched_pairs: Vec<(EdgeId, EdgeVertices)> = s
            .matches
            .ids()
            .iter()
            .map(|&e| (e, s.edges[e].vertices.clone()))
            .collect();
        matched_pairs.sort_unstable_by_key(|&(e, _)| e);
        // Matched edges are vertex-disjoint (Invariant: one covering match
        // per vertex), so emitting each match's vertices yields every
        // covered vertex exactly once — no dense vertex-table scan needed.
        let mut matched_of: Vec<(u64, EdgeId)> = matched_pairs
            .iter()
            .flat_map(|(e, vs)| vs.iter().map(move |&v| (v as u64, *e)))
            .collect();
        matched_of.sort_unstable_by_key(|&(v, _)| v);
        MatchingSnapshot {
            epoch: m.epoch(),
            live: CowMap::from_sorted(live.into_iter().map(|e| (e, ()))),
            matched_of: CowMap::from_sorted(matched_of),
            matched_edges: CowMap::from_sorted(
                matched_pairs.into_iter().map(|(e, vs)| (e.raw(), vs)),
            ),
        }
    }

    /// Produce the snapshot at `delta.to_epoch` by patching this one in
    /// `O(delta)`: all untouched chunks are shared. `delta.from_epoch`
    /// must equal this snapshot's epoch (debug-asserted). Removals of
    /// absent ids are no-ops, so merged deltas apply cleanly.
    pub fn apply_delta(&self, delta: &SnapshotDelta) -> MatchingSnapshot {
        debug_assert_eq!(
            delta.from_epoch, self.epoch,
            "delta does not start at this snapshot's epoch"
        );
        // Removals pushed before inserts per map; canonicalize_edits keeps
        // the *last* edit per key, so a recycled id resolves to its insert.
        let mut live_edits: Vec<(u64, Option<()>)> = Vec::new();
        live_edits.extend(delta.deleted.iter().map(|e| (e.raw(), None)));
        live_edits.extend(delta.inserted.iter().map(|e| (e.raw(), Some(()))));
        canonicalize_edits(&mut live_edits);

        let mut edge_edits: Vec<(u64, Option<EdgeVertices>)> = Vec::new();
        edge_edits.extend(delta.unmatched.iter().map(|e| (e.raw(), None)));
        edge_edits.extend(
            delta
                .matched
                .iter()
                .map(|(e, vs)| (e.raw(), Some(vs.clone()))),
        );
        canonicalize_edits(&mut edge_edits);

        // Vertex unbindings resolve the *old* vertex lists from this (base)
        // snapshot; an unmatch of an edge we never saw matched is a no-op.
        let mut of_edits: Vec<(u64, Option<EdgeId>)> = Vec::new();
        for e in &delta.unmatched {
            if let Some(vs) = self.matched_edges.get(e.raw()) {
                of_edits.extend(vs.iter().map(|&v| (v as u64, None)));
            }
        }
        for (e, vs) in &delta.matched {
            of_edits.extend(vs.iter().map(|&v| (v as u64, Some(*e))));
        }
        canonicalize_edits(&mut of_edits);

        MatchingSnapshot {
            epoch: delta.to_epoch,
            live: self.live.patch(&live_edits),
            matched_of: self.matched_of.patch(&of_edits),
            matched_edges: self.matched_edges.patch(&edge_edits),
        }
    }

    /// Updates applied when this snapshot was captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.live.len()
    }

    /// Number of matched edges.
    pub fn matching_size(&self) -> usize {
        self.matched_edges.len()
    }

    /// Summary counters.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epoch: self.epoch,
            num_edges: self.num_edges(),
            matching_size: self.matching_size(),
        }
    }

    /// Was `e` a live edge at this epoch?
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.live.contains(e.raw())
    }

    /// Was `e` a matched edge at this epoch?
    pub fn is_matched_edge(&self, e: EdgeId) -> bool {
        self.matched_edges.contains(e.raw())
    }

    /// Was vertex `v` covered by the matching at this epoch?
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.matched_edge_of(v).is_some()
    }

    /// The matched edge covering `v` at this epoch, if any.
    pub fn matched_edge_of(&self, v: VertexId) -> Option<EdgeId> {
        self.matched_of.get(v as u64).copied()
    }

    /// Vertex list of a matched edge (canonical order), if `e` was matched.
    pub fn edge_vertices(&self, e: EdgeId) -> Option<&[VertexId]> {
        self.matched_edges.get(e.raw()).map(|vs| vs.as_slice())
    }

    /// The partner of `v`: the first *other* vertex of the matched edge
    /// covering `v` (for a graph edge `{u, v}` this is the unique partner;
    /// for a hyperedge use [`Self::partners`] to see all co-members).
    /// `None` if `v` is uncovered or its matched edge is the singleton
    /// `{v}`.
    pub fn partner(&self, v: VertexId) -> Option<VertexId> {
        self.partners(v)?.iter().copied().find(|&u| u != v)
    }

    /// All vertices of the matched edge covering `v` (including `v`
    /// itself), or `None` if `v` is uncovered.
    pub fn partners(&self, v: VertexId) -> Option<&[VertexId]> {
        self.edge_vertices(self.matched_edge_of(v)?)
    }

    /// Live edge ids, ascending.
    pub fn live_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.live.iter().map(|(e, _)| EdgeId(e))
    }

    /// `(vertex, covering matched edge)` pairs, ascending by vertex.
    pub fn matched_vertices(&self) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.matched_of.iter().map(|(v, &e)| (v as VertexId, e))
    }

    /// Matched edges with their vertex lists, ascending by edge id.
    pub fn matched_edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeVertices)> + '_ {
        self.matched_edges.iter().map(|(e, vs)| (EdgeId(e), vs))
    }

    /// Internal cross-consistency of the snapshot itself: every matched
    /// edge is live, covers exactly its own vertices in the per-vertex
    /// table, and no vertex points at a non-matched edge. Readers use this
    /// as the "query failed" predicate under concurrent load — a published
    /// snapshot must *always* pass.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (e, vs) in self.matched_edges() {
            if !self.contains_edge(e) {
                return Err(format!("matched edge {e} is not live"));
            }
            for &v in vs.iter() {
                if self.matched_edge_of(v) != Some(e) {
                    return Err(format!("vertex {v} of matched edge {e} not mapped to it"));
                }
            }
        }
        for (v, e) in self.matched_vertices() {
            if !self.is_matched_edge(e) {
                return Err(format!("vertex {v} mapped to non-matched edge {e}"));
            }
        }
        Ok(())
    }
}

impl DynamicMatching {
    /// Start publishing: capture the current state immediately (so readers
    /// never observe "no snapshot") and re-publish after every subsequent
    /// `apply`, in `O(batch)`. Returns a cloneable [`QueryHandle`]; calling
    /// this again returns a handle onto the same publication point.
    pub fn enable_snapshots(&mut self) -> QueryHandle {
        QueryHandle {
            cell: self.snapshot_cell(),
            snapshot: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Batch;

    #[test]
    fn snapshot_reflects_state_and_epoch() {
        let mut m = DynamicMatching::with_seed(1);
        let r = m.enable_snapshots();
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.snapshot().num_edges(), 0);

        let out = m
            .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]))
            .unwrap();
        let snap = r.snapshot();
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.num_edges(), 3);
        assert_eq!(snap.matching_size(), m.matching_size());
        snap.check_consistency().unwrap();
        for &id in &out.inserted {
            assert!(snap.contains_edge(id));
        }

        // Deleting bumps the epoch by the batch size and republishes.
        m.apply(Batch::new().delete(out.inserted[0])).unwrap();
        let snap2 = r.snapshot();
        assert_eq!(snap2.epoch(), 4);
        assert!(!snap2.contains_edge(out.inserted[0]));
        // The old snapshot is untouched (immutability).
        assert!(snap.contains_edge(out.inserted[0]));
        assert_eq!(snap.epoch(), 3);
    }

    #[test]
    fn point_queries_match_the_live_structure() {
        let mut m = DynamicMatching::with_seed(2);
        let r = m.enable_snapshots();
        m.insert_edges(&[vec![0, 1], vec![1, 2], vec![3, 4, 5], vec![6]]);
        let snap = r.snapshot();
        for v in 0..8u32 {
            assert_eq!(snap.matched_edge_of(v), m.matched_edge_of(v), "vertex {v}");
            assert_eq!(snap.is_matched(v), m.matched_edge_of(v).is_some());
        }
        // partner(): graph edge partners are symmetric; singleton has none.
        if let Some(p) = snap.partner(0) {
            assert_eq!(snap.partner(p), Some(0));
        }
        if snap.matched_edge_of(6).is_some() {
            assert_eq!(snap.partner(6), None, "singleton edge has no partner");
            assert_eq!(snap.partners(6), Some(&[6u32][..]));
        }
    }

    #[test]
    fn snapshots_of_equal_states_compare_equal() {
        // Same seed, same batches — captured snapshots are identical values.
        let build = || {
            let mut m = DynamicMatching::with_seed(9);
            m.apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![0, 2]]))
                .unwrap();
            m
        };
        let (a, b) = (build(), build());
        assert_eq!(MatchingSnapshot::capture(&a), MatchingSnapshot::capture(&b));
    }

    #[test]
    fn legacy_wrappers_also_publish() {
        let mut m = DynamicMatching::with_seed(3);
        let r = m.enable_snapshots();
        let ids = m.insert_edges(&[vec![0, 1], vec![1, 2]]);
        assert_eq!(r.epoch(), 2);
        m.delete_edges(&ids);
        assert_eq!(r.epoch(), 4);
        assert_eq!(r.snapshot().num_edges(), 0);
    }

    #[test]
    fn enable_twice_shares_one_cell() {
        let mut m = DynamicMatching::with_seed(4);
        let r1 = m.enable_snapshots();
        m.insert_edges(&[vec![0, 1]]);
        let r2 = m.enable_snapshots();
        assert_eq!(r1.epoch(), r2.epoch());
        m.insert_edges(&[vec![2, 3]]);
        assert_eq!(r1.epoch(), 2);
        assert_eq!(r2.epoch(), 2);
    }

    #[test]
    fn wait_for_newer_times_out_at_the_current_epoch() {
        let mut m = DynamicMatching::with_seed(6);
        let r = m.enable_snapshots();
        m.insert_edges(&[vec![0, 1]]);
        // Nothing newer than epoch 1 will ever be published here: the call
        // must come back at the deadline with the epoch-1 snapshot.
        let snap = r.wait_for_newer(1, Duration::from_millis(10));
        assert_eq!(snap.epoch(), 1);
        // Asking about an older epoch returns immediately.
        let snap = r.wait_for_newer(0, Duration::from_secs(60));
        assert_eq!(snap.epoch(), 1);
    }

    #[test]
    fn wait_for_newer_wakes_on_publication() {
        let mut m = DynamicMatching::with_seed(7);
        let r = m.enable_snapshots();
        m.insert_edges(&[vec![0, 1]]);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| r.wait_for_newer(1, Duration::from_secs(60)));
            // Publish epoch 2 while the waiter blocks; it must observe it
            // long before the 60s deadline.
            std::thread::sleep(Duration::from_millis(20));
            m.insert_edges(&[vec![2, 3]]);
            let snap = waiter.join().unwrap();
            assert_eq!(snap.epoch(), 2);
            assert!(snap.is_matched(2));
        });
    }

    #[test]
    fn readers_on_other_threads_never_block_the_writer() {
        let mut m = DynamicMatching::with_seed(5);
        let r = m.enable_snapshots();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let r = r.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = r.snapshot();
                        assert!(snap.epoch() >= last, "epochs must be monotone");
                        last = snap.epoch();
                        snap.check_consistency().unwrap();
                    }
                });
            }
            let mut ids = Vec::new();
            for wave in 0..20u32 {
                let out = m
                    .apply(Batch::new().inserts([
                        vec![wave * 3, wave * 3 + 1],
                        vec![wave * 3 + 1, wave * 3 + 2],
                    ]))
                    .unwrap();
                ids.extend(out.inserted);
                if ids.len() >= 4 {
                    let victims: Vec<EdgeId> = ids.drain(..2).collect();
                    m.apply(Batch::new().deletes(victims)).unwrap();
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(r.epoch(), m.epoch());
    }

    // -- CowMap ------------------------------------------------------------

    #[test]
    fn cowmap_from_sorted_and_get() {
        let keys: Vec<u64> = vec![0, 1, 63, 64, 65, 4095, 4096, 1 << 20];
        let map = CowMap::from_sorted(keys.iter().map(|&k| (k, k * 10)));
        assert_eq!(map.len(), keys.len());
        for &k in &keys {
            assert_eq!(map.get(k), Some(&(k * 10)), "key {k}");
        }
        assert!(!map.contains(2));
        assert!(!map.contains(4097));
        let collected: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        assert_eq!(collected, keys, "iter is ascending and complete");
    }

    #[test]
    fn cowmap_patch_is_canonical() {
        // Two maps holding the same content must compare equal regardless
        // of the patch history that produced them.
        let base = CowMap::from_sorted((0..200u64).map(|k| (k, ())));
        // Remove the tail chunk entirely, then everything past 100.
        let edits: Vec<(u64, Option<()>)> = (100..200u64).map(|k| (k, None)).collect();
        let shrunk = base.patch(&edits);
        let direct = CowMap::from_sorted((0..100u64).map(|k| (k, ())));
        assert_eq!(shrunk, direct);
        assert_eq!(shrunk.len(), 100);
        // Remove-of-absent and insert-of-present are tolerated no-ops.
        let noop = shrunk.patch(&[(50, Some(())), (5000, None)]);
        assert_eq!(noop, shrunk);
        assert_eq!(noop.len(), 100);
        // Growing into a brand-new group works and trims back down.
        let grown = shrunk.patch(&[(100_000, Some(()))]);
        assert!(grown.contains(100_000));
        assert_eq!(grown.patch(&[(100_000, None)]), shrunk);
    }

    #[test]
    fn cowmap_patch_shares_untouched_chunks() {
        let base = CowMap::from_sorted((0..10_000u64).map(|k| (k, k)));
        let patched = base.patch(&[(3, None), (9_999, Some(77))]);
        assert_eq!(patched.len(), 9_999);
        assert_eq!(patched.get(9_999), Some(&77));
        assert!(!patched.contains(3));
        // Base unchanged (persistence).
        assert_eq!(base.get(3), Some(&3));
        assert_eq!(base.get(9_999), Some(&9_999));
    }

    // -- SnapshotDelta -----------------------------------------------------

    fn delta(
        span: (u64, u64),
        inserted: &[u64],
        deleted: &[u64],
        matched: &[(u64, &[u32])],
        unmatched: &[u64],
    ) -> SnapshotDelta {
        SnapshotDelta {
            from_epoch: span.0,
            to_epoch: span.1,
            inserted: inserted.iter().map(|&e| EdgeId(e)).collect(),
            deleted: deleted.iter().map(|&e| EdgeId(e)).collect(),
            matched: matched
                .iter()
                .map(|&(e, vs)| (EdgeId(e), vs.to_vec()))
                .collect(),
            unmatched: unmatched.iter().map(|&e| EdgeId(e)).collect(),
        }
    }

    #[test]
    fn delta_merge_cancels_and_accumulates() {
        // Older inserts+matches edge 1; newer deletes it and matches edge 2.
        let older = delta((0, 2), &[1], &[], &[(1, &[0, 1])], &[]);
        let newer = delta((2, 4), &[2], &[1], &[(2, &[2, 3])], &[1]);
        let merged = SnapshotDelta::merge(older, &newer);
        assert_eq!(merged.from_epoch, 0);
        assert_eq!(merged.to_epoch, 4);
        // Edge 1 was never visible across the merged span's endpoints: its
        // insert is cancelled, its delete/unmatch retained (idempotent).
        assert_eq!(merged.inserted, vec![EdgeId(2)]);
        assert_eq!(merged.deleted, vec![EdgeId(1)]);
        assert_eq!(merged.matched, vec![(EdgeId(2), vec![2, 3])]);
        assert_eq!(merged.unmatched, vec![EdgeId(1)]);
    }

    #[test]
    fn delta_merge_newer_binding_wins_on_rebind() {
        // Edge 5 matched as {0,1} in the older span, rebound to {0,2} in
        // the newer (unmatched + matched in one delta).
        let older = delta((0, 1), &[5], &[], &[(5, &[0, 1])], &[]);
        let newer = delta((1, 2), &[], &[], &[(5, &[0, 2])], &[5]);
        let merged = SnapshotDelta::merge(older, &newer);
        assert_eq!(merged.matched, vec![(EdgeId(5), vec![0, 2])]);
        assert_eq!(merged.unmatched, vec![EdgeId(5)]);
    }

    #[test]
    fn merged_delta_applies_like_the_sequence() {
        // apply(merge(a, b)) == apply(b) ∘ apply(a) on a real snapshot.
        let mut m = DynamicMatching::with_seed(11);
        let r = m.enable_snapshots();
        let base = r.snapshot();
        let mut deltas: Vec<SnapshotDelta> = Vec::new();
        let out = m
            .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]))
            .unwrap();
        if let Changes::Delta { delta, .. } = r.changes_since(0) {
            deltas.push(delta);
        }
        m.apply(Batch::new().delete(out.inserted[1])).unwrap();
        if let Changes::Delta { delta, .. } = r.changes_since(3) {
            deltas.push(delta);
        }
        assert_eq!(deltas.len(), 2, "both publications produced deltas");
        let stepped = base.apply_delta(&deltas[0]).apply_delta(&deltas[1]);
        let merged = SnapshotDelta::merge(deltas[0].clone(), &deltas[1]);
        let jumped = base.apply_delta(&merged);
        assert_eq!(stepped, jumped);
        assert_eq!(jumped, *r.snapshot());
    }

    // -- changes_since -----------------------------------------------------

    #[test]
    fn changes_since_reports_up_to_date_delta_and_resync() {
        let mut m = DynamicMatching::with_seed(12);
        let r = m.enable_snapshots();
        assert!(matches!(r.changes_since(0), Changes::UpToDate));

        m.insert_edges(&[vec![0, 1]]);
        m.insert_edges(&[vec![2, 3]]);
        match r.changes_since(0) {
            Changes::Delta { to_epoch, delta } => {
                assert_eq!(to_epoch, 2);
                assert_eq!(delta.from_epoch, 0);
                assert_eq!(delta.to_epoch, 2);
                assert_eq!(delta.inserted.len(), 2);
            }
            other => panic!("expected merged delta, got {other:?}"),
        }
        match r.changes_since(1) {
            Changes::Delta { to_epoch, delta } => {
                assert_eq!(to_epoch, 2);
                assert_eq!(delta.inserted.len(), 1);
            }
            other => panic!("expected single delta, got {other:?}"),
        }
        assert!(matches!(r.changes_since(2), Changes::UpToDate));
        // An epoch that never was a publication boundary → resync.
        match r.changes_since(7) {
            Changes::Resync(snap) => assert_eq!(snap.epoch(), 2),
            other => panic!("expected resync, got {other:?}"),
        }
    }

    #[test]
    fn changes_since_resyncs_past_the_ring_capacity() {
        let mut m = DynamicMatching::with_seed(13);
        let r = m.enable_snapshots();
        for i in 0..(DELTA_RING_CAP as u32 + 8) {
            m.insert_edges(&[vec![2 * i, 2 * i + 1]]);
        }
        // Epoch 0 has rolled out of the ring.
        assert!(matches!(r.changes_since(0), Changes::Resync(_)));
        // The most recent boundary is still served incrementally.
        let latest = r.epoch();
        assert!(matches!(r.changes_since(latest - 1), Changes::Delta { .. }));
    }

    #[test]
    fn apply_delta_tracks_capture_across_random_churn() {
        let mut m = DynamicMatching::with_seed(14);
        let r = m.enable_snapshots();
        let mut patched = (*r.snapshot()).clone();
        let mut ids: Vec<EdgeId> = Vec::new();
        for wave in 0..30u32 {
            let out = m
                .apply(Batch::new().inserts([
                    vec![wave % 7, wave % 11 + 7],
                    vec![wave % 5 + 18, wave % 3 + 23],
                ]))
                .unwrap();
            ids.extend(out.inserted);
            if wave % 3 == 2 && ids.len() >= 3 {
                let victims: Vec<EdgeId> = ids.drain(..3).collect();
                m.apply(Batch::new().deletes(victims)).unwrap();
            }
            // Catch up via deltas only; must exactly track capture.
            match r.changes_since(patched.epoch()) {
                Changes::Delta { delta, .. } => patched = patched.apply_delta(&delta),
                Changes::UpToDate => {}
                Changes::Resync(snap) => patched = (*snap).clone(),
            }
            assert_eq!(patched, *r.snapshot(), "wave {wave}");
            patched.check_consistency().unwrap();
        }
    }
}
