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

/// Keys per leaf chunk (one bit each in [`Chunk::present`]).
const CHUNK: usize = 64;
/// Chunks per spine group.
const GROUP: usize = 64;
/// Keys per spine group.
const GROUP_SPAN: u64 = (CHUNK * GROUP) as u64;

/// A leaf chunk: a fixed-width window of `CHUNK` consecutive keys, stored
/// as plain data in one allocation. `slots[k % CHUNK]` holds key `k` when
/// bit `k % CHUNK` of `present` is set; an absent slot holds
/// `V::default()`, so the derived `PartialEq` is content equality. For the
/// `Copy` values the snapshot maps hold, cloning a chunk is one memcpy and
/// dropping it is one free.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk<V> {
    present: u64,
    slots: [V; CHUNK],
}

impl<V: Default> Chunk<V> {
    fn empty() -> Self {
        Chunk {
            present: 0,
            slots: std::array::from_fn(|_| V::default()),
        }
    }
}

type Group<V> = Vec<Option<Arc<Chunk<V>>>>;

/// A persistent (copy-on-write) map from dense `u64` keys to values,
/// stored as a two-level spine of `Arc`-shared fixed-size chunks.
///
/// `patch` clones only the spine and the chunks an edit *changes*: a run
/// of edits that leaves its chunk as it was (a removal of an absent key,
/// an upsert of the value already there) keeps the chunk shared, and a
/// group none of whose chunks changes stays shared too. So producing the
/// next version costs `O(edits + changed chunks · CHUNK + spine)`
/// regardless of total map size — the mechanism behind O(batch) snapshot
/// publication.
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

impl<V: Clone + Default + Eq> CowMap<V> {
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

    /// The chunk holding `key`, if any key of its window is present.
    fn chunk(&self, key: u64) -> Option<&Arc<Chunk<V>>> {
        let group = self.groups.get((key / GROUP_SPAN) as usize)?.as_ref()?;
        group.get((key as usize / CHUNK) % GROUP)?.as_ref()
    }

    /// Look up `key`. O(1).
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let chunk = self.chunk(key)?;
        let s = key as usize % CHUNK;
        (chunk.present >> s & 1 == 1).then(|| &chunk.slots[s])
    }

    /// Is `key` present? O(1).
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Build from `(key, value)` pairs with strictly ascending keys, in one
    /// linear pass.
    pub(crate) fn from_sorted<I: IntoIterator<Item = (u64, V)>>(pairs: I) -> Self {
        let mut map = CowMap::new();
        let mut chunk = Chunk::empty();
        let mut open: Option<u64> = None; // key / CHUNK of the open chunk
        let flush = |map: &mut CowMap<V>, chunk: &mut Chunk<V>, idx: u64| {
            let done = std::mem::replace(chunk, Chunk::empty());
            let (g, c) = ((idx as usize) / GROUP, (idx as usize) % GROUP);
            if map.groups.len() <= g {
                map.groups.resize(g + 1, None);
            }
            let group = Arc::make_mut(map.groups[g].get_or_insert_with(Arc::default));
            group.resize(c, None);
            group.push(Some(Arc::new(done)));
        };
        let mut prev: Option<u64> = None;
        for (key, value) in pairs {
            debug_assert!(
                prev.is_none_or(|p| key > p),
                "from_sorted keys must be strictly ascending"
            );
            prev = Some(key);
            let idx = key / CHUNK as u64;
            match open {
                Some(o) if o == idx => {}
                Some(o) => {
                    flush(&mut map, &mut chunk, o);
                    open = Some(idx);
                }
                None => open = Some(idx),
            }
            let s = key as usize % CHUNK;
            chunk.present |= 1 << s;
            chunk.slots[s] = value;
            map.len += 1;
        }
        if let Some(o) = open {
            flush(&mut map, &mut chunk, o);
        }
        map
    }

    /// Produce the next version with `edits` applied: `(key, Some(v))`
    /// upserts, `(key, None)` removes. Edits must be sorted by key and
    /// unique per key. Removing an absent key and re-inserting a present
    /// one are tolerated (`len` only moves on real membership changes).
    ///
    /// Cost: `O(edits + changed chunks · CHUNK + changed groups · GROUP +
    /// spine)`; every chunk (and group) the edits leave as it was is
    /// shared with `self`.
    pub(crate) fn patch(&self, edits: &[(u64, Option<V>)]) -> Self {
        debug_assert!(
            edits.windows(2).all(|w| w[0].0 < w[1].0),
            "patch edits must be sorted and unique by key"
        );
        let mut next = self.clone();
        for run in edits.chunk_by(|a, b| a.0 / GROUP_SPAN == b.0 / GROUP_SPAN) {
            let g = (run[0].0 / GROUP_SPAN) as usize;
            let base = self.groups.get(g).and_then(Option::as_ref);
            // Cloned on the first chunk that changes; `None` while none has.
            let mut group: Option<Group<V>> = None;
            for run in run.chunk_by(|a, b| a.0 / CHUNK as u64 == b.0 / CHUNK as u64) {
                let c = (run[0].0 as usize / CHUNK) % GROUP;
                let old = base.and_then(|grp| grp.get(c)).and_then(Option::as_ref);
                let Some(chunk) = patch_chunk(old, run, &mut next.len) else {
                    continue;
                };
                let group =
                    group.get_or_insert_with(|| base.map(|g| (**g).clone()).unwrap_or_default());
                if group.len() <= c {
                    group.resize(c + 1, None);
                }
                group[c] = chunk;
            }
            let Some(mut group) = group else {
                continue; // no chunk of this group changed: keep it shared
            };
            while group.last().is_some_and(Option::is_none) {
                group.pop();
            }
            if next.groups.len() <= g {
                next.groups.resize(g + 1, None);
            }
            next.groups[g] = (!group.is_empty()).then(|| Arc::new(group));
        }
        while next.groups.last().is_some_and(Option::is_none) {
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
                        let base = g as u64 * GROUP_SPAN + (c * CHUNK) as u64;
                        set_bits(chunk.present).map(move |s| (base + s as u64, &chunk.slots[s]))
                    })
                })
            })
        })
    }
}

/// Apply one chunk's run of edits to `old` (the base chunk, `None` if its
/// window is empty), adding the membership change to `len`. Returns `None`
/// when no edit changes the chunk, so the caller keeps `old` shared;
/// otherwise the chunk to store, itself `None` once the window is empty.
fn patch_chunk<V: Clone + Default + Eq>(
    old: Option<&Arc<Chunk<V>>>,
    run: &[(u64, Option<V>)],
    len: &mut usize,
) -> Option<Option<Arc<Chunk<V>>>> {
    let was = old.map_or(0, |c| c.present);
    let mut present = was;
    let mut changed = false;
    for (key, v) in run {
        let bit = 1u64 << (*key as usize % CHUNK);
        match v {
            Some(v) => {
                changed |=
                    was & bit == 0 || old.is_some_and(|c| c.slots[*key as usize % CHUNK] != *v);
                present |= bit;
            }
            None => {
                changed |= was & bit != 0;
                present &= !bit;
            }
        }
    }
    if !changed {
        return None;
    }
    *len = *len + present.count_ones() as usize - was.count_ones() as usize;
    if present == 0 {
        return Some(None);
    }
    // `make_mut` clones a shared chunk straight into its new allocation.
    let mut chunk = old.map_or_else(|| Arc::new(Chunk::empty()), Arc::clone);
    let writable = Arc::make_mut(&mut chunk);
    writable.present = present;
    for (key, v) in run {
        writable.slots[*key as usize % CHUNK] = v.clone().unwrap_or_default();
    }
    Some(Some(chunk))
}

/// The positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let s = word.trailing_zeros() as usize;
            word &= word - 1;
            s
        })
    })
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
        // The old snapshot's deallocation frees only what `next` does not
        // share — the chunks and groups the batch replaced — so it is
        // O(chunks replaced). It runs outside the lock, so readers never
        // stall behind it, and mostly not here: the publisher still holds
        // the base it patched (`prev` in `maybe_publish_snapshot`) and
        // frees it when it drops that, or a reader frees it later.
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

/// Vertices a `matched_edges` slot holds in place: every graph edge and
/// every rank-3 hyperedge fits.
const INLINE: usize = 3;

/// A matched edge's vertex list as a `matched_edges` slot holds it: the
/// length plus up to [`INLINE`] vertices in place (16 bytes, no heap
/// pointer). A longer list keeps only its length here; its vertices live
/// in [`MatchingSnapshot`]'s `spilled` map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Verts {
    len: u32,
    inline: [VertexId; INLINE],
}

impl Verts {
    fn new(vs: &[VertexId]) -> Self {
        let mut inline = [0; INLINE];
        if vs.len() <= INLINE {
            inline[..vs.len()].copy_from_slice(vs);
        }
        Verts {
            len: vs.len() as u32,
            inline,
        }
    }

    fn spills(&self) -> bool {
        self.len as usize > INLINE
    }
}

/// A spilled vertex list (rank > [`INLINE`]); a present slot always holds
/// `Some`.
type Spill = Option<Arc<[VertexId]>>;

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
    /// Covering matched edge per vertex (key = vertex id, value = raw edge
    /// id).
    matched_of: CowMap<u64>,
    /// Vertex list per matched edge (key = raw edge id), inline up to rank
    /// [`INLINE`].
    matched_edges: CowMap<Verts>,
    /// Vertex lists of the matched edges of rank above [`INLINE`] (key =
    /// raw edge id); empty while every edge has rank at most [`INLINE`].
    spilled: CowMap<Spill>,
}

impl MatchingSnapshot {
    /// Capture the current state of `m` at its current epoch. Cost is
    /// linear (plus sorting) in the *live* state — edges and matched
    /// vertices — independent of how large the vertex id space once grew.
    pub fn capture(m: &DynamicMatching) -> Self {
        let s = m.structure();
        let mut live: Vec<u64> = s.edges.ids().iter().map(|e| e.raw()).collect();
        live.sort_unstable();
        let mut matched_pairs: Vec<(u64, &[VertexId])> = s
            .matches
            .ids()
            .iter()
            .map(|&e| (e.raw(), s.edges[e].vertices.as_slice()))
            .collect();
        matched_pairs.sort_unstable_by_key(|&(e, _)| e);
        // Matched edges are vertex-disjoint (Invariant: one covering match
        // per vertex), so emitting each match's vertices yields every
        // covered vertex exactly once — no dense vertex-table scan needed.
        let mut matched_of: Vec<(u64, u64)> = matched_pairs
            .iter()
            .flat_map(|&(e, vs)| vs.iter().map(move |&v| (v as u64, e)))
            .collect();
        matched_of.sort_unstable_by_key(|&(v, _)| v);
        MatchingSnapshot {
            epoch: m.epoch(),
            live: CowMap::from_sorted(live.into_iter().map(|e| (e, ()))),
            matched_of: CowMap::from_sorted(matched_of),
            matched_edges: CowMap::from_sorted(
                matched_pairs.iter().map(|&(e, vs)| (e, Verts::new(vs))),
            ),
            spilled: CowMap::from_sorted(
                matched_pairs
                    .iter()
                    .filter(|(_, vs)| vs.len() > INLINE)
                    .map(|&(e, vs)| (e, Some(Arc::from(vs)))),
            ),
        }
    }

    /// Produce the snapshot at `delta.to_epoch` by patching this one in
    /// `O(delta)`: all unchanged chunks are shared. `delta.from_epoch`
    /// must equal this snapshot's epoch (debug-asserted). Removals of
    /// absent ids are no-ops, so merged deltas apply cleanly.
    pub fn apply_delta(&self, delta: &SnapshotDelta) -> MatchingSnapshot {
        debug_assert_eq!(
            delta.from_epoch, self.epoch,
            "delta does not start at this snapshot's epoch"
        );
        // Removals pushed before inserts per map; canonicalize_edits keeps
        // the *last* edit per key, so a recycled id resolves to its insert.
        let mut live_edits: Vec<(u64, Option<()>)> =
            Vec::with_capacity(delta.deleted.len() + delta.inserted.len());
        live_edits.extend(delta.deleted.iter().map(|e| (e.raw(), None)));
        live_edits.extend(delta.inserted.iter().map(|e| (e.raw(), Some(()))));
        canonicalize_edits(&mut live_edits);

        // Vertex unbindings resolve the *old* vertex lists from this (base)
        // snapshot; an unmatch of an edge we never saw matched is a no-op.
        let mut edge_edits: Vec<(u64, Option<Verts>)> =
            Vec::with_capacity(delta.unmatched.len() + delta.matched.len());
        let mut spill_edits: Vec<(u64, Option<Spill>)> = Vec::new();
        let mut of_edits: Vec<(u64, Option<u64>)> = Vec::new();
        for e in &delta.unmatched {
            edge_edits.push((e.raw(), None));
            if let Some(vs) = self.edge_vertices(*e) {
                of_edits.extend(vs.iter().map(|&v| (v as u64, None)));
                if vs.len() > INLINE {
                    spill_edits.push((e.raw(), None));
                }
            }
        }
        for (e, vs) in &delta.matched {
            let verts = Verts::new(vs);
            edge_edits.push((e.raw(), Some(verts)));
            if verts.spills() {
                spill_edits.push((e.raw(), Some(Some(Arc::from(vs.as_slice())))));
            }
            of_edits.extend(vs.iter().map(|&v| (v as u64, Some(e.raw()))));
        }
        canonicalize_edits(&mut edge_edits);
        canonicalize_edits(&mut spill_edits);
        canonicalize_edits(&mut of_edits);

        MatchingSnapshot {
            epoch: delta.to_epoch,
            live: self.live.patch(&live_edits),
            matched_of: self.matched_of.patch(&of_edits),
            matched_edges: self.matched_edges.patch(&edge_edits),
            spilled: self.spilled.patch(&spill_edits),
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
        self.matched_of.get(v as u64).map(|&e| EdgeId(e))
    }

    /// Vertex list of a matched edge (canonical order), if `e` was matched.
    pub fn edge_vertices(&self, e: EdgeId) -> Option<&[VertexId]> {
        let verts = self.matched_edges.get(e.raw())?;
        Some(self.vertices_of(e.raw(), verts))
    }

    /// The vertex list `verts` stands for: in place, or spilled.
    fn vertices_of<'a>(&'a self, e: u64, verts: &'a Verts) -> &'a [VertexId] {
        if verts.spills() {
            self.spilled
                .get(e)
                .and_then(Option::as_deref)
                .expect("a spilled vertex list is in the spill map")
        } else {
            &verts.inline[..verts.len as usize]
        }
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
        self.matched_of
            .iter()
            .map(|(v, &e)| (v as VertexId, EdgeId(e)))
    }

    /// Matched edges with their vertex lists, ascending by edge id.
    pub fn matched_edges(&self) -> impl Iterator<Item = (EdgeId, &[VertexId])> + '_ {
        self.matched_edges
            .iter()
            .map(|(e, verts)| (EdgeId(e), self.vertices_of(e, verts)))
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
    use pbdmm_primitives::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Cases per property: 64 by default; the nightly CI job raises it via
    /// `PBDMM_PROP_CASES` for deeper sweeps at the same fixed seeds.
    fn cases() -> u64 {
        std::env::var("PBDMM_PROP_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64)
    }

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

    impl<V: Clone + Default + Eq> CowMap<V> {
        /// Every group's and every chunk's address, in key order: equal
        /// lists mean each is `Arc::ptr_eq` to its counterpart.
        fn shared_ptrs(&self) -> (Vec<*const Group<V>>, Vec<*const Chunk<V>>) {
            let groups = self.groups.iter().flatten();
            let chunks = groups.clone().flat_map(|g| g.iter().flatten());
            (
                groups.map(Arc::as_ptr).collect(),
                chunks.map(Arc::as_ptr).collect(),
            )
        }
    }

    /// Drive `patch` with seeded random edit sequences — inserts, removes,
    /// re-inserts of the present value, removes of absent keys — over a
    /// `BTreeMap` model. Every version must equal `from_sorted` of the
    /// model's content, with the same `len`; the version it was patched
    /// from must be unchanged; and a patch that changes nothing must share
    /// every chunk with its base.
    fn patch_matches_model<V: Clone + Default + Eq + std::fmt::Debug>(
        seed: u64,
        value: impl Fn(&mut SplitMix64) -> V,
    ) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases() {
            // Key spans from inside one chunk to several groups.
            let span = [40, 300, 5_000, 20_000][rng.bounded(4) as usize];
            let mut model: BTreeMap<u64, V> = BTreeMap::new();
            let mut map: CowMap<V> = CowMap::new();
            for step in 0..8 {
                let mut edits: BTreeMap<u64, Option<V>> = BTreeMap::new();
                for _ in 0..rng.bounded(200) {
                    let key = rng.bounded(span);
                    let edit = match rng.bounded(4) {
                        0 => Some(value(&mut rng)),
                        1 => model.get(&key).cloned().or_else(|| Some(value(&mut rng))),
                        _ => None, // absent keys included
                    };
                    edits.insert(key, edit);
                }
                let edits: Vec<(u64, Option<V>)> = edits.into_iter().collect();
                let before = map.clone();
                let next = map.patch(&edits);
                let old_model = model.clone();
                for (k, v) in &edits {
                    match v {
                        Some(v) => model.insert(*k, v.clone()),
                        None => model.remove(k),
                    };
                }
                let expect = CowMap::from_sorted(model.iter().map(|(k, v)| (*k, v.clone())));
                assert_eq!(next, expect, "case {case} step {step}");
                assert_eq!(next.len(), model.len(), "case {case} step {step}");
                let pairs: Vec<(u64, V)> = next.iter().map(|(k, v)| (k, v.clone())).collect();
                let want: Vec<(u64, V)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
                assert_eq!(pairs, want, "case {case} step {step}: iter");
                for (k, v) in &model {
                    assert_eq!(next.get(*k), Some(v), "case {case} step {step}: get {k}");
                }
                let old_expect =
                    CowMap::from_sorted(old_model.iter().map(|(k, v)| (*k, v.clone())));
                assert_eq!(before, old_expect, "case {case} step {step}: base changed");

                // Re-insert every third present value and remove absent keys.
                let noop: Vec<(u64, Option<V>)> = (0..span)
                    .filter(|k| k % 3 == 0)
                    .map(|k| (k, model.get(&k).cloned()))
                    .collect();
                let same = next.patch(&noop);
                assert_eq!(same, next, "case {case} step {step}: no-op patch");
                assert_eq!(
                    same.shared_ptrs(),
                    next.shared_ptrs(),
                    "case {case} step {step}: a no-op patch must share every chunk and group"
                );
                map = next;
            }
        }
    }

    fn random_vertices(rng: &mut SplitMix64, ranks: std::ops::RangeInclusive<u64>) -> Vec<u32> {
        let len = ranks.start() + rng.bounded(ranks.end() - ranks.start() + 1);
        (0..len).map(|_| rng.bounded(4) as u32).collect()
    }

    #[test]
    fn cowmap_patch_matches_model_for_unit_values() {
        patch_matches_model(0xC0_01, |_| ());
    }

    #[test]
    fn cowmap_patch_matches_model_for_edge_ids() {
        // Few distinct values, so overwrites often write what is there.
        patch_matches_model(0xC0_02, |rng| rng.bounded(4));
    }

    #[test]
    fn cowmap_patch_matches_model_for_inline_vertex_lists() {
        patch_matches_model(0xC0_03, |rng| {
            Verts::new(&random_vertices(rng, 1..=INLINE as u64))
        });
    }

    #[test]
    fn cowmap_patch_matches_model_for_spilled_vertex_lists() {
        // A fresh `Arc` of equal content is the same value: no change.
        patch_matches_model(0xC0_04, |rng| -> Spill {
            Some(Arc::from(random_vertices(rng, INLINE as u64 + 1..=6)))
        });
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

    #[test]
    fn patched_snapshots_track_capture_with_ranks_one_to_six() {
        for recycle in [false, true] {
            let mut m = DynamicMatching::with_seed(15);
            m.set_recycle_ids(recycle);
            let r = m.enable_snapshots();
            let mut patched = (*r.snapshot()).clone();
            let mut rng = SplitMix64::new(0x5EED_0016);
            let mut live: Vec<EdgeId> = Vec::new();
            let (mut spilled, mut rebinds) = (0, 0);
            // Fresh vertices for edges that must match at once.
            let mut fresh = 1_000u32;
            for wave in 0..80 {
                let mut batch = Batch::new();
                for _ in 0..rng.bounded(live.len().min(5) as u64 + 1) {
                    let i = rng.bounded(live.len() as u64) as usize;
                    batch = batch.delete(live.swap_remove(i));
                }
                // A rank-1..=6 edge over a few vertices, so edges collide.
                for _ in 0..1 + rng.bounded(4) {
                    let rank = 1 + rng.bounded(6) as u32;
                    let base = rng.bounded(30) as u32;
                    batch = batch.insert((0..rank).map(|k| base + 3 * k).collect());
                }
                // Every fifth wave also inserts a rank-5 edge on fresh
                // vertices: it matches at once, so with recycled ids a
                // matched id deleted in this batch comes back bound to it.
                if wave % 5 == 4 {
                    batch = batch.insert((fresh..fresh + 5).collect());
                    fresh += 5;
                }
                m.apply(batch).unwrap();
                live = m.structure().edges.ids().to_vec();
                match r.changes_since(patched.epoch()) {
                    Changes::Delta { delta, .. } => {
                        rebinds += delta
                            .matched
                            .iter()
                            .filter(|(e, _)| delta.unmatched.binary_search(e).is_ok())
                            .count();
                        patched = patched.apply_delta(&delta);
                    }
                    Changes::UpToDate => {}
                    Changes::Resync(_) => unreachable!("one publish behind"),
                }
                let label = format!("recycle {recycle} wave {wave}");
                assert_eq!(patched, MatchingSnapshot::capture(&m), "{label}");
                assert_eq!(patched, *r.snapshot(), "{label}");
                patched.check_consistency().unwrap();
                spilled += patched.spilled.len();
            }
            assert!(
                spilled > 0,
                "recycle {recycle}: no list took the spill path"
            );
            assert!(
                !recycle || rebinds > 0,
                "recycling never rebound a matched id"
            );
            // A matched rank-5 edge answers from the spill map exactly as the
            // live structure does.
            let snap = r.snapshot();
            let (e, vs) = snap
                .matched_edges()
                .find(|(_, vs)| vs.len() == 5)
                .expect("some rank-5 edge is matched");
            assert_eq!(Some(vs), m.edge_vertices(e));
            assert_eq!(snap.edge_vertices(e), m.edge_vertices(e));
            for &v in vs {
                assert_eq!(snap.matched_edge_of(v), Some(e));
                assert_eq!(snap.partners(v), m.edge_vertices(e));
                assert_eq!(snap.partner(v), vs.iter().copied().find(|&u| u != v));
            }
        }
    }
}
