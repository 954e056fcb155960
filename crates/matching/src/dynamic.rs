//! The parallel batch-dynamic maximal matching algorithm (Figure 3).
//!
//! [`DynamicMatching`] maintains a maximal matching of a hypergraph under
//! batches of edge insertions and deletions with `O(r³)` expected amortized
//! work per edge update (`O(1)` for graphs, Theorem 1.1 / Corollary 1.2) and
//! `O(log³ m)` depth per batch whp (Lemma 5.11), against an oblivious
//! adversary.
//!
//! Batch flow (Figure 4's flow chart):
//!
//! * **insert** — run a random greedy matching over the *free* edges of the
//!   batch; matched edges enter at level 0 with singleton samples, the rest
//!   become cross edges.
//! * **delete** — unmatched deletions just detach (cheap). Matched deletions
//!   are the interesting case: their samples convert to cross edges, *light*
//!   matches (few owned cross edges) are removed and their edges directly
//!   reinserted, while *heavy* matches feed rounds of `randomSettle`: a
//!   random greedy matching over all their owned edges at once, which
//!   simultaneously selects new matches and their (randomly hidden) sample
//!   spaces. Settling may *steal* existing matches or create *bloated* ones;
//!   those are deleted and fed to the next round. The loop terminates once
//!   the fresh sample mass dominates the remaining work (the `2|E'| >
//!   sampledEdges` rule), after at most `O(log m)` rounds.

use std::sync::Arc;

use pbdmm_graph::edge::{EdgeId, EdgeVertices, VertexId};
use pbdmm_primitives::cost::{CostMeter, CostSnapshot};
use pbdmm_primitives::hash::{FxHashMap, FxHashSet};
use pbdmm_primitives::obs::{Counter, Phase, Recorder};
use pbdmm_primitives::pool::ParPool;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::slab::{EpochSet, Slab};

use crate::api::{validate_batch, Batch, BatchOutcome, UpdateError};
use crate::greedy::{parallel_greedy_match_in, GreedyScratch};
use crate::level::{EdgeRec, EdgeType, LeveledStructure};
use crate::snapshot::{MatchingSnapshot, SnapshotCell, SnapshotDelta};
use crate::stats::{EpochEnd, MatchingStats};

/// Per-batch report: the depth-relevant quantities (E5) for the most recent
/// [`DynamicMatching::apply`] (or legacy wrapper) call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchReport {
    /// Iterations of the `randomSettle` loop (bounded `O(log m)`).
    pub settle_iterations: u64,
    /// Model cost delta for the batch.
    pub cost: CostSnapshot,
}

/// Occupancy of the flat storage backend (see
/// [`DynamicMatching::storage_stats`]): live entries vs. slots allocated in
/// the edge/match tables, plus the id allocator's recycling state. The
/// benches record these as ungated `info_*` telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Live edges.
    pub live_edges: usize,
    /// Edge-table slots allocated (high-water of the id space).
    pub edge_slots: usize,
    /// Current matches.
    pub live_matches: usize,
    /// Match-table slots allocated.
    pub match_slots: usize,
    /// Distinct id values ever handed out.
    pub ids_allocated: u64,
    /// Freed ids currently awaiting reuse (always 0 without recycling).
    pub free_ids: usize,
    /// Whether deleted ids are recycled (see
    /// [`DynamicMatching::set_recycle_ids`]).
    pub recycling: bool,
}

impl StorageStats {
    /// Live edges per allocated edge slot, in `[0, 1]` (1 when empty).
    pub fn edge_occupancy(&self) -> f64 {
        if self.edge_slots == 0 {
            1.0
        } else {
            self.live_edges as f64 / self.edge_slots as f64
        }
    }
}

/// The edge-id allocator: sequential by default (ids are never reused — the
/// historical contract), or slab-backed with deterministic LIFO reuse of
/// deleted ids so the id space stays dense under unbounded churn. Both modes
/// are deterministic in apply order, so WAL replay reproduces the exact ids.
#[derive(Debug)]
pub(crate) enum IdAlloc {
    /// Monotonically increasing ids, never reused.
    Monotonic { next: u64 },
    /// Slab-backed: freed ids are reused LIFO.
    Recycling { slots: Slab },
}

impl IdAlloc {
    fn alloc(&mut self) -> EdgeId {
        match self {
            IdAlloc::Monotonic { next } => {
                let id = EdgeId(*next);
                *next += 1;
                id
            }
            IdAlloc::Recycling { slots } => EdgeId(slots.insert() as u64),
        }
    }

    /// Return a deleted id to the allocator (no-op without recycling).
    fn free(&mut self, id: EdgeId) {
        if let IdAlloc::Recycling { slots } = self {
            slots.remove(id.0 as usize);
        }
    }

    /// Distinct id values ever handed out.
    pub(crate) fn allocated(&self) -> u64 {
        match self {
            IdAlloc::Monotonic { next } => *next,
            IdAlloc::Recycling { slots } => slots.high_water() as u64,
        }
    }

    fn free_ids(&self) -> usize {
        match self {
            IdAlloc::Monotonic { .. } => 0,
            IdAlloc::Recycling { slots } => slots.free_slots(),
        }
    }
}

/// Per-batch change recorder for the incremental snapshot path: the apply
/// machinery notes every edge insert/delete and match add/remove as it
/// happens, and `finish` condenses the event stream into the batch's
/// [`SnapshotDelta`] (net membership changes plus matched-binding changes,
/// with recycled ids — deleted and re-allocated within one batch —
/// emitting both the unbind and the rebind).
#[derive(Debug, Default)]
struct DeltaTracker {
    inserted: Vec<EdgeId>,
    deleted: Vec<EdgeId>,
    deleted_set: FxHashSet<u64>,
    /// Ids deleted and re-allocated within this batch: the snapshot's old
    /// binding (if any) must be dropped even if the new edge is matched
    /// again, since the vertex list may differ.
    recycled: FxHashSet<u64>,
    /// Matched-state event fold per edge id: `(matched at batch start,
    /// matched at batch end)`. The first event fixes the start (an add
    /// means it started unmatched, a remove means it started matched); the
    /// latest event always overwrites the end.
    events: FxHashMap<u64, (bool, bool)>,
}

impl DeltaTracker {
    fn edge_inserted(&mut self, e: EdgeId) {
        if self.deleted_set.contains(&e.raw()) {
            self.recycled.insert(e.raw());
        }
        self.inserted.push(e);
    }

    fn edge_deleted(&mut self, e: EdgeId) {
        self.deleted_set.insert(e.raw());
        self.deleted.push(e);
    }

    fn match_added(&mut self, e: EdgeId) {
        self.events
            .entry(e.raw())
            .and_modify(|ev| ev.1 = true)
            .or_insert((false, true));
    }

    fn match_removed(&mut self, e: EdgeId) {
        self.events
            .entry(e.raw())
            .and_modify(|ev| ev.1 = false)
            .or_insert((true, false));
    }

    /// Condense into the batch's delta. `s` supplies the vertex lists of
    /// edges matched at batch end (they are live by construction).
    fn finish(self, s: &LeveledStructure, from_epoch: u64, to_epoch: u64) -> SnapshotDelta {
        let mut inserted = self.inserted;
        inserted.sort_unstable();
        let mut deleted = self.deleted;
        deleted.sort_unstable();
        let mut events: Vec<(u64, (bool, bool))> = self.events.into_iter().collect();
        events.sort_unstable_by_key(|&(id, _)| id);
        let mut matched: Vec<(EdgeId, EdgeVertices)> = Vec::new();
        let mut unmatched: Vec<EdgeId> = Vec::new();
        for (id, (init, fin)) in events {
            let recycled = self.recycled.contains(&id);
            let e = EdgeId(id);
            if init && (!fin || recycled) {
                unmatched.push(e);
            }
            if fin && (!init || recycled) {
                matched.push((e, s.edges[e].vertices.clone()));
            }
        }
        SnapshotDelta {
            from_epoch,
            to_epoch,
            inserted,
            deleted,
            matched,
            unmatched,
        }
    }
}

/// One row of [`DynamicMatching::level_histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOccupancy {
    /// The level `l(m)`.
    pub level: u8,
    /// Number of matches at this level.
    pub matches: usize,
    /// Total current sample-set size across those matches.
    pub sample_mass: usize,
    /// Total owned cross edges across those matches.
    pub cross_mass: usize,
}

/// Parallel batch-dynamic maximal matching structure.
pub struct DynamicMatching {
    pub(crate) s: LeveledStructure,
    pub(crate) rng: SplitMix64,
    meter: CostMeter,
    pub(crate) stats: MatchingStats,
    pub(crate) ids: IdAlloc,
    /// Reusable greedy-matcher scratch: the dense vertex-compaction map and
    /// round dedup stamps are shared by every settlement round, so the hot
    /// path never rebuilds a compaction table (or hashes a vertex id).
    greedy: GreedyScratch,
    /// Reusable dedup scratch for stolen-match collection in `randomSettle`.
    stolen_seen: EpochSet,
    /// Rank bound `r`: max cardinality seen (min 1). `isHeavy` thresholds use
    /// `4 r² 2^l`.
    pub(crate) max_rank: usize,
    /// Bloated sample mass carried to the next settle round's ledger entry
    /// (Lemma 5.6 pairs current-round stolen with previous-round bloated).
    pending_bloated_mass: u64,
    last_batch: BatchReport,
    /// Scheduler this structure's batches run on: every parallel primitive
    /// of a whole `apply` (settlement, greedy rounds, semisorts) is
    /// submitted to this pool, so one batch means zero thread churn. `None`
    /// uses the process-global pool.
    pool: Option<Arc<ParPool>>,
    /// Publication point for the epoch-snapshot read path: when set (via
    /// [`crate::snapshot::Snapshots::enable_snapshots`]), every `apply`
    /// ends by patching the previous [`MatchingSnapshot`] with the batch's
    /// [`SnapshotDelta`] and atomically swapping the result in, so
    /// concurrent readers always see a consistent batch boundary.
    snapshots: Option<Arc<SnapshotCell<MatchingSnapshot>>>,
    /// Change recorder for the in-flight batch; `Some` exactly while an
    /// `apply` runs with snapshots enabled.
    delta: Option<DeltaTracker>,
    /// Phase recorder for wall-clock observability (settlement +
    /// publication spans, settle-round/level/scratch counters). Disabled
    /// by default — every record is then a no-op branch.
    obs: Recorder,
}

impl DynamicMatching {
    /// Create with explicit leveling parameters (for the ablation
    /// experiments; production use wants [`Self::with_seed`]'s paper
    /// defaults).
    ///
    /// # Examples
    /// ```
    /// use pbdmm_matching::api::BatchDynamic;
    /// use pbdmm_matching::{DynamicMatching, LevelingConfig};
    ///
    /// let config = LevelingConfig { all_light: true, ..Default::default() };
    /// let mut m = DynamicMatching::with_seed_and_config(7, config);
    /// m.insert_edges(&[vec![0, 1]]);
    /// assert!(BatchDynamic::work(&m) > 0); // model cost is always metered
    /// ```
    pub fn with_seed_and_config(seed: u64, config: crate::level::LevelingConfig) -> Self {
        let mut dm = Self::with_seed(seed);
        dm.s = LeveledStructure::with_config(config);
        dm
    }

    /// Create an empty structure with the given RNG seed (the algorithm's
    /// private coins — the adversary's streams must be seeded independently).
    pub fn with_seed(seed: u64) -> Self {
        DynamicMatching {
            s: LeveledStructure::new(),
            rng: SplitMix64::new(seed),
            meter: CostMeter::new(),
            stats: MatchingStats::default(),
            ids: IdAlloc::Monotonic { next: 0 },
            greedy: GreedyScratch::default(),
            stolen_seen: EpochSet::default(),
            max_rank: 1,
            pending_bloated_mass: 0,
            last_batch: BatchReport::default(),
            pool: None,
            snapshots: None,
            delta: None,
            obs: Recorder::disabled(),
        }
    }

    /// Switch deleted-id recycling on or off (default: off). With recycling
    /// on, freed ids are reused LIFO by later insertions, keeping the id
    /// space — and therefore the flat storage tables — dense under
    /// unbounded churn. Reuse is deterministic in apply order, so WAL
    /// replay of a recycling structure reproduces the exact same ids; the
    /// historical "ids are never reused" contract only holds with
    /// recycling off. Only allowed on a structure that has not assigned
    /// any id yet: recycling changes which ids future insertions receive,
    /// so flipping it mid-history would break WAL replay of the earlier
    /// prefix.
    ///
    /// # Panics
    /// If any edge was ever inserted.
    pub fn set_recycle_ids(&mut self, recycle: bool) {
        assert_eq!(
            self.ids.allocated(),
            0,
            "id recycling must be configured before the first insertion"
        );
        self.ids = if recycle {
            IdAlloc::Recycling { slots: Slab::new() }
        } else {
            IdAlloc::Monotonic { next: 0 }
        };
    }

    /// Occupancy of the flat storage backend: live entries vs. allocated
    /// slots in the edge/match tables and the id allocator's state.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            live_edges: self.s.edges.len(),
            edge_slots: self.s.edges.high_water(),
            live_matches: self.s.matches.len(),
            match_slots: self.s.matches.high_water(),
            ids_allocated: self.ids.allocated(),
            free_ids: self.ids.free_ids(),
            recycling: matches!(self.ids, IdAlloc::Recycling { .. }),
        }
    }

    /// Pin this structure's batches to an explicit scheduler: every
    /// parallel primitive of a whole `apply` call (settlement, greedy
    /// rounds, semisorts) runs on this pool. By default batches run on the
    /// process-global pool (sized by `set_num_threads` / `PBDMM_THREADS`),
    /// which is already persistent — pass a pool here to isolate this
    /// structure's work from other components sharing the process.
    pub fn set_pool(&mut self, pool: Arc<ParPool>) {
        self.pool = Some(pool);
    }

    /// The explicitly pinned scheduler, if any.
    pub fn pool(&self) -> Option<&Arc<ParPool>> {
        self.pool.as_ref()
    }

    /// Attach a phase [`Recorder`] (default: timing off). Every subsequent
    /// `apply` records a [`Phase::Settle`] span (the whole mutation:
    /// deletions, settle rounds, insertions), a [`Phase::SnapshotPublish`]
    /// span, and the settle-round / level-occupancy / scratch-high-water
    /// counters through it.
    pub fn set_obs(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Run `f` with this structure's pool installed as the current
    /// scheduler, so every parallel primitive the batch logic touches is
    /// submitted to the same pool.
    fn on_pool<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        match self.pool.clone() {
            Some(pool) => pool.install(|| f(self)),
            None => f(self),
        }
    }

    /// Create with a fixed default seed.
    pub fn new() -> Self {
        Self::with_seed(0x5eed)
    }

    // --- Queries ------------------------------------------------------------

    /// The matched edge covering vertex `v`, or `None` if `v` is free
    /// (constant time, §2 Dynamic model).
    pub fn matched_edge_of(&self, v: VertexId) -> Option<EdgeId> {
        self.s.vertex_match(v)
    }

    /// All matched edges (work proportional to the matching size).
    pub fn matching(&self) -> Vec<EdgeId> {
        self.s.matching()
    }

    /// Number of matched edges.
    pub fn matching_size(&self) -> usize {
        self.s.matches.len()
    }

    /// Whether `e` is currently a live edge.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.s.edges.contains(e)
    }

    /// Whether `e` is currently matched.
    pub fn is_matched(&self, e: EdgeId) -> bool {
        self.s.matches.contains(e)
    }

    /// The vertex set of a live edge.
    pub fn edge_vertices(&self, e: EdgeId) -> Option<&[VertexId]> {
        self.s.edges.get(e).map(|r| r.vertices.as_slice())
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.s.edges.len()
    }

    /// The structure's *epoch*: total updates (insertions + deletions)
    /// applied so far. Epochs advance only at batch boundaries, version the
    /// published [`MatchingSnapshot`]s, and — because the ingest service's
    /// global `seq` numbers count exactly the applied updates — line up
    /// with the `seq` space of a service that started this structure fresh.
    pub fn epoch(&self) -> u64 {
        self.stats.user_insertions + self.stats.user_deletions
    }

    /// The snapshot publication cell, created (with an immediate capture of
    /// the current state) on first use. Prefer the trait surface
    /// [`crate::snapshot::Snapshots::enable_snapshots`]; this accessor
    /// exists so the trait impl and tests share one cell.
    pub(crate) fn snapshot_cell(&mut self) -> Arc<SnapshotCell<MatchingSnapshot>> {
        if self.snapshots.is_none() {
            self.snapshots = Some(Arc::new(SnapshotCell::new(MatchingSnapshot::capture(self))));
        }
        Arc::clone(self.snapshots.as_ref().expect("just created"))
    }

    /// Publish the post-batch snapshot if the read path is enabled. Called
    /// at the end of every successful `apply`, after all mutation and
    /// *before* the caller observes the outcome — the ingest service relies
    /// on that ordering for its read-your-writes guarantee.
    ///
    /// Publication is O(batch): patch the previously published snapshot
    /// with the batch's [`SnapshotDelta`] and publish both (the delta feeds
    /// [`crate::snapshot::QueryHandle::changes_since`] subscribers). A
    /// debug assertion cross-checks the patched snapshot against a full
    /// recapture every batch.
    fn maybe_publish_snapshot(&mut self) {
        let tracker = self.delta.take();
        let Some(cell) = &self.snapshots else {
            return;
        };
        let _span = self.obs.span(Phase::SnapshotPublish);
        // Enabling snapshots takes `&mut self`, so it cannot happen inside
        // an `apply`: every batch that ends with a cell began with one.
        let tracker = tracker.expect("snapshots enabled mid-apply");
        let prev = cell.load();
        let delta = tracker.finish(&self.s, prev.epoch(), self.epoch());
        let next = prev.apply_delta(&delta);
        debug_assert_eq!(
            next,
            MatchingSnapshot::capture(self),
            "patched snapshot diverged from a full recapture"
        );
        cell.publish(next, delta);
    }

    #[inline]
    fn note_edge_inserted(&mut self, e: EdgeId) {
        if let Some(t) = &mut self.delta {
            t.edge_inserted(e);
        }
    }

    #[inline]
    fn note_edge_deleted(&mut self, e: EdgeId) {
        if let Some(t) = &mut self.delta {
            t.edge_deleted(e);
        }
    }

    #[inline]
    fn note_match_added(&mut self, e: EdgeId) {
        if let Some(t) = &mut self.delta {
            t.match_added(e);
        }
    }

    #[inline]
    fn note_match_removed(&mut self, e: EdgeId) {
        if let Some(t) = &mut self.delta {
            t.match_removed(e);
        }
    }

    /// The model-cost meter (shared with the internal greedy matcher).
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Run statistics (epochs, payments, settle ledger).
    pub fn stats(&self) -> &MatchingStats {
        &self.stats
    }

    /// Report for the most recent batch.
    pub fn last_batch(&self) -> BatchReport {
        self.last_batch
    }

    /// Read-only access to the underlying leveled structure (used by the
    /// invariant checker and tests).
    pub fn structure(&self) -> &LeveledStructure {
        &self.s
    }

    /// The current rank bound `r` used by the heaviness threshold.
    pub fn rank(&self) -> usize {
        self.max_rank
    }

    /// Occupancy of the leveling structure: `(level, matches, sample mass,
    /// cross mass)` per non-empty level, ascending. The paper's structure
    /// keeps `O(log m)` levels with sample sizes in `[2^l, 2^{l+1})`; this
    /// is the telemetry behind experiment E15.
    pub fn level_histogram(&self) -> Vec<LevelOccupancy> {
        // Levels are small integers (≤ lg m), so a dense table suffices.
        let mut by_level: Vec<Option<LevelOccupancy>> = Vec::new();
        for (_, rec) in self.s.matches.iter() {
            let l = rec.level as usize;
            if l >= by_level.len() {
                by_level.resize(l + 1, None);
            }
            let slot = by_level[l].get_or_insert(LevelOccupancy {
                level: rec.level,
                matches: 0,
                sample_mass: 0,
                cross_mass: 0,
            });
            slot.matches += 1;
            slot.sample_mass += rec.sample.len();
            slot.cross_mass += rec.cross.len();
        }
        by_level.into_iter().flatten().collect()
    }

    // --- User interface: apply (the unified mixed-batch entry point) --------

    /// Apply one mixed batch of insertions and deletions: the paper's
    /// single-batch semantics (Fig. 3/4). All deletions are processed first,
    /// then the edges they freed and the fresh insertions settle in **one**
    /// leveled settlement round (one shared greedy pass), instead of paying
    /// two rounds for a split `insert_edges`/`delete_edges` sequence.
    ///
    /// Strict: an empty vertex set, an unknown id, or a duplicate deletion
    /// rejects the whole batch with [`UpdateError`] *before any mutation*.
    ///
    /// # Examples
    /// ```
    /// use pbdmm_matching::api::Batch;
    /// use pbdmm_matching::DynamicMatching;
    ///
    /// let mut m = DynamicMatching::with_seed(1);
    /// let out = m.apply(Batch::new().inserts([vec![0, 1], vec![1, 2]])).unwrap();
    ///
    /// // One call: delete a live edge and insert two new ones.
    /// let out = m
    ///     .apply(Batch::new().delete(out.inserted[0]).inserts([vec![2, 3], vec![3, 4, 5]]))
    ///     .unwrap();
    /// assert_eq!(out.inserted.len(), 2);
    /// assert_eq!(out.deleted_count(), 1);
    /// assert!(pbdmm_matching::verify::check_invariants(&m).is_ok());
    /// ```
    pub fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<BatchReport>, UpdateError> {
        let (inserts, deletes) = validate_batch(&batch, |id| self.s.edges.contains(id))?;
        Ok(self.on_pool(|dm| dm.apply_validated(inserts, deletes)))
    }

    /// Legacy wrapper: insert a batch of edges. Vertex lists are normalized
    /// (sorted, deduplicated); returns the assigned edge ids, in input
    /// order. Prefer [`Self::apply`].
    ///
    /// # Panics
    /// If any edge has an empty vertex set (use [`Self::apply`] for a
    /// fallible variant).
    ///
    /// # Examples
    /// ```
    /// use pbdmm_matching::DynamicMatching;
    ///
    /// let mut m = DynamicMatching::with_seed(1);
    /// let ids = m.insert_edges(&[vec![0, 1], vec![1, 2], vec![3, 4, 5]]);
    /// assert_eq!(ids.len(), 3);
    /// // The matching is maximal: every edge touches a matched vertex.
    /// assert!(m.matching_size() >= 2); // {0,1} or {1,2}, plus {3,4,5}
    /// ```
    pub fn insert_edges(&mut self, batch: &[EdgeVertices]) -> Vec<EdgeId> {
        self.apply(Batch::new().inserts(batch.iter().cloned()))
            .expect("edge with empty vertex set")
            .inserted
    }

    /// The shared strict core behind [`Self::apply`] and the wrappers.
    /// `inserts` are normalized non-empty vertex lists; `deletes` are live,
    /// deduplicated ids.
    fn apply_validated(
        &mut self,
        inserts: Vec<EdgeVertices>,
        deletes: Vec<EdgeId>,
    ) -> BatchOutcome<BatchReport> {
        let before = self.meter.snapshot();
        let mut settle_iterations = 0u64;
        if self.snapshots.is_some() {
            self.delta = Some(DeltaTracker::default());
        }
        self.stats.batches += 1;
        self.stats.user_insertions += inserts.len() as u64;
        self.stats.user_deletions += deletes.len() as u64;

        // The rank bound first: fresh insertions can raise `r`, and the
        // heaviness thresholds of this very batch's settlement use it.
        for vs in &inserts {
            self.max_rank = self.max_rank.max(vs.len());
        }
        self.meter
            .charge_primitive((inserts.len() + deletes.len()).max(1) * self.max_rank);

        // Settle span: the whole mutation (deletions, settle rounds, the
        // fused insertion round) — everything up to snapshot publication,
        // which `maybe_publish_snapshot` attributes separately.
        let obs = self.obs.clone();
        let settle_span = obs.span(Phase::Settle);

        // --- Deletions (Figure 3 deleteEdges) --------------------------------
        // Unmatched deletions first (cheap): cross edges detach with payment
        // 0 (late), sampled edges leave their owner's sample with payment 1
        // (early).
        let mut matched: Vec<EdgeId> = Vec::new();
        for &e in &deletes {
            match self.s.edges[e].etype {
                EdgeType::Cross => {
                    self.s.remove_cross_edge(e);
                    self.s.edges.remove(e);
                    self.ids.free(e);
                    self.note_edge_deleted(e);
                }
                EdgeType::Sampled => {
                    let owner = self.s.edges[e].owner;
                    self.s.remove_from_sample(owner, e);
                    self.stats.total_payment += 1;
                    self.s.edges.remove(e);
                    self.ids.free(e);
                    self.note_edge_deleted(e);
                }
                EdgeType::Matched => matched.push(e),
                EdgeType::Unsettled => unreachable!("unsettled edge between batches"),
            }
        }
        // Matched deletions: pay the remaining price (initial sample size
        // minus the early unmatched visits — batch-mates were just removed
        // above), then drop the match from its own sample so it is not
        // reinserted.
        for &m in &matched {
            self.stats.total_payment += self.s.matches[m].sample.len() as u64;
            self.s.remove_from_sample(m, m);
        }

        // The workhorse: deleteMatchedEdges, then rounds of randomSettle.
        let natural: Vec<(EdgeId, EpochEnd)> =
            matched.iter().map(|&m| (m, EpochEnd::Natural)).collect();
        let mut e_prime = self.delete_matched_edges(natural);
        let mut sampled_edges = 0usize;
        self.pending_bloated_mass = 0;
        while 2 * e_prime.len() > sampled_edges {
            sampled_edges += e_prime.len();
            settle_iterations += 1;
            e_prime = self.random_settle(e_prime);
        }

        // --- Insertions (Figure 3 insertEdges), fused --------------------------
        // Register the fresh edges, then run the *one* shared settlement
        // round: the settle remainder and the new edges go through a single
        // greedy pass together.
        let mut inserted = Vec::with_capacity(inserts.len());
        for vs in inserts {
            let id = self.ids.alloc();
            for &v in &vs {
                self.s.ensure_vertex(v);
            }
            self.s.edges.insert(id, EdgeRec::unsettled(id, vs));
            inserted.push(id);
            self.note_edge_inserted(id);
        }
        e_prime.extend(inserted.iter().copied());
        self.internal_insert(e_prime);
        drop(settle_span);

        self.stats.settle_rounds += settle_iterations;
        self.last_batch = BatchReport {
            settle_iterations,
            cost: self.meter.snapshot().since(&before),
        };
        self.maybe_publish_snapshot();
        if self.obs.is_enabled() {
            self.obs.add(Counter::SettleRounds, settle_iterations);
            // Occupied levels is an O(matching) scan, so it is gated on the
            // recorder actually being on (profiling cost, not steady-state).
            self.obs
                .add(Counter::LevelsTouched, self.level_histogram().len() as u64);
            self.obs
                .record_max(Counter::ScratchHighWater, self.greedy.high_water() as u64);
        }
        BatchOutcome {
            inserted,
            deleted: deletes,
            report: self.last_batch,
        }
    }

    /// Figure 3 `insertEdges`: match the free edges with a random greedy
    /// matching (level 0, singleton samples); everything else becomes a
    /// cross edge.
    fn internal_insert(&mut self, ids: Vec<EdgeId>) {
        if ids.is_empty() {
            return;
        }
        let free: Vec<EdgeId> = ids
            .iter()
            .copied()
            .filter(|&e| self.s.all_free(&self.s.edges[e].vertices))
            .collect();
        let free_vs: Vec<EdgeVertices> = free
            .iter()
            .map(|&e| self.s.edges[e].vertices.clone())
            .collect();
        let result =
            parallel_greedy_match_in(&mut self.greedy, &free_vs, &mut self.rng, &self.meter);
        for &(mi, _) in &result.matches {
            let m = free[mi];
            self.s.add_match(m, vec![m]);
            self.note_match_added(m);
            self.stats.epoch_created(1);
        }
        for &e in &ids {
            // Everything the greedy pass did not match is still unsettled
            // (the matched edges were just flipped to `Matched`).
            if self.s.edges[e].etype == EdgeType::Unsettled {
                self.s.add_cross_edge(e);
            }
        }
        self.meter
            .charge_primitive(ids.len() * self.max_rank.max(1));
    }

    // --- User interface: deleteEdges (legacy tolerant wrapper) ---------------

    /// Legacy wrapper: delete a batch of edges by id, *tolerantly* — unknown,
    /// already-deleted, and duplicate ids are skipped (use [`Self::apply`]
    /// to make those errors). Returns the ids
    /// that were actually live and are now deleted, in input order, so
    /// callers can reconcile; the count is `.len()`. Prefer [`Self::apply`].
    ///
    /// # Examples
    /// ```
    /// use pbdmm_matching::DynamicMatching;
    ///
    /// let mut m = DynamicMatching::with_seed(1);
    /// let ids = m.insert_edges(&[vec![0, 1], vec![1, 2]]);
    /// assert_eq!(m.delete_edges(&ids), ids); // both were live
    /// assert!(m.delete_edges(&ids).is_empty()); // already gone
    /// assert_eq!(m.num_edges(), 0);
    /// ```
    pub fn delete_edges(&mut self, ids: &[EdgeId]) -> Vec<EdgeId> {
        let live = crate::api::filter_live_dedup(ids, |e| self.s.edges.contains(e));
        self.on_pool(|dm| dm.apply_validated(Vec::new(), live).deleted)
    }

    /// Figure 3 `deleteMatchedEdges`: convert the victims' samples to cross
    /// edges, split victims into light and heavy by `isHeavy`, directly
    /// reinsert the light matches' owned edges, and return the heavy
    /// matches' owned edges for random settling.
    ///
    /// Natural victims were already detached from their own samples by the
    /// caller and their records are dropped here; induced victims (stolen or
    /// bloated) remain in the graph — they re-enter as ordinary edges via
    /// their own (converted) sample membership.
    fn delete_matched_edges(&mut self, victims: Vec<(EdgeId, EpochEnd)>) -> Vec<EdgeId> {
        if victims.is_empty() {
            return Vec::new();
        }
        // 1. Convert every owned sample edge to a cross edge. Victims still
        //    hold their levels/vertices, so owner selection (Invariant 4)
        //    sees a consistent structure.
        let mut all_samples: Vec<EdgeId> = Vec::new();
        for &(m, _) in &victims {
            all_samples.extend_from_slice(&self.s.matches[m].sample);
        }
        for &e in &all_samples {
            self.s.add_cross_edge(e);
        }
        self.meter
            .charge_primitive(all_samples.len().max(1) * self.max_rank);

        // 2. Partition by weight (after conversion — `C` sets just grew).
        let r = self.max_rank;
        let mut light: Vec<(EdgeId, EpochEnd)> = Vec::new();
        let mut heavy: Vec<(EdgeId, EpochEnd)> = Vec::new();
        for &(m, end) in &victims {
            if self.s.is_heavy(m, r) {
                heavy.push((m, end));
            } else {
                light.push((m, end));
            }
        }

        // 3. Light: remove and directly reinsert owned edges.
        let mut light_cross: Vec<EdgeId> = Vec::new();
        for &(m, end) in &light {
            self.end_epoch(m, end);
            light_cross.extend(self.s.remove_match(m));
            self.note_match_removed(m);
            if end == EpochEnd::Natural {
                self.s.edges.remove(m);
                self.ids.free(m);
                self.note_edge_deleted(m);
            }
        }
        self.meter
            .charge_primitive(light_cross.len().max(1) * self.max_rank);
        self.internal_insert(light_cross);

        // 4. Heavy: remove and hand their owned edges to random settling.
        let mut out: Vec<EdgeId> = Vec::new();
        for &(m, end) in &heavy {
            self.end_epoch(m, end);
            out.extend(self.s.remove_match(m));
            self.note_match_removed(m);
            if end == EpochEnd::Natural {
                self.s.edges.remove(m);
                self.ids.free(m);
                self.note_edge_deleted(m);
            }
        }
        out
    }

    fn end_epoch(&mut self, m: EdgeId, end: EpochEnd) {
        let initial = self.s.matches[m].initial_sample_size;
        self.stats.epoch_ended(end, initial);
    }

    /// Figure 3 `randomSettle`: run a random greedy matching over the cross
    /// edges released by heavy victims. Every input edge lands in exactly
    /// one new match's sample space. Existing matches incident on new ones
    /// are *stolen*; new matches that end up owning too many cross edges
    /// after `adjustCrossEdges` are *bloated*; both are deleted via
    /// `deleteMatchedEdges`, whose heavy remainder is the next round's input.
    fn random_settle(&mut self, e_prime: Vec<EdgeId>) -> Vec<EdgeId> {
        if e_prime.is_empty() {
            return Vec::new();
        }
        let edge_vs: Vec<EdgeVertices> = e_prime
            .iter()
            .map(|&e| self.s.edges[e].vertices.clone())
            .collect();
        let result =
            parallel_greedy_match_in(&mut self.greedy, &edge_vs, &mut self.rng, &self.meter);

        // Stolen: existing matches incident on new matches — collected
        // before p(v) is overwritten by addMatch.
        self.stolen_seen.clear();
        let mut stolen: Vec<EdgeId> = Vec::new();
        for &(mi, _) in &result.matches {
            for &v in &edge_vs[mi] {
                if let Some(old) = self.s.vertex_match(v) {
                    if self.stolen_seen.insert(old.0 as usize) {
                        stolen.push(old);
                    }
                }
            }
        }

        // Install the new matches with their sample spaces.
        let mut new_ids: Vec<EdgeId> = Vec::with_capacity(result.matches.len());
        for (mi, sample) in &result.matches {
            let m = e_prime[*mi];
            let s: Vec<EdgeId> = sample.iter().map(|&i| e_prime[i]).collect();
            self.stats.epoch_created(s.len());
            self.s.add_match(m, s);
            self.note_match_added(m);
            new_ids.push(m);
        }

        // Repair Invariant 4 around the new matches.
        let moved = self.s.adjust_cross_edges(&new_ids);
        self.meter.charge_primitive(moved.max(1) * self.max_rank);
        self.meter.add_round(self.s.num_edges().max(2));

        // Bloated: new matches that now own too many cross edges.
        let r = self.max_rank;
        let bloated: Vec<EdgeId> = new_ids
            .iter()
            .copied()
            .filter(|&m| self.s.is_heavy(m, r))
            .collect();

        // Ledger for Lemma 5.6: added mass is the whole input (it all became
        // samples); deleted mass pairs this round's stolen with the previous
        // round's bloated.
        let stolen_mass: u64 = stolen
            .iter()
            .map(|&m| self.s.matches[m].initial_sample_size as u64)
            .sum();
        let bloated_mass: u64 = bloated
            .iter()
            .map(|&m| self.s.matches[m].initial_sample_size as u64)
            .sum();
        self.stats.settle_round(
            e_prime.len() as u64,
            stolen_mass + self.pending_bloated_mass,
        );
        self.pending_bloated_mass = bloated_mass;

        let victims: Vec<(EdgeId, EpochEnd)> = bloated
            .into_iter()
            .map(|m| (m, EpochEnd::Bloated))
            .chain(stolen.into_iter().map(|m| (m, EpochEnd::Stolen)))
            .collect();
        self.delete_matched_edges(victims)
    }
}

impl crate::api::BatchDynamic for DynamicMatching {
    type Report = BatchReport;

    fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<BatchReport>, UpdateError> {
        DynamicMatching::apply(self, batch)
    }

    fn matching_size(&self) -> usize {
        DynamicMatching::matching_size(self)
    }

    fn is_matched(&self, e: EdgeId) -> bool {
        DynamicMatching::is_matched(self, e)
    }

    fn contains_edge(&self, e: EdgeId) -> bool {
        DynamicMatching::contains_edge(self, e)
    }

    fn num_edges(&self) -> usize {
        DynamicMatching::num_edges(self)
    }

    fn work(&self) -> u64 {
        self.meter().work()
    }

    fn set_obs(&mut self, obs: Recorder) {
        DynamicMatching::set_obs(self, obs)
    }

    fn insert_edges(&mut self, batch: &[EdgeVertices]) -> Vec<EdgeId> {
        DynamicMatching::insert_edges(self, batch)
    }

    fn delete_edges(&mut self, ids: &[EdgeId]) -> Vec<EdgeId> {
        DynamicMatching::delete_edges(self, ids)
    }
}

impl Default for DynamicMatching {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DynamicMatching {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicMatching")
            .field("edges", &self.num_edges())
            .field("matches", &self.matching_size())
            .field("rank", &self.max_rank)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_invariants;
    use pbdmm_graph::gen;
    use pbdmm_primitives::hash::FxHashSet;

    fn assert_ok(dm: &DynamicMatching) {
        if let Err(e) = check_invariants(dm) {
            panic!("invariant violation: {e}\n{dm:?}");
        }
    }

    #[test]
    fn insert_single_edge_matches_it() {
        let mut dm = DynamicMatching::with_seed(1);
        let ids = dm.insert_edges(&[vec![0, 1]]);
        assert_eq!(ids.len(), 1);
        assert!(dm.is_matched(ids[0]));
        assert_eq!(dm.matched_edge_of(0), Some(ids[0]));
        assert_eq!(dm.matched_edge_of(1), Some(ids[0]));
        assert_ok(&dm);
    }

    #[test]
    fn insert_triangle_matches_exactly_one() {
        let mut dm = DynamicMatching::with_seed(2);
        let ids = dm.insert_edges(&[vec![0, 1], vec![1, 2], vec![0, 2]]);
        let matched: Vec<_> = ids.iter().filter(|&&e| dm.is_matched(e)).collect();
        assert_eq!(matched.len(), 1);
        assert_ok(&dm);
    }

    #[test]
    fn delete_unmatched_edge_is_cheap_and_sound() {
        let mut dm = DynamicMatching::with_seed(3);
        let ids = dm.insert_edges(&[vec![0, 1], vec![1, 2], vec![0, 2]]);
        let unmatched: Vec<EdgeId> = ids.iter().copied().filter(|&e| !dm.is_matched(e)).collect();
        let gone = dm.delete_edges(&unmatched);
        assert_eq!(gone, unmatched);
        assert_eq!(dm.num_edges(), 1);
        assert_ok(&dm);
    }

    #[test]
    fn delete_matched_edge_resettles() {
        let mut dm = DynamicMatching::with_seed(4);
        let ids = dm.insert_edges(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        // Find and delete the matched edge(s); the rest must re-form a
        // maximal matching.
        let matched: Vec<EdgeId> = ids.iter().copied().filter(|&e| dm.is_matched(e)).collect();
        dm.delete_edges(&matched);
        assert_ok(&dm);
        assert!(dm.matching_size() >= 1);
    }

    #[test]
    fn delete_everything_leaves_empty() {
        let mut dm = DynamicMatching::with_seed(5);
        let g = gen::erdos_renyi(50, 200, 7);
        let ids = dm.insert_edges(&g.edges);
        dm.delete_edges(&ids);
        assert_eq!(dm.num_edges(), 0);
        assert_eq!(dm.matching_size(), 0);
        assert_ok(&dm);
    }

    #[test]
    fn unknown_and_duplicate_ids_ignored() {
        let mut dm = DynamicMatching::with_seed(6);
        let ids = dm.insert_edges(&[vec![0, 1]]);
        assert!(dm.delete_edges(&[EdgeId(999)]).is_empty());
        assert_eq!(dm.delete_edges(&[ids[0], ids[0]]), vec![ids[0]]);
        assert_eq!(dm.num_edges(), 0);
        assert_ok(&dm);
    }

    #[test]
    fn invariants_hold_under_random_churn() {
        let mut dm = DynamicMatching::with_seed(7);
        let g = gen::erdos_renyi(100, 600, 11);
        let w = pbdmm_graph::workload::churn(&g, 60, 13);
        let mut assigned: Vec<Option<EdgeId>> = vec![None; g.m()];
        for step in &w.steps {
            let ins: Vec<EdgeVertices> = step.insert.iter().map(|&i| g.edges[i].clone()).collect();
            let new_ids = dm.insert_edges(&ins);
            for (&ui, &id) in step.insert.iter().zip(&new_ids) {
                assigned[ui] = Some(id);
            }
            assert_ok(&dm);
            let dels: Vec<EdgeId> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
            dm.delete_edges(&dels);
            assert_ok(&dm);
        }
        assert_eq!(dm.num_edges(), 0);
    }

    #[test]
    fn invariants_hold_on_hypergraph_churn() {
        let mut dm = DynamicMatching::with_seed(8);
        let g = gen::random_hypergraph(60, 300, 4, 17);
        let w = pbdmm_graph::workload::churn(&g, 40, 19);
        let mut assigned: Vec<Option<EdgeId>> = vec![None; g.m()];
        for step in &w.steps {
            let ins: Vec<EdgeVertices> = step.insert.iter().map(|&i| g.edges[i].clone()).collect();
            let new_ids = dm.insert_edges(&ins);
            for (&ui, &id) in step.insert.iter().zip(&new_ids) {
                assigned[ui] = Some(id);
            }
            let dels: Vec<EdgeId> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
            dm.delete_edges(&dels);
            assert_ok(&dm);
        }
        assert_eq!(dm.num_edges(), 0);
        assert_eq!(dm.rank(), 4);
    }

    #[test]
    fn star_survives_hub_match_deletion() {
        // Deleting the hub match of a star repeatedly forces resettles.
        let mut dm = DynamicMatching::with_seed(9);
        let g = gen::star(64);
        let ids = dm.insert_edges(&g.edges);
        let mut live: FxHashSet<EdgeId> = ids.into_iter().collect();
        while !live.is_empty() {
            let matched: Vec<EdgeId> = live.iter().copied().filter(|&e| dm.is_matched(e)).collect();
            assert_eq!(matched.len(), 1, "star always has exactly one match");
            dm.delete_edges(&matched);
            for m in matched {
                live.remove(&m);
            }
            assert_ok(&dm);
        }
        assert_eq!(dm.num_edges(), 0);
    }

    #[test]
    fn mean_payment_is_small_on_random_deletion() {
        let mut dm = DynamicMatching::with_seed(10);
        let g = gen::erdos_renyi(200, 2000, 23);
        let ids = dm.insert_edges(&g.edges);
        // Delete everything in oblivious random order, one batch.
        let w = pbdmm_graph::workload::insert_then_delete(
            &g,
            256,
            pbdmm_graph::workload::DeletionOrder::Uniform,
            29,
        );
        let order: Vec<EdgeId> = w
            .steps
            .iter()
            .flat_map(|s| s.delete.iter().map(|&i| ids[i]))
            .collect();
        for batch in order.chunks(256) {
            dm.delete_edges(batch);
            assert_ok(&dm);
        }
        let phi = dm.stats().mean_payment();
        // Lemma 3.3/5.8: E[Φ] ≤ 2. Allow slack for variance.
        assert!(phi <= 3.0, "mean payment {phi} too large");
        assert_eq!(dm.num_edges(), 0);
    }

    #[test]
    fn batch_report_counts_settles() {
        let mut dm = DynamicMatching::with_seed(11);
        let g = gen::complete(24);
        let ids = dm.insert_edges(&g.edges);
        dm.delete_edges(&ids);
        // Settle iterations bounded by O(log m).
        let report = dm.last_batch();
        assert!(report.settle_iterations <= 20);
        assert!(report.cost.work > 0);
    }

    #[test]
    fn interleaved_reinsertion_of_same_vertices() {
        let mut dm = DynamicMatching::with_seed(12);
        for round in 0..10u64 {
            let ids = dm.insert_edges(&[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]]);
            assert_ok(&dm);
            dm.delete_edges(&ids);
            assert_ok(&dm);
            assert_eq!(dm.num_edges(), 0, "round {round}");
        }
    }

    #[test]
    fn mixed_batch_settles_once_and_stays_maximal() {
        let mut dm = DynamicMatching::with_seed(30);
        let out = dm
            .apply(Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]))
            .unwrap();
        assert_ok(&dm);
        let matched: Vec<EdgeId> = out
            .inserted
            .iter()
            .copied()
            .filter(|&e| dm.is_matched(e))
            .collect();
        // Delete every matched edge AND insert replacements, one call.
        let out2 = dm
            .apply(Batch::new().deletes(matched.iter().copied()).inserts([
                vec![0, 2],
                vec![1, 4],
                vec![5, 6],
            ]))
            .unwrap();
        assert_eq!(out2.deleted, matched);
        assert_eq!(out2.inserted.len(), 3);
        assert_ok(&dm);
        assert!(dm.matching_size() >= 1);
        // Every update was accounted once.
        assert_eq!(dm.stats().user_insertions, 7);
        assert_eq!(dm.stats().user_deletions, matched.len() as u64);
        assert_eq!(dm.stats().batches, 2);
    }

    #[test]
    fn mixed_batch_rank_bump_applies_before_settlement() {
        // A batch whose insertions raise the rank while its deletions force
        // settling: the heaviness threshold must already use the new rank.
        let mut dm = DynamicMatching::with_seed(31);
        let g = gen::star(80);
        let ids = dm.insert_edges(&g.edges);
        let matched: Vec<EdgeId> = ids.iter().copied().filter(|&e| dm.is_matched(e)).collect();
        dm.apply(
            Batch::new()
                .deletes(matched.iter().copied())
                .insert(vec![100, 101, 102, 103]),
        )
        .unwrap();
        assert_eq!(dm.rank(), 4);
        assert_ok(&dm);
    }

    #[test]
    fn rank_one_edges_supported() {
        let mut dm = DynamicMatching::with_seed(13);
        let ids = dm.insert_edges(&[vec![0], vec![0], vec![1]]);
        // {0} can match once; the duplicate rank-1 edge on vertex 0 is
        // blocked; {1} matches.
        assert_eq!(dm.matching_size(), 2);
        assert_ok(&dm);
        dm.delete_edges(&ids);
        assert_eq!(dm.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "empty vertex set")]
    fn empty_edge_rejected() {
        let mut dm = DynamicMatching::with_seed(14);
        dm.insert_edges(&[vec![]]);
    }

    #[test]
    fn parallel_edges_are_supported() {
        // Two edges over the same vertex set get distinct ids; exactly one
        // can be matched, the other is owned by it.
        let mut dm = DynamicMatching::with_seed(23);
        let ids = dm.insert_edges(&[vec![0, 1], vec![0, 1], vec![0, 1]]);
        assert_eq!(ids.len(), 3);
        let matched: Vec<_> = ids.iter().filter(|&&e| dm.is_matched(e)).collect();
        assert_eq!(matched.len(), 1);
        assert_ok(&dm);
        // Deleting the matched copy promotes one of the others.
        dm.delete_edges(&[*matched[0]]);
        assert_eq!(dm.matching_size(), 1);
        assert_ok(&dm);
    }

    #[test]
    fn epoch_ledger_balances_on_empty_to_empty() {
        let mut dm = DynamicMatching::with_seed(24);
        let g = gen::preferential_attachment(400, 6, 67);
        let w = pbdmm_graph::workload::insert_then_delete(
            &g,
            128,
            pbdmm_graph::workload::DeletionOrder::VertexClustered,
            69,
        );
        let mut assigned: Vec<Option<EdgeId>> = vec![None; g.m()];
        for step in &w.steps {
            let ins: Vec<EdgeVertices> = step.insert.iter().map(|&i| g.edges[i].clone()).collect();
            let ids = dm.insert_edges(&ins);
            for (&ui, &id) in step.insert.iter().zip(&ids) {
                assigned[ui] = Some(id);
            }
            let dels: Vec<EdgeId> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
            dm.delete_edges(&dels);
        }
        assert_eq!(dm.num_edges(), 0);
        let s = dm.stats();
        // Every epoch created was ended by exactly one of the three causes.
        assert_eq!(
            s.epochs_created,
            s.natural_epochs + s.stolen_epochs + s.bloated_epochs,
            "epoch ledger unbalanced: {s:?}"
        );
        // Every user update was counted.
        assert_eq!(s.user_insertions, g.m() as u64);
        assert_eq!(s.user_deletions, g.m() as u64);
    }

    #[test]
    fn level_histogram_accounts_for_all_matches() {
        let mut dm = DynamicMatching::with_seed(20);
        let g = gen::preferential_attachment(300, 5, 21);
        let ids = dm.insert_edges(&g.edges);
        // Force some resettles so levels above 0 appear.
        dm.delete_edges(&ids[..ids.len() / 2]);
        let hist = dm.level_histogram();
        let total: usize = hist.iter().map(|o| o.matches).sum();
        assert_eq!(total, dm.matching_size());
        // Ascending, distinct levels; sample sizes within [2^l, 2^{l+1})
        // only at creation — current samples shrink, so just check mass > 0.
        assert!(hist.windows(2).all(|w| w[0].level < w[1].level));
        assert!(hist.iter().all(|o| o.matches > 0 && o.sample_mass > 0));
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let g = gen::erdos_renyi(80, 400, 55);
        let run = |seed| {
            let mut dm = DynamicMatching::with_seed(seed);
            let ids = dm.insert_edges(&g.edges);
            dm.delete_edges(&ids[..200]);
            let mut m = dm.matching();
            m.sort_unstable();
            m
        };
        assert_eq!(run(9), run(9));
        // Different coins generally give a different maximal matching.
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn all_light_config_stays_maximal_under_churn() {
        // Footnote 8: correctness is preserved when every match is light.
        let cfg = crate::level::LevelingConfig {
            all_light: true,
            ..Default::default()
        };
        let mut dm = DynamicMatching::with_seed_and_config(17, cfg);
        let g = gen::preferential_attachment(300, 5, 57);
        let w = pbdmm_graph::workload::insert_then_delete(
            &g,
            64,
            pbdmm_graph::workload::DeletionOrder::VertexClustered,
            59,
        );
        let mut assigned: Vec<Option<EdgeId>> = vec![None; g.m()];
        for step in &w.steps {
            let ins: Vec<EdgeVertices> = step.insert.iter().map(|&i| g.edges[i].clone()).collect();
            let ids = dm.insert_edges(&ins);
            for (&ui, &id) in step.insert.iter().zip(&ids) {
                assigned[ui] = Some(id);
            }
            let dels: Vec<EdgeId> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
            dm.delete_edges(&dels);
            assert_ok(&dm);
        }
        assert_eq!(dm.num_edges(), 0);
        // No random settles ever fire in all-light mode.
        assert_eq!(dm.stats().settle_rounds, 0);
        assert_eq!(dm.stats().induced_epochs(), 0);
    }

    #[test]
    fn wide_gap_config_stays_sound_under_churn() {
        // α = 8 leveling: invariants are config-relative and must hold.
        let cfg = crate::level::LevelingConfig {
            gap_log2: 3,
            heavy_factor: 2,
            all_light: false,
        };
        let mut dm = DynamicMatching::with_seed_and_config(18, cfg);
        let g = gen::preferential_attachment(300, 5, 61);
        let w = pbdmm_graph::workload::churn(&g, 48, 63);
        let mut assigned: Vec<Option<EdgeId>> = vec![None; g.m()];
        for step in &w.steps {
            let ins: Vec<EdgeVertices> = step.insert.iter().map(|&i| g.edges[i].clone()).collect();
            let ids = dm.insert_edges(&ins);
            for (&ui, &id) in step.insert.iter().zip(&ids) {
                assigned[ui] = Some(id);
            }
            let dels: Vec<EdgeId> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
            dm.delete_edges(&dels);
            assert_ok(&dm);
        }
        assert_eq!(dm.num_edges(), 0);
    }
}
