//! The leveled matching structure of Definition 4.1 and Table 1, on flat
//! slab storage.
//!
//! Invariants maintained between batch operations:
//!
//! 1. every edge is a *cross* edge or a *sampled* edge (matched edges are
//!    sampled edges in their own sample space);
//! 2. every edge is owned by an incident matched edge (a match owns itself);
//! 3. a match's level is `⌊lg s⌋` where `s` was its sample size at creation;
//! 4. a cross edge's owner is at the maximum level of any matched edge
//!    incident on it.
//!
//! Levels differ by a factor of **2** (not `Θ(r)` as in Assadi–Solomon) —
//! the paper's charging scheme (Lemma 5.6) depends on this.
//!
//! **Storage layout.** Edge ids are assigned sequentially by the owning
//! structure, so the state is index-addressed rather than hashed: the
//! [`EdgeTable`]/[`MatchTable`] are `Vec<Option<…>>` slabs keyed directly by
//! [`EdgeId`], the per-match `S(m)`/`C(m)` sets and the per-vertex level
//! bags `P(v, l)` are plain vectors with back-pointers stored in the
//! [`EdgeRec`] (swap-remove in `O(1)`, no hashing anywhere on the batch hot
//! path), and membership tests are one array index. See ARCHITECTURE.md's
//! "storage layer" section for the id lifecycle and why flat beats hashed
//! here.
//!
//! This module owns the raw state and the four structural operations of
//! Figure 3 (`addMatch`, `removeMatch`, `addCrossEdge`, `removeCrossEdge`)
//! plus `adjustCrossEdges`; the batch logic lives in [`crate::dynamic`].

use pbdmm_graph::edge::{EdgeId, EdgeVertices, VertexId};
use pbdmm_primitives::cost::log2_floor;
use pbdmm_primitives::slab::EpochSet;

/// A level: `⌊lg(sample size)⌋`, so at most `lg m < 64`.
pub type Level = u8;

/// Tunable leveling parameters — the design choices §5.2 argues about,
/// exposed so the ablation experiments (E13/E14) can measure them.
///
/// The paper's scheme is `gap_log2 = 1` (levels differ by a factor of
/// **2**; Lemma 5.6's charging needs the gap constant, *not* `Θ(r)` as in
/// Assadi–Solomon) and `heavy_factor = 4` (`isHeavy` at `4·r²·2^l`).
/// `all_light` disables random settling entirely (footnote 8: designating
/// every edge light preserves *correctness* — maximality — but forfeits the
/// work bound; E14 measures how much).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelingConfig {
    /// Levels differ by a factor of `2^gap_log2` (paper: 1, i.e. α = 2).
    pub gap_log2: u32,
    /// `isHeavy(e)` threshold coefficient `c` in `c·r²·α^l` (paper: 4).
    pub heavy_factor: u32,
    /// Treat every deleted match as light (no random settling).
    pub all_light: bool,
}

impl Default for LevelingConfig {
    fn default() -> Self {
        LevelingConfig {
            gap_log2: 1,
            heavy_factor: 4,
            all_light: false,
        }
    }
}

impl LevelingConfig {
    /// The level assigned to a match with creation-time sample size `s`
    /// (Invariant 3, generalized to gap α = 2^gap_log2: `⌊log_α s⌋`).
    #[inline]
    pub fn level_for_sample_size(&self, s: usize) -> Level {
        debug_assert!(s >= 1);
        (log2_floor(s) / self.gap_log2.max(1)) as Level
    }

    /// The `isHeavy` cross-edge threshold for a match at `level` in a
    /// rank-`rank` hypergraph: `heavy_factor · r² · α^level`.
    #[inline]
    pub fn heavy_threshold(&self, level: Level, rank: usize) -> usize {
        let alpha_pow = 1usize << ((self.gap_log2.max(1) as usize) * (level as usize)).min(40);
        (self.heavy_factor as usize) * rank * rank * alpha_pow
    }
}

/// The state an edge can be in (Table 1's `type(e)`; `Unsettled` occurs only
/// transiently inside a batch operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeType {
    /// In the matching `M` (and in its own sample space).
    Matched,
    /// In the sample space `S(m)` of some match `m`.
    Sampled,
    /// Owned by `C(m)` of an incident match at maximal level.
    Cross,
    /// Temporarily removed from the structure mid-operation.
    Unsettled,
}

/// Per-edge record: vertices, type, owner `p(e)`, and the flat-storage
/// back-pointers that make membership maintenance `O(1)` without hashing.
#[derive(Debug, Clone)]
pub struct EdgeRec {
    /// Canonical (sorted, deduplicated) vertex list.
    pub vertices: EdgeVertices,
    /// Current type.
    pub etype: EdgeType,
    /// Owner `p(e)`: the matched edge owning this edge. Meaningful for
    /// `Sampled` and `Cross`; self for `Matched`; unspecified for `Unsettled`.
    pub owner: EdgeId,
    /// Position of this edge inside its owner's `sample` (for
    /// `Matched`/`Sampled`) or `cross` (for `Cross`) vector — the
    /// back-pointer that makes swap-removal `O(1)`.
    pub(crate) owner_pos: u32,
    /// For `Cross` edges: position inside `P(vertices[i], l(owner))`, one
    /// entry per vertex. Capacity is reused across type transitions.
    pub(crate) bag_pos: Vec<u32>,
}

impl EdgeRec {
    /// A fresh record in `Unsettled` state (self-owned until settled) — how
    /// every edge enters the structure.
    pub fn unsettled(id: EdgeId, vertices: EdgeVertices) -> Self {
        EdgeRec {
            vertices,
            etype: EdgeType::Unsettled,
            owner: id,
            owner_pos: 0,
            bag_pos: Vec::new(),
        }
    }
}

/// Per-match record: sample space `S(m)`, cross edges `C(m)`, level `l(m)`.
///
/// `sample` and `cross` are unordered vectors; each member edge stores its
/// position (`EdgeRec::owner_pos`), so insertion is a push and removal is a
/// swap-remove plus one back-pointer fix.
#[derive(Debug, Clone)]
pub struct MatchRec {
    /// `S(m)` — the sample edges this match owns, including itself.
    pub sample: Vec<EdgeId>,
    /// `C(m)` — the cross edges this match owns.
    pub cross: Vec<EdgeId>,
    /// `l(m) = ⌊lg s⌋` for creation-time sample size `s`. Fixed for life.
    pub level: Level,
    /// Creation-time sample size (for invariant checking and statistics).
    pub initial_sample_size: usize,
}

/// The per-vertex level bags `P(v, l)`: cross edges at owner-level `l`
/// incident on `v`, stored as a short vector of `(level, bag)` pairs — a
/// vertex touches `O(log m)` distinct levels, so lookup is a linear scan of
/// a few entries instead of a hash probe. Emptied bags keep their
/// allocation for reuse.
#[derive(Debug, Clone, Default)]
pub struct LevelBags {
    /// `(level, bag)` pairs in first-touch order. Emptied bags stay in
    /// place (allocation reuse), and checkpoints serialize the vector
    /// verbatim — the iteration order feeds `adjust_cross_edges`, so a
    /// restored structure must reproduce it exactly for replay determinism.
    pub(crate) bags: Vec<(Level, Vec<EdgeId>)>,
}

impl LevelBags {
    /// The bag at `level` (empty slice if never populated).
    pub fn bag(&self, level: Level) -> &[EdgeId] {
        self.bags
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, b)| b.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate over the `(level, bag)` pairs (possibly with empty bags).
    pub fn iter(&self) -> impl Iterator<Item = (Level, &[EdgeId])> + '_ {
        self.bags.iter().map(|(l, b)| (*l, b.as_slice()))
    }

    /// The bag at `level`, created on first use.
    fn bag_mut(&mut self, level: Level) -> &mut Vec<EdgeId> {
        if let Some(i) = self.bags.iter().position(|(l, _)| *l == level) {
            return &mut self.bags[i].1;
        }
        self.bags.push((level, Vec::new()));
        &mut self.bags.last_mut().expect("just pushed").1
    }
}

/// Per-vertex record: covering match `p(v)` and the level bags `P(v, l)`.
#[derive(Debug, Clone, Default)]
pub struct VertexRec {
    /// `p(v)` — the matched edge covering this vertex, if any.
    pub matched: Option<EdgeId>,
    /// `P(v, l)` — cross edges at owner-level `l` incident on `v` (the
    /// indexed adjacency settlement rounds scan without hashing).
    pub bags: LevelBags,
}

/// A dense `EdgeId → T` slab table: a `Vec<Option<T>>` indexed by the raw
/// id (ids are assigned sequentially by the owning structure, so the table
/// is dense) plus a packed list of live ids for `O(live)` iteration.
/// Lookup, insert, and remove are `O(1)` with no hashing.
#[derive(Debug)]
pub struct IdTable<T> {
    slots: Vec<Option<T>>,
    /// Live ids, unordered; `pos[id]` is an id's index here.
    live: Vec<EdgeId>,
    pos: Vec<u32>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            live: Vec::new(),
            pos: Vec::new(),
        }
    }
}

/// The `EdgeId → EdgeRec` slab.
pub type EdgeTable = IdTable<EdgeRec>;

/// The `EdgeId → MatchRec` slab (only matched ids are occupied).
pub type MatchTable = IdTable<MatchRec>;

impl<T> IdTable<T> {
    /// The record for `e`, if live.
    #[inline]
    pub fn get(&self, e: EdgeId) -> Option<&T> {
        self.slots.get(e.0 as usize)?.as_ref()
    }

    /// Mutable record for `e`, if live.
    #[inline]
    pub fn get_mut(&mut self, e: EdgeId) -> Option<&mut T> {
        self.slots.get_mut(e.0 as usize)?.as_mut()
    }

    /// Is `e` a live id?
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        matches!(self.slots.get(e.0 as usize), Some(Some(_)))
    }

    /// Install a record under `e`. The slot must currently be empty (ids
    /// are unique while live).
    pub fn insert(&mut self, e: EdgeId, rec: T) {
        let i = e.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
            self.pos.resize(i + 1, 0);
        }
        debug_assert!(self.slots[i].is_none(), "duplicate live id {e}");
        self.slots[i] = Some(rec);
        self.pos[i] = self.live.len() as u32;
        self.live.push(e);
    }

    /// Remove and return the record for `e`, if live.
    pub fn remove(&mut self, e: EdgeId) -> Option<T> {
        let i = e.0 as usize;
        let rec = self.slots.get_mut(i)?.take()?;
        let p = self.pos[i] as usize;
        self.live.swap_remove(p);
        if p < self.live.len() {
            let moved = self.live[p];
            self.pos[moved.0 as usize] = p as u32;
        }
        Some(rec)
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Is the table empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The live ids, unordered.
    #[inline]
    pub fn ids(&self) -> &[EdgeId] {
        &self.live
    }

    /// Iterate over live `(id, record)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &T)> + '_ {
        self.live
            .iter()
            .map(move |&e| (e, self.slots[e.0 as usize].as_ref().expect("live id")))
    }

    /// High-water mark: table slots allocated (the largest id ever seen + 1).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Pre-grow the slot/position arrays to `n` entries without inserting
    /// anything. Checkpoint restore uses this so a rebuilt table's
    /// [`Self::high_water`] matches the original even when the top ids were
    /// free at capture time. A mark the allocator cannot satisfy is an
    /// error, not an abort: it comes from a file.
    pub(crate) fn reserve_slots(&mut self, n: usize) -> Result<(), String> {
        if n > self.slots.len() {
            let extra = n - self.slots.len();
            self.slots
                .try_reserve_exact(extra)
                .and_then(|()| self.pos.try_reserve_exact(extra))
                .map_err(|e| format!("cannot size a table to {n} slots: {e}"))?;
            self.slots.resize_with(n, || None);
            self.pos.resize(n, 0);
        }
        Ok(())
    }
}

impl<T> std::ops::Index<EdgeId> for IdTable<T> {
    type Output = T;
    #[inline]
    fn index(&self, e: EdgeId) -> &T {
        self.get(e).expect("indexed a dead id")
    }
}

/// The leveled matching structure: all edge/match/vertex state on flat
/// index-addressed tables.
#[derive(Debug, Default)]
pub struct LeveledStructure {
    /// All live edges (plus transiently unsettled ones mid-operation).
    pub edges: EdgeTable,
    /// The matching `M` with per-match state.
    pub matches: MatchTable,
    /// Dense vertex table, grown on demand.
    pub vertices: Vec<VertexRec>,
    /// Leveling parameters (paper defaults unless configured for ablation).
    pub config: LevelingConfig,
    /// Reusable dedup scratch for `adjustCrossEdges` (epoch-stamped, so
    /// clearing between calls is `O(1)`).
    scratch: EpochSet,
}

impl LeveledStructure {
    /// Create an empty structure with the paper's parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty structure with explicit leveling parameters.
    pub fn with_config(config: LevelingConfig) -> Self {
        LeveledStructure {
            config,
            ..Self::default()
        }
    }

    /// Ensure the vertex table covers `v`.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if v as usize >= self.vertices.len() {
            self.vertices
                .resize_with(v as usize + 1, VertexRec::default);
        }
    }

    /// `p(v)`: the matched edge covering `v`, if any.
    #[inline]
    pub fn vertex_match(&self, v: VertexId) -> Option<EdgeId> {
        self.vertices.get(v as usize).and_then(|r| r.matched)
    }

    /// Is every vertex of `vs` free (`p(v) = ⊥`)?
    pub fn all_free(&self, vs: &[VertexId]) -> bool {
        vs.iter().all(|&v| self.vertex_match(v).is_none())
    }

    /// The level of match `m`. Panics if `m` is not matched.
    #[inline]
    pub fn level(&self, m: EdgeId) -> Level {
        self.matches[m].level
    }

    /// The level a match would get for sample size `s` under the paper's
    /// default parameters (Invariant 3). Instances use their own
    /// [`LevelingConfig`]; this associated form exists for tests and docs.
    #[inline]
    pub fn level_for_sample_size(s: usize) -> Level {
        LevelingConfig::default().level_for_sample_size(s)
    }

    /// Figure 3 `addMatch(m, S_e)`: install `m` as a match owning sample
    /// space `sample` (which must contain `m`). All sample edges must
    /// currently be unsettled. Overwrites `p(v)` for `m`'s vertices.
    pub fn add_match(&mut self, m: EdgeId, sample: Vec<EdgeId>) {
        debug_assert!(sample.contains(&m), "match must be in its own sample");
        let size = sample.len();
        let level = self.config.level_for_sample_size(size);
        for (i, &e) in sample.iter().enumerate() {
            let rec = self.edges.get_mut(e).expect("sample edge must exist");
            rec.etype = EdgeType::Sampled;
            rec.owner = m;
            rec.owner_pos = i as u32;
        }
        let mrec = self.edges.get_mut(m).expect("match edge must exist");
        mrec.etype = EdgeType::Matched;
        let mvs = std::mem::take(&mut mrec.vertices);
        for &v in &mvs {
            self.ensure_vertex(v);
            self.vertices[v as usize].matched = Some(m);
        }
        self.edges.get_mut(m).expect("match edge").vertices = mvs;
        self.matches.insert(
            m,
            MatchRec {
                sample,
                cross: Vec::new(),
                level,
                initial_sample_size: size,
            },
        );
    }

    /// Figure 3 `removeMatch(m)`: delete the match, free its vertices (only
    /// those still pointing at `m` — a stolen match's vertices may already
    /// point at the newer match), remove and return its owned cross edges
    /// (now unsettled). Assumes `m`'s sample edges have already been
    /// converted to cross edges (or individually deleted).
    pub fn remove_match(&mut self, m: EdgeId) -> Vec<EdgeId> {
        let rec = self.matches.remove(m).expect("removing unknown match");
        let mvs = std::mem::take(&mut self.edges.get_mut(m).expect("match edge").vertices);
        for &v in &mvs {
            let vr = &mut self.vertices[v as usize];
            if vr.matched == Some(m) {
                vr.matched = None;
            }
        }
        self.edges.get_mut(m).expect("match edge").vertices = mvs;
        let cross = rec.cross;
        for &e in &cross {
            self.detach_cross_bags(e, rec.level);
        }
        cross
    }

    /// Remove `e` from its owner's sample space in `O(1)` (swap-remove via
    /// the back-pointer). `e` may be the owner itself (a match dropping out
    /// of its own sample before deletion).
    pub(crate) fn remove_from_sample(&mut self, owner: EdgeId, e: EdgeId) {
        let p = self.edges[e].owner_pos as usize;
        let mrec = self
            .matches
            .get_mut(owner)
            .expect("sampled edge's owner must be matched");
        debug_assert_eq!(mrec.sample[p], e, "owner_pos out of sync");
        mrec.sample.swap_remove(p);
        if p < mrec.sample.len() {
            let moved = mrec.sample[p];
            self.edges.get_mut(moved).expect("sample edge").owner_pos = p as u32;
        }
    }

    /// Figure 3 `addCrossEdge(e)`: insert `e` as a cross edge owned by the
    /// maximum-level matched edge incident on it (Invariant 4). At least one
    /// vertex of `e` must be covered.
    pub fn add_cross_edge(&mut self, e: EdgeId) {
        let owner = self
            .max_level_incident_match(&self.edges[e].vertices)
            .expect("cross edge must touch a matched vertex");
        let level = self.matches[owner].level;
        let mrec = self.matches.get_mut(owner).expect("owner is matched");
        let opos = mrec.cross.len() as u32;
        mrec.cross.push(e);
        let rec = self.edges.get_mut(e).expect("cross edge must exist");
        rec.etype = EdgeType::Cross;
        rec.owner = owner;
        rec.owner_pos = opos;
        let vs = std::mem::take(&mut rec.vertices);
        let mut bp = std::mem::take(&mut rec.bag_pos);
        bp.clear();
        for &v in &vs {
            self.ensure_vertex(v);
            let bag = self.vertices[v as usize].bags.bag_mut(level);
            bp.push(bag.len() as u32);
            bag.push(e);
        }
        let rec = self.edges.get_mut(e).expect("cross edge");
        rec.vertices = vs;
        rec.bag_pos = bp;
    }

    /// Figure 3 `removeCrossEdge(e)`: detach `e` from its owner's `C` set and
    /// all `P(v, l)` bags; `e` becomes unsettled.
    pub fn remove_cross_edge(&mut self, e: EdgeId) {
        let rec = &self.edges[e];
        let owner = rec.owner;
        let p = rec.owner_pos as usize;
        let mrec = self
            .matches
            .get_mut(owner)
            .expect("cross edge owner must be matched");
        debug_assert_eq!(mrec.cross[p], e, "owner_pos out of sync");
        mrec.cross.swap_remove(p);
        let level = mrec.level;
        if p < mrec.cross.len() {
            let moved = mrec.cross[p];
            self.edges.get_mut(moved).expect("cross edge").owner_pos = p as u32;
        }
        self.detach_cross_bags(e, level);
    }

    /// Shared tail of cross-edge removal: clear the `P(v, l)` bags and mark
    /// unsettled. (`remove_match` already consumed the owner's `C` set, so it
    /// skips the `C` removal done by [`Self::remove_cross_edge`].)
    fn detach_cross_bags(&mut self, e: EdgeId, level: Level) {
        let rec = self.edges.get_mut(e).expect("cross edge must exist");
        rec.etype = EdgeType::Unsettled;
        let vs = std::mem::take(&mut rec.vertices);
        let bp = std::mem::take(&mut rec.bag_pos);
        debug_assert_eq!(bp.len(), vs.len(), "bag back-pointers out of sync");
        for (i, &v) in vs.iter().enumerate() {
            let bag = self.vertices[v as usize].bags.bag_mut(level);
            let p = bp[i] as usize;
            debug_assert_eq!(bag[p], e, "bag_pos out of sync");
            bag.swap_remove(p);
            if p < bag.len() {
                let moved = bag[p];
                let frec = self.edges.get_mut(moved).expect("bagged edge is live");
                let j = frec
                    .vertices
                    .binary_search(&v)
                    .expect("bagged edge incident on its bag vertex");
                frec.bag_pos[j] = p as u32;
            }
        }
        let rec = self.edges.get_mut(e).expect("cross edge");
        rec.vertices = vs;
        rec.bag_pos = bp;
    }

    /// The incident matched edge of maximum level across `vs`, if any.
    /// Invariant-4 owner selection (`argmax_{v} l(p(v))`).
    pub fn max_level_incident_match(&self, vs: &[VertexId]) -> Option<EdgeId> {
        let mut best: Option<(Level, EdgeId)> = None;
        for &v in vs {
            if let Some(m) = self.vertex_match(v) {
                let l = self.matches[m].level;
                if best.map(|(bl, _)| l > bl).unwrap_or(true) {
                    best = Some((l, m));
                }
            }
        }
        best.map(|(_, m)| m)
    }

    /// Figure 3 `adjustCrossEdges(E)`: after new matches `new_matches` are
    /// installed, re-home every cross edge incident on their vertices whose
    /// owner sits at a *lower* level than the new match (Invariant 4 repair).
    pub fn adjust_cross_edges(&mut self, new_matches: &[EdgeId]) -> usize {
        let mut seen = std::mem::take(&mut self.scratch);
        seen.clear();
        let mut moved: Vec<EdgeId> = Vec::new();
        for &m in new_matches {
            let lvl = self.matches[m].level;
            for &v in &self.edges[m].vertices {
                for (bag_level, bag) in self.vertices[v as usize].bags.iter() {
                    if bag_level < lvl {
                        for &e in bag {
                            if seen.insert(e.0 as usize) {
                                moved.push(e);
                            }
                        }
                    }
                }
            }
        }
        self.scratch = seen;
        for &e in &moved {
            self.remove_cross_edge(e);
        }
        for &e in &moved {
            self.add_cross_edge(e);
        }
        moved.len()
    }

    /// Figure 3 `isHeavy(e)`: `|C(e)| ≥ c·r²·α^{l(e)}` with the paper's
    /// defaults `c = 4, α = 2`. Always false in all-light mode (footnote 8).
    pub fn is_heavy(&self, m: EdgeId, rank: usize) -> bool {
        if self.config.all_light {
            return false;
        }
        let rec = &self.matches[m];
        rec.cross.len() >= self.config.heavy_threshold(rec.level, rank)
    }

    /// The current matching as a vector of edge ids.
    pub fn matching(&self) -> Vec<EdgeId> {
        self.matches.ids().to_vec()
    }

    /// Number of live edges currently in the structure (excluding transient
    /// unsettled edges is the caller's concern; between batches all edges are
    /// settled).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(i: u64) -> EdgeId {
        EdgeId(i)
    }

    /// Install an edge record in unsettled state.
    fn add_edge(s: &mut LeveledStructure, id: u64, vs: Vec<VertexId>) {
        for &v in &vs {
            s.ensure_vertex(v);
        }
        s.edges.insert(eid(id), EdgeRec::unsettled(eid(id), vs));
    }

    #[test]
    fn level_for_sample_size_is_floor_lg() {
        assert_eq!(LeveledStructure::level_for_sample_size(1), 0);
        assert_eq!(LeveledStructure::level_for_sample_size(2), 1);
        assert_eq!(LeveledStructure::level_for_sample_size(3), 1);
        assert_eq!(LeveledStructure::level_for_sample_size(4), 2);
        assert_eq!(LeveledStructure::level_for_sample_size(1023), 9);
        assert_eq!(LeveledStructure::level_for_sample_size(1024), 10);
    }

    #[test]
    fn add_match_installs_state() {
        let mut s = LeveledStructure::new();
        add_edge(&mut s, 0, vec![0, 1]);
        add_edge(&mut s, 1, vec![1, 2]);
        add_edge(&mut s, 2, vec![0, 3]);
        s.add_match(eid(0), vec![eid(0), eid(1), eid(2)]);
        assert_eq!(s.edges[eid(0)].etype, EdgeType::Matched);
        assert_eq!(s.edges[eid(1)].etype, EdgeType::Sampled);
        assert_eq!(s.edges[eid(1)].owner, eid(0));
        assert_eq!(s.vertex_match(0), Some(eid(0)));
        assert_eq!(s.vertex_match(1), Some(eid(0)));
        assert_eq!(s.vertex_match(2), None);
        assert_eq!(s.level(eid(0)), 1); // floor(lg 3)
    }

    #[test]
    fn cross_edge_goes_to_max_level_owner() {
        let mut s = LeveledStructure::new();
        // Match A at level 0 on vertices {0,1}; match B at level 2 on {2,3}.
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]);
        add_edge(&mut s, 1, vec![2, 3]);
        add_edge(&mut s, 2, vec![2, 4]);
        add_edge(&mut s, 3, vec![3, 4]);
        add_edge(&mut s, 4, vec![2, 5]);
        add_edge(&mut s, 5, vec![3, 5]);
        s.add_match(eid(1), vec![eid(1), eid(2), eid(3), eid(4), eid(5)]); // level 2
                                                                           // Cross edge touching both matches must be owned by B (level 2).
        add_edge(&mut s, 6, vec![1, 2]);
        s.add_cross_edge(eid(6));
        assert_eq!(s.edges[eid(6)].owner, eid(1));
        assert!(s.matches[eid(1)].cross.contains(&eid(6)));
        // Bags on both endpoints at level 2.
        assert!(s.vertices[1].bags.bag(2).contains(&eid(6)));
        assert!(s.vertices[2].bags.bag(2).contains(&eid(6)));
    }

    #[test]
    fn remove_cross_edge_unsettles() {
        let mut s = LeveledStructure::new();
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]);
        add_edge(&mut s, 1, vec![1, 2]);
        s.add_cross_edge(eid(1));
        s.remove_cross_edge(eid(1));
        assert_eq!(s.edges[eid(1)].etype, EdgeType::Unsettled);
        assert!(s.matches[eid(0)].cross.is_empty());
        assert!(s.vertices[1].bags.bag(0).is_empty());
    }

    #[test]
    fn remove_match_returns_cross_and_frees_vertices() {
        let mut s = LeveledStructure::new();
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]);
        add_edge(&mut s, 1, vec![1, 2]);
        add_edge(&mut s, 2, vec![0, 3]);
        s.add_cross_edge(eid(1));
        s.add_cross_edge(eid(2));
        let mut cross = s.remove_match(eid(0));
        cross.sort();
        assert_eq!(cross, vec![eid(1), eid(2)]);
        assert_eq!(s.vertex_match(0), None);
        assert_eq!(s.vertex_match(1), None);
        assert_eq!(s.edges[eid(1)].etype, EdgeType::Unsettled);
        assert!(s.matches.is_empty());
    }

    #[test]
    fn remove_match_spares_stolen_vertices() {
        let mut s = LeveledStructure::new();
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]);
        // A newer match steals vertex 1.
        add_edge(&mut s, 1, vec![1, 2]);
        s.add_match(eid(1), vec![eid(1)]);
        assert_eq!(s.vertex_match(1), Some(eid(1)));
        s.remove_match(eid(0));
        // Vertex 0 freed; vertex 1 still covered by the thief.
        assert_eq!(s.vertex_match(0), None);
        assert_eq!(s.vertex_match(1), Some(eid(1)));
    }

    #[test]
    fn adjust_cross_edges_rehomes_lower_levels() {
        let mut s = LeveledStructure::new();
        // Low-level match A on {0,1} owns cross edge X on {1,2}.
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]); // level 0
        add_edge(&mut s, 10, vec![1, 2]);
        s.add_cross_edge(eid(10));
        assert_eq!(s.edges[eid(10)].owner, eid(0));
        // New high-level match B on {2,3,4...} (sample size 4 → level 2).
        for (i, vs) in [
            (1u64, vec![2, 3]),
            (2, vec![3, 4]),
            (3, vec![2, 4]),
            (4, vec![3, 5]),
        ] {
            add_edge(&mut s, i, vs);
        }
        s.add_match(eid(1), vec![eid(1), eid(2), eid(3), eid(4)]);
        let moved = s.adjust_cross_edges(&[eid(1)]);
        assert_eq!(moved, 1);
        assert_eq!(s.edges[eid(10)].owner, eid(1));
        assert!(s.vertices[1].bags.bag(2).contains(&eid(10)));
        assert!(s.vertices[1].bags.bag(0).is_empty());
    }

    #[test]
    fn swap_removal_keeps_back_pointers_consistent() {
        // Many cross edges through one vertex; removing from the middle
        // must leave every survivor's back-pointers valid for later removal.
        let mut s = LeveledStructure::new();
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]);
        for i in 0..8u64 {
            add_edge(&mut s, 10 + i, vec![1, 10 + i as u32]);
            s.add_cross_edge(eid(10 + i));
        }
        // Remove in an order that exercises swap-in-the-middle and tail.
        for i in [3u64, 0, 5, 7, 1, 2, 4, 6] {
            s.remove_cross_edge(eid(10 + i));
        }
        assert!(s.matches[eid(0)].cross.is_empty());
        assert!(s.vertices[1].bags.bag(0).is_empty());
        for i in 0..8u64 {
            assert_eq!(s.edges[eid(10 + i)].etype, EdgeType::Unsettled);
        }
    }

    #[test]
    fn edge_table_tracks_live_set_and_high_water() {
        let mut t = EdgeTable::default();
        for i in 0..5u64 {
            t.insert(eid(i), EdgeRec::unsettled(eid(i), vec![i as u32]));
        }
        assert_eq!(t.len(), 5);
        t.remove(eid(2));
        t.remove(eid(0));
        assert_eq!(t.len(), 3);
        assert!(!t.contains(eid(2)));
        assert!(t.contains(eid(4)));
        let mut ids: Vec<u64> = t.ids().iter().map(|e| e.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 4]);
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.high_water(), 5);
        // A removed slot can be re-occupied (id recycling).
        t.insert(eid(2), EdgeRec::unsettled(eid(2), vec![9]));
        assert_eq!(t.len(), 4);
        assert_eq!(t[eid(2)].vertices, vec![9]);
    }

    #[test]
    fn config_level_gaps() {
        let paper = LevelingConfig::default();
        assert_eq!(paper.level_for_sample_size(1), 0);
        assert_eq!(paper.level_for_sample_size(7), 2);
        assert_eq!(paper.level_for_sample_size(8), 3);
        // α = 4 (gap_log2 = 2): level = ⌊log₄ s⌋.
        let wide = LevelingConfig {
            gap_log2: 2,
            ..Default::default()
        };
        assert_eq!(wide.level_for_sample_size(3), 0);
        assert_eq!(wide.level_for_sample_size(4), 1);
        assert_eq!(wide.level_for_sample_size(15), 1);
        assert_eq!(wide.level_for_sample_size(16), 2);
    }

    #[test]
    fn config_heavy_thresholds() {
        let paper = LevelingConfig::default();
        assert_eq!(paper.heavy_threshold(0, 2), 16); // 4·4·1
        assert_eq!(paper.heavy_threshold(3, 2), 128); // 4·4·8
        let tight = LevelingConfig {
            heavy_factor: 1,
            ..Default::default()
        };
        assert_eq!(tight.heavy_threshold(0, 2), 4);
        let wide = LevelingConfig {
            gap_log2: 2,
            ..Default::default()
        };
        assert_eq!(wide.heavy_threshold(2, 2), 4 * 4 * 16); // α² = 16
    }

    #[test]
    fn all_light_mode_never_heavy() {
        let mut s = LeveledStructure::with_config(LevelingConfig {
            all_light: true,
            ..Default::default()
        });
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]);
        for i in 0..100u64 {
            add_edge(&mut s, 100 + i, vec![1, 100 + i as u32]);
            s.add_cross_edge(eid(100 + i));
        }
        assert!(!s.is_heavy(eid(0), 2));
    }

    #[test]
    fn is_heavy_threshold() {
        let mut s = LeveledStructure::new();
        add_edge(&mut s, 0, vec![0, 1]);
        s.add_match(eid(0), vec![eid(0)]); // level 0
                                           // threshold for r=2, level 0: 4·4·1 = 16 cross edges.
        for i in 0..15u64 {
            add_edge(&mut s, 100 + i, vec![1, 100 + i as u32]);
            s.add_cross_edge(eid(100 + i));
        }
        assert!(!s.is_heavy(eid(0), 2));
        add_edge(&mut s, 200, vec![1, 200]);
        s.add_cross_edge(eid(200));
        assert!(s.is_heavy(eid(0), 2));
    }
}
