//! # pbdmm-setcover
//!
//! Static and batch-dynamic **r-approximate set cover** via hypergraph
//! maximal matching — Corollaries 1.4 and 1.5 of *Blelloch & Brady,
//! SPAA 2025*.
//!
//! The reduction (due to Assadi–Solomon): sets become vertices, each element
//! becomes a hyperedge over the (at most `r`) sets that contain it. For any
//! maximal matching `M`, taking every set incident on a matched edge yields a
//! cover: maximality puts every element-edge next to some matched edge, so
//! one of its sets is chosen. The cover has size `Σ_{m∈M} |V(m)| ≤ r·|M|`,
//! and `|M| ≤ OPT` because matched edges are set-disjoint and each needs a
//! distinct set in any cover — hence an `r`-approximation.
//!
//! * [`static_cover`] — one-shot cover from the parallel static matcher
//!   (`O(m')` expected work, Corollary 1.5);
//! * [`DynamicSetCover`] — batch insertions/deletions of *elements* at
//!   `O(r³)` amortized expected work per update (Corollary 1.4);
//! * [`cover_size`] — the size of the cover any maximal matching stands
//!   for, which a served set cover (a `DynamicMatching` whose WAL header
//!   says `setcover`) reports;
//! * [`greedy_cover`] — the classic sequential greedy `H_n`-approximation,
//!   used as the quality baseline in experiment E10.

#![warn(missing_docs)]

use pbdmm_graph::edge::{EdgeId, VertexId};
use pbdmm_matching::api::{Batch, BatchDynamic, BatchOutcome, UpdateError};
use pbdmm_matching::{BatchReport, DynamicMatching};
use pbdmm_primitives::hash::{FxHashMap, FxHashSet};
use pbdmm_primitives::rng::SplitMix64;

/// A set identifier (a vertex in the reduction).
pub type SetId = VertexId;

/// An element identifier handed out by [`DynamicSetCover`] (an edge in the
/// reduction).
pub type ElementId = EdgeId;

/// Compute an `r`-approximate set cover statically (Corollary 1.5): run the
/// parallel random greedy matcher over the element hyperedges and take every
/// set touched by a matched element.
///
/// `elements[i]` lists the sets containing element `i` (must be non-empty).
/// Returns the chosen sets (duplicate-free) and the matching size (a lower
/// bound on `OPT`).
///
/// # Examples
/// ```
/// use pbdmm_setcover::{static_cover, validate_cover};
///
/// // Three elements over four sets; element 0 only in set 0.
/// let elements = vec![vec![0], vec![0, 1], vec![2, 3]];
/// let (cover, lower_bound) = static_cover(&elements, 42);
/// validate_cover(&elements, &cover).unwrap();
/// assert!(cover.len() <= 2 * lower_bound); // r = 2 here
/// ```
pub fn static_cover(elements: &[Vec<SetId>], seed: u64) -> (Vec<SetId>, usize) {
    let edges: Vec<Vec<VertexId>> = elements
        .iter()
        .map(|sets| {
            pbdmm_graph::edge::normalize_vertices(sets.clone())
                .expect("element contained in no set")
        })
        .collect();
    let meter = pbdmm_primitives::cost::CostMeter::new();
    let mut rng = SplitMix64::new(seed);
    let result = pbdmm_matching::parallel_greedy_match(&edges, &mut rng, &meter);
    let mut cover: Vec<SetId> = Vec::new();
    for &(mi, _) in &result.matches {
        cover.extend_from_slice(&edges[mi]);
    }
    // Matched edges are vertex-disjoint, so `cover` is already duplicate-free.
    (cover, result.matches.len())
}

/// Batch-dynamic `r`-approximate set cover (Corollary 1.4): a thin wrapper
/// over [`DynamicMatching`] in the sets-as-vertices reduction. Elements are
/// inserted and deleted in batches; the cover is read off the matching.
///
/// Implements [`BatchDynamic`] as the *element-update adapter*: an
/// `Update::Insert(sets)` inserts one element (a hyperedge over the sets
/// containing it) and an `Update::Delete(id)` removes one, so the generic
/// workload driver and benchmarks replay the same mixed streams against the
/// cover as against every matching contender.
///
/// A served cover is its matching: the service, its WAL (`# structure:
/// setcover`, monotonic ids), its checkpoints and its readers all run a
/// [`DynamicMatching`]. A cover reader asks a
/// [`MatchingSnapshot`](pbdmm_matching::MatchingSnapshot): set `s` is
/// chosen iff `is_matched(s)`, element `e` is live (hence covered) iff
/// `contains_edge(e)`, the `OPT` lower bound is `matching_size()`, and the
/// cover size is `matched_vertices().count()`.
///
/// # Examples
/// ```
/// use pbdmm_matching::MatchingSnapshot;
/// use pbdmm_setcover::DynamicSetCover;
///
/// let mut dc = DynamicSetCover::with_seed(3);
/// let ids = dc.insert_elements(&[vec![0, 1], vec![1, 2], vec![2]]);
/// assert!(ids.iter().all(|&e| dc.is_covered(e)));
///
/// // A reader sees the same cover in a snapshot of the matching.
/// let snap = MatchingSnapshot::capture(dc.matching());
/// assert_eq!(snap.epoch(), 3);
/// assert!(ids.iter().all(|&e| snap.contains_edge(e)));
/// assert_eq!(snap.matched_vertices().count(), dc.cover_size());
/// assert!(snap.matched_vertices().count() <= 2 * snap.matching_size()); // r = 2
///
/// dc.delete_elements(&ids);
/// assert_eq!(dc.cover_size(), 0);
/// ```
pub struct DynamicSetCover {
    matching: DynamicMatching,
}

impl DynamicSetCover {
    /// Create an empty instance with the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        DynamicSetCover {
            matching: DynamicMatching::with_seed(seed),
        }
    }

    /// Apply one mixed batch of element updates (insert = the sets
    /// containing a new element; delete = a live element id). Strict; see
    /// [`UpdateError`].
    pub fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<BatchReport>, UpdateError> {
        self.matching.apply(batch)
    }

    /// Insert a batch of elements; `batch[i]` lists the sets containing the
    /// element. Returns element ids in input order.
    ///
    /// # Panics
    /// If any element is contained in no set.
    pub fn insert_elements(&mut self, batch: &[Vec<SetId>]) -> Vec<ElementId> {
        self.matching.insert_edges(batch)
    }

    /// Delete a batch of elements by id, tolerantly (unknown and duplicate
    /// ids are skipped). Returns the ids actually deleted so callers can
    /// reconcile.
    pub fn delete_elements(&mut self, ids: &[ElementId]) -> Vec<ElementId> {
        self.matching.delete_edges(ids)
    }

    /// The current cover: every set incident on a matched element.
    /// Duplicate-free (matched elements are set-disjoint).
    pub fn cover(&self) -> Vec<SetId> {
        let mut cover = Vec::new();
        for m in self.matching.matching() {
            cover.extend_from_slice(self.matching.edge_vertices(m).unwrap());
        }
        cover
    }

    /// Size of the current cover without materializing it.
    pub fn cover_size(&self) -> usize {
        cover_size(&self.matching)
    }

    /// The matching size — a lower bound on the optimal cover size.
    pub fn opt_lower_bound(&self) -> usize {
        self.matching.matching_size()
    }

    /// Is the given live element covered? (Always true between batches; this
    /// is the correctness predicate tests assert.)
    pub fn is_covered(&self, e: ElementId) -> bool {
        let Some(vs) = self.matching.edge_vertices(e) else {
            return false;
        };
        vs.iter()
            .any(|&s| self.matching.matched_edge_of(s).is_some())
    }

    /// Number of live elements.
    pub fn num_elements(&self) -> usize {
        self.matching.num_edges()
    }

    /// Access the underlying matching structure (statistics, meters).
    pub fn matching(&self) -> &DynamicMatching {
        &self.matching
    }
}

impl BatchDynamic for DynamicSetCover {
    type Report = BatchReport;

    fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<BatchReport>, UpdateError> {
        DynamicSetCover::apply(self, batch)
    }

    /// Matching size — the lower bound on `OPT`, the natural "size" of the
    /// maintained solution for cross-contender comparisons.
    fn matching_size(&self) -> usize {
        self.matching.matching_size()
    }

    fn is_matched(&self, e: EdgeId) -> bool {
        self.matching.is_matched(e)
    }

    fn contains_edge(&self, e: EdgeId) -> bool {
        self.matching.contains_edge(e)
    }

    fn num_edges(&self) -> usize {
        self.matching.num_edges()
    }

    fn work(&self) -> u64 {
        self.matching.meter().work()
    }
}

/// The size of the cover a matching `m` stands for, read with sets as
/// vertices: every set of every matched element, `Σ_{e∈M} |V(e)|`. This is
/// the `cover=` a served set cover reports.
pub fn cover_size(m: &DynamicMatching) -> usize {
    m.matching()
        .iter()
        .map(|&e| m.edge_vertices(e).expect("a matched edge is live").len())
        .sum()
}

/// The classic sequential greedy set cover (`H_n`-approximation): repeatedly
/// pick the set covering the most uncovered elements. Quality baseline for
/// E10 — *not* dynamic and `O(Σ|sets|·iterations)` work.
pub fn greedy_cover(elements: &[Vec<SetId>]) -> Vec<SetId> {
    let mut sets_to_elements: FxHashMap<SetId, Vec<usize>> = FxHashMap::default();
    for (i, sets) in elements.iter().enumerate() {
        for &s in sets {
            sets_to_elements.entry(s).or_default().push(i);
        }
    }
    let mut covered = vec![false; elements.len()];
    let mut remaining = elements.len();
    let mut cover = Vec::new();
    while remaining > 0 {
        let (&best, _) = sets_to_elements
            .iter()
            .max_by_key(|(_, els)| els.iter().filter(|&&i| !covered[i]).count())
            .expect("uncovered element with no set");
        let gain: Vec<usize> = sets_to_elements[&best]
            .iter()
            .copied()
            .filter(|&i| !covered[i])
            .collect();
        assert!(!gain.is_empty(), "greedy stalled");
        for i in gain {
            covered[i] = true;
            remaining -= 1;
        }
        cover.push(best);
        sets_to_elements.remove(&best);
    }
    cover
}

/// Validate a cover: every element has at least one chosen set.
pub fn validate_cover(elements: &[Vec<SetId>], cover: &[SetId]) -> Result<(), String> {
    let chosen: FxHashSet<SetId> = cover.iter().copied().collect();
    for (i, sets) in elements.iter().enumerate() {
        if !sets.iter().any(|s| chosen.contains(s)) {
            return Err(format!("element {i} uncovered"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbdmm_graph::gen;

    fn instance(num_sets: usize, num_elements: usize, r: usize, seed: u64) -> Vec<Vec<SetId>> {
        gen::set_cover_instance(num_sets, num_elements, r, seed).edges
    }

    #[test]
    fn static_cover_covers() {
        let els = instance(30, 300, 3, 1);
        let (cover, lb) = static_cover(&els, 42);
        validate_cover(&els, &cover).unwrap();
        // r-approximation: |cover| ≤ r · |M| ≤ r · OPT.
        assert!(cover.len() <= 3 * lb);
    }

    #[test]
    fn static_cover_distinct_sets() {
        let els = instance(50, 500, 4, 2);
        let (cover, _) = static_cover(&els, 7);
        let set: FxHashSet<_> = cover.iter().collect();
        assert_eq!(set.len(), cover.len());
    }

    #[test]
    fn dynamic_cover_under_churn() {
        let mut dc = DynamicSetCover::with_seed(3);
        let els = instance(40, 400, 3, 5);
        let ids = dc.insert_elements(&els);
        for &id in &ids {
            assert!(dc.is_covered(id));
        }
        assert!(dc.cover_size() <= 3 * dc.opt_lower_bound());
        // Delete half, in batches; coverage of the survivors must persist.
        let (del, keep) = ids.split_at(ids.len() / 2);
        for batch in del.chunks(64) {
            dc.delete_elements(batch);
        }
        for &id in keep {
            assert!(dc.is_covered(id), "element {id} lost coverage");
        }
        let els_kept: Vec<Vec<SetId>> = keep
            .iter()
            .map(|&id| dc.matching().edge_vertices(id).unwrap().to_vec())
            .collect();
        validate_cover(&els_kept, &dc.cover()).unwrap();
        // Drain.
        dc.delete_elements(keep);
        assert_eq!(dc.num_elements(), 0);
        assert_eq!(dc.cover_size(), 0);
    }

    #[test]
    fn cover_adapter_runs_through_generic_driver() {
        // The element-update adapter is a full BatchDynamic contender: the
        // generic workload driver replays a mixed element stream against it.
        let inst = gen::set_cover_instance(40, 600, 3, 21);
        let w = pbdmm_graph::workload::churn(&inst, 64, 23);
        let mut dc = DynamicSetCover::with_seed(7);
        let report = pbdmm_matching::driver::run_workload_with(&mut dc, &w, |dc| {
            pbdmm_matching::verify::check_invariants(dc.matching()).unwrap();
        });
        assert_eq!(report.updates, 1200);
        assert_eq!(dc.num_elements(), 0);
        assert_eq!(dc.cover_size(), 0);
        assert!(report.work > 0);
    }

    #[test]
    fn mixed_element_batch_keeps_coverage() {
        use pbdmm_matching::api::{Batch, BatchDynamic};
        let mut dc = DynamicSetCover::with_seed(11);
        let ids = dc.insert_elements(&[vec![0, 1], vec![1, 2], vec![3]]);
        // One mixed apply: retire one element, admit two new ones.
        let out = BatchDynamic::apply(
            &mut dc,
            Batch::new()
                .delete(ids[0])
                .inserts([vec![0, 2], vec![2, 3]]),
        )
        .unwrap();
        assert_eq!(out.deleted_count(), 1);
        for &e in ids[1..].iter().chain(&out.inserted) {
            assert!(dc.is_covered(e));
        }
    }

    #[test]
    fn greedy_baseline_covers_and_is_no_worse_than_trivial() {
        let els = instance(30, 300, 3, 9);
        let cover = greedy_cover(&els);
        validate_cover(&els, &cover).unwrap();
        assert!(cover.len() <= 30);
    }

    #[test]
    fn single_set_instance() {
        let els = vec![vec![0], vec![0], vec![0]];
        let (cover, lb) = static_cover(&els, 1);
        assert_eq!(cover, vec![0]);
        assert_eq!(lb, 1);
        assert_eq!(greedy_cover(&els), vec![0]);
    }

    #[test]
    fn validate_cover_rejects_gaps() {
        let els = vec![vec![0], vec![1]];
        assert!(validate_cover(&els, &[0]).is_err());
        assert!(validate_cover(&els, &[0, 1]).is_ok());
    }

    #[test]
    fn dynamic_matches_static_quality_roughly() {
        // Dynamic-built covers come from the same reduction, so their size
        // is bounded by r·matching in both; check the dynamic cover size is
        // within r× of the matching lower bound.
        let els = instance(60, 800, 4, 11);
        let mut dc = DynamicSetCover::with_seed(13);
        for batch in els.chunks(100) {
            dc.insert_elements(batch);
        }
        assert!(dc.cover_size() <= 4 * dc.opt_lower_bound());
        let cover = dc.cover();
        validate_cover(&els, &cover).unwrap();
    }
}
