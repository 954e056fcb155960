//! Baseline matchers the paper positions itself against.
//!
//! * [`RecomputeMatching`] — the only prior *practical* parallel option for
//!   batch updates: rerun static maximal matching from scratch every batch.
//!   `O(m)` work per batch regardless of batch size; the dynamic algorithm
//!   must beat it for small-to-moderate batches (experiment E8).
//! * [`NaiveDynamic`] — dynamic matching without sampling or leveling: on a
//!   matched deletion, rescan the freed vertices' full neighborhoods. An
//!   adaptive-free adversary already forces `Θ(deg)` per deletion (think of a
//!   star: E11); this is the foil demonstrating why the paper's random
//!   sampling matters.
//!
//! Both implement [`BatchDynamic`], the trait the harness drives so all
//! contenders run the same mixed-batch workloads. [`drive_single_updates`]
//! replays batches one update at a time (the sequential-dynamic cost model
//! of BGS/Solomon/AS).

use pbdmm_graph::edge::{EdgeId, EdgeVertices, VertexId};
use pbdmm_primitives::cost::CostMeter;
use pbdmm_primitives::hash::{FxHashMap, FxHashSet};
use pbdmm_primitives::rng::SplitMix64;

use crate::api::{validate_batch, Batch, BatchDynamic, BatchOutcome, UpdateError};
use crate::greedy::parallel_greedy_match;

/// Recompute-from-scratch baseline: stores the live edge set and reruns the
/// parallel static greedy matcher after every batch. With the unified
/// [`BatchDynamic::apply`] a mixed batch costs **one** recompute (the split
/// `insert_edges`/`delete_edges` sequence used to pay two).
pub struct RecomputeMatching {
    live: FxHashMap<EdgeId, EdgeVertices>,
    matched: FxHashSet<EdgeId>,
    rng: SplitMix64,
    meter: CostMeter,
    next_id: u64,
}

impl RecomputeMatching {
    /// Create with an RNG seed for the static matcher's permutations.
    pub fn with_seed(seed: u64) -> Self {
        RecomputeMatching {
            live: FxHashMap::default(),
            matched: FxHashSet::default(),
            rng: SplitMix64::new(seed),
            meter: CostMeter::new(),
            next_id: 0,
        }
    }

    fn recompute(&mut self) {
        let ids: Vec<EdgeId> = self.live.keys().copied().collect();
        let edges: Vec<EdgeVertices> = ids.iter().map(|e| self.live[e].clone()).collect();
        let result = parallel_greedy_match(&edges, &mut self.rng, &self.meter);
        self.matched = result.matches.iter().map(|&(i, _)| ids[i]).collect();
    }
}

impl BatchDynamic for RecomputeMatching {
    type Report = ();

    fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<()>, UpdateError> {
        let (inserts, deletes) = validate_batch(&batch, |id| self.live.contains_key(&id))?;
        for e in &deletes {
            self.live.remove(e);
        }
        let mut inserted = Vec::with_capacity(inserts.len());
        for vs in inserts {
            let id = EdgeId(self.next_id);
            self.next_id += 1;
            self.live.insert(id, vs);
            inserted.push(id);
        }
        self.recompute();
        Ok(BatchOutcome {
            inserted,
            deleted: deletes,
            report: (),
        })
    }

    fn matching_size(&self) -> usize {
        self.matched.len()
    }

    fn is_matched(&self, e: EdgeId) -> bool {
        self.matched.contains(&e)
    }

    fn contains_edge(&self, e: EdgeId) -> bool {
        self.live.contains_key(&e)
    }

    fn num_edges(&self) -> usize {
        self.live.len()
    }

    fn work(&self) -> u64 {
        self.meter.work()
    }
}

/// Naive dynamic baseline: greedy maintenance with no sampling and no
/// leveling. Inserts match any free edge immediately; deleting a matched
/// edge frees its vertices and rescans their entire neighborhoods for
/// replacement matches.
pub struct NaiveDynamic {
    edges: FxHashMap<EdgeId, EdgeVertices>,
    /// vertex → live incident edges.
    incident: FxHashMap<VertexId, FxHashSet<EdgeId>>,
    /// vertex → covering matched edge.
    cover: FxHashMap<VertexId, EdgeId>,
    matched: FxHashSet<EdgeId>,
    meter: CostMeter,
    next_id: u64,
}

impl NaiveDynamic {
    /// Create an empty structure.
    pub fn new() -> Self {
        NaiveDynamic {
            edges: FxHashMap::default(),
            incident: FxHashMap::default(),
            cover: FxHashMap::default(),
            matched: FxHashSet::default(),
            meter: CostMeter::new(),
            next_id: 0,
        }
    }

    fn is_free_edge(&self, vs: &[VertexId]) -> bool {
        vs.iter().all(|v| !self.cover.contains_key(v))
    }

    fn try_match(&mut self, e: EdgeId) {
        let vs = self.edges[&e].clone();
        self.meter.add_work(vs.len() as u64);
        if self.is_free_edge(&vs) {
            self.matched.insert(e);
            for &v in &vs {
                self.cover.insert(v, e);
            }
        }
    }

    /// After vertices are freed, rescan their neighborhoods greedily.
    fn rematch_around(&mut self, freed: &[VertexId]) {
        let mut candidates: Vec<EdgeId> = Vec::new();
        for &v in freed {
            if let Some(set) = self.incident.get(&v) {
                self.meter.add_work(set.len() as u64);
                candidates.extend(set.iter().copied());
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for e in candidates {
            self.try_match(e);
        }
    }

    fn delete_one(&mut self, e: EdgeId) {
        let Some(vs) = self.edges.remove(&e) else {
            return;
        };
        self.meter.add_work(vs.len() as u64);
        for &v in &vs {
            if let Some(set) = self.incident.get_mut(&v) {
                set.remove(&e);
                if set.is_empty() {
                    self.incident.remove(&v);
                }
            }
        }
        if self.matched.remove(&e) {
            for &v in &vs {
                if self.cover.get(&v) == Some(&e) {
                    self.cover.remove(&v);
                }
            }
            self.rematch_around(&vs);
        }
    }
}

impl Default for NaiveDynamic {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchDynamic for NaiveDynamic {
    type Report = ();

    fn apply(&mut self, batch: Batch) -> Result<BatchOutcome<()>, UpdateError> {
        let (inserts, deletes) = validate_batch(&batch, |id| self.edges.contains_key(&id))?;
        for &e in &deletes {
            self.delete_one(e);
        }
        let mut inserted = Vec::with_capacity(inserts.len());
        for vs in inserts {
            let id = EdgeId(self.next_id);
            self.next_id += 1;
            for &v in &vs {
                self.incident.entry(v).or_default().insert(id);
            }
            self.edges.insert(id, vs);
            self.try_match(id);
            inserted.push(id);
        }
        Ok(BatchOutcome {
            inserted,
            deleted: deletes,
            report: (),
        })
    }

    fn matching_size(&self) -> usize {
        self.matched.len()
    }

    fn is_matched(&self, e: EdgeId) -> bool {
        self.matched.contains(&e)
    }

    fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains_key(&e)
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn work(&self) -> u64 {
        self.meter.work()
    }
}

/// Replay a batch as single-edge updates (the sequential dynamic model of
/// the prior work the paper subsumes). Returns ids in input order.
pub fn drive_single_updates<M: BatchDynamic>(
    m: &mut M,
    inserts: &[EdgeVertices],
    deletes: &[EdgeId],
) -> Vec<EdgeId> {
    let mut ids = Vec::with_capacity(inserts.len());
    for e in inserts {
        ids.extend(m.insert_edges(std::slice::from_ref(e)));
    }
    for &d in deletes {
        m.delete_edges(&[d]);
    }
    ids
}

/// Check a [`BatchDynamic`]'s matching is maximal and valid over the live
/// edges it reports (oracle-free, works for any implementation).
pub fn check_maximal<M: BatchDynamic>(
    m: &M,
    live: &FxHashMap<EdgeId, EdgeVertices>,
) -> Result<(), String> {
    let mut covered: FxHashMap<VertexId, EdgeId> = FxHashMap::default();
    for (&e, vs) in live {
        if m.is_matched(e) {
            for &v in vs {
                if let Some(&other) = covered.get(&v) {
                    return Err(format!("vertex {v} covered twice ({other}, {e})"));
                }
                covered.insert(v, e);
            }
        }
    }
    for (&e, vs) in live {
        if !m.is_matched(e) && !vs.iter().any(|v| covered.contains_key(v)) {
            return Err(format!("edge {e} free but unmatched: not maximal"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicMatching;
    use pbdmm_graph::gen;

    fn drive_and_check<M: BatchDynamic>(mut m: M, seed: u64) {
        let g = gen::erdos_renyi(80, 400, seed);
        let w = pbdmm_graph::workload::churn(&g, 50, seed + 1);
        let mut assigned: Vec<Option<EdgeId>> = vec![None; g.m()];
        let mut live: FxHashMap<EdgeId, EdgeVertices> = FxHashMap::default();
        for step in &w.steps {
            // One mixed apply per step: deletions then insertions.
            let batch = step.to_batch(&w.universe, |ui| assigned[ui].unwrap());
            let out = m.apply(batch).unwrap();
            for (&ui, &id) in step.insert.iter().zip(&out.inserted) {
                assigned[ui] = Some(id);
                live.insert(id, g.edges[ui].clone());
            }
            for d in &out.deleted {
                live.remove(d);
            }
            check_maximal(&m, &live).unwrap();
        }
        assert_eq!(m.num_edges(), 0);
    }

    #[test]
    fn recompute_baseline_is_maximal_under_churn() {
        drive_and_check(RecomputeMatching::with_seed(1), 3);
    }

    #[test]
    fn naive_baseline_is_maximal_under_churn() {
        drive_and_check(NaiveDynamic::new(), 4);
    }

    #[test]
    fn dynamic_through_trait_is_maximal_under_churn() {
        drive_and_check(DynamicMatching::with_seed(5), 5);
    }

    #[test]
    fn baselines_reject_invalid_batches_unchanged() {
        let mut rc = RecomputeMatching::with_seed(9);
        let mut nv = NaiveDynamic::new();
        let a = rc.insert_edges(&[vec![0, 1]]);
        let b = nv.insert_edges(&[vec![0, 1]]);
        assert!(rc.apply(Batch::new().delete(EdgeId(77))).is_err());
        assert!(nv.apply(Batch::new().delete(EdgeId(77))).is_err());
        assert!(rc.apply(Batch::new().deletes([a[0], a[0]])).is_err());
        assert!(nv.apply(Batch::new().insert(vec![])).is_err());
        assert_eq!(rc.num_edges(), 1);
        assert_eq!(nv.num_edges(), 1);
        assert!(rc.contains_edge(a[0]) && nv.contains_edge(b[0]));
    }

    #[test]
    fn naive_pays_dearly_on_star() {
        // Deleting the hub match of a star of n leaves repeatedly costs the
        // naive algorithm Θ(n) per deletion; the leveled algorithm's *total*
        // metered work across the same adversarial stream is asymptotically
        // smaller per update (constant amortized). Compare total work.
        let n = 2000;
        let g = gen::star(n);
        let mut naive = NaiveDynamic::new();
        let mut smart = DynamicMatching::with_seed(6);
        let ids_naive = naive.insert_edges(&g.edges);
        let ids_smart = BatchDynamic::insert_edges(&mut smart, &g.edges);
        // Adversary deletes whichever edge is matched, one at a time — legal
        // for the *naive* algorithm because its matching is deterministic
        // (always rematches greedily); for the randomized algorithm we
        // delete in fixed order, which is oblivious.
        for _ in 0..(n - 1) {
            let victim = ids_naive.iter().find(|&&e| naive.is_matched(e));
            let Some(&victim) = victim else { break };
            naive.delete_edges(&[victim]);
        }
        for chunk in ids_smart.chunks(64) {
            BatchDynamic::delete_edges(&mut smart, chunk);
        }
        let per_update_naive = naive.work() as f64 / (2 * n) as f64;
        let per_update_smart = BatchDynamic::work(&smart) as f64 / (2 * n) as f64;
        assert!(
            per_update_naive > 2.0 * per_update_smart,
            "naive {per_update_naive:.1} vs leveled {per_update_smart:.1}"
        );
    }

    #[test]
    fn single_update_driver_matches_batch_semantics() {
        let g = gen::erdos_renyi(40, 120, 9);
        let mut m = DynamicMatching::with_seed(10);
        let ids = drive_single_updates(&mut m, &g.edges, &[]);
        assert_eq!(ids.len(), g.m());
        crate::verify::check_invariants(&m).unwrap();
        // Delete them all one by one.
        for id in &ids {
            drive_single_updates(&mut m, &[], &[*id]);
        }
        assert_eq!(BatchDynamic::num_edges(&m), 0);
        crate::verify::check_invariants(&m).unwrap();
    }
}
