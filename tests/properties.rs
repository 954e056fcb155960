//! Randomized property tests over the core invariants: arbitrary small
//! hypergraphs and update schedules must never violate the leveled-structure
//! invariants, maximality, sample-space partitioning, or greedy
//! parallel/sequential agreement. Cases are generated from fixed seeds
//! (deterministic, reproducible) — a std-only stand-in for proptest.

use pbdmm::graph::EdgeId;
use pbdmm::matching::greedy::{
    parallel_greedy_match_with_priorities, sequential_greedy_match_with_priorities,
    validate_match_result,
};
use pbdmm::matching::verify::check_invariants;
use pbdmm::primitives::cost::CostMeter;
use pbdmm::primitives::permutation::random_priorities;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::{Batch, DynamicMatching};

/// Cases per property: 64 by default; the nightly CI job raises it via
/// `PBDMM_PROP_CASES` for deeper sweeps at the same fixed seeds.
fn cases() -> u64 {
    std::env::var("PBDMM_PROP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// A small random hypergraph: 1..=max_edges edges, each 1..=4 vertices in
/// [0, 24). Duplicate vertices within an edge are allowed (the library
/// normalizes).
fn arb_edges(rng: &mut SplitMix64, max_edges: usize) -> Vec<Vec<u32>> {
    let m = 1 + rng.bounded(max_edges as u64) as usize;
    (0..m)
        .map(|_| {
            let card = 1 + rng.bounded(4) as usize;
            (0..card).map(|_| rng.bounded(24) as u32).collect()
        })
        .collect()
}

#[test]
fn greedy_parallel_matches_sequential_matching() {
    let mut rng = SplitMix64::new(0xB0);
    for _ in 0..cases() {
        let edges: Vec<Vec<u32>> = arb_edges(&mut rng, 40)
            .into_iter()
            .map(|e| pbdmm::graph::normalize_vertices(e).unwrap())
            .collect();
        let mut prng = SplitMix64::new(rng.next_u64());
        let pri = random_priorities(edges.len(), &mut prng);
        let seq = sequential_greedy_match_with_priorities(&edges, &pri);
        let par = parallel_greedy_match_with_priorities(&edges, &pri, &CostMeter::new());
        let mut a = seq.matched_edges();
        let mut b = par.matched_edges();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(validate_match_result(&edges, &seq).is_ok());
        assert!(validate_match_result(&edges, &par).is_ok());
    }
}

#[test]
fn greedy_sample_spaces_partition() {
    let mut rng = SplitMix64::new(0xB1);
    for _ in 0..cases() {
        let edges: Vec<Vec<u32>> = arb_edges(&mut rng, 40)
            .into_iter()
            .map(|e| pbdmm::graph::normalize_vertices(e).unwrap())
            .collect();
        let mut prng = SplitMix64::new(rng.next_u64());
        let pri = random_priorities(edges.len(), &mut prng);
        let par = parallel_greedy_match_with_priorities(&edges, &pri, &CostMeter::new());
        let total: usize = par.matches.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, edges.len());
        // The matched edge has the highest priority within its sample space.
        for (m, s) in &par.matches {
            let best = s.iter().min_by_key(|&&e| pri[e]).unwrap();
            assert_eq!(best, m);
        }
    }
}

#[test]
fn dynamic_invariants_hold_for_arbitrary_schedules() {
    let mut rng = SplitMix64::new(0xB2);
    for _ in 0..cases() {
        let edges = arb_edges(&mut rng, 30);
        let num_ops = 1 + rng.bounded(60) as usize;
        let seed = rng.bounded(1000);
        // An oblivious schedule over the edge universe: on "insert" take the
        // next k unseen edges; on "delete" remove k live edges round-robin.
        // Mixed steps (both kinds in one apply) are generated too.
        let mut dm = DynamicMatching::with_seed(seed);
        let mut next = 0usize;
        let mut live: Vec<EdgeId> = Vec::new();
        for _ in 0..num_ops {
            let k = rng.bounded(8) as usize + 1;
            let mut batch = Batch::new();
            if rng.bounded(2) == 0 && !live.is_empty() {
                let take = k.min(live.len());
                batch = batch.deletes(live.drain(..take));
            }
            if rng.bounded(2) == 0 && next < edges.len() {
                let take = k.min(edges.len() - next);
                batch = batch.inserts(edges[next..next + take].iter().cloned());
                next += take;
            }
            let out = dm.apply(batch).unwrap();
            live.extend(out.inserted);
            assert!(check_invariants(&dm).is_ok(), "{:?}", check_invariants(&dm));
        }
        // Drain and confirm empty.
        let dels: Vec<EdgeId> = std::mem::take(&mut live);
        dm.delete_edges(&dels);
        assert!(check_invariants(&dm).is_ok());
        assert_eq!(dm.num_edges(), 0);
    }
}

#[test]
fn matched_queries_agree_with_matching_set() {
    let mut rng = SplitMix64::new(0xB3);
    for _ in 0..cases() {
        let edges = arb_edges(&mut rng, 25);
        let seed = rng.bounded(100);
        let mut dm = DynamicMatching::with_seed(seed);
        let ids = dm.insert_edges(&edges);
        let matching: std::collections::HashSet<EdgeId> = dm.matching().into_iter().collect();
        assert_eq!(matching.len(), dm.matching_size());
        for &id in &ids {
            assert_eq!(dm.is_matched(id), matching.contains(&id));
        }
        // Every vertex query points at a real matched edge that covers it.
        for e in &matching {
            for &v in dm.edge_vertices(*e).unwrap() {
                assert_eq!(dm.matched_edge_of(v), Some(*e));
            }
        }
    }
}

#[test]
fn workload_generators_always_validate() {
    let mut rng = SplitMix64::new(0xB4);
    for _ in 0..cases() {
        let n = 4 + rng.bounded(46) as usize;
        let m = 1 + rng.bounded(99) as usize;
        let batch = 1 + rng.bounded(31) as usize;
        let seed = rng.bounded(500);
        let g = pbdmm::graph::gen::erdos_renyi(n, m, seed);
        for w in [
            pbdmm::graph::workload::insert_then_delete(
                &g,
                batch,
                pbdmm::DeletionOrder::Uniform,
                seed,
            ),
            pbdmm::graph::workload::sliding_window(&g, batch, 3, pbdmm::DeletionOrder::Fifo, seed),
            pbdmm::graph::workload::churn(&g, batch, seed),
        ] {
            assert!(w.validate().is_ok(), "{:?}", w.validate());
            assert!(w.is_empty_to_empty());
        }
    }
}

#[test]
fn group_by_loses_nothing() {
    let mut rng = SplitMix64::new(0xB6);
    for _ in 0..cases() {
        let n = rng.bounded(6000) as usize;
        let pairs: Vec<(u16, u32)> = (0..n)
            .map(|_| (rng.bounded(64) as u16, rng.bounded(10_000) as u32))
            .collect();
        let groups = pbdmm::primitives::group_by(pairs.clone());
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, pairs.len());
        let keys: std::collections::HashSet<u16> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(groups.len(), keys.len());
    }
}
