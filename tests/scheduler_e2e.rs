//! End-to-end scheduler coverage over the matching structure: one pool
//! serves whole `apply` batches (settlement included) with no thread churn,
//! nested fork-joins inside settlement complete, and results are
//! deterministic under the seed regardless of scheduler parallelism.
//! Own test binary: it pins the global worker cap to 4.

use std::sync::Arc;

use pbdmm::graph::{gen, workload};
use pbdmm::matching::driver::run_workload;
use pbdmm::primitives::par;
use pbdmm::primitives::pool::ParPool;
use pbdmm::{Batch, DynamicMatching, DynamicMatchingBuilder};

/// Tests here mutate the process-global worker cap and assert on pool
/// activity, so they run serialized within this binary.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn force_parallel() {
    par::set_num_threads(4);
    assert!(par::num_threads() >= 4);
}

/// Drive a seeded churn workload and return the canonicalized matching
/// after a final settle-heavy mixed batch.
fn churn_fingerprint(mut dm: DynamicMatching) -> Vec<pbdmm::EdgeId> {
    let g = gen::erdos_renyi(600, 4000, 17);
    let w = workload::churn(&g, 256, 19);
    let mut assigned: Vec<Option<pbdmm::EdgeId>> = vec![None; g.m()];
    for step in &w.steps[..w.steps.len() / 2] {
        let batch = step.to_batch(&w.universe, |ui| assigned[ui].unwrap());
        let out = dm.apply(batch).unwrap();
        for (&ui, &id) in step.insert.iter().zip(&out.inserted) {
            assigned[ui] = Some(id);
        }
        pbdmm::matching::verify::check_invariants(&dm).unwrap();
    }
    let mut m = dm.matching();
    m.sort_unstable();
    m
}

#[test]
fn one_pinned_pool_serves_every_apply_without_churn() {
    let _knobs = knob_lock();
    force_parallel();
    let pool = ParPool::with_threads(4);
    let mut dm = DynamicMatchingBuilder::new()
        .seed(23)
        .pool(Arc::clone(&pool))
        .build();
    let g = gen::erdos_renyi(2_000, 16_000, 5);
    let w = workload::insert_then_delete(&g, 4096, workload::DeletionOrder::VertexClustered, 7);
    let report = run_workload(&mut dm, &w);
    assert_eq!(report.updates, 2 * g.m() as u64);
    // The pinned pool (not the global one) scheduled the batches' parallel
    // work — settlement, greedy rounds, semisorts — across all applies.
    assert!(
        pool.stats().jobs > 0,
        "pinned pool saw no jobs: {:?}",
        pool.stats()
    );
    assert_eq!(pool.threads(), 4);
}

#[test]
fn matching_is_deterministic_across_scheduler_modes() {
    let _knobs = knob_lock();
    force_parallel();
    // Same seed, three scheduler configurations: forced 4-way global pool,
    // an explicit pinned pool, and fully sequential (a one-thread pool).
    // Identical matchings.
    let parallel = churn_fingerprint(DynamicMatching::with_seed(9));
    let pinned = {
        let pool = ParPool::with_threads(3);
        churn_fingerprint(DynamicMatchingBuilder::new().seed(9).pool(pool).build())
    };
    let sequential =
        ParPool::with_threads(1).install(|| churn_fingerprint(DynamicMatching::with_seed(9)));
    assert_eq!(parallel, sequential);
    assert_eq!(pinned, sequential);
}

#[test]
fn settle_heavy_batches_complete_under_forced_parallelism() {
    let _knobs = knob_lock();
    force_parallel();
    // A star graph's hub deletions force repeated random settles — the
    // nested fork-join path (greedy match inside settlement inside apply).
    let mut dm = DynamicMatching::with_seed(31);
    let g = gen::star(6000);
    let ids = dm.insert_edges(&g.edges);
    let mut live: std::collections::HashSet<_> = ids.iter().copied().collect();
    for _ in 0..6 {
        let matched: Vec<_> = live.iter().copied().filter(|&e| dm.is_matched(e)).collect();
        assert_eq!(matched.len(), 1);
        let out = dm
            .apply(Batch::new().deletes(matched.iter().copied()))
            .unwrap();
        for d in out.deleted {
            live.remove(&d);
        }
        pbdmm::matching::verify::check_invariants(&dm).unwrap();
    }
    assert_eq!(dm.num_edges(), live.len());
}

#[test]
fn delete_edges_duplicate_heavy_batches_regression() {
    let _knobs = knob_lock();
    force_parallel();
    // The tolerant legacy wrapper must do one filtering pass: first
    // occurrence wins, unknown ids skipped, input order preserved — even
    // when the batch is almost entirely duplicates.
    let mut dm = DynamicMatching::with_seed(41);
    let g = gen::erdos_renyi(300, 1200, 43);
    let ids = dm.insert_edges(&g.edges);
    // 10 copies of every id, interleaved, plus unknown ids sprinkled in.
    let mut noisy: Vec<pbdmm::EdgeId> = Vec::with_capacity(ids.len() * 10 + 100);
    for rep in 0..10 {
        for (k, &id) in ids.iter().enumerate() {
            if rep == 0 && k % 7 == 0 {
                noisy.push(pbdmm::EdgeId(1_000_000 + k as u64)); // unknown
            }
            noisy.push(id);
        }
    }
    let gone = dm.delete_edges(&noisy);
    assert_eq!(gone, ids, "first occurrences, in input order");
    assert_eq!(dm.num_edges(), 0);
    // Everything is gone: a second pass deletes nothing.
    assert!(dm.delete_edges(&noisy).is_empty());
    pbdmm::matching::verify::check_invariants(&dm).unwrap();
}
