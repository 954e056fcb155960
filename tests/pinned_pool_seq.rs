//! Regression (code review, PR 2): a structure pinned to a multi-thread
//! `ParPool` must actually run parallel on that pool even when the
//! process-global thread cap is 1 — the `should_par_hint` gate consults the
//! *current* pool's parallelism, not the raw global cap. Own test binary:
//! it pins the global cap to 1 and must not race other suites.

use std::sync::Arc;

use pbdmm::graph::gen;
use pbdmm::primitives::{par, pool::ParPool};
use pbdmm::DynamicMatching;

#[test]
fn pinned_pool_is_used_even_when_global_cap_is_one() {
    par::set_num_threads(1);
    assert_eq!(par::num_threads(), 1);

    let pool = ParPool::with_threads(4);
    let mut dm = DynamicMatching::with_seed(3);
    dm.set_pool(Arc::clone(&pool));
    // A batch big enough to clear the sequential cutoffs inside settlement.
    let g = gen::erdos_renyi(4_000, 32_000, 11);
    let ids = dm.insert_edges(&g.edges);
    dm.delete_edges(&ids);
    assert_eq!(dm.num_edges(), 0);
    assert!(
        pool.stats().jobs > 0,
        "pinned pool must receive the batch's parallel work despite the \
         global cap of 1: {:?}",
        pool.stats()
    );

    // Outside the pinned structure the global cap still rules: nothing else
    // reached the pinned pool, and plain primitives stay sequential.
    let jobs_after = pool.stats().jobs;
    let xs: Vec<u64> = (0..100_000).collect();
    let doubled = par::par_map(&xs, |x| 2 * x);
    assert_eq!(doubled.iter().sum::<u64>(), 99_999 * 100_000);
    assert_eq!(pool.stats().jobs, jobs_after);

    par::set_num_threads(0);
}
