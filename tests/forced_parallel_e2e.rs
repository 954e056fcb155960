//! End-to-end run with the worker cap forced above the core count, so the
//! whole algorithm exercises its genuinely-parallel primitive paths even on
//! single-core CI boxes. Own test binary: the global cap stays in this
//! process.

use pbdmm::graph::{gen, workload, DeletionOrder};
use pbdmm::matching::driver::run_workload_with;
use pbdmm::matching::verify::check_invariants;
use pbdmm::primitives::cost::CostHint;
use pbdmm::primitives::par;
use pbdmm::{Batch, DynamicMatching, DynamicMatchingBuilder};

#[test]
fn dynamic_matching_sound_under_forced_parallelism() {
    par::set_num_threads(4);
    assert!(par::should_par_hint(1 << 20, CostHint::Medium));

    // Big enough single batches that the greedy matcher's primitives cross
    // the parallel grain.
    let g = gen::erdos_renyi(4000, 16_000, 0xF0);
    let mut dm = DynamicMatching::with_seed(1);
    let out = dm
        .apply(Batch::new().inserts(g.edges.iter().cloned()))
        .unwrap();
    check_invariants(&dm).unwrap();
    let matched: Vec<_> = out
        .inserted
        .iter()
        .copied()
        .filter(|&e| dm.is_matched(e))
        .collect();
    // One mixed mega-batch: all matched edges out, a fresh wave in.
    let fresh: Vec<Vec<u32>> = (0..5000u32)
        .map(|i| vec![9000 + i, 9000 + (i + 1) % 5000])
        .collect();
    dm.apply(Batch::new().deletes(matched).inserts(fresh))
        .unwrap();
    check_invariants(&dm).unwrap();

    // And a full workload replay, checking invariants along the way.
    let w = workload::insert_then_delete(&g, 2048, DeletionOrder::VertexClustered, 0xF1);
    let mut dm = DynamicMatching::with_seed(2);
    run_workload_with(&mut dm, &w, |m| check_invariants(m).unwrap());
    assert_eq!(dm.num_edges(), 0);
}

#[test]
fn id_recycling_is_deterministic_under_forced_parallelism() {
    // Slab id reuse with the scheduler cap above the core count: the ids a
    // recycling structure assigns across reuse boundaries must not depend
    // on thread scheduling, and every invariant must hold throughout.
    par::set_num_threads(4);
    let g = gen::erdos_renyi(1500, 6000, 0xF2);
    let w = workload::churn(&g, 512, 0xF3);
    let run = |_: ()| {
        let mut dm = DynamicMatchingBuilder::new()
            .seed(3)
            .recycle_ids(true)
            .build();
        run_workload_with(&mut dm, &w, |m| check_invariants(m).unwrap());
        let st = dm.storage_stats();
        assert!(st.recycling);
        assert_eq!(dm.num_edges(), 0);
        // Empty-to-empty churn returns the whole id space to the free list.
        assert_eq!(st.free_ids as u64, st.ids_allocated);
        (st.ids_allocated, st.edge_slots)
    };
    let (ids_a, slots_a) = run(());
    let (ids_b, slots_b) = run(());
    assert_eq!((ids_a, slots_a), (ids_b, slots_b));
    // Recycling keeps the table far denser than the total insert history.
    assert!(slots_a < g.m(), "slots {slots_a} vs {} inserts", g.m());
}
