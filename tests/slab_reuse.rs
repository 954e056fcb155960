//! Slab id-reuse semantics across the whole stack.
//!
//! The flat storage backend supports two id-allocation modes: the default
//! monotonic mode (deleted `EdgeId`s are deliberately **never** recycled —
//! the historical contract) and the slab-backed recycling mode
//! (`DynamicMatching::set_recycle_ids(true)`: freed ids are reused LIFO,
//! keeping the id space dense under unbounded churn). These tests drive
//! churn workloads across reuse boundaries and assert the properties the
//! rest of the system depends on: deterministic id assignment (WAL replay
//! reproduces the exact ids), snapshot equality, structural invariants, and
//! bounded table growth. A forced-parallel variant exercises the same
//! reuse boundaries with the scheduler cap above the core count.

use pbdmm::graph::edge::EdgeId;
use pbdmm::graph::wal::WalMeta;
use pbdmm::graph::{gen, workload};
use pbdmm::matching::snapshot::Snapshots;
use pbdmm::matching::verify::check_invariants;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::{recover_matching_from_dir, ServiceConfig};
use pbdmm::{Batch, DynamicMatching};

fn recycling(seed: u64) -> DynamicMatching {
    let mut m = DynamicMatching::with_seed(seed);
    m.set_recycle_ids(true);
    m
}

/// Drive a random mixed-batch churn stream (inserts + deletes of earlier
/// ids) through `m`, checking invariants after every batch. Returns every
/// id ever handed out, in assignment order.
fn churn_stream(m: &mut DynamicMatching, seed: u64, batches: usize) -> Vec<EdgeId> {
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<EdgeId> = Vec::new();
    let mut all_ids = Vec::new();
    for round in 0..batches {
        let mut batch = Batch::new();
        let deletes = (live.len() / 2).min(rng.bounded(24) as usize);
        for _ in 0..deletes {
            let i = rng.bounded(live.len() as u64) as usize;
            batch = batch.delete(live.swap_remove(i));
        }
        let inserts = 4 + rng.bounded(24) as usize;
        for _ in 0..inserts {
            let a = rng.bounded(64) as u32;
            let b = a + 1 + rng.bounded(7) as u32;
            batch = batch.insert(vec![a, b]);
        }
        let out = m.apply(batch).expect("valid churn batch");
        all_ids.extend_from_slice(&out.inserted);
        live.extend_from_slice(&out.inserted);
        if let Err(e) = check_invariants(m) {
            panic!("invariants broken at round {round}: {e}");
        }
    }
    all_ids
}

#[test]
fn recycled_ids_are_reused_lifo_and_stay_sound() {
    let mut m = recycling(1);
    let ids = m.insert_edges(&[vec![0, 1], vec![2, 3], vec![4, 5]]);
    assert_eq!(ids, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    m.apply(Batch::new().deletes([ids[0], ids[2]])).unwrap();
    // LIFO: the most recently freed id (2) comes back first, then 0, then a
    // fresh slot.
    let again = m.insert_edges(&[vec![6, 7], vec![8, 9], vec![10, 11]]);
    assert_eq!(again, vec![EdgeId(2), EdgeId(0), EdgeId(3)]);
    check_invariants(&m).unwrap();
    // The recycled id resolves to the *new* edge.
    assert_eq!(m.edge_vertices(EdgeId(2)), Some(&[6u32, 7][..]));
    let st = m.storage_stats();
    assert!(st.recycling);
    assert_eq!(st.ids_allocated, 4);
    assert_eq!(st.free_ids, 0);
}

#[test]
fn default_mode_never_recycles() {
    let mut m = DynamicMatching::with_seed(2);
    let all = churn_stream(&mut m, 0xD15C, 40);
    // Every id is distinct and strictly increasing in assignment order.
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    let st = m.storage_stats();
    assert!(!st.recycling);
    assert_eq!(st.ids_allocated, all.len() as u64);
    // The table high-water equals the whole id space ever allocated.
    assert_eq!(st.edge_slots, all.len());
}

#[test]
fn recycling_keeps_the_table_dense_under_churn() {
    let mut m = recycling(3);
    let mut twin = DynamicMatching::with_seed(3);
    let all = churn_stream(&mut m, 0xD15C, 120);
    let twin_all = churn_stream(&mut twin, 0xD15C, 120);
    assert_eq!(all.len(), twin_all.len(), "same stream, same update count");
    let st = m.storage_stats();
    let twin_st = twin.storage_stats();
    // Recycling bounds the table by the *peak live* set, not the total
    // insertion history; the monotonic twin's table spans every id ever.
    assert_eq!(st.ids_allocated as usize, st.edge_slots);
    assert!(
        st.edge_slots < twin_st.edge_slots / 2,
        "recycled table ({}) should be far denser than monotonic ({})",
        st.edge_slots,
        twin_st.edge_slots
    );
    assert_eq!(st.live_edges, twin_st.live_edges);
}

#[test]
fn same_seed_same_stream_is_deterministic_across_reuse() {
    // Two recycling structures fed the identical stream assign identical
    // ids (reuse is LIFO in apply order — no hidden nondeterminism).
    let run = |_: ()| {
        let mut m = recycling(7);
        let ids = churn_stream(&mut m, 0xABCD, 60);
        let mut matching = m.matching();
        matching.sort_unstable();
        (ids, matching)
    };
    assert_eq!(run(()), run(()));
}

#[test]
fn snapshots_agree_across_reuse_boundaries() {
    let mut a = recycling(9);
    let mut b = recycling(9);
    let ids = a.insert_edges(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
    b.insert_edges(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
    let reader = a.enable_snapshots();
    let before = reader.snapshot();
    // Delete + reinsert across the reuse boundary, same batches both sides.
    let batch = Batch::new()
        .deletes([ids[0], ids[2]])
        .inserts([vec![5, 6], vec![7, 8]]);
    let out_a = a.apply(batch.clone()).unwrap();
    let out_b = b.apply(batch).unwrap();
    assert_eq!(out_a.inserted, out_b.inserted, "recycled ids must agree");
    assert!(out_a.inserted.contains(&ids[2]), "LIFO reuse of freed id");
    // Same-seeded structures capture equal snapshots after equal histories.
    assert_eq!(Snapshots::snapshot(&a), Snapshots::snapshot(&b));
    // The pre-reuse snapshot is immutable: the old id still shows the old
    // edge there, while the live structure shows the recycled edge.
    assert_eq!(before.epoch(), 3);
    assert!(before.contains_edge(ids[0]));
    check_invariants(&a).unwrap();
}

#[test]
fn wal_replay_reproduces_recycled_ids_exactly() {
    let dir = std::env::temp_dir().join(format!("pbdmm_slab_reuse_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("reuse.waldir");
    let _ = std::fs::remove_dir_all(&wal_dir);

    let svc = ServiceConfig::builder()
        .max_batch(16)
        .wal_dir(
            &wal_dir,
            WalMeta {
                seed: 11,
                ids_recycling: true,
                ..WalMeta::default()
            },
        )
        .checkpoint_every(0)
        .start(recycling(11))
        .expect("WAL in temp dir");
    let h = svc.handle();
    let mut rng = SplitMix64::new(0x11AA);
    let mut live: Vec<EdgeId> = Vec::new();
    for _ in 0..300 {
        if !live.is_empty() && rng.bounded(10) < 4 {
            let id = live.swap_remove(rng.bounded(live.len() as u64) as usize);
            h.delete(id).wait().expect("delete own id");
        } else {
            let a = rng.bounded(48) as u32;
            let c = h.insert(vec![a, a + 1]).wait().expect("insert");
            live.push(c.done.id());
        }
    }
    let (served, _) = svc.shutdown();
    check_invariants(&served).unwrap();

    // Replay the log into a fresh same-seeded recycling structure: the
    // exact final state — live ids (including recycled ones) and matching —
    // must reproduce.
    let rec = recover_matching_from_dir(&wal_dir, true).expect("clean replay");
    assert!(rec.meta.ids_recycling && !rec.truncated);
    let replayed = rec.structure;
    check_invariants(&replayed).unwrap();
    let mut served_ids = served.structure().edges.ids().to_vec();
    let mut replayed_ids = replayed.structure().edges.ids().to_vec();
    served_ids.sort_unstable();
    replayed_ids.sort_unstable();
    assert_eq!(served_ids, replayed_ids);
    assert_eq!(Snapshots::snapshot(&served), Snapshots::snapshot(&replayed));
    let st = replayed.storage_stats();
    assert!(st.recycling && st.ids_allocated as usize == st.edge_slots);
    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn empty_to_empty_churn_returns_every_id() {
    let mut m = recycling(13);
    let g = gen::erdos_renyi(40, 160, 0x5EED);
    let w = workload::churn(&g, 32, 0x5EEE);
    pbdmm::matching::driver::run_workload_with(&mut m, &w, |m| check_invariants(m).unwrap());
    assert_eq!(m.num_edges(), 0);
    let st = m.storage_stats();
    // Everything was deleted, so every allocated id is back on the free
    // list and the live table is empty.
    assert_eq!(st.free_ids as u64, st.ids_allocated);
    assert_eq!(st.live_edges, 0);
}
