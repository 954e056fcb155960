//! Concurrency properties of the ingest/serve subsystem (fixed seeds):
//!
//! * random interleavings of concurrent submitters yield a final structure
//!   whose **live edge set** is identical to the same updates applied
//!   sequentially (singleton batches) in ticket-completion order — the
//!   service's global `seq` order is a valid linearization;
//! * the recorded WAL replays to the **exact** final state (live edges and
//!   matching), because replay re-applies the identical batch sequence with
//!   the identical seed.
//!
//! (The sequential-singleton comparison checks live edges, not matched
//! edges: which maximal matching the coins pick depends on how updates are
//! grouped into batches, and singleton grouping differs from the
//! coalescer's by design. WAL replay reuses the recorded grouping, so there
//! the matching itself must reproduce.)

use std::collections::BTreeMap;
use std::sync::Mutex;

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::update::{Batch, Update};
use pbdmm_graph::wal::WalMeta;
use pbdmm_matching::verify::check_invariants;
use pbdmm_matching::DynamicMatching;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_service::{recover_matching_from_dir, Done, ServiceConfig, ServiceHandle};

/// Live edges as id → vertex set (the state that must linearize).
fn live_edges(m: &DynamicMatching) -> BTreeMap<u64, Vec<u32>> {
    m.structure()
        .edges
        .iter()
        .map(|(id, rec)| (id.raw(), rec.vertices.clone()))
        .collect()
}

fn sorted_matching(m: &DynamicMatching) -> Vec<EdgeId> {
    let mut ids = m.matching();
    ids.sort_unstable();
    ids
}

/// One producer: a random interleaving of inserts and deletes of its own
/// edges, waiting each ticket (so deletes only ever name committed ids).
/// Returns (op, completion) pairs.
fn producer_load(
    h: &ServiceHandle,
    mut rng: SplitMix64,
    steps: usize,
) -> Vec<(Update, pbdmm_service::Completion)> {
    let mut log = Vec::with_capacity(steps);
    let mut owned: Vec<EdgeId> = Vec::new();
    for _ in 0..steps {
        let deletable = !owned.is_empty();
        if deletable && rng.bounded(10) < 4 {
            let id = owned.swap_remove(rng.bounded(owned.len() as u64) as usize);
            let op = Update::Delete(id);
            let c = h.delete(id).wait().expect("delete of own committed id");
            assert!(matches!(c.done, Done::Deleted(d) if d == id));
            log.push((op, c));
        } else {
            let a = rng.bounded(256) as u32;
            let b = a + 1 + rng.bounded(8) as u32;
            let vs = vec![a, b];
            let op = Update::Insert(vs.clone());
            let c = h.insert(vs).wait().expect("insert");
            match c.done {
                Done::Inserted(id) => owned.push(id),
                other => panic!("expected insert completion, got {other:?}"),
            }
            log.push((op, c));
        }
    }
    log
}

#[test]
fn concurrent_interleavings_linearize_and_replay() {
    for seed in [1u64, 2, 3] {
        let wal_dir = std::env::temp_dir().join(format!("pbdmm_service_prop_{seed}.waldir"));
        std::fs::remove_dir_all(&wal_dir).ok(); // the service refuses to overwrite
        let structure_seed = 0xC0A1E5CE ^ seed;
        let svc = ServiceConfig::builder()
            .max_batch(48)
            .wal_dir(
                &wal_dir,
                WalMeta {
                    structure: "matching".into(),
                    seed: structure_seed,
                    ids_recycling: false,
                },
            )
            .checkpoint_every(0)
            .start(DynamicMatching::with_seed(structure_seed))
            .unwrap();

        // 4 concurrent submitters, deterministic per-producer scripts.
        let logs: Mutex<Vec<(Update, pbdmm_service::Completion)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for p in 0..4u64 {
                let h = svc.handle();
                let logs = &logs;
                scope.spawn(move || {
                    let log = producer_load(&h, SplitMix64::new(seed * 1000 + p), 150);
                    logs.lock().unwrap().extend(log);
                });
            }
        });
        let (served, stats) = svc.shutdown();
        check_invariants(&served).unwrap();
        let total: u64 = logs.lock().unwrap().len() as u64;
        assert_eq!(stats.updates, total);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.dup_deletes, 0, "producers delete only their own ids");

        // --- Linearization: replay sequentially in ticket-completion order.
        let mut ordered = logs.into_inner().unwrap();
        ordered.sort_by_key(|(_, c)| c.seq);
        // seq numbers are a dense permutation of the apply order.
        assert!(ordered
            .iter()
            .enumerate()
            .all(|(i, (_, c))| c.seq == i as u64));
        // Visibility epochs: every update becomes visible strictly after
        // its own position, never later than the end of the run, and
        // monotonically along the apply order (batch boundaries).
        assert!(ordered
            .iter()
            .all(|(_, c)| c.epoch > c.seq && c.epoch <= stats.updates));
        assert!(ordered.windows(2).all(|w| w[0].1.epoch <= w[1].1.epoch));
        let mut sequential = DynamicMatching::with_seed(structure_seed ^ 0x5EED);
        for (op, c) in &ordered {
            let out = sequential
                .apply(Batch::from(vec![op.clone()]))
                .expect("linearized order is sequentially valid");
            // Sequential replay assigns the same ids the service handed out.
            if let Done::Inserted(id) = c.done {
                assert_eq!(out.inserted, vec![id]);
            }
        }
        assert_eq!(
            live_edges(&served),
            live_edges(&sequential),
            "seed {seed}: live edge set must linearize"
        );
        check_invariants(&sequential).unwrap();

        // --- WAL replay: exact state reproduction, matching included.
        let rec = recover_matching_from_dir(&wal_dir, true).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.meta.seed, structure_seed);
        assert_eq!(rec.report.updates, stats.updates);
        assert_eq!(rec.report.batches, stats.wal_batches);
        let replayed = rec.structure;
        assert_eq!(live_edges(&replayed), live_edges(&served));
        assert_eq!(
            sorted_matching(&replayed),
            sorted_matching(&served),
            "seed {seed}: WAL replay must reproduce the exact matching"
        );
        assert_eq!(replayed.matching_size(), served.matching_size());
        check_invariants(&replayed).unwrap();
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}

#[test]
fn wal_replay_is_deterministic_across_runs() {
    // Replaying the same log twice gives byte-identical state summaries.
    let wal_dir = std::env::temp_dir().join("pbdmm_service_determinism.waldir");
    std::fs::remove_dir_all(&wal_dir).ok(); // the service refuses to overwrite
    let svc = ServiceConfig::builder()
        .max_batch(32)
        .wal_dir(
            &wal_dir,
            WalMeta {
                structure: "matching".into(),
                seed: 77,
                ids_recycling: false,
            },
        )
        .checkpoint_every(0)
        .start(DynamicMatching::with_seed(77))
        .unwrap();
    let h = svc.handle();
    let mut rng = SplitMix64::new(5);
    let _ = producer_load(&h, rng.fork(), 300);
    drop(h);
    let (served, _) = svc.shutdown();

    let a = recover_matching_from_dir(&wal_dir, true).unwrap().structure;
    let b = recover_matching_from_dir(&wal_dir, true).unwrap().structure;
    assert_eq!(live_edges(&a), live_edges(&b));
    assert_eq!(sorted_matching(&a), sorted_matching(&b));
    assert_eq!(live_edges(&a), live_edges(&served));
    assert_eq!(sorted_matching(&a), sorted_matching(&served));
    std::fs::remove_dir_all(&wal_dir).ok();
}
