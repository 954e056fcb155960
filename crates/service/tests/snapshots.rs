//! Properties of the epoch-snapshot read path (fixed seeds):
//!
//! * **prefix consistency** — every snapshot observed by a concurrent
//!   reader equals the state produced by sequentially replaying the WAL
//!   prefix whose update count is the snapshot's epoch (so a reader can
//!   *never* see a state that is not a batch boundary of the durable
//!   history);
//! * **read-your-writes / staleness bound** — a submitter that polls the
//!   query handle after a completed ticket never observes an epoch older
//!   than that ticket's visibility epoch, and reader-observed epochs are
//!   monotone;
//! * the set-cover element adapter serves through its matching: readers
//!   get the same [`MatchingSnapshot`]s (a chosen set is a matched vertex,
//!   a covered element a live edge), and the cover's spans reach the
//!   service's recorder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::wal::{SegmentReader, WalMeta};
use pbdmm_matching::snapshot::{MatchingSnapshot, Snapshots};
use pbdmm_matching::verify::check_invariants;
use pbdmm_matching::DynamicMatching;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_service::{matching_for, Done, QueryHandle, ServiceConfig, ServiceHandle};

/// One producer of the mixed load: inserts and deletes of its own ids,
/// asserting read-your-writes against `q` after every completed ticket.
fn producer(
    h: &ServiceHandle,
    q: &QueryHandle<MatchingSnapshot>,
    mut rng: SplitMix64,
    steps: usize,
) {
    let mut owned: Vec<EdgeId> = Vec::new();
    for _ in 0..steps {
        let c = if !owned.is_empty() && rng.bounded(10) < 4 {
            let id = owned.swap_remove(rng.bounded(owned.len() as u64) as usize);
            h.delete(id).wait().expect("delete of own committed id")
        } else {
            let a = rng.bounded(192) as u32;
            let c = h.insert(vec![a, a + 1 + rng.bounded(6) as u32]).wait();
            let c = c.expect("insert");
            match c.done {
                Done::Inserted(id) => owned.push(id),
                other => panic!("expected insert, got {other:?}"),
            }
            c
        };
        // Read-your-writes: the snapshot containing this update's batch
        // was published before the ticket resolved.
        let seen = q.epoch();
        assert!(
            seen >= c.epoch,
            "stale read after completed write: snapshot epoch {seen} < ticket epoch {}",
            c.epoch
        );
    }
}

#[test]
fn observed_snapshots_equal_wal_replay_prefixes() {
    for seed in [1u64, 2, 3] {
        let wal_dir = std::env::temp_dir().join(format!("pbdmm_snap_prefix_{seed}.waldir"));
        std::fs::remove_dir_all(&wal_dir).ok(); // the service refuses to overwrite
        let structure_seed = 0x5EED ^ seed;
        let (svc, q) = ServiceConfig::builder()
            .max_batch(32)
            .wal_dir(
                &wal_dir,
                WalMeta {
                    structure: "matching".into(),
                    seed: structure_seed,
                    ids_recycling: false,
                },
            )
            .checkpoint_every(0)
            .start_serving(DynamicMatching::with_seed(structure_seed))
            .unwrap();

        // Readers poll while writers run, keeping every distinct snapshot
        // they manage to observe (dedup'd by epoch).
        let observed: Mutex<BTreeMap<u64, Arc<MatchingSnapshot>>> = Mutex::new(BTreeMap::new());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let q = q.clone();
                let (observed, stop) = (&observed, &stop);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = q.snapshot();
                        assert!(snap.epoch() >= last, "reader epochs must be monotone");
                        last = snap.epoch();
                        snap.check_consistency()
                            .expect("published snapshot consistent");
                        observed.lock().unwrap().entry(snap.epoch()).or_insert(snap);
                    }
                });
            }
            let writers: Vec<_> = (0..3u64)
                .map(|p| {
                    let h = svc.handle();
                    let q = q.clone();
                    scope.spawn(move || producer(&h, &q, SplitMix64::new(seed * 100 + p), 120))
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        let (served, stats) = svc.shutdown();
        check_invariants(&served).unwrap();

        // The final published snapshot is the final state.
        let last = q.snapshot();
        assert_eq!(*last, Snapshots::snapshot(&served));
        assert_eq!(last.epoch(), stats.updates);

        // Every observed snapshot ≡ the sequential WAL replay prefix at
        // its epoch — snapshots only ever expose committed batch
        // boundaries of the durable history. One pass over the log
        // compares at each observed epoch as the replay reaches it.
        let observed = observed.into_inner().unwrap();
        assert!(
            observed.len() > 1,
            "readers should observe more than the empty snapshot (seed {seed})"
        );
        let mut log = SegmentReader::open_file(&wal_dir.join("000000.seg")).unwrap();
        let mut replayed = matching_for(log.meta()).unwrap();
        let mut pending = observed.iter().peekable();
        loop {
            let epoch = Snapshots::epoch(&replayed);
            if let Some((_, snap)) = pending.next_if(|&(&e, _)| e == epoch) {
                assert_eq!(
                    **snap,
                    Snapshots::snapshot(&replayed),
                    "seed {seed}: snapshot at epoch {epoch} must equal its WAL prefix replay"
                );
            }
            if let Some((&next, _)) = pending.peek() {
                assert!(
                    next > epoch,
                    "seed {seed}: observed epoch {next} is not a batch boundary of the WAL"
                );
            }
            let Some(batch) = log.next() else { break };
            replayed
                .apply(batch.unwrap())
                .expect("logged batch applies");
        }
        assert!(!log.torn());
        assert!(
            pending.next().is_none(),
            "seed {seed}: observed past the log's end"
        );
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}

#[test]
fn reader_never_sees_an_epoch_older_than_its_completed_tickets() {
    // The staleness bound, per submitter, across 3 fixed seeds: the
    // assertion lives inside `producer` (checked after every single
    // completed ticket, hundreds of times per run).
    for seed in [7u64, 8, 9] {
        let (svc, q) = ServiceConfig::builder()
            .max_batch(64)
            .start_serving(DynamicMatching::with_seed(seed))
            .unwrap();
        std::thread::scope(|scope| {
            for p in 0..4u64 {
                let h = svc.handle();
                let q = q.clone();
                scope.spawn(move || producer(&h, &q, SplitMix64::new(seed * 31 + p), 200));
            }
        });
        let (m, stats) = svc.shutdown();
        assert_eq!(stats.updates, 4 * 200);
        assert_eq!(q.epoch(), Snapshots::epoch(&m));
        check_invariants(&m).unwrap();
    }
}

#[test]
fn cover_queries_are_served_concurrently() {
    use pbdmm_primitives::obs::{Phase, Recorder};
    use pbdmm_setcover::DynamicSetCover;
    let obs = Recorder::enabled();
    let (svc, q) = ServiceConfig::builder()
        .max_batch(48)
        .obs(obs.clone())
        .start_serving(DynamicSetCover::with_seed(5))
        .unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let q = q.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = q.snapshot();
                    assert!(snap.epoch() >= last);
                    last = snap.epoch();
                    // The maintained r-approximation is visible read-side:
                    // the chosen sets (matched vertices) are bounded by
                    // r times the lower bound (the matching size).
                    assert!(snap.matched_vertices().count() <= 3 * snap.matching_size().max(1));
                }
            });
        }
        let writers: Vec<_> = (0..3u64)
            .map(|p| {
                let h = svc.handle();
                let q = q.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(40 + p);
                    let mut owned: Vec<EdgeId> = Vec::new();
                    for _ in 0..150 {
                        if !owned.is_empty() && rng.bounded(10) < 3 {
                            let id = owned.swap_remove(rng.bounded(owned.len() as u64) as usize);
                            let c = h.delete(id).wait().unwrap();
                            assert!(q.epoch() >= c.epoch);
                            assert!(!q.snapshot().contains_edge(id), "read your deletes");
                        } else {
                            let k = 1 + rng.bounded(3) as usize;
                            let sets: Vec<u32> = (0..k).map(|_| rng.bounded(48) as u32).collect();
                            let c = h.insert(sets).wait().unwrap();
                            assert!(q.epoch() >= c.epoch);
                            let id = c.done.id();
                            // A live element is covered at every published
                            // batch boundary.
                            assert!(q.snapshot().contains_edge(id), "read your writes");
                            owned.push(id);
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (dc, _) = svc.shutdown();
    check_invariants(dc.matching()).unwrap();
    assert_eq!(q.snapshot().num_edges(), dc.num_elements());
    assert_eq!(*q.snapshot(), MatchingSnapshot::capture(dc.matching()));
    // The cover's matching records its spans through the service's recorder.
    let report = obs.snapshot();
    assert!(report.phase(Phase::Settle).count > 0);
    assert!(report.phase(Phase::SnapshotPublish).count > 0);
}
