//! Quickstart for the concurrent ingest/serve layer: several producer
//! threads feed single updates into an [`UpdateService`], the coalescer
//! turns them into mixed batches behind a durable WAL, and the recorded
//! trace is replayed into an identical structure.
//!
//! ```text
//! cargo run --release --example service_ingest
//! ```

use pbdmm::graph::wal::WalMeta;
use pbdmm::matching::verify::check_invariants;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::{recover_matching_from_dir, Done, ServiceConfig};
use pbdmm::{DynamicMatching, EdgeId};

fn main() {
    let wal_dir = std::env::temp_dir().join("pbdmm_service_ingest_example.waldir");
    // The service refuses to overwrite an existing WAL (it may be the only
    // copy of a crashed run's data); this one is the example's scratch log.
    std::fs::remove_dir_all(&wal_dir).ok();
    let seed = 42;

    // 1. Start the service through the builder: it takes ownership of the
    //    structure; producers talk to it through cloneable handles. Every
    //    formed batch is appended to the WAL before it is applied; with
    //    checkpoints off the directory holds one segment, `000000.seg`.
    //    `start_serving` (vs plain `start`) also enables the snapshot read
    //    path and hands back a QueryHandle — see
    //    examples/concurrent_queries.rs for the read tier in full.
    let (svc, query) = ServiceConfig::builder()
        .wal_dir(
            &wal_dir,
            WalMeta {
                structure: "matching".into(),
                seed,
                ids_recycling: false,
            },
        )
        .checkpoint_every(0)
        .start_serving(DynamicMatching::with_seed(seed))
        .expect("start service");

    // 2. Concurrent producers: submit single updates, get a Ticket per
    //    update, and learn the assigned EdgeId when its batch commits.
    std::thread::scope(|scope| {
        for p in 0..3u64 {
            let handle = svc.handle();
            scope.spawn(move || {
                let mut rng = SplitMix64::new(p);
                let mut owned: Vec<EdgeId> = Vec::new();
                for _ in 0..200 {
                    if !owned.is_empty() && rng.bounded(10) < 4 {
                        let id = owned.swap_remove(rng.bounded(owned.len() as u64) as usize);
                        let done = handle.delete(id).wait().expect("delete own id").done;
                        assert!(matches!(done, Done::Deleted(_)));
                    } else {
                        let a = rng.bounded(512) as u32;
                        let edge = vec![a, a + 1 + rng.bounded(6) as u32];
                        match handle.insert(edge).wait().expect("insert").done {
                            Done::Inserted(id) => owned.push(id),
                            other => unreachable!("insert resolved as {other:?}"),
                        }
                    }
                }
            });
        }
    });

    // 3. Shut down: drains everything queued, returns the structure and
    //    the run's statistics. The query handle keeps serving the final
    //    published snapshot even after shutdown.
    let (served, stats) = svc.shutdown();
    check_invariants(&served).expect("invariants after serving");
    let snap = query.snapshot();
    assert_eq!(snap.num_edges(), served.num_edges());
    println!(
        "read path: final snapshot at epoch {} ({} edges, matching {})",
        snap.epoch(),
        snap.num_edges(),
        snap.matching_size()
    );
    println!(
        "served {} updates in {} batches (mean batch {:.1}), final: {} edges, matching {}",
        stats.updates,
        stats.batches,
        stats.mean_batch_len(),
        served.num_edges(),
        served.matching_size()
    );

    // 4. Replay the WAL: same batches, same seed, exact same final state —
    //    crash recovery and trace replay are the same mechanism.
    let rec = recover_matching_from_dir(&wal_dir, true).expect("replay");
    let (replayed, report) = (rec.structure, rec.report);
    assert_eq!(replayed.matching_size(), served.matching_size());
    assert_eq!(replayed.num_edges(), served.num_edges());
    let (mut a, mut b) = (replayed.matching(), served.matching());
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "replay reproduces the exact matching");
    println!(
        "replayed {} updates from {} -> identical state (matching {})",
        report.updates,
        wal_dir.display(),
        replayed.matching_size()
    );
    std::fs::remove_dir_all(&wal_dir).ok();
}
