//! Serving queries **while** batches apply: the epoch-snapshot read path.
//!
//! Writer threads stream updates into an [`UpdateService`]; reader threads
//! answer `is_matched` / `partner` / `stats` point queries the whole time
//! through a cloneable [`QueryHandle`], without ever blocking the
//! coalescer. Each completed ticket carries the epoch at which its batch
//! became visible, and the snapshot holding it is published *before* the
//! ticket resolves — so writers immediately read their own writes.
//!
//! ```text
//! cargo run --release --example concurrent_queries
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::{Done, ServiceConfig};
use pbdmm::{DynamicMatching, EdgeId};

fn main() {
    // 1. Start the service with the read path enabled: `start_serving`
    //    returns the usual service plus a QueryHandle.
    let (svc, query) = ServiceConfig::builder()
        .start_serving(DynamicMatching::with_seed(42))
        .expect("no WAL configured, cannot fail");

    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let max_staleness = AtomicU64::new(0);
    let acked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // 2. Readers: poll the latest snapshot and resolve point queries.
        //    Snapshots are immutable — a reader can hold one across any
        //    number of concurrent batch applies.
        for _ in 0..2 {
            let q = query.clone();
            let (stop, reads, max_staleness, acked) = (&stop, &reads, &max_staleness, &acked);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(7);
                let mut last_epoch = 0;
                while !stop.load(Ordering::Relaxed) {
                    let snap = q.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epochs advance monotonically");
                    last_epoch = snap.epoch();
                    for _ in 0..64 {
                        let v = rng.bounded(512) as u32;
                        if let Some(p) = snap.partner(v) {
                            // Partnership is symmetric within a snapshot.
                            assert_eq!(snap.matched_edge_of(p), snap.matched_edge_of(v));
                        }
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                    let lag = acked.load(Ordering::Relaxed).saturating_sub(snap.epoch());
                    max_staleness.fetch_max(lag, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }

        // 3. Writers: every completed ticket's batch is already visible on
        //    the read path (read-your-writes).
        let writers: Vec<_> = (0..2u64)
            .map(|p| {
                let h = svc.handle();
                let q = query.clone();
                let acked = &acked;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(p);
                    let mut owned: Vec<EdgeId> = Vec::new();
                    for _ in 0..2000 {
                        let c = if !owned.is_empty() && rng.bounded(10) < 4 {
                            let id = owned.swap_remove(rng.bounded(owned.len() as u64) as usize);
                            h.delete(id).wait().expect("delete own id")
                        } else {
                            let a = rng.bounded(512) as u32;
                            let c = h
                                .insert(vec![a, a + 1 + rng.bounded(6) as u32])
                                .wait()
                                .expect("insert");
                            if let Done::Inserted(id) = c.done {
                                owned.push(id);
                            }
                            c
                        };
                        acked.fetch_max(c.epoch, Ordering::Relaxed);
                        // Read your writes: the snapshot is at least as new
                        // as the batch this ticket rode in.
                        assert!(q.epoch() >= c.epoch, "completed write must be readable");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // 4. Shut down; the final snapshot equals the final structure state.
    let (m, stats) = svc.shutdown();
    let snap = query.snapshot();
    assert_eq!(snap.epoch(), m.epoch());
    assert_eq!(snap.num_edges(), m.num_edges());
    assert_eq!(snap.matching_size(), m.matching_size());
    println!(
        "served {} updates in {} batches while answering {} reads \
         (max staleness seen: {} updates); final epoch {}, {} edges, matching {}",
        stats.updates,
        stats.batches,
        reads.load(Ordering::Relaxed),
        max_staleness.load(Ordering::Relaxed),
        snap.epoch(),
        snap.num_edges(),
        snap.matching_size()
    );
}
