//! Fail-stop on a mid-run WAL error, end to end through the service.
//!
//! Removing the WAL directory under a running service leaves the open
//! segment writable (its file lives on until closed), so the failure
//! surfaces at the next segment rotation. From then on the durability
//! contract ("an acknowledged update is on the log") cannot be met: every
//! later update must be refused with the WAL error instead of being
//! applied un-logged, and the served and returned state must stay the
//! committed prefix.

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::wal::WalMeta;
use pbdmm_matching::verify::check_invariants;
use pbdmm_matching::DynamicMatching;
use pbdmm_service::{Done, ServiceConfig, ServiceError};

#[test]
fn losing_the_wal_dir_fail_stops_at_the_next_rotation() {
    let dir = std::env::temp_dir().join(format!("pbdmm_fail_stop_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let meta = WalMeta {
        structure: "matching".into(),
        seed: 7,
        ids_recycling: false,
    };
    let (svc, query) = ServiceConfig::builder()
        .max_batch(1)
        .wal_dir(&dir, meta)
        .checkpoint_every(3)
        .start_serving(DynamicMatching::with_seed(7))
        .unwrap();
    let h = svc.handle();
    let mut ids: Vec<EdgeId> = Vec::new();
    for v in 0..2u32 {
        ids.push(h.insert(vec![2 * v, 2 * v + 1]).wait().unwrap().done.id());
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // The third update still lands in the open segment and commits; the
    // rotation after it (interval 3) cannot create `000003.seg`.
    let third = h.insert(vec![4, 5]).wait().expect("third insert commits");
    assert!(matches!(third.done, Done::Inserted(_)));
    assert_eq!(third.epoch, 3);

    // Every later update is refused with the rotation error — a delete of
    // a committed edge included, so nothing changes un-logged.
    for ticket in [h.insert(vec![6, 7]), h.delete(ids[0])] {
        match ticket.wait() {
            Err(ServiceError::Wal(msg)) => {
                assert!(
                    msg.contains("rotate to") && msg.contains("000003.seg"),
                    "{msg}"
                );
            }
            other => panic!("update after the WAL failed resolved as {other:?}"),
        }
    }
    assert_eq!(query.epoch(), 3, "refused updates never become visible");

    drop(h);
    let (m, stats) = svc.shutdown();
    assert_eq!(m.num_edges(), 3);
    assert!(m.contains_edge(ids[0]));
    assert_eq!(stats.wal_batches, 3);
    assert_eq!(stats.updates, 3);
    check_invariants(&m).unwrap();
}
