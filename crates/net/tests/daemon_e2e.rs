//! End-to-end loopback tests for the daemon: real TCP connections against
//! a real [`Daemon`], covering read-your-writes over the wire, fault
//! isolation (one hostile client never takes the daemon down), admission
//! control under tight limits, delta subscriptions, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pbdmm_graph::wal::WalMeta;
use pbdmm_graph::Update;
use pbdmm_matching::DynamicMatching;
use pbdmm_net::client::{Client, ClientError, Mirror};
use pbdmm_net::daemon::{Daemon, DaemonConfig};
use pbdmm_net::load::{run_load, LoadConfig};
use pbdmm_net::proto::{self, ErrorCode, Request, Response, UpdateResult};
use pbdmm_primitives::obs::Counter;
use pbdmm_service::WalConfig;

fn start(
    cfg: DaemonConfig,
) -> (
    std::net::SocketAddr,
    pbdmm_net::StopHandle,
    std::thread::JoinHandle<pbdmm_net::DaemonReport>,
) {
    let daemon = Daemon::start(DynamicMatching::with_seed(7), cfg).unwrap();
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let join = std::thread::spawn(move || daemon.run());
    (addr, stop, join)
}

#[test]
fn submits_queries_and_read_your_writes_over_the_wire() {
    let (addr, stop, join) = start(DaemonConfig::default());
    let mut c = Client::connect(addr).unwrap();

    let done = c
        .submit_updates(vec![
            Update::Insert(vec![0, 1]),
            Update::Insert(vec![2, 3]),
            Update::Insert(vec![1, 2]),
        ])
        .unwrap();
    assert_eq!(done.results.len(), 3);
    assert!(done.epoch >= 3);
    let inserted: Vec<u64> = done
        .results
        .iter()
        .filter_map(|r| match r {
            UpdateResult::Inserted { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(inserted.len(), 3);

    // Read your writes: a query after the completion can never observe a
    // snapshot older than the completion's epoch.
    let q = c.point_query(0).unwrap();
    assert!(
        q.epoch >= done.epoch,
        "query epoch {} < completion {}",
        q.epoch,
        done.epoch
    );
    assert!(q.matched_edge.is_some() || q.partners.is_empty());

    // Deleting our own committed ids succeeds; a bogus id is rejected
    // per-update without poisoning the batch.
    let done = c
        .submit_updates(vec![
            Update::Delete(pbdmm_graph::EdgeId(inserted[0])),
            Update::Delete(pbdmm_graph::EdgeId(9_999)),
        ])
        .unwrap();
    assert!(matches!(done.results[0], UpdateResult::Deleted { .. }));
    assert!(matches!(
        done.results[1],
        UpdateResult::Rejected {
            code: ErrorCode::UnknownEdge
        }
    ));

    stop.stop();
    let report = join.join().unwrap();
    assert_eq!(report.structure.num_edges(), 2);
    assert_eq!(report.wire.protocol_errors, 0);
}

/// One frame of 512 insertions over fresh vertex pairs, numbered from `base`.
fn fresh_inserts(base: u32) -> Vec<Update> {
    (0..512u32)
        .map(|i| Update::Insert(vec![base + 2 * i, base + 2 * i + 1]))
        .collect()
}

#[test]
fn bulk_frames_round_trip_without_delayed_ack_stalls() {
    // Each request (512 deletes + 512 inserts, about 11 KiB) and each
    // Completion (about 25 KiB) exceeds an 8 KiB write buffer: a frame
    // that left in two writes, or sat behind Nagle's algorithm, would wait
    // on the peer's delayed ACK, which Linux holds for at least 40 ms.
    let (addr, stop, join) = start(DaemonConfig::default());
    let mut c = Client::connect(addr).unwrap();
    let mut seed = fresh_inserts(0);
    seed.extend(fresh_inserts(1024));
    let mut live: Vec<u64> = c
        .submit_updates(seed)
        .unwrap()
        .results
        .iter()
        .map(|r| match *r {
            UpdateResult::Inserted { id, .. } => id,
            ref other => panic!("seed insert resolved as {other:?}"),
        })
        .collect();
    let mut rtts = Vec::new();
    for frame in 0..20u32 {
        let mut updates: Vec<Update> = live
            .drain(..512)
            .map(|id| Update::Delete(pbdmm_graph::EdgeId(id)))
            .collect();
        updates.extend(fresh_inserts((frame + 2) * 1024));
        let t0 = Instant::now();
        let done = c.submit_updates(updates).unwrap();
        rtts.push(t0.elapsed());
        assert_eq!(done.results.len(), 1024);
        // One frame is one service batch: every result carries its epoch.
        for r in &done.results {
            match *r {
                UpdateResult::Deleted { epoch, .. } => assert_eq!(epoch, done.epoch),
                UpdateResult::Inserted { id, epoch, .. } => {
                    assert_eq!(epoch, done.epoch);
                    live.push(id);
                }
                ref other => panic!("frame {frame}: {other:?}"),
            }
        }
    }
    rtts.sort_unstable();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(40),
        "median frame round trip {median:?} (all: {rtts:?})"
    );
    drop(c);
    stop.stop();
    let report = join.join().unwrap();
    assert_eq!(report.structure.num_edges(), 1024);
    assert_eq!(report.service.batches, 21, "{:?}", report.service);
}

#[test]
fn hostile_client_is_isolated_from_well_behaved_ones() {
    let (addr, stop, join) = start(DaemonConfig::default());

    // A well-behaved client, connected before the attacks.
    let mut good = Client::connect(addr).unwrap();
    good.submit_updates(vec![Update::Insert(vec![0, 1])])
        .unwrap();

    // Hostile 1: not a pbdmm peer at all (HTTP). The daemon answers its
    // handshake slot with a structured Error frame and closes only that
    // connection.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        proto::read_handshake(&mut s).unwrap(); // daemon still greets first
        let mut body = Vec::new();
        proto::read_frame(&mut s, proto::MAX_FRAME, &mut body)
            .unwrap()
            .unwrap();
        match Response::decode(&body).unwrap() {
            Response::Error { req_id, code, .. } => {
                assert_eq!(req_id, 0);
                assert_eq!(code, ErrorCode::Protocol);
            }
            r => panic!("expected protocol error, got {r:?}"),
        }
        // ... and the stream is closed after it.
        let mut rest = Vec::new();
        assert_eq!(s.read_to_end(&mut rest).unwrap(), 0);
    }

    // Hostile 2: valid handshake, then a frame with an unknown opcode.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        proto::write_handshake(&mut s).unwrap();
        proto::read_handshake(&mut s).unwrap();
        proto::write_frame(&mut s, &[0x7F, 1, 2, 3]).unwrap();
        let mut body = Vec::new();
        proto::read_frame(&mut s, proto::MAX_FRAME, &mut body)
            .unwrap()
            .unwrap();
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
    }

    // Hostile 3: a declared frame length beyond the cap.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        proto::write_handshake(&mut s).unwrap();
        proto::read_handshake(&mut s).unwrap();
        s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        let mut body = Vec::new();
        proto::read_frame(&mut s, proto::MAX_FRAME, &mut body)
            .unwrap()
            .unwrap();
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
    }

    // The daemon and its well-behaved client kept running throughout.
    let done = good
        .submit_updates(vec![Update::Insert(vec![2, 3])])
        .unwrap();
    assert!(matches!(done.results[0], UpdateResult::Inserted { .. }));
    let stats = good.stats().unwrap();
    assert_eq!(stats.report.counter(Counter::ProtocolErrors), 3);

    stop.stop();
    let report = join.join().unwrap();
    assert_eq!(report.wire.protocol_errors, 3);
    assert_eq!(report.structure.num_edges(), 2);
}

#[test]
fn oversized_batches_are_refused_while_admitted_traffic_completes() {
    let cfg = DaemonConfig {
        max_inflight: 4,
        ..DaemonConfig::default()
    };
    let (addr, stop, join) = start(cfg);

    let mut c = Client::connect(addr).unwrap();
    // A batch beyond the in-flight window draws Overloaded, not a hang and
    // not an unbounded queue.
    let big: Vec<Update> = (0..8)
        .map(|i| Update::Insert(vec![2 * i, 2 * i + 1]))
        .collect();
    match c.submit_updates(big) {
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The connection survives the refusal, and admitted work completes.
    let done = c.submit_updates(vec![Update::Insert(vec![0, 1])]).unwrap();
    assert!(matches!(done.results[0], UpdateResult::Inserted { .. }));
    let stats = c.stats().unwrap();
    assert_eq!(stats.report.counter(Counter::Overloaded), 1);
    assert_eq!(stats.num_edges, 1);

    stop.stop();
    let report = join.join().unwrap();
    assert_eq!(report.wire.overloaded, 1);
    assert_eq!(report.structure.num_edges(), 1);
}

/// However wide the in-flight window, a `SubmitBatch` whose `Completion`
/// cannot fit one frame is refused before any of it is applied: the client
/// learns the outcome of every update the daemon applies.
#[test]
fn a_batch_whose_completion_cannot_fit_one_frame_is_refused_unapplied() {
    let (addr, stop, join) = start(DaemonConfig {
        max_inflight: 100_000,
        ..DaemonConfig::default()
    });
    assert_eq!(proto::MAX_BATCH_UPDATES, 41_942);
    let rank1 = |n: u32| (0..n).map(|v| Update::Insert(vec![v])).collect();

    let mut c = Client::connect(addr).unwrap();
    match c.submit_updates(rank1(41_943)) {
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Same connection: nothing of the refused frame was applied.
    assert_eq!(c.stats().unwrap().epoch, 0);
    let done = c.submit_updates(rank1(41_942)).unwrap();
    assert_eq!(done.results.len(), 41_942);
    assert!(done
        .results
        .iter()
        .all(|r| matches!(r, UpdateResult::Inserted { .. })));

    stop.stop();
    drop(c);
    let report = join.join().unwrap();
    assert_eq!(report.structure.num_edges(), 41_942);
    assert_eq!(report.wire.overloaded, 1);
}

/// Counters are always on: a daemon started without timing serves every
/// count of its run in a live `Stats` frame, checkpoints included.
#[test]
fn live_stats_carry_every_count_without_timing() {
    let dir = std::env::temp_dir().join(format!("pbdmm_daemon_live_stats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = WalConfig::dir(
        &dir,
        WalMeta {
            structure: "matching".into(),
            seed: 7,
            ids_recycling: false,
        },
    );
    wal.checkpoint_every = Some(4);
    let (addr, stop, join) = start(DaemonConfig {
        wal: Some(wal),
        ..DaemonConfig::default()
    });

    let mut c = Client::connect(addr).unwrap();
    let inserts = (0..10)
        .map(|i| Update::Insert(vec![2 * i, 2 * i + 1]))
        .collect();
    c.submit_updates(inserts).unwrap();
    let done = c
        .submit_updates(vec![Update::Delete(pbdmm_graph::EdgeId(9_999))])
        .unwrap();
    assert!(matches!(
        done.results[0],
        UpdateResult::Rejected {
            code: ErrorCode::UnknownEdge
        }
    ));
    // One garbage connection: the daemon counts it before it answers.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        proto::read_handshake(&mut s).unwrap();
        let mut body = Vec::new();
        proto::read_frame(&mut s, proto::MAX_FRAME, &mut body)
            .unwrap()
            .unwrap();
    }

    // The checkpoint writer runs off the coalescer: poll the live frame.
    let deadline = Instant::now() + Duration::from_secs(30);
    let report = loop {
        let report = c.stats().unwrap().report;
        if report.counter(Counter::Checkpoints) >= 1 {
            break report;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint in the live counts:\n{}",
            report.render()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(report.counter(Counter::Updates), 10);
    assert!(report.counter(Counter::Batches) >= 1);
    assert_eq!(
        report.counter(Counter::WalBatches),
        report.counter(Counter::Batches)
    );
    assert_eq!(report.counter(Counter::Rejected), 1);
    assert_eq!(report.counter(Counter::ProtocolErrors), 1);
    assert!(
        report.phases.iter().all(|p| p.count == 0),
        "timing is off:\n{}",
        report.render()
    );

    stop.stop();
    drop(c);
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_cap_refuses_politely_and_frees_slots() {
    let cfg = DaemonConfig {
        max_connections: 1,
        ..DaemonConfig::default()
    };
    let (addr, stop, join) = start(cfg);

    let mut first = Client::connect(addr).unwrap();
    first
        .submit_updates(vec![Update::Insert(vec![0, 1])])
        .unwrap();

    // Second connection: greeted, refused with Overloaded, closed.
    let mut second = Client::connect(addr).unwrap();
    match second.stats() {
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => {}
        other => panic!("expected Overloaded refusal, got {other:?}"),
    }
    drop(second); // let the daemon's refusal thread finish its linger

    // Dropping the first frees its slot for a new connection.
    drop(first);
    let mut attempts = 0;
    let mut third = loop {
        // The slot frees when the daemon notices the old connection left;
        // retry briefly rather than racing it.
        let mut c = Client::connect(addr).unwrap();
        match c.stats() {
            Ok(_) => break c,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                attempts += 1;
                assert!(attempts < 1000, "slot never freed after disconnect");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    };
    let done = third
        .submit_updates(vec![Update::Insert(vec![2, 3])])
        .unwrap();
    assert!(matches!(done.results[0], UpdateResult::Inserted { .. }));

    stop.stop();
    let report = join.join().unwrap();
    assert_eq!(report.structure.num_edges(), 2);
    assert!(report.wire.overloaded >= 1);
}

#[test]
fn drain_refuses_new_work_and_reports_final_stats() {
    let (addr, _stop, join) = start(DaemonConfig::default());

    let mut c = Client::connect(addr).unwrap();
    c.submit_updates(vec![Update::Insert(vec![0, 1])]).unwrap();

    // The shutdown goodbye is a stats frame with the drain flag up.
    let stats = c.shutdown().unwrap();
    assert_eq!(stats.draining, 1);
    assert_eq!(stats.epoch, 1);

    // New work on this (or any) connection is refused while draining.
    let req_id = c.next_req_id();
    if c.send(&Request::SubmitBatch {
        req_id,
        updates: vec![Update::Insert(vec![2, 3])],
    })
    .is_ok()
    {
        match c.recv_for(req_id) {
            Err(ClientError::Server {
                code: ErrorCode::Draining,
                ..
            }) => {}
            // The drain may close the stream before answering — that is a
            // legal outcome of racing a shutdown.
            Err(ClientError::Frame(_)) => {}
            other => panic!("expected Draining or a closed stream, got {other:?}"),
        }
    }

    let report = join.join().unwrap();
    assert_eq!(report.structure.num_edges(), 1);
    assert_eq!(report.service.updates, 1);
}

#[test]
fn load_generator_runs_clean_against_the_daemon() {
    let (addr, stop, join) = start(DaemonConfig::default());
    let cfg = LoadConfig {
        connections: 4,
        per_connection: 400,
        queries_per_window: 4,
        seed: 7,
    };
    let report = run_load(addr, &cfg).unwrap();
    assert_eq!(report.updates, 1600);
    assert_eq!(report.failed, 0, "read-your-writes must hold over the wire");
    assert_eq!(report.protocol_errors, 0);
    assert!(report.reads > 0);

    stop.stop();
    let daemon_report = join.join().unwrap();
    assert_eq!(daemon_report.service.updates, 1600);
    assert_eq!(daemon_report.wire.protocol_errors, 0);
    pbdmm_matching::verify::check_invariants(&daemon_report.structure).unwrap();
}

#[test]
fn delta_subscription_mirrors_server_state() {
    let (addr, stop, join) = start(DaemonConfig::default());

    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe_deltas(0).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Churn: inserts, then a delete, on a separate connection.
    let mut writer = Client::connect(addr).unwrap();
    let done = writer
        .submit_updates(vec![
            Update::Insert(vec![0, 1]),
            Update::Insert(vec![2, 3]),
            Update::Insert(vec![1, 2]),
            Update::Insert(vec![4, 5]),
        ])
        .unwrap();
    let inserted: Vec<u64> = done
        .results
        .iter()
        .filter_map(|r| match r {
            UpdateResult::Inserted { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(inserted.len(), 4);
    let done2 = writer
        .submit_updates(vec![Update::Delete(pbdmm_graph::EdgeId(inserted[3]))])
        .unwrap();
    let final_epoch = done2.epoch;

    // Fold the delta stream into a client-side mirror until it catches up.
    let mut mirror = Mirror::default();
    while mirror.epoch < final_epoch {
        match sub.recv_response().unwrap() {
            Some(Response::DeltaEvent { resync, delta }) => {
                assert!(delta.to_epoch > mirror.epoch, "events advance the mirror");
                mirror.apply(resync, &delta);
            }
            Some(r) => panic!("unexpected frame {r:?}"),
            None => panic!("daemon closed the subscription early"),
        }
    }

    stop.stop();
    let report = join.join().unwrap();

    // The mirror converged to the daemon's exact final state.
    let live: std::collections::BTreeSet<u64> = report
        .structure
        .structure()
        .edges
        .ids()
        .iter()
        .map(|e| e.raw())
        .collect();
    assert_eq!(mirror.live, live, "mirror live set == served live set");
    let mut matched: Vec<u64> = report
        .structure
        .matching()
        .iter()
        .map(|e| e.raw())
        .collect();
    matched.sort_unstable();
    let mirrored: Vec<u64> = mirror.matched.keys().copied().collect();
    assert_eq!(mirrored, matched, "mirror matching == served matching");
    // Matched vertex sets are the real edge vertex sets.
    for (id, vs) in &mirror.matched {
        let rec = &report.structure.structure().edges[pbdmm_graph::EdgeId(*id)];
        assert_eq!(&rec.vertices, vs);
    }
}

/// A subscriber behind the delta ring is owed a resync of the whole
/// state. Once that state no longer fits one frame, the daemon ends the
/// subscription with an `Error` on its `req_id` rather than send a frame
/// the client refuses, and keeps serving the connection.
#[test]
fn oversized_resync_ends_the_subscription_not_the_connection() {
    const FRAMES: u32 = 65;
    const PER_FRAME: u32 = 616;
    let (addr, stop, join) = start(DaemonConfig::default());

    // 65 publications of disjoint pairs: 40,040 live edges, all matched.
    // A resync costs 8 bytes per live edge plus 20 per matched pair, about
    // 1.12 MB, and the 64-delta ring no longer reaches back to epoch 0.
    let mut writer = Client::connect(addr).unwrap();
    for f in 0..FRAMES {
        let base = 2 * f * PER_FRAME;
        let updates = (0..PER_FRAME)
            .map(|i| Update::Insert(vec![base + 2 * i, base + 2 * i + 1]))
            .collect();
        writer.submit_updates(updates).unwrap();
    }

    let mut sub = Client::connect(addr).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req_id = sub.next_req_id();
    sub.send(&Request::SubscribeDeltas {
        req_id,
        from_epoch: 0,
    })
    .unwrap();
    match sub.recv_response().unwrap() {
        Some(Response::Error {
            req_id: got,
            code: ErrorCode::Internal,
            ..
        }) => assert_eq!(got, req_id),
        other => panic!("expected the subscription's Error frame, got {other:?}"),
    }

    // The connection still answers queries...
    let q = sub.point_query(0).unwrap();
    assert_eq!(q.epoch, u64::from(FRAMES * PER_FRAME));
    assert_eq!(q.partners, vec![0, 1]);
    // ... and the ended subscription streams nothing more.
    let top = 2 * FRAMES * PER_FRAME;
    writer
        .submit_updates(vec![Update::Insert(vec![top, top + 1])])
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let q = sub.point_query(top).unwrap();
    assert_eq!(q.partners, vec![top, top + 1]);
    assert!(sub.take_delta_events().is_empty());

    drop((writer, sub));
    stop.stop();
    let report = join.join().unwrap();
    assert_eq!(report.wire.protocol_errors, 0);
}

#[test]
fn daemon_recovers_from_segmented_wal_and_resumes() {
    let dir = std::env::temp_dir().join("pbdmm_daemon_recover_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = WalConfig::dir(
        &dir,
        WalMeta {
            structure: "matching".into(),
            seed: 7,
            ids_recycling: false,
        },
    );
    wal.checkpoint_every = Some(4);
    let cfg = DaemonConfig {
        wal: Some(wal),
        ..DaemonConfig::default()
    };

    // Run 1: empty directory — recover_and_start begins fresh.
    let (daemon, info) = Daemon::recover_and_start(cfg.clone()).unwrap();
    assert_eq!(info.batches, 0);
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let join = std::thread::spawn(move || daemon.run());
    let mut c = Client::connect(addr).unwrap();
    let done = c
        .submit_updates(
            (0..10)
                .map(|i| Update::Insert(vec![2 * i, 2 * i + 1]))
                .collect(),
        )
        .unwrap();
    let ids: Vec<u64> = done
        .results
        .iter()
        .filter_map(|r| match r {
            UpdateResult::Inserted { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(ids.len(), 10);
    let before = c.stats().unwrap();
    stop.stop();
    drop(c);
    let run1 = join.join().unwrap();
    assert_eq!(run1.service.updates, 10);

    // Run 2: same config, new process lifecycle — recovery resumes the
    // log (checkpoint + tail segments) and serves the identical state.
    let (daemon, info) = Daemon::recover_and_start(cfg.clone()).unwrap();
    assert_eq!(info.batches, run1.service.wal_batches);
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let join = std::thread::spawn(move || daemon.run());
    let mut c = Client::connect(addr).unwrap();
    let after = c.stats().unwrap();
    assert_eq!(after.epoch, 10, "recovered epochs resume at the log's end");
    assert_eq!(after.num_edges, before.num_edges);
    assert_eq!(after.matching_size, before.matching_size);

    // Recovered ids are live: deleting one over the wire succeeds.
    let done = c
        .submit_updates(vec![Update::Delete(pbdmm_graph::EdgeId(ids[0]))])
        .unwrap();
    assert!(matches!(done.results[0], UpdateResult::Deleted { .. }));
    stop.stop();
    drop(c);
    let run2 = join.join().unwrap();
    assert_eq!(run2.structure.num_edges(), before.num_edges as usize - 1);
    pbdmm_matching::verify::check_invariants(&run2.structure).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn losing_the_wal_dir_fail_stops_the_daemon() {
    // Fail-stop end to end: the WAL directory disappears under a running
    // daemon, so the segment rotation after the third update fails. The
    // committed prefix stays served; every later update is refused over
    // the wire instead of being applied un-logged.
    let dir = std::env::temp_dir().join(format!("pbdmm_daemon_fail_stop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = WalConfig::dir(
        &dir,
        WalMeta {
            structure: "matching".into(),
            seed: 7,
            ids_recycling: false,
        },
    );
    wal.checkpoint_every = Some(3);
    let cfg = DaemonConfig {
        max_batch: 1,
        wal: Some(wal),
        ..DaemonConfig::default()
    };
    let (daemon, _) = Daemon::recover_and_start(cfg).unwrap();
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let join = std::thread::spawn(move || daemon.run());
    let mut c = Client::connect(addr).unwrap();
    let mut insert = |v: u32| {
        let done = c
            .submit_updates(vec![Update::Insert(vec![2 * v, 2 * v + 1])])
            .unwrap();
        assert_eq!(done.results.len(), 1);
        done.results[0]
    };
    for v in 0..2 {
        assert!(matches!(insert(v), UpdateResult::Inserted { .. }));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(matches!(insert(2), UpdateResult::Inserted { epoch: 3, .. }));
    for v in 3..5 {
        assert_eq!(
            insert(v),
            UpdateResult::Rejected {
                code: ErrorCode::Internal
            }
        );
    }
    let q = c.point_query(0).unwrap();
    assert_eq!(q.epoch, 3, "refused updates never become visible");
    assert!(q.matched_edge.is_some());
    stop.stop();
    drop(c);
    let report = join.join().unwrap();
    assert_eq!(report.structure.num_edges(), 3);
    assert_eq!(report.service.wal_batches, 3);
    pbdmm_matching::verify::check_invariants(&report.structure).unwrap();
}
