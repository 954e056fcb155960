//! `wire_bulk`: the loopback daemon under a bulk writer and a reader, each
//! on its own connection.
//!
//! About 100k live rank-2/3 edges are applied to the structure before
//! `Daemon::start` (no WAL). The writer sends 1024-update `SubmitBatch`
//! frames (512 deletes of live edges, 512 inserts) one at a time and waits
//! for each `Completion`, like a batch client that needs its ids back; an
//! update's latency is its frame's, from send to `Completion`. The reader
//! issues `point_query` in an open loop at a fixed [`READ_RATE`], each
//! query timed from send to answer.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pbdmm_graph::edge::{EdgeId, EdgeVertices};
use pbdmm_graph::update::{Batch, Update};
use pbdmm_matching::{baseline, verify};
use pbdmm_net::client::ClientError;
use pbdmm_net::{
    Client, Daemon, DaemonConfig, DaemonReport, ErrorCode, Request, Response, StopHandle,
    UpdateResult,
};
use pbdmm_primitives::obs::{Counter, Phase, ProfileReport, Recorder};
use pbdmm_primitives::pool::ParPool;
use pbdmm_primitives::rng::SplitMix64;

use crate::apply_powerlaw::BATCH;
use crate::serve_rw::{random_edge, LIVE, VERTICES};
use crate::stats::{per, Windows};
use crate::trace::Tracer;
use crate::{new_structure, procfs, timed_pair, Pass, RunCfg};

/// Frames per latency window (see [`Windows`]): a run sends a few hundred
/// frames today, so it is one window.
const FRAME_WINDOW: usize = 4096;
/// Point queries per latency window.
const READ_WINDOW: usize = 1 << 14;
/// Offered point-query rate, per second. Fixed once, at landing, at about a
/// fifth of the closed-loop rate on a quiet host (26k/s) and half the
/// lowest closed-loop rate measured on a loaded one (10k/s); never retuned.
const READ_RATE: u64 = 5_000;
/// Open-loop tick of the reader.
const READ_TICK: Duration = Duration::from_millis(1);

/// A started daemon with its two client connections.
struct Running {
    stop: StopHandle,
    server: JoinHandle<DaemonReport>,
    writer: Client,
    reader: Client,
    live: Vec<(EdgeId, EdgeVertices)>,
}

impl Running {
    /// Close both connections, drain the daemon, and return its report.
    fn finish(self) -> Result<(DaemonReport, Vec<(EdgeId, EdgeVertices)>), String> {
        drop(self.writer);
        drop(self.reader);
        self.stop.stop();
        let report = self.server.join().map_err(|_| "daemon panicked")?;
        Ok((report, self.live))
    }
}

/// Preload a structure, start the daemon over it, connect both clients.
fn set_up(
    edges: &[EdgeVertices],
    pool: &Arc<ParPool>,
    obs: &Recorder,
) -> Result<(Running, f64), String> {
    let preload = Batch::new().inserts(edges.iter().cloned());
    let t0 = Instant::now();
    let mut dm = new_structure();
    dm.set_pool(Arc::clone(pool));
    let out = dm.apply(preload).map_err(|e| format!("preload: {e}"))?;
    let cfg = DaemonConfig {
        pool: Some(Arc::clone(pool)),
        obs: obs.clone(),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(dm, cfg)?;
    let addr: SocketAddr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let server = std::thread::Builder::new()
        .name("daemon-run".into())
        .spawn(move || daemon.run())
        .map_err(|e| format!("spawn daemon: {e}"))?;
    let connect = || Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let (writer, reader) = match (connect(), connect()) {
        (Ok(w), Ok(r)) => (w, r),
        (Err(e), _) | (_, Err(e)) => {
            stop.stop();
            let _ = server.join();
            return Err(e);
        }
    };
    let took = t0.elapsed().as_secs_f64();
    let live = out
        .inserted
        .into_iter()
        .zip(edges.iter().cloned())
        .collect();
    Ok((
        Running {
            stop,
            server,
            writer,
            reader,
            live,
        },
        took,
    ))
}

/// What the writer measured.
struct Writer {
    frame_ns: Windows,
    send_ns: Windows,
    wait_ns: Windows,
    acked: u64,
    /// Batches the acknowledged updates landed in: results of one batch
    /// share its epoch.
    batches: u64,
    failed: u64,
    wall_s: f64,
    tracer: Tracer,
}

/// What the reader measured.
struct Reader {
    read_ns: Windows,
    late_ns: Windows,
    reads: u64,
    failed: u64,
    wall_s: f64,
    tracer: Tracer,
}

/// Bulk frames, one at a time, until `seconds` pass.
fn write_loop(
    c: &mut Client,
    live: &mut Vec<(EdgeId, EdgeVertices)>,
    mut rng: SplitMix64,
    seconds: f64,
    acked_epoch: &AtomicU64,
    mut tracer: Tracer,
) -> Result<Writer, String> {
    let span = Duration::from_secs_f64(seconds);
    let mut frame_ns = Windows::new(FRAME_WINDOW);
    let mut send_ns = Windows::new(FRAME_WINDOW);
    let mut wait_ns = Windows::new(FRAME_WINDOW);
    let (mut acked, mut failed, mut batches, mut last_epoch) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut frame = 0u64;
    while start.elapsed() < span {
        let mut updates = Vec::with_capacity(BATCH);
        let mut deleted = Vec::with_capacity(BATCH / 2);
        let mut inserted = Vec::with_capacity(BATCH / 2);
        for _ in 0..(BATCH / 2).min(live.len()) {
            let (id, vs) = live.swap_remove(rng.bounded(live.len() as u64) as usize);
            updates.push(Update::Delete(id));
            deleted.push((id, vs));
        }
        for _ in 0..BATCH / 2 {
            let vs = random_edge(&mut rng);
            updates.push(Update::Insert(vs.clone()));
            inserted.push(vs);
        }
        let n = updates.len();
        let req_id = c.next_req_id();
        let root = tracer.reserve();
        let t0 = Instant::now();
        c.send_buffered(&Request::SubmitBatch { req_id, updates })
            .and_then(|()| c.flush())
            .map_err(|e| format!("send frame {frame}: {e}"))?;
        let t1 = Instant::now();
        let resp = c.recv_for(req_id);
        let t2 = Instant::now();
        tracer.record("net.send", frame, root, t0, t1);
        tracer.record("net.recv_wait", frame, root, t1, t2);
        tracer.close(root, "bench.frame", frame, t0, t2);
        frame_ns.push((t2 - t0).as_nanos() as u64);
        send_ns.push((t1 - t0).as_nanos() as u64);
        wait_ns.push((t2 - t1).as_nanos() as u64);
        match resp {
            Ok(Response::Completion { epoch, results, .. }) => {
                if results.len() != n {
                    return Err(format!(
                        "frame {frame}: {} results for {n} updates",
                        results.len()
                    ));
                }
                for r in &results {
                    if let UpdateResult::Inserted { epoch, .. }
                    | UpdateResult::Deleted { epoch, .. } = *r
                    {
                        if epoch != last_epoch {
                            batches += 1;
                            last_epoch = epoch;
                        }
                    }
                }
                let (dels, ins) = results.split_at(deleted.len());
                for ((id, vs), r) in deleted.into_iter().zip(dels) {
                    match *r {
                        UpdateResult::Deleted { id: got, .. } if got == id.raw() => acked += 1,
                        UpdateResult::Rejected {
                            code: ErrorCode::Overloaded,
                        } => {
                            failed += 1;
                            live.push((id, vs));
                        }
                        ref other => {
                            return Err(format!(
                                "frame {frame}: delete of {id} resolved as {other:?}"
                            ))
                        }
                    }
                }
                for (vs, r) in inserted.into_iter().zip(ins) {
                    match *r {
                        UpdateResult::Inserted { id, .. } => {
                            acked += 1;
                            live.push((EdgeId(id), vs));
                        }
                        UpdateResult::Rejected {
                            code: ErrorCode::Overloaded,
                        } => failed += 1,
                        ref other => {
                            return Err(format!("frame {frame}: insert resolved as {other:?}"))
                        }
                    }
                }
                acked_epoch.fetch_max(epoch, Ordering::SeqCst);
            }
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                failed += n as u64;
                live.extend(deleted);
            }
            Ok(other) => return Err(format!("frame {frame}: answered with {other:?}")),
            Err(e) => return Err(format!("frame {frame}: {e}")),
        }
        frame += 1;
    }
    Ok(Writer {
        frame_ns,
        send_ns,
        wait_ns,
        acked,
        batches,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
        tracer,
    })
}

/// The open-loop reader. At each step it sends the queries of every tick
/// already due (one tick when on schedule, all the overdue ones after a
/// stall, so the offered rate holds), one at a time, each answered before
/// the next is sent. A query is timed from send to answer; how far behind
/// its due time a step starts is recorded apart. Every answer is checked
/// for read-your-writes against the writer's epoch acknowledged before the
/// query was sent.
fn read_loop(
    c: &mut Client,
    mut rng: SplitMix64,
    stop: &AtomicBool,
    acked_epoch: &AtomicU64,
    mut tracer: Tracer,
) -> Result<Reader, String> {
    let per_tick = READ_RATE * READ_TICK.as_micros() as u64 / 1_000_000;
    let mut read_ns = Windows::new(READ_WINDOW);
    let mut late_ns = Windows::new(READ_WINDOW / per_tick as usize);
    let (mut reads, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut tick = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due = start + READ_TICK * tick as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_ns.push(due.elapsed().as_nanos() as u64);
        let due_now = (start.elapsed().as_nanos() / READ_TICK.as_nanos()) as u64 + 1;
        for _ in 0..(due_now - tick) * per_tick {
            if read_one(c, &mut rng, acked_epoch, &mut tracer, &mut read_ns, reads)? {
                failed += 1;
            }
            reads += 1;
        }
        tick = due_now;
    }
    Ok(Reader {
        read_ns,
        late_ns,
        reads,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
        tracer,
    })
}

/// One point query, timed from send to answer and checked. Returns whether
/// the daemon refused it as overloaded.
fn read_one(
    c: &mut Client,
    rng: &mut SplitMix64,
    acked_epoch: &AtomicU64,
    tracer: &mut Tracer,
    read_ns: &mut Windows,
    req: u64,
) -> Result<bool, String> {
    let v = rng.bounded(VERTICES) as u32;
    let acked = acked_epoch.load(Ordering::SeqCst);
    let root = tracer.reserve();
    let t0 = Instant::now();
    let answer = c.point_query(v);
    let t1 = Instant::now();
    tracer.record("net.point_query", req, root, t0, t1);
    tracer.close(root, "bench.read", req, t0, t1);
    read_ns.push((t1 - t0).as_nanos() as u64);
    match answer {
        Ok(a) if a.epoch < acked => Err(format!(
            "read-your-writes: query after ack epoch {acked} saw epoch {}",
            a.epoch
        )),
        Ok(a) if a.matched_edge.is_some() && !a.partners.contains(&v) => {
            Err(format!("vertex {v}: matched edge does not cover it"))
        }
        Ok(_) => Ok(false),
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => Ok(true),
        Err(e) => Err(format!("point query {req}: {e}")),
    }
}

pub fn run(cfg: &RunCfg) -> Result<Pass, String> {
    let pool = ParPool::with_threads(0);
    let obs = Recorder::enabled_if(cfg.traced);
    let mut rng = SplitMix64::new(cfg.seed);
    let edges: Vec<EdgeVertices> = (0..LIVE).map(|_| random_edge(&mut rng)).collect();
    let (mut running, took) = set_up(&edges, &pool, &obs)?;
    let mut setup_s = vec![took];

    let origin = Instant::now();
    let tracer = |tag| Tracer::new(cfg.traced, origin, tag);
    let acked_epoch = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (writer_rng, reader_rng) = (rng.fork(), rng.fork());
    let Running {
        writer: ref mut wc,
        reader: ref mut rc,
        ref mut live,
        ..
    } = running;
    let measured = timed_pair(
        || obs.snapshot(),
        || {
            let out = write_loop(wc, live, writer_rng, cfg.seconds, &acked_epoch, tracer(1));
            stop.store(true, Ordering::SeqCst);
            out
        },
        || read_loop(rc, reader_rng, &stop, &acked_epoch, tracer(2)),
    )
    .map(|(w, r, proc, rec0, rec1)| (w, r, proc, rec1.delta(&rec0)));
    let peak_rss_mib = procfs::peak_rss_mib();
    let (report, live) = running.finish()?;
    let (w, r, proc, rec) = measured?;
    check(&report, &live)?;
    // Further set-ups only time themselves; they run after the peak RSS
    // was read, so the peak is that of one daemon.
    for _ in 1..cfg.setups {
        let (extra, took) = set_up(&edges, &pool, &obs)?;
        setup_s.push(took);
        extra.finish()?;
    }
    Ok(summarize(
        cfg,
        setup_s,
        (w, r, proc, rec),
        peak_rss_mib?,
        &report,
    ))
}

/// The correctness gate: invariants, and maximality and live count
/// against the writer's view.
fn check(report: &DaemonReport, live: &[(EdgeId, EdgeVertices)]) -> Result<(), String> {
    let structure = &report.structure;
    verify::check_invariants(structure).map_err(|e| format!("invariants: {e}"))?;
    if structure.num_edges() != live.len() {
        return Err(format!(
            "structure holds {} edges, the writer {}",
            structure.num_edges(),
            live.len()
        ));
    }
    let live_map = live.iter().cloned().collect();
    baseline::check_maximal(structure, &live_map).map_err(|e| format!("maximality: {e}"))
}

fn summarize(
    cfg: &RunCfg,
    setup_s: Vec<f64>,
    (w, r, proc, rec): (Writer, Reader, procfs::Delta, ProfileReport),
    peak_rss_mib: f64,
    report: &DaemonReport,
) -> Pass {
    let Writer {
        frame_ns,
        send_ns,
        wait_ns,
        acked,
        batches,
        failed: wfailed,
        wall_s,
        tracer: wtracer,
    } = w;
    let Reader {
        read_ns,
        late_ns,
        reads,
        failed: rfailed,
        wall_s: read_wall_s,
        tracer: rtracer,
    } = r;
    let frames = frame_ns.count() as f64;
    let (p50, p99) = frame_ns.finish();
    let (r50, r99) = read_ns.finish();
    let (_, late_p99) = late_ns.finish();
    let (s50, _) = send_ns.finish();
    let (w50, _) = wait_ns.finish();
    let updates = acked as f64;
    let requests = frames + reads as f64;
    let decoded = rec.counter(Counter::FramesDecoded) as f64;
    let conn = proc.group("pbdmm-conn");
    let phase_per = |p: Phase, n: f64| per(rec.phase(p).total_ns as f64, n);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let storage = report.structure.storage_stats();
    let failed = wfailed + rfailed;
    let attempted = acked + wfailed + reads;
    eprintln!(
        "wire_bulk: {frames} frames ({acked} updates) in {wall_s:.2}s, frame p50 {:.1} ms, \
         {reads} reads, traced {}",
        p50 / 1e6,
        cfg.traced
    );
    Pass {
        attempted,
        failed,
        setup_s,
        e2e: vec![
            ("updates_per_s", per(updates, wall_s)),
            ("update_p50_us", p50 / 1e3),
            ("update_p99_us", p99 / 1e3),
            ("reads_per_s", per(reads as f64, read_wall_s)),
            ("peak_rss_mib", peak_rss_mib),
        ],
        layer: vec![
            (
                "matching.settle_ns_per_update",
                phase_per(Phase::Settle, updates),
            ),
            (
                "matching.snapshot_publish_ns_per_update",
                phase_per(Phase::SnapshotPublish, updates),
            ),
            (
                "matching.edge_slots_per_live_edge",
                per(storage.edge_slots as f64, storage.live_edges as f64),
            ),
            (
                "primitives.pool_cpu_us_per_update",
                per(proc.group("pbdmm-par-").cpu_ns as f64 / 1e3, updates),
            ),
            ("service.batch_len_mean", per(updates, batches as f64)),
            (
                "service.plan_ns_per_update",
                phase_per(Phase::Plan, updates),
            ),
            (
                "service.wal_append_ns_per_update",
                phase_per(Phase::WalAppend, updates),
            ),
            (
                "service.complete_ns_per_update",
                phase_per(Phase::Complete, updates),
            ),
            (
                "service.coalescer_cpu_us_per_update",
                per(proc.group("pbdmm-coalescer").cpu_ns as f64 / 1e3, updates),
            ),
            (
                "net.decode_ns_per_frame",
                phase_per(Phase::NetDecode, decoded),
            ),
            (
                "net.dispatch_ns_per_frame",
                phase_per(Phase::NetDispatch, decoded),
            ),
            (
                "net.conn_cpu_us_per_request",
                per(conn.cpu_ns as f64 / 1e3, requests),
            ),
            ("net.client_send_us_p50", s50 / 1e3),
            ("net.client_wait_us_p50", w50 / 1e3),
            (
                "net.conn_wakeups_per_request",
                per(conn.voluntary as f64, requests),
            ),
            (
                "net.idle_frac",
                1.0 - per(proc.process_cpu_ns() as f64 / 1e9, proc.wall_s * nproc),
            ),
            ("net.overloaded", report.wire.overloaded as f64),
            ("bench.gen_late_p99_us", late_p99 / 1e3),
            (
                "bench.client_cpu_frac",
                per(proc.group("bench-").cpu_ns as f64 / 1e9, proc.wall_s),
            ),
            ("bench.update_samples", updates),
            ("bench.read_p50_us", r50 / 1e3),
            ("bench.read_p99_us", r99 / 1e3),
            ("bench.read_samples", reads as f64),
            ("bench.wire_frames", frames),
            ("bench.failed_frac", per(failed as f64, attempted as f64)),
        ],
        update_p50_us: p50 / 1e3,
        tracers: vec![wtracer, rtracer],
    }
}
