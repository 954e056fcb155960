//! `serve_rw`: the in-process durable service under an open-loop writer
//! with a reader beside it.
//!
//! The service runs with a segmented WAL at the default checkpoint
//! interval, fsync off, started with `start_serving`. About 100k live
//! rank-2/3 edges are pushed through it before the timed phase, so the log
//! holds the whole state. One writer thread offers singleton updates at
//! [`RATE`] per second in 1 ms ticks (inserts and deletes alternating, so
//! the live count holds) and times each update from its due time to the
//! return of `Ticket::wait`. One reader thread runs point queries on
//! `QueryHandle::snapshot()` back to back.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbdmm_graph::edge::{EdgeId, EdgeVertices};
use pbdmm_graph::update::Update;
use pbdmm_graph::wal::WalMeta;
use pbdmm_matching::snapshot::MatchingSnapshot;
use pbdmm_matching::{baseline, verify, DynamicMatching};
use pbdmm_primitives::obs::{Phase, ProfileReport, Recorder};
use pbdmm_primitives::pool::ParPool;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_service::{
    recover_matching_from_dir, Done, QueryHandle, ServiceConfig, ServiceError, UpdateService,
    WalConfig,
};

use crate::apply_powerlaw::READ_BLOCK;
use crate::stats::{per, Windows};
use crate::trace::Tracer;
use crate::{new_structure, procfs, timed_pair, Pass, RunCfg, COIN_SEED, OUT_DIR};

/// Live edges before the timed phase.
pub const LIVE: usize = 100_000;
/// Vertices edges and queries are drawn over.
pub const VERTICES: u64 = 65_536;
/// Offered update rate, per second. Fixed once, at about half the
/// closed-loop capacity measured with the reader running; never retuned.
pub const RATE: u64 = 50_000;
/// Open-loop tick.
const TICK: Duration = Duration::from_millis(1);
/// Read blocks per latency window (see [`Windows`]).
const READ_WINDOW: usize = 1 << 18;
/// The reader yields its CPU after this many queries. On two cores a
/// reader that never yields can hold the core the coalescer was woken on,
/// and runs then fall into one of two modes (update p50 about 0.5 ms or
/// 1.2 ms and more). Yielding every query is worse still.
const YIELD_EVERY: u64 = 64;

/// A random rank-2/3 edge drawn as `pbdmm serve` draws them: mostly
/// pairs of nearby vertices, a quarter with a third vertex.
pub fn random_edge(rng: &mut SplitMix64) -> EdgeVertices {
    let a = rng.bounded(VERTICES) as u32;
    let b = a + 1 + rng.bounded(7) as u32;
    if rng.bounded(4) == 0 {
        vec![a, b, b + 1 + rng.bounded(5) as u32]
    } else {
        vec![a, b]
    }
}

type Service = UpdateService<DynamicMatching>;
type Query = QueryHandle<MatchingSnapshot>;
/// Live edges as the writer sees them.
type Live = Vec<(EdgeId, EdgeVertices)>;

/// Start a service on a fresh WAL directory and push `edges` through it.
fn set_up(
    dir: &Path,
    edges: &[EdgeVertices],
    pool: &Arc<ParPool>,
    obs: &Recorder,
) -> Result<(Service, Query, Live, f64), String> {
    remove_dir(dir)?;
    let inserts: Vec<Update> = edges.iter().cloned().map(Update::Insert).collect();
    let t0 = Instant::now();
    let meta = WalMeta {
        structure: "matching".into(),
        seed: COIN_SEED,
        ids_recycling: true,
    };
    let (svc, query) = ServiceConfig::builder()
        .wal_dir(dir, meta)
        .pool(Arc::clone(pool))
        .obs(obs.clone())
        .start_serving(new_structure())
        .map_err(|e| format!("start service: {e}"))?;
    let h = svc.handle();
    let tickets: Vec<_> = inserts.into_iter().map(|u| h.submit(u)).collect();
    let mut live = Vec::with_capacity(edges.len());
    for (t, vs) in tickets.into_iter().zip(edges) {
        match t.wait() {
            Ok(c) => match c.done {
                Done::Inserted(id) => live.push((id, vs.clone())),
                other => return Err(format!("preload insert resolved as {other:?}")),
            },
            Err(e) => return Err(format!("preload insert failed: {e}")),
        }
    }
    Ok((svc, query, live, t0.elapsed().as_secs_f64()))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// What the writer measured.
struct Writer {
    latency_ns: Windows,
    late_ns: Windows,
    submit_ns: Windows,
    acked: u64,
    /// Batches the acknowledged updates landed in: completions of one
    /// batch share its epoch.
    batches: u64,
    failed: u64,
    ack_gap_max: Duration,
    wall_s: f64,
    live: Live,
    tracer: Tracer,
}

/// What the reader measured.
struct Reader {
    read_ns: Windows,
    staleness: Windows,
    reads: u64,
    wall_s: f64,
    tracer: Tracer,
}

enum Expect {
    Inserted(EdgeVertices),
    Deleted(EdgeId),
}

/// The open-loop writer. At each step it submits every tick already due
/// (one tick when on schedule, all the overdue ones after a stall), then
/// waits their tickets in order. Every update is timed from its own due
/// time, so a stall is charged in full; and because overdue ticks go in
/// together, the service sees the backlog a stall builds and can batch it,
/// as it would if the updates had queued in its ingress. The first tick of
/// a step is generated before it is due. Clock reads cost about 0.2 µs on
/// a 2-vCPU Xeon VM, so an untraced step reads the clock once per update
/// (after its wait) and a few times per tick.
fn write_loop(
    svc: &Service,
    mut live: Live,
    mut rng: SplitMix64,
    seconds: f64,
    acked_epoch: &AtomicU64,
    mut tracer: Tracer,
) -> Result<Writer, String> {
    let h = svc.handle();
    let per_tick = (RATE as usize * TICK.as_micros() as usize) / 1_000_000;
    let ticks = (seconds / TICK.as_secs_f64()).round() as u64;
    // One latency window per checkpoint interval: each holds one rotation.
    let interval = WalConfig::DEFAULT_CHECKPOINT_EVERY as usize;
    let mut latency_ns = Windows::new(interval);
    let mut late_ns = Windows::new(interval / per_tick);
    let mut submit_ns = Windows::new(interval / per_tick);
    let mut ops = Vec::with_capacity(per_tick);
    let mut outstanding = Vec::new();
    let (mut acked, mut failed, mut batches, mut last_epoch) = (0u64, 0u64, 0u64, 0u64);
    let mut ack_gap_max = Duration::ZERO;
    let start = Instant::now();
    let due_of = |tick: u64| start + TICK * tick as u32;
    let mut last_done = start;
    let mut tick = 0u64;
    while tick < ticks {
        loop {
            for j in 0..per_tick {
                ops.push(if j % 2 == 0 || live.is_empty() {
                    let vs = random_edge(&mut rng);
                    (Update::Insert(vs.clone()), Expect::Inserted(vs))
                } else {
                    let (id, _) = live.swap_remove(rng.bounded(live.len() as u64) as usize);
                    (Update::Delete(id), Expect::Deleted(id))
                });
            }
            let due = due_of(tick);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t_sub = Instant::now();
            late_ns.push(t_sub.saturating_duration_since(due).as_nanos() as u64);
            for (req, (op, expect)) in (tick * per_tick as u64..).zip(ops.drain(..)) {
                let root = tracer.reserve();
                let t0 = tracer.is_on().then(Instant::now);
                let ticket = h.submit(op);
                if let Some(t0) = t0 {
                    tracer.record("service.submit", req, root, t0, Instant::now());
                }
                outstanding.push((req, root, due, expect, ticket));
            }
            let t_end = Instant::now();
            submit_ns.push((t_end - t_sub).as_nanos() as u64 / per_tick as u64);
            tick += 1;
            if tick == ticks || due_of(tick) > t_end {
                break;
            }
        }
        let submitted = Instant::now();
        let mut waited_from = submitted;
        for (req, root, due, expect, ticket) in outstanding.drain(..) {
            let result = ticket.wait();
            let t1 = Instant::now();
            tracer.record("service.ticket_wait", req, root, waited_from, t1);
            tracer.close(root, "bench.update", req, due, t1);
            waited_from = t1;
            latency_ns.push((t1 - due).as_nanos() as u64);
            ack_gap_max = ack_gap_max.max(t1 - last_done.max(submitted));
            last_done = t1;
            let c = match result {
                Ok(c) => c,
                Err(ServiceError::Closed) => {
                    failed += 1;
                    continue;
                }
                Err(e) => return Err(format!("update {req} failed: {e}")),
            };
            match (expect, c.done) {
                (Expect::Inserted(vs), Done::Inserted(id)) => live.push((id, vs)),
                (Expect::Deleted(id), Done::Deleted(got)) if got == id => {}
                (_, got) => return Err(format!("update {req} resolved as {got:?}")),
            }
            acked += 1;
            if c.epoch != last_epoch {
                batches += 1;
                last_epoch = c.epoch;
            }
            acked_epoch.fetch_max(c.epoch, Ordering::SeqCst);
        }
    }
    Ok(Writer {
        latency_ns,
        late_ns,
        submit_ns,
        acked,
        batches,
        failed,
        ack_gap_max,
        wall_s: start.elapsed().as_secs_f64(),
        live,
        tracer,
    })
}

/// The reader: blocks of point queries on the latest snapshot, each read
/// checked for read-your-writes against the writer's acknowledged epoch.
fn read_loop(
    query: &Query,
    mut rng: SplitMix64,
    stop: &AtomicBool,
    acked_epoch: &AtomicU64,
    mut tracer: Tracer,
) -> Result<Reader, String> {
    let mut read_ns = Windows::new(READ_WINDOW);
    let mut staleness = Windows::new(READ_WINDOW);
    let mut reads = 0u64;
    let start = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let vs: [u32; READ_BLOCK] = std::array::from_fn(|_| rng.bounded(VERTICES) as u32);
        let t_block = Instant::now();
        for (k, &v) in vs.iter().enumerate() {
            let acked = acked_epoch.load(Ordering::SeqCst);
            // Spans cover the first read of every 64th block, which keeps a
            // traced run's memory small.
            let traced =
                (k == 0 && reads.is_multiple_of(64 * READ_BLOCK as u64)).then(Instant::now);
            let snap = query.snapshot();
            let matched = snap.matched_edge_of(v);
            let covered = matched.is_none() || snap.partners(v).is_some_and(|p| p.contains(&v));
            if let Some(t0) = traced {
                let t1 = Instant::now();
                let root = tracer.reserve();
                tracer.record("service.snapshot_read", reads, root, t0, t1);
                tracer.close(root, "bench.read", reads, t0, t1);
            }
            if k == 0 {
                staleness.push(
                    acked_epoch
                        .load(Ordering::SeqCst)
                        .saturating_sub(snap.epoch()),
                );
            }
            if snap.epoch() < acked {
                return Err(format!(
                    "read-your-writes: read after ack epoch {acked} saw epoch {}",
                    snap.epoch()
                ));
            }
            if !covered {
                return Err(format!(
                    "vertex {v} is matched by {matched:?}, which does not cover it"
                ));
            }
        }
        read_ns.push(t_block.elapsed().as_nanos() as u64);
        reads += READ_BLOCK as u64;
        if reads.is_multiple_of(YIELD_EVERY) {
            std::thread::yield_now();
        }
    }
    Ok(Reader {
        read_ns,
        staleness,
        reads,
        wall_s: start.elapsed().as_secs_f64(),
        tracer,
    })
}

pub fn run(cfg: &RunCfg) -> Result<Pass, String> {
    let pool = ParPool::with_threads(0);
    let obs = Recorder::enabled_if(cfg.traced);
    let mut rng = SplitMix64::new(cfg.seed);
    let edges: Vec<EdgeVertices> = (0..LIVE).map(|_| random_edge(&mut rng)).collect();
    let dir = Path::new(OUT_DIR).join(format!("wal-serve_rw-{}", std::process::id()));
    let (svc, query, live, took) = set_up(&dir, &edges, &pool, &obs)?;
    let mut setup_s = vec![took];

    let origin = Instant::now();
    let tracer = |tag| Tracer::new(cfg.traced, origin, tag);
    let acked_epoch = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (writer_rng, reader_rng) = (rng.fork(), rng.fork());
    let measured = timed_pair(
        || obs.snapshot(),
        || {
            let out = write_loop(&svc, live, writer_rng, cfg.seconds, &acked_epoch, tracer(1));
            stop.store(true, Ordering::SeqCst);
            out
        },
        || read_loop(&query, reader_rng, &stop, &acked_epoch, tracer(2)),
    )
    .map(|(w, r, proc, rec0, rec1)| (w, r, proc, rec1.delta(&rec0)));
    let peak_rss_mib = procfs::peak_rss_mib();
    let (structure, service_stats) = svc.shutdown();
    let (w, r, proc, rec) = match measured {
        Ok(m) => m,
        Err(e) => {
            remove_dir(&dir)?;
            return Err(e);
        }
    };
    let recover_ms = check(&structure, &w.live, &dir)?;
    remove_dir(&dir)?;
    // Further set-ups only time themselves; they run after the peak RSS
    // was read, so the peak is that of one service.
    for _ in 1..cfg.setups {
        let (svc, _, _, took) = set_up(&dir, &edges, &pool, &obs)?;
        setup_s.push(took);
        drop(svc.shutdown());
        remove_dir(&dir)?;
    }
    let measured = Measured {
        w,
        r,
        proc,
        rec,
        peak_rss_mib: peak_rss_mib?,
        checkpoints: service_stats.checkpoints,
        recover_ms,
    };
    Ok(report(cfg, setup_s, measured, &structure))
}

/// The correctness gate: invariants, maximality and live count against the
/// writer's view, and recovery from the WAL directory reproducing the
/// final state. Returns the recovery time in ms.
fn check(
    structure: &DynamicMatching,
    live: &[(EdgeId, EdgeVertices)],
    dir: &Path,
) -> Result<f64, String> {
    verify::check_invariants(structure).map_err(|e| format!("invariants: {e}"))?;
    if structure.num_edges() != live.len() {
        return Err(format!(
            "structure holds {} edges, the writer {}",
            structure.num_edges(),
            live.len()
        ));
    }
    let live_map = live.iter().cloned().collect();
    baseline::check_maximal(structure, &live_map).map_err(|e| format!("maximality: {e}"))?;
    let t0 = Instant::now();
    let rec = recover_matching_from_dir(dir, false).map_err(|e| format!("recovery: {e}"))?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered = rec.structure;
    let mut want = structure.matching();
    let mut got = recovered.matching();
    want.sort_unstable();
    got.sort_unstable();
    if recovered.num_edges() != structure.num_edges()
        || recovered.matching_size() != structure.matching_size()
        || got != want
    {
        return Err(format!(
            "recovery diverged: {} edges / {} matched, served {} / {}",
            recovered.num_edges(),
            recovered.matching_size(),
            structure.num_edges(),
            structure.matching_size()
        ));
    }
    Ok(recover_ms)
}

/// Everything the timed phase and the checks after it measured.
struct Measured {
    w: Writer,
    r: Reader,
    proc: procfs::Delta,
    rec: ProfileReport,
    peak_rss_mib: f64,
    checkpoints: u64,
    recover_ms: f64,
}

fn report(cfg: &RunCfg, setup_s: Vec<f64>, m: Measured, structure: &DynamicMatching) -> Pass {
    let Measured {
        w,
        r,
        proc,
        rec,
        peak_rss_mib,
        checkpoints,
        recover_ms,
    } = m;
    let Writer {
        latency_ns,
        late_ns,
        submit_ns,
        acked,
        batches,
        failed,
        ack_gap_max,
        wall_s,
        tracer: wtracer,
        ..
    } = w;
    let Reader {
        read_ns,
        staleness,
        reads,
        wall_s: read_wall_s,
        tracer: rtracer,
    } = r;
    let (update_samples, read_samples) = (latency_ns.count(), read_ns.count());
    let (p50, p99) = latency_ns.finish();
    let (r50, r99) = read_ns.finish();
    let (_, late_p99) = late_ns.finish();
    let (_, staleness_p99) = staleness.finish();
    let (submit_p50, _) = submit_ns.finish();
    let updates = acked as f64;
    let batches = batches as f64;
    let phase_per_update = |p: Phase| per(rec.phase(p).total_ns as f64, updates);
    let coalescer = proc.group("pbdmm-coalescer");
    let storage = structure.storage_stats();
    eprintln!(
        "serve_rw: {acked} updates in {wall_s:.2}s ({update_samples} samples), {reads} reads, \
         {checkpoints} checkpoints, ack gap max {:.1} ms, traced {}",
        ack_gap_max.as_secs_f64() * 1e3,
        cfg.traced
    );
    Pass {
        attempted: acked + failed + reads,
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
                phase_per_update(Phase::Settle),
            ),
            (
                "matching.snapshot_publish_ns_per_update",
                phase_per_update(Phase::SnapshotPublish),
            ),
            (
                "matching.edge_slots_per_live_edge",
                per(storage.edge_slots as f64, storage.live_edges as f64),
            ),
            (
                "primitives.pool_cpu_us_per_update",
                per(proc.group("pbdmm-par-").cpu_ns as f64 / 1e3, updates),
            ),
            ("service.batch_len_mean", per(updates, batches)),
            ("service.plan_ns_per_update", phase_per_update(Phase::Plan)),
            (
                "service.wal_append_ns_per_update",
                phase_per_update(Phase::WalAppend),
            ),
            (
                "service.complete_ns_per_update",
                phase_per_update(Phase::Complete),
            ),
            (
                "service.coalescer_cpu_us_per_update",
                per(coalescer.cpu_ns as f64 / 1e3, updates),
            ),
            (
                "service.coalescer_runq_wait_frac",
                per(coalescer.runq_wait_ns as f64 / 1e9, proc.wall_s),
            ),
            ("service.submit_ns_p50", submit_p50),
            (
                "service.writer_wakeups_per_update",
                per(proc.group("bench-writer").voluntary as f64, updates),
            ),
            (
                "service.write_syscalls_per_batch",
                per(proc.io.syscw as f64, batches),
            ),
            (
                "service.bytes_written_per_update",
                per(proc.io.wchar as f64, updates),
            ),
            ("service.checkpoints", checkpoints as f64),
            (
                "service.ckpt_cpu_ms",
                proc.group("pbdmm-ckpt").cpu_ns as f64 / 1e6,
            ),
            ("service.ack_gap_max_ms", ack_gap_max.as_secs_f64() * 1e3),
            ("service.recover_ms", recover_ms),
            ("service.read_staleness_p99", staleness_p99),
            ("bench.gen_late_p99_us", late_p99 / 1e3),
            (
                "bench.client_cpu_frac",
                per(proc.group("bench-").cpu_ns as f64 / 1e9, proc.wall_s),
            ),
            ("bench.update_samples", update_samples as f64),
            ("bench.read_p50_us", r50 / READ_BLOCK as f64 / 1e3),
            ("bench.read_p99_us", r99 / READ_BLOCK as f64 / 1e3),
            ("bench.read_samples", read_samples as f64),
            (
                "bench.failed_frac",
                per(failed as f64, (acked + failed + reads) as f64),
            ),
        ],
        update_p50_us: p50 / 1e3,
        tracers: vec![wtracer, rtracer],
    }
}
