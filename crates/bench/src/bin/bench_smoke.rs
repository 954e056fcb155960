//! `bench_smoke` — the CI-gated quick benchmark.
//!
//! Runs a fixed-seed, fixed-workload subset of the benchmark suite in a
//! couple of minutes, writes the results as `BENCH_smoke.json`, and (in
//! `--baseline` mode) fails with a nonzero exit if any metric regressed more
//! than the tolerance against a checked-in baseline. All metrics are
//! throughputs (higher is better); the workloads and seeds are pinned so runs
//! are comparable across commits on the same machine class.
//!
//! ```text
//! bench_smoke --out BENCH_smoke.json                      # measure + write
//! bench_smoke --out BENCH_smoke.json \
//!             --baseline ci/BENCH_smoke_baseline.json \
//!             --tolerance 0.25                            # measure + gate
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use pbdmm_bench::json::{self, Value};
use pbdmm_bench::{fmt_f, Table};
use pbdmm_graph::gen;
use pbdmm_graph::update::Batch;
use pbdmm_graph::wal::WalMeta;
use pbdmm_graph::workload::{churn, insert_then_delete, DeletionOrder};
use pbdmm_matching::driver::run_workload;
use pbdmm_matching::snapshot::{Changes, MatchingSnapshot, SnapshotDelta};
use pbdmm_matching::DynamicMatching;
use pbdmm_primitives::obs::{Phase, Recorder};
use pbdmm_primitives::par;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_service::{recover_matching_from_dir, Done, ServiceConfig, ServiceHandle, WalConfig};

/// Schema tag so the checker can refuse files from a different layout.
const SCHEMA: &str = "pbdmm-bench-smoke-v1";

struct Args {
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    samples: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        baseline: None,
        tolerance: 0.25,
        samples: std::env::var("PBDMM_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("--{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = Some(val("out")?),
            "--baseline" => args.baseline = Some(val("baseline")?),
            "--tolerance" => {
                args.tolerance = val("tolerance")?.parse().map_err(|e| format!("{e}"))?
            }
            "--samples" => args.samples = val("samples")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Best-of-`samples` throughput for `f`, which does `units` units of work.
fn throughput(samples: usize, units: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (first run pays pool spin-up and page faults)
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    units as f64 / best
}

/// Name of the machine-speed calibration metric: a fixed scalar hashing
/// loop. The regression checker divides every metric by it on both sides,
/// so the gate compares *scheduler/algorithm* changes, not runner hardware.
const CALIBRATION: &str = "calibration_scalar_hashes_per_s";

/// The ingest-service workload shape of the per-phase profile run: each of
/// `SERVICE_PRODUCERS` threads alternates windows of inserts with
/// deletions of the ids it got back.
const SERVICE_PRODUCERS: usize = 4;
const SERVICE_UPDATES_PER_PRODUCER: usize = 2048;

fn service_edge(rng: &mut SplitMix64) -> Vec<u32> {
    let a = rng.bounded(2048) as u32;
    let b = a + 1 + rng.bounded(7) as u32;
    vec![a, b]
}

fn bench_wal_path(name: &str) -> std::path::PathBuf {
    // Pid-suffixed so concurrent bench runs (or different users sharing the
    // temp dir) never truncate each other's open log.
    std::env::temp_dir().join(format!("pbdmm_bench_{name}_{}.wal", std::process::id()))
}

/// One producer's share of the churn load: windows of inserts, then
/// deletes of the ids they returned, seeded by `p`.
fn producer_churn(h: &ServiceHandle, p: u64, per_producer: usize) {
    let mut rng = SplitMix64::new(0xBE9C ^ p);
    let mut done = 0usize;
    while done < per_producer {
        let window = 64.min(per_producer - done);
        let tickets: Vec<_> = (0..window)
            .map(|_| h.insert(service_edge(&mut rng)))
            .collect();
        let ids: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("bench insert").done.id())
            .collect();
        done += window;
        let deletes = ids.len().min(per_producer - done);
        let tickets: Vec<_> = ids[..deletes].iter().map(|&id| h.delete(id)).collect();
        for t in tickets {
            assert!(matches!(
                t.wait().expect("bench delete").done,
                Done::Deleted(_) | Done::AlreadyDeleted(_)
            ));
        }
        done += deletes;
    }
}

/// Build a matching of `n` disjoint edges (so every edge is matched),
/// capture its snapshot, apply one fixed-size churn batch (256 strided
/// deletions + 256 fresh inserts), and return the base snapshot together
/// with the real [`SnapshotDelta`] that batch published. Both the delta
/// size *and* its key-locality pattern (a fixed 39-id victim stride) are
/// identical at every `n`, so the two figures isolate what the O(Δ)
/// publication claim is about: how patch cost depends on *state size*,
/// with the per-edit chunk/group footprint held constant.
fn snapshot_and_delta(n: u64) -> (std::sync::Arc<MatchingSnapshot>, SnapshotDelta) {
    let mut m = DynamicMatching::with_seed(31);
    let mut ids = Vec::with_capacity(n as usize);
    let mut next = 0u64;
    while next < n {
        let chunk = (n - next).min(1 << 16);
        let mut b = Batch::new();
        for i in next..next + chunk {
            b = b.insert(vec![(2 * i) as u32, (2 * i + 1) as u32]);
        }
        ids.extend(m.apply(b).expect("disjoint inserts").inserted);
        next += chunk;
    }
    let reader = m.enable_snapshots();
    let base = reader.snapshot();
    let mut b = Batch::new();
    for victim in ids.iter().step_by(39).take(256) {
        b = b.delete(*victim);
    }
    for i in 0..256u64 {
        let v = 2 * (n + i);
        b = b.insert(vec![v as u32, (v + 1) as u32]);
    }
    m.apply(b).expect("churn batch");
    match reader.changes_since(base.epoch()) {
        Changes::Delta { delta, .. } => (base, delta),
        other => panic!("one publish behind must be a delta, got {other:?}"),
    }
}

/// A served-shape state for the checkpoint figures: `n` random rank-2/3
/// edges over `0.65 n` vertices (100k edges over 65,536 vertices is
/// layerbench `serve_rw`'s preload), then `0.65 n` churn updates in
/// 1024-update batches of half deletes, half inserts, so levels, cross
/// sets and emptied bags look like a long-running service's.
fn checkpoint_state(n: u64) -> DynamicMatching {
    let vertices = n * 65_536 / 100_000;
    let mut rng = SplitMix64::new(0xC4EC);
    let edge = |rng: &mut SplitMix64| {
        let k = 2 + rng.bounded(2);
        let mut vs: Vec<u32> = Vec::with_capacity(k as usize);
        while vs.len() < k as usize {
            let v = rng.bounded(vertices) as u32;
            if !vs.contains(&v) {
                vs.push(v);
            }
        }
        vs
    };
    let mut m = DynamicMatching::with_seed(41);
    let mut live = Vec::with_capacity(n as usize);
    let mut inserted = 0u64;
    while inserted < n {
        let chunk = (n - inserted).min(1 << 16);
        let b = Batch::new().inserts((0..chunk).map(|_| edge(&mut rng)));
        live.extend(m.apply(b).expect("random inserts").inserted);
        inserted += chunk;
    }
    for _ in 0..vertices / 1024 {
        let mut b = Batch::new();
        for _ in 0..512 {
            let i = rng.bounded(live.len() as u64) as usize;
            b = b.delete(live.swap_remove(i));
        }
        b = b.inserts((0..512).map(|_| edge(&mut rng)));
        live.extend(m.apply(b).expect("churn batch").inserted);
    }
    m
}

/// Vertices and live edges of layerbench `wire_bulk`'s state.
const TAX_VERTICES: u64 = 65_536;
const TAX_LIVE: usize = 100_000;
/// Batches the snapshot-tax probe applies: 512 deletes plus 512 inserts
/// each, `wire_bulk`'s frame shape.
const TAX_BATCHES: usize = 400;

/// A random rank-2/3 edge as layerbench draws `wire_bulk`'s: mostly pairs
/// of nearby vertices, a quarter with a third vertex.
fn tax_edge(rng: &mut SplitMix64) -> Vec<u32> {
    let a = rng.bounded(TAX_VERTICES) as u32;
    let b = a + 1 + rng.bounded(7) as u32;
    if rng.bounded(4) == 0 {
        vec![a, b, b + 1 + rng.bounded(5) as u32]
    } else {
        vec![a, b]
    }
}

/// The snapshot tax: what publishing each batch's epoch snapshot adds to
/// `apply`. Two same-seed structures with recycled ids hold `wire_bulk`'s
/// state (100k rank-2/3 edges over 65,536 vertices, seed 1) and get the
/// same 512-delete + 512-insert batches; only one of them publishes. The
/// order alternates per batch, so neither always runs on a cache the other
/// warmed. Returns `(unpublished, published)` apply time, ns per update.
fn snapshot_tax() -> (f64, f64) {
    let mut rng = SplitMix64::new(1);
    let preload: Vec<Vec<u32>> = (0..TAX_LIVE).map(|_| tax_edge(&mut rng)).collect();
    let structure = || {
        let mut m = DynamicMatching::with_seed(0x5eed);
        m.set_recycle_ids(true);
        let out = m.apply(Batch::new().inserts(preload.iter().cloned()));
        (m, out.expect("preload inserts").inserted)
    };
    let (mut off, mut live) = structure();
    let (mut on, _) = structure();
    let _query = on.enable_snapshots();
    let mut ns = [0u128; 2];
    for b in 0..TAX_BATCHES {
        let mut batch = Batch::new();
        for _ in 0..512 {
            let i = rng.bounded(live.len() as u64) as usize;
            batch = batch.delete(live.swap_remove(i));
        }
        batch = batch.inserts((0..512).map(|_| tax_edge(&mut rng)));
        let mut inserted = [Vec::new(), Vec::new()];
        for side in [b % 2, 1 - b % 2] {
            let m = if side == 0 { &mut off } else { &mut on };
            let batch = batch.clone();
            let start = std::time::Instant::now();
            inserted[side] = m.apply(batch).expect("churn batch").inserted;
            ns[side] += start.elapsed().as_nanos();
        }
        assert_eq!(inserted[0], inserted[1], "same seed, same ids");
        live.extend(inserted[0].iter().copied());
    }
    let updates = (TAX_BATCHES * 1024) as f64;
    (ns[0] as f64 / updates, ns[1] as f64 / updates)
}

/// The epoch-snapshot read path under write load: one writer thread churns
/// updates through a serving `UpdateService` while two reader threads
/// resolve `total_reads` point queries against the latest published
/// snapshot. Measures read-side throughput (snapshot loads + point
/// lookups), the serving deployment's hot path.
fn snapshot_read_load(total_reads: u64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (svc, query) = ServiceConfig::builder()
        .max_batch(512)
        .start_serving(DynamicMatching::with_seed(17))
        .expect("no WAL to fail");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let h = svc.handle();
        let stop_w = &stop;
        scope.spawn(move || {
            let mut rng = SplitMix64::new(0x5EAD);
            let mut ids: Vec<pbdmm_graph::edge::EdgeId> = Vec::new();
            while !stop_w.load(Ordering::Relaxed) {
                let tickets: Vec<_> = (0..64).map(|_| h.insert(service_edge(&mut rng))).collect();
                ids.extend(
                    tickets
                        .into_iter()
                        .map(|t| t.wait().expect("insert").done.id()),
                );
                if ids.len() >= 2048 {
                    let victims: Vec<_> = ids.drain(..1024).map(|id| h.delete(id)).collect();
                    for t in victims {
                        t.wait().expect("delete");
                    }
                }
            }
        });
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let q = query.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xBEAD ^ r);
                    let mut matched = 0u64;
                    for _ in 0..total_reads / 2 {
                        let snap = q.snapshot();
                        if snap.is_matched(rng.bounded(2048) as u32) {
                            matched += 1;
                        }
                    }
                    std::hint::black_box(matched);
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader");
        }
        stop.store(true, Ordering::Relaxed);
    });
    svc.shutdown();
}

/// The fixed workload battery. Every metric name carries its thread count so
/// serial and parallel scheduler paths are gated independently.
fn run_battery(samples: usize) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();

    // Calibration first: pure sequential, allocation-free, fixed work.
    let n_cal = 1u64 << 22;
    metrics.insert(
        CALIBRATION.to_string(),
        throughput(samples, n_cal, || {
            let mut acc = 0u64;
            for i in 0..n_cal {
                acc = acc.wrapping_add(pbdmm_primitives::hash::mix64(i));
            }
            std::hint::black_box(acc);
        }),
    );

    // Mixed-batch dynamic updates: the acceptance-criteria workload. An
    // empty-to-empty churn stream of mixed batches on a mid-size sparse
    // graph, plus an insert-then-delete stream for the settle-heavy path.
    let g = gen::erdos_renyi(1 << 12, 1 << 14, 9);
    let w_churn = churn(&g, 384, 11);
    let w_itd = insert_then_delete(&g, 512, DeletionOrder::VertexClustered, 13);
    for threads in [1usize, 4] {
        par::set_num_threads(threads);
        metrics.insert(
            format!("dynamic_churn_updates_per_s_t{threads}"),
            throughput(samples, w_churn.total_updates() as u64, || {
                let mut dm = DynamicMatching::with_seed(1);
                run_workload(&mut dm, &w_churn);
            }),
        );
        metrics.insert(
            format!("dynamic_insert_delete_updates_per_s_t{threads}"),
            throughput(samples, w_itd.total_updates() as u64, || {
                let mut dm = DynamicMatching::with_seed(2);
                run_workload(&mut dm, &w_itd);
            }),
        );
    }

    // Storage-backend occupancy (ungated `info_*`, and counts rather than
    // throughputs): high-water slot usage of the flat edge table after the
    // churn stream, in both id modes. The monotonic number spans every id
    // ever assigned; the recycled number is bounded by the peak live set —
    // the density the slab free-list buys under unbounded churn.
    {
        let mut dm = DynamicMatching::with_seed(1);
        run_workload(&mut dm, &w_churn);
        let st = dm.storage_stats();
        metrics.insert(
            "info_slab_churn_edge_slots_monotonic".into(),
            st.edge_slots as f64,
        );
        metrics.insert(
            "info_slab_churn_ids_allocated".into(),
            st.ids_allocated as f64,
        );
        let mut dm = DynamicMatching::with_seed(1);
        dm.set_recycle_ids(true);
        run_workload(&mut dm, &w_churn);
        let st = dm.storage_stats();
        metrics.insert(
            "info_slab_churn_edge_slots_recycled".into(),
            st.edge_slots as f64,
        );
    }

    // Per-phase wall totals from one instrumented, snapshot-serving
    // service run, so a PR can show *which phase* it moved, not just an
    // end-to-end delta. Nanosecond totals, lower is better — ungated like
    // every non-throughput figure. End-to-end service and wire throughput
    // is layerbench's job (`BENCHMARK.json`).
    par::set_num_threads(4);
    {
        let obs = Recorder::enabled();
        let wal_path = bench_wal_path("profile").with_extension("waldir");
        std::fs::remove_dir_all(&wal_path).ok();
        let (svc, _query) = ServiceConfig::builder()
            .max_batch(512)
            .wal_dir(
                &wal_path,
                WalMeta {
                    seed: 11,
                    ..WalMeta::default()
                },
            )
            .checkpoint_every(0)
            .wal_sync(false)
            .obs(obs.clone())
            .start_serving(DynamicMatching::with_seed(11))
            .expect("WAL in temp dir");
        std::thread::scope(|scope| {
            for p in 0..SERVICE_PRODUCERS as u64 {
                let h = svc.handle();
                scope.spawn(move || producer_churn(&h, p, SERVICE_UPDATES_PER_PRODUCER));
            }
        });
        svc.shutdown();
        std::fs::remove_dir_all(&wal_path).ok();
        let report = obs.snapshot();
        for phase in [
            Phase::Batch,
            Phase::Plan,
            Phase::WalAppend,
            Phase::Apply,
            Phase::Settle,
            Phase::SnapshotPublish,
            Phase::Complete,
        ] {
            metrics.insert(
                format!("info_phase_{}_ns", phase.name()),
                report.phase(phase).total_ns as f64,
            );
        }
    }
    // Snapshot read path: point queries against the latest published
    // epoch snapshot while a writer churns. `info_` (ungated): reader/
    // writer/coalescer thread scheduling dominates on a loaded or small
    // host.
    let snapshot_reads = 200_000u64;
    metrics.insert(
        "info_snapshot_reads_per_s_t4".into(),
        throughput(samples, snapshot_reads, || {
            snapshot_read_load(snapshot_reads)
        }),
    );
    // Snapshot *publication* cost: patching the previous COW snapshot with
    // one batch's delta, at two state sizes three orders of magnitude
    // apart. The delta is the same fixed churn batch at both sizes, so if
    // publication is really O(Δ) the two ns/edge figures land close
    // together (the acceptance bar is within 2×); a rewrite that slips an
    // O(state) scan into the publish path shows up as the 1m figure
    // diverging. Reported in ns/edge — lower is better, the opposite of
    // every gated throughput, hence `info_` (ungated) alongside being a
    // single-thread latency number calibration can't normalize.
    for (label, n) in [("10k", 10_000u64), ("1m", 1_000_000)] {
        let (base, delta) = snapshot_and_delta(n);
        let touched = (delta.inserted.len()
            + delta.deleted.len()
            + delta.matched.len()
            + delta.unmatched.len()) as u64;
        let iters = 512u64;
        let edges_per_s = throughput(samples, iters * touched, || {
            for _ in 0..iters {
                std::hint::black_box(base.apply_delta(&delta));
            }
        });
        metrics.insert(
            format!("info_snapshot_publish_ns_per_edge_{label}"),
            1e9 / edges_per_s,
        );
    }
    // The snapshot tax: publication's share of a served `apply` on
    // `wire_bulk`'s state. One pass of about 0.8M timed updates (both
    // structures); ns per update and percent of the unpublished cost,
    // lower is better, hence `info_`.
    {
        let (off, on) = snapshot_tax();
        metrics.insert("info_snapshot_tax_ns_per_update".into(), on - off);
        metrics.insert(
            "info_snapshot_tax_pct_of_apply".into(),
            100.0 * (on - off) / off,
        );
    }
    // Checkpoint cost: serializing the whole state is the one O(n) step of
    // the serving path (the coalescer stalls on it at every rotation), so
    // write and read are reported in ns per live edge at two state sizes
    // an order of magnitude apart. Per-edge cost should stay flat (within
    // about 2×). Ungated like every latency figure.
    for (label, n) in [("100k", 100_000u64), ("1m", 1_000_000)] {
        let m = checkpoint_state(n);
        let edges = m.num_edges() as u64;
        let mut image = Vec::new();
        let write_per_s = throughput(samples, edges, || {
            let mut out = Vec::new();
            m.write_checkpoint(&mut out);
            image = out;
        });
        metrics.insert(
            format!("info_checkpoint_write_ns_per_edge_{label}"),
            1e9 / write_per_s,
        );
        drop(m);
        // Timed from the image to a restored structure; building the empty
        // target and dropping the restored one stay outside the clock.
        let mut best = f64::INFINITY;
        for _ in 0..=samples {
            let mut restored = DynamicMatching::with_seed(0);
            let start = std::time::Instant::now();
            restored
                .read_checkpoint(&image)
                .expect("bench checkpoint loads");
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(restored.num_edges() as u64, edges);
        }
        metrics.insert(
            format!("info_checkpoint_read_ns_per_edge_{label}"),
            best * 1e9 / edges as f64,
        );
    }
    // Segmented-WAL recovery: checkpoint load + tail replay over a fixed
    // directory built once per battery by a singleton-batch service run
    // (one update per batch, so batch count — and with it checkpoint
    // placement, rotation, and compaction — is deterministic). Gated: the
    // work is fixed and CPU-bound, and this is the restart-latency story
    // the durability tier exists for.
    {
        let dir = std::env::temp_dir().join(format!(
            "pbdmm_bench_recovery_{}.waldir",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let updates = 4096u64;
        let mut wal = WalConfig::dir(
            &dir,
            WalMeta {
                structure: "matching".into(),
                seed: 29,
                ids_recycling: false,
            },
        );
        wal.checkpoint_every = Some(1024);
        let svc = ServiceConfig::builder()
            .max_batch(1)
            .wal(wal)
            .start(DynamicMatching::with_seed(29))
            .expect("segmented WAL in temp dir");
        let h = svc.handle();
        let mut rng = SplitMix64::new(0x4EC0);
        let mut live: Vec<pbdmm_graph::edge::EdgeId> = Vec::new();
        for _ in 0..updates {
            if !live.is_empty() && rng.bounded(10) < 4 {
                let id = live.swap_remove(rng.bounded(live.len() as u64) as usize);
                h.delete(id).wait().expect("bench delete");
            } else {
                let c = h
                    .insert(service_edge(&mut rng))
                    .wait()
                    .expect("bench insert");
                live.push(c.done.id());
            }
        }
        drop(h);
        let (_, stats) = svc.shutdown();
        assert!(stats.checkpoints > 0, "recovery bench never checkpointed");
        metrics.insert(
            "recovery_replay_updates_per_s".into(),
            throughput(samples, updates, || {
                let rec = recover_matching_from_dir(&dir, false).expect("bench recovery");
                std::hint::black_box(rec.next_seq);
            }),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    // Dispatch-frequency metric: many borderline-size parallel calls, the
    // shape level settlement actually produces (a few-thousand-element
    // semisort per round). Scheduler overhead dominates here: this is
    // where spawn-per-call vs pooled dispatch shows directly.
    par::set_num_threads(4);
    let mut rng = SplitMix64::new(5);
    let small_pairs: Vec<(u32, u32)> = (0..8192)
        .map(|_| (rng.bounded(512) as u32, rng.next_u64() as u32))
        .collect();
    metrics.insert(
        "repeated_semisort_8k_pairs_per_s_t4".into(),
        throughput(samples, 256 * small_pairs.len() as u64, || {
            for _ in 0..256 {
                std::hint::black_box(pbdmm_primitives::group_by(small_pairs.clone()));
            }
        }),
    );

    // The semisort hot path at full size.
    let mut rng = SplitMix64::new(7);
    let pairs: Vec<(u32, u32)> = (0..1 << 18)
        .map(|_| (rng.bounded(4096) as u32, rng.next_u64() as u32))
        .collect();
    metrics.insert(
        "semisort_pairs_per_s_t4".into(),
        throughput(samples, pairs.len() as u64, || {
            std::hint::black_box(pbdmm_primitives::group_by(pairs.clone()));
        }),
    );
    par::set_num_threads(0);
    metrics
}

/// Run metadata recorded alongside the metrics so baseline comparisons in
/// `ci/` are attributable: which thread configuration, how much hardware
/// parallelism was actually available, and which toolchain built the
/// binary. The regression checker ignores this object (it reads only
/// `schema` and `metrics`), so old baselines stay comparable.
fn run_meta() -> Value {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let configured = par::num_threads();
    let toolchain = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    json::obj([
        (
            "threads_configured".to_string(),
            Value::Num(configured as f64),
        ),
        (
            "effective_parallelism".to_string(),
            Value::Num(configured.min(cores) as f64),
        ),
        ("available_cores".to_string(), Value::Num(cores as f64)),
        (
            "pbdmm_threads_env".to_string(),
            Value::Str(std::env::var("PBDMM_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("toolchain".to_string(), Value::Str(toolchain)),
    ])
}

fn to_json(metrics: &BTreeMap<String, f64>, samples: usize, meta: Value) -> Value {
    json::obj([
        ("schema".to_string(), Value::Str(SCHEMA.into())),
        ("samples".to_string(), Value::Num(samples as f64)),
        ("meta".to_string(), meta),
        (
            "metrics".to_string(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Compare against a baseline file; returns the number of regressions.
///
/// Every metric is first divided by the [`CALIBRATION`] metric *of its own
/// run*, so the comparison is machine-speed-normalized: a slower CI runner
/// scales both sides down together, and only genuine scheduler/algorithm
/// regressions move the ratio.
fn check_baseline(
    metrics: &BTreeMap<String, f64>,
    baseline_path: &str,
    tolerance: f64,
) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {baseline_path}: {e}"))?;
    match doc.get("schema") {
        Some(Value::Str(s)) if s == SCHEMA => {}
        other => return Err(format!("baseline schema mismatch: {other:?}")),
    }
    let base = doc
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("baseline has no metrics object")?;
    let base_cal = base
        .get(CALIBRATION)
        .and_then(|v| v.as_num())
        .filter(|c| *c > 0.0)
        .ok_or("baseline has no calibration metric")?;
    let cur_cal = metrics
        .get(CALIBRATION)
        .copied()
        .filter(|c| *c > 0.0)
        .ok_or("current run has no calibration metric")?;
    let mut table = Table::new(
        "bench-smoke vs baseline (calibration-normalized)",
        &["metric", "baseline", "current", "norm ratio", "status"],
    );
    let mut regressions = 0usize;
    for (name, bval) in base {
        // `info_` metrics are tracked in the JSON but too host-noisy to
        // gate; the calibration metric is the normalizer, not a gate.
        if name == CALIBRATION || name.starts_with("info_") {
            continue;
        }
        let Some(b) = bval.as_num().filter(|b| *b > 0.0) else {
            continue;
        };
        let Some(&cur) = metrics.get(name) else {
            regressions += 1;
            table.row(&[
                name.clone(),
                fmt_f(b),
                "missing".into(),
                "-".into(),
                "FAIL".into(),
            ]);
            continue;
        };
        let ratio = (cur / cur_cal) / (b / base_cal);
        let ok = ratio >= 1.0 - tolerance;
        if !ok {
            regressions += 1;
        }
        table.row(&[
            name.clone(),
            fmt_f(b),
            fmt_f(cur),
            format!("{ratio:.2}x"),
            if ok { "ok" } else { "FAIL" }.into(),
        ]);
    }
    table.print();
    Ok(regressions)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Capture metadata before the battery mutates the thread cap.
    let meta = run_meta();
    let metrics = run_battery(args.samples);

    let mut table = Table::new("bench-smoke", &["metric", "per second"]);
    for (k, v) in &metrics {
        table.row(&[k.clone(), fmt_f(*v)]);
    }
    table.print();

    if let Some(out) = &args.out {
        let doc = to_json(&metrics, args.samples, meta);
        if let Err(e) = std::fs::write(out, doc.render()) {
            eprintln!("bench_smoke: write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {out}");
    }

    if let Some(baseline) = &args.baseline {
        match check_baseline(&metrics, baseline, args.tolerance) {
            Ok(0) => println!("\nno regressions beyond {:.0}%", args.tolerance * 100.0),
            Ok(n) => {
                eprintln!(
                    "\nbench_smoke: {n} metric(s) regressed more than {:.0}% vs {baseline}",
                    args.tolerance * 100.0
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("bench_smoke: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
