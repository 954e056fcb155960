//! `apply_powerlaw`: raw `DynamicMatching::apply` on mixed batches over a
//! power-law graph far larger than the caches.
//!
//! The universe is `gen::preferential_attachment(200_000, 3, seed)`
//! (about 600k edges), shuffled by the seed. All but a sixteenth of it is
//! preloaded in one bulk insert batch; every timed batch then deletes 512
//! edges drawn uniformly from the live ones and inserts 512 drawn
//! uniformly from the non-live rest, so the live count never changes. One
//! thread calls `apply` in a closed loop on a pool the benchmark owns; no
//! service, WAL, snapshots or sockets are involved. After every batch the
//! same thread runs one timed block of point queries on the structure.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pbdmm_graph::edge::{EdgeId, EdgeVertices};
use pbdmm_graph::gen;
use pbdmm_graph::update::{Batch, Update};
use pbdmm_matching::{baseline, verify, DynamicMatching};
use pbdmm_primitives::hash::FxHashMap;
use pbdmm_primitives::obs::{Phase, Recorder};
use pbdmm_primitives::pool::ParPool;
use pbdmm_primitives::rng::SplitMix64;

use crate::stats::{per, Windows};
use crate::trace::Tracer;
use crate::{new_structure, procfs, Pass, RunCfg};

/// Vertices of the power-law universe.
const VERTICES: usize = 200_000;
/// Edges each new vertex attaches with.
const ATTACH: usize = 3;
/// Updates per batch, half deletes and half inserts.
pub const BATCH: usize = 1024;
/// Batches over which the cost-model counts are taken. They are exact for
/// a seed because the stream and the coins are; the run always completes
/// at least this many batches.
const COUNTED_BATCHES: u64 = 1024;
/// Point queries per timed block: a single in-process query is below what
/// one clock read resolves, so a read's latency is its block's mean.
pub const READ_BLOCK: usize = 8;
/// Timed read blocks after every batch.
const READ_BLOCKS_PER_BATCH: usize = 8;
/// Batches per latency window (see [`Windows`]).
const BATCH_WINDOW: usize = 1024;

/// The seeded update stream: which universe edges are live (with their
/// ids) and which are spare.
pub struct Stream {
    universe: Vec<EdgeVertices>,
    /// Vertices of the universe; point queries are drawn over them.
    vertices: u64,
    live: Vec<(u32, EdgeId)>,
    spare: Vec<u32>,
    rng: SplitMix64,
}

impl Stream {
    /// Shuffle the universe of `vertices` by `seed` and split it into the
    /// preload (returned, in order) and the spare sixteenth.
    pub fn new(vertices: usize, seed: u64) -> (Stream, Vec<u32>) {
        let universe = gen::preferential_attachment(vertices, ATTACH, seed).edges;
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut order: Vec<u32> = (0..universe.len() as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.bounded(i as u64 + 1) as usize);
        }
        let spare = order.split_off(order.len() - universe.len() / 16);
        let stream = Stream {
            universe,
            vertices: vertices as u64,
            live: Vec::new(),
            spare,
            rng,
        };
        (stream, order)
    }

    /// The preload batch for `order` (one insert per universe edge).
    pub fn preload_batch(&self, order: &[u32]) -> Batch {
        Batch::new().inserts(order.iter().map(|&i| self.universe[i as usize].clone()))
    }

    /// Record the ids the preload was given.
    pub fn preloaded(&mut self, order: &[u32], ids: &[EdgeId]) -> Result<(), String> {
        if ids.len() != order.len() {
            return Err(format!(
                "preload got {} ids for {} edges",
                ids.len(),
                order.len()
            ));
        }
        self.live = order.iter().copied().zip(ids.iter().copied()).collect();
        Ok(())
    }

    /// The next mixed batch and the universe edges it inserts, in order.
    pub fn next_batch(&mut self) -> (Batch, Vec<u32>) {
        let half = BATCH / 2;
        let mut batch = Batch::with_capacity(BATCH);
        let mut freed = Vec::with_capacity(half);
        for _ in 0..half.min(self.live.len()) {
            let pos = self.rng.bounded(self.live.len() as u64) as usize;
            let (idx, id) = self.live.swap_remove(pos);
            batch.push(Update::Delete(id));
            freed.push(idx);
        }
        let mut inserted = Vec::with_capacity(half);
        for _ in 0..half.min(self.spare.len()) {
            let pos = self.rng.bounded(self.spare.len() as u64) as usize;
            let idx = self.spare.swap_remove(pos);
            batch.push(Update::Insert(self.universe[idx as usize].clone()));
            inserted.push(idx);
        }
        self.spare.extend(freed);
        (batch, inserted)
    }

    /// Record the ids `apply` gave the batch's inserts.
    pub fn commit(&mut self, inserted: Vec<u32>, ids: &[EdgeId]) -> Result<(), String> {
        if ids.len() != inserted.len() {
            return Err(format!(
                "apply returned {} ids for {} inserts",
                ids.len(),
                inserted.len()
            ));
        }
        self.live
            .extend(inserted.into_iter().zip(ids.iter().copied()));
        Ok(())
    }

    /// Live edges as the generator sees them.
    pub fn live_map(&self) -> FxHashMap<EdgeId, EdgeVertices> {
        self.live
            .iter()
            .map(|&(idx, id)| (id, self.universe[idx as usize].clone()))
            .collect()
    }

    /// Number of live edges.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }
}

/// The cost-model counts over the first [`COUNTED_BATCHES`] batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCounts {
    /// Model work per update.
    pub work_per_update: f64,
    /// Settle rounds per batch.
    pub settle_rounds_per_batch: f64,
    /// Mean payment per user deletion.
    pub payment_per_delete: f64,
}

fn cost_mark(dm: &DynamicMatching) -> (u64, u64, u64, u64) {
    let st = dm.stats();
    (
        dm.meter().work(),
        st.settle_rounds,
        st.total_payment,
        st.user_deletions,
    )
}

fn cost_counts(from: (u64, u64, u64, u64), to: (u64, u64, u64, u64), batches: u64) -> CostCounts {
    CostCounts {
        work_per_update: per((to.0 - from.0) as f64, (batches * BATCH as u64) as f64),
        settle_rounds_per_batch: per((to.1 - from.1) as f64, batches as f64),
        payment_per_delete: per((to.2 - from.2) as f64, (to.3 - from.3) as f64),
    }
}

/// Build the structure on `pool` and preload it; returns it with the time
/// the build and the preload `apply` took.
fn set_up(
    stream: &mut Stream,
    order: &[u32],
    pool: &Arc<ParPool>,
    obs: &Recorder,
) -> Result<(DynamicMatching, f64), String> {
    let batch = stream.preload_batch(order);
    let t0 = Instant::now();
    let mut dm = new_structure();
    dm.set_pool(Arc::clone(pool));
    dm.set_obs(obs.clone());
    let out = dm.apply(batch).map_err(|e| format!("preload: {e}"))?;
    let took = t0.elapsed().as_secs_f64();
    stream.preloaded(order, &out.inserted)?;
    Ok((dm, took))
}

/// What the load thread measured.
struct Load {
    apply_ns: Windows,
    apply_total_ns: u64,
    updates: u64,
    batches: u64,
    read_ns: Windows,
    read_total_ns: u64,
    reads: u64,
    update_s: f64,
    counts: CostCounts,
    tracer: Tracer,
}

/// The closed loop: `apply` until `seconds` pass (and at least
/// `min_batches` ran), each batch followed by timed blocks of point
/// queries on the structure.
fn drive(
    dm: &mut DynamicMatching,
    stream: &mut Stream,
    seconds: f64,
    min_batches: u64,
    mut tracer: Tracer,
) -> Result<Load, String> {
    let span = Duration::from_secs_f64(seconds);
    let mut rng = SplitMix64::new(stream.rng.next_u64());
    let mut apply_ns = Windows::new(BATCH_WINDOW);
    let mut read_ns = Windows::new(BATCH_WINDOW * READ_BLOCKS_PER_BATCH);
    let (mut apply_total_ns, mut read_total_ns) = (0u64, 0u64);
    let (mut batches, mut updates, mut reads) = (0u64, 0u64, 0u64);
    let start_mark = cost_mark(dm);
    let mut counts = None;
    let start = Instant::now();
    while start.elapsed() < span || batches < min_batches {
        let root = tracer.reserve();
        let t_gen = Instant::now();
        let (batch, inserted) = stream.next_batch();
        let n = batch.len() as u64;
        let t0 = Instant::now();
        let out = dm
            .apply(batch)
            .map_err(|e| format!("batch {batches} rejected: {e}"))?;
        let t1 = Instant::now();
        tracer.record("matching.apply", batches, root, t0, t1);
        tracer.close(root, "bench.batch", batches, t_gen, t1);
        let ns = (t1 - t0).as_nanos() as u64;
        apply_ns.push(ns);
        apply_total_ns += ns;
        stream.commit(inserted, &out.inserted)?;
        batches += 1;
        updates += n;
        if batches == min_batches {
            counts = Some(cost_counts(start_mark, cost_mark(dm), batches));
        }

        for _ in 0..READ_BLOCKS_PER_BATCH {
            let vs: [u32; READ_BLOCK] =
                std::array::from_fn(|_| rng.bounded(stream.vertices) as u32);
            let t0 = Instant::now();
            for &v in &vs {
                if let Some(e) = dm.matched_edge_of(v) {
                    if !dm.edge_vertices(e).is_some_and(|ends| ends.contains(&v)) {
                        return Err(format!(
                            "vertex {v} is matched by {e}, which does not cover it"
                        ));
                    }
                }
            }
            let ns = t0.elapsed().as_nanos() as u64;
            read_ns.push(ns);
            read_total_ns += ns;
            reads += READ_BLOCK as u64;
        }
    }
    Ok(Load {
        apply_ns,
        apply_total_ns,
        updates,
        batches,
        read_ns,
        read_total_ns,
        reads,
        update_s: start.elapsed().as_secs_f64(),
        counts: counts.ok_or("no batch ran")?,
        tracer,
    })
}

/// The correctness gate: invariants, maximality against the generator's
/// live set, and equal live counts.
fn check(dm: &DynamicMatching, stream: &Stream) -> Result<(), String> {
    verify::check_invariants(dm).map_err(|e| format!("invariants: {e}"))?;
    if dm.num_edges() != stream.live_len() {
        return Err(format!(
            "structure holds {} edges, the generator {}",
            dm.num_edges(),
            stream.live_len()
        ));
    }
    baseline::check_maximal(dm, &stream.live_map()).map_err(|e| format!("maximality: {e}"))
}

pub fn run(cfg: &RunCfg) -> Result<Pass, String> {
    run_sized(cfg, VERTICES, COUNTED_BATCHES).map(|(pass, _)| pass)
}

/// [`run`] on a universe of `vertices`, counting costs over `counted`
/// batches; also returns the counts (for the determinism test).
pub fn run_sized(
    cfg: &RunCfg,
    vertices: usize,
    counted: u64,
) -> Result<(Pass, CostCounts), String> {
    let pool = ParPool::with_threads(0);
    let obs = Recorder::enabled_if(cfg.traced);
    let (mut stream, order) = Stream::new(vertices, cfg.seed);
    let (mut dm, took) = set_up(&mut stream, &order, &pool, &obs)?;
    let mut setup_s = vec![took];

    let tracer = Tracer::new(cfg.traced, Instant::now(), 1);
    let sync = Barrier::new(2);
    let seconds = cfg.seconds;
    let (load, proc, rec, pool0, pool1) = std::thread::scope(|s| {
        let worker = std::thread::Builder::new()
            .name("bench-apply".into())
            .spawn_scoped(s, || {
                sync.wait();
                let load = drive(&mut dm, &mut stream, seconds, counted, tracer);
                sync.wait();
                sync.wait();
                load
            })
            .map_err(|e| format!("spawn load thread: {e}"))?;
        let (rec0, pool0) = (obs.snapshot(), pool.stats());
        let before = procfs::sample();
        sync.wait();
        sync.wait();
        let after = procfs::sample();
        let (rec1, pool1) = (obs.snapshot(), pool.stats());
        sync.wait();
        let load = worker.join().map_err(|_| "load thread panicked")?;
        Ok::<_, String>((
            load?,
            before?.until(&after?),
            rec1.delta(&rec0),
            pool0,
            pool1,
        ))
    })?;
    let peak_rss_mib = procfs::peak_rss_mib()?;
    check(&dm, &stream)?;
    let storage = dm.storage_stats();
    let live = dm.num_edges();
    drop(dm);
    // Further set-ups only time themselves; they run after the peak RSS
    // was read, so the peak is that of one structure.
    for _ in 1..cfg.setups {
        setup_s.push(set_up(&mut stream, &order, &pool, &obs)?.1);
    }

    let (update_samples, read_samples) = (load.apply_ns.count(), load.read_ns.count());
    let (p50, p99) = load.apply_ns.finish();
    let (r50, r99) = load.read_ns.finish();
    let apply_s = load.apply_total_ns as f64 / 1e9;
    let read_s = load.read_total_ns as f64 / 1e9;
    let updates = load.updates as f64;
    let block = READ_BLOCK as f64;
    eprintln!(
        "apply_powerlaw: {} batches ({} updates) and {} reads in {:.2}s, {live} edges live",
        load.batches, load.updates, load.reads, load.update_s,
    );
    let pass = Pass {
        attempted: load.updates + load.reads,
        failed: 0,
        setup_s,
        e2e: vec![
            ("updates_per_s", per(updates, apply_s)),
            ("update_p50_us", p50 / 1e3),
            ("update_p99_us", p99 / 1e3),
            ("reads_per_s", per(load.reads as f64, read_s)),
            ("peak_rss_mib", peak_rss_mib),
        ],
        layer: vec![
            (
                "matching.settle_ns_per_update",
                per(rec.phase(Phase::Settle).total_ns as f64, updates),
            ),
            (
                "matching.snapshot_publish_ns_per_update",
                per(rec.phase(Phase::SnapshotPublish).total_ns as f64, updates),
            ),
            ("matching.work_per_update", load.counts.work_per_update),
            (
                "matching.settle_rounds_per_batch",
                load.counts.settle_rounds_per_batch,
            ),
            (
                "matching.payment_per_delete",
                load.counts.payment_per_delete,
            ),
            (
                "matching.edge_slots_per_live_edge",
                per(storage.edge_slots as f64, storage.live_edges as f64),
            ),
            (
                "primitives.pool_cpu_us_per_update",
                per(proc.group("pbdmm-par-").cpu_ns as f64 / 1e3, updates),
            ),
            (
                "primitives.pool_steals_per_job",
                per(
                    (pool1.steals - pool0.steals) as f64,
                    (pool1.jobs - pool0.jobs) as f64,
                ),
            ),
            (
                "bench.client_cpu_frac",
                per(proc.group("bench-").cpu_ns as f64 / 1e9, proc.wall_s),
            ),
            ("bench.update_samples", update_samples as f64),
            ("bench.read_p50_us", r50 / block / 1e3),
            ("bench.read_p99_us", r99 / block / 1e3),
            ("bench.read_samples", read_samples as f64),
        ],
        update_p50_us: p50 / 1e3,
        tracers: vec![load.tracer],
    };
    Ok((pass, load.counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost-model counts are fixed by the seed: two shortened runs
    /// with one seed agree exactly, and another seed gives other counts.
    #[test]
    fn cost_counts_repeat_exactly_for_a_seed() {
        let _cpus = crate::CPU_TEST_LOCK.lock().expect("test lock");
        let cfg = |seed| RunCfg {
            seed,
            seconds: 0.05,
            traced: false,
            setups: 1,
        };
        let counts = |seed| run_sized(&cfg(seed), 20_000, 48).expect("run").1;
        let a = counts(3);
        assert_eq!(a, counts(3));
        assert!(a.work_per_update > 0.0 && a.settle_rounds_per_batch > 0.0);
        assert_ne!(a, counts(4));
    }
}
