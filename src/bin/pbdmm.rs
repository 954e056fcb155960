//! `pbdmm` — command-line front end for the batch-dynamic maximal matcher.
//!
//! ```text
//! pbdmm gen er --n 1000 --m 4000 --seed 1 -o graph.hgr    # make a graph
//! pbdmm match graph.hgr                                   # static matching
//! pbdmm dynamic graph.hgr --batch 256 --order uniform     # replay a stream
//! pbdmm cover graph.hgr                                   # set cover view
//! pbdmm serve --producers 4 --wal trace.waldir            # ingest service
//! pbdmm replay trace.waldir                               # rebuild from WAL
//! pbdmm daemon --port 0 --wal trace.waldir                # network daemon
//! pbdmm load --port 45231 --connections 4                 # wire load gen
//! ```
//!
//! Graph files are plain hyperedge lists (see `pbdmm::graph::io`): one edge
//! per line, whitespace-separated vertex ids, `#` comments.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pbdmm::graph::wal::WalMeta;
use pbdmm::graph::workload::{insert_then_delete, DeletionOrder};
use pbdmm::graph::{gen, io, EdgeId, Hypergraph};
use pbdmm::matching::baseline::{NaiveDynamic, RecomputeMatching};
use pbdmm::matching::driver::run_workload;
use pbdmm::matching::verify::check_invariants;
use pbdmm::matching::MatchingSnapshot;
use pbdmm::net::daemon::{Daemon, DaemonConfig};
use pbdmm::net::load::{run_load, LoadConfig};
use pbdmm::net::Client;
use pbdmm::primitives::cost::CostMeter;
use pbdmm::primitives::obs::{Counter, Phase, Recorder};
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::{
    matching_for, recover_dir_with, wal_dir_meta, Done, RecoveryInfo, ServiceConfig, ServiceHandle,
    WalConfig, DEFAULT_MAX_BATCH,
};
use pbdmm::{DynamicMatching, DynamicSetCover};
use pbdmm_bench::metrics;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("pbdmm: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("pbdmm: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed.
enum Failure {
    /// The command line is wrong (a missing argument, an unknown command or
    /// flag, a value that does not parse): the usage text follows the cause.
    Usage(String),
    /// The command failed as it ran: only the cause is printed.
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

/// A command-line error: see [`Failure::Usage`].
fn usage(e: impl Into<String>) -> Failure {
    Failure::Usage(e.into())
}

const USAGE: &str = "\
usage:
  pbdmm match <graph-file> [--seed S] [--threads T]
  pbdmm dynamic <graph-file> [--batch B] [--order uniform|fifo|lifo|clustered|degree]
                [--contender dynamic|recompute|naive|setcover] [--seed S] [--threads T]
  pbdmm cover <graph-file> [--seed S] [--threads T]
  pbdmm gen <er|hyper|powerlaw|star|bipartite> [--n N] [--m M] [--rank R] [--seed S] -o <file>
  pbdmm serve [--producers P] [--updates N] [--readers R] [--max-batch B]
              [--structure matching|setcover] [--wal DIR|none]
              [--wal-sync BOOL] [--checkpoint-every N]
              [--seed S] [--threads T] [--profile [interval=N]]
  pbdmm replay <wal-dir> [--from-genesis BOOL] [--threads T] [--profile]
  pbdmm daemon [--port P] [--host H] [--max-connections C] [--max-inflight W]
               [--max-batch B] [--wal DIR|none]
               [--wal-sync BOOL] [--checkpoint-every N]
               [--seed S] [--threads T] [--profile [interval=N]]
  pbdmm load (--port P | --addr HOST:PORT) [--connections M] [--updates N]
             [--queries Q] [--shutdown BOOL] [--seed S] [--threads T]
             [--profile [interval=N]]

  Every subcommand refuses flags it does not read (unknown flag --X).

  serve drives a synthetic P-producer load through the batch-coalescing
  update service (ingress -> coalesce -> WAL -> apply -> snapshot) and
  reports throughput and per-update latency. Durable by default: each
  formed batch is appended to the WAL (a temp directory unless --wal
  names one; --wal none disables) and fsynced (--wal-sync false for
  flush-only) before its tickets complete. --readers R (default 2; 0
  disables) runs R concurrent reader threads resolving point queries
  against the epoch-snapshot read path while writers run, reporting read
  throughput and snapshot-staleness percentiles. Batching is group
  commit: the service merges whatever queued while the previous batch
  applied, up to --max-batch updates, and never waits on a timer. The
  group-commit comparison is two runs: --max-batch 1 applies and logs
  every update alone, the default --max-batch 1024 coalesces them. replay
  rebuilds a structure from a recorded WAL and verifies its invariants;
  its final: line (epoch included) is byte-comparable with serve's.

  daemon binds a TCP listener (--port 0 picks an ephemeral port, printed
  on the 'daemon: listening on' line for scripting) and serves the wire
  protocol over the same coalescing service: every connection gets
  read-your-writes, WAL durability (durable by default, exactly like
  serve), and epoch-snapshot reads; admission control refuses work
  beyond --max-connections / --max-inflight with Overloaded errors
  instead of queueing without bound. It drains on a client Shutdown
  frame and prints a final: line byte-comparable with replay's. load
  drives a running daemon from M concurrent connections with serve's
  synthetic workload and prints the same report format, so in-process
  vs over-the-wire overhead is one diff away; --shutdown true sends a
  Shutdown frame when done (the CI loopback pipeline relies on it).

  --threads T sizes the work-stealing scheduler (a positive integer; omit
  the flag to use all cores; also settable process-wide via the
  PBDMM_THREADS environment variable).

  --wal DIR (serve, daemon) names a segment directory: the log rotates
  and a checkpoint of the live structure is written after every >= N
  updates (--checkpoint-every N, default 65536; 0 keeps one segment,
  000000.seg), and old segments compact away once a checkpoint covers
  them. serve refuses a DIR that already holds a log; daemon recovers
  from it and resumes appending (an empty or missing DIR starts fresh).
  replay DIR recovers the way a restarted daemon would — newest intact
  checkpoint plus tail segments, printing which checkpoint it started
  from — unless --from-genesis true forces a full-history replay. It
  takes a directory only: a single-file log replays as DIR/000000.seg.

  --profile (serve, daemon, replay, load) adds per-phase timing to the
  always-on counters: where batch time went (plan, WAL append, apply
  with settle and snapshot-publish sub-phases, completion; plus frame
  decode and dispatch in the daemon) as count/total/share/p50/p99/max
  per phase, printed as a block at exit. serve and daemon always print
  a counters: line (batches, flush causes, rejects, WAL batches,
  checkpoints, overloads, protocol errors, ...). --profile interval=N
  (serve, daemon, load) also prints a delta report every N seconds.
  load --profile renders the live daemon's Stats frame as that table:
  its counters always, its phase rows when the daemon runs with
  --profile. Timing is off by default and free when off (see
  PERFORMANCE.md for how to read the table).";

/// Minimal flag parser: `--key value` pairs after positional arguments.
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

fn parse_args() -> Result<Args, Failure> {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            // `--profile` may stand alone (= `true`) or take a value
            // (`true`, `false`, `interval=N`); every other flag requires one.
            let value = if key == "profile" {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".to_string(),
                }
            } else {
                it.next()
                    .ok_or_else(|| usage(format!("--{key} needs a value")))?
            };
            flags.insert(key.to_string(), value);
        } else if a == "-o" {
            let value = it.next().ok_or_else(|| usage("-o needs a value"))?;
            flags.insert("out".to_string(), value);
        } else {
            positional.push(a);
        }
    }
    Ok(Args { positional, flags })
}

impl Args {
    fn flag<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Failure>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| usage(format!("--{key} {v:?}: {e}"))),
        }
    }
}

/// What the shared `--profile` flag asked for: a recorder (disabled unless
/// the flag was given) and an optional interval for periodic deltas.
struct ProfileOpts {
    obs: Recorder,
    interval: Option<Duration>,
}

/// Parse `--profile` / `--profile true|false` / `--profile interval=N`
/// (N whole seconds between periodic delta reports).
fn profile_from_flags(args: &Args) -> Result<ProfileOpts, Failure> {
    let (on, interval) = match args.flags.get("profile").map(String::as_str) {
        None | Some("false") => (false, None),
        Some("true") => (true, None),
        Some(v) => {
            let secs: u64 = v
                .strip_prefix("interval=")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    usage(format!(
                        "--profile {v:?}: expected true, false, or interval=N \
                         (N a positive whole number of seconds)"
                    ))
                })?;
            (true, Some(Duration::from_secs(secs)))
        }
    };
    Ok(ProfileOpts {
        obs: Recorder::enabled_if(on),
        interval,
    })
}

/// A background thread printing `profile [N]:` interval deltas of a
/// recorder every `every` until dropped (or [`ProfilePrinter::finish`]).
struct ProfilePrinter {
    stop: std::sync::Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProfilePrinter {
    /// Start printing interval deltas; `scrape` produces each cumulative
    /// report (a local snapshot for serve/daemon, a wire scrape for load).
    fn spawn(
        every: Duration,
        scrape: impl FnMut() -> Option<pbdmm::primitives::obs::ProfileReport> + Send + 'static,
    ) -> ProfilePrinter {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let mut scrape = scrape;
        let handle = std::thread::spawn(move || {
            let mut prev: Option<pbdmm::primitives::obs::ProfileReport> = None;
            let mut n = 0u64;
            // Sleep in short ticks so the final join is prompt.
            let tick = Duration::from_millis(25);
            let mut slept = Duration::ZERO;
            loop {
                if stop2.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(tick);
                slept += tick;
                if slept < every {
                    continue;
                }
                slept = Duration::ZERO;
                let Some(now) = scrape() else { continue };
                n += 1;
                let d = match &prev {
                    Some(p) => now.delta(p),
                    None => now.clone(),
                };
                print!("profile interval {n}:\n{}", d.render());
                prev = Some(now);
            }
        });
        ProfilePrinter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop and join the printer.
    fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Print the end-of-run cumulative profile block (no-op when disabled).
fn print_profile(obs: &Recorder) {
    if obs.is_enabled() {
        print!("{}", obs.snapshot().render());
    }
}

/// A subcommand: its name, its handler, and the flags it reads. `--threads`
/// is read for every subcommand, before dispatch.
type Command = (
    &'static str,
    fn(&Args) -> Result<(), Failure>,
    &'static [&'static str],
);

const COMMANDS: &[Command] = &[
    ("match", cmd_match, &["seed"]),
    (
        "dynamic",
        cmd_dynamic,
        &["batch", "order", "contender", "seed"],
    ),
    ("cover", cmd_cover, &["seed"]),
    ("gen", cmd_gen, &["n", "m", "rank", "seed", "out"]),
    (
        "serve",
        cmd_serve,
        &[
            "producers",
            "updates",
            "readers",
            "max-batch",
            "structure",
            "wal",
            "wal-sync",
            "checkpoint-every",
            "seed",
            "profile",
        ],
    ),
    ("replay", cmd_replay, &["from-genesis", "profile"]),
    (
        "daemon",
        cmd_daemon,
        &[
            "port",
            "host",
            "max-connections",
            "max-inflight",
            "max-batch",
            "wal",
            "wal-sync",
            "checkpoint-every",
            "seed",
            "profile",
        ],
    ),
    (
        "load",
        cmd_load,
        &[
            "port",
            "addr",
            "connections",
            "updates",
            "queries",
            "shutdown",
            "seed",
            "profile",
        ],
    ),
];

fn run() -> Result<(), Failure> {
    let args = parse_args()?;
    let cmd = args
        .positional
        .first()
        .ok_or_else(|| usage("missing command"))?
        .as_str();
    let &(_, handler, accepted) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == cmd)
        .ok_or_else(|| usage(format!("unknown command {cmd:?}")))?;
    // A flag the subcommand never reads is a typo or a removed option;
    // ignoring it would silently run another configuration.
    let mut given: Vec<&str> = args.flags.keys().map(String::as_str).collect();
    given.sort_unstable();
    if let Some(flag) = given
        .into_iter()
        .find(|f| *f != "threads" && !accepted.contains(f))
    {
        return Err(usage(format!("unknown flag --{flag} for {cmd}")));
    }
    // Size the process-global work-stealing pool before any parallel call;
    // all subcommands (and the structures they build) share that scheduler.
    // Validated strictly: `set_num_threads` would accept anything silently
    // (0 means "restore the default" to it), so catch bad input here.
    if let Some(v) = args.flags.get("threads") {
        let threads: usize = v
            .parse()
            .map_err(|_| usage(format!("--threads {v:?}: expected a positive integer")))?;
        if threads == 0 {
            return Err(usage(
                "--threads 0 is invalid: pass a positive thread count, \
                 or omit the flag to use all cores",
            ));
        }
        pbdmm::primitives::par::set_num_threads(threads);
    }
    handler(&args)
}

fn load(args: &Args) -> Result<Hypergraph, Failure> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| usage("missing graph file argument"))?;
    Ok(io::read_hypergraph_file(&PathBuf::from(path))?)
}

fn cmd_match(args: &Args) -> Result<(), Failure> {
    let g = load(args)?;
    let seed: u64 = args.flag("seed", 42)?;
    let meter = CostMeter::new();
    let mut rng = SplitMix64::new(seed);
    let start = std::time::Instant::now();
    let result = pbdmm::matching::parallel_greedy_match(&g.edges, &mut rng, &meter);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "graph: n={} m={} m'={} rank={}",
        g.n,
        g.m(),
        g.total_cardinality(),
        g.rank()
    );
    println!("matching size: {}", result.matches.len());
    println!("parallel rounds: {}", result.rounds);
    println!(
        "model work: {} ({:.2} per unit cardinality)",
        meter.work(),
        meter.work() as f64 / g.total_cardinality().max(1) as f64
    );
    println!("wall clock: {:.1} ms", secs * 1e3);
    if !g.is_maximal_matching(&result.matched_edges()) {
        let cause = "internal error: produced matching not maximal";
        return Err(Failure::Run(cause.into()));
    }
    Ok(())
}

fn parse_order(s: &str) -> Result<DeletionOrder, Failure> {
    Ok(match s {
        "uniform" => DeletionOrder::Uniform,
        "fifo" => DeletionOrder::Fifo,
        "lifo" => DeletionOrder::Lifo,
        "clustered" => DeletionOrder::VertexClustered,
        "degree" => DeletionOrder::DegreeBiased,
        other => return Err(usage(format!("unknown deletion order {other:?}"))),
    })
}

fn cmd_dynamic(args: &Args) -> Result<(), Failure> {
    let g = load(args)?;
    let batch: usize = args.flag("batch", 256)?;
    let seed: u64 = args.flag("seed", 42)?;
    let order = parse_order(&args.flag("order", "uniform".to_string())?)?;
    let contender = args.flag("contender", "dynamic".to_string())?;
    let w = insert_then_delete(&g, batch, order, seed ^ 0xAD5E_11ED);
    println!("graph: n={} m={} rank={}", g.n, g.m(), g.rank());

    // Every contender goes through the same generic BatchDynamic driver.
    let report = match contender.as_str() {
        "dynamic" => {
            let mut dm = DynamicMatching::with_seed(seed);
            let report = run_workload(&mut dm, &w);
            let stats = dm.stats();
            println!("mean payment phi: {:.3} (bound: 2)", stats.mean_payment());
            println!(
                "epochs: {} created / {} natural / {} stolen / {} bloated; settle rounds: {}",
                stats.epochs_created,
                stats.natural_epochs,
                stats.stolen_epochs,
                stats.bloated_epochs,
                stats.settle_rounds
            );
            report
        }
        "recompute" => run_workload(&mut RecomputeMatching::with_seed(seed), &w),
        "naive" => run_workload(&mut NaiveDynamic::new(), &w),
        "setcover" => {
            let mut dc = DynamicSetCover::with_seed(seed);
            let report = run_workload(&mut dc, &w);
            println!("final cover size: {} (elements drained)", dc.cover_size());
            report
        }
        other => return Err(usage(format!("unknown contender {other:?}"))),
    };
    println!("contender: {contender}");
    println!(
        "stream: {} updates in {} batches of {} ({:?} deletions), empty-to-empty",
        report.updates, report.batches, batch, order
    );
    println!(
        "throughput: {:.0} updates/s ({:.2} us/update)",
        report.updates_per_second(),
        report.seconds / report.updates.max(1) as f64 * 1e6
    );
    println!("model work/update: {:.2}", report.work_per_update());
    Ok(())
}

fn cmd_cover(args: &Args) -> Result<(), Failure> {
    let g = load(args)?;
    let seed: u64 = args.flag("seed", 42)?;
    let (cover, lb) = pbdmm::setcover::static_cover(&g.edges, seed);
    pbdmm::setcover::validate_cover(&g.edges, &cover)
        .map_err(|e| format!("internal error: invalid cover: {e}"))?;
    println!(
        "instance: {} sets, {} elements, max frequency {}",
        g.n,
        g.m(),
        g.rank()
    );
    println!(
        "cover size: {} (matching lower bound on OPT: {lb}, guarantee <= {}x)",
        cover.len(),
        g.rank()
    );
    Ok(())
}

/// One producer's synthetic load against the service: windows of inserts
/// (random rank-2/3 edges over a shared vertex universe) whose tickets are
/// awaited — recording submit→complete latency — followed by deletes of
/// half the committed ids. Publishes the highest acknowledged visibility
/// epoch into `acked` (the staleness reference point for readers) and
/// counts read-your-writes violations against `epoch_now` (the query
/// handle's current epoch; never fires by construction). Returns
/// (updates submitted, latencies in µs, RYW violations).
fn service_producer_load(
    h: &ServiceHandle,
    mut rng: SplitMix64,
    total_updates: usize,
    acked: &AtomicU64,
    epoch_now: &(dyn Fn() -> u64 + Sync),
) -> (usize, Vec<f64>, u64) {
    const WINDOW: usize = 64;
    const UNIVERSE: u64 = 4096;
    let mut latencies = Vec::with_capacity(total_updates);
    let mut done = 0usize;
    let mut ryw_violations = 0u64;
    let mut observe = |c: &pbdmm::service::Completion| {
        acked.fetch_max(c.epoch, Ordering::Relaxed);
        // Read-your-writes: the snapshot carrying this batch is published
        // before the ticket completes, so the handle can never be behind.
        if epoch_now() < c.epoch {
            ryw_violations += 1;
        }
    };
    while done < total_updates {
        let window = WINDOW.min(total_updates - done);
        let mut tickets = Vec::with_capacity(window);
        for _ in 0..window {
            let a = rng.bounded(UNIVERSE) as u32;
            let b = a + 1 + rng.bounded(7) as u32;
            let vs = if rng.bounded(4) == 0 {
                vec![a, b, b + 1 + rng.bounded(5) as u32]
            } else {
                vec![a, b]
            };
            tickets.push((std::time::Instant::now(), h.insert(vs)));
        }
        let mut ids: Vec<EdgeId> = Vec::with_capacity(window);
        for (t0, t) in tickets {
            let c = t.wait().expect("service insert");
            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
            observe(&c);
            ids.push(c.done.id());
        }
        done += window;
        let deletes = (ids.len() / 2).min(total_updates - done);
        let mut tickets = Vec::with_capacity(deletes);
        for &id in ids.iter().take(deletes) {
            tickets.push((std::time::Instant::now(), h.delete(id)));
        }
        for (t0, t) in tickets {
            let c = t.wait().expect("service delete");
            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
            observe(&c);
            debug_assert!(matches!(c.done, Done::Deleted(_) | Done::AlreadyDeleted(_)));
        }
        done += deletes;
    }
    (done, latencies, ryw_violations)
}

/// One reader poll's point query against a served snapshot (a matching's,
/// or a cover's — sets are its vertices): a random vertex's matched edge
/// must be live, matched, and contain it. `Err` means a failed query.
fn probe(snap: &MatchingSnapshot, rng: &mut SplitMix64) -> Result<(), String> {
    let v = rng.bounded(4096) as u32;
    if snap.is_matched(v) {
        let e = snap
            .matched_edge_of(v)
            .ok_or_else(|| format!("vertex {v} matched but has no matched edge"))?;
        if !snap.is_matched_edge(e) || !snap.contains_edge(e) {
            return Err(format!("vertex {v}'s matched edge {e} is not live+matched"));
        }
        let partners = snap
            .partners(v)
            .ok_or_else(|| format!("vertex {v} matched but has no partners"))?;
        if !partners.contains(&v) {
            return Err(format!("matched edge {e} does not contain vertex {v}"));
        }
    } else if snap.partner(v).is_some() {
        return Err(format!("unmatched vertex {v} has a partner"));
    }
    Ok(())
}

/// What the reader tier observed during one `serve` run.
struct ReadReport {
    /// Point queries resolved.
    reads: u64,
    /// Queries that returned inconsistent results (must stay 0), plus any
    /// read-your-writes violations seen by the producers.
    failed: u64,
    /// Wall-clock seconds the readers ran (the writers' window).
    seconds: f64,
    /// Per-poll staleness samples, sorted: how many acknowledged updates
    /// the observed snapshot was behind at poll time.
    staleness: Vec<f64>,
}

/// What one `serve` run produced: (updates, seconds, latencies µs, read
/// report, final structure). Its counts are in the recorder it ran with.
type ServeOutcome = (u64, f64, Vec<f64>, ReadReport, DynamicMatching);

/// Drive a synthetic multi-producer load through the service — with
/// `readers` concurrent snapshot-reader threads resolving point queries
/// against the epoch read path the whole time — and report.
#[allow(clippy::too_many_arguments)]
fn serve_load(
    structure: DynamicMatching,
    producers: usize,
    per_producer: usize,
    readers: usize,
    max_batch: usize,
    wal: Option<WalConfig>,
    seed: u64,
    obs: Recorder,
) -> Result<ServeOutcome, String> {
    let mut builder = ServiceConfig::builder().max_batch(max_batch).obs(obs);
    if let Some(cfg) = wal {
        builder = builder.wal(cfg);
    }
    // --readers 0 really disables the read tier: plain `start`, so the
    // structure never captures snapshots and producers skip the epoch
    // checks — the write path is then measured without any read-side
    // overhead.
    let (svc, query) = if readers > 0 {
        let (svc, q) = builder
            .start_serving(structure)
            .map_err(|e| e.to_string())?;
        (svc, Some(q))
    } else {
        let svc = builder.start(structure).map_err(|e| e.to_string())?;
        (svc, None)
    };
    let start = std::time::Instant::now();
    let all_latencies = Mutex::new(Vec::new());
    // Highest acknowledged visibility epoch across all producers — the
    // reference point snapshot staleness is measured against.
    let acked = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let read_acc = Mutex::new((0u64, 0u64, Vec::<f64>::new())); // reads, failed, staleness
    let total: u64 = std::thread::scope(|scope| {
        for r in 0..readers {
            let q = query.clone().expect("readers > 0 implies start_serving");
            let (acked, stop, read_acc) = (&acked, &stop, &read_acc);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(seed ^ 0xD0_5EED ^ (r as u64) << 17);
                let (mut reads, mut failed) = (0u64, 0u64);
                let mut staleness = Vec::new();
                let mut checked_epoch = u64::MAX;
                while !stop.load(Ordering::Relaxed) {
                    let snap = q.snapshot();
                    // Full consistency check once per newly observed epoch;
                    // cheap point probes on every poll.
                    if snap.epoch() != checked_epoch {
                        checked_epoch = snap.epoch();
                        if let Err(e) = snap.check_consistency() {
                            eprintln!("reader {r}: inconsistent snapshot: {e}");
                            failed += 1;
                        }
                        reads += 1;
                    }
                    for _ in 0..32 {
                        if let Err(e) = probe(&snap, &mut rng) {
                            eprintln!("reader {r}: failed query: {e}");
                            failed += 1;
                        }
                        reads += 1;
                    }
                    staleness
                        .push(acked.load(Ordering::Relaxed).saturating_sub(snap.epoch()) as f64);
                    // Busy-polling readers must not starve the coalescer
                    // (or each other) on hosts with few cores.
                    std::thread::yield_now();
                }
                let mut acc = read_acc.lock().unwrap();
                acc.0 += reads;
                acc.1 += failed;
                acc.2.append(&mut staleness);
            });
        }
        let writer_handles: Vec<_> = (0..producers)
            .map(|p| {
                let h = svc.handle();
                let q = query.clone();
                let (lat, acked) = (&all_latencies, &acked);
                scope.spawn(move || {
                    let rng = SplitMix64::new(seed ^ (p as u64).wrapping_mul(0x9e37));
                    // Read path off: no epoch to consult, the RYW check
                    // trivially holds.
                    let epoch_now: Box<dyn Fn() -> u64 + Sync> = match q {
                        Some(q) => Box::new(move || q.epoch()),
                        None => Box::new(|| u64::MAX),
                    };
                    let (n, mut l, ryw) =
                        service_producer_load(&h, rng, per_producer, acked, epoch_now.as_ref());
                    lat.lock().unwrap().append(&mut l);
                    (n as u64, ryw)
                })
            })
            .collect();
        let mut total = 0u64;
        let mut ryw_total = 0u64;
        for h in writer_handles {
            let (n, ryw) = h.join().unwrap();
            total += n;
            ryw_total += ryw;
        }
        stop.store(true, Ordering::Relaxed);
        read_acc.lock().unwrap().1 += ryw_total;
        total
    });
    let seconds = start.elapsed().as_secs_f64();
    let (s, _) = svc.shutdown();
    let mut latencies = all_latencies.into_inner().unwrap();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (reads, failed, mut staleness) = read_acc.into_inner().unwrap();
    staleness.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let read = ReadReport {
        reads,
        failed,
        seconds,
        staleness,
    };
    Ok((total, seconds, latencies, read, s))
}

/// Resolve the `--wal` / `--wal-sync` / `--checkpoint-every` convention
/// shared by `serve` and `daemon`: durable by default (auto-named temp
/// directory), `--wal none` disables, `--wal DIR` picks the segment
/// directory. The log rotates with a checkpoint (and compaction) after
/// every >= N updates of `--checkpoint-every N` (default
/// [`WalConfig::DEFAULT_CHECKPOINT_EVERY`]; `0` keeps one segment). An
/// existing log is never overwritten — the service refuses rather than
/// destroying a recoverable log.
fn wal_from_flags(
    args: &Args,
    meta: &WalMeta,
    sync: bool,
    tag: &str,
) -> Result<Option<WalConfig>, Failure> {
    let ckpt_every: u64 = args.flag("checkpoint-every", WalConfig::DEFAULT_CHECKPOINT_EVERY)?;
    let path = match args.flags.get("wal").map(String::as_str) {
        Some("none") => {
            if args.flags.contains_key("checkpoint-every") {
                return Err(usage("--checkpoint-every requires a WAL (got --wal none)"));
            }
            return Ok(None);
        }
        Some(p) => PathBuf::from(p),
        None => {
            // Unique auto path: pid alone can recycle across container
            // runs, and an existing WAL is never overwritten (the service
            // refuses rather than destroying a recoverable log).
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0);
            std::env::temp_dir().join(format!("pbdmm_{tag}_{}_{nanos}.waldir", std::process::id()))
        }
    };
    let mut cfg = WalConfig::dir(path, meta.clone());
    cfg.checkpoint_every = (ckpt_every > 0).then_some(ckpt_every);
    cfg.sync = sync;
    Ok(Some(cfg))
}

fn cmd_serve(args: &Args) -> Result<(), Failure> {
    let producers: usize = args.flag("producers", 4)?;
    let per_producer: usize = args.flag("updates", 10_000)?;
    let readers: usize = args.flag("readers", 2)?;
    let max_batch: usize = args.flag("max-batch", DEFAULT_MAX_BATCH)?;
    let seed: u64 = args.flag("seed", 42)?;
    let structure = args.flag("structure", "matching".to_string())?;
    if producers == 0 || per_producer == 0 {
        return Err(usage("--producers and --updates must be positive"));
    }
    // Durable by default: an update is acknowledged only once the batch
    // containing it is on the log (fsync per commit unless --wal-sync
    // false). `--wal none` turns logging off entirely; `--wal DIR` picks
    // the location (default: a directory in the system temp dir).
    let wal_sync: bool = args.flag("wal-sync", true)?;
    let meta = WalMeta {
        structure: structure.clone(),
        seed,
        ids_recycling: false,
    };
    let prof = profile_from_flags(args)?;
    let wal = wal_from_flags(args, &meta, wal_sync, "serve")?;
    let wal_path = wal.as_ref().map(|w| w.path.clone());
    println!(
        "serve: {producers} producers x {per_producer} updates, {readers} readers, \
         max_batch={max_batch} structure={structure} \
         wal={} (fsync {})",
        wal_path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into()),
        if wal.is_some() && wal_sync {
            "on"
        } else {
            "off"
        }
    );

    let printer = prof.interval.map(|every| {
        let obs = prof.obs.clone();
        ProfilePrinter::spawn(every, move || Some(obs.snapshot()))
    });
    // Every field of `meta` came from the command line.
    let (total, seconds, latencies, read, m) = serve_load(
        matching_for(&meta).map_err(usage)?,
        producers,
        per_producer,
        readers,
        max_batch,
        wal,
        seed,
        prof.obs.clone(),
    )?;
    check_invariants(&m).map_err(|e| format!("post-serve invariants: {e}"))?;

    if let Some(p) = printer {
        p.finish();
    }
    println!(
        "coalesced service: {}",
        metrics::throughput_summary(total, seconds)
    );
    let counts = prof.obs.snapshot();
    println!("{}", counts.counters_line());
    println!("ticket latency: {}", metrics::latency_summary(&latencies));
    if readers > 0 {
        println!(
            "reads: {}",
            metrics::reads_summary(
                read.reads,
                read.seconds,
                &format!("{readers} readers"),
                read.failed
            )
        );
        println!(
            "snapshot staleness: {}",
            metrics::staleness_summary(&read.staleness)
        );
        if read.failed > 0 {
            return Err(format!(
                "{} failed snapshot queries during serve (expected 0)",
                read.failed
            )
            .into());
        }
    }
    if let Some(path) = &wal_path {
        println!(
            "wal: {} batches appended to {}",
            counts.counter(Counter::WalBatches),
            path.display()
        );
    }
    print_profile(&prof.obs);
    println!("{}", final_line(&m, &meta));
    Ok(())
}

/// Rebuild a structure from a recorded WAL directory and verify its
/// invariants. It recovers exactly as a restarted daemon would — newest
/// intact checkpoint plus tail segments, or the full history with
/// `--from-genesis true` — and ends with the `final:` line serve and daemon
/// print, so CI can diff recovery against the state that was served.
fn cmd_replay(args: &Args) -> Result<(), Failure> {
    let path = PathBuf::from(
        args.positional
            .get(1)
            .ok_or_else(|| usage("missing WAL directory argument"))?,
    );
    let from_genesis: bool = args.flag("from-genesis", false)?;
    let prof = profile_from_flags(args)?;
    if path.is_file() {
        return Err(format!(
            "{} is a file, not a WAL directory; a single-file log replays as \
             DIR/000000.seg (the bytes are the same)",
            path.display()
        )
        .into());
    }
    let meta = wal_dir_meta(&path)?;
    println!(
        "wal: {}, structure={} seed={}",
        path.display(),
        meta.structure,
        meta.seed
    );
    let m = replay_log(&path, from_genesis, &prof.obs)?;
    check_invariants(&m).map_err(|e| format!("replayed invariants: {e}"))?;
    println!("{}", final_line(&m, &meta));
    print_profile(&prof.obs);
    println!("invariants: ok");
    Ok(())
}

/// Recover a structure from the WAL directory at `path`, built from its
/// header with the profile recorder attached, and print what recovery did.
fn replay_log(path: &Path, from_genesis: bool, obs: &Recorder) -> Result<DynamicMatching, String> {
    let make = |meta: &WalMeta| {
        let mut m = matching_for(meta)?;
        m.set_obs(obs.clone());
        Ok(m)
    };
    let start = std::time::Instant::now();
    // The whole replay is one `batch`/`apply` span; the matching tier
    // records per-batch `settle`/`snapshot_publish` sub-spans inside it.
    let rec = {
        let _batch = obs.span(Phase::Batch);
        let _apply = obs.span(Phase::Apply);
        recover_dir_with(path, make, from_genesis)?
    };
    let info = rec.info();
    obs.add(Counter::Batches, info.report.batches);
    obs.add(Counter::Updates, info.report.updates);
    print_recovery(&info, start.elapsed());
    Ok(rec.structure)
}

/// The byte-comparable `final:` line serve, replay and daemon print. For a
/// set cover, whose elements are the matching's edges, it adds the size of
/// the cover the matching stands for.
fn final_line(m: &DynamicMatching, meta: &WalMeta) -> String {
    let line = format!(
        "final: epoch={} edges={} matching={}",
        m.epoch(),
        m.num_edges(),
        m.matching_size()
    );
    match meta.structure.as_str() {
        "setcover" => format!("{line} cover={}", pbdmm::setcover::cover_size(m)),
        _ => line,
    }
}

/// Print what recovery actually did: which checkpoint it started from
/// (genesis when no checkpoint was usable or `--from-genesis` forced it)
/// and how much log it replayed past that point.
fn print_recovery(info: &RecoveryInfo, elapsed: Duration) {
    match info.checkpoint {
        Some(seq) => println!(
            "recovery: from checkpoint at batch {seq} ({} of {} batches already baked in)",
            seq, info.batches
        ),
        None => println!(
            "recovery: from genesis ({} batches, no checkpoint used)",
            info.batches
        ),
    }
    println!(
        "replayed {} updates in {} applies across {} segments in {:.1} ms{}",
        info.report.updates,
        info.report.applies,
        info.segments_replayed,
        elapsed.as_secs_f64() * 1e3,
        if info.truncated {
            " (torn final append dropped)"
        } else {
            ""
        }
    );
}

fn cmd_daemon(args: &Args) -> Result<(), Failure> {
    use std::io::Write as _;
    let host = args.flag("host", "127.0.0.1".to_string())?;
    let port: u16 = match args.flags.get("port") {
        None => 0,
        Some(v) => v.parse().map_err(|_| {
            usage(format!(
                "--port {v:?}: expected a port number (0 = ephemeral)"
            ))
        })?,
    };
    let max_connections: usize = args.flag("max-connections", 64)?;
    let max_inflight: usize = args.flag("max-inflight", 4096)?;
    let max_batch: usize = args.flag("max-batch", DEFAULT_MAX_BATCH)?;
    let seed: u64 = args.flag("seed", 42)?;
    if max_connections == 0 || max_inflight == 0 {
        return Err(usage(
            "--max-connections and --max-inflight must be positive",
        ));
    }
    let wal_sync: bool = args.flag("wal-sync", true)?;
    let meta = WalMeta {
        structure: "matching".into(),
        seed,
        ids_recycling: false,
    };
    let prof = profile_from_flags(args)?;
    let wal = wal_from_flags(args, &meta, wal_sync, "daemon")?;
    let wal_path = wal.as_ref().map(|w| w.path.clone());
    let cfg = DaemonConfig {
        addr: format!("{host}:{port}"),
        max_connections,
        max_inflight,
        max_batch,
        wal,
        obs: prof.obs.clone(),
        ..Default::default()
    };
    // A WAL directory is a recoverable log: resume from it (an empty or
    // absent directory is just a fresh start), checking that its metadata
    // matches seed and id mode, so a restarted daemon continues the exact
    // run it crashed out of.
    let (daemon, recovered) = if cfg.wal.is_some() {
        let (daemon, info) = Daemon::recover_and_start(cfg)?;
        (daemon, Some(info))
    } else {
        (Daemon::start(DynamicMatching::with_seed(seed), cfg)?, None)
    };
    // Recovery is reported before the listening line: parsers scan for
    // `daemon: listening on`, and anything printed before it is preamble.
    // An empty directory recovers zero batches — that is a fresh start,
    // not worth a recovery line.
    if let Some(info) = recovered.filter(|i| i.batches > 0) {
        match info.checkpoint {
            Some(seq) => println!(
                "daemon: recovered {} batches (checkpoint at batch {seq}, {} tail segments)",
                info.batches, info.segments_replayed
            ),
            None => println!("daemon: recovered {} batches from genesis", info.batches),
        }
    }
    // The one line scripts parse: the bound address, ephemeral port
    // resolved. Flushed explicitly — under a pipe stdout is block-buffered
    // and a waiting parent would otherwise never see it.
    println!("daemon: listening on {}", daemon.local_addr());
    println!(
        "daemon: max_connections={max_connections} max_inflight={max_inflight} \
         max_batch={max_batch} seed={seed} \
         wal={} (fsync {})",
        wal_path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into()),
        if wal_path.is_some() && wal_sync {
            "on"
        } else {
            "off"
        }
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    // Serve until a client's Shutdown frame triggers the drain.
    let printer = prof.interval.map(|every| {
        let obs = prof.obs.clone();
        ProfilePrinter::spawn(every, move || Some(obs.snapshot()))
    });
    let report = daemon.run();
    if let Some(p) = printer {
        p.finish();
    }
    check_invariants(&report.structure).map_err(|e| format!("post-daemon invariants: {e}"))?;
    println!(
        "daemon: drained after {} connections ({} overloaded, {} protocol errors)",
        report.wire.total_connections, report.wire.overloaded, report.wire.protocol_errors
    );
    println!("{}", prof.obs.snapshot().counters_line());
    print_profile(&prof.obs);
    if let Some(path) = &wal_path {
        println!(
            "wal: {} batches appended to {}",
            report.service.wal_batches,
            path.display()
        );
    }
    println!("{}", final_line(&report.structure, &meta));
    Ok(())
}

fn cmd_load(args: &Args) -> Result<(), Failure> {
    let addr: std::net::SocketAddr = match (args.flags.get("addr"), args.flags.get("port")) {
        (Some(a), None) => a
            .parse()
            .map_err(|_| usage(format!("--addr {a:?}: expected HOST:PORT")))?,
        (None, Some(p)) => {
            let port: u16 = p.parse().map_err(|_| {
                usage(format!(
                    "--port {p:?}: expected the daemon's port number (1-65535)"
                ))
            })?;
            if port == 0 {
                return Err(usage(
                    "--port 0 is invalid: pass the port the daemon printed \
                     on its 'daemon: listening on' line",
                ));
            }
            std::net::SocketAddr::from(([127, 0, 0, 1], port))
        }
        (Some(_), Some(_)) => return Err(usage("pass either --addr or --port, not both")),
        (None, None) => {
            return Err(usage(
                "load needs the daemon's address: --addr HOST:PORT \
                 or --port P (loopback)",
            ))
        }
    };
    let connections: usize = args.flag("connections", 4)?;
    let per_connection: usize = args.flag("updates", 2_500)?;
    let queries_per_window: usize = args.flag("queries", 8)?;
    let seed: u64 = args.flag("seed", 42)?;
    let shutdown: bool = args.flag("shutdown", false)?;
    let prof = profile_from_flags(args)?;
    if connections == 0 || per_connection == 0 {
        return Err(usage("--connections and --updates must be positive"));
    }
    let cfg = LoadConfig {
        connections,
        per_connection,
        queries_per_window,
        seed,
    };
    println!(
        "load: {connections} connections x {per_connection} updates against {addr} \
         (queries/window {queries_per_window}, seed {seed})"
    );
    // With --profile interval=N, scrape the daemon's Stats frame over a
    // fresh connection each interval and print the deltas of its report.
    let printer = prof.interval.map(|every| {
        ProfilePrinter::spawn(every, move || {
            Some(Client::connect(addr).ok()?.stats().ok()?.report)
        })
    });
    let report = run_load(addr, &cfg)?;
    if let Some(p) = printer {
        p.finish();
    }
    println!(
        "over-the-wire service: {}",
        metrics::throughput_summary(report.updates, report.seconds)
    );
    println!(
        "ticket latency: {}",
        metrics::latency_summary(&report.latencies_us)
    );
    println!(
        "reads: {}",
        metrics::reads_summary(
            report.reads,
            report.seconds,
            &format!("{connections} connections"),
            report.failed
        )
    );
    println!(
        "snapshot staleness: {}",
        metrics::staleness_summary(&report.staleness)
    );
    println!(
        "admission: {} overloaded (retried), {} protocol errors",
        report.overloaded, report.protocol_errors
    );
    if prof.obs.is_enabled() {
        // Render the daemon's live counts (and its phase spans, if it
        // times them) from one Stats scrape.
        let mut c = Client::connect(addr).map_err(|e| format!("stats connection: {e}"))?;
        let stats = c.stats().map_err(|e| format!("stats request: {e}"))?;
        print!("{}", stats.report.render());
    }
    if shutdown {
        let mut c = Client::connect(addr).map_err(|e| format!("shutdown connection: {e}"))?;
        let stats = c.shutdown().map_err(|e| format!("shutdown request: {e}"))?;
        let connections = stats.report.counter(Counter::Connections);
        println!(
            "daemon stats at shutdown: epoch={} edges={} matching={} connections={connections}",
            stats.epoch, stats.num_edges, stats.matching_size
        );
    }
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} connections failed with protocol/transport errors (expected 0)",
            report.protocol_errors
        )
        .into());
    }
    if report.failed > 0 {
        return Err(format!("{} failed queries during load (expected 0)", report.failed).into());
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), Failure> {
    let family = args
        .positional
        .get(1)
        .ok_or_else(|| usage("missing graph family"))?
        .as_str();
    let n: usize = args.flag("n", 1000)?;
    let m: usize = args.flag("m", 4 * n)?;
    let rank: usize = args.flag("rank", 3)?;
    let seed: u64 = args.flag("seed", 1)?;
    let out = args
        .flags
        .get("out")
        .ok_or_else(|| usage("missing -o <file>"))?;
    let g = match family {
        "er" => gen::erdos_renyi(n, m, seed),
        "hyper" => gen::random_hypergraph(n, m, rank, seed),
        "powerlaw" => gen::preferential_attachment(n, rank.max(2), seed),
        "star" => gen::star(n),
        "bipartite" => gen::bipartite(n / 2, n - n / 2, m, seed),
        other => return Err(usage(format!("unknown family {other:?}"))),
    };
    io::write_hypergraph_file(&PathBuf::from(out), &g)?;
    println!(
        "wrote {} ({} vertices, {} edges, rank {})",
        out,
        g.n,
        g.m(),
        g.rank()
    );
    Ok(())
}
