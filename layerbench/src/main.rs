//! Layered benchmark for pbdmm.
//!
//! ```text
//! layerbench --workload <apply_powerlaw|serve_rw|wire_bulk> --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload and prints, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! workload runs twice for `S/2` seconds each, untraced and then traced,
//! and the metrics are the per-layer ones (see `DESIGN.md`). Any
//! correctness violation or error ends the run with exit code 1 and no
//! JSON line.

mod apply_powerlaw;
mod procfs;
mod serve_rw;
mod stats;
mod trace;
mod wire_bulk;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Barrier;

use pbdmm_matching::DynamicMatching;
use trace::Tracer;

/// The structure's private coin seed. Fixed: only the workload seed varies
/// between runs, so a seed names one input and one algorithm trajectory.
pub const COIN_SEED: u64 = 0x5eed;

/// A fresh structure: the fixed coin seed, deleted ids recycled. With ids
/// that are never reused the tables grow with every insert, so memory
/// would follow the number of updates a run gets through and a faster
/// program would read as a larger one.
pub fn new_structure() -> DynamicMatching {
    let mut m = DynamicMatching::with_seed(COIN_SEED);
    m.set_recycle_ids(true);
    m
}

/// Workload seed when `--seed` is absent. `DESIGN.md` records the holdout
/// seed kept for confirming later claims.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("matching.settle_ns_per_update", "ns"),
    ("matching.snapshot_publish_ns_per_update", "ns"),
    ("matching.work_per_update", "count"),
    ("matching.settle_rounds_per_batch", "count"),
    ("matching.payment_per_delete", "count"),
    ("matching.edge_slots_per_live_edge", "ratio"),
    ("primitives.pool_cpu_us_per_update", "us"),
    ("primitives.pool_steals_per_job", "count"),
    ("service.batch_len_mean", "count"),
    ("service.plan_ns_per_update", "ns"),
    ("service.wal_append_ns_per_update", "ns"),
    ("service.complete_ns_per_update", "ns"),
    ("service.coalescer_cpu_us_per_update", "us"),
    ("service.coalescer_runq_wait_frac", "ratio"),
    ("service.submit_ns_p50", "ns"),
    ("service.writer_wakeups_per_update", "count"),
    ("service.write_syscalls_per_batch", "count"),
    ("service.bytes_written_per_update", "B"),
    ("service.checkpoints", "count"),
    ("service.ckpt_cpu_ms", "ms"),
    ("service.ack_gap_max_ms", "ms"),
    ("service.recover_ms", "ms"),
    ("service.read_staleness_p99", "updates"),
    ("net.decode_ns_per_frame", "ns"),
    ("net.dispatch_ns_per_frame", "ns"),
    ("net.conn_cpu_us_per_request", "us"),
    ("net.client_send_us_p50", "us"),
    ("net.client_wait_us_p50", "us"),
    ("net.conn_wakeups_per_request", "count"),
    ("net.idle_frac", "ratio"),
    ("net.overloaded", "count"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.client_cpu_frac", "ratio"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.update_samples", "count"),
    ("bench.read_p50_us", "us"),
    ("bench.read_p99_us", "us"),
    ("bench.read_samples", "count"),
    ("bench.wire_frames", "count"),
    ("bench.failed_frac", "ratio"),
];

/// Per-layer metrics a traced run takes from its traced half: they are the
/// program's phase-recorder totals. Every other per-layer metric comes
/// from the untraced half, measured exactly as in an end-to-end run, so
/// tracing cannot distort it.
const FROM_TRACED: &[&str] = &[
    "matching.settle_ns_per_update",
    "matching.snapshot_publish_ns_per_update",
    "service.plan_ns_per_update",
    "service.wal_append_ns_per_update",
    "service.complete_ns_per_update",
    "net.decode_ns_per_frame",
    "net.dispatch_ns_per_frame",
];

/// Named metric values, in output order.
pub type Values = Vec<(&'static str, f64)>;

/// Run a writer and a reader on threads named `bench-writer` and
/// `bench-reader` for one timed phase. `/proc` and `edge()` are sampled
/// just before both start and just after both finish, while both threads
/// are still alive, so their CPU and context switches are counted.
pub fn timed_pair<W: Send, R: Send, E>(
    edge: impl Fn() -> E,
    writer: impl FnOnce() -> Result<W, String> + Send,
    reader: impl FnOnce() -> Result<R, String> + Send,
) -> Result<(W, R, procfs::Delta, E, E), String> {
    let sync = Barrier::new(3);
    std::thread::scope(|s| {
        let writer = std::thread::Builder::new()
            .name("bench-writer".into())
            .spawn_scoped(s, || {
                sync.wait();
                let out = writer();
                sync.wait();
                sync.wait();
                out
            })
            .map_err(|e| format!("spawn writer: {e}"))?;
        let reader = std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn_scoped(s, || {
                sync.wait();
                let out = reader();
                sync.wait();
                sync.wait();
                out
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        let edge0 = edge();
        let before = procfs::sample();
        sync.wait();
        sync.wait();
        let after = procfs::sample();
        let edge1 = edge();
        sync.wait();
        let w = writer.join().map_err(|_| "writer panicked")?;
        let r = reader.join().map_err(|_| "reader panicked")?;
        Ok((w?, r?, before?.until(&after?), edge0, edge1))
    })
}

/// Held by tests that need the CPUs to themselves: a test that checks
/// measured CPU time must not share the cores with one that saturates them.
#[cfg(test)]
pub static CPU_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Scratch directory inside the working directory (WAL, spans).
pub const OUT_DIR: &str = ".bench_out";

/// How one pass of a workload is run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Record spans and switch on the program's phase recorder.
    pub traced: bool,
    /// Set-ups to time; the first one is measured.
    pub setups: usize,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Operations attempted in the timed phase (updates + reads).
    pub attempted: u64,
    /// Operations refused or errored.
    pub failed: u64,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// End-to-end values other than `setup_s`.
    pub e2e: Values,
    /// Per-layer values (traced passes).
    pub layer: Values,
    /// Median update latency, for the tracing-overhead comparison.
    pub update_p50_us: f64,
    /// The pass's span recorders.
    pub tracers: Vec<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
    }
    Ok(args)
}

fn run_pass(workload: &str, cfg: &RunCfg) -> Result<Pass, String> {
    match workload {
        "apply_powerlaw" => apply_powerlaw::run(cfg),
        "serve_rw" => serve_rw::run(cfg),
        "wire_bulk" => wire_bulk::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (apply_powerlaw, serve_rw, wire_bulk)"
        )),
    }
}

/// Run the workload; returns operations attempted and failed, and the
/// metric values.
fn run(args: &Args) -> Result<(u64, u64, Values), String> {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setups: SETUPS,
    };
    if !args.trace {
        let pass = run_pass(&args.workload, &cfg)?;
        let mut values = vec![("setup_s", stats::median(&pass.setup_s))];
        values.extend(pass.e2e);
        return Ok((pass.attempted, pass.failed, values));
    }
    // Traced run: the same workload untraced, then traced, for half the
    // time each.
    let half = RunCfg {
        seconds: args.seconds / 2.0,
        setups: 1,
        ..cfg
    };
    let plain = run_pass(&args.workload, &half)?;
    let traced = run_pass(
        &args.workload,
        &RunCfg {
            traced: true,
            ..half.clone()
        },
    )?;
    let mut values: Values = plain
        .layer
        .iter()
        .filter(|(name, _)| !FROM_TRACED.contains(name))
        .chain(
            traced
                .layer
                .iter()
                .filter(|(name, _)| FROM_TRACED.contains(name)),
        )
        .copied()
        .collect();
    values.push((
        "bench.tracing_overhead_pct",
        100.0 * (stats::per(traced.update_p50_us, plain.update_p50_us) - 1.0),
    ));
    let tracers: Vec<&Tracer> = traced.tracers.iter().collect();
    let dropped: u64 = tracers.iter().map(|t| t.dropped()).sum();
    let path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload));
    trace::write_spans(&path, &tracers)?;
    eprintln!(
        "layerbench: {} spans written to {} ({dropped} dropped)",
        tracers.iter().map(|t| t.spans().len()).sum::<usize>(),
        path.display()
    );
    Ok((
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        values,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (attempted, failed, values) = match run(&args) {
        Ok((0, _, _)) => {
            eprintln!("layerbench: {}: no operation was attempted", args.workload);
            return ExitCode::from(1);
        }
        Ok(r) => r,
        Err(e) => {
            eprintln!("layerbench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::from(1);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted,
        failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`, and
    /// nothing else is.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for name in FROM_TRACED {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
