//! Integration tests of the per-phase profiler: recorder arithmetic
//! against a real service run, the report a `Stats` scrape carries end to
//! end, a hostile-bytes pass over that frame, and the `--profile` CLI
//! surface.

use std::process::{Command, Output};

use pbdmm::graph::update::Update;
use pbdmm::net::daemon::{Daemon, DaemonConfig};
use pbdmm::net::{proto, Client};
use pbdmm::primitives::obs::{Counter, Phase, Recorder};
use pbdmm::service::ServiceConfig;
use pbdmm::DynamicMatching;

fn pbdmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(args)
        .output()
        .expect("failed to run pbdmm binary")
}

#[test]
fn disabled_recorder_records_nothing() {
    let obs = Recorder::disabled();
    assert!(!obs.is_enabled());
    {
        let _span = obs.span(Phase::Batch);
        let _inner = obs.span(Phase::Apply);
        obs.add(Counter::Batches, 3);
        obs.record_max(Counter::BatchMax, 99);
        obs.record_ns(Phase::Settle, 1_000_000);
    }
    // Timing off: no phase span records, the counters still count.
    let report = obs.snapshot();
    assert!(
        report.phases.iter().all(|p| p.count == 0),
        "a timing-off recorder must record no span"
    );
    assert_eq!(report.phase(Phase::Batch).count, 0);
    assert_eq!(report.counter(Counter::Batches), 3);
    assert_eq!(report.counter(Counter::BatchMax), 99);
}

/// The acceptance-criteria arithmetic, against a real coalescing service
/// run: the batch phase covers the pipeline's busy time, its immediate
/// sub-phases (plan / WAL append / apply / complete) partition it to
/// within 10%, and the settle sub-phase nests inside apply.
#[test]
fn phase_totals_partition_busy_time() {
    let obs = Recorder::enabled();
    let wall = std::time::Instant::now();
    let svc = ServiceConfig::builder()
        .max_batch(64)
        .obs(obs.clone())
        .start(DynamicMatching::with_seed(7))
        .expect("in-memory service");
    let h = svc.handle();
    let mut ids = Vec::new();
    for i in 0..400u32 {
        let a = i % 97;
        let t = h.insert(vec![a, a + 1 + (i % 5)]);
        ids.push(t.wait().expect("insert").done.id());
    }
    for id in ids {
        h.delete(id).wait().expect("delete");
    }
    drop(h);
    let (_m, stats) = svc.shutdown();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let report = obs.snapshot();

    assert_eq!(report.counter(Counter::Batches), stats.batches);
    assert_eq!(report.counter(Counter::Updates), 800);
    assert_eq!(
        report.counter(Counter::BatchMax),
        stats.max_batch_len as u64
    );

    let batch = report.phase(Phase::Batch).total_ns;
    assert!(batch > 0, "batch phase never recorded");
    assert!(
        batch <= wall_ns,
        "busy time {batch}ns exceeds wall {wall_ns}ns"
    );

    let children = report.phase(Phase::Plan).total_ns
        + report.phase(Phase::WalAppend).total_ns
        + report.phase(Phase::Apply).total_ns
        + report.phase(Phase::Complete).total_ns;
    assert!(
        children * 10 >= batch * 9 && children <= batch + batch / 10,
        "sub-phases ({children}ns) must partition the batch phase ({batch}ns) within 10%"
    );

    let apply = report.phase(Phase::Apply).total_ns;
    let nested =
        report.phase(Phase::Settle).total_ns + report.phase(Phase::SnapshotPublish).total_ns;
    assert!(
        nested <= apply + apply / 10,
        "settle+publish ({nested}ns) nests inside apply ({apply}ns)"
    );
    assert_eq!(report.phase(Phase::Settle).count, stats.batches);
}

/// End-to-end scrape of the report in the `Stats` frame: a daemon started
/// with timing on serves per-phase counts over the wire, a second scrape
/// is monotonically larger, and a daemon with the default (timing-off)
/// recorder serves no phase spans but its counts.
#[test]
fn wire_profile_scrape_round_trips() {
    let obs = Recorder::enabled();
    let daemon = Daemon::start(
        DynamicMatching::with_seed(5),
        DaemonConfig {
            obs: obs.clone(),
            ..Default::default()
        },
    )
    .expect("loopback daemon");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let serving = std::thread::spawn(move || daemon.run());

    let mut c = Client::connect(addr).expect("connect");
    for i in 0..8u32 {
        c.submit_updates(vec![Update::Insert(vec![2 * i, 2 * i + 1])])
            .expect("insert over the wire");
    }
    let first = c.stats().expect("stats scrape").report;
    assert!(!first.is_empty());
    assert!(first.counter(Counter::Batches) > 0);
    assert_eq!(first.counter(Counter::Updates), 8);
    assert!(first.phase(Phase::NetDecode).count > 0);
    assert!(first.phase(Phase::Batch).total_ns > 0);
    assert!(first.counter(Counter::FramesDecoded) > 0);

    c.submit_updates(vec![Update::Insert(vec![100, 101])])
        .expect("insert over the wire");
    let second = c.stats().expect("second scrape").report;
    assert!(second.counter(Counter::Updates) == 9);
    assert!(second.phase(Phase::NetDecode).count > first.phase(Phase::NetDecode).count);
    // The scrape pair is exactly what `--profile interval=N` diffs.
    let delta = second.delta(&first);
    assert_eq!(delta.counter(Counter::Updates), 1);

    drop(c);
    stop.stop();
    serving.join().expect("daemon thread");

    // A daemon without timing answers the same request with no phase
    // spans but the run's counts.
    let daemon = Daemon::start(DynamicMatching::with_seed(5), DaemonConfig::default())
        .expect("loopback daemon");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let serving = std::thread::spawn(move || daemon.run());
    let mut c = Client::connect(addr).expect("connect");
    c.submit_updates(vec![Update::Insert(vec![0, 1])])
        .expect("insert over the wire");
    let report = c.stats().expect("stats scrape").report;
    assert!(
        report.phases.iter().all(|p| p.count == 0),
        "a timing-off daemon must report no span"
    );
    assert_eq!(report.counter(Counter::Updates), 1);
    assert_eq!(report.counter(Counter::Batches), 1);
    drop(c);
    stop.stop();
    serving.join().expect("daemon thread");
}

/// Hostile bytes on the scrape opcode: a truncated `Stats` request body
/// and a torn frame must not kill the daemon — it keeps serving
/// well-formed clients afterwards.
#[test]
fn malformed_profile_frames_do_not_kill_the_daemon() {
    use std::io::Write;

    let daemon = Daemon::start(DynamicMatching::with_seed(3), DaemonConfig::default())
        .expect("loopback daemon");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let serving = std::thread::spawn(move || daemon.run());

    // Truncated body: a valid frame whose body is the opcode alone (the
    // req_id is missing). The daemon must treat it as a protocol error on
    // that connection, not panic.
    let good = proto::Request::Stats { req_id: 7 }.encode();
    let mut s = std::net::TcpStream::connect(addr).expect("raw connect");
    proto::write_frame(&mut s, &good[..1]).expect("write truncated frame");
    s.shutdown(std::net::Shutdown::Write).ok();

    // Torn frame: half a header, then the connection dies.
    let mut s = std::net::TcpStream::connect(addr).expect("raw connect");
    s.write_all(&proto::MAGIC[..2]).expect("write torn header");
    drop(s);

    // The daemon survived both: a fresh well-formed client still works.
    let mut c = Client::connect(addr).expect("connect after garbage");
    c.submit_updates(vec![Update::Insert(vec![1, 2])])
        .expect("insert after garbage");
    let report = c.stats().expect("stats after garbage").report;
    assert!(report.phases.iter().all(|p| p.count == 0));
    drop(c);
    stop.stop();
    let report = serving.join().expect("daemon thread");
    assert!(
        report.wire.protocol_errors > 0,
        "truncated body not counted"
    );
}

/// The CLI surface: `serve --profile` prints a parseable per-phase block,
/// plain `serve` prints none (opt-in), and a bad `--profile` value is
/// rejected with a usable message.
#[test]
fn serve_profile_output_parses() {
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "300",
        "--readers",
        "1",
        "--wal",
        "none",
        "--profile",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let head = stdout
        .lines()
        .find(|l| l.starts_with("profile: "))
        .unwrap_or_else(|| panic!("no profile: line in {stdout}"));
    // Grep-stable first line: `profile: batches=N updates=M wall=... busy=...`.
    let field = |name: &str| {
        head.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("no {name}= in {head}"))
            .to_string()
    };
    let batches: u64 = field("batches").parse().expect("batches count");
    assert!(batches > 0, "{head}");
    assert_eq!(field("updates"), "600", "{head}");
    for phase in ["plan", "apply", "snapshot_publish", "complete"] {
        assert!(
            stdout.lines().any(|l| l.trim().starts_with(phase)),
            "phase {phase} missing from table:\n{stdout}"
        );
    }
    assert!(stdout.contains("  counters: "), "{stdout}");

    // Opt-in: without the flag there is no profile block.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "50",
        "--readers",
        "0",
        "--wal",
        "none",
    ]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("profile:"));

    // Bad value: rejected, not silently ignored.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "50",
        "--profile",
        "sometimes",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("interval=N"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `replay --profile` reports the recovery's phase spans and counters.
#[test]
fn replay_profile_reports_counters() {
    let dir = std::env::temp_dir().join("pbdmm_profile_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("replay_profile.waldir");
    std::fs::remove_dir_all(&wal).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "200",
        "--readers",
        "0",
        "--wal",
        wal.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pbdmm(&["replay", wal.to_str().unwrap(), "--profile"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("invariants: ok"), "{stdout}");
    let head = stdout
        .lines()
        .find(|l| l.starts_with("profile: "))
        .unwrap_or_else(|| panic!("no profile: line in {stdout}"));
    assert!(head.contains("updates=200"), "{head}");
    std::fs::remove_dir_all(&wal).ok();
}
