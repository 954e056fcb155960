//! End-to-end tests of the `pbdmm` command-line binary: generate → match →
//! dynamic → cover pipelines through real files and process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pbdmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(args)
        .output()
        .expect("failed to run pbdmm binary")
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pbdmm_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_then_match_pipeline() {
    let path = tmpfile("er.hgr");
    let out = pbdmm(&[
        "gen",
        "er",
        "--n",
        "200",
        "--m",
        "800",
        "--seed",
        "3",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["match", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matching size:"), "{stdout}");
    assert!(stdout.contains("m=800"), "{stdout}");
}

#[test]
fn dynamic_replay_reports_stats() {
    let path = tmpfile("dyn.hgr");
    pbdmm(&[
        "gen",
        "er",
        "--n",
        "100",
        "--m",
        "400",
        "--seed",
        "5",
        "-o",
        path.to_str().unwrap(),
    ]);
    for order in ["uniform", "fifo", "lifo", "clustered", "degree"] {
        let out = pbdmm(&[
            "dynamic",
            path.to_str().unwrap(),
            "--batch",
            "64",
            "--order",
            order,
        ]);
        assert!(out.status.success(), "order {order}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("mean payment phi"), "{stdout}");
        assert!(stdout.contains("800 updates"), "{stdout}");
    }
}

#[test]
fn cover_on_hypergraph() {
    let path = tmpfile("cover.hgr");
    pbdmm(&[
        "gen",
        "hyper",
        "--n",
        "50",
        "--m",
        "200",
        "--rank",
        "3",
        "--seed",
        "7",
        "-o",
        path.to_str().unwrap(),
    ]);
    let out = pbdmm(&["cover", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cover size:"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_message() {
    let out = pbdmm(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = pbdmm(&["match", "/nonexistent/file.hgr"]);
    assert!(!out.status.success());

    let out = pbdmm(&["dynamic"]);
    assert!(!out.status.success());

    let out = pbdmm(&["frobnicate", "x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn malformed_graph_file_is_rejected() {
    let path = tmpfile("bad.hgr");
    std::fs::write(&path, "0 1\nnot numbers\n").unwrap();
    let out = pbdmm(&["match", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn threads_flag_is_validated() {
    let path = tmpfile("threads.hgr");
    pbdmm(&[
        "gen",
        "er",
        "--n",
        "30",
        "--m",
        "60",
        "--seed",
        "1",
        "-o",
        path.to_str().unwrap(),
    ]);
    // Zero is rejected with a clear message, not passed through silently.
    let out = pbdmm(&["match", path.to_str().unwrap(), "--threads", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--threads 0 is invalid"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Non-numeric likewise.
    let out = pbdmm(&["match", path.to_str().unwrap(), "--threads", "two"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("positive integer"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A positive count works.
    let out = pbdmm(&["match", path.to_str().unwrap(), "--threads", "2"]);
    assert!(out.status.success());
}

#[test]
fn serve_records_wal_and_replay_reproduces_final_state() {
    let wal = tmpfile("serve.waldir");
    // The service refuses to overwrite an existing WAL; start clean.
    std::fs::remove_dir_all(&wal).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "600",
        "--max-batch",
        "128",
        "--seed",
        "9",
        "--wal",
        wal.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("coalesced service:"), "{stdout}");
    assert!(stdout.contains("ticket latency:"), "{stdout}");
    let served_final = stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("serve prints a final state line")
        .to_string();
    // The final line carries the epoch (= updates applied), so the diff
    // below also pins serve and replay to the same apply-history position.
    assert!(served_final.contains("epoch=1200"), "{served_final}");

    // Replay must reproduce the exact final state and pass verification.
    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replayed_final = stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("replay prints a final state line")
        .to_string();
    assert_eq!(served_final, replayed_final, "{stdout}");
    assert!(stdout.contains("invariants: ok"), "{stdout}");
    std::fs::remove_dir_all(&wal).ok();
}

/// The `final:` line of a successful run's stdout.
fn final_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {stdout}"))
        .to_string()
}

#[test]
fn serve_supports_setcover_and_replay_recovers_it() {
    let wal = tmpfile("setcover.waldir");
    std::fs::remove_dir_all(&wal).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "200",
        "--structure",
        "setcover",
        "--seed",
        "3",
        "--wal",
        wal.to_str().unwrap(),
        "--checkpoint-every",
        "50",
    ]);
    let served_final = final_line(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(served_final.contains("cover="), "{stdout}");
    // A served cover checkpoints like a matching.
    let names: Vec<String> = std::fs::read_dir(&wal)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".ckpt")),
        "no checkpoint written in {names:?}"
    );

    // The set-cover log recovers from its newest checkpoint through the CLI.
    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert_eq!(final_line(&out), served_final);
    let replay_out = String::from_utf8_lossy(&out.stdout);
    assert!(
        replay_out.contains("recovery: from checkpoint at batch"),
        "{replay_out}"
    );
    assert!(replay_out.contains("invariants: ok"));
    std::fs::remove_dir_all(&wal).ok();
}

#[test]
fn serve_max_batch_one_is_the_singleton_baseline() {
    // The group-commit comparison's other side: every update is planned,
    // logged and applied as a batch of its own, through the same WAL.
    let wal = tmpfile("singleton.waldir");
    std::fs::remove_dir_all(&wal).ok();
    let out = pbdmm(&[
        "serve",
        "--max-batch",
        "1",
        "--producers",
        "2",
        "--updates",
        "200",
        "--seed",
        "6",
        "--wal",
        wal.to_str().unwrap(),
    ]);
    let served_final = final_line(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("counters: batches=400 updates=400 batch_max=1 "),
        "{stdout}"
    );
    assert!(stdout.contains("wal: 400 batches appended"), "{stdout}");
    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert_eq!(final_line(&out), served_final);
    std::fs::remove_dir_all(&wal).ok();
}

#[test]
fn replay_refuses_a_recycling_set_cover_log() {
    // With recycled ids, batch 2 reuses e0 and batch 4 deletes the element
    // inserted in batch 3 (e3). A cover allocates monotonic ids: it would
    // give batch 2 e3 and delete that one instead, and still verify.
    let log = "# pbdmm-wal v1\n# structure: setcover\n# seed: 5\n# ids: recycling\n\
               b 0\ni 0 1\ni 2 3\ni 4 5\nc 0\nb 1\nd 0\nc 1\n\
               b 2\ni 6 7\nc 2\nb 3\ni 8 9\nc 3\nb 4\nd 3\nc 4\n";
    let dir = tmpfile("recycling_cover.waldir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("000000.seg"), log).unwrap();
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stdout}");
    assert!(!stdout.contains("invariants: ok"), "{stdout}");
    assert!(stderr.contains("ids: recycling"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_sustains_concurrent_readers_with_zero_failed_queries() {
    // The acceptance workload: 4 reader threads resolving snapshot point
    // queries while writers run; every query must succeed and the
    // staleness report must be present.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "500",
        "--readers",
        "4",
        "--wal",
        "none",
        "--seed",
        "11",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reads:"), "{stdout}");
    assert!(
        stdout.contains("(4 readers, failed queries: 0)"),
        "{stdout}"
    );
    assert!(stdout.contains("snapshot staleness: p50"), "{stdout}");
    assert!(stdout.contains("epoch=1000"), "{stdout}");

    // --readers 0 turns the read tier off entirely.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "100",
        "--readers",
        "0",
        "--wal",
        "none",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("reads:"), "{stdout}");
}

#[test]
fn replay_rejects_garbage() {
    let bad = tmpfile("bad.wal");
    std::fs::write(&bad, "this is not a wal\n").unwrap();
    let out = pbdmm(&["replay", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let out = pbdmm(&["replay"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing WAL directory"));
}

#[test]
fn usage_follows_argument_errors_only() {
    // A failure while running prints its one-line cause, not the usage.
    let dir = tmpfile("no_such.waldir");
    std::fs::remove_dir_all(&dir).ok();
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(dir.to_str().unwrap()), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");

    // A wrong command line still gets the usage after its cause.
    let out = pbdmm(&["replay", dir.to_str().unwrap(), "--frobnicate", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --frobnicate for replay"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn replay_refuses_a_mid_log_segment() {
    // A rotated segment holds only the batches after a checkpoint:
    // replayed alone from a fresh structure it would print a state that
    // never existed.
    let dir = tmpfile("mid_log.waldir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("000005.seg"),
        "# pbdmm-wal v1\n# structure: matching\n# seed: 5\n# base: 5\nb 5\ni 0 1\nc 5\n",
    )
    .unwrap();
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stdout}");
    assert!(!stdout.contains("final:"), "{stdout}");
    assert!(stderr.contains("no segment starts at batch 0"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_file_log_is_refused_as_a_wal_dir_and_still_replays() {
    // A log in the single-file layout: the one segment of a directory
    // written without checkpoints has the same bytes.
    let dir = tmpfile("single_src.waldir");
    std::fs::remove_dir_all(&dir).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "200",
        "--readers",
        "0",
        "--seed",
        "4",
        "--wal",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "0",
    ]);
    let recorded_final = final_line(&out);
    let file = tmpfile("single.wal");
    std::fs::copy(dir.join("000000.seg"), &file).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let before = std::fs::read(&file).unwrap();
    let path = file.to_str().unwrap();

    // serve and daemon take --wal as a directory: a file there is refused
    // with an error naming it, and left as it was.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "10",
        "--wal",
        path,
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(path), "{stderr}");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(["daemon", "--port", "0", "--wal", path])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pbdmm daemon");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while daemon.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            daemon.kill().ok();
            daemon.wait().ok();
            panic!("daemon kept running over a single-file log");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = daemon.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(path), "{stderr}");
    assert_eq!(std::fs::read(&file).unwrap(), before, "log was modified");

    // replay takes a directory too; the same bytes replay as its
    // 000000.seg.
    let out = pbdmm(&["replay", path]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(path) && stderr.contains("DIR/000000.seg"),
        "{stderr}"
    );
    let dir = tmpfile("single_replay.waldir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&file, dir.join("000000.seg")).unwrap();
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    assert_eq!(final_line(&out), recorded_final);
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawn `pbdmm daemon --port 0`, scan for its `daemon: listening on`
/// line, and hand back the child for later harvest plus any preamble lines
/// printed before it (e.g. the recovery report).
fn spawn_daemon(extra: &[&str]) -> (std::process::Child, String, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(["daemon", "--port", "0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn pbdmm daemon");
    let (addr, preamble) = {
        let mut reader = BufReader::new(child.stdout.as_mut().unwrap());
        let mut preamble = String::new();
        let mut addr = None;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            if let Some(rest) = line.strip_prefix("daemon: listening on ") {
                addr = Some(rest.trim().to_string());
                break;
            }
            preamble.push_str(&line);
        }
        (addr, preamble)
    };
    let Some(addr) = addr else {
        let _ = child.wait();
        panic!("daemon exited before listening (preamble: {preamble:?})");
    };
    (child, addr, preamble)
}

#[test]
fn daemon_serves_load_and_wal_replay_matches_byte_for_byte() {
    let wal = tmpfile("daemon_cli.waldir");
    let _ = std::fs::remove_dir_all(&wal);
    let (child, addr, _) = spawn_daemon(&["--wal", wal.to_str().unwrap(), "--seed", "11"]);

    let out = pbdmm(&[
        "load",
        "--addr",
        &addr,
        "--connections",
        "4",
        "--updates",
        "300",
        "--seed",
        "11",
        "--shutdown",
        "true",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let load_out = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(load_out.contains("failed queries: 0"), "{load_out}");
    assert!(load_out.contains("0 protocol errors"), "{load_out}");
    assert!(load_out.contains("snapshot staleness:"), "{load_out}");

    // The shutdown drains the daemon; its exit report must agree with a
    // fresh replay of its own WAL, byte for byte on the final: line.
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let daemon_out = String::from_utf8_lossy(&out.stdout).to_string();
    let daemon_final = daemon_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {daemon_out}"));
    assert!(daemon_out.contains("daemon: drained after"), "{daemon_out}");

    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay_out = String::from_utf8_lossy(&out.stdout).to_string();
    let replay_final = replay_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {replay_out}"));
    assert_eq!(daemon_final, replay_final);
    assert!(replay_out.contains("invariants: ok"), "{replay_out}");
    std::fs::remove_dir_all(&wal).ok();
}

#[test]
fn serve_with_checkpoints_and_dir_replay_recover_identically() {
    let dir = tmpfile("serve_ckpt.waldir");
    std::fs::remove_dir_all(&dir).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "600",
        "--max-batch",
        "128",
        "--seed",
        "9",
        "--wal",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "200",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let served_final = stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("serve prints a final state line")
        .to_string();
    assert!(served_final.contains("epoch=1200"), "{served_final}");
    // The run was long enough to rotate: segments and checkpoints exist.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".ckpt")),
        "no checkpoint written in {names:?}"
    );

    // Directory replay recovers from the newest checkpoint — and says so.
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ckpt_out = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        ckpt_out.contains("recovery: from checkpoint at batch"),
        "{ckpt_out}"
    );
    let ckpt_final = ckpt_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("dir replay prints a final state line")
        .to_string();
    assert_eq!(served_final, ckpt_final, "{ckpt_out}");
    assert!(ckpt_out.contains("invariants: ok"), "{ckpt_out}");

    // --from-genesis forces a full-history replay; with compaction the
    // history may be gone, so only check it when segment 000000 survived —
    // when it runs, the final line must be byte-identical to the
    // checkpointed recovery.
    if names.iter().any(|n| n == "000000.seg") {
        let out = pbdmm(&["replay", dir.to_str().unwrap(), "--from-genesis", "true"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let genesis_out = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            genesis_out.contains("recovery: from genesis"),
            "{genesis_out}"
        );
        let genesis_final = genesis_out
            .lines()
            .find(|l| l.starts_with("final:"))
            .expect("genesis replay prints a final state line")
            .to_string();
        assert_eq!(served_final, genesis_final, "{genesis_out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_restart_recovers_from_segment_directory() {
    let dir = tmpfile("daemon_ckpt.waldir");
    std::fs::remove_dir_all(&dir).ok();

    // Run 1: fresh WAL directory, some load, graceful shutdown.
    let (child, addr, preamble) = spawn_daemon(&[
        "--wal",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "50",
        "--seed",
        "11",
    ]);
    assert!(
        !preamble.contains("daemon: recovered"),
        "fresh dir must not recover: {preamble:?}"
    );
    let out = pbdmm(&[
        "load",
        "--addr",
        &addr,
        "--connections",
        "2",
        "--updates",
        "150",
        "--seed",
        "11",
        "--shutdown",
        "true",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run1 = String::from_utf8_lossy(&out.stdout).to_string();
    let run1_final = run1
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {run1}"));

    // Run 2: pointing --wal at the existing directory recovers the run,
    // without repeating --checkpoint-every.
    let (child, addr, preamble) = spawn_daemon(&["--wal", dir.to_str().unwrap(), "--seed", "11"]);
    assert!(preamble.contains("daemon: recovered "), "{preamble:?}");
    let out = pbdmm(&[
        "load",
        "--addr",
        &addr,
        "--connections",
        "1",
        "--updates",
        "50",
        "--seed",
        "12",
        "--shutdown",
        "true",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run2 = String::from_utf8_lossy(&out.stdout).to_string();

    // The restarted daemon resumed the same history: replaying the whole
    // directory reproduces run 2's final state, and its epoch advanced
    // past run 1's.
    let run2_final = run2
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {run2}"));
    assert_ne!(run1_final, run2_final);
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay_out = String::from_utf8_lossy(&out.stdout).to_string();
    let replay_final = replay_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {replay_out}"));
    assert_eq!(run2_final, replay_final, "{replay_out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_flags_are_validated() {
    let out = pbdmm(&["daemon", "--port", "notaport"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expected a port number"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["daemon", "--max-connections", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("must be positive"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_flags_are_rejected() {
    // A flag the subcommand does not read is refused before anything runs:
    // a removed option (`--shards`, the linger window `--max-delay-us`) or
    // a typo that would otherwise silently disable checkpoints
    // (`--checkpoint-evry`).
    for (args, flag, cmd) in [
        (&["daemon", "--shards", "4"][..], "--shards", "daemon"),
        (
            &["daemon", "--max-delay-us", "300"][..],
            "--max-delay-us",
            "daemon",
        ),
        (
            &["daemon", "--checkpoint-evry", "100"][..],
            "--checkpoint-evry",
            "daemon",
        ),
        (&["serve", "--shards", "4"][..], "--shards", "serve"),
        (&["serve", "--compare", "direct"][..], "--compare", "serve"),
        (
            &["serve", "--max-delay-us", "300"][..],
            "--max-delay-us",
            "serve",
        ),
        (
            &["replay", "x.wal", "--shards", "2"][..],
            "--shards",
            "replay",
        ),
        (
            &["load", "--port", "9", "--shards", "4"][..],
            "--shards",
            "load",
        ),
        (&["match", "g.hgr", "--batch", "8"][..], "--batch", "match"),
    ] {
        let out = pbdmm(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {cmd}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn load_flags_are_validated() {
    // The daemon's address is mandatory, one way or the other.
    let out = pbdmm(&["load"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--addr HOST:PORT"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--addr", "127.0.0.1:1", "--port", "1"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not both"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--port", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--port 0 is invalid"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--addr", "not-an-addr"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expected HOST:PORT"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--port", "9", "--connections", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("must be positive"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
