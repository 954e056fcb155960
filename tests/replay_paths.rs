//! Every path that rebuilds state from a log agrees, in both id-allocation
//! modes. One recorded history goes through `recover_matching_from_dir`
//! (a one-segment log without checkpoints, and a checkpointed directory
//! from a checkpoint and from genesis) and `pbdmm replay` on both
//! directories, and every path must print the `final:` line the service
//! itself ended on. The history deletes an edge whose id was recycled, so
//! a path that builds the structure in the wrong id mode fails it.
//!
//! The removed sharded directory layout (`<dir>/shard-<i>/`) is refused by
//! every entry point, instead of reading as an empty log.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use pbdmm::graph::wal::{write_batch, write_segment_header, SegmentReader, WalMeta};
use pbdmm::graph::{Batch, EdgeId};
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::service::{
    recover_matching_from_dir, Done, ServiceBuilder, ServiceConfig, ServiceError,
};
use pbdmm::DynamicMatching;

fn tdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pbdmm_replay_paths_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pbdmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(args)
        .output()
        .expect("failed to run pbdmm binary")
}

fn final_line(m: &DynamicMatching) -> String {
    format!(
        "final: epoch={} edges={} matching={}",
        m.epoch(),
        m.num_edges(),
        m.matching_size()
    )
}

/// Run `pbdmm replay <args>` and return its `final:` line.
fn cli_final(args: &[&str]) -> String {
    let mut full = vec!["replay"];
    full.extend_from_slice(args);
    let out = pbdmm(&full);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "pbdmm {full:?}: {}{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("pbdmm {full:?} printed no final line: {stdout}"))
        .to_string()
}

/// Drive one service through a fixed history and return its final state.
/// Updates go one at a time under the singleton policy, so the batch
/// sequence is the same whatever the WAL sink. The history opens with
/// insert e0, insert e1, delete e0, insert (e0 again when ids recycle),
/// delete e0, then churns.
fn record(builder: ServiceBuilder, meta: &WalMeta) -> DynamicMatching {
    let mut m = DynamicMatching::with_seed(meta.seed);
    m.set_recycle_ids(meta.ids_recycling);
    let svc = builder
        .max_batch(1)
        .start(m)
        .expect("start recording service");
    let h = svc.handle();
    let insert = |vs: Vec<u32>| match h.insert(vs).wait().expect("insert").done {
        Done::Inserted(id) => id,
        other => panic!("insert resolved as {other:?}"),
    };
    let delete = |id: EdgeId| {
        h.delete(id).wait().expect("delete of a live id");
    };
    let e0 = insert(vec![0, 1]);
    let e1 = insert(vec![1, 2]);
    delete(e0);
    let reused = insert(vec![2, 3]);
    assert_eq!(reused == e0, meta.ids_recycling, "recycling reuses e0");
    delete(reused);
    let mut live = vec![e1];
    let mut rng = SplitMix64::new(meta.seed ^ 0x5EED);
    for _ in 0..160 {
        if !live.is_empty() && rng.bounded(10) < 4 {
            delete(live.swap_remove(rng.bounded(live.len() as u64) as usize));
        } else {
            let a = rng.bounded(30) as u32;
            live.push(insert(vec![a, a + 1 + rng.bounded(4) as u32]));
        }
    }
    drop(h);
    svc.shutdown().0
}

/// Sequence numbers of the `.seg` files in `dir`, ascending.
fn segment_bases(dir: &Path) -> Vec<u64> {
    let mut bases: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            name.strip_suffix(".seg")?.parse().ok()
        })
        .collect();
    bases.sort_unstable();
    bases
}

#[test]
fn every_replay_path_agrees_in_both_id_modes() {
    for recycling in [false, true] {
        let meta = WalMeta {
            structure: "matching".into(),
            seed: 29,
            ids_recycling: recycling,
        };
        let root = tdir(&format!("agree_{recycling}"));
        let whole = root.join("whole.waldir");
        let dir = root.join("history.waldir");

        let served = record(
            ServiceConfig::builder()
                .wal_dir(&whole, meta.clone())
                .checkpoint_every(0),
            &meta,
        );
        let expected = final_line(&served);
        let served_dir = record(
            ServiceConfig::builder()
                .wal_dir(&dir, meta.clone())
                .checkpoint_every(40),
            &meta,
        );
        assert_eq!(final_line(&served_dir), expected, "both recordings agree");

        // Compaction dropped the history below the older retained
        // checkpoint; put it back from the one-segment log so the same
        // directory also replays from genesis.
        let mut log = SegmentReader::open_file(&whole.join("000000.seg")).unwrap();
        assert_eq!(*log.meta(), meta);
        let first = segment_bases(&dir)[0];
        assert!(first > 0, "the run rotated and compacted");
        let mut seg = std::fs::File::create(dir.join("000000.seg")).unwrap();
        write_segment_header(&mut seg, &meta, 0).unwrap();
        for seq in 0..first {
            let b = log.next().expect("the one-segment log holds it").unwrap();
            write_batch(&mut seg, seq, &b).unwrap();
        }
        seg.flush().unwrap();

        let ctx = format!("recycling={recycling}");
        let rec = recover_matching_from_dir(&whole, false).unwrap();
        assert_eq!(rec.checkpoint, None, "{ctx}: one segment, no checkpoint");
        assert_eq!(final_line(&rec.structure), expected, "{ctx}: one segment");

        let rec = recover_matching_from_dir(&dir, false).unwrap();
        assert!(
            rec.checkpoint.is_some(),
            "{ctx}: recovery used a checkpoint"
        );
        assert_eq!(final_line(&rec.structure), expected, "{ctx}: checkpoint");

        let rec = recover_matching_from_dir(&dir, true).unwrap();
        assert_eq!(rec.checkpoint, None, "{ctx}: from genesis");
        assert_eq!(final_line(&rec.structure), expected, "{ctx}: genesis");

        let (whole, dir) = (whole.to_str().unwrap(), dir.to_str().unwrap());
        assert_eq!(
            cli_final(&[whole]),
            expected,
            "{ctx}: pbdmm replay one segment"
        );
        assert_eq!(cli_final(&[dir]), expected, "{ctx}: pbdmm replay DIR");
        assert_eq!(
            cli_final(&[dir, "--from-genesis", "true"]),
            expected,
            "{ctx}: pbdmm replay DIR --from-genesis true"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn checkpoint_recovery_counts_the_whole_history() {
    // A checkpoint carries the cost meter and the stats, so a structure
    // recovered from one reports the same totals as a replay from genesis.
    for recycling in [false, true] {
        let meta = WalMeta {
            structure: "matching".into(),
            seed: 31,
            ids_recycling: recycling,
        };
        let root = tdir(&format!("meter_{recycling}"));
        let (whole, dir) = (root.join("whole.waldir"), root.join("history.waldir"));
        let served = record(
            ServiceConfig::builder()
                .wal_dir(&whole, meta.clone())
                .checkpoint_every(0),
            &meta,
        );
        record(
            ServiceConfig::builder()
                .wal_dir(&dir, meta.clone())
                .checkpoint_every(40),
            &meta,
        );
        let genesis = recover_matching_from_dir(&whole, false).unwrap().structure;
        let rec = recover_matching_from_dir(&dir, false).unwrap();
        assert!(rec.checkpoint.is_some(), "recovery used a checkpoint");
        let ctx = format!("recycling={recycling}");
        assert!(genesis.meter().work() > 0, "{ctx}");
        assert_eq!(genesis.meter().work(), served.meter().work(), "{ctx}");
        assert_eq!(
            rec.structure.meter().work(),
            genesis.meter().work(),
            "{ctx}"
        );
        assert_eq!(rec.structure.stats(), genesis.stats(), "{ctx}");
        std::fs::remove_dir_all(&root).ok();
    }
}

/// A directory in the removed sharded layout: one segment under `shard-0/`.
fn sharded_layout(name: &str) -> (PathBuf, WalMeta) {
    let dir = tdir(name);
    let meta = WalMeta {
        structure: "matching".into(),
        seed: 5,
        ids_recycling: false,
    };
    std::fs::create_dir(dir.join("shard-0")).unwrap();
    let mut seg = std::fs::File::create(dir.join("shard-0").join("000000.seg")).unwrap();
    write_segment_header(&mut seg, &meta, 0).unwrap();
    write_batch(&mut seg, 0, &Batch::new().insert(vec![0, 1])).unwrap();
    (dir, meta)
}

#[test]
fn recovery_refuses_the_sharded_layout() {
    let (dir, meta) = sharded_layout("sharded_recover");
    let err = match ServiceConfig::builder()
        .wal_dir(&dir, meta.clone())
        .recover_and_start_serving()
    {
        Ok(_) => panic!("recovery started over a sharded layout"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, ServiceError::Wal(msg) if msg.contains("sharded layout")),
        "{err}"
    );
    assert!(recover_matching_from_dir(&dir, false)
        .err()
        .is_some_and(|e| e.contains("sharded layout")));
    // Nothing was written beside the old history.
    assert!(segment_bases(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_refuses_the_sharded_layout() {
    let (dir, _) = sharded_layout("sharded_cli");
    let path = dir.to_str().unwrap();
    let out = pbdmm(&["replay", path]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sharded layout"), "{stderr}");

    // The daemon must refuse too, not start fresh beside the old log.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(["daemon", "--port", "0", "--wal", path])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pbdmm daemon");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("daemon kept running over a sharded WAL dir");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("sharded layout"), "{stderr}");
    assert!(segment_bases(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
