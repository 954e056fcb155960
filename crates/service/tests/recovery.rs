//! Segmented-WAL recovery properties, end to end through the service.
//!
//! The contract under test: **checkpoint-load + tail-replay reconstructs
//! the exact state a full-history replay would** — same live edge ids
//! (including recycled ones), same matching, same storage occupancy, same
//! epoch — across seeds and both id-allocation modes. And recovery is
//! crash-tolerant at every byte: truncating the newest checkpoint falls
//! back to an older one, truncating the tail segment recovers the longest
//! committed prefix; neither ever turns into an error. A checkpoint it
//! cannot read (a `pbdmm-ckpt v1` text file, say) is skipped the same way;
//! when no checkpoint loads and the history is no longer whole, recovery
//! errors and names every checkpoint it refused. A malformed line with
//! content after it is corruption, never a tear: recovery refuses it by
//! segment and line, the newest segment included. And recovery is bounded:
//! it reads the oldest segment's header and nothing more to learn the log's
//! identity, and the segment reader holds one batch, not a segment.
//!
//! The driver submits one update at a time and waits for its ticket, so
//! every logged batch is a singleton and batch `k` is exactly update `k`:
//! any recovered `next_seq` maps directly onto a prefix of the recorded
//! update stream, which a directly-driven twin replays for comparison.

use std::path::PathBuf;

use pbdmm_graph::edge::EdgeId;
use pbdmm_graph::update::Batch;
use pbdmm_graph::wal::{write_segment_header, SegmentReader, WalMeta};
use pbdmm_matching::snapshot::Snapshots;
use pbdmm_matching::verify::check_invariants;
use pbdmm_matching::DynamicMatching;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_service::{recover_matching_from_dir, wal_dir_meta, ServiceConfig, WalConfig};

fn fresh(seed: u64, recycling: bool) -> DynamicMatching {
    let mut m = DynamicMatching::with_seed(seed);
    if recycling {
        m.set_recycle_ids(true);
    }
    m
}

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbdmm_recovery_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Run a service over a fresh segmented WAL at `dir`, submit `updates`
/// random single updates (waiting on each, so batches are singletons),
/// and return the served structure plus the ops as singleton batches.
/// `every: None` keeps the log one segment, with no checkpoint.
fn run_service(
    dir: &PathBuf,
    seed: u64,
    recycling: bool,
    updates: usize,
    every: Option<u64>,
) -> (DynamicMatching, Vec<Batch>) {
    let meta = WalMeta {
        structure: "matching".into(),
        seed,
        ids_recycling: recycling,
    };
    let mut wal = WalConfig::dir(dir, meta);
    wal.checkpoint_every = every;
    let svc = ServiceConfig::builder()
        .max_batch(4)
        .wal(wal)
        .start(fresh(seed, recycling))
        .expect("start service on fresh dir");
    let h = svc.handle();
    let mut rng = SplitMix64::new(seed ^ 0xD1CE);
    let mut live: Vec<EdgeId> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..updates {
        if !live.is_empty() && rng.bounded(10) < 4 {
            let id = live.swap_remove(rng.bounded(live.len() as u64) as usize);
            h.delete(id).wait().expect("delete own id");
            ops.push(Batch::new().delete(id));
        } else {
            let a = rng.bounded(40) as u32;
            let edge = vec![a, a + 1 + rng.bounded(5) as u32];
            let c = h.insert(edge.clone()).wait().expect("insert");
            live.push(c.done.id());
            ops.push(Batch::new().insert(edge));
        }
    }
    drop(h);
    let (m, stats) = svc.shutdown();
    if every.is_some() {
        assert!(
            stats.checkpoints > 0,
            "interval {every:?} never checkpointed"
        );
    }
    assert_eq!(stats.updates as usize, updates);
    (m, ops)
}

/// The full-replay reference: drive a fresh same-seeded twin through the
/// recorded singleton batches directly.
fn replay_prefix(seed: u64, recycling: bool, ops: &[Batch]) -> DynamicMatching {
    let mut m = fresh(seed, recycling);
    for b in ops {
        m.apply(b.clone()).expect("recorded op replays");
    }
    m
}

/// Exact-state equality: ids (occupancy included), matching, snapshot
/// (epoch, edges, matched pairs).
fn assert_same(a: &DynamicMatching, b: &DynamicMatching) {
    assert_eq!(a.storage_stats(), b.storage_stats());
    let mut ia = a.structure().edges.ids().to_vec();
    let mut ib = b.structure().edges.ids().to_vec();
    ia.sort_unstable();
    ib.sort_unstable();
    assert_eq!(ia, ib, "live edge ids must agree exactly");
    assert_eq!(Snapshots::snapshot(a), Snapshots::snapshot(b));
}

/// The newest file in `dir` with the given extension, with its sequence
/// (parsed off the `NNNNNN` stem).
fn newest(dir: &PathBuf, ext: &str) -> (u64, PathBuf) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    let path = files
        .pop()
        .unwrap_or_else(|| panic!("no .{ext} in {dir:?}"));
    let seq = path
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable segment name {path:?}"));
    (seq, path)
}

#[test]
fn checkpoint_plus_tail_equals_full_replay_across_seeds_and_id_modes() {
    for seed in [3u64, 17, 99] {
        for recycling in [false, true] {
            let dir = tdir(&format!("prop_{seed}_{recycling}"));
            let (served, ops) = run_service(&dir, seed, recycling, 200, Some(48));
            check_invariants(&served).unwrap();

            let rec = recover_matching_from_dir(&dir, false).expect("recover");
            let ckpt = rec.checkpoint.expect("a checkpoint must have been used");
            assert!(ckpt > 0 && ckpt < 200, "checkpoint {ckpt} out of range");
            assert_eq!(rec.next_seq, 200, "every committed batch reconstructs");
            assert!(!rec.truncated);
            check_invariants(&rec.structure).unwrap();
            // Same state as the structure the service handed back ...
            assert_same(&rec.structure, &served);
            // ... and as a genuine full-history replay of the update
            // stream, ids included — checkpoint restore plus tail replay
            // is indistinguishable from replaying everything.
            let full = replay_prefix(seed, recycling, &ops);
            assert_same(&rec.structure, &full);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn torn_newest_checkpoint_falls_back_at_every_byte() {
    let dir = tdir("torn_ckpt");
    let (served, _ops) = run_service(&dir, 7, false, 120, Some(40));
    let (_, ckpt_path) = newest(&dir, "ckpt");
    let orig = std::fs::read(&ckpt_path).unwrap();
    assert!(!orig.is_empty());
    // Every proper truncation of the newest checkpoint fails its trailer
    // check: recovery must fall back to the older retained checkpoint and
    // always reconstruct the exact final state.
    for cut in 0..orig.len() {
        std::fs::write(&ckpt_path, &orig[..cut]).unwrap();
        let rec = recover_matching_from_dir(&dir, false)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery errored: {e}"));
        assert_eq!(rec.next_seq, 120, "cut at byte {cut}");
        check_invariants(&rec.structure).unwrap();
        assert_same(&rec.structure, &served);
    }
    std::fs::write(&ckpt_path, &orig).unwrap();
    let rec = recover_matching_from_dir(&dir, false).unwrap();
    assert_same(&rec.structure, &served);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_segment_recovers_a_committed_prefix_at_every_byte() {
    let dir = tdir("torn_seg");
    let (served, ops) = run_service(&dir, 11, true, 130, Some(40));
    let (base, seg_path) = newest(&dir, "seg");
    assert!(base > 0 && base < 130, "tail segment base {base}");
    let orig = std::fs::read(&seg_path).unwrap();
    // Every truncation of the tail segment — mid-header, mid-batch,
    // mid-commit-marker — recovers the longest committed prefix, never
    // errors, and the recovered state equals a direct replay of exactly
    // that many updates.
    for cut in 0..orig.len() {
        std::fs::write(&seg_path, &orig[..cut]).unwrap();
        let rec = recover_matching_from_dir(&dir, false)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery errored: {e}"));
        assert!(
            rec.next_seq >= base && rec.next_seq <= 130,
            "cut at byte {cut}: recovered {} batches",
            rec.next_seq
        );
        check_invariants(&rec.structure).unwrap();
        let reference = replay_prefix(11, true, &ops[..rec.next_seq as usize]);
        assert_same(&rec.structure, &reference);
    }
    std::fs::write(&seg_path, &orig).unwrap();
    let rec = recover_matching_from_dir(&dir, false).unwrap();
    assert_eq!(rec.next_seq, 130);
    assert_same(&rec.structure, &served);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_line_in_the_final_segment_is_refused_not_dropped() {
    // A malformed line with content after it is corruption, not a torn
    // append, in the newest segment as in any other: recovery must name
    // it, and a restarting service must not overwrite the segment.
    for every in [Some(20), None] {
        let dir = tdir(&format!("corrupt_final_{}", every.is_some()));
        let meta = WalMeta {
            structure: "matching".into(),
            seed: 13,
            ids_recycling: false,
        };
        let mut wal = WalConfig::dir(&dir, meta);
        wal.checkpoint_every = every;
        let svc = ServiceConfig::builder()
            .wal(wal.clone())
            .start(fresh(13, false))
            .expect("start service on fresh dir");
        let h = svc.handle();
        for k in 0..50u32 {
            h.insert(vec![2 * k, 2 * k + 1]).wait().expect("insert");
        }
        drop(h);
        svc.shutdown();
        let (base, seg_path) = newest(&dir, "seg");
        assert_eq!(base, if every.is_some() { 40 } else { 0 });
        // Replace the insert line of the segment's middle batch.
        let text = std::fs::read_to_string(&seg_path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let mid = format!("b {}", base + (50 - base) / 2);
        let at = lines.iter().position(|l| *l == mid).unwrap() + 1;
        lines[at] = "zz corrupt";
        let corrupt = lines.join("\n") + "\n";
        std::fs::write(&seg_path, &corrupt).unwrap();

        let err = match recover_matching_from_dir(&dir, false) {
            Ok(rec) => panic!(
                "every={every:?}: recovered {} batches over a corrupt segment",
                rec.next_seq
            ),
            Err(e) => e,
        };
        let name = seg_path.file_name().unwrap().to_str().unwrap();
        let line = format!("{name}: line {}: unknown record tag", at + 1);
        assert!(err.contains(&line), "every={every:?}: {err}");
        let refused = ServiceConfig::builder()
            .wal(wal)
            .recover_and_start_serving(|| fresh(13, false));
        match refused {
            Ok(_) => panic!("every={every:?}: the service started over a corrupt segment"),
            Err(e) => assert!(e.to_string().contains(&line), "every={every:?}: {e}"),
        }
        assert_eq!(
            std::fs::read(&seg_path).unwrap(),
            corrupt.as_bytes(),
            "every={every:?}: the corrupt segment was rewritten"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A text checkpoint as the `pbdmm-ckpt v1` writer laid it out.
const V1_CHECKPOINT: &str = "# pbdmm-ckpt v1\n# structure: matching\nrng 7\nids monotonic 0\n\
    rank 1\nconfig 1 4 0\nstats 0 0 0 0 0 0 0 0 0 0 0 0 0\nmeter 0 0 0\nedges 0 0\n\
    matches 0 0\nvertices 0\n# end\n";

/// The `.ckpt` files in `dir`, sorted.
fn checkpoints(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    files
}

#[test]
fn compacted_log_with_only_v1_checkpoints_is_refused_by_name() {
    let dir = tdir("v1_compacted");
    let (_served, _ops) = run_service(&dir, 5, false, 200, Some(40));
    assert!(
        !dir.join("000000.seg").exists(),
        "compaction must have removed the genesis segment"
    );
    let ckpts = checkpoints(&dir);
    assert!(!ckpts.is_empty());
    for path in &ckpts {
        std::fs::write(path, V1_CHECKPOINT).unwrap();
    }
    let err = match recover_matching_from_dir(&dir, false) {
        Ok(_) => panic!("a compacted log without a readable checkpoint must not recover"),
        Err(e) => e,
    };
    for path in &ckpts {
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(err.contains(name), "{name} not named in: {err}");
    }
    assert!(err.contains("not a v2 checkpoint"), "{err}");
    // The service refuses it too: it never starts fresh beside the history.
    let meta = WalMeta {
        structure: "matching".into(),
        seed: 5,
        ids_recycling: false,
    };
    let refused = ServiceConfig::builder()
        .wal(WalConfig::dir(&dir, meta))
        .recover_and_start_serving(|| fresh(5, false));
    match refused {
        Ok(_) => panic!("the service must not start over a log it cannot recover"),
        Err(e) => assert!(e.to_string().contains("not a v2 checkpoint"), "{e}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn young_log_with_v1_checkpoints_recovers_from_genesis() {
    for recycling in [false, true] {
        let dir = tdir(&format!("v1_young_{recycling}"));
        let (served, ops) = run_service(&dir, 9, recycling, 120, None);
        assert!(dir.join("000000.seg").exists());
        for seq in [40, 80] {
            std::fs::write(dir.join(format!("{seq:06}.ckpt")), V1_CHECKPOINT).unwrap();
        }
        let rec = recover_matching_from_dir(&dir, false).expect("genesis replay");
        assert_eq!(rec.checkpoint, None, "a v1 checkpoint must not load");
        assert_eq!(rec.next_seq, 120);
        check_invariants(&rec.structure).unwrap();
        assert_same(&rec.structure, &served);
        assert_same(&rec.structure, &replay_prefix(9, recycling, &ops));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn dir_meta_reads_the_oldest_header_only() {
    // Garbage after a valid header: the header read never reaches it,
    // while replay refuses it by line.
    let dir = tdir("header_only");
    std::fs::create_dir_all(&dir).unwrap();
    let meta = WalMeta {
        structure: "matching".into(),
        seed: 11,
        ids_recycling: true,
    };
    let mut seg = Vec::new();
    write_segment_header(&mut seg, &meta, 0).unwrap();
    seg.extend_from_slice(b"zz garbage\nzz\n");
    std::fs::write(dir.join("000000.seg"), seg).unwrap();
    assert_eq!(wal_dir_meta(&dir).unwrap(), meta);
    let err = recover_matching_from_dir(&dir, true).err().unwrap();
    assert!(
        err.contains("000000.seg: line 5: unknown record tag"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Read` over a lazily generated byte stream that counts the bytes it
/// hands out.
struct Counted<I> {
    bytes: I,
    handed_out: usize,
}

impl<I: Iterator<Item = u8>> std::io::Read for Counted<I> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf
            .iter_mut()
            .zip(&mut self.bytes)
            .map(|(b, x)| *b = x)
            .count();
        self.handed_out += n;
        Ok(n)
    }
}

#[test]
fn segment_reader_holds_one_batch_not_the_segment() {
    // A 1M-batch churn segment, generated only as it is read: replay pulls
    // one committed batch at a time, so three batches cost a few buffers.
    let header = "# pbdmm-wal v1\n# structure: matching\n# seed: 1\n# ids: recycling\n";
    let batches = (0..1_000_000u64).flat_map(|k| {
        let op = if k.is_multiple_of(2) { "i 0 1" } else { "d 0" };
        format!("b {k}\n{op}\nc {k}\n").into_bytes()
    });
    let mut log = Counted {
        bytes: header.bytes().chain(batches),
        handed_out: 0,
    };
    let mut r = SegmentReader::open(std::io::BufReader::new(&mut log)).unwrap();
    assert!(r.meta().ids_recycling);
    let first: Vec<Batch> = r.by_ref().take(3).map(Result::unwrap).collect();
    let insert = Batch::new().insert(vec![0, 1]);
    let delete = Batch::new().delete(EdgeId(0));
    assert_eq!(first, vec![insert.clone(), delete, insert]);
    drop(r);
    assert!(log.handed_out < 64 * 1024, "{} bytes read", log.handed_out);
}
