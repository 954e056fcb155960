//! Deterministic WAL replay: rebuild a [`DynamicMatching`] from a recorded
//! log.
//!
//! Replay doubles as crash recovery (reconstruct the pre-crash state from
//! the committed prefix) and as a trace-replay harness (drive the structure
//! with a real recorded update stream, e.g. for benchmarking). A set-cover
//! log is a matching log whose header says `setcover`: it replays into a
//! `DynamicMatching` too.
//!
//! Determinism argument: the WAL records committed batches in apply order;
//! insertions carry no ids because the structure assigns them sequentially
//! at apply time, so applying the identical batch sequence to a **fresh**
//! structure built with the **same seed** reassigns the identical ids and —
//! since the structure's coins are a function of its seed alone — reproduces
//! the exact final state, matching included.
//!
//! One loop applies logged batches: the segment loop behind
//! [`recover_dir_with`]. It streams each segment through a
//! [`SegmentReader`], so replay holds one batch at a time, never a whole
//! segment.

use std::path::{Path, PathBuf};

use pbdmm_graph::wal::{SegmentReader, WalMeta};
use pbdmm_matching::DynamicMatching;

use crate::coalesce::{plan_batch, Slot};

/// What one replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Committed WAL batches consumed.
    pub batches: u64,
    /// `apply` calls issued (one per non-empty batch).
    pub applies: u64,
    /// Updates applied.
    pub updates: u64,
}

/// The fresh [`DynamicMatching`] a WAL header describes: the recorded seed
/// and id-allocation mode. Every served structure, replay and recovery
/// entry point builds its structure here — one built in the wrong id mode
/// lands recorded deletes on the wrong edges.
///
/// A `matching` takes either id mode. A `setcover` is the same matching
/// read with sets as vertices, and takes monotonic ids only: a cover's
/// element ids are never reused, so a header recording recycled ids is
/// refused. Any other structure is refused too.
pub fn matching_for(meta: &WalMeta) -> Result<DynamicMatching, String> {
    match (meta.structure.as_str(), meta.ids_recycling) {
        ("matching", _) | ("setcover", false) => {}
        ("setcover", true) => {
            return Err("WAL records `# ids: recycling`, but a set cover \
                        allocates only monotonic ids"
                .into())
        }
        (other, _) => {
            return Err(format!(
                "structure {other:?} is neither a matching nor a set cover"
            ))
        }
    }
    let mut m = DynamicMatching::with_seed(meta.seed);
    m.set_recycle_ids(meta.ids_recycling);
    Ok(m)
}

// ---------------------------------------------------------------------------
// Segment-directory recovery
// ---------------------------------------------------------------------------

/// Path of the segment whose first batch has global sequence `seq`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:06}.seg"))
}

/// Path of the checkpoint capturing the state after `seq` batches.
pub(crate) fn ckpt_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:06}.ckpt"))
}

/// The recognized files of a WAL segment directory, each sorted ascending
/// by sequence number. Unrecognized names (including in-flight
/// `*.ckpt.tmp` files) are ignored.
pub(crate) struct WalDirContents {
    /// `(first batch seq, path)` per `NNNNNN.seg`.
    pub segments: Vec<(u64, PathBuf)>,
    /// `(batches covered, path)` per `NNNNNN.ckpt`.
    pub checkpoints: Vec<(u64, PathBuf)>,
}

/// Scan a WAL directory for segments and checkpoints. Refuses the removed
/// sharded layout (one segment directory per shard under `shard-<i>/`):
/// read as a flat directory it would look empty, so recovery would start
/// fresh and write new segments beside the old history.
pub(crate) fn list_wal_dir(dir: &Path) -> Result<WalDirContents, String> {
    if dir.join("shard-0").is_dir() {
        return Err(format!(
            "WAL dir {} has the removed sharded layout (shard-0/ ...); \
             only flat segment directories can be replayed or recovered",
            dir.display()
        ));
    }
    let mut segments = Vec::new();
    let mut checkpoints = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read WAL dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read WAL dir {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let parse = |stem: &str| stem.parse::<u64>().ok();
        if let Some(stem) = name.strip_suffix(".seg") {
            if let Some(seq) = parse(stem) {
                segments.push((seq, entry.path()));
            }
        } else if let Some(stem) = name.strip_suffix(".ckpt") {
            if let Some(seq) = parse(stem) {
                checkpoints.push((seq, entry.path()));
            }
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    checkpoints.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(WalDirContents {
        segments,
        checkpoints,
    })
}

/// The header metadata of a WAL directory, read from the header of its
/// oldest segment (replay validates every other segment against it).
pub fn wal_dir_meta(dir: &Path) -> Result<WalMeta, String> {
    oldest_segment_meta(dir, &list_wal_dir(dir)?)
}

/// Read the oldest segment's header, and nothing after it.
fn oldest_segment_meta(dir: &Path, contents: &WalDirContents) -> Result<WalMeta, String> {
    let (_, oldest) = contents
        .segments
        .first()
        .ok_or_else(|| format!("WAL dir {} contains no segments", dir.display()))?;
    let seg = SegmentReader::open_file(oldest).map_err(|e| format!("{}: {e}", oldest.display()))?;
    if seg.torn() {
        return Err(format!("{}: header cut short", oldest.display()));
    }
    Ok(seg.meta().clone())
}

/// Outcome of [`recover_dir_with`]: the reconstructed structure plus what
/// recovery actually did (which checkpoint it loaded, how much log it
/// replayed).
pub struct Recovery {
    /// The reconstructed structure, ready to serve or resume appending.
    pub structure: DynamicMatching,
    /// Sequence of the checkpoint recovery started from (= batches already
    /// baked into it), or `None` when it replayed from genesis.
    pub checkpoint: Option<u64>,
    /// Total committed batches reconstructed — the sequence the next
    /// appended batch gets, and the resume point for a new segment.
    pub next_seq: u64,
    /// Segments whose batches were replayed (not counting segments
    /// skipped because a checkpoint already covered them).
    pub segments_replayed: u64,
    /// Merged replay report over the replayed tail.
    pub report: ReplayReport,
    /// Metadata shared by every segment (validated for agreement).
    pub meta: WalMeta,
    /// Whether the final segment ended in a torn append (dropped: it was
    /// never committed).
    pub truncated: bool,
}

/// The structure-free summary of a [`Recovery`] — what the service builder
/// hands back after recovery, once the structure itself has been moved
/// into the running service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Checkpoint recovery started from, or `None` for genesis replay.
    pub checkpoint: Option<u64>,
    /// Total committed batches reconstructed.
    pub batches: u64,
    /// Segments replayed past the checkpoint.
    pub segments_replayed: u64,
    /// Merged replay report over the replayed tail.
    pub report: ReplayReport,
    /// Whether a torn final append was dropped.
    pub truncated: bool,
}

impl Recovery {
    /// The structure-free summary of this recovery.
    pub fn info(&self) -> RecoveryInfo {
        RecoveryInfo {
            checkpoint: self.checkpoint,
            batches: self.next_seq,
            segments_replayed: self.segments_replayed,
            report: self.report,
            truncated: self.truncated,
        }
    }
}

/// Why the segment run from one start could not be replayed.
enum TailError {
    /// The run is not on disk from this start: no segment starts there, a
    /// gap, or a torn mid-log segment. A start further back may bridge it.
    Missing(String),
    /// The log itself is at fault: a malformed line, a header that
    /// disagrees with its filename or with the log, or a batch that does
    /// not apply. Replaying the same log from any other start meets it
    /// again.
    Fatal(String),
}

/// Replay the contiguous run of segments starting at sequence `start` into
/// `s`: the one loop that applies logged batches. Each segment streams
/// through a [`SegmentReader`], one committed batch at a time; its header
/// must agree with its filename and with `meta`, and each segment must
/// start where the previous one ended. Returns `(next_seq,
/// segments_replayed, truncated)`.
///
/// Each batch goes through the coalescer's planner first, so a delete of an
/// edge that is not live, or an insert with an empty vertex set, fails with
/// its batch number instead of a bare `apply` error. A live recorder logs
/// neither, so any rejection means the log is corrupt or hand-written.
///
/// From genesis (`start` 0), the first insert-bearing batch must get ids
/// 0, 1, 2, … — a fresh structure does so in either id mode, while one that
/// is empty but has handed out ids before would silently shift every
/// recorded delete onto the wrong edge. (Later batches are not checked: a
/// recycling structure legitimately reuses freed ids from then on. Nor is a
/// checkpoint start: the checkpoint restored the allocator.)
///
/// Only the final segment may be torn, and a tear applies nothing it
/// cannot vouch for. A torn rotation (the segment is empty, its header was
/// cut short, or its header disagrees while it holds no committed batch)
/// applies nothing; a torn append loses its open batch. Either sets
/// `truncated`. Corruption — a malformed line with content after it, or a
/// disagreeing header over committed batches — fails with an error naming
/// the segment and the line, in the final segment as in any other.
fn replay_segments_from(
    s: &mut DynamicMatching,
    segments: &[(u64, PathBuf)],
    start: u64,
    meta: &WalMeta,
    report: &mut ReplayReport,
) -> Result<(u64, u64, bool), TailError> {
    let first = segments
        .iter()
        .position(|&(base, _)| base == start)
        .ok_or_else(|| {
            TailError::Missing(format!(
                "no segment starts at batch {start} (history compacted away or missing)"
            ))
        })?;
    let tail = &segments[first..];
    let mut expected = start;
    let mut replayed = 0u64;
    let mut truncated = false;
    let mut verify_ids = start == 0;
    for (i, (base, path)) in tail.iter().enumerate() {
        let is_last = i + 1 == tail.len();
        if *base != expected {
            return Err(TailError::Missing(format!(
                "gap in WAL segments: {} starts at batch {base}, expected {expected}",
                path.display()
            )));
        }
        let in_segment = |e: String| TailError::Fatal(format!("{}: {e}", path.display()));
        let mut seg = SegmentReader::open_file(path).map_err(in_segment)?;
        if seg.base() != *base || seg.meta() != meta {
            // A torn rotation: a final segment whose header was cut
            // mid-write parses with default or partial metadata. It is
            // only forgivable when it carries no committed batch — the
            // writer appends strictly after a clean header.
            if is_last && seg.next().transpose().map_err(in_segment)?.is_none() {
                truncated = true;
                break;
            }
            return Err(in_segment(if seg.base() != *base {
                format!("header says base {}, filename says {base}", seg.base())
            } else {
                "segment metadata disagrees with the rest of the log".into()
            }));
        }
        for batch in seg.by_ref() {
            let batch = batch.map_err(in_segment)?;
            let seq = expected;
            let fatal = |e: String| TailError::Fatal(format!("batch {seq}: {e}"));
            let plan = plan_batch(batch.into_iter().collect(), |id| s.contains_edge(id));
            for slot in &plan.slots {
                match slot {
                    Slot::RejectUnknown(id) => {
                        return Err(fatal(format!("delete of unknown edge {id}")));
                    }
                    Slot::RejectEmpty => {
                        return Err(fatal("insert with empty vertex set".into()));
                    }
                    Slot::InBatch(_) | Slot::DuplicateDelete(_) => {}
                }
            }
            if !plan.batch.is_empty() {
                report.updates += plan.batch.len() as u64;
                report.applies += 1;
                let out = s.apply(plan.batch).map_err(|e| fatal(e.to_string()))?;
                if verify_ids && !out.inserted.is_empty() {
                    for (k, id) in out.inserted.iter().enumerate() {
                        if id.raw() != k as u64 {
                            return Err(TailError::Fatal(format!(
                                "replay target is not fresh: expected insert id e{k}, \
                                 structure assigned {id} (its id counter is not at 0); \
                                 the target state is now unspecified"
                            )));
                        }
                    }
                    verify_ids = false;
                }
            }
            report.batches += 1;
            expected += 1;
        }
        replayed += 1;
        if seg.torn() {
            // A torn append is tolerable only at the very end of the log:
            // the writer rotates strictly after a clean append+apply, so a
            // mid-chain segment that reads as torn is corruption — unless
            // the next segment picks up exactly where the readable prefix
            // ends (then the "torn" bytes were a rolled-back batch).
            match tail.get(i + 1) {
                None => truncated = true,
                Some((next_base, next_path)) if *next_base != expected => {
                    return Err(TailError::Missing(format!(
                        "{}: torn mid-log segment ({} committed batches, next \
                         segment {} starts at {next_base})",
                        path.display(),
                        expected,
                        next_path.display()
                    )));
                }
                Some(_) => {}
            }
        }
    }
    Ok((expected, replayed, truncated))
}

/// Recover a structure from a WAL segment directory: load the newest
/// readable checkpoint, then replay only the segments past it.
///
/// `make` builds a fresh structure as the log's header describes it (seed
/// and id mode; [`matching_for`], say) each time a starting point is
/// tried; an error from it ends recovery before anything loads.
/// Checkpoints are read whole and attempted newest to oldest. A torn,
/// corrupt or foreign image (a `pbdmm-ckpt v1` text checkpoint, say) falls
/// back to the next older one, and so does a checkpoint whose segment run
/// is missing (no segment starts at it, a gap, a torn mid-log segment);
/// when none is usable (or `from_genesis` is set) the whole log replays
/// from segment 0. A fault of the log itself — a malformed line, a header
/// that disagrees with its filename or with the log, a batch that does not
/// apply — fails at once with that segment's error: every start would
/// replay the same bytes. Otherwise recovery errors only on history it
/// cannot bridge, and then names every checkpoint it refused and why.
pub fn recover_dir_with<F>(dir: &Path, mut make: F, from_genesis: bool) -> Result<Recovery, String>
where
    F: FnMut(&WalMeta) -> Result<DynamicMatching, String>,
{
    let contents = list_wal_dir(dir)?;
    let meta = oldest_segment_meta(dir, &contents)?;
    let mut refused: Vec<String> = Vec::new();
    if !from_genesis {
        for (seq, path) in contents.checkpoints.iter().rev() {
            let mut s = make(&meta)?;
            let loaded = std::fs::read(path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| s.read_checkpoint(&bytes));
            if let Err(e) = loaded {
                // Torn, corrupt or unreadable (e.g. crash mid-rename on a
                // filesystem without atomic rename): fall back one.
                refused.push(format!("{}: {e}", path.display()));
                continue;
            }
            let mut report = ReplayReport::default();
            match replay_segments_from(&mut s, &contents.segments, *seq, &meta, &mut report) {
                Ok((next_seq, segments_replayed, truncated)) => {
                    return Ok(Recovery {
                        structure: s,
                        checkpoint: Some(*seq),
                        next_seq,
                        segments_replayed,
                        report,
                        meta,
                        truncated,
                    });
                }
                // The segment run starting at this checkpoint is not on
                // disk (e.g. its segment was lost); an older checkpoint
                // starts further back and may bridge the gap.
                Err(TailError::Missing(e)) => {
                    refused.push(format!("{}: loaded, but its tail: {e}", path.display()))
                }
                Err(TailError::Fatal(e)) => return Err(e),
            }
        }
    }
    // Genesis: the full history must still be on disk.
    let mut s = make(&meta)?;
    let mut report = ReplayReport::default();
    let (next_seq, segments_replayed, truncated) =
        replay_segments_from(&mut s, &contents.segments, 0, &meta, &mut report).map_err(
            |e| match e {
                TailError::Fatal(e) => e,
                TailError::Missing(e) if refused.is_empty() => e,
                TailError::Missing(e) => {
                    format!("{e}; refused checkpoints: {}", refused.join("; "))
                }
            },
        )?;
    Ok(Recovery {
        structure: s,
        checkpoint: None,
        next_seq,
        segments_replayed,
        report,
        meta,
        truncated,
    })
}

/// Recover a [`DynamicMatching`] from a WAL segment directory, built as
/// the segment header describes ([`matching_for`]). See
/// [`recover_dir_with`].
pub fn recover_matching_from_dir(dir: &Path, from_genesis: bool) -> Result<Recovery, String> {
    recover_dir_with(dir, matching_for, from_genesis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbdmm_graph::edge::EdgeId;
    use pbdmm_graph::update::Batch;
    use pbdmm_graph::wal::{write_batch, write_segment_header};
    use pbdmm_matching::verify::check_invariants;

    /// A one-segment log directory holding `batches` from genesis.
    fn log_dir(name: &str, batches: &[Batch]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pbdmm_replay_unit_{}_{name}.waldir",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let meta = WalMeta {
            structure: "matching".into(),
            seed: 11,
            ids_recycling: false,
        };
        let mut seg = Vec::new();
        write_segment_header(&mut seg, &meta, 0).unwrap();
        for (seq, b) in batches.iter().enumerate() {
            write_batch(&mut seg, seq as u64, b).unwrap();
        }
        std::fs::write(segment_path(&dir, 0), seg).unwrap();
        dir
    }

    #[test]
    fn replays_to_identical_state() {
        let batches = vec![
            Batch::new().inserts([vec![0, 1], vec![1, 2], vec![2, 3]]),
            Batch::new().delete(EdgeId(1)).insert(vec![3, 4]),
            Batch::new().deletes([EdgeId(0), EdgeId(3)]),
        ];
        // Reference: drive a structure directly with the same batches.
        let mut reference = DynamicMatching::with_seed(11);
        for b in &batches {
            reference.apply(b.clone()).unwrap();
        }
        let dir = log_dir("identical", &batches);
        let rec = recover_matching_from_dir(&dir, true).unwrap();
        assert_eq!(rec.report.batches, 3);
        assert_eq!(rec.report.updates, 7);
        let replayed = rec.structure;
        let mut a = reference.matching();
        let mut b = replayed.matching();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "matching state must reproduce exactly");
        assert_eq!(reference.num_edges(), replayed.num_edges());
        check_invariants(&replayed).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_emptied_but_used_targets() {
        // An emptied structure still fails freshness: its id counter is not
        // at 0, so recorded deletes would land on the wrong edges. Detected
        // on the first apply, before any recorded delete can resolve.
        let used = || {
            let mut m = DynamicMatching::with_seed(11);
            let ids = m.insert_edges(&[vec![0, 1]]);
            m.delete_edges(&ids);
            m
        };
        assert_eq!(used().num_edges(), 0);
        let dir = log_dir("emptied", &[Batch::new().insert(vec![2, 3])]);
        let err = recover_dir_with(&dir, |_: &WalMeta| Ok(used()), true)
            .err()
            .unwrap();
        assert!(err.contains("not fresh"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_ids_and_stale_targets() {
        let dir = log_dir("unknown", &[Batch::new().delete(EdgeId(5))]);
        let err = recover_matching_from_dir(&dir, true).err().unwrap();
        assert!(err.contains("unknown"), "{err}");
        // A forward reference is unknown too, whether or not the batch's
        // own inserts would assign the id: ids exist only after apply.
        for target in [EdgeId(0), EdgeId(7)] {
            let dir = log_dir("unknown", &[Batch::new().insert(vec![0, 1]).delete(target)]);
            let err = recover_matching_from_dir(&dir, true).err().unwrap();
            assert!(err.contains("delete of unknown edge"), "{err}");
        }
        // A structure holding a live edge is not fresh either.
        let stale = || {
            let mut m = DynamicMatching::with_seed(1);
            m.insert_edges(&[vec![0, 1]]);
            m
        };
        let dir = log_dir("unknown", &[Batch::new().insert(vec![2, 3])]);
        let err = recover_dir_with(&dir, |_: &WalMeta| Ok(stale()), true)
            .err()
            .unwrap();
        assert!(err.contains("fresh"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
