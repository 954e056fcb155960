//! Deterministic WAL replay: rebuild a structure from a recorded log.
//!
//! Replay doubles as crash recovery (reconstruct the pre-crash state from
//! the committed prefix) and as a trace-replay harness (drive any
//! [`BatchDynamic`] with a real recorded update stream, e.g. for
//! benchmarking).
//!
//! Determinism argument: the WAL records committed batches in apply order;
//! insertions carry no ids because the structure assigns them sequentially
//! at apply time, so applying the identical batch sequence to a **fresh**
//! structure built with the **same seed** reassigns the identical ids and —
//! since the structure's coins are a function of its seed alone — reproduces
//! the exact final state, matching included.

use std::path::{Path, PathBuf};

use pbdmm_graph::wal::{read_wal_file, Wal, WalMeta};
use pbdmm_matching::api::BatchDynamic;
use pbdmm_matching::checkpoint::Checkpoint;
use pbdmm_matching::DynamicMatching;
use pbdmm_setcover::DynamicSetCover;

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

/// Replay a decoded log from genesis into `s`, which must be **fresh** (no
/// edges ever inserted — id assignment starts at 0) and seeded per the WAL
/// metadata for exact reproduction.
///
/// The log must start at batch 0. A rotated segment (`# base: N`, N > 0)
/// holds only the batches after a checkpoint, and replaying it alone from
/// a fresh structure would build a state that never existed; replay its
/// directory instead ([`recover_dir_with`]).
pub fn replay_into<S: BatchDynamic>(s: &mut S, wal: &Wal) -> Result<ReplayReport, String> {
    if wal.base != 0 {
        return Err(format!(
            "log starts at batch {} (`# base: {}`): it is a segment from the middle \
             of a WAL directory, not a whole log; replay the directory instead",
            wal.base, wal.base
        ));
    }
    if s.num_edges() != 0 {
        return Err("replay target must be a fresh structure".into());
    }
    let mut report = ReplayReport::default();
    apply_logged(s, wal, true, &mut report)?;
    Ok(report)
}

/// Apply every committed batch of `wal` to `s`, in order — the one loop
/// behind [`replay_into`] and segment-directory recovery. Errors name the
/// batch by its global sequence (`wal.base` + position).
///
/// Each batch goes through the coalescer's planner first, so a delete of an
/// edge that is not live, or an insert with an empty vertex set, fails with
/// its batch number instead of a bare `apply` error. A live recorder logs
/// neither, so any rejection means the log is corrupt or hand-written.
///
/// With `fresh`, the first insert-bearing apply must assign ids 0, 1, 2, …
/// — a fresh structure does so in either id mode, while one that is empty
/// but has handed out ids before would silently shift every recorded
/// delete onto the wrong edge. (Later applies are not checked: a recycling
/// structure legitimately reuses freed ids from then on.)
fn apply_logged<S: BatchDynamic>(
    s: &mut S,
    wal: &Wal,
    fresh: bool,
    report: &mut ReplayReport,
) -> Result<(), String> {
    let mut verify_ids = fresh;
    for (i, batch) in wal.batches.iter().enumerate() {
        let seq = wal.base + i as u64;
        let plan = plan_batch(batch.as_slice().to_vec(), |id| s.contains_edge(id));
        for slot in &plan.slots {
            match slot {
                Slot::RejectUnknown(id) => {
                    return Err(format!("batch {seq}: delete of unknown edge {id}"));
                }
                Slot::RejectEmpty => {
                    return Err(format!("batch {seq}: insert with empty vertex set"));
                }
                Slot::InBatch(_) | Slot::DuplicateDelete(_) => {}
            }
        }
        if !plan.batch.is_empty() {
            report.updates += plan.batch.len() as u64;
            report.applies += 1;
            let out = s
                .apply(plan.batch)
                .map_err(|e| format!("batch {seq}: {e}"))?;
            if verify_ids && !out.inserted.is_empty() {
                for (k, id) in out.inserted.iter().enumerate() {
                    if id.raw() != k as u64 {
                        return Err(format!(
                            "replay target is not fresh: expected insert id e{k}, \
                             structure assigned {id} (its id counter is not at 0); \
                             the target state is now unspecified"
                        ));
                    }
                }
                verify_ids = false;
            }
        }
        report.batches += 1;
    }
    Ok(())
}

/// The fresh [`DynamicMatching`] a WAL header describes: the recorded seed
/// and id-allocation mode. Every replay and recovery entry point builds its
/// structure here — one built in the wrong id mode lands recorded deletes
/// on the wrong edges. Errors when the log records another structure.
pub fn matching_for(meta: &WalMeta) -> Result<DynamicMatching, String> {
    if meta.structure != "matching" {
        return Err(format!(
            "WAL records structure {:?}, not a matching",
            meta.structure
        ));
    }
    let mut m = DynamicMatching::with_seed(meta.seed);
    m.set_recycle_ids(meta.ids_recycling);
    Ok(m)
}

/// The fresh [`DynamicSetCover`] a WAL header describes, as
/// [`matching_for`] is for matchings. A cover allocates only monotonic
/// ids, so a header recording recycled ids is refused: replayed with
/// monotonic ids, a logged delete of a reused id would remove another
/// element than the one logged.
pub fn cover_for(meta: &WalMeta) -> Result<DynamicSetCover, String> {
    match (meta.structure.as_str(), meta.ids_recycling) {
        ("setcover", false) => Ok(DynamicSetCover::with_seed(meta.seed)),
        ("setcover", true) => Err("WAL records `# ids: recycling`, but a set cover \
                                   allocates only monotonic ids"
            .into()),
        (other, _) => Err(format!("WAL records structure {other:?}, not a set cover")),
    }
}

/// Replay a WAL recorded over a [`DynamicMatching`]: builds the structure
/// its header describes ([`matching_for`]) and replays every committed
/// batch.
pub fn replay_matching(wal: &Wal) -> Result<(DynamicMatching, ReplayReport), String> {
    let mut m = matching_for(&wal.meta)?;
    let report = replay_into(&mut m, wal)?;
    Ok((m, report))
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

/// The header metadata of a WAL directory, read from its oldest segment
/// (replay validates every other segment against it).
pub fn wal_dir_meta(dir: &Path) -> Result<WalMeta, String> {
    oldest_segment_meta(dir, &list_wal_dir(dir)?)
}

fn oldest_segment_meta(dir: &Path, contents: &WalDirContents) -> Result<WalMeta, String> {
    let (_, oldest) = contents
        .segments
        .first()
        .ok_or_else(|| format!("WAL dir {} contains no segments", dir.display()))?;
    Ok(read_wal_file(oldest)
        .map_err(|e| format!("{}: {e}", oldest.display()))?
        .meta)
}

/// Outcome of [`recover_dir_with`]: the reconstructed structure plus what
/// recovery actually did (which checkpoint it loaded, how much log it
/// replayed).
pub struct Recovery<S> {
    /// The reconstructed structure, ready to serve or resume appending.
    pub structure: S,
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

impl<S> Recovery<S> {
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

/// Replay the contiguous run of segments starting at sequence `start` into
/// `s`, validating filename/header agreement and segment contiguity.
/// Returns `(next_seq, segments_replayed, truncated)`.
fn replay_segments_from<S: BatchDynamic>(
    s: &mut S,
    segments: &[(u64, PathBuf)],
    start: u64,
    meta: &WalMeta,
    report: &mut ReplayReport,
) -> Result<(u64, u64, bool), String> {
    let first = segments
        .iter()
        .position(|&(base, _)| base == start)
        .ok_or_else(|| {
            format!("no segment starts at batch {start} (history compacted away or missing)")
        })?;
    let tail = &segments[first..];
    let mut expected = start;
    let mut replayed = 0u64;
    let mut truncated = false;
    for (i, (base, path)) in tail.iter().enumerate() {
        let is_last = i + 1 == tail.len();
        if *base != expected {
            return Err(format!(
                "gap in WAL segments: {} starts at batch {base}, expected {expected}",
                path.display()
            ));
        }
        let wal = match read_wal_file(path) {
            Ok(wal) => wal,
            // An unreadable *final* segment is a torn rotation (crash while
            // the new segment file was being created): nothing committed can
            // live in it, so recovery keeps the prefix instead of erroring.
            Err(_) if is_last => {
                truncated = true;
                break;
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        if wal.base != *base || wal.meta != *meta {
            // Same torn-rotation tolerance: a final segment whose header
            // was cut mid-write parses with default/partial metadata. It is
            // only forgivable when it carries no committed batches — the
            // writer appends strictly after a clean header.
            if is_last && wal.batches.is_empty() {
                truncated = true;
                break;
            }
            if wal.base != *base {
                return Err(format!(
                    "{}: header says base {}, filename says {base}",
                    path.display(),
                    wal.base
                ));
            }
            return Err(format!(
                "{}: segment metadata disagrees with the rest of the log",
                path.display()
            ));
        }
        apply_logged(s, &wal, false, report)?;
        expected += wal.batches.len() as u64;
        replayed += 1;
        if wal.truncated {
            // A torn append is tolerable only at the very end of the log:
            // the writer rotates strictly after a clean append+apply, so a
            // mid-chain segment that reads as torn is corruption — unless
            // the next segment picks up exactly where the readable prefix
            // ends (then the "torn" bytes were a rolled-back batch).
            match tail.get(i + 1) {
                None => truncated = true,
                Some((next_base, next_path)) if *next_base != expected => {
                    return Err(format!(
                        "{}: torn mid-log segment ({} committed batches, next \
                         segment {} starts at {next_base})",
                        path.display(),
                        expected,
                        next_path.display()
                    ));
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
/// `make` builds a fresh structure (correct seed and id mode) each time a
/// starting point is tried: checkpoints are read whole and attempted newest
/// to oldest, a torn, corrupt or foreign one (a `pbdmm-ckpt v1` text
/// checkpoint, say) falls back to the next older, and when none is usable
/// (or `from_genesis` is set) the whole log replays from segment 0.
/// Recovery therefore never errors on a bad checkpoint alone — only on
/// genuine log corruption or compacted-away history it cannot bridge, and
/// then the error names every checkpoint it refused and why.
pub fn recover_dir_with<S, F>(
    dir: &Path,
    mut make: F,
    from_genesis: bool,
) -> Result<Recovery<S>, String>
where
    S: BatchDynamic + Checkpoint,
    F: FnMut() -> S,
{
    let contents = list_wal_dir(dir)?;
    let meta = oldest_segment_meta(dir, &contents)?;
    let mut refused: Vec<String> = Vec::new();
    if !from_genesis {
        for (seq, path) in contents.checkpoints.iter().rev() {
            let mut s = make();
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
                // The segment run starting at this checkpoint is unusable
                // (e.g. its segment was lost); an older checkpoint starts
                // further back and may bridge the gap.
                Err(e) => refused.push(format!("{}: loaded, but its tail: {e}", path.display())),
            }
        }
    }
    // Genesis: the full history must still be on disk.
    let mut s = make();
    let mut report = ReplayReport::default();
    let (next_seq, segments_replayed, truncated) =
        replay_segments_from(&mut s, &contents.segments, 0, &meta, &mut report).map_err(|e| {
            if refused.is_empty() {
                e
            } else {
                format!("{e}; refused checkpoints: {}", refused.join("; "))
            }
        })?;
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
pub fn recover_matching_from_dir(
    dir: &Path,
    from_genesis: bool,
) -> Result<Recovery<DynamicMatching>, String> {
    let meta = wal_dir_meta(dir)?;
    matching_for(&meta)?;
    recover_dir_with(
        dir,
        move || matching_for(&meta).expect("header checked above"),
        from_genesis,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbdmm_graph::edge::EdgeId;
    use pbdmm_graph::update::Batch;
    use pbdmm_graph::wal::WalMeta;
    use pbdmm_matching::verify::check_invariants;

    fn wal_of(batches: Vec<Batch>) -> Wal {
        Wal {
            meta: WalMeta {
                structure: "matching".into(),
                seed: 11,
                ids_recycling: false,
            },
            base: 0,
            batches,
            truncated: false,
        }
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
        let (replayed, report) = replay_matching(&wal_of(batches)).unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(report.updates, 7);
        let mut a = reference.matching();
        let mut b = replayed.matching();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "matching state must reproduce exactly");
        assert_eq!(reference.num_edges(), replayed.num_edges());
        check_invariants(&replayed).unwrap();
    }

    #[test]
    fn rejects_emptied_but_used_targets() {
        // An emptied structure still fails freshness: its id counter is not
        // at 0, so recorded deletes would land on the wrong edges. Detected
        // on the first apply, before any recorded delete can resolve.
        let mut used = DynamicMatching::with_seed(11);
        let ids = used.insert_edges(&[vec![0, 1]]);
        used.delete_edges(&ids);
        assert_eq!(used.num_edges(), 0);
        let err =
            replay_into(&mut used, &wal_of(vec![Batch::new().insert(vec![2, 3])])).unwrap_err();
        assert!(err.contains("not fresh"), "{err}");
    }

    #[test]
    fn rejects_unknown_ids_and_stale_targets() {
        let err = replay_matching(&wal_of(vec![Batch::new().delete(EdgeId(5))])).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
        // A forward reference is unknown too, whether or not the batch's
        // own inserts would assign the id: ids exist only after apply.
        for target in [EdgeId(0), EdgeId(7)] {
            let err = replay_matching(&wal_of(vec![Batch::new()
                .insert(vec![0, 1])
                .delete(target)]))
            .unwrap_err();
            assert!(err.contains("delete of unknown edge"), "{err}");
        }
        // Fresh-structure precondition.
        let mut used = DynamicMatching::with_seed(1);
        used.insert_edges(&[vec![0, 1]]);
        let err = replay_into(&mut used, &wal_of(vec![])).unwrap_err();
        assert!(err.contains("fresh"), "{err}");
    }
}
