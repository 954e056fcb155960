//! Durable write-ahead log for mixed update [`Batch`]es.
//!
//! The format follows the [`crate::io`] conventions: plain text, one record
//! per line, whitespace-separated tokens, `#` starts a comment. A log is a
//! header followed by a sequence of *framed* batches:
//!
//! ```text
//! # pbdmm-wal v1
//! # structure: matching
//! # seed: 42
//! b 0          <- begin batch 0
//! d 17         <- delete the edge with id 17
//! i 0 1        <- insert the hyperedge {0, 1}
//! c 0          <- commit batch 0
//! b 1
//! ...
//! ```
//!
//! Two properties make this double as crash recovery *and* a trace-replay
//! harness:
//!
//! * **Insertions carry no edge id.** Ids are assigned deterministically by
//!   the structure at apply time (sequentially, in batch order), so replaying
//!   the same committed batch sequence into a fresh structure built with the
//!   same seed reassigns the identical ids — deletions recorded by id stay
//!   meaningful.
//! * **A batch is durable only once its `c` line is on disk.** The reader
//!   silently drops a trailing batch whose commit marker is missing (the
//!   writer crashed mid-append) and reports it via [`Wal::truncated`];
//!   everything committed before it replays normally.

use std::io::{BufRead, Write};

use crate::edge::{normalize_vertices, EdgeId};
use crate::update::{Batch, Update};

/// First line of every WAL file; the reader refuses anything else.
pub const WAL_MAGIC: &str = "pbdmm-wal v1";

/// Header metadata: which structure kind recorded the log and with which
/// RNG seed, so replay can rebuild an identically-seeded instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalMeta {
    /// Structure kind (`"matching"` or `"setcover"`; free-form for future
    /// structures — replayers dispatch on it).
    pub structure: String,
    /// The structure's private RNG seed at recording time.
    pub seed: u64,
    /// Whether the recording structure recycled deleted edge ids (the
    /// `# ids: recycling` header line; absent means monotonic). Replay must
    /// rebuild the structure in the same id mode, or recorded deletes land
    /// on the wrong edges.
    pub ids_recycling: bool,
}

impl Default for WalMeta {
    fn default() -> Self {
        WalMeta {
            structure: "matching".to_string(),
            seed: 0,
            ids_recycling: false,
        }
    }
}

/// A decoded log: header metadata plus every *committed* batch, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wal {
    /// Header metadata.
    pub meta: WalMeta,
    /// Sequence number of this log's first batch (the `# base:` header
    /// line). 0 for a standalone log; a rotated segment carries the running
    /// batch count at rotation, so segment continuity is checkable.
    pub base: u64,
    /// The committed batches, in append order.
    pub batches: Vec<Batch>,
    /// Whether a trailing uncommitted batch was dropped (torn final append).
    pub truncated: bool,
}

impl Wal {
    /// Total updates across all committed batches.
    pub fn total_updates(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }
}

/// Write the WAL header (magic + metadata comments) of a log whose first
/// batch carries sequence number `base`: 0 for a standalone log or a
/// directory's first segment, the running batch count for a segment
/// rotated at a checkpoint. Non-default header lines (`# ids:`,
/// `# base:`) are emitted only when needed, so a standalone log's bytes
/// are unchanged from the v1 format.
pub fn write_segment_header<W: Write>(w: &mut W, meta: &WalMeta, base: u64) -> std::io::Result<()> {
    writeln!(w, "# {WAL_MAGIC}")?;
    writeln!(w, "# structure: {}", meta.structure)?;
    writeln!(w, "# seed: {}", meta.seed)?;
    if meta.ids_recycling {
        writeln!(w, "# ids: recycling")?;
    }
    if base != 0 {
        writeln!(w, "# base: {base}")?;
    }
    Ok(())
}

/// Append one framed batch with sequence number `seq`. The batch is durable
/// once the trailing `c` line reaches stable storage (the caller decides
/// whether to flush and/or fsync).
pub fn write_batch<W: Write>(w: &mut W, seq: u64, batch: &Batch) -> std::io::Result<()> {
    writeln!(w, "b {seq}")?;
    for u in batch {
        write_update(w, u)?;
    }
    writeln!(w, "c {seq}")
}

/// Write one update record line (`d` or `i`).
fn write_update<W: Write>(w: &mut W, u: &Update) -> std::io::Result<()> {
    match u {
        Update::Delete(id) => writeln!(w, "d {}", id.raw()),
        Update::Insert(vs) => {
            let line: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            writeln!(w, "i {}", line.join(" "))
        }
    }
}

/// Strip a comment line (`# ...`, with arbitrary whitespace after the `#`)
/// down to its content, or `None` if `line` is not a comment line.
fn comment_body(line: &str) -> Option<&str> {
    line.trim().strip_prefix('#').map(str::trim)
}

/// Parse a WAL from reader contents. Errors name the offending line;
/// a trailing uncommitted batch is dropped (see [`Wal::truncated`]).
///
/// Crash tolerance covers *partial* tears too: a malformed line is a hard
/// error only when well-formed content follows it (real corruption). When
/// the malformed line is the last content in the file — `c 12` torn to
/// `c `, a half-written token, a truncated vertex list — it is the torn
/// final append: it and the open batch are dropped and `truncated` is set,
/// so every committed batch before the crash still recovers.
///
/// A `# route:` line is always a hard error: it marks a per-shard sub-batch
/// of the removed sharded layout, and replaying it as a whole batch would
/// silently rebuild the wrong history.
pub fn read_wal<R: BufRead>(reader: R) -> Result<Wal, String> {
    let mut meta = WalMeta::default();
    let mut base: u64 = 0;
    let mut batches: Vec<Batch> = Vec::new();
    let mut open: Option<(u64, Batch)> = None;
    let mut saw_magic = false;
    // A malformed line becomes a hard error only if more content follows
    // it; held here until that is known (EOF with a pending error = the
    // torn tail of a crashed append). Lines are read one at a time, but
    // every committed batch is kept in `batches`: memory grows with the
    // log, a whole segment per read (the whole history when a log never
    // rotates).
    let mut pending_err: Option<String> = None;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: io error: {e}", lineno + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(err) = pending_err {
            // Content after a malformed line: real corruption.
            return Err(err);
        }
        if comment_body(trimmed).is_some_and(|body| body.starts_with("route:")) {
            return Err(format!(
                "line {}: `# route:` marks a sub-batch of the removed sharded WAL \
                 layout, which this build cannot replay",
                lineno + 1
            ));
        }
        if let Err(msg) = parse_line(
            trimmed,
            lineno,
            &mut open,
            &mut batches,
            &mut meta,
            &mut base,
            &mut saw_magic,
        ) {
            if !saw_magic {
                // Header problems are never a torn append.
                return Err(msg);
            }
            pending_err = Some(msg);
        }
    }
    if !saw_magic {
        return Err(format!("empty input: expected `# {WAL_MAGIC}` header"));
    }
    let torn = pending_err.is_some();
    if torn {
        // The malformed line was the file's last content: the torn tail of
        // a crashed append. Drop it and the open batch; everything
        // committed before it stands.
        open = None;
    }
    Ok(Wal {
        truncated: open.is_some() || torn,
        meta,
        base,
        batches,
    })
}

/// Parse one non-empty WAL line into the reader state.
fn parse_line(
    trimmed: &str,
    lineno: usize,
    open: &mut Option<(u64, Batch)>,
    batches: &mut Vec<Batch>,
    meta: &mut WalMeta,
    base: &mut u64,
    saw_magic: &mut bool,
) -> Result<(), String> {
    let at = |msg: String| format!("line {}: {msg}", lineno + 1);
    if let Some(body) = comment_body(trimmed) {
        if !*saw_magic {
            if body != WAL_MAGIC {
                return Err(at(format!("not a WAL: expected `# {WAL_MAGIC}`")));
            }
            *saw_magic = true;
        } else if let Some(rest) = body.strip_prefix("structure:") {
            meta.structure = rest.trim().to_string();
        } else if let Some(rest) = body.strip_prefix("seed:") {
            meta.seed = rest
                .trim()
                .parse()
                .map_err(|e| at(format!("bad seed: {e}")))?;
        } else if let Some(rest) = body.strip_prefix("ids:") {
            meta.ids_recycling = match rest.trim() {
                "recycling" => true,
                "monotonic" => false,
                other => return Err(at(format!("unknown id mode {other:?}"))),
            };
        } else if let Some(rest) = body.strip_prefix("base:") {
            if !batches.is_empty() || open.is_some() {
                return Err(at("`# base:` after the first batch".into()));
            }
            *base = rest
                .trim()
                .parse()
                .map_err(|e| at(format!("bad base: {e}")))?;
        }
        return Ok(());
    }
    if !*saw_magic {
        return Err(at(format!("not a WAL: expected `# {WAL_MAGIC}`")));
    }
    let mut toks = trimmed.split_whitespace();
    let tag = toks.next().expect("non-empty line has a first token");
    match tag {
        "b" => {
            if open.is_some() {
                return Err(at("batch begun inside an open batch".into()));
            }
            let seq: u64 = toks
                .next()
                .ok_or_else(|| at("`b` needs a sequence number".into()))?
                .parse()
                .map_err(|e| at(format!("bad sequence number: {e}")))?;
            let expected = *base + batches.len() as u64;
            if seq != expected {
                return Err(at(format!(
                    "out-of-order batch: expected seq {expected}, got {seq}"
                )));
            }
            *open = Some((seq, Batch::new()));
        }
        "d" => {
            let (_, batch) = open
                .as_mut()
                .ok_or_else(|| at("`d` outside a batch".into()))?;
            let id: u64 = toks
                .next()
                .ok_or_else(|| at("`d` needs an edge id".into()))?
                .parse()
                .map_err(|e| at(format!("bad edge id: {e}")))?;
            batch.push(Update::Delete(EdgeId(id)));
        }
        "i" => {
            let (_, batch) = open
                .as_mut()
                .ok_or_else(|| at("`i` outside a batch".into()))?;
            let mut vs = Vec::new();
            for tok in toks {
                vs.push(
                    tok.parse()
                        .map_err(|e| at(format!("bad vertex id {tok:?}: {e}")))?,
                );
            }
            let vs = normalize_vertices(vs).ok_or_else(|| at("empty insert".into()))?;
            batch.push(Update::Insert(vs));
        }
        "c" => {
            let (seq, batch) = open
                .take()
                .ok_or_else(|| at("`c` without an open batch".into()))?;
            let commit: u64 = toks
                .next()
                .ok_or_else(|| at("`c` needs a sequence number".into()))?
                .parse()
                .map_err(|e| at(format!("bad sequence number: {e}")))?;
            if commit != seq {
                return Err(at(format!(
                    "commit seq {commit} does not match open batch {seq}"
                )));
            }
            batches.push(batch);
        }
        other => return Err(at(format!("unknown record tag {other:?}"))),
    }
    Ok(())
}

/// Parse a WAL from a file path.
pub fn read_wal_file(path: &std::path::Path) -> Result<Wal, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
    read_wal(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Wal, String> {
        read_wal(std::io::Cursor::new(s))
    }

    fn sample_batches() -> Vec<Batch> {
        vec![
            Batch::new().inserts([vec![0, 1], vec![1, 2, 3]]),
            Batch::new().delete(EdgeId(0)).insert(vec![4, 5]),
            Batch::new().deletes([EdgeId(1), EdgeId(2)]),
        ]
    }

    #[test]
    fn round_trips_batches_and_meta() {
        let meta = WalMeta {
            structure: "setcover".into(),
            seed: 99,
            ids_recycling: true,
        };
        let mut buf = Vec::new();
        write_segment_header(&mut buf, &meta, 0).unwrap();
        for (seq, b) in sample_batches().iter().enumerate() {
            write_batch(&mut buf, seq as u64, b).unwrap();
        }
        let wal = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(wal.meta, meta);
        assert_eq!(wal.batches, sample_batches());
        assert!(!wal.truncated);
        assert_eq!(wal.total_updates(), 6);
    }

    #[test]
    fn trailing_uncommitted_batch_is_dropped() {
        let mut buf = Vec::new();
        write_segment_header(&mut buf, &WalMeta::default(), 0).unwrap();
        write_batch(&mut buf, 0, &Batch::new().insert(vec![0, 1])).unwrap();
        // A torn append: `b`/`i` written, crash before `c`.
        buf.extend_from_slice(b"b 1\ni 2 3\n");
        let wal = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(wal.batches.len(), 1);
        assert!(wal.truncated);
    }

    #[test]
    fn insert_lines_normalize_vertices() {
        let wal = parse("# pbdmm-wal v1\nb 0\ni 3 1 3 2\nc 0\n").unwrap();
        assert_eq!(wal.batches[0].as_slice(), &[Update::Insert(vec![1, 2, 3])]);
    }

    #[test]
    fn tolerant_header_spellings() {
        let wal = parse("#   pbdmm-wal v1\n#structure:   setcover\n#seed:7\n").unwrap();
        assert_eq!(wal.meta.structure, "setcover");
        assert_eq!(wal.meta.seed, 7);
        assert!(!wal.meta.ids_recycling);
        assert_eq!(wal.base, 0);
    }

    #[test]
    fn segment_headers_round_trip_base_and_id_mode() {
        let meta = WalMeta {
            ids_recycling: true,
            ..Default::default()
        };
        let mut buf = Vec::new();
        write_segment_header(&mut buf, &meta, 42).unwrap();
        write_batch(&mut buf, 42, &Batch::new().insert(vec![0, 1])).unwrap();
        write_batch(&mut buf, 43, &Batch::new().insert(vec![2, 3])).unwrap();
        let wal = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(wal.base, 42);
        assert!(wal.meta.ids_recycling);
        assert_eq!(wal.batches.len(), 2);
        // Batch seqs must continue from the base exactly.
        assert!(parse("# pbdmm-wal v1\n# base: 5\nb 0\nc 0\nb 6\nc 6\n").is_err());
        // A base line after content is corruption, not metadata.
        assert!(parse("# pbdmm-wal v1\nb 0\nc 0\n# base: 5\nb 5\nc 5\n").is_err());
        // A standalone header stays byte-compatible (no new lines).
        let mut plain = Vec::new();
        write_segment_header(&mut plain, &WalMeta::default(), 0).unwrap();
        assert_eq!(
            std::str::from_utf8(&plain).unwrap(),
            "# pbdmm-wal v1\n# structure: matching\n# seed: 0\n"
        );
    }

    #[test]
    fn partial_final_line_tears_are_dropped() {
        // Commit marker torn mid-token: the committed prefix recovers.
        let wal = parse("# pbdmm-wal v1\nb 0\ni 0 1\nc 0\nb 1\ni 2 3\nc ").unwrap();
        assert_eq!(wal.batches.len(), 1);
        assert!(wal.truncated);
        // Half-written record tag.
        let wal = parse("# pbdmm-wal v1\nb 0\ni 0 1\nc 0\nb 1\nin").unwrap();
        assert_eq!(wal.batches.len(), 1);
        assert!(wal.truncated);
        // Torn mid-number: `d 35` persisted as `d 3x`? no — but `b 1` torn
        // to `b` alone is a tear too.
        let wal = parse("# pbdmm-wal v1\nb 0\ni 0 1\nc 0\nb").unwrap();
        assert_eq!(wal.batches.len(), 1);
        assert!(wal.truncated);
        // A contextually invalid LAST line is also treated as a tear (e.g.
        // `c 12` torn to `c 1` can mimic a commit mismatch): nothing
        // committed is lost, and `truncated` reports the drop.
        let wal = parse("# pbdmm-wal v1\nd 3\n").unwrap();
        assert!(wal.batches.is_empty());
        assert!(wal.truncated);
    }

    #[test]
    fn rejects_route_lines_of_the_removed_sharded_layout() {
        // A committed sub-batch of a per-shard log: read as a plain batch it
        // would replay one shard's slice as the whole global batch.
        let err = parse("# pbdmm-wal v1\nb 0\n# route: 0 2\nd 7\ni 2 3\nc 0\n").unwrap_err();
        assert!(err.contains("sharded"), "{err}");
        // An empty route (a shard that owned nothing of the batch), a route
        // outside a frame, and a route as the file's last line: all refused,
        // none dropped as a torn tail.
        for log in [
            "# pbdmm-wal v1\nb 0\n# route:\nc 0\n",
            "# pbdmm-wal v1\n# route: 0\nb 0\nc 0\n",
            "# pbdmm-wal v1\nb 0\ni 0 1\nc 0\nb 1\n# route: 1",
        ] {
            assert!(parse(log).is_err(), "{log:?}");
        }
        // Other unknown comments stay ignorable.
        let wal = parse("# pbdmm-wal v1\n# note: hi\nb 0\ni 0 1\nc 0\n").unwrap();
        assert_eq!(wal.batches.len(), 1);
    }

    #[test]
    fn rejects_malformed_logs() {
        assert!(parse("").is_err(), "empty input");
        assert!(parse("b 0\nc 0\n").is_err(), "missing magic");
        assert!(parse("# some other file\n").is_err(), "wrong magic");
        // Malformed content *followed by more content* is corruption, not a
        // torn tail — every case below has a well-formed line after the
        // offending one.
        assert!(
            parse("# pbdmm-wal v1\nd 3\nb 0\nc 0\n").is_err(),
            "record outside batch"
        );
        assert!(
            parse("# pbdmm-wal v1\nb 0\nb 1\nc 1\n").is_err(),
            "nested begin"
        );
        assert!(
            parse("# pbdmm-wal v1\nb 0\nc 1\nb 1\nc 1\n").is_err(),
            "commit mismatch"
        );
        assert!(
            parse("# pbdmm-wal v1\nb 1\nc 1\n").is_err(),
            "gap in sequence"
        );
        assert!(
            parse("# pbdmm-wal v1\nb 0\ni\nc 0\n").is_err(),
            "empty insert"
        );
        assert!(
            parse("# pbdmm-wal v1\nb 0\nq 1\nc 0\n").is_err(),
            "unknown tag"
        );
        assert!(parse("# pbdmm-wal v1\nb 0\nd x\nc 0\n").is_err(), "bad id");
    }
}
