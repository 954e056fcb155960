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
//!   writer crashed mid-append) and reports it via
//!   [`SegmentReader::torn`]; everything committed before it replays
//!   normally.
//!
//! [`SegmentReader`] streams a log file: opening it reads the header, and
//! each step yields the next committed batch, so a reader holds one batch
//! at a time, however long the log.

use std::io::{BufRead, Write};
use std::path::Path;

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

/// A streaming reader over one log file (a segment of a WAL directory).
///
/// [`SegmentReader::open`] parses the header (magic, structure, seed, id
/// mode, base) and stops at the first batch line. Iterating yields each
/// committed [`Batch`] in order, then `None`.
///
/// Errors name the offending line. A malformed line is a hard error only
/// when content follows it (real corruption). As the file's last content —
/// `c 12` torn to `c `, a half-written token, a header line cut mid-write —
/// it is the torn tail of a crashed write: it and the open batch are
/// dropped and [`SegmentReader::torn`] is set, as for a batch missing its
/// `c` line. A `# route:` line (a sub-batch of the removed sharded layout,
/// which would replay as a whole batch) and a header line after the first
/// batch are hard errors wherever they stand.
pub struct SegmentReader<R> {
    input: std::io::Lines<R>,
    /// Number of the last line read (1-based).
    lineno: usize,
    /// The first batch line, read by `open` to find the end of the header.
    held: Option<String>,
    meta: WalMeta,
    base: u64,
    saw_magic: bool,
    in_header: bool,
    /// The batch between its `b` and `c` lines, with its sequence number.
    open: Option<(u64, Batch)>,
    committed: u64,
    torn: bool,
    done: bool,
}

impl SegmentReader<std::io::BufReader<std::fs::File>> {
    /// Open the log file at `path` and read its header.
    pub fn open_file(path: &Path) -> Result<Self, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
        SegmentReader::open(std::io::BufReader::new(file))
    }
}

impl<R: BufRead> SegmentReader<R> {
    /// Read the header from `input`. A header cut short by a crash is no
    /// error: the reader reports [`Self::torn`] and yields no batch.
    pub fn open(input: R) -> Result<Self, String> {
        let mut r = SegmentReader {
            input: input.lines(),
            lineno: 0,
            held: None,
            meta: WalMeta::default(),
            base: 0,
            saw_magic: false,
            in_header: true,
            open: None,
            committed: 0,
            torn: false,
            done: false,
        };
        while r.in_header && !r.done {
            r.advance()?;
        }
        Ok(r)
    }

    /// Header metadata; a line the header lacks keeps its default.
    pub fn meta(&self) -> &WalMeta {
        &self.meta
    }

    /// Sequence number of this log's first batch (the `# base:` header
    /// line): 0 for a standalone log, the running batch count at rotation
    /// for a rotated segment.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Whether the file ends in a tear: a missing or cut-short header, or a
    /// final append that never committed. Right after [`Self::open`] it
    /// covers the header; once iteration has returned `None`, the file.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// The next non-blank line, or `None` at end of input.
    fn next_line(&mut self) -> Result<Option<String>, String> {
        for line in self.input.by_ref() {
            self.lineno += 1;
            let line = line.map_err(|e| format!("line {}: io error: {e}", self.lineno))?;
            if !line.trim().is_empty() {
                return Ok(Some(line));
            }
        }
        Ok(None)
    }

    /// Consume one non-blank line; hands back the batch a `c` line commits.
    fn advance(&mut self) -> Result<Option<Batch>, String> {
        let line = match self.held.take() {
            Some(line) => Some(line),
            None => self.next_line()?,
        };
        let Some(line) = line else {
            // End of input: an open batch never committed, and a file
            // without its magic line holds a header that was never written.
            self.done = true;
            self.torn |= self.open.take().is_some() || !self.saw_magic;
            return Ok(None);
        };
        let comment = comment_body(&line);
        if comment.is_some_and(|body| body.starts_with("route:")) {
            return Err(format!(
                "line {}: `# route:` marks a sub-batch of the removed sharded WAL \
                 layout, which this build cannot replay",
                self.lineno
            ));
        }
        if self.in_header && self.saw_magic && comment.is_none() {
            // The first batch line ends the header; `open` stops before it.
            self.in_header = false;
            self.held = Some(line);
            return Ok(None);
        }
        let msg = match self.parse_line(line.trim()) {
            Ok(batch) => return Ok(batch),
            Err(msg) => msg,
        };
        if self.next_line()?.is_some() {
            // Content after a malformed line: real corruption.
            return Err(msg);
        }
        // The malformed line was the file's last content: the torn tail of
        // a crashed write. Everything committed before it stands.
        self.done = true;
        self.torn = true;
        self.open = None;
        Ok(None)
    }

    /// Parse one non-blank line into the reader state; a `c` line hands
    /// back the batch it commits.
    fn parse_line(&mut self, trimmed: &str) -> Result<Option<Batch>, String> {
        let lineno = self.lineno;
        let at = |msg: String| format!("line {lineno}: {msg}");
        if let Some(body) = comment_body(trimmed) {
            if !self.saw_magic {
                if body != WAL_MAGIC {
                    return Err(at(format!("not a WAL: expected `# {WAL_MAGIC}`")));
                }
                self.saw_magic = true;
                return Ok(None);
            }
            // Other comments are free-form and ignored.
            let Some((key, value)) = body.split_once(':') else {
                return Ok(None);
            };
            let value = value.trim();
            match key {
                "structure" | "seed" | "ids" | "base" if !self.in_header => {
                    return Err(at(format!("`# {key}:` after the first batch")));
                }
                "structure" => self.meta.structure = value.to_string(),
                "seed" => {
                    self.meta.seed = value.parse().map_err(|e| at(format!("bad seed: {e}")))?;
                }
                "ids" => {
                    self.meta.ids_recycling = match value {
                        "recycling" => true,
                        "monotonic" => false,
                        other => return Err(at(format!("unknown id mode {other:?}"))),
                    };
                }
                "base" => self.base = value.parse().map_err(|e| at(format!("bad base: {e}")))?,
                _ => {}
            }
            return Ok(None);
        }
        if !self.saw_magic {
            return Err(at(format!("not a WAL: expected `# {WAL_MAGIC}`")));
        }
        let mut toks = trimmed.split_whitespace();
        let tag = toks.next().expect("non-empty line has a first token");
        match tag {
            "b" => {
                if self.open.is_some() {
                    return Err(at("batch begun inside an open batch".into()));
                }
                let seq: u64 = toks
                    .next()
                    .ok_or_else(|| at("`b` needs a sequence number".into()))?
                    .parse()
                    .map_err(|e| at(format!("bad sequence number: {e}")))?;
                // `seq + 1`, the next batch's number, must fit as well.
                let expected = match self.base.checked_add(self.committed) {
                    Some(expected) if expected < u64::MAX => expected,
                    _ => return Err(at("batch sequence number overflows u64".into())),
                };
                if seq != expected {
                    return Err(at(format!(
                        "out-of-order batch: expected seq {expected}, got {seq}"
                    )));
                }
                self.open = Some((seq, Batch::new()));
            }
            "d" => {
                let (_, batch) = self
                    .open
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
                let (_, batch) = self
                    .open
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
                let (seq, batch) = self
                    .open
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
                self.committed += 1;
                return Ok(Some(batch));
            }
            other => return Err(at(format!("unknown record tag {other:?}"))),
        }
        Ok(None)
    }
}

impl<R: BufRead> Iterator for SegmentReader<R> {
    type Item = Result<Batch, String>;

    /// The next committed batch; `None` at the end of the file, and after
    /// an error.
    fn next(&mut self) -> Option<Result<Batch, String>> {
        while !self.done {
            if let Some(step) = self.advance().transpose() {
                self.done |= step.is_err();
                return Some(step);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a reader gets out of one log.
    #[derive(Debug)]
    struct Log {
        meta: WalMeta,
        base: u64,
        batches: Vec<Batch>,
        torn: bool,
    }

    fn parse(s: &str) -> Result<Log, String> {
        let mut r = SegmentReader::open(s.as_bytes())?;
        let batches = r.by_ref().collect::<Result<_, _>>()?;
        Ok(Log {
            meta: r.meta().clone(),
            base: r.base(),
            batches,
            torn: r.torn(),
        })
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
        assert!(!wal.torn);
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
        assert!(wal.torn);
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
        assert!(!wal.torn, "a complete header without batches");
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
        // A header line after content is corruption, not metadata.
        assert!(parse("# pbdmm-wal v1\nb 0\nc 0\n# base: 5\nb 5\nc 5\n").is_err());
        assert!(parse("# pbdmm-wal v1\nb 0\nc 0\n# seed: 5\nb 1\nc 1\n").is_err());
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
        assert!(wal.torn);
        // Half-written record tag.
        let wal = parse("# pbdmm-wal v1\nb 0\ni 0 1\nc 0\nb 1\nin").unwrap();
        assert_eq!(wal.batches.len(), 1);
        assert!(wal.torn);
        // `b 1` torn to `b` alone is a tear too.
        let wal = parse("# pbdmm-wal v1\nb 0\ni 0 1\nc 0\nb").unwrap();
        assert_eq!(wal.batches.len(), 1);
        assert!(wal.torn);
        // A contextually invalid LAST line is also treated as a tear (e.g.
        // `c 12` torn to `c 1` can mimic a commit mismatch): nothing
        // committed is lost, and `torn` reports the drop.
        // So is a header cut anywhere: nothing written, the magic or a
        // metadata line cut mid-token.
        for log in [
            "# pbdmm-wal v1\nd 3\n",
            "",
            "# pbdm",
            "# pbdmm-wal v1\n# seed: ",
            "# pbdmm-wal v1\n# seed: 7\n# ids: recyc",
        ] {
            let wal = parse(log).unwrap_or_else(|e| panic!("{log:?}: {e}"));
            assert!(wal.torn && wal.batches.is_empty(), "{log:?}");
        }
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
        // Malformed content *followed by more content* is corruption, not a
        // torn tail — every case below has a well-formed line after the
        // offending one.
        for (log, what) in [
            ("b 0\nc 0\n", "missing magic"),
            ("# some other file\nb 0\n", "wrong magic"),
            ("# pbdmm-wal v1\n# seed: \nb 0\nc 0\n", "bad seed"),
            ("# pbdmm-wal v1\n# ids: recyc\n# base: 4\n", "bad id mode"),
            ("# pbdmm-wal v1\nd 3\nb 0\nc 0\n", "record outside batch"),
            ("# pbdmm-wal v1\nb 0\nb 1\nc 1\n", "nested begin"),
            ("# pbdmm-wal v1\nb 0\nc 1\nb 1\nc 1\n", "commit mismatch"),
            ("# pbdmm-wal v1\nb 1\nc 1\n", "gap in sequence"),
            ("# pbdmm-wal v1\nb 0\ni\nc 0\n", "empty insert"),
            ("# pbdmm-wal v1\nb 0\nq 1\nc 0\n", "unknown tag"),
            ("# pbdmm-wal v1\nb 0\nd x\nc 0\n", "bad id"),
        ] {
            assert!(parse(log).is_err(), "{what}");
        }
    }
}
