//! Checkpoint serialization: dump a [`DynamicMatching`]'s complete state at
//! a batch boundary and restore it into a fresh structure, so recovery can
//! replay only the WAL tail written *after* the checkpoint instead of the
//! whole history.
//!
//! The format follows the WAL conventions (plain text, one record per line,
//! whitespace-separated tokens, `#` comments) and is *exact*: a restored
//! structure continues the update stream with byte-identical behaviour —
//! same ids, same coin flips, same settlement order. That requires
//! serializing more than the logical matching:
//!
//! * the RNG **state** (the algorithm's private coins resume mid-stream);
//! * the id allocator (monotonic next-id, or the recycling free list in
//!   LIFO order — reuse order is deterministic and observable through ids);
//! * table **high-water marks** and live-list **order** (iteration order of
//!   the edge/match slabs feeds batch processing);
//! * the per-vertex level bags **verbatim**, including emptied bags that
//!   only persist as capacity — their first-touch order drives
//!   `adjustCrossEdges` iteration and hence settlement outcomes.
//!
//! Derived state (edge types, owners, back-pointers) is *not* dumped: it is
//! recomputed on load from the match records and bags, which doubles as a
//! structural integrity check on the checkpoint. A well-formed file ends
//! with a `# end` trailer; recovery treats a file without it as torn and
//! falls back to an older checkpoint.
//!
//! ```text
//! # pbdmm-ckpt v1
//! # structure: matching
//! rng 12345                    <- SplitMix64 state
//! ids monotonic 17             <- or: ids recycling <high_water> <free...>
//! rank 2
//! config 1 4 0                 <- gap_log2 heavy_factor all_light
//! stats <13 counters>
//! meter <work> <depth> <rounds> <- the CostMeter (absent: restored at 0)
//! edges <high_water> <count>
//! e 3 0 1                      <- edge 3 = {0, 1}, in live-list order
//! matches <high_water> <count>
//! m 3 1 2                      <- match 3 at level 1, initial sample 2
//! s 3 5                        <- its sample space S(m)
//! c 7 9                        <- its cross edges C(m)
//! vertices <len>
//! b 0 1 7                      <- P(v=0, l=1) = [7], in bag-vector order
//! # end
//! ```

use std::io::{BufRead, Write};

use pbdmm_graph::edge::{EdgeId, VertexId};
use pbdmm_primitives::cost::CostSnapshot;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::slab::Slab;

use crate::dynamic::{DynamicMatching, IdAlloc};
use crate::level::{EdgeRec, EdgeType, Level, LevelingConfig, MatchRec};

/// First line of every checkpoint file; the reader refuses anything else.
pub const CKPT_MAGIC: &str = "pbdmm-ckpt v1";

/// Trailer line marking a checkpoint as completely written. Recovery
/// requires it before even attempting a semantic load, so a torn checkpoint
/// (crash mid-write) is cheaply distinguished from a corrupt one.
pub const CKPT_END: &str = "end";

/// Structures that can serialize their complete state for segment-boundary
/// checkpoints. Every served structure implements it: recovery loads the
/// newest intact checkpoint and replays only the log after it.
pub trait Checkpoint {
    /// Serialize the complete state to `w`. The stream ends with the
    /// `# end` trailer; the caller owns durability (flush/fsync/rename).
    fn write_checkpoint(&self, w: &mut dyn Write) -> std::io::Result<()>;

    /// Restore state from `r` into `self`, which must be freshly
    /// constructed (no updates applied). Errors name the offending line
    /// and leave `self` unusable — build a new instance before retrying.
    fn read_checkpoint(&mut self, r: &mut dyn BufRead) -> Result<(), String>;
}

impl Checkpoint for DynamicMatching {
    fn write_checkpoint(&self, w: &mut dyn Write) -> std::io::Result<()> {
        writeln!(w, "# {CKPT_MAGIC}")?;
        writeln!(w, "# structure: matching")?;
        writeln!(w, "rng {}", self.rng.state())?;
        match &self.ids {
            IdAlloc::Monotonic { next } => writeln!(w, "ids monotonic {next}")?,
            IdAlloc::Recycling { slots } => {
                write!(w, "ids recycling {}", slots.high_water())?;
                for &f in slots.free_list() {
                    write!(w, " {f}")?;
                }
                writeln!(w)?;
            }
        }
        writeln!(w, "rank {}", self.max_rank)?;
        let cfg = self.s.config;
        writeln!(
            w,
            "config {} {} {}",
            cfg.gap_log2, cfg.heavy_factor, cfg.all_light as u8
        )?;
        let st = &self.stats;
        writeln!(
            w,
            "stats {} {} {} {} {} {} {} {} {} {} {} {} {}",
            st.epochs_created,
            st.sample_mass_created,
            st.natural_epochs,
            st.natural_sample_mass,
            st.stolen_epochs,
            st.stolen_sample_mass,
            st.bloated_epochs,
            st.bloated_sample_mass,
            st.total_payment,
            st.user_deletions,
            st.user_insertions,
            st.settle_rounds,
            st.batches,
        )?;
        let m = self.meter().snapshot();
        writeln!(w, "meter {} {} {}", m.work, m.depth, m.rounds)?;
        writeln!(
            w,
            "edges {} {}",
            self.s.edges.high_water(),
            self.s.edges.len()
        )?;
        for &e in self.s.edges.ids() {
            write!(w, "e {}", e.raw())?;
            for &v in &self.s.edges[e].vertices {
                write!(w, " {v}")?;
            }
            writeln!(w)?;
        }
        writeln!(
            w,
            "matches {} {}",
            self.s.matches.high_water(),
            self.s.matches.len()
        )?;
        for &m in self.s.matches.ids() {
            let rec = &self.s.matches[m];
            writeln!(w, "m {} {} {}", m.raw(), rec.level, rec.initial_sample_size)?;
            write!(w, "s")?;
            for &e in &rec.sample {
                write!(w, " {}", e.raw())?;
            }
            writeln!(w)?;
            write!(w, "c")?;
            for &e in &rec.cross {
                write!(w, " {}", e.raw())?;
            }
            writeln!(w)?;
        }
        writeln!(w, "vertices {}", self.s.vertices.len())?;
        for (v, vr) in self.s.vertices.iter().enumerate() {
            for (level, bag) in vr.bags.iter() {
                write!(w, "b {v} {level}")?;
                for &e in bag {
                    write!(w, " {}", e.raw())?;
                }
                writeln!(w)?;
            }
        }
        writeln!(w, "# {CKPT_END}")
    }

    fn read_checkpoint(&mut self, r: &mut dyn BufRead) -> Result<(), String> {
        if self.ids.allocated() != 0 || !self.s.edges.is_empty() || self.stats.batches != 0 {
            return Err("checkpoint restore requires a fresh structure".to_string());
        }
        let mut state = Restore::default();
        let mut saw_magic = false;
        let mut saw_end = false;
        for (lineno, line) in r.lines().enumerate() {
            let line = line.map_err(|e| format!("line {}: io error: {e}", lineno + 1))?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if saw_end {
                return Err(format!("line {}: content after `# {CKPT_END}`", lineno + 1));
            }
            if let Some(body) = trimmed.strip_prefix('#').map(str::trim) {
                if !saw_magic {
                    if body != CKPT_MAGIC {
                        return Err(format!(
                            "line {}: not a checkpoint: expected `# {CKPT_MAGIC}`",
                            lineno + 1
                        ));
                    }
                    saw_magic = true;
                } else if let Some(rest) = body.strip_prefix("structure:") {
                    if rest.trim() != "matching" {
                        return Err(format!(
                            "line {}: checkpoint is for structure {:?}, not matching",
                            lineno + 1,
                            rest.trim()
                        ));
                    }
                } else if body == CKPT_END {
                    saw_end = true;
                }
                continue;
            }
            if !saw_magic {
                return Err(format!(
                    "line {}: not a checkpoint: expected `# {CKPT_MAGIC}`",
                    lineno + 1
                ));
            }
            self.restore_line(trimmed, lineno, &mut state)
                .map_err(|msg| format!("line {}: {msg}", lineno + 1))?;
        }
        if !saw_magic {
            return Err(format!("empty input: expected `# {CKPT_MAGIC}` header"));
        }
        if !saw_end {
            return Err(format!("missing `# {CKPT_END}` trailer (torn checkpoint)"));
        }
        self.finish_restore(state)
    }
}

/// Parser state threaded through checkpoint restore.
#[derive(Default)]
struct Restore {
    /// Declared live-edge count (from the `edges` line).
    edge_count: Option<usize>,
    /// Declared match count.
    match_count: Option<usize>,
    /// A match frame whose `m` (and possibly `s`) line has been read but
    /// whose `c` line — the frame terminator — has not.
    pending: Option<PendingMatch>,
    /// Declared vertex-table length.
    vertex_len: Option<usize>,
}

struct PendingMatch {
    m: EdgeId,
    level: Level,
    initial: usize,
    sample: Option<Vec<EdgeId>>,
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

fn parse_ids<'a>(toks: impl Iterator<Item = &'a str>) -> Result<Vec<EdgeId>, String> {
    toks.map(|t| {
        t.parse::<u64>()
            .map(EdgeId)
            .map_err(|e| format!("bad edge id {t:?}: {e}"))
    })
    .collect()
}

impl DynamicMatching {
    /// Process one non-comment checkpoint line during restore.
    fn restore_line(&mut self, line: &str, _lineno: usize, st: &mut Restore) -> Result<(), String> {
        let mut toks = line.split_whitespace();
        let tag = toks.next().expect("non-empty line has a first token");
        if st.pending.is_some() && !matches!(tag, "s" | "c") {
            return Err(format!(
                "expected `s`/`c` inside a match frame, got {tag:?}"
            ));
        }
        match tag {
            "rng" => {
                let state: u64 = parse_tok(toks.next(), "rng state")?;
                self.rng = SplitMix64::new(state);
            }
            "ids" => match toks.next() {
                Some("monotonic") => {
                    let next: u64 = parse_tok(toks.next(), "next id")?;
                    self.ids = IdAlloc::Monotonic { next };
                }
                Some("recycling") => {
                    let high_water: usize = parse_tok(toks.next(), "id high-water")?;
                    let free: Vec<u32> = toks
                        .map(|t| t.parse().map_err(|e| format!("bad free id {t:?}: {e}")))
                        .collect::<Result<_, String>>()?;
                    let slots = Slab::from_occupancy(high_water, free)?;
                    self.ids = IdAlloc::Recycling { slots };
                }
                other => return Err(format!("unknown id allocator {other:?}")),
            },
            "rank" => self.max_rank = parse_tok(toks.next(), "rank")?,
            "config" => {
                let gap_log2: u32 = parse_tok(toks.next(), "gap_log2")?;
                let heavy_factor: u32 = parse_tok(toks.next(), "heavy_factor")?;
                let all_light: u8 = parse_tok(toks.next(), "all_light flag")?;
                self.s.config = LevelingConfig {
                    gap_log2,
                    heavy_factor,
                    all_light: all_light != 0,
                };
            }
            "stats" => {
                let mut next = |what| parse_tok::<u64>(toks.next(), what);
                self.stats.epochs_created = next("epochs_created")?;
                self.stats.sample_mass_created = next("sample_mass_created")?;
                self.stats.natural_epochs = next("natural_epochs")?;
                self.stats.natural_sample_mass = next("natural_sample_mass")?;
                self.stats.stolen_epochs = next("stolen_epochs")?;
                self.stats.stolen_sample_mass = next("stolen_sample_mass")?;
                self.stats.bloated_epochs = next("bloated_epochs")?;
                self.stats.bloated_sample_mass = next("bloated_sample_mass")?;
                self.stats.total_payment = next("total_payment")?;
                self.stats.user_deletions = next("user_deletions")?;
                self.stats.user_insertions = next("user_insertions")?;
                self.stats.settle_rounds = next("settle_rounds")?;
                self.stats.batches = next("batches")?;
            }
            "meter" => {
                let mut next = |what| parse_tok::<u64>(toks.next(), what);
                self.meter().restore(CostSnapshot {
                    work: next("meter work")?,
                    depth: next("meter depth")?,
                    rounds: next("meter rounds")?,
                });
            }
            "edges" => {
                let high_water: usize = parse_tok(toks.next(), "edge high-water")?;
                st.edge_count = Some(parse_tok(toks.next(), "edge count")?);
                self.s.edges.reserve_slots(high_water);
            }
            "e" => {
                let id = EdgeId(parse_tok(toks.next(), "edge id")?);
                let vertices: Vec<VertexId> = toks
                    .map(|t| t.parse().map_err(|e| format!("bad vertex id {t:?}: {e}")))
                    .collect::<Result<_, String>>()?;
                if vertices.is_empty() {
                    return Err("edge with no vertices".to_string());
                }
                if vertices.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("edge {id} vertices not canonical"));
                }
                if self.s.edges.contains(id) {
                    return Err(format!("duplicate edge {id}"));
                }
                for &v in &vertices {
                    self.s.ensure_vertex(v);
                }
                self.s.edges.insert(id, EdgeRec::unsettled(id, vertices));
            }
            "matches" => {
                let high_water: usize = parse_tok(toks.next(), "match high-water")?;
                st.match_count = Some(parse_tok(toks.next(), "match count")?);
                self.s.matches.reserve_slots(high_water);
            }
            "m" => {
                let m = EdgeId(parse_tok(toks.next(), "match id")?);
                let level: Level = parse_tok(toks.next(), "level")?;
                let initial: usize = parse_tok(toks.next(), "initial sample size")?;
                st.pending = Some(PendingMatch {
                    m,
                    level,
                    initial,
                    sample: None,
                });
            }
            "s" => {
                let frame = st.pending.as_mut().ok_or("`s` outside a match frame")?;
                if frame.sample.is_some() {
                    return Err("duplicate `s` line in match frame".to_string());
                }
                frame.sample = Some(parse_ids(toks)?);
            }
            "c" => {
                let frame = st.pending.take().ok_or("`c` outside a match frame")?;
                let sample = frame.sample.ok_or("match frame missing `s` line")?;
                let cross = parse_ids(toks)?;
                self.install_match(frame.m, frame.level, frame.initial, sample, cross)?;
            }
            "vertices" => {
                let len: usize = parse_tok(toks.next(), "vertex count")?;
                st.vertex_len = Some(len);
                if len > 0 {
                    self.s.ensure_vertex((len - 1) as VertexId);
                }
            }
            "b" => {
                let v: VertexId = parse_tok(toks.next(), "vertex id")?;
                let level: Level = parse_tok(toks.next(), "bag level")?;
                let bag = parse_ids(toks)?;
                self.s.ensure_vertex(v);
                let bags = &mut self.s.vertices[v as usize].bags.bags;
                if bags.iter().any(|(l, _)| *l == level) {
                    return Err(format!("duplicate bag level {level} for vertex {v}"));
                }
                bags.push((level, bag));
            }
            other => return Err(format!("unknown record tag {other:?}")),
        }
        Ok(())
    }

    /// Install one match frame: mark its sample and cross edges, cover its
    /// vertices, and insert the [`MatchRec`]. Types must currently be
    /// `Unsettled` — anything else means the checkpoint names an edge in
    /// two ownership sets.
    fn install_match(
        &mut self,
        m: EdgeId,
        level: Level,
        initial: usize,
        sample: Vec<EdgeId>,
        cross: Vec<EdgeId>,
    ) -> Result<(), String> {
        if self.s.matches.contains(m) {
            return Err(format!("duplicate match {m}"));
        }
        for (i, &e) in sample.iter().enumerate() {
            let rec = self
                .s
                .edges
                .get_mut(e)
                .ok_or_else(|| format!("sample edge {e} of match {m} is not live"))?;
            if rec.etype != EdgeType::Unsettled {
                return Err(format!("edge {e} appears in two ownership sets"));
            }
            rec.etype = EdgeType::Sampled;
            rec.owner = m;
            rec.owner_pos = i as u32;
        }
        for (i, &e) in cross.iter().enumerate() {
            let rec = self
                .s
                .edges
                .get_mut(e)
                .ok_or_else(|| format!("cross edge {e} of match {m} is not live"))?;
            if rec.etype != EdgeType::Unsettled {
                return Err(format!("edge {e} appears in two ownership sets"));
            }
            rec.etype = EdgeType::Cross;
            rec.owner = m;
            rec.owner_pos = i as u32;
            // Back-pointers into the P(v, l) bags are recomputed from the
            // bag dump in `finish_restore`; the sentinel flags any bag slot
            // the dump fails to cover.
            rec.bag_pos = vec![u32::MAX; rec.vertices.len()];
        }
        let rec = self
            .s
            .edges
            .get_mut(m)
            .ok_or_else(|| format!("match edge {m} is not live"))?;
        if rec.etype != EdgeType::Sampled || rec.owner != m {
            return Err(format!("match {m} is not in its own sample space"));
        }
        rec.etype = EdgeType::Matched;
        let vs = rec.vertices.clone();
        for &v in &vs {
            self.s.ensure_vertex(v);
            let vr = &mut self.s.vertices[v as usize];
            if vr.matched.is_some() {
                return Err(format!("vertex {v} covered by two matches"));
            }
            vr.matched = Some(m);
        }
        self.s.matches.insert(
            m,
            MatchRec {
                sample,
                cross,
                level,
                initial_sample_size: initial,
            },
        );
        Ok(())
    }

    /// Recompute the cross-edge bag back-pointers from the restored bags
    /// and validate the reconstruction end to end.
    fn finish_restore(&mut self, st: Restore) -> Result<(), String> {
        if st.pending.is_some() {
            return Err("unterminated match frame".to_string());
        }
        let declared_edges = st.edge_count.ok_or("missing `edges` section")?;
        let declared_matches = st.match_count.ok_or("missing `matches` section")?;
        st.vertex_len.ok_or("missing `vertices` section")?;
        if self.s.edges.len() != declared_edges {
            return Err(format!(
                "edge count mismatch: declared {declared_edges}, found {}",
                self.s.edges.len()
            ));
        }
        if self.s.matches.len() != declared_matches {
            return Err(format!(
                "match count mismatch: declared {declared_matches}, found {}",
                self.s.matches.len()
            ));
        }
        for v in 0..self.s.vertices.len() {
            let bags = std::mem::take(&mut self.s.vertices[v].bags.bags);
            for (level, bag) in &bags {
                for (p, &e) in bag.iter().enumerate() {
                    let owner_level = {
                        let rec = self
                            .s
                            .edges
                            .get(e)
                            .ok_or_else(|| format!("bagged edge {e} is not live"))?;
                        if rec.etype != EdgeType::Cross {
                            return Err(format!("bagged edge {e} is not a cross edge"));
                        }
                        self.s.matches[rec.owner].level
                    };
                    if owner_level != *level {
                        return Err(format!(
                            "edge {e} in bag level {level} but owner is at level {owner_level}"
                        ));
                    }
                    let rec = self.s.edges.get_mut(e).expect("checked live above");
                    let j = rec
                        .vertices
                        .binary_search(&(v as VertexId))
                        .map_err(|_| format!("edge {e} bagged under non-incident vertex {v}"))?;
                    if rec.bag_pos[j] != u32::MAX {
                        return Err(format!("edge {e} bagged twice under vertex {v}"));
                    }
                    rec.bag_pos[j] = p as u32;
                }
            }
            self.s.vertices[v].bags.bags = bags;
        }
        for &e in self.s.edges.ids() {
            let rec = &self.s.edges[e];
            match rec.etype {
                EdgeType::Unsettled => {
                    return Err(format!("edge {e} is owned by no match"));
                }
                EdgeType::Cross => {
                    if rec.bag_pos.contains(&u32::MAX) {
                        return Err(format!("cross edge {e} missing from a vertex bag"));
                    }
                }
                EdgeType::Matched | EdgeType::Sampled => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Batch;
    use pbdmm_primitives::rng::SplitMix64 as TestRng;

    fn fresh(recycle: bool) -> DynamicMatching {
        let mut dm = DynamicMatching::with_seed(7);
        dm.set_recycle_ids(recycle);
        dm
    }

    /// Drive `dm` through `batches` random mixed batches, returning the
    /// applied batches for replay on a restored twin.
    fn churn(dm: &mut DynamicMatching, batches: usize, seed: u64) -> Vec<Batch> {
        let mut rng = TestRng::new(seed);
        let mut out = Vec::new();
        for _ in 0..batches {
            let mut b = Batch::new();
            let live: Vec<EdgeId> = dm.s.edges.ids().to_vec();
            for _ in 0..rng.bounded(6) {
                if !live.is_empty() && rng.bounded(3) == 0 {
                    let e = live[rng.bounded(live.len() as u64) as usize];
                    if !b
                        .as_slice()
                        .iter()
                        .any(|u| matches!(u, crate::api::Update::Delete(d) if *d == e))
                    {
                        b = b.delete(e);
                    }
                } else {
                    let u = rng.bounded(30) as u32;
                    let v = rng.bounded(30) as u32;
                    if u != v {
                        b = b.insert(vec![u, v]);
                    }
                }
            }
            if b.is_empty() {
                b = b.insert(vec![rng.bounded(30) as u32, 40]);
            }
            dm.apply(b.clone()).unwrap();
            out.push(b);
        }
        out
    }

    fn assert_same_state(a: &DynamicMatching, b: &DynamicMatching) {
        assert_eq!(a.storage_stats(), b.storage_stats());
        let mut ma = a.matching();
        let mut mb = b.matching();
        ma.sort_unstable();
        mb.sort_unstable();
        assert_eq!(ma, mb);
        for &m in &ma {
            assert_eq!(a.edge_vertices(m), b.edge_vertices(m));
        }
        assert_eq!(
            MatchingSnapshotOf::capture(a),
            MatchingSnapshotOf::capture(b)
        );
    }

    use crate::snapshot::MatchingSnapshot as MatchingSnapshotOf;

    fn roundtrip(recycle: bool) {
        let mut dm = fresh(recycle);
        churn(&mut dm, 40, 0xfeed);
        let mut buf = Vec::new();
        dm.write_checkpoint(&mut buf).unwrap();

        let mut restored = fresh(recycle);
        restored
            .read_checkpoint(&mut std::io::Cursor::new(&buf))
            .unwrap();
        assert_same_state(&dm, &restored);

        // Exact continuation: both twins process identical further batches
        // and stay in lockstep (ids, coins, settlement).
        let follow = churn(&mut dm, 40, 0xbeef);
        for b in follow {
            restored.apply(b).unwrap();
        }
        assert_same_state(&dm, &restored);
    }

    #[test]
    fn roundtrip_monotonic_ids() {
        roundtrip(false);
    }

    #[test]
    fn roundtrip_recycling_ids() {
        roundtrip(true);
    }

    #[test]
    fn empty_structure_roundtrips() {
        let dm = DynamicMatching::with_seed(3);
        let mut buf = Vec::new();
        dm.write_checkpoint(&mut buf).unwrap();
        let mut restored = DynamicMatching::with_seed(99);
        restored
            .read_checkpoint(&mut std::io::Cursor::new(&buf))
            .unwrap();
        assert_eq!(restored.num_edges(), 0);
        // The checkpointed rng state wins over the constructor seed.
        assert_eq!(restored.rng.state(), 3);
    }

    #[test]
    fn restore_requires_fresh_structure() {
        let mut dm = DynamicMatching::with_seed(1);
        dm.apply(Batch::new().insert(vec![0, 1])).unwrap();
        let mut buf = Vec::new();
        dm.write_checkpoint(&mut buf).unwrap();
        let err = dm
            .read_checkpoint(&mut std::io::Cursor::new(&buf))
            .unwrap_err();
        assert!(err.contains("fresh"), "{err}");
    }

    #[test]
    fn torn_checkpoint_is_rejected_at_every_byte() {
        let mut dm = DynamicMatching::with_seed(5);
        churn(&mut dm, 12, 42);
        let mut buf = Vec::new();
        dm.write_checkpoint(&mut buf).unwrap();
        // Every proper truncation must be rejected. (Cutting only the final
        // newline leaves the `# end` trailer intact — that file is complete,
        // so the loop stops one byte short of it.)
        for cut in 0..buf.len() - 1 {
            let mut restored = DynamicMatching::with_seed(5);
            let res = restored.read_checkpoint(&mut std::io::Cursor::new(&buf[..cut]));
            assert!(res.is_err(), "truncation at byte {cut} must not load");
        }
        let mut ok = DynamicMatching::with_seed(5);
        ok.read_checkpoint(&mut std::io::Cursor::new(&buf)).unwrap();
    }

    #[test]
    fn config_and_stats_survive() {
        let mut dm = DynamicMatching::with_seed_and_config(
            11,
            LevelingConfig {
                gap_log2: 2,
                heavy_factor: 2,
                all_light: false,
            },
        );
        churn(&mut dm, 20, 9);
        let mut buf = Vec::new();
        dm.write_checkpoint(&mut buf).unwrap();
        let mut restored = DynamicMatching::with_seed(0);
        restored
            .read_checkpoint(&mut std::io::Cursor::new(&buf))
            .unwrap();
        assert_eq!(restored.s.config, dm.s.config);
        assert_eq!(restored.stats.batches, dm.stats.batches);
        assert_eq!(restored.stats.user_insertions, dm.stats.user_insertions);
        assert_eq!(restored.epoch(), dm.epoch());
        assert_eq!(restored.meter().snapshot(), dm.meter().snapshot());
        assert!(dm.meter().work() > 0);
        // A checkpoint without the meter line still loads, its meter at 0.
        let text = String::from_utf8(buf).unwrap();
        let without: String = text
            .lines()
            .filter(|l| !l.starts_with("meter "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(without, text);
        let mut older = DynamicMatching::with_seed(0);
        older
            .read_checkpoint(&mut std::io::Cursor::new(without.as_bytes()))
            .unwrap();
        assert_eq!(older.meter().snapshot(), Default::default());
        assert_eq!(older.stats.batches, dm.stats.batches);
    }
}
