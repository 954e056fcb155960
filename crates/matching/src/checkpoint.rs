//! Checkpoint serialization: dump a [`DynamicMatching`]'s complete state at
//! a batch boundary and restore it into a fresh structure, so recovery can
//! replay only the WAL tail written *after* the checkpoint instead of the
//! whole history.
//!
//! The format, `pbdmm-ckpt v2`, is binary: fixed-width little-endian fields
//! written straight from the flat tables into one pre-sized buffer. Writing
//! cannot fail. The image is *exact*: a restored structure continues the
//! update stream with byte-identical behaviour — same ids, same coin flips,
//! same settlement order. That requires serializing more than the logical
//! matching:
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
//! structural integrity check on the checkpoint.
//!
//! An image is a body closed by a 16-byte trailer: the body's length and a
//! 64-bit checksum of it. The reader verifies both before it reads any
//! field, so a torn checkpoint (crash mid-write) or a flipped byte is
//! refused as a unit and recovery falls back to an older one. It then
//! checks every count against the bytes left before allocating anything for
//! it, and converts sizes and ids with checked conversions. A `pbdmm-ckpt
//! v1` text checkpoint is refused as "not a v2 checkpoint".
//!
//! ```text
//! body (integers little-endian; edge ids u64, vertex ids u32, counts u64)
//!   "pbdmm-ckpt v2\n"                        magic, 14 bytes
//!   rng       state                          SplitMix64 state
//!   ids       0u8, next                      monotonic
//!           | 1u8, high_water, n, n × u32    recycling: the LIFO free list
//!   rank
//!   config    gap_log2 u32, heavy_factor u32, all_light u8
//!   stats     13 counters
//!   meter     work, depth, rounds            the CostMeter
//!   vertices  len                            vertex-table length
//!   edges     high_water, n, then n × (id, k, k × vertex)       live-list order
//!   matches   high_water, n, then n × (id, level u8, initial sample size,
//!               |S|, S(m), |C|, C(m))                         live-list order
//!   bags      len × (n, then n × (level u8, k, k × edge id))  bag-vector order
//! trailer     body length, checksum of the body
//! ```
//!
//! The vertex-table length precedes the edges so every vertex id is
//! range-checked against it before the tables are filled.

use pbdmm_graph::edge::{EdgeId, VertexId};
use pbdmm_primitives::cost::CostSnapshot;
use pbdmm_primitives::hash::mix64;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::slab::Slab;

use crate::dynamic::{DynamicMatching, IdAlloc};
use crate::level::{EdgeRec, EdgeType, Level, LevelingConfig, MatchRec, VertexRec};

/// Opening bytes of every checkpoint; the reader refuses anything else,
/// a `pbdmm-ckpt v1` text checkpoint included.
const CKPT_MAGIC: &[u8] = b"pbdmm-ckpt v2\n";

/// Trailer: the body length and the body's checksum, one `u64` each.
const TRAILER_LEN: usize = 16;

/// Segment-boundary checkpoints: recovery loads the newest intact image
/// and replays only the log after it.
impl DynamicMatching {
    /// Append one complete checkpoint image, trailer included, to `out`.
    /// The caller owns durability (write, fsync, rename).
    pub fn write_checkpoint(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.checkpoint_size_hint());
        let mut w = Writer(out);
        w.0.extend_from_slice(CKPT_MAGIC);
        w.u64(self.rng.state());
        match &self.ids {
            IdAlloc::Monotonic { next } => {
                w.u8(0);
                w.u64(*next);
            }
            IdAlloc::Recycling { slots } => {
                w.u8(1);
                w.len(slots.high_water());
                w.len(slots.free_list().len());
                for &f in slots.free_list() {
                    w.u32(f);
                }
            }
        }
        w.len(self.max_rank);
        let cfg = self.s.config;
        w.u32(cfg.gap_log2);
        w.u32(cfg.heavy_factor);
        w.u8(cfg.all_light.into());
        let st = &self.stats;
        for c in [
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
        ] {
            w.u64(c);
        }
        let m = self.meter().snapshot();
        for c in [m.work, m.depth, m.rounds] {
            w.u64(c);
        }
        w.len(self.s.vertices.len());
        w.len(self.s.edges.high_water());
        w.len(self.s.edges.len());
        for (e, rec) in self.s.edges.iter() {
            w.u64(e.raw());
            w.len(rec.vertices.len());
            for &v in &rec.vertices {
                w.u32(v);
            }
        }
        w.len(self.s.matches.high_water());
        w.len(self.s.matches.len());
        for (m, rec) in self.s.matches.iter() {
            w.u64(m.raw());
            w.u8(rec.level);
            w.len(rec.initial_sample_size);
            w.ids(&rec.sample);
            w.ids(&rec.cross);
        }
        for vr in &self.s.vertices {
            w.len(vr.bags.bags.len());
            for (level, bag) in &vr.bags.bags {
                w.u8(*level);
                w.ids(bag);
            }
        }
        let body_len = out.len() - start;
        let sum = checksum(&out[start..]);
        out.extend_from_slice(&(body_len as u64).to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Restore state from one whole checkpoint image into `self`, which
    /// must be freshly constructed (no updates applied). Errors name the
    /// offending section and leave `self` unusable — build a new instance
    /// before retrying.
    pub fn read_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.ids.allocated() != 0 || !self.s.edges.is_empty() || self.stats.batches != 0 {
            return Err("checkpoint restore requires a fresh structure".to_string());
        }
        let body = verify_image(bytes)?;
        let mut r = Reader {
            buf: body,
            pos: CKPT_MAGIC.len(),
        };
        self.rng = SplitMix64::new(r.u64("rng")?);
        // A recycling slab is built once the edge count bounds its size.
        let recycling = match r.u8("id allocator")? {
            0 => {
                let next = r.u64("next id")?;
                self.ids = IdAlloc::Monotonic { next };
                None
            }
            1 => {
                let high_water = r.size("id high-water")?;
                let n = r.count("free list", 4)?;
                let free: Vec<u32> = r
                    .take(n * 4, "free list")?
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect();
                Some((high_water, free))
            }
            other => return Err(format!("unknown id allocator tag {other}")),
        };
        self.max_rank = r.size("rank")?;
        self.s.config = LevelingConfig {
            gap_log2: r.u32("config")?,
            heavy_factor: r.u32("config")?,
            all_light: match r.u8("config")? {
                0 => false,
                1 => true,
                other => return Err(format!("config: all_light flag {other} is not 0 or 1")),
            },
        };
        let st = &mut self.stats;
        for c in [
            &mut st.epochs_created,
            &mut st.sample_mass_created,
            &mut st.natural_epochs,
            &mut st.natural_sample_mass,
            &mut st.stolen_epochs,
            &mut st.stolen_sample_mass,
            &mut st.bloated_epochs,
            &mut st.bloated_sample_mass,
            &mut st.total_payment,
            &mut st.user_deletions,
            &mut st.user_insertions,
            &mut st.settle_rounds,
            &mut st.batches,
        ] {
            *c = r.u64("stats")?;
        }
        self.meter().restore(CostSnapshot {
            work: r.u64("meter")?,
            depth: r.u64("meter")?,
            rounds: r.u64("meter")?,
        });
        // Every vertex carries at least its bag count in the bag section.
        let vertex_len = r.count("vertex table", 8)?;
        self.s.vertices.resize_with(vertex_len, VertexRec::default);

        let edge_high_water = r.size("edge high-water")?;
        self.s.edges.reserve_slots(edge_high_water)?;
        let edge_count = r.count("edges", 16)?;
        if let Some((high_water, free)) = recycling {
            if edge_count.checked_add(free.len()) != Some(high_water) {
                return Err(format!(
                    "ids: high-water {high_water} is not {edge_count} live edges plus {} free ids",
                    free.len()
                ));
            }
            let slots = Slab::from_occupancy(high_water, free)?;
            self.ids = IdAlloc::Recycling { slots };
        }
        for _ in 0..edge_count {
            let id = r.id("edge id", edge_high_water)?;
            let k = r.count("edge vertices", 4)?;
            let vertices: Vec<VertexId> = r
                .take(k * 4, "edge vertices")?
                .chunks_exact(4)
                .map(|c| VertexId::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect();
            if vertices.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("edge {id} vertices not canonical"));
            }
            // Sorted, so the last vertex is the largest.
            match vertices.last() {
                None => return Err(format!("edge {id} has no vertices")),
                Some(&v) if usize::try_from(v).map_or(true, |v| v >= vertex_len) => {
                    return Err(format!(
                        "edge {id} has vertex {v} beyond the vertex table ({vertex_len})"
                    ));
                }
                Some(_) => {}
            }
            if self.s.edges.contains(id) {
                return Err(format!("duplicate edge {id}"));
            }
            self.s.edges.insert(id, EdgeRec::unsettled(id, vertices));
        }

        let match_high_water = r.size("match high-water")?;
        self.s.matches.reserve_slots(match_high_water)?;
        let match_count = r.count("matches", 33)?;
        for _ in 0..match_count {
            let m = r.id("match id", match_high_water)?;
            let level = r.u8("match level")?;
            let initial = r.size("initial sample size")?;
            let sample = r.ids("sample space")?;
            let cross = r.ids("cross set")?;
            self.install_match(m, level, initial, sample, cross)?;
        }

        for v in 0..vertex_len {
            let n = r.count("bags", 9)?;
            let mut bags = Vec::with_capacity(n);
            for _ in 0..n {
                let level = r.u8("bag level")?;
                if bags.iter().any(|(l, _)| *l == level) {
                    return Err(format!("duplicate bag level {level} for vertex {v}"));
                }
                bags.push((level, r.ids("bag")?));
            }
            self.s.vertices[v].bags.bags = bags;
        }
        if r.pos != body.len() {
            return Err(format!(
                "{} unread bytes after the bag section",
                body.len() - r.pos
            ));
        }
        self.finish_restore()
    }
}

/// Check a checkpoint image's magic, trailer and checksum, returning its
/// body (magic included). Runs before any field is read.
fn verify_image(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < CKPT_MAGIC.len() + TRAILER_LEN {
        return Err(format!(
            "torn checkpoint: {} bytes, shorter than a magic and a trailer",
            bytes.len()
        ));
    }
    if !bytes.starts_with(CKPT_MAGIC) {
        return Err("not a v2 checkpoint: no `pbdmm-ckpt v2` magic (v1 text is not read)".into());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let (len, sum) = trailer.split_at(8);
    let declared = u64::from_le_bytes(len.try_into().expect("8-byte field"));
    if u64::try_from(body.len()) != Ok(declared) {
        return Err(format!(
            "torn checkpoint: the trailer declares a {declared}-byte body, found {}",
            body.len()
        ));
    }
    if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8-byte field")) {
        return Err("corrupt checkpoint: checksum mismatch".into());
    }
    Ok(body)
}

/// The checkpoint checksum: four interleaved multiply-rotate lanes over
/// 8-byte words, folded with the length and finished with [`mix64`]. Each
/// step is a bijection of its lane for a fixed word and of the word for a
/// fixed lane, so any change confined to one word — every single-byte
/// flip — changes the result.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let word = |c: &[u8]| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    };
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, c) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(c));
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = step(h, lane);
    }
    for c in blocks.remainder().chunks(8) {
        h = step(h, word(c));
    }
    mix64(h)
}

/// Little-endian field writer over the output buffer.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    #[inline]
    fn u8(&mut self, x: u8) {
        self.0.push(x);
    }

    #[inline]
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    #[inline]
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    /// A count or size (`usize` widens losslessly to `u64`).
    #[inline]
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A counted list of edge ids.
    #[inline]
    fn ids(&mut self, ids: &[EdgeId]) {
        self.len(ids.len());
        self.0.reserve(8 * ids.len());
        for e in ids {
            self.u64(e.raw());
        }
    }
}

/// Bounds-checked little-endian field reader over a verified body. Every
/// error names the field it was reading.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(format!("{what}: needs {n} bytes, {left} left"));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte field")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte field")))
    }

    /// A size that must fit a `usize`.
    fn size(&mut self, what: &str) -> Result<usize, String> {
        let raw = self.u64(what)?;
        usize::try_from(raw).map_err(|_| format!("{what}: {raw} does not fit this platform"))
    }

    /// A count of entries taking at least `each` bytes apiece, checked
    /// against the bytes left before the caller allocates for it.
    fn count(&mut self, what: &str, each: usize) -> Result<usize, String> {
        let raw = self.u64(what)?;
        let left = self.buf.len() - self.pos;
        usize::try_from(raw)
            .ok()
            .filter(|n| n.checked_mul(each).is_some_and(|need| need <= left))
            .ok_or_else(|| format!("{what}: {raw} entries cannot fit in the {left} bytes left"))
    }

    /// An edge id below the table's `high_water` mark.
    fn id(&mut self, what: &str, high_water: usize) -> Result<EdgeId, String> {
        let raw = self.u64(what)?;
        if usize::try_from(raw).is_ok_and(|i| i < high_water) {
            Ok(EdgeId(raw))
        } else {
            Err(format!(
                "{what}: e{raw} is beyond the high-water mark {high_water}"
            ))
        }
    }

    /// A counted list of edge ids.
    fn ids(&mut self, what: &str) -> Result<Vec<EdgeId>, String> {
        let n = self.count(what, 8)?;
        Ok(self
            .take(n * 8, what)?
            .chunks_exact(8)
            .map(|c| EdgeId(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect())
    }
}

impl DynamicMatching {
    /// A reservation for the image from O(1) counts: the fixed header and
    /// free list; each edge record at the rank bound; each match record,
    /// plus every edge once in some `S(m)` or `C(m)`; and per vertex a bag
    /// count and two bag headers, plus every unmatched edge once per vertex
    /// as a bag entry. Short only when vertices keep more than two bags (or
    /// the rank bound is above 4); the buffer then grows once.
    fn checkpoint_size_hint(&self) -> usize {
        let free = match &self.ids {
            IdAlloc::Monotonic { .. } => 0,
            IdAlloc::Recycling { slots } => slots.free_list().len(),
        };
        let (edges, matches, vertices) = (
            self.s.edges.len(),
            self.s.matches.len(),
            self.s.vertices.len(),
        );
        let rank = self.max_rank.min(4);
        let edge_section = edges * (16 + 4 * rank);
        let match_section = matches * 41 + edges * 8;
        let bag_section = vertices * (8 + 2 * 9) + edges.saturating_sub(matches) * rank * 8;
        256 + 4 * free + edge_section + match_section + bag_section + TRAILER_LEN
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
            rec.owner_pos = position(i)?;
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
            rec.owner_pos = position(i)?;
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
    fn finish_restore(&mut self) -> Result<(), String> {
        for v in 0..self.s.vertices.len() {
            let vid = VertexId::try_from(v).map_err(|_| format!("vertex {v} beyond u32"))?;
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
                        .binary_search(&vid)
                        .map_err(|_| format!("edge {e} bagged under non-incident vertex {v}"))?;
                    if rec.bag_pos[j] != u32::MAX {
                        return Err(format!("edge {e} bagged twice under vertex {v}"));
                    }
                    rec.bag_pos[j] = position(p)?;
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

/// A position inside an owner's list or a vertex bag, as its `u32`
/// back-pointer.
fn position(i: usize) -> Result<u32, String> {
    u32::try_from(i).map_err(|_| format!("position {i} overflows a u32 back-pointer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Batch;
    use crate::snapshot::MatchingSnapshot;
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
        assert_eq!(MatchingSnapshot::capture(a), MatchingSnapshot::capture(b));
    }

    fn image(dm: &DynamicMatching) -> Vec<u8> {
        let mut buf = Vec::new();
        dm.write_checkpoint(&mut buf);
        buf
    }

    fn roundtrip(recycle: bool) {
        let mut dm = fresh(recycle);
        churn(&mut dm, 40, 0xfeed);
        let buf = image(&dm);

        let mut restored = fresh(recycle);
        restored.read_checkpoint(&buf).unwrap();
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
    fn reserialization_is_the_identity() {
        // write(read(write(s))) == write(s), byte for byte: restore drops
        // no serialized field, in either id mode.
        for recycle in [false, true] {
            let mut dm = fresh(recycle);
            churn(&mut dm, 60, 0x5eed);
            let first = image(&dm);
            let mut restored = DynamicMatching::with_seed(0);
            restored.read_checkpoint(&first).unwrap();
            assert_eq!(image(&restored), first, "recycle={recycle}");
        }
    }

    #[test]
    fn empty_structure_roundtrips() {
        let dm = DynamicMatching::with_seed(3);
        let buf = image(&dm);
        let mut restored = DynamicMatching::with_seed(99);
        restored.read_checkpoint(&buf).unwrap();
        assert_eq!(restored.num_edges(), 0);
        // The checkpointed rng state wins over the constructor seed.
        assert_eq!(restored.rng.state(), 3);
    }

    #[test]
    fn restore_requires_fresh_structure() {
        let mut dm = DynamicMatching::with_seed(1);
        dm.apply(Batch::new().insert(vec![0, 1])).unwrap();
        let buf = image(&dm);
        let err = dm.read_checkpoint(&buf).unwrap_err();
        assert!(err.contains("fresh"), "{err}");
    }

    #[test]
    fn torn_checkpoint_is_rejected_at_every_byte() {
        let mut dm = DynamicMatching::with_seed(5);
        churn(&mut dm, 12, 42);
        let buf = image(&dm);
        for cut in 0..buf.len() {
            let mut restored = DynamicMatching::with_seed(5);
            let res = restored.read_checkpoint(&buf[..cut]);
            assert!(res.is_err(), "truncation at byte {cut} must not load");
        }
        let mut ok = DynamicMatching::with_seed(5);
        ok.read_checkpoint(&buf).unwrap();
    }

    #[test]
    fn any_flipped_byte_is_refused() {
        let mut dm = DynamicMatching::with_seed(5);
        dm.set_recycle_ids(true);
        churn(&mut dm, 12, 43);
        let buf = image(&dm);
        for at in 0..buf.len() {
            for mask in [0x01u8, 0xff] {
                let mut bad = buf.clone();
                bad[at] ^= mask;
                let mut restored = DynamicMatching::with_seed(5);
                assert!(
                    restored.read_checkpoint(&bad).is_err(),
                    "byte {at} ^ {mask:#x} must not load"
                );
            }
        }
    }

    #[test]
    fn resealed_lies_are_refused() {
        // A body resealed with a fresh trailer gets past the checksum, so
        // the reader's own checks must refuse its lies. Offsets are those
        // of the pinned image below.
        let mut dm = DynamicMatching::with_seed(7);
        dm.apply(Batch::new().insert(vec![0, 1]).insert(vec![1, 2]))
            .unwrap();
        let buf = image(&dm);
        let body = &buf[..buf.len() - TRAILER_LEN];
        for (at, lie, expect) in [
            (192, u64::MAX.to_le_bytes().to_vec(), "cannot fit"), // edge count
            (176, 1u64.to_le_bytes().to_vec(), "beyond the vertex table"),
            (329, vec![1], "bag level 1"), // P(1, 0) claims level 1
        ] {
            let mut lying = body.to_vec();
            lying[at..at + lie.len()].copy_from_slice(&lie);
            let sum = checksum(&lying);
            lying.extend_from_slice(&(body.len() as u64).to_le_bytes());
            lying.extend_from_slice(&sum.to_le_bytes());
            let err = DynamicMatching::with_seed(0)
                .read_checkpoint(&lying)
                .unwrap_err();
            assert!(err.contains(expect), "{expect}: {err}");
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // Two edges sharing vertex 1: one match and one cross edge, so every
        // section carries a record. The image (trailer included) must stay
        // byte-identical, as recovery reads what older builds wrote.
        let mut dm = DynamicMatching::with_seed(7);
        dm.apply(Batch::new().insert(vec![0, 1]).insert(vec![1, 2]))
            .unwrap();
        let buf = image(&dm);
        let expected = unhex(&PINNED.concat());
        assert_eq!(
            buf,
            expected,
            "checkpoint bytes moved; now:\n{}",
            buf.iter().map(|b| format!("{b:02x}")).collect::<String>()
        );
        let mut restored = DynamicMatching::with_seed(0);
        restored.read_checkpoint(&buf).unwrap();
        assert_same_state(&dm, &restored);
    }

    const PINNED: &[&str] = &[
        "7062646d6d2d636b70742076320a", // magic
        "1c7c4a7fb979379e",             // rng state
        "00 0200000000000000",          // ids: monotonic, next 2
        "0200000000000000",             // rank 2
        "01000000 04000000 00",         // config: gap_log2 1, heavy_factor 4, all_light 0
        "0100000000000000 0100000000000000 0000000000000000 0000000000000000", // stats: epochs 1, sample mass 1, natural 0/0,
        "0000000000000000 0000000000000000 0000000000000000 0000000000000000", // stolen 0/0, bloated 0/0,
        "0000000000000000 0000000000000000 0200000000000000 0000000000000000", // payment 0, deletions 0, insertions 2, settle rounds 0,
        "0100000000000000",                                                    // batches 1
        "1a00000000000000 0b00000000000000 0100000000000000", // meter: work 26, depth 11, rounds 1
        "0300000000000000",                                   // 3 vertices
        "0200000000000000 0200000000000000",                  // edges: high-water 2, 2 live
        "0000000000000000 0200000000000000 00000000 01000000", // e0 = {0, 1}
        "0100000000000000 0200000000000000 01000000 02000000", // e1 = {1, 2}
        "0100000000000000 0100000000000000",                  // matches: high-water 1, 1 live
        "0000000000000000 00 0100000000000000",               // e0 at level 0, initial sample 1
        "0100000000000000 0000000000000000",                  // S(e0) = [e0]
        "0100000000000000 0100000000000000",                  // C(e0) = [e1]
        "0000000000000000",                                   // vertex 0: no bags
        "0100000000000000 00 0100000000000000 0100000000000000", // vertex 1: P(1, 0) = [e1]
        "0100000000000000 00 0100000000000000 0100000000000000", // vertex 2: P(2, 0) = [e1]
        "7301000000000000 b2774612414639be",                  // trailer: 371-byte body, checksum
    ];

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
        let buf = image(&dm);
        let mut restored = DynamicMatching::with_seed(0);
        restored.read_checkpoint(&buf).unwrap();
        assert_eq!(restored.s.config, dm.s.config);
        assert_eq!(restored.stats.batches, dm.stats.batches);
        assert_eq!(restored.stats.user_insertions, dm.stats.user_insertions);
        assert_eq!(restored.epoch(), dm.epoch());
        assert_eq!(restored.meter().snapshot(), dm.meter().snapshot());
        assert!(dm.meter().work() > 0);
    }
}
