//! Phase-scoped observability: timers, counters, and log₂ latency
//! histograms for the batch pipeline.
//!
//! The batch-dynamic pipeline is bulk-synchronous: every batch marches
//! through the same supersteps (*plan → WAL append → apply (settle +
//! snapshot-publish) → complete*), so per-phase accounting is a matter of
//! hanging one timer on each existing seam. A [`Recorder`] is a cheaply
//! cloneable handle that every tier of the stack (coalescer, matching
//! structure, network daemon) shares; each phase records
//! wall time into a lock-free slot of atomic counters plus a 64-bucket
//! log₂ duration histogram, from which [`ProfileReport`] derives totals,
//! p50/p99 estimates, and maxima.
//!
//! **Counters always on, timing opt-in.** Every recorder keeps its
//! [`Counter`]s: one relaxed atomic add per event, whether or not timing
//! is on. Phase timing is what [`Recorder::enabled`] switches on. On a
//! [`Recorder::disabled`] recorder (the default) [`Recorder::span`]
//! returns an empty guard without reading the clock, and
//! [`Recorder::record_ns`] is a branch. Timing costs two `Instant` reads
//! and a handful of relaxed atomic adds per span.
//!
//! Phases are **disjoint by construction** at each nesting level:
//! [`Phase::Batch`] wraps one batch's busy time; `Plan`, `WalAppend`,
//! `Apply`, and `Complete` partition it; `Settle` and `SnapshotPublish`
//! nest inside `Apply`. Summing siblings therefore approximates the
//! parent, which is what the profile table's `share` column and the
//! `tests/profile.rs` coverage check rely on.
//!
//! # Example
//! ```
//! use pbdmm_primitives::obs::{Counter, Phase, Recorder};
//!
//! let rec = Recorder::enabled();
//! for _ in 0..10 {
//!     let _batch = rec.span(Phase::Batch);
//!     {
//!         let _plan = rec.span(Phase::Plan);
//!         // ... form the batch ...
//!     }
//!     rec.add(Counter::Batches, 1);
//!     rec.add(Counter::Updates, 64);
//!     rec.record_max(Counter::BatchMax, 64);
//! }
//! let report = rec.snapshot();
//! assert_eq!(report.counter(Counter::Batches), 10);
//! let batch = report.phase(Phase::Batch);
//! assert_eq!(batch.count, 10);
//! assert!(batch.total_ns >= report.phase(Phase::Plan).total_ns);
//! assert!(report.render().contains("profile: batches=10"));
//!
//! // Timing off: spans cost (almost) nothing and record nothing, but
//! // counters still count.
//! let off = Recorder::disabled();
//! let _g = off.span(Phase::Settle);
//! drop(_g);
//! off.add(Counter::Updates, 3);
//! assert!(!off.is_enabled());
//! assert_eq!(off.snapshot().phase(Phase::Settle).count, 0);
//! assert_eq!(off.snapshot().counter(Counter::Updates), 3);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Log₂ histogram buckets per phase: bucket `i` covers durations in
/// `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns), enough for half a
/// millennium in the top bucket.
const BUCKETS: usize = 64;

/// Declares a `#[repr(u8)]` enum numbered in declaration order, with an
/// `ALL` array of its variants, a `name()` per variant and a length
/// constant — one list per enum, so the three cannot drift apart.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident, $len:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)*
        }

        #[doc = concat!("Number of variants (length of [`", stringify!($ty), "::ALL`]).")]
        pub const $len: usize = [$($name),*].len();

        impl $ty {
            /// Every variant, in display order.
            pub const ALL: [$ty; $len] = [$($ty::$variant),*];

            /// Stable snake_case name, used in reports and metric keys
            /// (e.g. `info_phase_<name>_ns`).
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

named_enum! {
    /// One pipeline superstep (or sub-step) a [`Recorder`] attributes time to.
    ///
    /// The first group partitions a batch's busy time at the service tier;
    /// `Settle`/`SnapshotPublish` nest inside `Apply` at the matching tier;
    /// the `Net*` phases measure the daemon's frame handling.
    pub enum Phase, NUM_PHASES {
        /// Whole-batch busy span: drain return → last ticket completed.
        Batch => "batch",
        /// Batch formation: conflict resolution, dedup, validation.
        Plan => "plan",
        /// Durable write-ahead-log append (and fsync when configured).
        WalAppend => "wal_append",
        /// The `BatchDynamic::apply` call (contains `Settle` + `SnapshotPublish`).
        Apply => "apply",
        /// Settlement rounds inside apply (the paper's random-settle loop).
        Settle => "settle",
        /// O(batch) snapshot publication inside apply.
        SnapshotPublish => "snapshot_publish",
        /// Ticket completion: waking submitters with their outcome slices.
        Complete => "complete",
        /// Network daemon: wire-frame decode.
        NetDecode => "net_decode",
        /// Network daemon: request dispatch (decode → work item handed off).
        NetDispatch => "net_dispatch",
    }
}

impl Phase {
    /// Nesting depth for report indentation: `Batch` is the root, the
    /// service phases its children, `Settle`/`SnapshotPublish` nest under
    /// `Apply`. Network phases run outside the batch span.
    fn depth(self) -> usize {
        match self {
            Phase::Batch => 0,
            Phase::Settle | Phase::SnapshotPublish => 2,
            _ => 1,
        }
    }
}

named_enum! {
    /// A monotonically accumulated event counter on a [`Recorder`].
    ///
    /// Most counters are sums (`add`); the ones documented as *high-water*
    /// are maxima (`record_max`). Each event is counted once, where it
    /// happens: the coalescer, the checkpoint writer, the matching tier and
    /// the daemon all add to the one recorder they share.
    pub enum Counter, NUM_COUNTERS {
        /// Batches applied.
        Batches => "batches",
        /// Updates applied (insertions + deletions; excludes coalesced
        /// duplicates and rejects).
        Updates => "updates",
        /// High-water: largest batch applied.
        BatchMax => "batch_max",
        /// Coalescer flushes triggered by reaching `max_batch`.
        FlushFull => "flush_full",
        /// Coalescer flushes triggered by the ingress going idle.
        FlushIdle => "flush_idle",
        /// Coalescer flushes triggered by shutdown drain.
        FlushClose => "flush_close",
        /// Settlement rounds executed across all batches (timing on only).
        SettleRounds => "settle_rounds",
        /// Structure levels occupied, summed over per-batch samples (timing
        /// on only: counting them scans the matching).
        LevelsTouched => "levels_touched",
        /// High-water: peak greedy-scratch table size in slots (timing on
        /// only).
        ScratchHighWater => "scratch_high_water",
        /// Wire frames decoded by the daemon.
        FramesDecoded => "frames_decoded",
        /// Connections the daemon closed for a protocol violation: a bad
        /// handshake, or a malformed, oversized or torn frame.
        ProtocolErrors => "protocol_errors",
        /// Duplicate in-batch deletes coalesced away.
        DupDeletes => "dup_deletes",
        /// Updates rejected one by one (unknown id, empty vertex set).
        Rejected => "rejected",
        /// Batches committed to the WAL (appended and applied).
        WalBatches => "wal_batches",
        /// Checkpoints made durable.
        Checkpoints => "checkpoints",
        /// Checkpoints that failed to reach disk (serialization cannot
        /// fail).
        CheckpointFailures => "checkpoint_failures",
        /// Old WAL segments deleted by compaction.
        SegmentsRemoved => "segments_removed",
        /// Connections the daemon accepted, refused ones included.
        Connections => "connections",
        /// Requests refused with `Overloaded`: `SubmitBatch` frames beyond
        /// the in-flight window or the per-frame update cap, and
        /// connections beyond the cap or that no thread could be started
        /// for.
        Overloaded => "overloaded",
    }
}

/// One phase's lock-free accumulation slot.
struct PhaseSlot {
    total_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl PhaseSlot {
    fn new() -> Self {
        PhaseSlot {
            total_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        // 0 → bucket 0; otherwise bucket = floor(log2(ns)).
        let b = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }
}

struct Inner {
    /// Whether spans and `record_ns` record (counters always do).
    timing: bool,
    phases: [PhaseSlot; NUM_PHASES],
    counters: [AtomicU64; NUM_COUNTERS],
    started: Instant,
}

/// A shared, cheaply cloneable handle for recording event counters and,
/// when timing is on, phase timings. Clones share one store. Timing is off
/// by default ([`Recorder::disabled`], also `Default`); counters are
/// always on.
#[derive(Clone)]
pub struct Recorder(Arc<Inner>);

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Recorder")
            .field(&if self.0.timing { "on" } else { "off" })
            .finish()
    }
}

impl Recorder {
    /// A recorder that counts events and times phases.
    pub fn enabled() -> Self {
        Self::enabled_if(true)
    }

    /// A recorder that counts events but times nothing, at (almost) no
    /// cost per span.
    pub fn disabled() -> Self {
        Self::enabled_if(false)
    }

    /// [`Recorder::enabled`] when `on`, [`Recorder::disabled`] otherwise.
    pub fn enabled_if(on: bool) -> Self {
        Recorder(Arc::new(Inner {
            timing: on,
            phases: std::array::from_fn(|_| PhaseSlot::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            started: Instant::now(),
        }))
    }

    /// Whether phase timing is on. Counters record either way.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.timing
    }

    /// Start timing `phase`; the elapsed time records when the returned
    /// guard drops. With timing off this does not read the clock.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        Span {
            inner: self.0.timing.then(|| (&*self.0, phase, Instant::now())),
        }
    }

    /// Record an already-measured duration against `phase` — for call
    /// sites that time themselves (or absorb a pre-existing meter).
    #[inline]
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        if self.0.timing {
            self.0.phases[phase as usize].record(ns);
        }
    }

    /// Add `n` to a sum counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.0.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water counter to at least `v`.
    #[inline]
    pub fn record_max(&self, counter: Counter, v: u64) {
        self.0.counters[counter as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of everything recorded so
    /// far (individual loads are relaxed; totals may trail counts by an
    /// in-flight span). With timing off, the phases and `wall_ns` are zero.
    pub fn snapshot(&self) -> ProfileReport {
        let inner = &*self.0;
        let mut report = ProfileReport::empty();
        if inner.timing {
            report.wall_ns = inner.started.elapsed().as_nanos() as u64;
        }
        for (i, slot) in inner.phases.iter().enumerate() {
            let p = &mut report.phases[i];
            p.total_ns = slot.total_ns.load(Ordering::Relaxed);
            p.count = slot.count.load(Ordering::Relaxed);
            p.max_ns = slot.max_ns.load(Ordering::Relaxed);
            for (b, bucket) in slot.buckets.iter().enumerate() {
                p.buckets[b] = bucket.load(Ordering::Relaxed);
            }
        }
        for (i, c) in inner.counters.iter().enumerate() {
            report.counters[i] = c.load(Ordering::Relaxed);
        }
        report
    }
}

/// Drop-records the elapsed time of one [`Recorder::span`]. Inert (and
/// clock-free) when timing is off.
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub struct Span<'a> {
    inner: Option<(&'a Inner, Phase, Instant)>,
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((inner, phase, t0)) = self.inner.take() {
            inner.phases[phase as usize].record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// One phase's aggregated statistics inside a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Total time attributed to the phase, in nanoseconds.
    pub total_ns: u64,
    /// Spans recorded.
    pub count: u64,
    /// Longest single span, in nanoseconds.
    pub max_ns: u64,
    /// Log₂ duration histogram: `buckets[i]` counts spans with duration
    /// in `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl PhaseStats {
    fn empty() -> Self {
        PhaseStats {
            total_ns: 0,
            count: 0,
            max_ns: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1) in ns from the log₂ histogram:
    /// the geometric midpoint of the bucket where the cumulative count
    /// crosses `q`. Zero when no spans were recorded.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Midpoint of [2^i, 2^(i+1)): 1.5 · 2^i, capped by the max.
                let mid = (1u128 << i) + (1u128 << i.saturating_sub(1));
                return (mid as u64).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Estimated median span duration in ns.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// Estimated 99th-percentile span duration in ns.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// A point-in-time (or interval-delta) copy of a [`Recorder`]'s state:
/// per-phase totals/histograms plus event counters. Obtained from
/// [`Recorder::snapshot`], shippable over the wire, renderable as a
/// stable text table with [`ProfileReport::render`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Wall-clock nanoseconds covered: since the recorder was enabled, or
    /// the interval length for a [`ProfileReport::delta`].
    pub wall_ns: u64,
    /// Per-phase statistics, indexed by `Phase as usize`.
    pub phases: Vec<PhaseStats>,
    /// Counter values, indexed by `Counter as usize`.
    pub counters: Vec<u64>,
}

impl ProfileReport {
    /// An all-zero report (what a fresh recorder snapshots to).
    pub fn empty() -> Self {
        ProfileReport {
            wall_ns: 0,
            phases: (0..NUM_PHASES).map(|_| PhaseStats::empty()).collect(),
            counters: vec![0; NUM_COUNTERS],
        }
    }

    /// The statistics recorded for `phase`.
    pub fn phase(&self, phase: Phase) -> &PhaseStats {
        &self.phases[phase as usize]
    }

    /// The value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.count == 0) && self.counters.iter().all(|&c| c == 0)
    }

    /// The interval `prev → self` as its own report: totals, counts, and
    /// histogram buckets subtract; high-water values (`max_ns`, the
    /// high-water counters) keep the later cumulative value since maxima
    /// cannot be un-observed.
    pub fn delta(&self, prev: &ProfileReport) -> ProfileReport {
        let mut d = self.clone();
        d.wall_ns = self.wall_ns.saturating_sub(prev.wall_ns);
        for (dp, pp) in d.phases.iter_mut().zip(&prev.phases) {
            dp.total_ns = dp.total_ns.saturating_sub(pp.total_ns);
            dp.count = dp.count.saturating_sub(pp.count);
            for (db, pb) in dp.buckets.iter_mut().zip(&pp.buckets) {
                *db = db.saturating_sub(*pb);
            }
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            if !matches!(c, Counter::BatchMax | Counter::ScratchHighWater) {
                d.counters[i] = d.counters[i].saturating_sub(prev.counters[i]);
            }
        }
        d
    }

    /// Render the stable human/grep-friendly profile table, the one
    /// renderer every count is printed through.
    ///
    /// The first line is machine-anchored (`profile: batches=N updates=M
    /// wall=...`); phase rows follow, indented by nesting, with a `share`
    /// column relative to the [`Phase::Batch`] busy total; the
    /// [`Self::counters_line`] closes the block. Phases and counters that
    /// recorded nothing are omitted.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let busy = self.phase(Phase::Batch).total_ns;
        let _ = writeln!(
            out,
            "profile: batches={} updates={} wall={} busy={} ({:.1}% of wall)",
            self.counter(Counter::Batches),
            self.counter(Counter::Updates),
            fmt_ns(self.wall_ns),
            fmt_ns(busy),
            pct(busy, self.wall_ns),
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>10} {:>7} {:>9} {:>9} {:>9}",
            "phase", "count", "total", "share", "p50", "p99", "max"
        );
        for ph in Phase::ALL {
            let p = self.phase(ph);
            if p.count == 0 {
                continue;
            }
            let label = format!("{}{}", "  ".repeat(ph.depth()), ph.name());
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>10} {:>6.1}% {:>9} {:>9} {:>9}",
                label,
                p.count,
                fmt_ns(p.total_ns),
                pct(p.total_ns, busy),
                fmt_ns(p.p50_ns()),
                fmt_ns(p.p99_ns()),
                fmt_ns(p.max_ns),
            );
        }
        if self.counters.iter().any(|&c| c != 0) {
            let _ = writeln!(out, "  {}", self.counters_line());
        }
        out
    }

    /// The `counters: name=value ...` line that closes [`Self::render`]:
    /// every non-zero counter, in [`Counter::ALL`] order.
    pub fn counters_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = String::from("counters:");
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                let _ = write!(line, " {}={}", c.name(), v);
            }
        }
        line
    }
}

/// `part` as a percentage of `whole`, 0 when `whole` is 0.
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Compact duration formatting: `987ns`, `12.3µs`, `4.56ms`, `7.89s`.
fn fmt_ns(ns: u64) -> String {
    let n = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", n / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_records_nothing() {
        // Timing off: no phase span records, the counters still count.
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        {
            let _g = r.span(Phase::Plan);
            std::thread::sleep(Duration::from_millis(1));
        }
        r.add(Counter::Batches, 5);
        r.record_max(Counter::BatchMax, 100);
        r.record_ns(Phase::Settle, 1_000_000);
        let report = r.snapshot();
        assert!(report
            .phases
            .iter()
            .all(|p| p.count == 0 && p.total_ns == 0));
        assert_eq!(report.wall_ns, 0);
        assert_eq!(report.counter(Counter::Batches), 5);
        assert_eq!(report.counter(Counter::BatchMax), 100);
    }

    #[test]
    fn spans_accumulate_and_clones_share_state() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        {
            let _g = r.span(Phase::Settle);
            std::thread::sleep(Duration::from_millis(2));
        }
        r2.record_ns(Phase::Settle, 500);
        let p = r.snapshot();
        let s = p.phase(Phase::Settle);
        assert_eq!(s.count, 2);
        assert!(s.total_ns >= 2_000_000 + 500, "total {}", s.total_ns);
        assert!(s.max_ns >= 2_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn quantiles_come_from_log2_buckets() {
        let r = Recorder::enabled();
        // 99 fast spans (~1µs bucket), 1 slow (~1ms bucket).
        for _ in 0..99 {
            r.record_ns(Phase::Apply, 1_100);
        }
        r.record_ns(Phase::Apply, 1_050_000);
        let p = r.snapshot();
        let s = p.phase(Phase::Apply);
        assert_eq!(s.count, 100);
        // p50 lands in the 1024..2048 bucket, p99 well below the max but
        // p100 == the slow span's bucket (capped at max).
        assert!((1_024..2_048).contains(&s.p50_ns()), "{}", s.p50_ns());
        assert!(s.p99_ns() < 1_000_000);
        assert_eq!(s.quantile_ns(1.0), s.max_ns);
    }

    #[test]
    fn counters_sum_and_high_water() {
        let r = Recorder::enabled();
        r.add(Counter::SettleRounds, 3);
        r.add(Counter::SettleRounds, 4);
        r.record_max(Counter::ScratchHighWater, 10);
        r.record_max(Counter::ScratchHighWater, 7);
        let p = r.snapshot();
        assert_eq!(p.counter(Counter::SettleRounds), 7);
        assert_eq!(p.counter(Counter::ScratchHighWater), 10);
    }

    #[test]
    fn delta_subtracts_sums_and_keeps_maxima() {
        let r = Recorder::enabled();
        r.record_ns(Phase::Plan, 1_000);
        r.add(Counter::Batches, 1);
        r.record_max(Counter::BatchMax, 64);
        let before = r.snapshot();
        r.record_ns(Phase::Plan, 3_000);
        r.add(Counter::Batches, 2);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.phase(Phase::Plan).count, 1);
        assert_eq!(d.phase(Phase::Plan).total_ns, 3_000);
        assert_eq!(d.counter(Counter::Batches), 2);
        // High-water values persist across the interval.
        assert_eq!(d.counter(Counter::BatchMax), 64);
        assert_eq!(d.phase(Phase::Plan).buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn render_is_grep_stable() {
        let r = Recorder::enabled();
        r.record_ns(Phase::Batch, 10_000);
        r.record_ns(Phase::Plan, 2_000);
        r.add(Counter::Batches, 1);
        r.add(Counter::Updates, 64);
        let text = r.snapshot().render();
        assert!(text.starts_with("profile: batches=1 updates=64 wall="));
        assert!(text.contains("  plan"));
        assert!(text.contains("counters: batches=1 updates=64"));
        // Phases with no spans are omitted.
        assert!(!text.contains("net_decode"));
    }

    #[test]
    fn empty_report_renders_without_panicking() {
        let text = Recorder::disabled().snapshot().render();
        assert!(text.starts_with("profile: batches=0"));
    }
}
