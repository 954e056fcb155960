//! Work/depth accounting for the binary-forking model.
//!
//! The paper's claims are about *model* cost — total work and critical-path
//! depth — not wall-clock time, which on a particular machine conflates
//! scheduling and memory effects. The experiment harness
//! (`crates/bench/src/bin/experiments.rs`) therefore meters both:
//! wall-clock via the harness, and model cost via this module.
//!
//! Costs are charged in aggregate (e.g. "this groupBy over k pairs costs k
//! work and one O(log k) depth round"), mirroring how the paper's analysis
//! charges its subroutines, and avoiding per-instruction atomic traffic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregated work/depth counters. Cheap enough to leave enabled: the
/// algorithm touches it O(1) times per parallel primitive invocation, not per
/// element. A meter can also be constructed [`disabled`](Self::disabled),
/// discarding every charge (wall-clock-only benchmarking).
#[derive(Debug)]
pub struct CostMeter {
    /// Total model work (number of primitive operations, aggregated).
    work: AtomicU64,
    /// Total model depth: sum over sequential phases of each phase's depth.
    depth: AtomicU64,
    /// Number of parallel rounds recorded (e.g. greedy-matching rounds,
    /// random-settle iterations); the quantity the whp depth proofs bound.
    rounds: AtomicU64,
    /// Whether charges are recorded (fixed at construction).
    enabled: bool,
}

impl Default for CostMeter {
    fn default() -> Self {
        CostMeter {
            work: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            enabled: true,
        }
    }
}

impl CostMeter {
    /// A fresh meter with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A meter that discards every charge (`work()` stays 0).
    pub fn disabled() -> Self {
        CostMeter {
            enabled: false,
            ..Self::default()
        }
    }

    /// Whether this meter records charges.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Charge `w` units of work.
    #[inline]
    pub fn add_work(&self, w: u64) {
        if self.enabled {
            self.work.fetch_add(w, Ordering::Relaxed);
        }
    }

    /// Charge one sequential phase of depth `d`.
    #[inline]
    pub fn add_depth(&self, d: u64) {
        if self.enabled {
            self.depth.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Record one parallel round (and its `O(log n)` model depth).
    #[inline]
    pub fn add_round(&self, n: usize) {
        if self.enabled {
            self.rounds.fetch_add(1, Ordering::Relaxed);
            self.add_depth(log2_ceil(n.max(2)) as u64);
        }
    }

    /// Charge a primitive over `n` elements: `n` work, `log n` depth.
    #[inline]
    pub fn charge_primitive(&self, n: usize) {
        self.add_work(n as u64);
        self.add_depth(log2_ceil(n.max(2)) as u64);
    }

    /// Total work charged so far.
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Total depth charged so far.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Total rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.work.store(0, Ordering::Relaxed);
        self.depth.store(0, Ordering::Relaxed);
        self.rounds.store(0, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            work: self.work(),
            depth: self.depth(),
            rounds: self.rounds(),
        }
    }
}

/// A point-in-time copy of the meter, used to compute per-batch deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    /// Total model work.
    pub work: u64,
    /// Total model depth.
    pub depth: u64,
    /// Total parallel rounds.
    pub rounds: u64,
}

impl CostSnapshot {
    /// Component-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            work: self.work.saturating_sub(earlier.work),
            depth: self.depth.saturating_sub(earlier.depth),
            rounds: self.rounds.saturating_sub(earlier.rounds),
        }
    }
}

/// Per-element cost class of a parallel primitive, used by the scheduler's
/// adaptive granularity: the cheaper each element is, the more elements a
/// task must cover before forking beats running sequentially. These are
/// *hints* — scheduling stays correct whatever class a primitive declares —
/// calibrated against the ~µs-scale cost of waking a pooled worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostHint {
    /// A few ns/element: arithmetic, copies, predicate scans (`find_next`,
    /// tabulate).
    Light,
    /// Tens of ns/element: hashing, comparison sorting, branchy per-element
    /// work (`semisort`, `sort`).
    #[default]
    Medium,
    /// ≥ ~100ns/element: user closures of unknown weight, per-item map/set
    /// mutation (`par_apply_disjoint` group sets).
    Heavy,
}

impl CostHint {
    /// Below this many elements the primitive should not go parallel at all
    /// (the whole input is cheaper than one fork/wake round-trip).
    #[inline]
    pub fn sequential_cutoff(self) -> usize {
        match self {
            CostHint::Light => 8192,
            CostHint::Medium => 4096,
            CostHint::Heavy => 1024,
        }
    }

    /// The smallest range a splittable task should be divided into: leaf
    /// tasks stay big enough that scheduling cost is amortized.
    #[inline]
    pub fn min_leaf(self) -> usize {
        match self {
            CostHint::Light => 2048,
            CostHint::Medium => 1024,
            CostHint::Heavy => 128,
        }
    }
}

/// `ceil(log2(n))` for `n >= 1`.
#[inline]
pub fn log2_ceil(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// `floor(log2(n))` for `n >= 1`.
#[inline]
pub fn log2_floor(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - 1 - n.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_helpers() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
        assert_eq!(log2_floor(1), 0);
        assert_eq!(log2_floor(2), 1);
        assert_eq!(log2_floor(3), 1);
        assert_eq!(log2_floor(1024), 10);
        assert_eq!(log2_floor(2047), 10);
    }

    #[test]
    fn meter_accumulates() {
        let m = CostMeter::new();
        m.add_work(10);
        m.add_work(5);
        m.add_depth(3);
        m.add_round(1024);
        assert_eq!(m.work(), 15);
        assert_eq!(m.depth(), 3 + 10);
        assert_eq!(m.rounds(), 1);
    }

    #[test]
    fn charge_primitive_charges_linear_work_log_depth() {
        let m = CostMeter::new();
        m.charge_primitive(1 << 16);
        assert_eq!(m.work(), 1 << 16);
        assert_eq!(m.depth(), 16);
    }

    #[test]
    fn snapshot_delta() {
        let m = CostMeter::new();
        m.add_work(100);
        let s1 = m.snapshot();
        m.add_work(50);
        m.add_depth(7);
        let s2 = m.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.work, 50);
        assert_eq!(d.depth, 7);
        assert_eq!(d.rounds, 0);
    }

    #[test]
    fn disabled_meter_discards_charges() {
        let m = CostMeter::disabled();
        assert!(!m.is_enabled());
        m.add_work(100);
        m.add_depth(5);
        m.add_round(1024);
        m.charge_primitive(1 << 10);
        assert_eq!(m.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn reset_zeroes() {
        let m = CostMeter::new();
        m.add_work(1);
        m.add_depth(1);
        m.add_round(4);
        m.reset();
        assert_eq!(m.snapshot(), CostSnapshot::default());
    }
}
