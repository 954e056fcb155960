//! Small, fast, seedable PRNGs.
//!
//! The algorithm's guarantees hold against an *oblivious* adversary: the
//! update stream is fixed before the algorithm's coins are drawn. We therefore
//! need (a) a fast per-structure RNG for the algorithm itself and (b)
//! independently seeded RNGs for workload generation. SplitMix64 is used for
//! cheap stateless streams; for bulk random priorities we draw 64-bit words
//! directly.

use crate::hash::mix64;

/// A SplitMix64 PRNG: tiny state, passes BigCrush, supports O(1) jump-ahead
/// (`at`) which lets parallel loops draw independent values without
/// coordination — exactly the "random priorities" pattern the static greedy
/// matcher needs.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The current internal state. `SplitMix64::new(state)` reproduces the
    /// generator exactly from here — the checkpoint/restore hook (the state
    /// *is* the whole generator; outputs are a pure mix of it).
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64_gamma(self.state)
    }

    /// The `i`-th output of the stream seeded at construction, independent of
    /// calls to `next_u64`. Enables data-parallel random draws: iteration `i`
    /// of a parallel loop calls `rng.at(i)`.
    #[inline]
    pub fn at(&self, i: u64) -> u64 {
        mix64_gamma(
            self.state
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1))),
        )
    }

    /// Uniform value in `[0, bound)` using the widening-multiply trick.
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Fork an independent stream (for handing to a sub-computation).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[inline]
fn mix64_gamma(z: u64) -> u64 {
    mix64(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn at_matches_sequential_stream() {
        let base = SplitMix64::new(99);
        let mut seq = SplitMix64::new(99);
        for i in 0..50u64 {
            assert_eq!(base.at(i), seq.next_u64());
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.bounded(13) < 13);
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[rng.bounded(8) as usize] += 1;
        }
        let expected = draws / 8;
        for &c in &counts {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 5) as u64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = SplitMix64::new(1);
        let mut b = a.fork();
        let xs: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }
}
