//! Random permutations (§2).
//!
//! The static greedy matcher assigns each edge a *priority*: its position in
//! a uniformly random permutation. The paper cites [Gil, Matias, Vishkin '91]
//! for an `O(n)`-work, `O(log n)`-depth parallel permutation. The matcher
//! never needs the permutation array itself, only a total order on edges,
//! so [`random_priorities`] draws i.i.d. 64-bit keys with index
//! tie-breaking instead: embarrassingly parallel (`O(n)` work, `O(1)`
//! depth) and collision-free after tie-breaking.

use crate::par::par_tabulate;
use crate::rng::SplitMix64;

/// A priority: random key with the element index as tiebreaker, so priorities
/// are distinct even on (astronomically unlikely) 64-bit key collisions.
/// Lower compares as *higher priority* (earlier in the permutation), matching
/// the paper's "order in the permutation (highest first)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority {
    /// Random 64-bit key (primary).
    pub key: u64,
    /// Element index (tiebreaker).
    pub index: u32,
}

impl Priority {
    /// The maximal (lowest-priority) sentinel.
    pub const MAX: Priority = Priority {
        key: u64::MAX,
        index: u32::MAX,
    };
}

/// Draw i.i.d. random priorities for `0..n` in parallel. The induced order is
/// a uniformly random permutation (keys are i.i.d.; ties broken by index
/// occur with probability < n²/2⁶⁴).
pub fn random_priorities(n: usize, rng: &mut SplitMix64) -> Vec<Priority> {
    let stream = rng.fork();
    par_tabulate(n, |i| Priority {
        key: stream.at(i as u64),
        index: i as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_are_distinct() {
        let mut rng = SplitMix64::new(9);
        let ps = random_priorities(10_000, &mut rng);
        let set: std::collections::HashSet<_> = ps.iter().collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn priorities_order_is_permutation() {
        let mut rng = SplitMix64::new(13);
        let ps = random_priorities(5000, &mut rng);
        let mut order: Vec<u32> = (0..ps.len() as u32).collect();
        order.sort_unstable_by_key(|&i| ps[i as usize]);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn priority_max_is_lowest() {
        let mut rng = SplitMix64::new(3);
        let ps = random_priorities(100, &mut rng);
        assert!(ps.iter().all(|p| *p < Priority::MAX));
    }

    #[test]
    fn priorities_deterministic_and_independent_of_parallelism() {
        // `at(i)` indexing means the result cannot depend on scheduling.
        let mut a = SplitMix64::new(21);
        let mut b = SplitMix64::new(21);
        assert_eq!(
            random_priorities(8192, &mut a),
            random_priorities(8192, &mut b)
        );
    }
}
