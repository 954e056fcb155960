//! Bucket sort for uniformly random keys.
//!
//! The static matcher sorts edges by *random* priorities; the paper notes
//! (§3, citing CLRS) that bucket sorting such keys takes `O(m)` work in
//! expectation — comparison sorting would be `O(m log m)`. Keys are spread
//! over `Θ(n)` buckets by their top bits (uniform keys land `O(1)` per
//! bucket in expectation), buckets are sorted independently in parallel,
//! and the concatenation is sorted.

use crate::cost::CostHint;
use crate::par::{par_for_each_mut, should_par_hint};

/// Bucket sort into the **total `Ord` order** using a monotone `u64`
/// bucket key: `a <= b` must imply `bucket_key(a) <= bucket_key(b)`.
/// Buckets distribute by the key's top bits, then each bucket is sorted by
/// `Ord` — so ties in the bucket key (e.g. the index tie-breaker in
/// [`crate::permutation::Priority`]) still land in deterministic order.
///
/// `O(n)` expected work for uniformly distributed bucket keys (each bucket
/// holds `O(1)` items in expectation); still correct, but slower, for
/// skewed keys — so reserve it for genuinely random keys like the
/// matcher's priorities. The matcher uses it to order edges by priority.
pub fn bucket_sort_ord<T, F>(items: Vec<T>, bucket_key: F) -> Vec<T>
where
    T: Send + Ord,
    F: Fn(&T) -> u64 + Sync + Send,
{
    let n = items.len();
    if n <= 1 {
        return items;
    }
    if !should_par_hint(n, CostHint::Medium) {
        let mut items = items;
        items.sort_unstable();
        return items;
    }
    // One bucket per ~4 items, power of two for shift-based indexing.
    let nbuckets = (n / 4).next_power_of_two().max(2);
    let shift = 64 - nbuckets.trailing_zeros();
    let mut buckets: Vec<Vec<T>> = (0..nbuckets).map(|_| Vec::new()).collect();
    for t in items {
        let b = (bucket_key(&t) >> shift) as usize;
        buckets[b].push(t);
    }
    par_for_each_mut(&mut buckets, |bucket| bucket.sort_unstable());
    let mut out = Vec::with_capacity(n);
    for bucket in buckets {
        out.extend(bucket);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn empty_and_single() {
        assert!(bucket_sort_ord(Vec::<u64>::new(), |&x| x).is_empty());
        assert_eq!(bucket_sort_ord(vec![9u64], |&x| x), vec![9]);
    }

    #[test]
    fn sorts_random_keys_large() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        let sorted = bucket_sort_ord(xs.clone(), |&x| x);
        let mut want = xs;
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn sorts_small_inputs_via_fallback() {
        let xs = vec![5u64, 1, 4, 1, 3];
        assert_eq!(bucket_sort_ord(xs, |&x| x), vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn sorts_structs_by_projected_key() {
        let mut rng = SplitMix64::new(2);
        let items: Vec<(u64, u32)> = (0..50_000).map(|i| (rng.next_u64(), i)).collect();
        let sorted = bucket_sort_ord(items.clone(), |t| t.0);
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(sorted.len(), items.len());
    }

    #[test]
    fn index_sort_matches_argsort() {
        // The matcher's use: order indices by (key, index) pairs.
        let mut rng = SplitMix64::new(3);
        let keys: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
        let pairs = (0..keys.len() as u32).map(|i| (keys[i as usize], i));
        let idx: Vec<u32> = bucket_sort_ord(pairs.collect(), |t| t.0)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        let mut want: Vec<u32> = (0..keys.len() as u32).collect();
        want.sort_unstable_by_key(|&i| keys[i as usize]);
        assert_eq!(idx, want);
    }

    #[test]
    fn ord_variant_breaks_key_ties_deterministically() {
        // All items share the bucket key; Ord (second field) must decide.
        let items: Vec<(u64, u32)> = (0..20_000).rev().map(|i| (7, i)).collect();
        let sorted = bucket_sort_ord(items, |t| t.0);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sorted[0], (7, 0));
    }

    #[test]
    fn ord_variant_matches_comparison_sort_on_random_input() {
        let mut rng = SplitMix64::new(5);
        let items: Vec<(u64, u32)> = (0..30_000).map(|i| (rng.next_u64() >> 40, i)).collect();
        let sorted = bucket_sort_ord(items.clone(), |t| t.0);
        let mut want = items;
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn handles_skewed_keys_correctly_if_slowly() {
        // Correctness must survive non-uniform keys (top bits all zero).
        let xs: Vec<u64> = (0..10_000).map(|i| (10_000 - i) % 97).collect();
        let sorted = bucket_sort_ord(xs.clone(), |&x| x);
        let mut want = xs;
        want.sort_unstable();
        assert_eq!(sorted, want);
    }
}
