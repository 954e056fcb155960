//! Randomized property tests for the parallel primitives against sequential
//! oracles: whatever the fork-join scheduler does, results must equal the
//! obvious single-threaded computation. Cases are generated from fixed seeds
//! (deterministic, reproducible) — a std-only stand-in for proptest.

use pbdmm_primitives::find_next::find_next_in;
use pbdmm_primitives::permutation::random_priorities;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::semisort::{group_by, sum_by};
use pbdmm_primitives::sort::bucket_sort_ord;

/// Cases per property: 48 by default; the nightly CI job raises it via
/// `PBDMM_PROP_CASES` for deeper sweeps at the same fixed seeds.
fn cases() -> u64 {
    std::env::var("PBDMM_PROP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// A random vector length skewed toward both tiny (sequential-path) and
/// large (parallel-path) cases.
fn arb_len(rng: &mut SplitMix64, max: usize) -> usize {
    match rng.bounded(4) {
        0 => rng.bounded(8) as usize,
        1 => rng.bounded(200) as usize,
        _ => rng.bounded(max as u64) as usize,
    }
}

fn arb_vec_u64(rng: &mut SplitMix64, max_len: usize, bound: u64) -> Vec<u64> {
    let n = arb_len(rng, max_len);
    (0..n).map(|_| rng.bounded(bound)).collect()
}

#[test]
fn group_by_preserves_multiset() {
    let mut rng = SplitMix64::new(0xA4);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 12_000);
        let pairs: Vec<(u8, u32)> = (0..n)
            .map(|_| (rng.bounded(32) as u8, rng.next_u64() as u32))
            .collect();
        let groups = group_by(pairs.clone());
        let mut got: Vec<(u8, u32)> = groups
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |&v| (*k, v)))
            .collect();
        let mut want = pairs;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn sum_by_matches_hashmap_fold() {
    let mut rng = SplitMix64::new(0xA5);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 12_000);
        let pairs: Vec<(u16, u64)> = (0..n)
            .map(|_| (rng.bounded(100) as u16, rng.bounded(1000)))
            .collect();
        let mut want = std::collections::HashMap::new();
        for &(k, v) in &pairs {
            *want.entry(k).or_insert(0u64) += v;
        }
        let got = sum_by(pairs);
        assert_eq!(got.len(), want.len());
        for (k, v) in got {
            assert_eq!(want.get(&k), Some(&v));
        }
    }
}

#[test]
fn bucket_sort_equals_comparison_sort() {
    let mut rng = SplitMix64::new(0xA7);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 10_000);
        let xs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let got = bucket_sort_ord(xs.clone(), |&x| x);
        let mut want = xs;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn bucket_sort_ord_equals_comparison_sort() {
    let mut rng = SplitMix64::new(0xA8);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 10_000);
        let pairs: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.next_u64() >> rng.bounded(64), rng.next_u64() as u32))
            .collect();
        let got = bucket_sort_ord(pairs.clone(), |t| t.0);
        let mut want = pairs;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn find_next_equals_linear_scan() {
    let mut rng = SplitMix64::new(0xA9);
    for _ in 0..cases() {
        let xs: Vec<u8> = arb_vec_u64(&mut rng, 500, 4)
            .into_iter()
            .map(|x| x as u8)
            .collect();
        let start = rng.bounded(520) as usize;
        let got = find_next_in(&xs, start, |&x| x == 3);
        let want = (start.min(xs.len())..xs.len()).find(|&j| xs[j] == 3);
        assert_eq!(got, want);
    }
}

#[test]
fn priorities_induce_uniform_support_permutation() {
    let mut rng = SplitMix64::new(0xAA);
    for _ in 0..cases() {
        let n = arb_len(&mut rng, 8000);
        let mut seed_rng = SplitMix64::new(rng.next_u64());
        let pri = random_priorities(n, &mut seed_rng);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| pri[i as usize]);
        // Distinct priorities: the argsort is a strict total order.
        assert!(order
            .windows(2)
            .all(|w| pri[w[0] as usize] < pri[w[1] as usize]));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }
}
