//! Exercise the genuinely-parallel code paths even on single-core CI boxes:
//! every test pins the worker cap to 4 (an explicit cap may exceed the
//! detected core count), so `should_par_hint` holds for large inputs and the
//! chunked/forked implementations run for real. This file is its own test
//! binary (own process) so the global cap cannot leak into other suites.

use pbdmm_primitives::cost::CostHint;
use pbdmm_primitives::par;
use pbdmm_primitives::rng::SplitMix64;

fn force_parallel() {
    par::set_num_threads(4);
    assert!(par::num_threads() >= 4);
    assert!(par::should_par_hint(1 << 20, CostHint::Medium));
}

#[test]
fn par_map_variants_preserve_order_in_parallel() {
    force_parallel();
    let xs: Vec<u64> = (0..50_000).collect();
    assert_eq!(
        par::par_map(&xs, |x| x * 2),
        xs.iter().map(|x| x * 2).collect::<Vec<_>>()
    );
    let evens = par::par_filter_map(&xs, |&x| (x % 2 == 0).then_some(x));
    assert_eq!(evens.len(), 25_000);
    assert_eq!(par::par_tabulate(50_000, |i| i as u64), xs);
}

#[test]
fn par_sorts_match_std_in_parallel() {
    force_parallel();
    let mut rng = SplitMix64::new(77);
    let xs: Vec<u64> = (0..200_000).map(|_| rng.bounded(1000)).collect();
    let mut a = xs.clone();
    par::par_sort_by_key(&mut a, |&x| x);
    let mut want = xs.clone();
    want.sort_unstable();
    assert_eq!(a, want);

    let mut pairs: Vec<(u64, u32)> = xs.iter().enumerate().map(|(i, &x)| (x, i as u32)).collect();
    par::par_sort_by_key(&mut pairs, |t| t.0);
    assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
    assert_eq!(pairs.len(), 200_000);
}

#[test]
fn semisort_agrees_with_oracles_in_parallel() {
    force_parallel();
    let mut rng = SplitMix64::new(99);
    let pairs: Vec<(u32, u32)> = (0..80_000)
        .map(|_| (rng.bounded(500) as u32, rng.bounded(10_000) as u32))
        .collect();
    let groups = pbdmm_primitives::group_by(pairs.clone());
    let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, pairs.len());

    let pairs64: Vec<(u32, u64)> = pairs.iter().map(|&(k, v)| (k, v as u64)).collect();
    let sums = pbdmm_primitives::sum_by(pairs64);
    let mut oracle = std::collections::HashMap::new();
    for &(k, v) in &pairs {
        *oracle.entry(k).or_insert(0u64) += v as u64;
    }
    assert_eq!(sums.len(), oracle.len());
    for (k, s) in sums {
        assert_eq!(oracle[&k], s);
    }
}

#[test]
fn find_next_and_apply_disjoint_in_parallel() {
    force_parallel();
    for target in [0usize, 4095, 4096, 50_000, 99_999] {
        assert_eq!(
            pbdmm_primitives::find_next(0, 100_000, |j| j >= target),
            Some(target)
        );
    }
    let mut items = vec![0u64; 60_000];
    let groups: Vec<(usize, u64)> = (0..60_000).map(|i| (i, i as u64 + 1)).collect();
    par::par_apply_disjoint(&mut items, groups, |slot, g| *slot += g);
    assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
}

#[test]
fn bucket_sort_in_parallel() {
    force_parallel();
    let mut rng = SplitMix64::new(5);
    let xs: Vec<u64> = (0..50_000).map(|_| rng.next_u64()).collect();
    let sorted = pbdmm_primitives::sort::bucket_sort_ord(xs.clone(), |&x| x);
    let mut want = xs;
    want.sort_unstable();
    assert_eq!(sorted, want);
}
