//! Scheduler-focused coverage: pool reuse, nested fork-join, adaptive-grain
//! boundaries, and determinism of parallel results against the sequential
//! path (a one-thread pool). Runs with the worker cap pinned to 4 (its own
//! test binary, so the global cap cannot leak into other suites) — on
//! single-core hosts this still exercises splitting, stealing, and the
//! cooperative wait paths.

use std::sync::atomic::{AtomicU64, Ordering};

use pbdmm_primitives::cost::CostHint;
use pbdmm_primitives::pool::{self, ParPool};
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::sort::bucket_sort_ord;
use pbdmm_primitives::{group_by, par};

/// Tests in this binary assert on process-global scheduler state (the
/// forced cap, global-pool job counters), so they run serialized: each
/// takes this lock first.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn force_parallel() {
    par::set_num_threads(4);
    assert!(par::should_par_hint(1 << 20, CostHint::Light));
}

#[test]
fn global_pool_is_reused_across_calls() {
    let _knobs = knob_lock();
    force_parallel();
    let pool = pool::global();
    let jobs_before = pool.stats().jobs;
    for _ in 0..10 {
        let xs: Vec<u64> = (0..50_000).collect();
        assert_eq!(par::par_map(&xs, |x| x + 1).len(), 50_000);
    }
    let after = pool::global();
    // Same pool instance served all ten calls (no churn), and it actually
    // scheduled jobs for them.
    assert!(std::sync::Arc::ptr_eq(&pool, &after));
    assert!(after.stats().jobs > jobs_before);
    assert_eq!(after.threads(), 4);
}

#[test]
fn installed_pool_receives_the_work() {
    let _knobs = knob_lock();
    force_parallel();
    let private = ParPool::with_threads(3);
    let before = private.stats().jobs;
    private.install(|| {
        let xs: Vec<u64> = (0..100_000).collect();
        let doubled = par::par_map(&xs, |x| 2 * x);
        assert_eq!(doubled.iter().sum::<u64>(), 99_999 * 100_000);
    });
    assert!(
        private.stats().jobs > before,
        "install scope must route primitives to the installed pool"
    );
}

#[test]
fn nested_par_for_inside_par_for() {
    let _knobs = knob_lock();
    force_parallel();
    let outer = 32usize;
    let inner = 10_000usize;
    let totals: Vec<AtomicU64> = (0..outer).map(|_| AtomicU64::new(0)).collect();
    pool::current().run_range(outer, 1, |olo, ohi| {
        for total in &totals[olo..ohi] {
            // Nested data-parallel loop from inside a pool task: must
            // neither deadlock nor lose iterations.
            pool::current().run_range(inner, 512, |lo, hi| {
                let sum: u64 = (lo as u64..hi as u64).sum();
                total.fetch_add(sum, Ordering::Relaxed);
            });
        }
    });
    let want = (inner as u64 - 1) * inner as u64 / 2;
    for t in &totals {
        assert_eq!(t.load(Ordering::Relaxed), want);
    }
}

#[test]
fn adaptive_grain_boundaries_match_sequential() {
    let _knobs = knob_lock();
    force_parallel();
    // n = 0, 1, cutoff-1, cutoff, cutoff+1 around each cost class's cutoff,
    // through the kept entry point of that class: results must be identical
    // whichever side of the sequential cutoff they fall on.
    let around = |hint: CostHint| {
        let c = hint.sequential_cutoff();
        [0usize, 1, c - 1, c, c + 1]
    };
    for n in around(CostHint::Light) {
        let got = par::par_tabulate(n, |i| i as u64 * 3);
        let want: Vec<u64> = (0..n).map(|i| i as u64 * 3).collect();
        assert_eq!(got, want, "par_tabulate (Light) n={n}");
    }
    for n in around(CostHint::Medium) {
        let xs: Vec<u64> = (0..n as u64).collect();
        let got = par::par_map(&xs, |x| x * 3);
        let want: Vec<u64> = xs.iter().map(|x| x * 3).collect();
        assert_eq!(got, want, "par_map (Medium) n={n}");
    }
    for n in around(CostHint::Heavy) {
        let mut hits = vec![0u64; n];
        let groups: Vec<(usize, u64)> = (0..n).map(|i| (i, 1)).collect();
        par::par_apply_disjoint(&mut hits, groups, |h, g| *h += g);
        assert!(
            hits.iter().all(|&h| h == 1),
            "par_apply_disjoint (Heavy) n={n}"
        );
    }
}

#[test]
fn parallel_results_equal_sequential_results() {
    let _knobs = knob_lock();
    // Seeded determinism: the same inputs produce the same outputs whether
    // the scheduler runs 4-way parallel or on a one-thread pool (the
    // sequential path of every primitive).
    force_parallel();
    let mut rng = SplitMix64::new(0xD5EE);
    let xs: Vec<u64> = (0..200_000).map(|_| rng.bounded(10_000)).collect();
    let pairs: Vec<(u32, u32)> = xs.iter().map(|&x| ((x % 512) as u32, x as u32)).collect();
    let run = || {
        let kept = par::par_filter_map(&xs, |&x| (x % 3 == 0).then_some(x));
        let groups = group_by(pairs.clone());
        let mut sorted = xs.clone();
        par::par_sort_by_key(&mut sorted, |&x| x);
        let bucketed = bucket_sort_ord(xs.iter().map(|&x| x << 50).collect(), |&k| k);
        let found = pbdmm_primitives::find_next(3, xs.len(), |i| xs[i] > 9_990);
        (kept, groups, sorted, bucketed, found)
    };
    let (kept_par, groups_par, sorted_par, bucketed_par, found_par) = run();
    let (kept_seq, groups_seq, sorted_seq, bucketed_seq, found_seq) =
        ParPool::with_threads(1).install(run);

    assert_eq!(kept_par, kept_seq);
    assert_eq!(sorted_par, sorted_seq);
    assert_eq!(bucketed_par, bucketed_seq);
    assert_eq!(found_par, found_seq);
    // group_by order is unspecified across code paths; compare as multisets.
    let canon = |mut gs: Vec<(u32, Vec<u32>)>| {
        for (_, vs) in &mut gs {
            vs.sort_unstable();
        }
        gs.sort();
        gs
    };
    assert_eq!(canon(groups_par), canon(groups_seq));
}

#[test]
fn explicit_pool_sizes_are_honored() {
    let _knobs = knob_lock();
    for threads in [1usize, 2, 5] {
        let p = ParPool::with_threads(threads);
        assert_eq!(p.threads(), threads);
        let hits = std::sync::atomic::AtomicU64::new(0);
        p.run_range(100_000, 1024, |lo, hi| {
            hits.fetch_add((hi - lo) as u64, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 100_000);
    }
}
