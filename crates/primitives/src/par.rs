//! Fork-join helpers realizing the binary-forking model on the persistent
//! work-stealing pool ([`crate::pool`]) — no external runtime.
//!
//! Every parallel primitive in this crate routes through these helpers so
//! that (a) small inputs stay sequential (adaptive grain control — the
//! cutoff depends on the primitive's per-element [`CostHint`] and the
//! worker count, because parallelism below the fork overhead costs more
//! than it gains), and (b) the worker count can be configured per process
//! via [`set_num_threads`] or the `PBDMM_THREADS` environment variable (the
//! benchmark harness's speedup sweeps and the CI thread matrix use these).
//! A one-thread pool is the sequential path: run a computation inside
//! `ParPool::with_threads(1).install(..)` and every gate stays sequential.
//!
//! Work is executed as *splittable range tasks*: a call covering `0..n`
//! submits one task to the current [`crate::pool::ParPool`], and the task
//! splits itself in half lazily exactly as deep as idle workers demand.
//! There is no thread spawning on any call path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use crate::cost::CostHint;
use crate::pool;

/// Worker-count cap; 0 means "use `PBDMM_THREADS` or all available cores".
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Cap the number of worker threads used by the primitives (0 restores the
/// default: `PBDMM_THREADS` if set, else one worker per available core).
/// Global and sticky; the process-global [`crate::pool::ParPool`] is rebuilt
/// to the new size on its next use.
pub fn set_num_threads(n: usize) {
    THREAD_CAP.store(n, Ordering::SeqCst);
}

/// The default worker count when no explicit cap is set: the
/// `PBDMM_THREADS` environment variable (read once), else the detected core
/// count. The env var is what CI's thread matrix drives.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("PBDMM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    })
}

/// The number of worker threads parallel primitives will use. A nonzero
/// cap is honored verbatim, even above the detected core count (tests use
/// this to force parallel paths on single-core hosts).
pub fn num_threads() -> usize {
    let cap = THREAD_CAP.load(Ordering::Relaxed);
    if cap == 0 {
        default_threads()
    } else {
        cap
    }
}

/// The parallelism of the calling context: the innermost installed pool or
/// the executing worker's pool, else the configured global thread count.
/// This — not the raw global cap — is what the gates consult, so a
/// structure pinned to a multi-thread [`crate::pool::ParPool`] goes
/// parallel even in a process whose global cap is 1.
#[inline]
pub fn parallelism() -> usize {
    pool::current_threads().max(1)
}

/// Should a primitive over `n` elements of the given cost class run in
/// parallel? The sequential cutoff comes from the hint: the cheaper each
/// element, the larger the input must be before forking pays.
#[inline]
pub fn should_par_hint(n: usize, hint: CostHint) -> bool {
    n >= hint.sequential_cutoff() && parallelism() > 1
}

/// The number of threads that can actually run simultaneously: the current
/// context's parallelism capped by the machine's cores. A cap forced above
/// the core count (the single-core CI trick) still *exercises* the parallel
/// paths, but splitting work for threads that cannot run concurrently only
/// adds scheduling overhead, so grain sizing uses this.
fn effective_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    parallelism().min(cores).max(1)
}

/// The leaf size splittable tasks stop dividing at: targets ~4 leaves per
/// *effective* worker (slack for stealing imbalance without oversplitting
/// on oversubscribed hosts), floored by the hint's amortization minimum so
/// scheduling cost stays negligible per leaf.
#[inline]
fn adaptive_grain(n: usize, hint: CostHint) -> usize {
    (n / (4 * effective_parallelism()))
        .max(hint.min_leaf())
        .max(1)
}

/// Serialization for tests that mutate the process-global thread cap
/// ([`set_num_threads`]): `cargo test` runs tests of one binary
/// concurrently, so unserialized cap flips make assertions about the
/// resulting global state flaky.
#[cfg(test)]
pub(crate) fn test_knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Raw-pointer capture for disjoint indexed writes from pool tasks. Sound
/// because every user writes each index at most once and the submitting
/// call blocks until all tasks complete.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Split `0..n` into at most `k` near-equal contiguous ranges.
fn ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let k = k.max(1).min(n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The chunk count for fixed-partition helpers: a few chunks per effective
/// worker so the pool's stealing can balance uneven chunk costs.
fn chunk_count(n: usize) -> usize {
    (4 * effective_parallelism()).min(n.max(1))
}

/// Tabulate `f(i)` for `i in 0..n` into a vector, writing results in place
/// from splittable range tasks (no per-chunk buffers, no concatenation).
fn tabulate_hint<U, F>(n: usize, hint: CostHint, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if !should_par_hint(n, hint) {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<U> = Vec::with_capacity(n);
    let slots = SendPtr(out.as_mut_ptr());
    pool::current().run_range(n, adaptive_grain(n, hint), |lo, hi| {
        for i in lo..hi {
            // SAFETY: disjoint indices, each written exactly once; `set_len`
            // runs only after every task completed. On panic the written
            // prefix leaks (safe) because the length stays 0.
            unsafe { slots.get().add(i).write(f(i)) };
        }
    });
    // SAFETY: run_range returned, so all n slots are initialized.
    unsafe { out.set_len(n) };
    out
}

/// Parallel map with adaptive grain control.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync + Send,
{
    tabulate_hint(items.len(), CostHint::Medium, |i| f(&items[i]))
}

/// Parallel for-each over mutable elements.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync + Send,
{
    let n = items.len();
    if !should_par_hint(n, CostHint::Medium) {
        items.iter_mut().for_each(f);
        return;
    }
    let base = SendPtr(items.as_mut_ptr());
    pool::current().run_range(n, adaptive_grain(n, CostHint::Medium), |lo, hi| {
        for i in lo..hi {
            // SAFETY: tasks cover disjoint index ranges of a live slice.
            f(unsafe { &mut *base.get().add(i) });
        }
    });
}

/// Parallel filter-map (order-preserving). Each of a few contiguous chunks
/// per worker (one pool task each, balanced by stealing) filters into its
/// own buffer; the buffers are concatenated in chunk order.
pub fn par_filter_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Sync + Send,
{
    let n = items.len();
    if !should_par_hint(n, CostHint::Medium) {
        return items.iter().filter_map(f).collect();
    }
    let rs = ranges(n, chunk_count(n));
    let mut parts: Vec<Vec<U>> = std::iter::repeat_with(Vec::new).take(rs.len()).collect();
    let slots = SendPtr(parts.as_mut_ptr());
    pool::current().run_range(rs.len(), 1, |lo, hi| {
        for (i, r) in rs.iter().enumerate().take(hi).skip(lo) {
            let part = items[r.clone()].iter().filter_map(&f).collect();
            // SAFETY: each chunk's buffer is written by exactly one task.
            unsafe { *slots.get().add(i) = part };
        }
    });
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Binary fork: run two closures as parallel tasks, the primitive operation
/// of the binary-forking model. The second closure is published for
/// stealing while the caller runs the first; no thread is spawned.
#[inline]
fn fork2<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if parallelism() <= 1 {
        (a(), b())
    } else {
        pool::current().join(a, b)
    }
}

/// Run `f(i)` for all `i in 0..n` in parallel, collecting results in order.
pub fn par_tabulate<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync + Send,
{
    tabulate_hint(n, CostHint::Light, f)
}

/// Smallest `i` in `[lo, hi)` with `pred(i)`, scanned in parallel. Workers
/// share a running best so ranges beyond the current minimum are skipped.
pub fn par_find_first<F>(lo: usize, hi: usize, pred: F) -> Option<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    if hi <= lo {
        return None;
    }
    let n = hi - lo;
    if !should_par_hint(n, CostHint::Light) {
        return (lo..hi).find(|&i| pred(i));
    }
    let best = AtomicUsize::new(usize::MAX);
    pool::current().run_range(n, adaptive_grain(n, CostHint::Light), |rlo, rhi| {
        let start = lo + rlo;
        let end = lo + rhi;
        if start >= best.load(Ordering::Relaxed) {
            return;
        }
        for i in start..end {
            if i >= best.load(Ordering::Relaxed) {
                return;
            }
            if pred(i) {
                best.fetch_min(i, Ordering::Relaxed);
                return;
            }
        }
    });
    let found = best.load(Ordering::Relaxed);
    (found != usize::MAX).then_some(found)
}

/// Apply keyed update groups to disjoint elements of `items` in parallel.
///
/// `groups` carries `(index, payload)` pairs whose indices **must be unique**
/// (e.g. the output of [`crate::semisort::group_by`]) and in range; each
/// payload is applied to its element by `f`. This realizes the paper's
/// "groupBy, then update each target set as a batch, targets in parallel"
/// pattern over dense per-vertex tables. Group costs vary wildly (a hub
/// vertex's list vs a leaf's), so groups are Heavy-hinted splittable tasks.
///
/// # Panics
/// Debug builds assert index uniqueness and range.
pub fn par_apply_disjoint<T, G, F>(items: &mut [T], groups: Vec<(usize, G)>, f: F)
where
    T: Send,
    G: Send,
    F: Fn(&mut T, G) + Sync + Send,
{
    #[cfg(debug_assertions)]
    {
        let mut seen = std::collections::HashSet::new();
        for (i, _) in &groups {
            assert!(*i < items.len(), "group index {i} out of range");
            assert!(seen.insert(*i), "duplicate group index {i}");
        }
    }
    let n = groups.len();
    if !should_par_hint(n, CostHint::Heavy) {
        for (i, g) in groups {
            f(&mut items[i], g);
        }
        return;
    }
    let base = SendPtr(items.as_mut_ptr());
    let mut slots: Vec<Option<(usize, G)>> = groups.into_iter().map(Some).collect();
    let slot_base = SendPtr(slots.as_mut_ptr());
    pool::current().run_range(n, adaptive_grain(n, CostHint::Heavy), |lo, hi| {
        for k in lo..hi {
            // SAFETY: each slot is taken by exactly one task, and the group
            // indices are unique (contract), so each element of `items` is
            // accessed by exactly one task.
            let (i, g) = unsafe { (*slot_base.get().add(k)).take() }
                .expect("par_apply_disjoint slot taken twice");
            f(unsafe { &mut *base.get().add(i) }, g);
        }
    });
}

/// Sort by key, in parallel above the grain size.
pub fn par_sort_by_key<T, K, F>(items: &mut [T], f: F)
where
    T: Send,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    if !should_par_hint(items.len(), CostHint::Medium) {
        items.sort_unstable_by_key(f);
        return;
    }
    par_quicksort(items, &|a: &T, b: &T| f(a).cmp(&f(b)), fork_budget());
}

/// How many fork levels the sort may spawn: 2^budget leaf tasks ≈ 4× the
/// worker count (slack for partition imbalance, balanced by stealing).
fn fork_budget() -> u32 {
    crate::cost::log2_ceil(parallelism()) + 2
}

/// In-place parallel quicksort: Hoare-style partition, fork the halves as
/// pool tasks. Falls back to the standard-library sort below the grain or
/// once the fork budget (which bounds task count near the worker count)
/// runs out.
fn par_quicksort<T, C>(items: &mut [T], cmp: &C, forks: u32)
where
    T: Send,
    C: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    let n = items.len();
    if n < CostHint::Medium.sequential_cutoff() || forks == 0 {
        items.sort_unstable_by(cmp);
        return;
    }
    let mid = partition(items, cmp);
    let (lo, hi) = items.split_at_mut(mid);
    fork2(
        || par_quicksort(lo, cmp, forks - 1),
        || par_quicksort(&mut hi[1..], cmp, forks - 1),
    );
}

/// Median-of-three pivot selection + Hoare partition; returns the pivot's
/// final index (elements left are `<= pivot`, right are `>= pivot`).
fn partition<T, C>(items: &mut [T], cmp: &C) -> usize
where
    C: Fn(&T, &T) -> std::cmp::Ordering,
{
    use std::cmp::Ordering::Less;
    let n = items.len();
    let (a, b, c) = (0, n / 2, n - 1);
    // Order the three samples so the median lands at index b.
    if cmp(&items[b], &items[a]) == Less {
        items.swap(a, b);
    }
    if cmp(&items[c], &items[b]) == Less {
        items.swap(b, c);
        if cmp(&items[b], &items[a]) == Less {
            items.swap(a, b);
        }
    }
    items.swap(b, n - 1); // pivot to the end
    let mut store = 0;
    for i in 0..n - 1 {
        if cmp(&items[i], &items[n - 1]) == Less {
            items.swap(i, store);
            store += 1;
        }
    }
    items.swap(store, n - 1);
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let xs: Vec<u64> = (0..10_000).collect();
        let doubled = par_map(&xs, |x| x * 2);
        assert_eq!(doubled, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_filter_map_filters() {
        let xs: Vec<u32> = (0..10_000).collect();
        let evens = par_filter_map(&xs, |&x| (x % 2 == 0).then_some(x));
        assert_eq!(evens.len(), 5000);
        assert!(evens.iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn fork2_returns_both() {
        let (a, b) = fork2(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn par_tabulate_is_identity_indexed() {
        let v = par_tabulate(8192, |i| i);
        assert_eq!(v.len(), 8192);
        assert!(v.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn par_sort_by_key_handles_duplicates_and_reverse() {
        let mut v: Vec<(u64, u32)> = (0..20_000u32).rev().map(|i| ((i % 7) as u64, i)).collect();
        par_sort_by_key(&mut v, |t| t.0);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(v.len(), 20_000);
    }

    #[test]
    fn par_find_first_matches_sequential() {
        for target in [0usize, 1, 4095, 4096, 9999] {
            assert_eq!(par_find_first(0, 10_000, |i| i >= target), Some(target));
        }
        assert_eq!(par_find_first(0, 10_000, |_| false), None);
        assert_eq!(par_find_first(5, 5, |_| true), None);
    }

    #[test]
    fn par_for_each_mut_touches_all() {
        let mut items = vec![1u64; 10_000];
        par_for_each_mut(&mut items, |x| *x += 1);
        assert!(items.iter().all(|&x| x == 2));
    }

    #[test]
    fn par_apply_disjoint_applies_each_once() {
        let mut items = vec![0u64; 10_000];
        let groups: Vec<(usize, u64)> = (0..10_000).map(|i| (i, i as u64 + 1)).collect();
        par_apply_disjoint(&mut items, groups, |slot, g| *slot += g);
        assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    #[should_panic(expected = "duplicate group index")]
    #[cfg(debug_assertions)]
    fn par_apply_disjoint_rejects_duplicates() {
        let mut items = vec![0u64; 4];
        par_apply_disjoint(&mut items, vec![(1, 1u64), (1, 2u64)], |s, g| *s += g);
    }

    #[test]
    fn sequential_mode_round_trips() {
        // A one-thread pool is the sequential mode: inside its scope no gate
        // goes parallel, and leaving the scope restores the outer context.
        let _knobs = test_knob_lock();
        set_num_threads(4);
        let xs: Vec<u64> = (0..10_000).collect();
        pool::ParPool::with_threads(1).install(|| {
            assert_eq!(parallelism(), 1);
            assert!(!should_par_hint(1 << 20, CostHint::Light));
            assert_eq!(par_map(&xs, |x| x + 1)[9999], 10_000);
        });
        assert!(should_par_hint(1 << 20, CostHint::Light));
        set_num_threads(0);
    }

    #[test]
    fn thread_cap_round_trips() {
        let _knobs = test_knob_lock();
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
        assert!(!should_par_hint(1 << 20, CostHint::Medium));
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn adaptive_grain_respects_hint_floors() {
        let _knobs = test_knob_lock();
        set_num_threads(4);
        // The hint's amortization floor always holds.
        assert!(adaptive_grain(10_000, CostHint::Light) >= CostHint::Light.min_leaf());
        assert!(adaptive_grain(10_000, CostHint::Heavy) >= CostHint::Heavy.min_leaf());
        // Huge n: the per-worker spread dominates and never exceeds n.
        let g = adaptive_grain(1 << 20, CostHint::Light);
        assert!(((1 << 20) / 16..=1 << 20).contains(&g));
        // Heavier classes never split coarser than lighter ones.
        assert!(
            adaptive_grain(1 << 20, CostHint::Heavy) <= adaptive_grain(1 << 20, CostHint::Light)
        );
        set_num_threads(0);
    }

    #[test]
    fn cutoffs_order_by_cost_class() {
        assert!(CostHint::Light.sequential_cutoff() > CostHint::Medium.sequential_cutoff());
        assert!(CostHint::Medium.sequential_cutoff() > CostHint::Heavy.sequential_cutoff());
    }
}
