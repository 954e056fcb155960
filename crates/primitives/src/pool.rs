//! A persistent work-stealing thread pool for the fork-join primitives.
//!
//! The PR 1 layer realized every `par_*` call with `std::thread::scope`,
//! paying a ~60µs spawn/join round-trip per invocation — the dominant
//! scheduling overhead on the hot paths (`semisort`, settlement).
//! This module replaces it with a pool in the Chase–Lev mold, std-only:
//!
//! * **persistent workers** parked on a condvar, woken in ~1µs;
//! * a **per-worker deque** each (owner pops LIFO for locality, thieves
//!   steal FIFO so they take the largest unsplit ranges);
//! * a **global injector** for submissions from non-worker threads;
//! * **lazy binary splitting**: a job over `0..n` enters as one task;
//!   whoever executes a task peels off and publishes its upper half until
//!   the range reaches the job's grain, so splitting happens exactly as
//!   deep as idle workers demand;
//! * **cooperative blocking**: a thread waiting on a job (including a
//!   worker inside a *nested* fork-join) executes pool tasks while it
//!   waits, which makes nested parallel loops deadlock-free.
//!
//! Pools are handed around as `Arc<ParPool>`. [`current`] resolves the pool
//! a primitive should run on: an [`ParPool::install`] scope first, then the
//! executing worker's own pool, then the process-global default (sized by
//! [`crate::par::num_threads`], rebuilt when the cap changes).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock, Weak};
use std::time::Duration;

/// How long an idle worker parks before re-scanning the queues. The wakeup
/// protocol is race-free (pushes notify under the idle lock; parking
/// workers re-check queue visibility under the same lock), so this is pure
/// insurance against a lost wakeup through the `searching` throttle — and
/// it bounds the *idle* cost of the never-dropped global pool to one wake
/// per worker per second.
const WORKER_PARK_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a thread blocked on a job's completion sleeps between queue
/// re-scans. Job waits only exist while a job is in flight, so a short
/// timeout here costs nothing at idle and keeps fork-join latency low when
/// a helper misses a task pushed between its scan and its wait.
const JOB_WAIT_TIMEOUT: Duration = Duration::from_millis(1);

/// Type-erased borrowed closure `Fn(lo, hi)`. The submitting thread blocks
/// in [`ParPool::run_range`] until every subrange completed, which is what
/// makes the borrow sound beyond `'static`.
#[derive(Clone, Copy)]
struct RawClosure {
    data: *const (),
    call: unsafe fn(*const (), usize, usize),
}

unsafe fn call_closure<F: Fn(usize, usize) + Sync>(data: *const (), lo: usize, hi: usize) {
    // SAFETY: `data` was erased from an `&F` that outlives the job.
    unsafe { (*(data as *const F))(lo, hi) }
}

/// Shared state of one submitted job.
struct JobCore {
    run: RawClosure,
    grain: usize,
    /// Elements of `0..n` not yet executed. The job is complete at 0.
    remaining: AtomicUsize,
    /// First panic payload from any subrange, rethrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion latch (guards nothing; pairs with `done_cv`).
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw closure pointer is only dereferenced through `call`, which
// requires `F: Sync`; all other fields are Sync.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Record `span` elements as executed; open the latch at zero.
    fn complete(&self, span: usize) {
        if span == 0 {
            return;
        }
        if self.remaining.fetch_sub(span, Ordering::AcqRel) == span {
            let mut done = self.done.lock().expect("job latch poisoned");
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// One schedulable unit: a contiguous subrange of a job.
struct Task {
    job: Arc<JobCore>,
    lo: usize,
    hi: usize,
}

/// Aggregate scheduler counters (telemetry for tests and tuning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted through [`ParPool::run_range`] that went parallel.
    pub jobs: u64,
    /// Tasks taken from another worker's deque or by a worker from the
    /// injector.
    pub steals: u64,
    /// Binary splits performed by lazy task splitting.
    pub splits: u64,
}

struct Inner {
    /// Unique pool identity (worker TLS validity check).
    id: u64,
    /// Parallelism including the submitting thread: `workers.len() + 1`.
    threads: usize,
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Condvar pairing for parked workers.
    idle: Mutex<()>,
    wake: Condvar,
    sleepers: AtomicUsize,
    /// Woken workers currently scanning for a task. While one is searching,
    /// pushes do not wake more (rayon's throttle): a successful thief wakes
    /// the next sleeper itself, so wakeups cascade exactly as far as there
    /// is work, and a burst of pushes costs one futex syscall instead of
    /// one per push — the difference between winning and losing to
    /// spawn-per-call on an oversubscribed host.
    searching: AtomicUsize,
    shutdown: AtomicBool,
    jobs: AtomicU64,
    steals: AtomicU64,
    splits: AtomicU64,
}

impl Inner {
    /// Publish a task: to the executing worker's own deque when on a worker
    /// of this pool, otherwise to the injector; wake a parked worker.
    fn push(&self, task: Task, worker: Option<usize>) {
        match worker {
            Some(w) => self.deques[w]
                .lock()
                .expect("deque poisoned")
                .push_back(task),
            None => self
                .injector
                .lock()
                .expect("injector poisoned")
                .push_back(task),
        }
        self.wake_one_if_needed();
    }

    /// Wake one parked worker unless a woken one is already searching.
    fn wake_one_if_needed(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 && self.searching.load(Ordering::SeqCst) == 0 {
            // Take the idle lock so the notify cannot race a worker that is
            // between its queue re-scan and its wait.
            let _guard = self.idle.lock().expect("idle lock poisoned");
            self.wake.notify_one();
        }
    }

    /// Find a task: own deque (LIFO), then injector, then steal from the
    /// other deques (FIFO — the front holds the largest unsplit ranges).
    fn find_task(&self, worker: Option<usize>) -> Option<Task> {
        if let Some(w) = worker {
            if let Some(t) = self.deques[w].lock().expect("deque poisoned").pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().expect("injector poisoned").pop_front() {
            if worker.is_some() {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            return Some(t);
        }
        let k = self.deques.len();
        if k == 0 {
            return None;
        }
        // Start the sweep at a per-thread offset so thieves spread out.
        let start = thread_ordinal() % k;
        for i in 0..k {
            let d = (start + i) % k;
            if Some(d) == worker {
                continue;
            }
            if let Some(t) = self.deques[d].lock().expect("deque poisoned").pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Execute one task with lazy binary splitting: publish upper halves
    /// until the range is at most the job's grain, run the leaf, and credit
    /// the leaf's span toward job completion. Panics are captured into the
    /// job and rethrown by the submitter.
    fn execute(&self, task: Task, worker: Option<usize>) {
        let Task { job, lo, mut hi } = task;
        while hi - lo > job.grain {
            let mid = lo + (hi - lo) / 2;
            self.splits.fetch_add(1, Ordering::Relaxed);
            self.push(
                Task {
                    job: Arc::clone(&job),
                    lo: mid,
                    hi,
                },
                worker,
            );
            hi = mid;
        }
        let run = job.run;
        if let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| unsafe { (run.call)(run.data, lo, hi) }))
        {
            let mut slot = job.panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        job.complete(hi - lo);
    }

    /// Park until woken or the timeout elapses. Returns immediately if work
    /// appeared between the caller's scan and the park.
    fn park(&self) {
        let guard = self.idle.lock().expect("idle lock poisoned");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !self.has_visible_work() && !self.shutdown.load(Ordering::Acquire) {
            let _ = self
                .wake
                .wait_timeout(guard, WORKER_PARK_TIMEOUT)
                .expect("idle lock poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn has_visible_work(&self) -> bool {
        if !self.injector.lock().expect("injector poisoned").is_empty() {
            return true;
        }
        self.deques
            .iter()
            .any(|d| !d.lock().expect("deque poisoned").is_empty())
    }
}

/// A persistent work-stealing pool. Construct with [`ParPool::with_threads`]
/// and share as `Arc<ParPool>`; all fork-join primitives in this crate run
/// on the pool resolved by [`current`].
pub struct ParPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    /// Pools installed on this thread via [`ParPool::install`] (innermost
    /// last).
    static INSTALLED: std::cell::RefCell<Vec<Arc<ParPool>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Set once on pool worker threads: (owning pool, pool id, worker index).
    static WORKER: std::cell::RefCell<Option<(Weak<ParPool>, u64, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Monotonic ordinal per OS thread (steal-sweep offset).
fn thread_ordinal() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

static POOL_IDS: AtomicU64 = AtomicU64::new(1);

impl ParPool {
    /// Build a pool with parallelism `threads` (the submitting thread counts
    /// as one, so `threads - 1` workers are spawned; `0` means one per
    /// available core). A pool of 1 runs everything inline.
    pub fn with_threads(threads: usize) -> Arc<ParPool> {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let workers = threads.saturating_sub(1);
        let inner = Arc::new(Inner {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            threads,
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            searching: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            jobs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            splits: AtomicU64::new(0),
        });
        Arc::new_cyclic(|weak: &Weak<ParPool>| {
            let handles = (0..workers)
                .map(|idx| {
                    let inner = Arc::clone(&inner);
                    let weak = weak.clone();
                    std::thread::Builder::new()
                        .name(format!("pbdmm-par-{idx}"))
                        .spawn(move || worker_main(inner, weak, idx))
                        .expect("failed to spawn pool worker")
                })
                .collect();
            ParPool {
                inner,
                handles: Mutex::new(handles),
            }
        })
    }

    /// Parallelism of this pool (submitting thread included).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Scheduler counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.inner.jobs.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            splits: self.inner.splits.load(Ordering::Relaxed),
        }
    }

    /// The worker index of the calling thread *within this pool*, if the
    /// calling thread is one of this pool's workers.
    fn worker_index(&self) -> Option<usize> {
        WORKER.with(|w| match &*w.borrow() {
            Some((_, id, idx)) if *id == self.inner.id => Some(*idx),
            _ => None,
        })
    }

    /// Run `body(lo, hi)` over disjoint subranges covering `0..n`, splitting
    /// lazily down to `grain`, and return once every element is covered.
    /// Runs inline when the pool has no workers or the range is one leaf.
    /// Panics from any subrange are propagated.
    pub fn run_range<F>(&self, n: usize, grain: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        if self.inner.threads <= 1 || n <= grain {
            body(0, n);
            return;
        }
        self.inner.jobs.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(JobCore {
            run: RawClosure {
                data: &body as *const F as *const (),
                call: call_closure::<F>,
            },
            grain,
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let worker = self.worker_index();
        // Execute the root task on the submitting thread: it peels upper
        // halves into the queues as it descends to its leftmost leaf.
        self.inner.execute(
            Task {
                job: Arc::clone(&job),
                lo: 0,
                hi: n,
            },
            worker,
        );
        // Cooperative wait: run pool tasks (any job) until this job is done.
        while !job.is_done() {
            match self.inner.find_task(worker) {
                Some(task) => self.inner.execute(task, worker),
                None => {
                    let guard = job.done.lock().expect("job latch poisoned");
                    if !*guard && !job.is_done() {
                        // Timeout bounds the cost of a task pushed between
                        // the failed scan and this wait.
                        let _ = job
                            .done_cv
                            .wait_timeout(guard, JOB_WAIT_TIMEOUT)
                            .expect("job latch poisoned");
                    }
                }
            }
        }
        let payload = job.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Binary fork-join: run `a` and `b` as two parallel tasks and return
    /// both results. The second task is published for stealing while the
    /// caller runs the first.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.inner.threads <= 1 {
            return (a(), b());
        }
        let fa = Mutex::new(Some(a));
        let fb = Mutex::new(Some(b));
        let ra: Mutex<Option<RA>> = Mutex::new(None);
        let rb: Mutex<Option<RB>> = Mutex::new(None);
        self.run_range(2, 1, |lo, hi| {
            for i in lo..hi {
                if i == 0 {
                    let f = fa.lock().expect("join slot").take().expect("fork a reused");
                    *ra.lock().expect("join slot") = Some(f());
                } else {
                    let f = fb.lock().expect("join slot").take().expect("fork b reused");
                    *rb.lock().expect("join slot") = Some(f());
                }
            }
        });
        (
            ra.into_inner().expect("join slot").expect("fork a skipped"),
            rb.into_inner().expect("join slot").expect("fork b skipped"),
        )
    }

    /// Make this pool the [`current`] pool for the duration of `f` on this
    /// thread (and, transitively, for tasks it submits to this pool, since
    /// its workers resolve to their own pool). Scopes nest; the previous
    /// current pool is restored on exit, including on panic.
    pub fn install<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                INSTALLED.with(|s| s.borrow_mut().pop());
            }
        }
        INSTALLED.with(|s| s.borrow_mut().push(Arc::clone(self)));
        let _guard = PopGuard;
        f()
    }
}

impl Drop for ParPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.idle.lock().expect("idle lock poisoned");
            self.inner.wake.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParPool")
            .field("threads", &self.inner.threads)
            .field("stats", &self.stats())
            .finish()
    }
}

fn worker_main(inner: Arc<Inner>, pool: Weak<ParPool>, idx: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((pool, inner.id, idx)));
    loop {
        // Scan under the `searching` flag so concurrent pushes skip their
        // wakeups while this worker is already looking. Once a task is
        // taken the flag drops, and the splits this worker publishes wake
        // the next sleeper — the cascade follows the work.
        inner.searching.fetch_add(1, Ordering::SeqCst);
        let task = inner.find_task(Some(idx));
        inner.searching.fetch_sub(1, Ordering::SeqCst);
        match task {
            Some(task) => inner.execute(task, Some(idx)),
            None => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                inner.park();
            }
        }
    }
}

// --- The process-global default pool ---------------------------------------

struct GlobalSlot {
    pool: Arc<ParPool>,
}

static GLOBAL: OnceLock<RwLock<GlobalSlot>> = OnceLock::new();

/// The process-global default pool, sized to [`crate::par::num_threads`].
/// Built lazily; rebuilt (workers of the old pool wind down once idle) when
/// the configured thread count changes, so `set_num_threads` and the
/// `PBDMM_THREADS` environment variable drive this same scheduler.
pub fn global() -> Arc<ParPool> {
    let want = crate::par::num_threads().max(1);
    let slot = GLOBAL.get_or_init(|| {
        RwLock::new(GlobalSlot {
            pool: ParPool::with_threads(want),
        })
    });
    {
        let read = slot.read().expect("global pool poisoned");
        if read.pool.threads() == want {
            return Arc::clone(&read.pool);
        }
    }
    let mut write = slot.write().expect("global pool poisoned");
    if write.pool.threads() != want {
        write.pool = ParPool::with_threads(want);
    }
    Arc::clone(&write.pool)
}

/// The pool the calling context should run on: the innermost
/// [`ParPool::install`] scope, else the executing pool worker's own pool,
/// else the process-global default.
pub fn current() -> Arc<ParPool> {
    if let Some(p) = INSTALLED.with(|s| s.borrow().last().cloned()) {
        return p;
    }
    if let Some(p) = WORKER.with(|w| w.borrow().as_ref().and_then(|(p, _, _)| p.upgrade())) {
        return p;
    }
    global()
}

/// The parallelism of the [`current`] context *without* building the global
/// pool: an installed or worker pool answers directly; otherwise this is
/// the configured [`crate::par::num_threads`] (the size the global pool
/// would be built with). The `should_par_hint` gate uses this, so a pinned
/// pool's parallelism counts even when the process-wide cap is 1.
pub fn current_threads() -> usize {
    if let Some(n) = INSTALLED.with(|s| s.borrow().last().map(|p| p.threads())) {
        return n;
    }
    if let Some(n) = WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .and_then(|(p, _, _)| p.upgrade())
            .map(|p| p.threads())
    }) {
        return n;
    }
    crate::par::num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn run_range_covers_every_element_once() {
        let pool = ParPool::with_threads(4);
        let hits: Vec<TestCounter> = (0..10_000).map(|_| TestCounter::new(0)).collect();
        pool.run_range(10_000, 64, |lo, hi| {
            for slot in &hits[lo..hi] {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_range_inline_when_single_threaded() {
        let pool = ParPool::with_threads(1);
        let sum = TestCounter::new(0);
        pool.run_range(1000, 8, |lo, hi| {
            sum.fetch_add((lo..hi).sum::<usize>() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
        assert_eq!(pool.stats().jobs, 0); // inline path submits no job
    }

    #[test]
    fn nested_run_range_completes() {
        let pool = ParPool::with_threads(4);
        let total = TestCounter::new(0);
        pool.run_range(64, 1, |lo, hi| {
            for _ in lo..hi {
                // A nested fork-join from inside a task.
                super::current().run_range(256, 16, |l, h| {
                    total.fetch_add((h - l) as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 256);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ParPool::with_threads(4);
        let (a, b) = pool.join(|| 21 * 2, || "right".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "right");
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let pool = ParPool::with_threads(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_range(10_000, 16, |lo, _| {
                if lo == 0 {
                    panic!("task boom");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task boom");
        // The pool survives a panicked job.
        let ok = TestCounter::new(0);
        pool.run_range(1000, 16, |lo, hi| {
            ok.fetch_add((hi - lo) as u64, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let a = ParPool::with_threads(2);
        let b = ParPool::with_threads(3);
        a.install(|| {
            assert_eq!(current().threads(), 2);
            b.install(|| assert_eq!(current().threads(), 3));
            assert_eq!(current().threads(), 2);
        });
    }

    #[test]
    fn workers_are_reused_across_jobs() {
        let pool = ParPool::with_threads(4);
        let ids = Mutex::new(std::collections::HashSet::new());
        for _ in 0..20 {
            pool.run_range(50_000, 1024, |_, _| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        }
        // 20 jobs, but only the pool's threads ever ran tasks: no churn.
        assert!(ids.lock().unwrap().len() <= 4);
        assert!(pool.stats().jobs >= 20);
    }

    #[test]
    fn global_pool_tracks_thread_cap() {
        let _knobs = crate::par::test_knob_lock();
        // Runs in the shared test process: restore the cap when done.
        crate::par::set_num_threads(3);
        assert_eq!(global().threads(), 3);
        crate::par::set_num_threads(2);
        assert_eq!(global().threads(), 2);
        crate::par::set_num_threads(0);
        assert!(global().threads() >= 1);
    }
}
