//! # ceps-pool
//!
//! A persistent worker pool for the workspace's hot-path kernels — built so
//! one parallel sparse product costs a single wake→work→sleep round trip
//! instead of a thread spawn per call.
//!
//! The previous parallel kernel spawned a fresh `crossbeam::thread::scope`
//! on **every** power iteration (~50 spawns + joins per RWR solve), which
//! made `--threads` a slowdown at every scale the benchmarks cover. This
//! crate replaces that with:
//!
//! * **N − 1 parked workers, created once** ([`WorkerPool::new`]; the
//!   calling thread is worker 0 and always participates).
//! * **A generation (sense-reversing) barrier**: dispatch bumps an epoch
//!   counter under a mutex and broadcasts on a condvar; each worker keeps
//!   the last epoch it served, so a single `u64` flip separates "job `k`"
//!   from "job `k + 1`" — no hand-shaking per chunk, one wake per job.
//! * **Caller-defined work claiming**: the job closure receives the worker
//!   index and typically drains an atomic cursor over pre-split chunks
//!   (work-stealing; see `Transition::apply_block_restart` in `ceps-graph`).
//! * **A sequential escape hatch**: if a dispatch arrives while another is
//!   in flight (nested parallelism — e.g. serving workers sharing one
//!   pool), the caller just runs the whole job inline. No deadlocks, no
//!   oversubscription, identical results.
//!
//! The pool is deliberately dependency-free apart from `ceps-obs`
//! telemetry (`pool.wake` counts dispatch rounds; the kernels layer
//! `pool.apply` spans and `pool.chunks_stolen` on top).
//!
//! ## Safety
//!
//! This is the one crate in the workspace that needs `unsafe`: a job is a
//! borrowed closure (`&dyn Fn(usize) + Sync`) executed by threads that
//! outlive the borrow. The pointer is lifetime-erased while it sits in the
//! shared slot, and [`WorkerPool::run`] does not return until every worker
//! has finished the job and the slot is cleared — so no worker can observe
//! the pointer after the borrow ends. The invariant is local to this file
//! and documented at both `unsafe` sites.

#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of parked pool worker threads currently alive in this process —
/// exact, because [`WorkerPool`]'s `Drop` joins every worker before
/// returning. Lets tests (and operators) assert pools don't leak threads.
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Decrements [`live_workers`] when a worker thread exits, however it
/// exits.
struct LivenessGuard;

impl Drop for LivenessGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Default minimum estimated work (`nnz × cols` multiply-adds) below which
/// callers should prefer the sequential kernel over a pool dispatch.
///
/// A wake/park round trip costs a few microseconds; a multiply-add costs a
/// fraction of a nanosecond. Below ~256k fused ops the parallel section is
/// too short to amortize the barrier, and small graphs/presets must never
/// regress — so the kernels fall back to sequential under this threshold.
/// Tune per pool with [`WorkerPool::with_min_work`] /
/// [`PoolHandle::with_min_work`] (benchmarks force `0` to measure the pool
/// itself).
pub const DEFAULT_MIN_WORK: usize = 1 << 18;

/// How many chunks each worker should get on average when splitting work,
/// so faster workers can steal from slower ones without the chunk count
/// exploding.
pub const CHUNKS_PER_WORKER: usize = 4;

/// Resolves a requested thread count: `0` means "auto" — the machine's
/// available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        requested
    }
}

/// Lifetime-erased pointer to the job closure. Only ever dereferenced
/// between the epoch bump that publishes it and the `active == 0`
/// acknowledgement that [`WorkerPool::run`] awaits before returning — i.e.
/// strictly inside the closure's real lifetime.
#[derive(Clone, Copy)]
struct Job {
    ptr: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine) and
// `run` keeps the pointee alive for as long as any worker can hold the
// pointer (see the module docs).
unsafe impl Send for Job {}

/// State under the barrier mutex.
struct Control {
    /// Barrier generation: bumped once per dispatched job. The `u64` never
    /// wraps in practice (2⁶⁴ iterations), which is what makes the
    /// sense-reversing scheme single-writer simple.
    epoch: u64,
    /// Workers still running the current job.
    active: usize,
    /// Current job, present exactly while `epoch` is "open".
    job: Option<Job>,
    /// A worker caught a panic from the job closure.
    panicked: bool,
    /// Pool is being dropped; workers exit.
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    /// Workers park here between jobs.
    start: Condvar,
    /// The dispatching thread parks here until `active == 0`.
    done: Condvar,
}

/// A persistent pool of parked worker threads executing borrowed closures.
///
/// `threads` counts the **calling thread too**: `WorkerPool::new(4)` spawns
/// 3 parked workers and the caller becomes worker 0 of every
/// [`run`](WorkerPool::run). `new(1)` (or `new(0)`) spawns nothing and
/// `run` degenerates to a plain call — so holding a pool is always safe,
/// whatever the machine.
///
/// Dropping the pool joins all workers; a pool is reused for any number of
/// jobs (that is the point — see [`WorkerPool::rounds`]).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes dispatches; `try_lock` failure = nested parallelism, run
    /// the job inline instead of deadlocking or oversubscribing.
    run_gate: Mutex<()>,
    threads: usize,
    min_work: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("min_work", &self.min_work)
            .field("rounds", &self.rounds())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` total workers (including the caller)
    /// with the [`DEFAULT_MIN_WORK`] advisory threshold. `0` resolves to
    /// the machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        Self::with_min_work(threads, DEFAULT_MIN_WORK)
    }

    /// [`WorkerPool::new`] with a custom advisory work threshold (consulted
    /// by the kernels via [`WorkerPool::min_work`]; `0` disables the
    /// sequential fallback).
    pub fn with_min_work(threads: usize, min_work: usize) -> Self {
        let threads = resolve_threads(threads).max(1);
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                epoch: 0,
                active: 0,
                job: None,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ceps-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            run_gate: Mutex::new(()),
            threads,
            min_work,
        }
    }

    /// Total worker count, calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Advisory sequential-fallback threshold (estimated fused ops).
    pub fn min_work(&self) -> usize {
        self.min_work
    }

    /// How many jobs have been dispatched to the parked workers so far
    /// (inline/sequential fallbacks don't count). Diagnostic: lets tests
    /// assert that repeated solves *reuse* the pool.
    pub fn rounds(&self) -> u64 {
        self.shared
            .control
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .epoch
    }

    /// Runs `job` once per worker, concurrently: `job(w)` is called with
    /// each worker index in `0..threads()` (0 = the calling thread). The
    /// closure typically claims work units off a shared atomic cursor, so
    /// every worker call cooperates on one work list and any single call
    /// completing alone is also correct — which is exactly what happens in
    /// the two sequential fallbacks:
    ///
    /// * no parked workers (`threads() == 1`), or
    /// * another dispatch is already in flight (nested parallelism) —
    ///   then only `job(0)` runs, on the caller.
    ///
    /// Returns once every worker has finished. Panics from any worker
    /// (including the caller) are re-raised here after the barrier
    /// completes, so no thread is left running a stale job.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            return job(0);
        }
        // A poisoned gate just means a previous job panicked (and was
        // re-raised to its caller); the barrier itself completed, so the
        // pool is still healthy — recover the guard rather than degrading
        // every later dispatch to inline.
        let _dispatch = match self.run_gate.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return job(0),
        };
        ceps_obs::counter("pool.wake", 1);
        {
            let mut c = self
                .shared
                .control
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            debug_assert!(c.job.is_none() && c.active == 0, "barrier out of sync");
            // SAFETY: the pointer is cleared below before `run` returns,
            // and workers only load it while `active > 0` — strictly within
            // `job`'s borrow (see module docs).
            c.job = Some(Job {
                ptr: unsafe {
                    std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                        job,
                    )
                },
            });
            c.active = self.handles.len();
            c.epoch += 1;
            self.shared.start.notify_all();
        }
        let leader = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panicked = {
            let mut c = self
                .shared
                .control
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while c.active > 0 {
                c = self
                    .shared
                    .done
                    .wait(c)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            c.job = None;
            std::mem::take(&mut c.panicked)
        };
        if let Err(payload) = leader {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "worker pool job panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = self
                .shared
                .control
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            c.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
    let _liveness = LivenessGuard;
    let mut seen = 0u64;
    loop {
        let job = {
            let mut c = shared
                .control
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen {
                    break;
                }
                c = shared
                    .start
                    .wait(c)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            seen = c.epoch;
            c.job.expect("epoch advanced without a job")
        };
        // SAFETY: `active > 0` for this worker until the decrement below,
        // so `run` is still borrowing the closure (see module docs).
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.ptr)(index) }));
        let mut c = shared
            .control
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if outcome.is_err() {
            c.panicked = true;
        }
        c.active -= 1;
        if c.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// A cheap, clonable, **lazy** handle to a shared [`WorkerPool`].
///
/// Engines and services hold handles, not pools: cloning a handle shares
/// the same (future) pool, and no threads exist until the first dispatch
/// that actually clears the work threshold — so constructing an engine on
/// a small graph, or with `threads <= 1`, never spawns anything.
#[derive(Clone)]
pub struct PoolHandle {
    cell: Arc<OnceLock<Arc<WorkerPool>>>,
    threads: usize,
    min_work: usize,
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolHandle")
            .field("threads", &self.threads)
            .field("min_work", &self.min_work)
            .field("materialized", &self.cell.get().is_some())
            .finish()
    }
}

impl PoolHandle {
    /// A handle that will materialize a pool of `threads` workers
    /// (`0` = auto: available parallelism) on first eligible use.
    pub fn new(threads: usize) -> Self {
        Self::with_min_work(threads, DEFAULT_MIN_WORK)
    }

    /// [`PoolHandle::new`] with a custom work threshold for
    /// [`PoolHandle::acquire`] (`0` = always parallel-eligible).
    pub fn with_min_work(threads: usize, min_work: usize) -> Self {
        PoolHandle {
            cell: Arc::new(OnceLock::new()),
            threads: resolve_threads(threads).max(1),
            min_work,
        }
    }

    /// The resolved thread count this handle materializes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sequential-fallback threshold [`PoolHandle::acquire`] applies.
    pub fn min_work(&self) -> usize {
        self.min_work
    }

    /// The pool, if a dispatch has materialized it already.
    pub fn get(&self) -> Option<&Arc<WorkerPool>> {
        self.cell.get()
    }

    /// The pool to use for a job of `estimated_work` fused ops — `None`
    /// when the job should run sequentially (single-threaded handle, or
    /// work under the threshold). Creates the pool on first eligible call;
    /// all clones of this handle share it.
    pub fn acquire(&self, estimated_work: usize) -> Option<&Arc<WorkerPool>> {
        if self.threads <= 1 || estimated_work < self.min_work {
            return None;
        }
        Some(
            self.cell
                .get_or_init(|| Arc::new(WorkerPool::with_min_work(self.threads, self.min_work))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Pool-creating tests share [`live_workers`]'s process-global counter,
    /// so they run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn resolve_zero_is_auto_and_nonzero_is_exact() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn single_threaded_pool_runs_inline() {
        let _serial = serial();
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.rounds(), 0, "inline runs are not barrier rounds");
    }

    #[test]
    fn every_worker_index_participates() {
        let _serial = serial();
        let pool = WorkerPool::new(4);
        let seen = [(); 4].map(|()| AtomicUsize::new(0));
        pool.run(&|w| {
            seen[w].fetch_add(1, Ordering::SeqCst);
        });
        for (w, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::SeqCst), 1, "worker {w}");
        }
    }

    #[test]
    fn pool_is_reused_across_many_rounds() {
        let _serial = serial();
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
        assert_eq!(pool.rounds(), 100);
    }

    #[test]
    fn cursor_based_jobs_cover_every_chunk_exactly_once() {
        let _serial = serial();
        let pool = WorkerPool::new(4);
        let chunks: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let cursor = AtomicUsize::new(0);
        pool.run(&|_| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= chunks.len() {
                break;
            }
            chunks[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "chunk {i}");
        }
    }

    #[test]
    fn nested_dispatch_falls_back_to_inline() {
        let _serial = serial();
        let pool = WorkerPool::new(2);
        let inner_calls = AtomicUsize::new(0);
        // The outer job holds the dispatch gate, so the inner dispatch (from
        // whichever thread) must run inline as worker 0 only.
        pool.run(&|_| {
            pool.run(&|w| {
                assert_eq!(w, 0);
                inner_calls.fetch_add(1, Ordering::SeqCst);
            });
        });
        // One inner run per outer worker call, each inline.
        assert_eq!(inner_calls.load(Ordering::SeqCst), 2);
        assert_eq!(pool.rounds(), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let _serial = serial();
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The barrier completed; the pool still works.
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn drop_joins_all_workers() {
        let _serial = serial();
        let before = live_workers();
        {
            let pool = WorkerPool::new(5);
            // A completed round proves every worker started (and
            // incremented the liveness counter).
            pool.run(&|_| {});
            assert_eq!(live_workers(), before + 4);
        }
        // Drop joined the handles; join() returning means the threads have
        // exited and run their liveness guards — this is exact, not racy.
        assert_eq!(live_workers(), before);
    }

    #[test]
    fn handle_is_lazy_shared_and_thresholded() {
        let _serial = serial();
        let h = PoolHandle::with_min_work(3, 100);
        assert_eq!(h.threads(), 3);
        assert!(h.get().is_none(), "no pool before first acquire");
        assert!(h.acquire(99).is_none(), "under threshold stays sequential");
        assert!(h.get().is_none(), "ineligible acquire must not spawn");
        let pool = Arc::clone(h.acquire(100).expect("eligible"));
        let again = h.clone();
        assert!(
            Arc::ptr_eq(&pool, again.acquire(5000).expect("shared")),
            "clones share one pool"
        );
        assert_eq!(pool.threads(), 3);

        let single = PoolHandle::new(1);
        assert!(single.acquire(usize::MAX).is_none());
    }
}
