//! The persistent work-stealing worker pool behind batch evaluation.
//!
//! PR 3's batch oracle spawned a fresh `std::thread::scope` per generation;
//! at figure-scale batch times (~5 ms) the spawn/join cost ate the entire
//! parallel win (it measured under 1.0× of serial at 2 and 4 threads). This
//! module replaces the per-batch scope with **one process-wide pool of
//! parked worker threads** that persists across batches, generations,
//! sessions and serve requests:
//!
//! * **Lazy initialization** — no thread is spawned until the first parallel
//!   batch; serial runs (`MAGMA_THREADS=1`, singleton batches) never touch
//!   the pool.
//! * **Work stealing over contiguous chunks** — a batch is split into fixed
//!   contiguous chunks and published once; the caller and every worker
//!   *steal* the next unclaimed chunk from a shared atomic cursor, so load
//!   imbalance between chunks (heterogeneous mappings decode to schedules of
//!   very different event counts) self-corrects without any rebalancing
//!   protocol.
//! * **Position-indexed slots** — chunk `[start, end)` writes fitnesses into
//!   output slots `[start, end)` and nowhere else. Which thread evaluates a
//!   chunk is scheduling noise; *where the result lands* is a pure function
//!   of the mapping's index. Reduction order — and therefore every
//!   `SearchOutcome` the determinism suites lock — is bit-identical at every
//!   worker count.
//! * **Clean rebuild on resize** — the pool is sized to the resolved worker
//!   count (`MAGMA_THREADS` or a [`with_threads`](crate::parallel::with_threads)
//!   override) minus one, because the caller always participates. When the
//!   resolved count changes, the old workers are shut down and joined before
//!   the replacement pool spawns; [`stats`] exposes the current size and the
//!   rebuild/batch counters so tests can observe exactly this lifecycle.
//! * **Re-entrancy instead of deadlock** — a thread that is already
//!   executing a chunk (worker *or* participating caller) evaluates any
//!   nested batch serially (`on_pool_thread`), so a problem whose
//!   `evaluate` itself fans out ("pool inside pool") degrades to serial
//!   nesting instead of deadlocking on the pool mutex.
//!
//! # Safety
//!
//! This is the one module in the crate that uses `unsafe`. A batch borrows
//! the caller's stack (the problem, the mapping slice and the output
//! buffer), but persistent workers are `'static`, so the borrow is
//! type-erased into a raw context pointer (`Batch::ctx`). The invariants
//! that make this sound are local and enforced by construction:
//!
//! 1. The context outlives every access: `submit` does not return (and
//!    therefore the context's stack frame does not die) until every chunk of
//!    the batch has completed — including when a chunk panics, and including
//!    when the panic is on the caller's own chunk (chunk bodies are caught
//!    and re-thrown after the completion barrier).
//! 2. Writes through the output pointer are disjoint: chunk claiming hands
//!    out non-overlapping index ranges exactly once (an atomic
//!    `fetch_add`), and slot `i` is written only by the chunk owning `i`.
//! 3. Cross-thread visibility: the batch is published under a mutex
//!    (happens-before the workers' reads of the context) and completion is
//!    signalled under a mutex after an `AcqRel` countdown (the caller's
//!    reads of the output happen-after every worker's writes).
//! 4. The problem reference is `&P where P: MappingProblem + ?Sized`, and
//!    `MappingProblem: Sync`, so sharing it across workers is the same
//!    contract the scoped implementation relied on.

use magma_m3e::{Mapping, MappingProblem};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// Set while the current thread is executing a chunk of a pool batch
    /// (worker threads and the participating caller alike). Nested batch
    /// evaluations check it and run serially (see [`on_pool_thread`]).
    static ON_POOL_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a pool chunk right now. The batch
/// oracle ([`crate::parallel::evaluate_batch_with`]) consults this to route
/// nested evaluations ("pool inside pool") to the serial path instead of
/// deadlocking on the pool's submission lock.
pub(crate) fn on_pool_thread() -> bool {
    ON_POOL_THREAD.with(Cell::get)
}

/// Type-erased chunk executor: `(ctx, start, end)` evaluates mappings
/// `start..end` of the batch behind `ctx` into output slots `start..end`.
type ChunkFn = unsafe fn(*const (), usize, usize);

/// One published batch: the unit of work the caller and the workers steal
/// chunks from. Lives in an `Arc` so late-waking workers can still observe
/// an exhausted cursor after the caller has moved on.
struct Batch {
    /// Type-erased pointer to the caller-stack [`Ctx`]. Valid until the
    /// completion barrier releases the caller (safety invariant 1).
    ctx: *const (),
    /// Monomorphized executor for the concrete problem type behind `ctx`.
    run: ChunkFn,
    /// Number of mappings in the batch.
    len: usize,
    /// Chunk granularity in mappings (the last chunk may be shorter).
    chunk: usize,
    /// Next unclaimed start index; claiming is `fetch_add(chunk)`.
    cursor: AtomicUsize,
    /// Chunks not yet completed; the thread that takes it to zero signals
    /// `done`.
    pending: AtomicUsize,
    /// First panic payload thrown by any chunk, re-thrown by the caller
    /// after the barrier.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion barrier the caller blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `ctx` crosses threads by design. The pointee is kept alive and
// data-race free by the batch protocol documented on the module (invariants
// 1–4); `Batch`'s own shared fields are atomics or mutex-guarded.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and executes chunks until the cursor is exhausted. Called by
    /// every worker that observes the batch and by the submitting caller.
    fn work(&self) {
        // Mark the thread for nested-batch re-entrancy detection, restoring
        // the previous value on exit (the caller participates from a thread
        // that is otherwise *not* a pool thread).
        struct Flag(bool);
        impl Drop for Flag {
            fn drop(&mut self) {
                ON_POOL_THREAD.with(|c| c.set(self.0));
            }
        }
        let _flag = Flag(ON_POOL_THREAD.with(|c| c.replace(true)));

        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let end = (start + self.chunk).min(self.len);
            // A panicking evaluation must not leave the barrier hanging:
            // catch, record, count the chunk as completed, and let the
            // caller re-throw after the batch drains.
            // SAFETY: `start..end` was claimed exactly once, so the chunk's
            // slot writes are disjoint from every other chunk's; `ctx` is
            // alive because the caller is still blocked on the barrier.
            let result =
                catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.ctx, start, end) }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every chunk has completed.
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The borrowed world of one batch, type-erased behind [`Batch::ctx`].
struct Ctx<'a, P: ?Sized> {
    problem: &'a P,
    mappings: &'a [Mapping],
    /// Raw base pointer of the output buffer; chunk `[s, e)` writes slots
    /// `[s, e)` only.
    out: *mut f64,
}

/// The monomorphized chunk body: evaluates `mappings[start..end]` into
/// output slots `start..end`.
///
/// # Safety
///
/// `ctx` must point to a live `Ctx<'_, P>` whose buffers cover `end`
/// elements, and `start..end` must be a chunk range claimed exactly once
/// (disjoint writes).
unsafe fn run_chunk<P: MappingProblem + ?Sized>(ctx: *const (), start: usize, end: usize) {
    let ctx = &*(ctx as *const Ctx<'_, P>);
    for i in start..end {
        *ctx.out.add(i) = ctx.problem.evaluate(&ctx.mappings[i]);
    }
}

/// Coordination state shared between the submitting caller and the workers.
struct PoolShared {
    gate: Mutex<Gate>,
    gate_cv: Condvar,
}

struct Gate {
    /// The batch currently open for stealing, if any.
    batch: Option<Arc<Batch>>,
    /// Bumped on every publication so parked workers can tell a new batch
    /// from a spurious wakeup.
    epoch: u64,
    /// Set (with an epoch bump) when the pool is being torn down.
    shutdown: bool,
}

/// A persistent pool of parked worker threads, sized at construction.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` parked worker threads (the caller is the `+1`th
    /// evaluator of every batch).
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            gate: Mutex::new(Gate { batch: None, epoch: 0, shutdown: false }),
            gate_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("magma-eval-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Pool { shared, workers: handles }
    }

    /// Worker-thread count (excluding the participating caller).
    fn size(&self) -> usize {
        self.workers.len()
    }

    /// Publishes `batch`, participates in it, and blocks until it drains.
    fn run(&self, batch: &Arc<Batch>) {
        {
            let mut gate = self.shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
            gate.batch = Some(Arc::clone(batch));
            gate.epoch += 1;
            self.shared.gate_cv.notify_all();
        }
        batch.work();
        batch.wait();
        // Hygiene: drop the pool's reference so the batch (and its dangling
        // context pointer) does not outlive the call in the gate.
        self.shared.gate.lock().unwrap_or_else(PoisonError::into_inner).batch = None;
    }

    /// Signals shutdown and joins every worker (used on resize; the final
    /// pool of a process is reclaimed by process exit).
    fn shutdown(self) {
        {
            let mut gate = self.shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
            gate.shutdown = true;
            gate.epoch += 1;
            self.shared.gate_cv.notify_all();
        }
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// A worker: park on the gate, steal chunks from each published batch, park
/// again; exit on shutdown.
fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut gate = shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if gate.shutdown {
                    return;
                }
                if gate.epoch != seen_epoch {
                    seen_epoch = gate.epoch;
                    if let Some(batch) = gate.batch.clone() {
                        break batch;
                    }
                    // The epoch moved but the batch already drained and was
                    // cleared — nothing to steal, keep waiting.
                    continue;
                }
                gate = shared.gate_cv.wait(gate).unwrap_or_else(PoisonError::into_inner);
            }
        };
        batch.work();
    }
}

/// Lifecycle counters of the process-wide pool (see [`stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently alive (0 before the first parallel batch;
    /// the participating caller is not counted, so a `MAGMA_THREADS=4` run
    /// shows 3).
    pub workers: usize,
    /// Times a pool was (re)built, including the initial lazy build. Stays
    /// flat while the resolved worker count is stable — that flatness *is*
    /// the persistence claim, and the rebuild tests assert both directions.
    pub builds: u64,
    /// Batches submitted through the pool since process start (serial-path
    /// batches are not counted).
    pub batches: u64,
}

/// The process-wide pool registry. One pool exists at a time; submissions
/// are serialized through this mutex (the workers are a shared resource, so
/// two concurrent batches would time-slice the same cores anyway).
struct Manager {
    pool: Option<Pool>,
    builds: u64,
    batches: u64,
}

static MANAGER: OnceLock<Mutex<Manager>> = OnceLock::new();

fn manager() -> &'static Mutex<Manager> {
    MANAGER.get_or_init(|| Mutex::new(Manager { pool: None, builds: 0, batches: 0 }))
}

/// A snapshot of the pool's lifecycle counters. Test-facing: the
/// persistence suite asserts that repeated batches at a stable thread count
/// reuse one pool (`builds` flat, `batches` rising) and that a thread-count
/// change rebuilds it (`builds` rising, `workers` tracking the new count).
pub fn stats() -> PoolStats {
    let mgr = manager().lock().unwrap_or_else(PoisonError::into_inner);
    PoolStats {
        workers: mgr.pool.as_ref().map_or(0, Pool::size),
        builds: mgr.builds,
        batches: mgr.batches,
    }
}

/// Evaluates `mappings` into `out` using the persistent pool at the given
/// total thread count (caller + `threads - 1` workers), rebuilding the pool
/// first if its size does not match.
///
/// The caller must pre-screen: `threads >= 2`, `mappings.len() >= 2`, and
/// not already on a pool thread ([`on_pool_thread`]).
///
/// # Panics
///
/// Re-throws the first panic raised by any chunk's `evaluate`, after the
/// whole batch has drained (so the borrowed buffers are never abandoned to
/// running workers).
pub(crate) fn submit<P: MappingProblem + ?Sized>(
    problem: &P,
    mappings: &[Mapping],
    out: &mut [f64],
    threads: usize,
) {
    debug_assert!(threads >= 2 && mappings.len() >= 2 && mappings.len() == out.len());
    #[cfg(test)]
    let _shared = tests::lifecycle::share();
    let mut mgr = manager().lock().unwrap_or_else(PoisonError::into_inner);
    let wanted = threads - 1;
    if mgr.pool.as_ref().is_none_or(|p| p.size() != wanted) {
        if let Some(old) = mgr.pool.take() {
            old.shutdown();
        }
        mgr.pool = Some(Pool::new(wanted));
        mgr.builds += 1;
    }

    // Chunk granularity: a few steals per evaluator balances heterogeneous
    // chunk costs without paying cursor traffic per mapping.
    let chunk = (mappings.len() / (threads * 4)).max(1);
    let ctx = Ctx { problem, mappings, out: out.as_mut_ptr() };
    let batch = Arc::new(Batch {
        ctx: (&ctx as *const Ctx<'_, P>).cast(),
        run: run_chunk::<P>,
        len: mappings.len(),
        chunk,
        cursor: AtomicUsize::new(0),
        pending: AtomicUsize::new(mappings.len().div_ceil(chunk)),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    mgr.pool.as_ref().expect("pool was just ensured").run(&batch);
    mgr.batches += 1;
    let payload = batch.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
    drop(mgr);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use crate::parallel::evaluate_batch_with;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pool-lifecycle assertions share the process-wide pool with every
    /// other test in this binary, and a search at the default thread count
    /// resizes it. A lifecycle test holds the pool exclusively: every
    /// [`submit`] shares it, except the lifecycle test's own.
    pub(super) mod lifecycle {
        use std::cell::Cell;
        use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

        static POOL: RwLock<()> = RwLock::new(());

        thread_local! {
            /// Set while this thread holds [`POOL`] for writing.
            static EXCLUSIVE: Cell<bool> = const { Cell::new(false) };
        }

        /// The pool to this thread alone, until the guard drops.
        pub(crate) struct Exclusive {
            _guard: RwLockWriteGuard<'static, ()>,
        }

        impl Drop for Exclusive {
            fn drop(&mut self) {
                EXCLUSIVE.with(|e| e.set(false));
            }
        }

        pub(crate) fn exclusive() -> Exclusive {
            let guard = POOL.write().unwrap_or_else(PoisonError::into_inner);
            EXCLUSIVE.with(|e| e.set(true));
            Exclusive { _guard: guard }
        }

        /// A batch's share of the pool: none on the thread that holds it
        /// exclusively, whose own batches would otherwise wait on itself.
        pub(crate) fn share() -> Option<RwLockReadGuard<'static, ()>> {
            if EXCLUSIVE.with(Cell::get) {
                None
            } else {
                Some(POOL.read().unwrap_or_else(PoisonError::into_inner))
            }
        }
    }

    fn population(jobs: usize, accels: usize, count: usize, seed: u64) -> Vec<Mapping> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| Mapping::random(&mut rng, jobs, accels)).collect()
    }

    #[test]
    fn batches_reuse_one_pool_until_the_count_changes() {
        let _pool = lifecycle::exclusive();
        let p = ToyProblem { jobs: 12, accels: 3 };
        let pop = population(12, 3, 40, 0);
        let serial: Vec<f64> = pop.iter().map(|m| p.evaluate(m)).collect();

        assert_eq!(evaluate_batch_with(&p, &pop, 3), serial);
        let after_first = stats();
        assert_eq!(after_first.workers, 2);

        for _ in 0..5 {
            assert_eq!(evaluate_batch_with(&p, &pop, 3), serial);
        }
        let after_reuse = stats();
        assert_eq!(after_reuse.workers, 2, "stable count must not resize the pool");
        assert_eq!(after_reuse.builds, after_first.builds, "stable count must not rebuild");
        assert_eq!(after_reuse.batches, after_first.batches + 5);

        assert_eq!(evaluate_batch_with(&p, &pop, 5), serial);
        let after_resize = stats();
        assert_eq!(after_resize.workers, 4, "pool must track the new thread count");
        assert_eq!(after_resize.builds, after_first.builds + 1, "resize is one clean rebuild");
    }

    #[test]
    fn serial_and_singleton_paths_never_touch_the_pool() {
        let _pool = lifecycle::exclusive();
        let p = ToyProblem { jobs: 6, accels: 2 };
        let pop = population(6, 2, 20, 1);
        let before = stats();
        let _ = evaluate_batch_with(&p, &pop, 1);
        let _ = evaluate_batch_with(&p, &pop[..1], 8);
        let _ = evaluate_batch_with(&p, &[], 8);
        assert_eq!(stats().batches, before.batches);
    }

    #[test]
    fn chunk_panics_drain_the_batch_and_propagate() {
        let _pool = lifecycle::exclusive();
        // A problem that panics on some candidates: the barrier must still
        // release (no abandoned borrow) and the panic must reach the caller.
        struct Spiky;
        impl MappingProblem for Spiky {
            fn num_jobs(&self) -> usize {
                5
            }
            fn num_accels(&self) -> usize {
                2
            }
            fn evaluate(&self, m: &Mapping) -> f64 {
                assert!(m.priority()[0] >= 0.5, "injected evaluation panic");
                1.0
            }
        }
        // Among 16 random candidates some lead priority is < 0.5.
        let pop = population(5, 2, 16, 2);
        assert!(pop.iter().any(|m| m.priority()[0] < 0.5));
        let caught = catch_unwind(AssertUnwindSafe(|| evaluate_batch_with(&Spiky, &pop, 4)));
        assert!(caught.is_err(), "the chunk panic must propagate");
        // The pool survives a panicking batch.
        let p = ToyProblem { jobs: 5, accels: 2 };
        let serial: Vec<f64> = pop.iter().map(|m| p.evaluate(m)).collect();
        assert_eq!(evaluate_batch_with(&p, &pop, 4), serial);
    }

    #[test]
    fn on_pool_thread_is_false_outside_batches() {
        assert!(!on_pool_thread());
    }
}
