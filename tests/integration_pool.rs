//! Whole-system regressions for the persistent work-stealing evaluation pool
//! (`magma_optim::pool`) and the eager per-(job, core) launch-cost table
//! (`magma_m3e::CostMemo`).
//!
//! `tests/integration_parallel.rs` pins down *what* parallel evaluation
//! returns (bit-identical to serial, per optimizer). This suite pins down
//! *how*: one pool instance serves every batch at a given worker count
//! (builds stay flat while batches climb), changing the count rebuilds it
//! exactly once, nested batch evaluation from inside a pool chunk degrades
//! to serial instead of deadlocking, and the evaluator's table-backed kernel
//! is bit-identical to the table-free allocator for arbitrary in-range
//! genomes.
//!
//! The pool is process-global, and this binary's tests run concurrently by
//! default — every test that asserts on [`pool::stats`] counters or worker
//! counts serializes itself on [`POOL_LOCK`] (poisoning tolerated: an
//! earlier assertion failure must not cascade into unrelated tests).

mod common;

use common::problem;
use magma_m3e::{BwAllocator, FitnessEvaluator, Mapping, MappingProblem, Objective};
use magma_model::TaskType;
use magma_optim::parallel::{evaluate_batch_with, with_threads};
use magma_optim::{pool, BatchEvaluator, Magma, Optimizer, SearchOutcome};
use magma_platform::Setting;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn outcome_bits(o: &SearchOutcome) -> (u64, Vec<usize>, Vec<u64>, Vec<u64>) {
    (
        o.best_fitness.to_bits(),
        o.best_mapping.accel_sel().to_vec(),
        o.history.samples().iter().map(|f| f.to_bits()).collect(),
        o.history.best_curve().iter().map(|f| f.to_bits()).collect(),
    )
}

/// One pool instance serves every generation of every search at a fixed
/// worker count — and the outcome is bit-identical at 1, 2, 4 and 64
/// workers, including heavy oversubscription of this host.
#[test]
fn searches_reuse_one_pool_and_match_serial_at_every_width() {
    let _guard = pool_lock();
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 10, 3);
    let search = |threads: usize| {
        with_threads(threads, || Magma::default().search(&p, 60, &mut StdRng::seed_from_u64(11)))
    };

    let serial = outcome_bits(&search(1));
    for threads in [2usize, 4, 64] {
        // Warm the pool at this width, then count builds across repeated
        // searches: batches must climb, builds must not.
        let first = outcome_bits(&search(threads));
        assert_eq!(first, serial, "outcome differs at {threads} workers");
        let before = pool::stats();
        assert_eq!(before.workers, threads - 1, "pool sized wrong at {threads} workers");
        for round in 0..2 {
            let again = outcome_bits(&search(threads));
            assert_eq!(again, serial, "round {round} at {threads} workers drifted");
        }
        let after = pool::stats();
        assert_eq!(
            after.builds, before.builds,
            "repeated searches at {threads} workers rebuilt the pool"
        );
        assert!(
            after.batches > before.batches,
            "repeated searches at {threads} workers never reached the pool"
        );
    }
}

/// Changing the resolved worker count (the `MAGMA_THREADS` knob, pinned here
/// via its `with_threads` test override) tears the old pool down and builds
/// one of exactly the new size — once, not per batch.
#[test]
fn changing_the_thread_count_rebuilds_the_pool_once() {
    let _guard = pool_lock();
    let p = ToyBatch { jobs: 6, accels: 3 };
    let pop = population(6, 3, 24, 5);

    with_threads(3, || p.evaluate_batch(&pop));
    let at3 = pool::stats();
    assert_eq!(at3.workers, 2, "3 resolved threads = caller + 2 pool workers");

    with_threads(5, || p.evaluate_batch(&pop));
    let at5 = pool::stats();
    assert_eq!(at5.workers, 4);
    assert_eq!(at5.builds, at3.builds + 1, "resize must rebuild exactly once");

    with_threads(5, || {
        for _ in 0..3 {
            p.evaluate_batch(&pop);
        }
    });
    assert_eq!(pool::stats().builds, at5.builds, "same width must never rebuild");
    assert_eq!(pool::stats().batches, at5.batches + 3);
}

/// A tiny always-cheap problem for pool-plumbing tests (the real M3E would
/// drown the counters in evaluation time).
struct ToyBatch {
    jobs: usize,
    accels: usize,
}

impl MappingProblem for ToyBatch {
    fn num_jobs(&self) -> usize {
        self.jobs
    }
    fn num_accels(&self) -> usize {
        self.accels
    }
    fn evaluate(&self, m: &Mapping) -> f64 {
        m.priority().iter().sum::<f64>() + m.accel_sel().iter().sum::<usize>() as f64
    }
}

/// A problem whose *single-candidate* evaluation itself fans an inner batch
/// out — the "pool inside pool" shape an optimizer nested inside a fitness
/// function would produce. Inner batches must degrade to serial on the
/// worker thread (never re-enter the pool), so this must neither deadlock
/// nor change results.
struct NestedBatch {
    inner: ToyBatch,
}

impl MappingProblem for NestedBatch {
    fn num_jobs(&self) -> usize {
        self.inner.jobs
    }
    fn num_accels(&self) -> usize {
        self.inner.accels
    }
    fn evaluate(&self, m: &Mapping) -> f64 {
        // Three perturbed copies, evaluated through the full batch oracle.
        let variants: Vec<Mapping> = (0..3)
            .map(|i| {
                let mut sel = m.accel_sel().to_vec();
                sel[0] = (sel[0] + i) % self.inner.accels;
                Mapping::new(sel, m.priority().to_vec(), self.inner.accels)
            })
            .collect();
        self.inner.evaluate_batch(&variants).iter().sum()
    }
}

fn population(jobs: usize, accels: usize, count: usize, seed: u64) -> Vec<Mapping> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| Mapping::random(&mut rng, jobs, accels)).collect()
}

#[test]
fn nested_batches_degrade_to_serial_instead_of_deadlocking() {
    let _guard = pool_lock();
    let p = NestedBatch { inner: ToyBatch { jobs: 5, accels: 3 } };
    let pop = population(5, 3, 40, 9);
    let serial: Vec<f64> = pop.iter().map(|m| p.evaluate(m)).collect();
    for threads in [2usize, 4, 8] {
        let batch = evaluate_batch_with(&p, &pop, threads);
        assert_eq!(batch, serial, "nested evaluation at {threads} workers");
    }
    // And through the ambient-override path optimizers actually use.
    with_threads(4, || assert_eq!(p.evaluate_batch(&pop), serial));
}

/// The `with_threads` override (the test/harness stand-in for the
/// `MAGMA_THREADS` environment knob) is what actually sizes the pool.
#[test]
fn with_threads_override_reaches_the_pool() {
    let _guard = pool_lock();
    let p = ToyBatch { jobs: 4, accels: 2 };
    let pop = population(4, 2, 16, 1);
    for threads in [2usize, 6] {
        with_threads(threads, || p.evaluate_batch(&pop));
        assert_eq!(pool::stats().workers, threads - 1, "override {threads} ignored");
    }
}

// The launch-cost table may only change speed: for arbitrary in-range
// genomes (not just `Mapping::random` outputs), every objective, and one
// evaluator reused across the whole population, the kernel's fitness must be
// bit-identical to the objective of the schedule the table-free allocator
// records while deriving every launch cost afresh.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn memoized_evaluator_matches_fresh_for_arbitrary_genes(
        genes in proptest::collection::vec(
            (proptest::collection::vec(0usize..4, 8..9),
             proptest::collection::vec(0.0f64..1.0, 8..9)),
            1..12,
        ),
        objective_sel in 0usize..4,
        seed in 0u64..500,
    ) {
        let objective = [
            Objective::Throughput,
            Objective::Latency,
            Objective::Energy,
            Objective::EnergyDelayProduct,
        ][objective_sel];
        let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 8, seed);
        let accels = p.num_accels();
        let evaluator = FitnessEvaluator::new(p.table().clone(), 16.0, objective);
        for (sel, prio) in genes {
            let sel: Vec<usize> = sel.into_iter().map(|a| a % accels).collect();
            let m = Mapping::new(sel, prio, accels);
            let fresh = BwAllocator::new().allocate(&m.decode(), p.table(), 16.0);
            prop_assert_eq!(evaluator.fitness(&m).to_bits(), objective.fitness_of(&fresh).to_bits());
        }
    }
}
