//! Parallel batch evaluation of candidate populations.
//!
//! Every population-based optimizer in this crate spends most of its time
//! inside [`MappingProblem::evaluate`] (for `M3e`: decode the genomes into
//! per-thread scratch, replay them through the bandwidth allocator, read the
//! objective off the makespan and energy — no schedule is built and, once a
//! thread is warm, nothing is allocated), and the candidates of one
//! generation are independent of each other — the classic embarrassingly
//! parallel inner loop of evolutionary search. This module provides the one
//! batch oracle they all share:
//!
//! * [`BatchEvaluator::evaluate_batch`] — evaluates a slice of mappings and
//!   returns their fitnesses **in input order**. A blanket implementation
//!   covers every [`MappingProblem`] (including trait objects), so optimizer
//!   code simply calls `problem.evaluate_batch(&children)`.
//! * [`evaluate_batch_with`] — the same, with an explicit worker count.
//!
//! Parallel batches run on the **persistent work-stealing pool** in
//! [`crate::pool`]: worker threads are spawned lazily once and parked
//! between batches, the batch is split into contiguous chunks that the
//! caller and the workers steal from a shared cursor, and each chunk writes
//! into its position-indexed slice of the output buffer. Which thread
//! evaluates a chunk is scheduling noise; where each fitness lands is a pure
//! function of its index — so there is **no reduction-order
//! nondeterminism**: the returned vector is bit-identical for every worker
//! count, which the determinism suites (`tests/integration_parallel.rs`,
//! `tests/integration_pool.rs`) lock down for every optimizer. A thread
//! already inside a pool chunk evaluates nested batches serially ("pool
//! inside pool" degrades instead of deadlocking).
//!
//! # Thread-count resolution
//!
//! The worker count comes from, in order:
//!
//! 1. an active [`with_threads`] override on the calling thread (used by the
//!    determinism tests, which must pin the count without touching the
//!    process environment), then
//! 2. the `MAGMA_THREADS` environment knob via
//!    [`magma_platform::settings::magma_threads`], defaulting to the
//!    machine's available parallelism.
//!
//! Batches with fewer than two mappings, and worker counts of one, evaluate
//! serially on the calling thread with zero overhead.

use magma_m3e::{Mapping, MappingProblem};
use std::cell::Cell;

thread_local! {
    /// Per-thread worker-count override (see [`with_threads`]). Thread-local
    /// rather than global so concurrently running tests cannot race each
    /// other, and rather than an environment write so the unsoundness of
    /// `std::env::set_var` in threaded programs is never needed.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the batch-evaluation worker count pinned to `threads` on
/// the current thread (nested calls shadow outer ones; the previous value is
/// restored afterwards, also on panic).
///
/// A `threads` of zero is treated as one. Worker threads spawned *inside*
/// the pool never re-enter the pool, so the override does not need to
/// propagate to them.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// The worker count batch evaluation will use on the current thread: the
/// innermost [`with_threads`] override if one is active, otherwise the
/// `MAGMA_THREADS` environment knob
/// ([`magma_platform::settings::magma_threads`]). Always ≥ 1.
pub fn thread_count() -> usize {
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(magma_platform::settings::magma_threads).max(1)
}

/// Batch fitness oracle: the parallel counterpart of
/// [`MappingProblem::evaluate`].
///
/// Implemented for every [`MappingProblem`] (sized or trait object) by a
/// blanket impl, so it is *the* way optimizers evaluate a generation:
/// serial-vs-parallel becomes a pure deployment knob (`MAGMA_THREADS`)
/// instead of an algorithm property.
pub trait BatchEvaluator {
    /// Evaluates every mapping in `mappings` and returns the fitnesses in
    /// input order. Must equal `mappings.iter().map(|m| self.evaluate(m))`
    /// exactly (bit-for-bit), for every worker count.
    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<f64>;
}

impl<P: MappingProblem + ?Sized> BatchEvaluator for P {
    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<f64> {
        evaluate_batch_with(self, mappings, thread_count())
    }
}

/// Evaluates `mappings` with an explicit worker count, returning fitnesses
/// in input order (the wall-clock benchmark's `optim.pool.*` rows time this
/// function at 1 and 2 threads; everything else should go through
/// [`BatchEvaluator::evaluate_batch`]).
///
/// Counts of one, batches of fewer than two mappings, and calls from inside
/// a pool chunk (nested batches) evaluate serially on the calling thread;
/// everything else runs on the persistent pool (see [`crate::pool`]),
/// which is rebuilt first if the resolved count changed.
pub fn evaluate_batch_with<P: MappingProblem + ?Sized>(
    problem: &P,
    mappings: &[Mapping],
    threads: usize,
) -> Vec<f64> {
    if threads <= 1 || mappings.len() < 2 || crate::pool::on_pool_thread() {
        return mappings.iter().map(|m| problem.evaluate(m)).collect();
    }
    let mut out = vec![0.0f64; mappings.len()];
    crate::pool::submit(problem, mappings, &mut out, threads);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use magma_m3e::{M3e, Objective};
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, Setting};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_population(n: usize, accels: usize, count: usize, seed: u64) -> Vec<Mapping> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| Mapping::random(&mut rng, n, accels)).collect()
    }

    #[test]
    fn batch_matches_serial_on_toy_problem() {
        let p = ToyProblem { jobs: 14, accels: 3 };
        let pop = random_population(14, 3, 37, 0);
        let serial: Vec<f64> = pop.iter().map(|m| p.evaluate(m)).collect();
        for threads in [1, 2, 3, 4, 7, 64] {
            let batch = evaluate_batch_with(&p, &pop, threads);
            assert_eq!(batch, serial, "threads = {threads}");
        }
    }

    #[test]
    fn works_through_a_trait_object() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let dynamic: &dyn magma_m3e::MappingProblem = &p;
        let pop = random_population(8, 2, 5, 1);
        let serial: Vec<f64> = pop.iter().map(|m| p.evaluate(m)).collect();
        assert_eq!(dynamic.evaluate_batch(&pop), serial);
        assert_eq!(evaluate_batch_with(dynamic, &pop, 4), serial);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let p = ToyProblem { jobs: 6, accels: 2 };
        assert!(evaluate_batch_with(&p, &[], 8).is_empty());
        let pop = random_population(6, 2, 1, 2);
        assert_eq!(evaluate_batch_with(&p, &pop, 8), vec![p.evaluate(&pop[0])]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = thread_count();
        with_threads(3, || {
            assert_eq!(thread_count(), 3);
            with_threads(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
        assert_eq!(thread_count(), ambient);
        // Zero is clamped rather than disabling evaluation.
        with_threads(0, || assert_eq!(thread_count(), 1));
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let ambient = thread_count();
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(thread_count(), ambient);
    }

    // Batch evaluation must be indistinguishable from the serial oracle on
    // the real M3E problem, for every objective. The population generator
    // mirrors PR 2's genes-in-range strategy: sizes/seeds are drawn by
    // proptest, genes by `Mapping::random` (always in range by
    // construction). Cases are few because each builds a full M3e instance.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn batch_matches_serial_for_every_objective_on_m3e(
            jobs in 1usize..10,
            pop in 1usize..24,
            threads in 1usize..6,
            seed in 0u64..1000,
            objective_sel in 0usize..4,
        ) {
            let objective = [
                Objective::Throughput,
                Objective::Latency,
                Objective::Energy,
                Objective::EnergyDelayProduct,
            ][objective_sel];
            let group = WorkloadSpec::single_group(TaskType::Mix, jobs, seed);
            let problem = M3e::new(settings::build(Setting::S2), group, objective);
            let mappings = random_population(jobs, 4, pop, seed);
            let serial: Vec<f64> = mappings.iter().map(|m| problem.evaluate(m)).collect();
            let batch = evaluate_batch_with(&problem, &mappings, threads);
            prop_assert_eq!(batch.len(), serial.len());
            for (b, s) in batch.iter().zip(&serial) {
                // Bit-identical, not approximately equal: parallelism must
                // not change results at all.
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
        }

        // Arbitrary in-range genomes (not just `Mapping::random` outputs)
        // agree too, on the cheap toy problem with many cases.
        #[test]
        fn batch_matches_serial_for_arbitrary_genes(
            genes in proptest::collection::vec(
                (proptest::collection::vec(0usize..3, 1..20),
                 proptest::collection::vec(0.0f64..1.0, 1..20)),
                1..30,
            ),
            threads in 1usize..9,
        ) {
            let jobs = genes.iter().map(|(a, p)| a.len().min(p.len())).min().unwrap();
            let pop: Vec<Mapping> = genes
                .into_iter()
                .map(|(a, p)| Mapping::new(a[..jobs].to_vec(), p[..jobs].to_vec(), 3))
                .collect();
            let problem = ToyProblem { jobs, accels: 3 };
            let serial: Vec<f64> = pop.iter().map(|m| problem.evaluate(m)).collect();
            prop_assert_eq!(evaluate_batch_with(&problem, &pop, threads), serial);
        }
    }
}
