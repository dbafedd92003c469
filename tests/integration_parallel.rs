//! Parallel-vs-serial determinism regressions: parallel batch evaluation
//! (`magma_optim::parallel`) may only change wall-clock time, never results.
//!
//! For every optimizer of Table IV the full [`SearchOutcome`] — best
//! fitness, best mapping genes, the per-sample fitness sequence and the
//! convergence curve — must be **bit-identical** between `MAGMA_THREADS=1`
//! and `MAGMA_THREADS=4` at a fixed seed. The suite pins the worker count
//! with [`magma_optim::parallel::with_threads`] (the same override the env
//! knob feeds into) so concurrently running tests cannot race on the
//! process environment.

mod common;

use common::problem;
use magma::Algorithm;
use magma_m3e::{M3e, Mapping, MappingProblem};
use magma_model::TaskType;
use magma_optim::parallel::{evaluate_batch_with, with_threads};
use magma_optim::{BatchEvaluator, Magma, Optimizer, RandomSearch, SearchOutcome};
use magma_platform::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one optimizer at a pinned worker count with a fresh, identically
/// seeded RNG.
fn run_at(mapper: &dyn Optimizer, p: &M3e, budget: usize, threads: usize) -> SearchOutcome {
    with_threads(threads, || mapper.search(p, budget, &mut StdRng::seed_from_u64(7)))
}

/// Asserts two outcomes are bit-identical, down to every recorded sample.
fn assert_identical(name: &str, serial: &SearchOutcome, parallel: &SearchOutcome) {
    assert_eq!(
        serial.best_fitness.to_bits(),
        parallel.best_fitness.to_bits(),
        "{name}: best fitness differs ({} vs {})",
        serial.best_fitness,
        parallel.best_fitness
    );
    assert_eq!(serial.best_mapping, parallel.best_mapping, "{name}: best mapping genes differ");
    assert_eq!(
        serial.history.num_samples(),
        parallel.history.num_samples(),
        "{name}: sample counts differ"
    );
    let bits = |xs: &[f64]| xs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(serial.history.samples()),
        bits(parallel.history.samples()),
        "{name}: per-sample fitness sequence differs"
    );
    assert_eq!(
        bits(&serial.history.best_curve()),
        bits(&parallel.history.best_curve()),
        "{name}: convergence curve differs"
    );
}

/// Every Table IV optimizer produces a bit-identical outcome at 1 and 4
/// worker threads on a real heterogeneous instance.
#[test]
fn all_table_iv_mappers_identical_at_1_and_4_threads() {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 12, 0);
    for mapper in Algorithm::TABLE_IV.iter().map(|a| a.build()) {
        let serial = run_at(mapper.as_ref(), &p, 70, 1);
        let parallel = run_at(mapper.as_ref(), &p, 70, 4);
        assert_identical(mapper.name(), &serial, &parallel);
    }
}

/// Random search (the Fig. 10 reference sampler, not part of
/// [`Algorithm::TABLE_IV`]) holds the same guarantee, across its internal batch
/// boundary (its sampling batch is 1024).
#[test]
fn random_search_identical_at_1_and_4_threads() {
    let p = problem(Setting::S1, TaskType::Vision, Some(16.0), 10, 1);
    let mapper = RandomSearch::new();
    let serial = run_at(&mapper, &p, 1_100, 1);
    let parallel = run_at(&mapper, &p, 1_100, 4);
    assert_identical(mapper.name(), &serial, &parallel);
}

/// Oversubscription far beyond the batch size is also bit-stable (more
/// workers than mappings must clamp, not skew).
#[test]
fn oversubscribed_worker_count_is_identical_too() {
    let p = problem(Setting::S2, TaskType::Language, Some(16.0), 8, 2);
    let mapper = Magma::default();
    let serial = run_at(&mapper, &p, 60, 1);
    let parallel = run_at(&mapper, &p, 60, 64);
    assert_identical("MAGMA@64", &serial, &parallel);
}

/// The raw batch oracle agrees with the serial oracle bit-for-bit on a real
/// problem, at every worker count and through the trait-object path the
/// optimizers use.
#[test]
fn evaluate_batch_matches_serial_oracle_on_real_problem() {
    let p = problem(Setting::S4, TaskType::Mix, None, 16, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let pop: Vec<Mapping> = (0..33).map(|_| Mapping::random(&mut rng, 16, 8)).collect();
    let serial: Vec<f64> = pop.iter().map(|m| p.evaluate(m)).collect();
    for threads in [1, 2, 3, 4, 16] {
        let batch = evaluate_batch_with(&p, &pop, threads);
        assert_eq!(batch.len(), serial.len());
        for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
            assert_eq!(b.to_bits(), s.to_bits(), "mapping {i} at {threads} threads");
        }
    }
    let dynamic: &dyn MappingProblem = &p;
    let via_trait = with_threads(4, || dynamic.evaluate_batch(&pop));
    assert_eq!(via_trait, serial);
}

/// The warm-start path (seeded initial population) keeps the guarantee:
/// epoch-for-epoch identical refinement regardless of the worker count.
#[test]
fn warm_started_magma_identical_across_thread_counts() {
    let p = problem(Setting::S2, TaskType::Recommendation, Some(16.0), 10, 4);
    let mut rng = StdRng::seed_from_u64(11);
    let seeds: Vec<Mapping> = (0..4).map(|_| Mapping::random(&mut rng, 10, 4)).collect();
    let mapper = Magma::with_warm_start(seeds);
    let serial = run_at(&mapper, &p, 80, 1);
    let parallel = run_at(&mapper, &p, 80, 4);
    assert_identical("MAGMA warm-start", &serial, &parallel);
}
