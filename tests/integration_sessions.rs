//! The session-stepping invariant, locked for every Table IV algorithm:
//! driving a [`SearchSession`] in budget slices of **any** size produces a
//! [`SearchOutcome`] bit-identical to the one-shot [`Optimizer::search`] at
//! the same total budget — same best fitness (to the bit), same best
//! mapping genes, same per-sample fitness sequence and convergence curve —
//! at every worker-thread count.
//!
//! This is the contract the serving layer's overlap mode is built on: if
//! slicing changed any result, interleaving search with execution would
//! trade mapping quality for latency; because it holds, overlap mode is a
//! pure scheduling win.

mod common;

use common::problem;
use magma::Algorithm;
use magma_m3e::{M3e, Mapping};
use magma_model::TaskType;
use magma_optim::parallel::with_threads;
use magma_optim::{Magma, Optimizer, SearchOutcome};
use magma_platform::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: usize = 70;
const SEED: u64 = 7;

/// Drives a fresh session over `p` in slices of `slice` samples until
/// `budget` is spent (or the optimizer is exhausted), checking the step
/// accounting along the way.
fn run_sliced(mapper: &dyn Optimizer, p: &M3e, budget: usize, slice: usize) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut session = mapper.start(p, &mut rng);
    assert_eq!(session.spent(), 0, "{}: nothing is evaluated before the first step", mapper.name());
    assert!(session.best().is_none(), "{}: no best before the first step", mapper.name());
    loop {
        let remaining = budget - session.spent();
        if remaining == 0 {
            break;
        }
        let report = session.step(slice.min(remaining));
        assert!(report.spent <= slice.min(remaining), "{}: overspent slice", mapper.name());
        assert_eq!(report.total_spent, session.spent(), "{}: accounting drift", mapper.name());
        if report.spent == 0 {
            break;
        }
        let (_, best_fit) = session.best().expect("a sample was evaluated");
        assert_eq!(Some(best_fit), report.best_fitness, "{}: best mismatch", mapper.name());
    }
    session.finish()
}

fn assert_identical(
    name: &str,
    slice: usize,
    threads: usize,
    a: &SearchOutcome,
    b: &SearchOutcome,
) {
    let tag = format!("{name} (slice {slice}, {threads} threads)");
    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits(), "{tag}: best fitness differs");
    assert_eq!(a.best_mapping, b.best_mapping, "{tag}: best mapping genes differ");
    let bits = |xs: &[f64]| xs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(a.history.samples()),
        bits(b.history.samples()),
        "{tag}: per-sample fitness sequence differs"
    );
    assert_eq!(
        bits(&a.history.best_curve()),
        bits(&b.history.best_curve()),
        "{tag}: convergence curve differs"
    );
}

/// Every algorithm of [`Algorithm::ALL`] (the 10 Table IV mappers plus
/// Random) reproduces its one-shot outcome when stepped at slice sizes
/// 1, 7 and the whole budget, under 1 and 4 evaluation workers.
#[test]
fn sessions_reproduce_one_shot_outcomes_at_any_slice_size() {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 12, 0);
    for algorithm in Algorithm::ALL {
        let mapper = algorithm.build();
        let reference =
            with_threads(1, || mapper.search(&p, BUDGET, &mut StdRng::seed_from_u64(SEED)));
        for threads in [1usize, 4] {
            for slice in [1usize, 7, BUDGET] {
                let sliced =
                    with_threads(threads, || run_sliced(mapper.as_ref(), &p, BUDGET, slice));
                assert_identical(mapper.name(), slice, threads, &reference, &sliced);
            }
        }
    }
}

/// A warm-started MAGMA search (`Magma::with_warm_start`, the serving
/// layer's cache-hit path) holds the same invariant at refinement budgets.
#[test]
fn refine_sessions_reproduce_one_shot_refinement() {
    let p = problem(Setting::S2, TaskType::Recommendation, Some(16.0), 10, 4);
    let mut seed_rng = StdRng::seed_from_u64(11);
    let seeds: Vec<Mapping> = (0..4).map(|_| Mapping::random(&mut seed_rng, 10, 4)).collect();
    let magma = Magma::with_warm_start(seeds);
    for budget in [1usize, 5, 40] {
        let reference = magma.search(&p, budget, &mut StdRng::seed_from_u64(SEED));
        for slice in [1usize, 3, budget] {
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut session = magma.start(&p, &mut rng);
            loop {
                let remaining = budget - session.spent();
                if remaining == 0 {
                    break;
                }
                if session.step(slice.min(remaining)).spent == 0 {
                    break;
                }
            }
            let sliced = session.finish();
            assert_identical("MAGMA refine", slice, 1, &reference, &sliced);
        }
    }
}

/// A session is resumable across arbitrarily interleaved step calls: mixing
/// slice sizes mid-run (as the serving simulator's event loop does) is just
/// as bit-identical as a uniform slicing.
#[test]
fn mixed_slice_sizes_are_bit_identical_too() {
    let p = problem(Setting::S2, TaskType::Language, Some(16.0), 8, 2);
    let mapper = Magma::default();
    let reference = mapper.search(&p, 60, &mut StdRng::seed_from_u64(3));
    let mut rng = StdRng::seed_from_u64(3);
    let mut session = mapper.start(&p, &mut rng);
    // 60 = 1 + 9 + 2 + 17 + 31, deliberately straddling the generation
    // boundaries of the 16-strong population.
    for slice in [1usize, 9, 2, 17, 31] {
        let report = session.step(slice);
        assert_eq!(report.spent, slice);
    }
    assert_eq!(session.spent(), 60);
    let sliced = session.finish();
    assert_identical("MAGMA", 0, 1, &reference, &sliced);
}

/// The early-finish (preemption) contract the fleet scheduler is built on:
/// a session abandoned part-way through its budget still yields a valid
/// outcome, bit-identical to the one-shot search at the *spent* budget —
/// whether the cut lands mid-generation (19 is no multiple of any population
/// here) or on a generation boundary (24 = two 12-strong MAGMA generations,
/// three PPO2 rollout batches, any number of A2C episodes) — for every
/// [`Algorithm::ALL`] entry that is not a one-shot heuristic.
#[test]
fn early_finish_matches_one_shot_at_the_spent_budget() {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 12, 0);
    let one_shot = [Algorithm::HeraldLike, Algorithm::AiMtLike];
    for algorithm in Algorithm::ALL.iter().filter(|a| !one_shot.contains(a)) {
        let mapper = algorithm.build();
        for spent in [19usize, 24] {
            let reference =
                with_threads(1, || mapper.search(&p, spent, &mut StdRng::seed_from_u64(SEED)));
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut session = mapper.start(&p, &mut rng);
            // Two uneven steps, then abandon far short of the nominal
            // 70-sample budget — exactly what a deadline preemption does.
            assert_eq!(session.step(spent - 7).spent, spent - 7, "{}", mapper.name());
            assert_eq!(session.step(7).spent, 7, "{}", mapper.name());
            assert_eq!(session.spent(), spent, "{}", mapper.name());
            let preempted = session.finish();
            assert_eq!(preempted.history.num_samples(), spent, "{}", mapper.name());
            assert_identical(mapper.name(), spent, 1, &reference, &preempted);
        }
    }
}

/// Finishing a session that never evaluated a single sample panics — there
/// is no mapping to return. This is why every preemption site (the fleet's
/// `SessionScheduler` included) must guard on `spent() > 0` before an early
/// `finish()`.
#[test]
#[should_panic(expected = "at least one mapping")]
fn finishing_an_unstepped_session_panics() {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 8, 0);
    let mapper = Algorithm::Magma.build();
    let mut rng = StdRng::seed_from_u64(0);
    let session = mapper.start(&p, &mut rng);
    let _ = session.finish();
}

/// One-shot heuristics expose the exhaustion contract: the first step spends
/// their single sample, every later step reports zero.
#[test]
fn heuristic_sessions_report_exhaustion() {
    let p = problem(Setting::S2, TaskType::Vision, Some(16.0), 8, 1);
    for algorithm in [Algorithm::HeraldLike, Algorithm::AiMtLike] {
        let mapper = algorithm.build();
        let mut rng = StdRng::seed_from_u64(0);
        let mut session = mapper.start(&p, &mut rng);
        assert_eq!(session.step(10).spent, 1, "{}", mapper.name());
        assert_eq!(session.step(10).spent, 0, "{}", mapper.name());
        assert_eq!(session.spent(), 1, "{}", mapper.name());
        let outcome = session.finish();
        assert_eq!(outcome.history.num_samples(), 1, "{}", mapper.name());
        assert!(outcome.best_fitness > 0.0, "{}", mapper.name());
    }
}
