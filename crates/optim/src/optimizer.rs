//! The common interface all mapping optimizers implement: resumable
//! [`SearchSession`]s started by [`Optimizer::start`], with the classic
//! one-shot [`Optimizer::search`] kept as a provided method on top.
//!
//! Since the fleet-scheduler redesign the *required* entry point is
//! [`Optimizer::open`], which returns an **owned** [`SessionState`]: all
//! algorithm state, no borrows. `start` wraps it back into the borrowing
//! [`SearchSession`] for callers that drive one search at a time, so both
//! entry points are bit-identical by construction.

use crate::session::AttachedSession;
use magma_m3e::{Mapping, MappingProblem, SearchHistory};
use rand::rngs::StdRng;

/// The result of one optimization run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best mapping found within the budget.
    pub best_mapping: Mapping,
    /// Its fitness (higher is better; GFLOP/s for the throughput objective).
    pub best_fitness: f64,
    /// Per-sample history (used for convergence curves and sample-efficiency
    /// analysis).
    pub history: SearchHistory,
}

impl SearchOutcome {
    /// Builds an outcome from a completed history.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty (an optimizer must evaluate at least
    /// one sample).
    pub(crate) fn from_history(history: SearchHistory) -> Self {
        let best_mapping = history
            .best_mapping()
            .expect("an optimizer must evaluate at least one mapping")
            .clone();
        let best_fitness = history.best_fitness().unwrap();
        SearchOutcome { best_mapping, best_fitness, history }
    }
}

/// The accounting block returned by every [`SearchSession::step`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Samples actually evaluated by this step (may be less than requested
    /// when the optimizer is exhausted, e.g. a one-shot heuristic; zero
    /// strictly means "stepping further will never evaluate anything").
    pub spent: usize,
    /// Samples evaluated by the session so far, including this step.
    pub total_spent: usize,
    /// Best fitness seen so far, `None` only while nothing was evaluated.
    pub best_fitness: Option<f64>,
}

/// The owned half of a resumable search: every piece of algorithm state
/// (population, distribution, policy, history) and **no borrows**.
///
/// Where [`SearchSession`] borrows the problem and the RNG for its whole
/// lifetime — fine for one search at a time, impossible for a scheduler
/// that must hold *many* live searches — a `SessionState` is `'static`
/// and is lent the problem and RNG afresh on every call. The
/// fleet-serving scheduler (`magma-serve`) owns one `Box<dyn
/// SessionState>` per in-flight dispatch group and interleaves their
/// slices under a deadline policy.
///
/// The slicing invariant of [`SearchSession`] carries over verbatim:
/// stepping in any slice sizes is bit-identical (outcome *and* RNG
/// stream) to a one-shot [`Optimizer::search`] at the same total budget,
/// **provided each call passes the same problem and RNG** the session was
/// opened with. Lending a different problem or RNG mid-session is a logic
/// error (not UB, but the result is meaningless).
pub trait SessionState {
    /// Evaluates **up to** `samples` further candidates against `problem`,
    /// drawing randomness from `rng`. Semantics match
    /// [`SearchSession::step`]: `spent == 0` means exhausted.
    fn step(
        &mut self,
        problem: &dyn MappingProblem,
        rng: &mut StdRng,
        samples: usize,
    ) -> StepReport;

    /// The best mapping and fitness found so far, `None` until the first
    /// sample was evaluated.
    fn best(&self) -> Option<(&Mapping, f64)>;

    /// Samples evaluated so far across all steps.
    fn spent(&self) -> usize;

    /// Consumes the state and returns the outcome of everything evaluated
    /// so far — including an **early finish** before the nominal budget is
    /// exhausted (the preemption path of the fleet scheduler).
    ///
    /// # Panics
    ///
    /// Panics if no sample was evaluated yet (an outcome needs at least one
    /// mapping); preempting callers must step a session at least once
    /// before finishing it.
    fn finish(self: Box<Self>) -> SearchOutcome;
}

/// A resumable, budget-sliced search in progress.
///
/// A session is created by [`Optimizer::start`] and advanced by calling
/// [`step`](SearchSession::step) with a slice of the sampling budget; it
/// carries the optimizer's full state (population, distribution, policy —
/// and the borrowed RNG) across slices. The hard invariant every
/// implementation upholds (and `tests/integration_sessions.rs` locks down):
/// **stepping in any slice sizes produces exactly the [`SearchOutcome`] of
/// a one-shot [`Optimizer::search`] at the same total budget** — the same
/// evaluated candidates in the same order, bit-identical fitnesses, and the
/// same RNG stream. This is what lets a serving layer interleave search
/// slices with accelerator execution (overlap mode in `magma-serve`), meter
/// real per-step mapper cost, and preempt a search under deadline pressure
/// without changing any result.
pub trait SearchSession {
    /// Evaluates **up to** `samples` further candidates and returns the
    /// accounting for this slice. A report with `spent == 0` means the
    /// optimizer is exhausted (it will never evaluate more, e.g. a one-shot
    /// heuristic after its single sample); callers driving a session to a
    /// budget must treat it as a stop signal.
    fn step(&mut self, samples: usize) -> StepReport;

    /// The best mapping and fitness found so far, `None` until the first
    /// sample was evaluated.
    fn best(&self) -> Option<(&Mapping, f64)>;

    /// Samples evaluated so far across all steps.
    fn spent(&self) -> usize;

    /// Consumes the session and returns the outcome of everything evaluated
    /// so far.
    ///
    /// # Panics
    ///
    /// Panics if no sample was evaluated yet (an outcome needs at least one
    /// mapping).
    fn finish(self: Box<Self>) -> SearchOutcome;
}

/// A mapping optimizer: given a black-box [`MappingProblem`] and a sampling
/// budget, find the best mapping it can.
///
/// Implementations must be deterministic given the same `rng` seed so the
/// paper's experiments are reproducible. The required method is
/// [`open`](Optimizer::open), which returns an owned [`SessionState`];
/// the borrowing [`start`](Optimizer::start) and the classic one-shot
/// [`search`](Optimizer::search) are provided methods layered on top, so
/// all three entry points produce bit-identical outcomes by construction.
pub trait Optimizer {
    /// Human-readable name used in result tables (matches Table IV labels).
    fn name(&self) -> &str;

    /// Opens an owned, resumable search state on `problem`. `rng` is
    /// borrowed only for the duration of this call (some algorithms draw
    /// their initial distribution here); no candidate is evaluated until
    /// the first [`SessionState::step`] call, which must be lent the same
    /// problem and RNG.
    fn open(&self, problem: &dyn MappingProblem, rng: &mut StdRng) -> Box<dyn SessionState>;

    /// Opens a resumable search session on `problem`, borrowing `rng` for
    /// the session's lifetime. No candidate is evaluated until the first
    /// [`SearchSession::step`] call.
    ///
    /// Provided method: wraps [`open`](Optimizer::open)'s owned state
    /// together with the borrows, so `start` and `open` are bit-identical.
    fn start<'a>(
        &self,
        problem: &'a dyn MappingProblem,
        rng: &'a mut StdRng,
    ) -> Box<dyn SearchSession + 'a> {
        let state = self.open(problem, rng);
        Box::new(AttachedSession::new(problem, rng, state))
    }

    /// Runs the search, evaluating at most `budget` candidate mappings.
    ///
    /// Provided method: loops [`SearchSession::step`] over one session until
    /// the budget is spent or the optimizer is exhausted. Migration note:
    /// before the session redesign this was the required method; existing
    /// callers compile unchanged and receive bit-identical outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    fn search(
        &self,
        problem: &dyn MappingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> SearchOutcome {
        assert!(budget > 0, "sampling budget must be non-zero");
        let mut session = self.start(problem, rng);
        loop {
            let remaining = budget - session.spent();
            if remaining == 0 {
                break;
            }
            if session.step(remaining).spent == 0 {
                break;
            }
        }
        session.finish()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A cheap synthetic problem shared by the optimizer unit tests: fitness
    //! rewards assigning job `i` to accelerator `i % m` and ordering jobs by
    //! index. It has a known unique optimum, is smooth enough for every
    //! optimizer family to make progress on, and costs nothing to evaluate.

    use magma_m3e::{Mapping, MappingProblem};
    use magma_model::TaskType;

    pub(crate) struct ToyProblem {
        pub jobs: usize,
        pub accels: usize,
    }

    impl MappingProblem for ToyProblem {
        fn num_jobs(&self) -> usize {
            self.jobs
        }

        fn num_accels(&self) -> usize {
            self.accels
        }

        fn evaluate(&self, mapping: &Mapping) -> f64 {
            let mut score = 0.0;
            for (i, &a) in mapping.accel_sel().iter().enumerate() {
                if a == i % self.accels {
                    score += 1.0;
                }
            }
            // Reward priorities that are increasing with the job index.
            for w in 0..mapping.num_jobs() - 1 {
                if mapping.priority()[w] <= mapping.priority()[w + 1] {
                    score += 0.5;
                }
            }
            score
        }

        fn task_type(&self) -> Option<TaskType> {
            Some(TaskType::Mix)
        }
    }

    /// The maximum achievable fitness of [`ToyProblem`].
    pub(crate) fn toy_optimum(jobs: usize) -> f64 {
        jobs as f64 + 0.5 * (jobs - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_m3e::SearchHistory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn outcome_from_history_takes_best() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut h = SearchHistory::new();
        let a = Mapping::random(&mut rng, 4, 2);
        let b = Mapping::random(&mut rng, 4, 2);
        h.record(&a, 1.0);
        h.record(&b, 3.0);
        let o = SearchOutcome::from_history(h);
        assert_eq!(o.best_fitness, 3.0);
        assert_eq!(o.best_mapping, b);
        assert_eq!(o.history.num_samples(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one mapping")]
    fn empty_history_panics() {
        let _ = SearchOutcome::from_history(SearchHistory::new());
    }
}
