//! The shared plumbing behind every [`SearchSession`]: one driver that turns
//! a per-algorithm *generation rule* into a budget-sliced session.
//!
//! Every optimizer in this crate is, at heart, a loop of "produce the next
//! candidates → evaluate them → fold the fitnesses back into algorithm
//! state", and every one of them folds at a boundary of its own: a GA's
//! generation, a swarm's iteration, PPO2's rollout batch, A2C's single
//! episode, a heuristic's one proposal. A [`Generation`] rule says how many
//! candidates the next generation holds, how its `index`-th candidate is made
//! and what happens when all of them are evaluated; [`Generations`] owns the
//! generation in flight — what was emitted, what was absorbed, the cap at the
//! slice — evaluates each wave through the parallel batch oracle
//! ([`BatchEvaluator::evaluate_batch`]), records every sample in the session's
//! [`SearchHistory`] and calls [`close`](Generation::close) at the boundary
//! and nowhere else. It owns nothing but algorithm state (it is the detached
//! [`SessionState`]); [`AttachedSession`] zips such a state with the
//! problem/RNG borrows to recover the classic [`SearchSession`] shape.
//!
//! # The slicing invariant
//!
//! Candidates are produced **lazily, in a budget-agnostic order**: the k-th
//! candidate of a search (and every RNG draw behind it) depends only on the
//! results of the generations closed before it, never on the slice size or on
//! any total budget. A rule cannot break this — it never sees a slice, and
//! the only fitnesses it is ever handed are a complete generation's. A search
//! stopped mid-generation has therefore drawn exactly the RNG stream of the
//! one-shot search whose budget ran out there, and a selection, a distribution
//! update or a policy update never sees a partial generation. This is what
//! makes a session stepped at any slice sizes bit-identical (outcome *and* RNG
//! stream) to the one-shot search at the same total, and what `magma-serve`'s
//! preemption rests on.

use crate::optimizer::{SearchOutcome, SearchSession, SessionState, StepReport};
use crate::parallel::BatchEvaluator;
use magma_m3e::{Mapping, MappingProblem, SearchHistory};
use rand::rngs::StdRng;

/// A search, as a rule over the generation in flight that [`Generations`]
/// owns. See the module docs.
pub(crate) trait Generation {
    /// How many candidates the generation about to start holds. Zero ends
    /// the search.
    fn size(&self) -> usize;

    /// Makes candidate `index` of the generation in flight. Called once per
    /// index, in order; candidates `0..index` exist but may not be evaluated
    /// yet.
    fn emit(&mut self, index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping;

    /// The generation is complete: `fits[i]` is the fitness of
    /// `candidates[i]`, in emission order. A rule that recycles its
    /// candidates drains them; what it leaves is dropped.
    fn close(&mut self, candidates: &mut Vec<Mapping>, fits: &[f64]);
}

/// The one owned [`SessionState`]: a [`Generation`] rule, the generation it
/// has in flight and the sample history, with the problem and RNG lent per
/// call.
pub(crate) struct Generations<G: Generation> {
    history: SearchHistory,
    rule: G,
    /// Size of the generation in flight.
    size: usize,
    /// What of it has been emitted, all of it evaluated: `fits[i]` is the
    /// fitness of `candidates[i]`.
    candidates: Vec<Mapping>,
    fits: Vec<f64>,
}

impl<G: Generation + 'static> Generations<G> {
    /// Opens the rule's first generation, boxed behind the object-safe trait.
    pub(crate) fn open(rule: G) -> Box<dyn SessionState> {
        let size = rule.size();
        Box::new(Generations {
            history: SearchHistory::new(),
            rule,
            size,
            candidates: Vec::new(),
            fits: Vec::new(),
        })
    }
}

impl<G: Generation> SessionState for Generations<G> {
    fn step(
        &mut self,
        problem: &dyn MappingProblem,
        rng: &mut StdRng,
        samples: usize,
    ) -> StepReport {
        let mut spent = 0usize;
        while spent < samples {
            if self.size > 0 && self.candidates.len() == self.size {
                self.rule.close(&mut self.candidates, &self.fits);
                self.candidates.clear();
                self.fits.clear();
                self.size = self.rule.size();
            }
            let emitted = self.candidates.len();
            let count = (samples - spent).min(self.size - emitted);
            if count == 0 {
                break;
            }
            let rule = &mut self.rule;
            self.candidates
                .extend((emitted..emitted + count).map(|index| rule.emit(index, problem, rng)));
            let wave = &self.candidates[emitted..];
            let fits = problem.evaluate_batch(wave);
            for (mapping, f) in wave.iter().zip(&fits) {
                self.history.record(mapping, *f);
            }
            self.fits.extend_from_slice(&fits);
            spent += count;
        }
        StepReport {
            spent,
            total_spent: self.history.num_samples(),
            best_fitness: self.history.best_fitness(),
        }
    }

    fn best(&self) -> Option<(&Mapping, f64)> {
        Some((self.history.best_mapping()?, self.history.best_fitness()?))
    }

    fn spent(&self) -> usize {
        self.history.num_samples()
    }

    fn finish(self: Box<Self>) -> SearchOutcome {
        SearchOutcome::from_history(self.history)
    }
}

/// The borrowing [`SearchSession`] adapter over an owned [`SessionState`]:
/// captures the problem and RNG once so per-step calls need no arguments.
/// This is what [`Optimizer::start`](crate::Optimizer::start) hands out.
pub(crate) struct AttachedSession<'a> {
    problem: &'a dyn MappingProblem,
    rng: &'a mut StdRng,
    state: Box<dyn SessionState>,
}

impl<'a> AttachedSession<'a> {
    /// Zips an owned state with the borrows it must be lent on every step.
    pub(crate) fn new(
        problem: &'a dyn MappingProblem,
        rng: &'a mut StdRng,
        state: Box<dyn SessionState>,
    ) -> Self {
        AttachedSession { problem, rng, state }
    }
}

impl SearchSession for AttachedSession<'_> {
    fn step(&mut self, samples: usize) -> StepReport {
        self.state.step(self.problem, self.rng, samples)
    }

    fn best(&self) -> Option<(&Mapping, f64)> {
        self.state.best()
    }

    fn spent(&self) -> usize {
        self.state.spent()
    }

    fn finish(self: Box<Self>) -> SearchOutcome {
        self.state.finish()
    }
}

/// The rule of the manual heuristics, which propose exactly one
/// deterministic mapping: a generation of one, then none — so driving it to
/// any budget evaluates exactly one sample.
pub(crate) struct OneShot(Option<Mapping>);

impl OneShot {
    /// Opens a session holding the heuristic's single proposal.
    pub(crate) fn open(mapping: Mapping) -> Box<dyn SessionState> {
        Generations::open(OneShot(Some(mapping)))
    }
}

impl Generation for OneShot {
    fn size(&self) -> usize {
        usize::from(self.0.is_some())
    }

    fn emit(&mut self, _index: usize, _problem: &dyn MappingProblem, _rng: &mut StdRng) -> Mapping {
        self.0.take().expect("a generation of one is emitted once")
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, _fits: &[f64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, PartialEq)]
    enum Asked {
        /// `emit(index)` in generation `.0`, and where the RNG stream stood.
        Emit(usize, usize, u64),
        /// `close`, with the bits of the fitnesses it was handed.
        Close(Vec<u64>),
    }

    /// A rule that writes down everything it is asked: generations of the
    /// given sizes, then none.
    struct Logged {
        sizes: Vec<usize>,
        closed: usize,
        log: Rc<RefCell<Vec<Asked>>>,
    }

    impl Generation for Logged {
        fn size(&self) -> usize {
            self.sizes.get(self.closed).copied().unwrap_or(0)
        }

        fn emit(&mut self, index: usize, p: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
            self.log.borrow_mut().push(Asked::Emit(self.closed, index, rng.gen()));
            Mapping::random(rng, p.num_jobs(), p.num_accels())
        }

        fn close(&mut self, candidates: &mut Vec<Mapping>, fits: &[f64]) {
            assert_eq!((candidates.len(), fits.len()), (self.size(), self.size()));
            self.log.borrow_mut().push(Asked::Close(fits.iter().map(|f| f.to_bits()).collect()));
            self.closed += 1;
        }
    }

    /// Drives a [`Logged`] rule through `slices`; returns what it was asked,
    /// every sample's fitness bits, and the next draw of the RNG.
    fn drive(sizes: &[usize], slices: &[usize]) -> (Vec<Asked>, Vec<u64>, u64) {
        let p = ToyProblem { jobs: 5, accels: 2 };
        let mut rng = StdRng::seed_from_u64(9);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut state =
            Generations::open(Logged { sizes: sizes.to_vec(), closed: 0, log: log.clone() });
        let total: usize = sizes.iter().sum();
        // One evaluation thread: the worker pool is process-wide, and the
        // pool's own tests count its batches.
        crate::parallel::with_threads(1, || {
            for &slice in slices {
                let before = state.spent();
                assert_eq!(state.step(&p, &mut rng, slice).spent, slice.min(total - before));
            }
        });
        let samples = state.finish().history.samples().iter().map(|f| f.to_bits()).collect();
        (log.take(), samples, rng.gen())
    }

    proptest! {
        // The slicing invariant, where it lives: whatever the slices — of one
        // sample, spanning several generations, running past the last one —
        // the rule is asked for the same candidates at the same points of the
        // RNG stream and handed the same complete generations as by one slice
        // asking for the same total.
        #[test]
        fn a_rule_is_asked_the_same_at_any_slicing(
            sizes in proptest::collection::vec(1usize..7, 1..8),
            slices in proptest::collection::vec(1usize..12, 1..40),
        ) {
            let sliced = drive(&sizes, &slices);
            let one_slice = drive(&sizes, &[slices.iter().sum()]);
            prop_assert_eq!(sliced, one_slice);
        }
    }

    #[test]
    fn one_shot_core_spends_exactly_one_sample() {
        let p = ToyProblem { jobs: 6, accels: 2 };
        let mut rng = StdRng::seed_from_u64(0);
        let mapping = Mapping::random(&mut rng, 6, 2);
        let mut session = AttachedSession::new(&p, &mut rng, OneShot::open(mapping));
        let first = session.step(10);
        assert_eq!(first.spent, 1);
        assert_eq!(first.total_spent, 1);
        assert!(first.best_fitness.is_some());
        let second = session.step(10);
        assert_eq!(second.spent, 0, "a one-shot core is exhausted after its sample");
        assert_eq!(session.spent(), 1);
        assert!(session.best().is_some());
        let outcome = Box::new(session).finish();
        assert_eq!(outcome.history.num_samples(), 1);
    }

    #[test]
    fn step_zero_samples_is_a_no_op() {
        let p = ToyProblem { jobs: 4, accels: 2 };
        let mut rng = StdRng::seed_from_u64(1);
        let mapping = Mapping::random(&mut rng, 4, 2);
        let mut state = OneShot::open(mapping);
        let report = state.step(&p, &mut rng, 0);
        assert_eq!(report.spent, 0);
        assert_eq!(report.total_spent, 0);
        assert_eq!(report.best_fitness, None);
        assert!(state.best().is_none());
    }
}
