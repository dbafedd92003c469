//! The elitist genetic algorithm MAGMA and stdGA share: rank the population,
//! keep the elites, breed the rest from the top half. What differs between
//! the two — how a child is made of its parents — is the [`Breed`] rule; the
//! engine is generic over it, so each mapper's breeding path is monomorphic.

use crate::session::Generation;
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// What makes an elitist GA MAGMA or stdGA.
pub(crate) trait Breed {
    /// Population size on a group of `num_jobs` jobs. Budget-independent:
    /// the one-shot searches clamped it to the budget, but that clamp only
    /// ever bound runs that ended inside the initial population — which a
    /// lazily emitting session reproduces without knowing the budget.
    fn population_size(&self, num_jobs: usize) -> usize;

    /// Fraction of the population carried over unchanged as elites.
    fn elite_ratio(&self) -> f64;

    /// Breeds one child of `dad` and `mom` into `child`, whose previous
    /// genes are overwritten (its buffers are what is being reused).
    fn make_child(
        &self,
        child: &mut Mapping,
        dad: &Mapping,
        mom: &Mapping,
        num_accels: usize,
        rng: &mut StdRng,
    );
}

/// Standard mutation: every gene is re-drawn with probability `rate`.
pub(crate) fn mutate(child: &mut Mapping, rate: f64, num_accels: usize, rng: &mut StdRng) {
    for i in 0..child.num_jobs() {
        if rng.gen::<f64>() < rate {
            child.accel_sel_mut()[i] = rng.gen_range(0..num_accels);
        }
        if rng.gen::<f64>() < rate {
            child.priority_mut()[i] = rng.gen_range(0.0..1.0);
        }
    }
}

/// One evaluated individual.
struct Individual {
    mapping: Mapping,
    fitness: f64,
    /// Position in the list the ranking sort was handed (elites first, then
    /// evaluation order): the tie-break that makes the in-place unstable sort
    /// return what a stable one would.
    arrival: usize,
}

/// The engine, as a [`Generation`] rule: the initial population (seeds first,
/// each handed over by move, random fill after), then generations of children
/// bred from a parent pool frozen when the previous generation finished
/// evaluating.
///
/// A generation recycles its individuals: the ranked previous generation
/// stays where it is (its first `elite_count` are the elites, its first
/// `parent_count` the parent pool, both by index), and children are bred into
/// the genome buffers of individuals the ranking before that discarded — so
/// once two generations have run, breeding allocates nothing per child.
pub(crate) struct ElitistGa<B: Breed> {
    rule: B,
    num_jobs: usize,
    num_accels: usize,
    pop_size: usize,
    elite_count: usize,
    /// The warm-start seeds not yet emitted: the initial population's first
    /// individuals, in order (the session emits each index once, in order).
    seeds: std::vec::IntoIter<Mapping>,
    /// The last fully evaluated generation with the elites it inherited,
    /// best first (empty until the initial population is evaluated).
    ranked: Vec<Individual>,
    /// Size of the parent pool `ranked[..parent_count]` (the top half).
    parent_count: usize,
    /// Discarded individuals, to breed the next children into.
    spare: Vec<Mapping>,
}

impl<B: Breed> ElitistGa<B> {
    /// The engine over `rule`, its initial population starting with `seeds`
    /// (a warm start; empty for a cold one).
    pub(crate) fn new(rule: B, problem: &dyn MappingProblem, seeds: Vec<Mapping>) -> Self {
        let num_jobs = problem.num_jobs();
        let pop_size = rule.population_size(num_jobs);
        let elite_count = ((pop_size as f64 * rule.elite_ratio()).round() as usize)
            .clamp(1, pop_size.saturating_sub(1).max(1));
        ElitistGa {
            rule,
            num_jobs,
            num_accels: problem.num_accels(),
            pop_size,
            elite_count,
            seeds: seeds.into_iter(),
            ranked: Vec::new(),
            parent_count: 0,
            spare: Vec::new(),
        }
    }

    fn elites(&self) -> usize {
        self.elite_count.min(self.ranked.len())
    }
}

impl<B: Breed> Generation for ElitistGa<B> {
    /// The whole population first, then the children that join the elites.
    fn size(&self) -> usize {
        self.pop_size.saturating_sub(self.elites())
    }

    fn emit(&mut self, _index: usize, _problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        if self.ranked.is_empty() {
            let (jobs, accels) = (self.num_jobs, self.num_accels);
            return self.seeds.next().unwrap_or_else(|| Mapping::random(rng, jobs, accels));
        }
        let parents = &self.ranked[..self.parent_count];
        let dad = &parents.choose(rng).expect("a ranked population has parents").mapping;
        let mom = &parents.choose(rng).expect("a ranked population has parents").mapping;
        let mut child = self.spare.pop().unwrap_or_else(|| dad.clone());
        self.rule.make_child(&mut child, dad, mom, self.num_accels, rng);
        child
    }

    /// The elites of the previous ranking stay, the rest of it is discarded,
    /// the new generation joins and the whole is ranked.
    fn close(&mut self, candidates: &mut Vec<Mapping>, fits: &[f64]) {
        let elites = self.elites();
        self.spare.extend(self.ranked.drain(elites..).map(|individual| individual.mapping));
        self.ranked.extend(candidates.drain(..).zip(fits).map(|(mapping, &fitness)| Individual {
            mapping,
            fitness,
            arrival: 0,
        }));
        for (arrival, individual) in self.ranked.iter_mut().enumerate() {
            individual.arrival = arrival;
        }
        self.ranked.sort_unstable_by(|a, b| {
            b.fitness
                .partial_cmp(&a.fitness)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.arrival.cmp(&b.arrival))
        });
        self.parent_count = (self.ranked.len() / 2).max(2).min(self.ranked.len());
    }
}
