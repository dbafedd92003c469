//! Uniform random search.
//!
//! Used both as a sanity baseline and as the "exhaustively sampled"
//! best-effort reference of Fig. 10 (the paper runs ~1 M random samples to
//! approximate the achievable optimum of a problem instance).

use crate::optimizer::{Optimizer, SessionState};
use crate::session::{Generation, Generations};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Samples are drawn and evaluated in batches of this size, bounding the
/// memory held in flight when the budget is large (Fig. 10 uses ~1 M
/// samples) while still giving the worker pool full generations to chew on.
const BATCH: usize = 1024;

/// Uniform random sampling of the mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl RandomSearch {
    /// Creates a random-search optimizer.
    pub fn new() -> Self {
        RandomSearch
    }
}

impl Optimizer for RandomSearch {
    fn name(&self) -> &str {
        "Random"
    }

    fn open(&self, _problem: &dyn MappingProblem, _rng: &mut StdRng) -> Box<dyn SessionState> {
        Generations::open(*self)
    }
}

/// Random search as a generation rule: memoryless, so a generation is simply
/// `BATCH` fresh uniform mappings and closing it folds nothing.
impl Generation for RandomSearch {
    fn size(&self) -> usize {
        BATCH
    }

    fn emit(&mut self, _index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        Mapping::random(rng, problem.num_jobs(), problem.num_accels())
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, _fits: &[f64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn uses_exactly_the_budget() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let o = RandomSearch::new().search(&p, 50, &mut StdRng::seed_from_u64(0));
        assert_eq!(o.history.num_samples(), 50);
        assert!(o.best_fitness > 0.0);
    }

    #[test]
    fn more_budget_never_hurts() {
        let p = ToyProblem { jobs: 16, accels: 4 };
        let small = RandomSearch::new().search(&p, 20, &mut StdRng::seed_from_u64(1));
        let large = RandomSearch::new().search(&p, 500, &mut StdRng::seed_from_u64(1));
        assert!(large.best_fitness >= small.best_fitness);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let a = RandomSearch::new().search(&p, 40, &mut StdRng::seed_from_u64(9));
        let b = RandomSearch::new().search(&p, 40, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.best_fitness, b.best_fitness);
    }
}
