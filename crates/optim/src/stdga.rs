//! Standard genetic algorithm (the "stdGA" baseline of Table IV).
//!
//! Unlike MAGMA, stdGA treats the whole individual as one flat genome: a
//! single-pivot crossover cuts across the concatenated
//! (selection ‖ priority) genome, and mutation re-draws genes uniformly.
//! That is its whole `Breed` rule; ranking, elitism, parent selection and
//! the recycled individuals are the engine MAGMA runs on (`ga.rs`).

use crate::ga::{mutate, Breed, ElitistGa};
use crate::optimizer::{Optimizer, SessionState};
use crate::session::Generations;
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;
use rand::Rng;

/// Population size.
const POPULATION: usize = 50;
/// Per-gene mutation probability (Table IV: 0.1).
const MUTATION_RATE: f64 = 0.1;
/// Probability of applying the flat single-pivot crossover (Table IV: 0.1).
const CROSSOVER_RATE: f64 = 0.1;
/// Fraction of the population carried over as elites.
const ELITE_RATIO: f64 = 0.2;

/// The standard genetic algorithm baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdGa;

impl StdGa {
    /// Flat single-pivot crossover over the concatenated genome.
    fn crossover(child: &mut Mapping, mom: &Mapping, rng: &mut StdRng) {
        let n = child.num_jobs();
        let pivot = rng.gen_range(0..2 * n);
        for i in 0..2 * n {
            if i >= pivot {
                if i < n {
                    child.accel_sel_mut()[i] = mom.accel_sel()[i];
                } else {
                    child.priority_mut()[i - n] = mom.priority()[i - n];
                }
            }
        }
    }
}

impl Breed for StdGa {
    fn population_size(&self, _num_jobs: usize) -> usize {
        POPULATION
    }

    fn elite_ratio(&self) -> f64 {
        ELITE_RATIO
    }

    fn make_child(
        &self,
        child: &mut Mapping,
        dad: &Mapping,
        mom: &Mapping,
        num_accels: usize,
        rng: &mut StdRng,
    ) {
        child.clone_from(dad);
        if rng.gen::<f64>() < CROSSOVER_RATE {
            Self::crossover(child, mom, rng);
        }
        mutate(child, MUTATION_RATE, num_accels, rng);
    }
}

impl Optimizer for StdGa {
    fn name(&self) -> &str {
        "stdGA"
    }

    fn open(&self, problem: &dyn MappingProblem, _rng: &mut StdRng) -> Box<dyn SessionState> {
        Generations::open(ElitistGa::new(*self, problem, Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::{toy_optimum, ToyProblem};
    use rand::SeedableRng;

    #[test]
    fn improves_over_time() {
        let p = ToyProblem { jobs: 20, accels: 4 };
        let o = StdGa.search(&p, 1_500, &mut StdRng::seed_from_u64(0));
        assert!(o.best_fitness > 0.6 * toy_optimum(20));
        let curve = o.history.best_curve();
        assert!(curve.last().unwrap() > &curve[0]);
    }

    #[test]
    fn respects_budget() {
        let p = ToyProblem { jobs: 10, accels: 2 };
        let o = StdGa.search(&p, 99, &mut StdRng::seed_from_u64(1));
        assert_eq!(o.history.num_samples(), 99);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = ToyProblem { jobs: 10, accels: 2 };
        let a = StdGa.search(&p, 200, &mut StdRng::seed_from_u64(5));
        let b = StdGa.search(&p, 200, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.best_fitness, b.best_fitness);
    }
}
