//! Differential Evolution (DE/rand/1/bin), the "DE" baseline of Table IV.
//!
//! The paper configures DE with a local and global differential weight of
//! 0.8; this implementation uses the classic rand/1/bin scheme with
//! `F = 0.8` and crossover rate `CR = 0.8` over the continuous vector view of
//! the encoding. The update is generation-synchronous (all trials of a
//! generation are built from, and selected against, the previous
//! generation), which is what lets a generation evaluate as one parallel
//! batch.

use crate::optimizer::{Optimizer, SessionState};
use crate::session::{Generation, Generations};
use crate::vector::{clamp_unit, VectorProblem};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;
use rand::Rng;

/// Population size.
const POPULATION: usize = 40;
/// Differential weight F (Table IV: 0.8).
const DIFFERENTIAL_WEIGHT: f64 = 0.8;
/// Crossover probability CR (Table IV: 0.8).
const CROSSOVER_RATE: f64 = 0.8;
// rand/1/bin builds a trial from three individuals other than its target.
const _: () = assert!(POPULATION >= 4);

/// The DE/rand/1/bin optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DifferentialEvolution;

impl Optimizer for DifferentialEvolution {
    fn name(&self) -> &str {
        "DE"
    }

    fn open(&self, _problem: &dyn MappingProblem, _rng: &mut StdRng) -> Box<dyn SessionState> {
        Generations::open(DeRule::default())
    }
}

/// DE as a generation rule: a random initial population, then generations of
/// one trial per individual, built from the population as the previous
/// generation left it and selected index by index once all are evaluated.
#[derive(Default)]
struct DeRule {
    /// The population and fitnesses trials are built against (empty until
    /// the initial population is evaluated).
    pop: Vec<Vec<f64>>,
    fit: Vec<f64>,
    /// The generation in flight: initial individuals or trial vectors.
    trials: Vec<Vec<f64>>,
}

impl DeRule {
    /// Breeds the trial against individual `i` (rand/1/bin).
    fn breed_trial(&self, i: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut pick = |taken: &[usize]| loop {
            let j = rng.gen_range(0..self.pop.len());
            if j != i && !taken.contains(&j) {
                return j;
            }
        };
        let a = pick(&[]);
        let b = pick(&[a]);
        let c = pick(&[a, b]);
        let mut trial = self.pop[i].clone();
        let jrand = rng.gen_range(0..trial.len());
        for (d, gene) in trial.iter_mut().enumerate() {
            if rng.gen::<f64>() < CROSSOVER_RATE || d == jrand {
                *gene = self.pop[a][d] + DIFFERENTIAL_WEIGHT * (self.pop[b][d] - self.pop[c][d]);
            }
        }
        clamp_unit(&mut trial);
        trial
    }
}

impl Generation for DeRule {
    fn size(&self) -> usize {
        POPULATION
    }

    fn emit(&mut self, index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        let vp = VectorProblem::new(problem);
        let x =
            if self.pop.is_empty() { vp.random_point(rng) } else { self.breed_trial(index, rng) };
        let mapping = vp.decode(&x);
        self.trials.push(x);
        mapping
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, fits: &[f64]) {
        let trials = std::mem::take(&mut self.trials);
        if self.pop.is_empty() {
            self.pop = trials;
            self.fit = fits.to_vec();
            return;
        }
        for (i, (trial, &f)) in trials.into_iter().zip(fits).enumerate() {
            if f > self.fit[i] {
                self.pop[i] = trial;
                self.fit[i] = f;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use crate::random::RandomSearch;
    use rand::SeedableRng;

    #[test]
    fn improves_over_random_init() {
        let p = ToyProblem { jobs: 16, accels: 4 };
        let o = DifferentialEvolution.search(&p, 1_200, &mut StdRng::seed_from_u64(0));
        let first = o.history.best_curve()[40.min(o.history.num_samples() - 1)];
        assert!(o.best_fitness > first);
    }

    #[test]
    fn respects_budget_and_is_deterministic() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let a = DifferentialEvolution.search(&p, 111, &mut StdRng::seed_from_u64(4));
        let b = DifferentialEvolution.search(&p, 111, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.history.num_samples(), 111);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn not_worse_than_pure_random_on_toy() {
        let p = ToyProblem { jobs: 20, accels: 4 };
        let de = DifferentialEvolution.search(&p, 1_000, &mut StdRng::seed_from_u64(2));
        let rnd = RandomSearch::new().search(&p, 1_000, &mut StdRng::seed_from_u64(2));
        assert!(de.best_fitness >= rnd.best_fitness * 0.9);
    }
}
