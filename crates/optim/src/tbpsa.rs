//! Test-Based Population-Size Adaptation (TBPSA) — a noise-robust evolution
//! strategy from the nevergrad family, used as a baseline in Table IV.
//!
//! TBPSA is a (μ/μ, λ) evolution strategy that *grows* its population when
//! progress stalls (the "test-based" adaptation): averaging over a larger
//! population filters noise and flat regions at the cost of slower iterations.
//! The paper starts it at a population of 50 and lets it evolve.

use crate::optimizer::{Optimizer, SessionState};
use crate::session::{Generation, Generations};
use crate::vector::{better_half, centre_point, gaussian_point, VectorProblem};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Initial population size (Table IV: 50).
const INITIAL_POPULATION: usize = 50;
/// Maximum population size the adaptation may grow to.
const MAX_POPULATION: usize = 400;
/// Growth factor applied when a generation fails to improve the best.
const GROWTH_FACTOR: f64 = 1.3;
/// Initial step size, shared by every dimension.
const INITIAL_SIGMA: f64 = 0.3;
/// Multiplicative step-size decay per non-improving generation.
const SIGMA_DECAY: f64 = 0.95;

/// The TBPSA optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tbpsa;

impl Optimizer for Tbpsa {
    fn name(&self) -> &str {
        "TBPSA"
    }

    fn open(&self, problem: &dyn MappingProblem, rng: &mut StdRng) -> Box<dyn SessionState> {
        Generations::open(TbpsaRule {
            lambda: INITIAL_POPULATION,
            sigma: INITIAL_SIGMA,
            mean: centre_point(VectorProblem::new(problem).dims(), rng),
            best_so_far: f64::NEG_INFINITY,
            xs: Vec::new(),
        })
    }
}

/// TBPSA as a generation rule: λ individuals sampled from the `(mean, sigma)`
/// the previous generation left; a closed generation moves the mean to its
/// elite half and, if it did not improve the best, grows λ for the next one.
struct TbpsaRule {
    lambda: usize,
    sigma: f64,
    mean: Vec<f64>,
    best_so_far: f64,
    /// The generation in flight.
    xs: Vec<Vec<f64>>,
}

impl Generation for TbpsaRule {
    fn size(&self) -> usize {
        self.lambda
    }

    fn emit(&mut self, _index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        let x = gaussian_point(&self.mean, |_| self.sigma, rng);
        let mapping = VectorProblem::new(problem).decode(&x);
        self.xs.push(x);
        mapping
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, fits: &[f64]) {
        let elites = better_half(std::mem::take(&mut self.xs), fits);
        for (d, mean) in self.mean.iter_mut().enumerate() {
            *mean = elites.iter().map(|(x, _)| x[d]).sum::<f64>() / elites.len() as f64;
        }

        let gen_best = elites[0].1;
        if gen_best > self.best_so_far {
            self.best_so_far = gen_best;
        } else {
            // Test failed: widen the population to average out noise and
            // shrink the step size.
            self.lambda = ((self.lambda as f64 * GROWTH_FACTOR) as usize).min(MAX_POPULATION);
            self.sigma *= SIGMA_DECAY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn improves_over_initial_generation() {
        let p = ToyProblem { jobs: 16, accels: 4 };
        let o = Tbpsa.search(&p, 1_500, &mut StdRng::seed_from_u64(0));
        let init = o.history.best_curve()[49];
        assert!(o.best_fitness >= init);
    }

    #[test]
    fn respects_budget_and_is_deterministic() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let a = Tbpsa.search(&p, 333, &mut StdRng::seed_from_u64(5));
        let b = Tbpsa.search(&p, 333, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.history.num_samples(), 333);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn small_budget_does_not_panic() {
        let p = ToyProblem { jobs: 5, accels: 2 };
        let o = Tbpsa.search(&p, 7, &mut StdRng::seed_from_u64(1));
        assert_eq!(o.history.num_samples(), 7);
    }
}
