//! (Separable) Covariance Matrix Adaptation Evolution Strategy — the "CMA"
//! baseline of Table IV.
//!
//! A full CMA-ES maintains a dense `d × d` covariance matrix; with
//! `d = 2 × group size = 200` dimensions and a 10 K sample budget the
//! separable (diagonal) variant is the standard choice and is what we
//! implement: a per-dimension variance adapted from the elite half of every
//! generation (the paper's configuration: the best 1/2 of individuals form
//! the elite group).

use crate::optimizer::{Optimizer, SessionState};
use crate::session::{Generation, Generations};
use crate::vector::{better_half, centre_point, gaussian_point, VectorProblem};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Offspring per generation (λ).
const POPULATION: usize = 40;
/// Initial per-dimension step size σ.
const INITIAL_SIGMA: f64 = 0.3;
/// Learning rate of the per-dimension variance update.
const VARIANCE_LEARNING_RATE: f64 = 0.3;

/// The separable CMA-ES optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CmaEs;

impl CmaEs {
    /// Creates CMA-ES with the default hyper-parameters.
    pub fn new() -> Self {
        CmaEs
    }
}

impl Optimizer for CmaEs {
    fn name(&self) -> &str {
        "CMA"
    }

    fn open(&self, problem: &dyn MappingProblem, rng: &mut StdRng) -> Box<dyn SessionState> {
        let dims = VectorProblem::new(problem).dims();
        Generations::open(CmaRule {
            mean: centre_point(dims, rng),
            sigma: vec![INITIAL_SIGMA; dims],
            xs: Vec::new(),
        })
    }
}

/// Separable CMA-ES as a generation rule: λ individuals sampled from the
/// `(mean, sigma)` the previous generation left, which a closed generation's
/// elite half then moves.
struct CmaRule {
    mean: Vec<f64>,
    sigma: Vec<f64>,
    /// The generation in flight.
    xs: Vec<Vec<f64>>,
}

impl Generation for CmaRule {
    fn size(&self) -> usize {
        POPULATION
    }

    fn emit(&mut self, _index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        let x = gaussian_point(&self.mean, |d| self.sigma[d], rng);
        let mapping = VectorProblem::new(problem).decode(&x);
        self.xs.push(x);
        mapping
    }

    /// The rank-weighted mean / per-dimension variance update.
    fn close(&mut self, _candidates: &mut Vec<Mapping>, fits: &[f64]) {
        let dims = self.mean.len();
        let elites = better_half(std::mem::take(&mut self.xs), fits);

        // Weighted (rank-linear) mean of the elites.
        let weights: Vec<f64> = (0..elites.len()).map(|r| (elites.len() - r) as f64).collect();
        let wsum: f64 = weights.iter().sum();
        let mut new_mean = vec![0.0; dims];
        for (w, (x, _)) in weights.iter().zip(&elites) {
            for d in 0..dims {
                new_mean[d] += w * x[d] / wsum;
            }
        }

        // Per-dimension variance from the elites around the *old* mean
        // (rank-mu style update), blended with the previous sigma.
        let lr = VARIANCE_LEARNING_RATE;
        for d in 0..dims {
            let var: f64 = elites.iter().map(|(x, _)| (x[d] - self.mean[d]).powi(2)).sum::<f64>()
                / elites.len() as f64;
            let new_sigma = var.sqrt().max(1e-4);
            self.sigma[d] = (1.0 - lr) * self.sigma[d] + lr * new_sigma;
        }
        self.mean = new_mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn converges_toward_better_solutions() {
        let p = ToyProblem { jobs: 16, accels: 4 };
        let o = CmaEs::new().search(&p, 1_200, &mut StdRng::seed_from_u64(0));
        let early = o.history.best_curve()[39];
        assert!(o.best_fitness >= early);
        assert!(o.best_fitness > 16.0); // better than the random-guess mean
    }

    #[test]
    fn respects_budget_and_is_deterministic() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let a = CmaEs::new().search(&p, 123, &mut StdRng::seed_from_u64(3));
        let b = CmaEs::new().search(&p, 123, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.history.num_samples(), 123);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn sigma_shrinks_as_population_concentrates() {
        // Indirect check: on a smooth problem a long run must end with the
        // best-so-far curve flat near its maximum (converged), which only
        // happens if the sampling distribution contracted.
        let p = ToyProblem { jobs: 10, accels: 2 };
        let o = CmaEs::new().search(&p, 2_000, &mut StdRng::seed_from_u64(1));
        let curve = o.history.best_curve();
        let last_quarter = &curve[curve.len() * 3 / 4..];
        let improvement = last_quarter.last().unwrap() - last_quarter.first().unwrap();
        assert!(improvement <= 1.0, "still improving fast at the end: {improvement}");
    }
}
