//! Continuous-vector view of the mapping problem.
//!
//! DE, CMA-ES, PSO and TBPSA are continuous black-box optimizers; they search
//! the hyper-cube `[0, 1]^(2n)` and decode candidate vectors through
//! [`Mapping::from_vector`]. This module centralizes that adapter so every
//! vector optimizer decodes candidates identically.

use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

/// Adapter exposing a [`MappingProblem`] as a bounded continuous function.
pub(crate) struct VectorProblem<'a> {
    problem: &'a dyn MappingProblem,
}

impl<'a> VectorProblem<'a> {
    /// Wraps a mapping problem.
    pub(crate) fn new(problem: &'a dyn MappingProblem) -> Self {
        VectorProblem { problem }
    }

    /// Dimensionality of the continuous search space (2 × number of jobs).
    pub(crate) fn dims(&self) -> usize {
        2 * self.problem.num_jobs()
    }

    /// Decodes a vector into a mapping (values are clamped into `[0, 1]`).
    pub(crate) fn decode(&self, x: &[f64]) -> Mapping {
        Mapping::from_vector(x, self.problem.num_accels())
    }

    /// Samples a uniformly random point in the unit hyper-cube.
    pub(crate) fn random_point(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.dims()).map(|_| rng.gen_range(0.0..1.0)).collect()
    }
}

/// Clamps every coordinate into the unit interval.
pub(crate) fn clamp_unit(x: &mut [f64]) {
    for v in x {
        *v = v.clamp(0.0, 1.0);
    }
}

/// Where the evolution strategies (CMA-ES, TBPSA) start their mean: near
/// the centre of the hyper-cube.
pub(crate) fn centre_point(dims: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..dims).map(|_| rng.gen_range(0.3..0.7)).collect()
}

/// One individual of an evolution strategy: `mean + sigma(d) · N(0, 1)` per
/// dimension, clamped into the hyper-cube.
pub(crate) fn gaussian_point(
    mean: &[f64],
    sigma: impl Fn(usize) -> f64,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut x: Vec<f64> =
        mean.iter().enumerate().map(|(d, m)| m + sigma(d) * StandardNormal.sample(rng)).collect();
    clamp_unit(&mut x);
    x
}

/// The elite group of an evolution strategy's generation: its better half
/// (Table IV: "the best 1/2 of individuals"), best first, ties in sampling
/// order.
pub(crate) fn better_half(xs: Vec<Vec<f64>>, fits: &[f64]) -> Vec<(Vec<f64>, f64)> {
    let mut samples: Vec<(Vec<f64>, f64)> = xs.into_iter().zip(fits.iter().copied()).collect();
    samples.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    samples.truncate((samples.len() / 2).max(1));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn dims_and_decode() {
        let p = ToyProblem { jobs: 7, accels: 3 };
        let vp = VectorProblem::new(&p);
        assert_eq!(vp.dims(), 14);
        let mut rng = StdRng::seed_from_u64(0);
        let x = vp.random_point(&mut rng);
        let m = vp.decode(&x);
        assert_eq!(m.num_jobs(), 7);
        assert!(m.accel_sel().iter().all(|&a| a < 3));
    }

    #[test]
    fn clamp_unit_bounds_values() {
        let mut x = vec![-0.5, 0.3, 1.7];
        clamp_unit(&mut x);
        assert_eq!(x, vec![0.0, 0.3, 1.0]);
    }
}
