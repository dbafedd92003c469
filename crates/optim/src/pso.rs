//! Particle Swarm Optimization — the "PSO" baseline of Table IV.
//!
//! The paper configures PSO with weights 0.8 for both the global-best and
//! particle-best attraction terms. The inertia (momentum) is kept below 1 so
//! the swarm contracts; the paper's listed ω = 1.6 would diverge on a bounded
//! space, so we use the conventional 0.6 and document the deviation here.
//! The swarm is updated *synchronously* (all particles move against the
//! previous iteration's global best), so each iteration evaluates as one
//! parallel batch.

use crate::optimizer::{Optimizer, SessionState};
use crate::session::{Generation, Generations};
use crate::vector::{clamp_unit, VectorProblem};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;
use rand::Rng;

/// Number of particles.
const SWARM: usize = 40;
/// Inertia weight ω (Table IV lists 1.6; see the module docs).
const INERTIA: f64 = 0.6;
/// Attraction toward the particle's own best (c1, Table IV: 0.8).
const COGNITIVE: f64 = 0.8;
/// Attraction toward the global best (c2, Table IV: 0.8).
const SOCIAL: f64 = 0.8;
/// Maximum absolute velocity per dimension.
const MAX_VELOCITY: f64 = 0.25;

/// The particle-swarm optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pso;

impl Pso {
    /// Creates PSO with the default hyper-parameters.
    pub fn new() -> Self {
        Pso
    }
}

impl Optimizer for Pso {
    fn name(&self) -> &str {
        "PSO"
    }

    fn open(&self, _problem: &dyn MappingProblem, _rng: &mut StdRng) -> Box<dyn SessionState> {
        Generations::open(Swarm { gbest_fit: f64::NEG_INFINITY, ..Swarm::default() })
    }
}

/// The synchronous swarm as a generation rule: an iteration samples (the
/// first) or moves (every later) each particle once; the personal and global
/// bests are folded in when the iteration closes, so every particle moves
/// against the *previous* iteration's bests.
#[derive(Default)]
struct Swarm {
    pos: Vec<Vec<f64>>,
    vel: Vec<Vec<f64>>,
    /// Personal bests (empty until the first iteration is evaluated).
    pbest: Vec<Vec<f64>>,
    pbest_fit: Vec<f64>,
    gbest: Vec<f64>,
    gbest_fit: f64,
}

impl Swarm {
    fn move_particle(&mut self, i: usize, rng: &mut StdRng) {
        for d in 0..self.gbest.len() {
            let r1 = rng.gen::<f64>();
            let r2 = rng.gen::<f64>();
            let v = INERTIA * self.vel[i][d]
                + COGNITIVE * r1 * (self.pbest[i][d] - self.pos[i][d])
                + SOCIAL * r2 * (self.gbest[d] - self.pos[i][d]);
            self.vel[i][d] = v.clamp(-MAX_VELOCITY, MAX_VELOCITY);
            self.pos[i][d] += self.vel[i][d];
        }
        clamp_unit(&mut self.pos[i]);
    }
}

impl Generation for Swarm {
    fn size(&self) -> usize {
        SWARM
    }

    fn emit(&mut self, index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        let vp = VectorProblem::new(problem);
        if self.pbest.is_empty() {
            self.pos.push(vp.random_point(rng));
            self.vel
                .push((0..vp.dims()).map(|_| rng.gen_range(-MAX_VELOCITY..MAX_VELOCITY)).collect());
        } else {
            self.move_particle(index, rng);
        }
        vp.decode(&self.pos[index])
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, fits: &[f64]) {
        if self.pbest.is_empty() {
            // A particle's first position is its best so far.
            self.pbest = self.pos.clone();
            self.pbest_fit = fits.to_vec();
        }
        for (i, &f) in fits.iter().enumerate() {
            if f > self.pbest_fit[i] {
                self.pbest_fit[i] = f;
                self.pbest[i] = self.pos[i].clone();
            }
            if f > self.gbest_fit {
                self.gbest_fit = f;
                self.gbest = self.pos[i].clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn swarm_improves_on_initialization() {
        let p = ToyProblem { jobs: 16, accels: 4 };
        let o = Pso::new().search(&p, 1_200, &mut StdRng::seed_from_u64(0));
        let init_best = o.history.best_curve()[39];
        assert!(o.best_fitness >= init_best);
    }

    #[test]
    fn respects_budget_and_is_deterministic() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let a = Pso::new().search(&p, 250, &mut StdRng::seed_from_u64(9));
        let b = Pso::new().search(&p, 250, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.history.num_samples(), 250);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn works_with_tiny_budget() {
        let p = ToyProblem { jobs: 6, accels: 2 };
        let o = Pso::new().search(&p, 3, &mut StdRng::seed_from_u64(2));
        assert_eq!(o.history.num_samples(), 3);
    }
}
