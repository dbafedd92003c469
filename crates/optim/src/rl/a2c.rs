//! Advantage Actor-Critic (A2C), following the paper's configuration:
//! 3 × 128 MLP policy and critic, discount 0.99, learning rate 7e-4, RMSProp.

use crate::optimizer::{Optimizer, SessionState};
use crate::rl::agent::{ActorCritic, Step};
use crate::rl::nn::GradOptimizer;
use crate::session::{Generation, Generations};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Learning rate of both networks (Table IV: 7e-4, RMSProp).
const LEARNING_RATE: f64 = 7e-4;
/// Entropy-bonus coefficient (encourages exploration).
const ENTROPY_COEF: f64 = 0.01;

/// The A2C mapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct A2c;

impl Optimizer for A2c {
    fn name(&self) -> &str {
        "RL A2C"
    }

    fn open(&self, problem: &dyn MappingProblem, rng: &mut StdRng) -> Box<dyn SessionState> {
        let opt = GradOptimizer::RmsProp { lr: LEARNING_RATE, decay: 0.99 };
        Generations::open(A2cRule {
            agent: ActorCritic::new(problem, opt, rng),
            episode: Vec::new(),
        })
    }
}

/// A2C as a generation rule: it updates after every episode, so a generation
/// is one rollout — one mapping — and closing it is the actor-critic update.
struct A2cRule {
    agent: ActorCritic,
    /// The episode in flight.
    episode: Vec<Step>,
}

impl Generation for A2cRule {
    fn size(&self) -> usize {
        1
    }

    fn emit(&mut self, _index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        let (episode, mapping) = self.agent.rollout(problem, rng);
        self.episode = episode;
        mapping
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, fits: &[f64]) {
        let episode = std::mem::take(&mut self.episode);
        let returns = self.agent.returns(fits[0], episode.len());
        for (step, ret) in episode.iter().zip(returns) {
            let advantage = self.agent.critique(&step.obs, ret);
            let (logits, cache) = self.agent.policy.forward_cached(&step.obs);
            let (pa, pb) = self.agent.heads(&logits);
            let mut grad = ActorCritic::choice_grad(&pa, &pb, step, advantage);
            // Entropy bonus: push probabilities toward uniform.
            for (g, p) in grad.iter_mut().zip(pa.iter().chain(&pb)) {
                *g -= ENTROPY_COEF * (-(p.ln() + 1.0)) * p;
            }
            self.agent.policy.backward(&cache, &grad);
        }
        self.agent.step(episode.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn respects_budget_and_is_deterministic() {
        let p = ToyProblem { jobs: 8, accels: 2 };
        let a = A2c.search(&p, 60, &mut StdRng::seed_from_u64(0));
        let b = A2c.search(&p, 60, &mut StdRng::seed_from_u64(0));
        assert_eq!(a.history.num_samples(), 60);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn learning_improves_mean_episode_reward() {
        let p = ToyProblem { jobs: 10, accels: 2 };
        let o = A2c.search(&p, 600, &mut StdRng::seed_from_u64(3));
        let samples = o.history.samples();
        let early: f64 = samples[..100].iter().sum::<f64>() / 100.0;
        let late: f64 = samples[samples.len() - 100..].iter().sum::<f64>() / 100.0;
        assert!(
            late >= early * 0.98,
            "policy should not get materially worse: early {early:.2}, late {late:.2}"
        );
    }
}
