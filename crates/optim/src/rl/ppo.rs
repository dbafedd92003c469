//! Proximal Policy Optimization (PPO2), following the paper's configuration:
//! 3 × 128 MLP policy and critic, discount 0.99, clip range 0.2, learning
//! rate 2.5e-4, Adam.

use crate::optimizer::{Optimizer, SessionState};
use crate::rl::agent::{ActorCritic, Step};
use crate::rl::nn::GradOptimizer;
use crate::session::{Generation, Generations};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Clipping range ε (Table IV: 0.2).
const CLIP_RANGE: f64 = 0.2;
/// Learning rate (Table IV: 2.5e-4, Adam).
const LEARNING_RATE: f64 = 2.5e-4;
/// Episodes collected per policy update.
const EPISODES_PER_BATCH: usize = 8;
/// Optimization epochs per batch.
const EPOCHS: usize = 4;

/// The PPO2 mapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ppo2;

impl Ppo2 {
    /// Creates PPO2 with the paper's hyper-parameters.
    pub fn new() -> Self {
        Ppo2
    }
}

impl Optimizer for Ppo2 {
    fn name(&self) -> &str {
        "RL PPO2"
    }

    fn open(&self, problem: &dyn MappingProblem, rng: &mut StdRng) -> Box<dyn SessionState> {
        let opt = GradOptimizer::Adam { lr: LEARNING_RATE, beta1: 0.9, beta2: 0.999 };
        Generations::open(Ppo2Rule {
            agent: ActorCritic::new(problem, opt, rng),
            batch: Vec::new(),
        })
    }
}

/// PPO2 as a generation rule: the policy is frozen while a batch of rollouts
/// is collected — a generation of eight episodes, evaluated through the batch
/// oracle — and closing it is the clipped update.
struct Ppo2Rule {
    agent: ActorCritic,
    /// The episodes of the batch in flight.
    batch: Vec<Vec<Step>>,
}

impl Generation for Ppo2Rule {
    fn size(&self) -> usize {
        EPISODES_PER_BATCH
    }

    fn emit(&mut self, _index: usize, problem: &dyn MappingProblem, rng: &mut StdRng) -> Mapping {
        let (episode, mapping) = self.agent.rollout(problem, rng);
        self.batch.push(episode);
        mapping
    }

    fn close(&mut self, _candidates: &mut Vec<Mapping>, fits: &[f64]) {
        let mut buffer: Vec<(Step, f64)> = Vec::new();
        for (episode, &fitness) in self.batch.drain(..).zip(fits) {
            let returns = self.agent.returns(fitness, episode.len());
            buffer.extend(episode.into_iter().zip(returns));
        }
        for _ in 0..EPOCHS {
            for (step, ret) in &buffer {
                let advantage = self.agent.critique(&step.obs, *ret);
                let (logits, cache) = self.agent.policy.forward_cached(&step.obs);
                let (pa, pb) = self.agent.heads(&logits);
                let new_logp = ActorCritic::log_prob(&pa, &pb, step.accel, step.bucket);
                let ratio = (new_logp - step.logp).exp();
                // The clipped-surrogate gradient is zero when the ratio is
                // outside the trust region on the side the advantage
                // pushes toward.
                let active = if advantage >= 0.0 {
                    ratio <= 1.0 + CLIP_RANGE
                } else {
                    ratio >= 1.0 - CLIP_RANGE
                };
                if active {
                    let grad = ActorCritic::choice_grad(&pa, &pb, step, ratio * advantage);
                    self.agent.policy.backward(&cache, &grad);
                }
            }
            self.agent.step(buffer.len());
        }
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
        let a = Ppo2::new().search(&p, 48, &mut StdRng::seed_from_u64(0));
        let b = Ppo2::new().search(&p, 48, &mut StdRng::seed_from_u64(0));
        assert_eq!(a.history.num_samples(), 48);
        assert_eq!(a.best_fitness, b.best_fitness);
    }

    #[test]
    fn partial_final_batch_is_handled() {
        let p = ToyProblem { jobs: 6, accels: 2 };
        // 13 is not a multiple of the default batch size (8).
        let o = Ppo2::new().search(&p, 13, &mut StdRng::seed_from_u64(1));
        assert_eq!(o.history.num_samples(), 13);
    }

    #[test]
    fn learning_does_not_collapse() {
        let p = ToyProblem { jobs: 10, accels: 2 };
        let o = Ppo2::new().search(&p, 400, &mut StdRng::seed_from_u64(2));
        let samples = o.history.samples();
        let early: f64 = samples[..80].iter().sum::<f64>() / 80.0;
        let late: f64 = samples[samples.len() - 80..].iter().sum::<f64>() / 80.0;
        assert!(late >= early * 0.95, "early {early:.2}, late {late:.2}");
    }
}
