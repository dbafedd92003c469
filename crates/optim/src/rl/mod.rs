//! Reinforcement-learning mappers: A2C and PPO2 (Table IV).
//!
//! The paper uses stable-baselines-style agents with policy and critic
//! networks of three 128-unit MLP layers. This module reimplements that
//! stack from scratch:
//!
//! * [`nn`] — a tiny dense neural-network library with manual
//!   backpropagation and Adam / RMSProp optimizers,
//! * [`mod@env`] — the mapping-construction episode: the agent assigns jobs to
//!   cores (and priority buckets) one at a time and receives the achieved
//!   group throughput as the terminal reward,
//! * `agent` — the one actor-critic pair: 3 × 128 policy and critic, the
//!   episode rollout and the discounted return (γ = 0.99),
//! * [`a2c`] — Advantage Actor-Critic's update (RMSProp, lr 7e-4, entropy
//!   bonus 0.01), after every episode,
//! * [`ppo`] — Proximal Policy Optimization's update (Adam, lr 2.5e-4,
//!   clip 0.2, 4 epochs), after every 8 episodes.
//!
//! Every environment step consumes exactly one fitness evaluation per
//! completed episode, so the RL agents respect the same sampling budget as
//! the other optimizers. PPO2 freezes its policy while collecting a batch
//! of rollouts, so the episodes' terminal evaluations go through the
//! parallel batch oracle ([`crate::parallel`]) as one batch; A2C updates
//! after every episode and therefore evaluates one-element batches.

pub mod a2c;
mod agent;
pub mod env;
pub mod nn;
pub mod ppo;

pub use a2c::A2c;
pub use ppo::Ppo2;

#[cfg(test)]
mod tests {
    use crate::optimizer::test_support::ToyProblem;
    use crate::optimizer::Optimizer;
    use crate::random::RandomSearch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a2c_and_ppo_run_within_budget_and_learn_something() {
        let p = ToyProblem { jobs: 12, accels: 3 };
        for opt in [&super::A2c as &dyn Optimizer, &super::Ppo2] {
            let o = opt.search(&p, 400, &mut StdRng::seed_from_u64(0));
            assert_eq!(o.history.num_samples(), 400, "{}", opt.name());
            // Sanity: not worse than a handful of random samples.
            let rnd = RandomSearch::new().search(&p, 20, &mut StdRng::seed_from_u64(0));
            assert!(o.best_fitness >= rnd.best_fitness * 0.8, "{}", opt.name());
        }
    }
}
