//! The actor-critic pair both agents train: Table IV's 3 × 128 MLP policy and
//! critic, the episode rollout that samples a mapping from the policy, and the
//! discounted return of its terminal reward. A2C and PPO2 differ only in the
//! update they apply to it.

use crate::rl::env::{
    observation, observation_dim, EpisodeActions, RewardNormalizer, PRIORITY_BUCKETS,
};
use crate::rl::nn::{policy_grad_logits, sample_categorical, softmax, GradOptimizer, Mlp};
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Hidden layer width (Table IV: 128, three layers).
const HIDDEN: usize = 128;
/// Discount factor γ (Table IV: 0.99).
const GAMMA: f64 = 0.99;

/// One step of a rolled-out episode: what the agent saw, what it chose, and
/// the joint log-probability of the choice under the policy that made it.
pub(crate) struct Step {
    pub(crate) obs: Vec<f64>,
    pub(crate) accel: usize,
    pub(crate) bucket: usize,
    pub(crate) logp: f64,
}

/// Policy, critic, their optimizer and the reward normalizer.
pub(crate) struct ActorCritic {
    pub(crate) policy: Mlp,
    critic: Mlp,
    opt: GradOptimizer,
    normalizer: RewardNormalizer,
    num_accels: usize,
}

impl ActorCritic {
    pub(crate) fn new(problem: &dyn MappingProblem, opt: GradOptimizer, rng: &mut StdRng) -> Self {
        let num_accels = problem.num_accels();
        let obs_dim = observation_dim(problem);
        let h = HIDDEN;
        ActorCritic {
            policy: Mlp::new(&[obs_dim, h, h, h, num_accels + PRIORITY_BUCKETS], rng),
            critic: Mlp::new(&[obs_dim, h, h, h, 1], rng),
            opt,
            normalizer: RewardNormalizer::new(),
            num_accels,
        }
    }

    /// Splits the policy's logits into its two distributions: over the cores
    /// and over the priority buckets.
    pub(crate) fn heads(&self, logits: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (softmax(&logits[..self.num_accels]), softmax(&logits[self.num_accels..]))
    }

    /// Joint log-probability of a `(core, bucket)` choice.
    pub(crate) fn log_prob(pa: &[f64], pb: &[f64], accel: usize, bucket: usize) -> f64 {
        pa[accel].max(1e-12).ln() + pb[bucket].max(1e-12).ln()
    }

    /// Rolls out one episode under the current policy: one step per job, one
    /// mapping — one sample of the budget — at the end.
    pub(crate) fn rollout(
        &self,
        problem: &dyn MappingProblem,
        rng: &mut StdRng,
    ) -> (Vec<Step>, Mapping) {
        let n = problem.num_jobs();
        let mut loads = vec![0.0f64; self.num_accels];
        let mut steps: Vec<Step> = Vec::with_capacity(n);
        for job in 0..n {
            let obs = observation(problem, job, &loads);
            let (pa, pb) = self.heads(&self.policy.forward(&obs));
            let accel = sample_categorical(&pa, rng);
            let bucket = sample_categorical(&pb, rng);
            let logp = Self::log_prob(&pa, &pb, accel, bucket);
            loads[accel] += problem.profile(job, accel).map(|p| p.no_stall_seconds).unwrap_or(1.0);
            steps.push(Step { obs, accel, bucket, logp });
        }
        let mapping = EpisodeActions {
            accels: steps.iter().map(|s| s.accel).collect(),
            buckets: steps.iter().map(|s| s.bucket).collect(),
        }
        .into_mapping(self.num_accels);
        (steps, mapping)
    }

    /// The return of every step of a `steps`-long episode that ended in
    /// `fitness`: the normalized terminal reward, discounted back from the
    /// last step.
    pub(crate) fn returns(&mut self, fitness: f64, steps: usize) -> impl Iterator<Item = f64> {
        let reward = self.normalizer.normalize(fitness);
        (0..steps).map(move |step| reward * GAMMA.powi((steps - 1 - step) as i32))
    }

    /// Accumulates the critic's squared-error gradient toward `ret` at `obs`
    /// and returns the advantage `ret − V(obs)`.
    pub(crate) fn critique(&mut self, obs: &[f64], ret: f64) -> f64 {
        let (value, cache) = self.critic.forward_cached(obs);
        self.critic.backward(&cache, &[2.0 * (value[0] - ret)]);
        ret - value[0]
    }

    /// Gradient, with respect to the policy's logits, of
    /// `−scale · log p(step's choice)` under the distributions `(pa, pb)`.
    pub(crate) fn choice_grad(pa: &[f64], pb: &[f64], step: &Step, scale: f64) -> Vec<f64> {
        let mut grad = policy_grad_logits(pa, step.accel, scale);
        grad.extend(policy_grad_logits(pb, step.bucket, scale));
        grad
    }

    /// One optimizer step of both networks over `batch` accumulated
    /// transitions.
    pub(crate) fn step(&mut self, batch: usize) {
        self.policy.step(self.opt, batch);
        self.critic.step(self.opt, batch);
    }
}
