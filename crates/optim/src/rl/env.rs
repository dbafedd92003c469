//! The mapping-construction episode the RL agents interact with.
//!
//! An episode walks over the jobs of the group in index order; at every step
//! the agent picks (i) the sub-accelerator for the current job and (ii) a
//! priority bucket. When all jobs are placed the encoded mapping is evaluated
//! by M3E and the achieved fitness becomes the terminal reward (intermediate
//! rewards are zero). One episode therefore costs exactly one sample of the
//! optimization budget.

use magma_m3e::{Mapping, MappingProblem};

/// Number of discrete priority buckets the agents choose from.
pub(crate) const PRIORITY_BUCKETS: usize = 10;

/// Builds the observation vector for the job at `step`, given the
/// per-accelerator load accumulated so far (in seconds of no-stall latency).
///
/// Features: progress fraction, log-scaled job FLOPs, then per core the
/// normalized no-stall latency, the normalized required bandwidth and the
/// normalized accumulated load. All features lie in `[0, 1]`.
pub(crate) fn observation(problem: &dyn MappingProblem, step: usize, loads: &[f64]) -> Vec<f64> {
    let m = problem.num_accels();
    let n = problem.num_jobs();
    let mut obs = Vec::with_capacity(2 + 3 * m);
    obs.push(step as f64 / n as f64);

    let flops = problem.profile(step, 0).map(|p| p.flops as f64).unwrap_or(1.0);
    obs.push(((flops.max(1.0)).log10() / 12.0).clamp(0.0, 1.0));

    let lats: Vec<f64> = (0..m)
        .map(|a| problem.profile(step, a).map(|p| p.no_stall_seconds).unwrap_or(1.0))
        .collect();
    let bws: Vec<f64> = (0..m)
        .map(|a| problem.profile(step, a).map(|p| p.required_bw_gbps).unwrap_or(1.0))
        .collect();
    let max_lat = lats.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let max_bw = bws.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let max_load = loads.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    for a in 0..m {
        obs.push(lats[a] / max_lat);
        obs.push(bws[a] / max_bw);
        obs.push(loads[a] / max_load.max(f64::MIN_POSITIVE));
    }
    obs
}

/// Dimensionality of the observation vector for a problem.
pub(crate) fn observation_dim(problem: &dyn MappingProblem) -> usize {
    2 + 3 * problem.num_accels()
}

/// The actions taken during one episode, turned into an encoded mapping.
#[derive(Debug, Clone)]
pub(crate) struct EpisodeActions {
    /// Chosen core per job, in job order.
    pub accels: Vec<usize>,
    /// Chosen priority bucket per job, in job order.
    pub buckets: Vec<usize>,
}

impl EpisodeActions {
    /// Converts the collected actions into an encoded mapping. Priorities are
    /// placed at the bucket centre and perturbed by the job index so ties
    /// resolve deterministically.
    pub(crate) fn into_mapping(self, num_accels: usize) -> Mapping {
        let n = self.accels.len();
        let priority: Vec<f64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                ((b as f64 + 0.5) / PRIORITY_BUCKETS as f64 + (i as f64 / n as f64) * 1e-3).min(1.0)
            })
            .collect();
        Mapping::new(self.accels, priority, num_accels)
    }
}

/// Running mean/variance used to normalize the terminal rewards so the
/// policy-gradient scale is stable across problems of very different
/// throughput magnitudes.
#[derive(Debug, Clone, Default)]
pub(crate) struct RewardNormalizer {
    count: f64,
    mean: f64,
    m2: f64,
}

impl RewardNormalizer {
    /// Creates an empty normalizer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a raw reward and returns its normalized value (zero mean, unit
    /// variance under the running statistics).
    pub(crate) fn normalize(&mut self, reward: f64) -> f64 {
        self.count += 1.0;
        let delta = reward - self.mean;
        self.mean += delta / self.count;
        self.m2 += delta * (reward - self.mean);
        let std = if self.count > 1.0 { (self.m2 / (self.count - 1.0)).sqrt() } else { 1.0 };
        (reward - self.mean) / std.max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;

    #[test]
    fn observation_shape_and_bounds() {
        let p = ToyProblem { jobs: 10, accels: 3 };
        let loads = vec![0.0, 1.0, 2.0];
        let obs = observation(&p, 4, &loads);
        assert_eq!(obs.len(), observation_dim(&p));
        assert!(obs.iter().all(|v| (0.0..=1.0).contains(v)), "{obs:?}");
    }

    #[test]
    fn episode_actions_decode_to_valid_mapping() {
        let actions = EpisodeActions { accels: vec![0, 1, 2, 1], buckets: vec![0, 9, 5, 5] };
        let m = actions.into_mapping(3);
        assert_eq!(m.num_jobs(), 4);
        assert!(m.priority().iter().all(|p| (0.0..=1.0).contains(p)));
        // Bucket 0 decodes to a higher priority (smaller value) than bucket 9.
        assert!(m.priority()[0] < m.priority()[1]);
    }

    #[test]
    fn reward_normalizer_centres_rewards() {
        let mut n = RewardNormalizer::new();
        let vals: Vec<f64> = (0..50).map(|i| n.normalize(100.0 + i as f64)).collect();
        // After warm-up the normalized values hover around zero.
        let tail_mean: f64 = vals[25..].iter().sum::<f64>() / 25.0;
        assert!(tail_mean.abs() < 2.0);
    }
}
