//! Deterministic multi-tenant workload generation.
//!
//! A workload mimics the batched-job tasks of an inference data center: many
//! independent mini-batches of layers from several co-resident models. The
//! host chops the job pool into dependency-free [`Group`]s that the mapper
//! schedules one at a time.

use crate::{zoo, Group, Job, JobId, Model, TaskType};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Default mini-batch size used when slicing batched activations into jobs.
pub const DEFAULT_MINI_BATCH: usize = 4;

/// Specification of a synthetic multi-tenant workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    task: TaskType,
    num_jobs: usize,
    mini_batch: usize,
    seed: u64,
}

impl WorkloadSpec {
    /// Creates a workload of `num_jobs` jobs drawn from the models of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `num_jobs == 0`.
    pub fn new(task: TaskType, num_jobs: usize) -> Self {
        assert!(num_jobs > 0, "a workload must contain at least one job");
        WorkloadSpec { task, num_jobs, mini_batch: DEFAULT_MINI_BATCH, seed: 0 }
    }

    /// Sets the RNG seed used to interleave models (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The task category of this workload.
    pub fn task(&self) -> TaskType {
        self.task
    }

    /// Generates the job pool.
    ///
    /// Jobs are produced by round-robining over the task's models with a
    /// seeded shuffle of the model order, walking each model's accelerator
    /// layers in order and wrapping around until `num_jobs` jobs exist. This
    /// mirrors how hundreds of queued inference requests from co-resident
    /// models interleave.
    pub fn build_jobs(&self) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut models = zoo::models_for_task(self.task);
        models.shuffle(&mut rng);
        build_jobs_from_models(&models, self.num_jobs, self.mini_batch)
    }

    /// Generates the job pool and chops it into dependency-free groups of
    /// `group_size` jobs (the last group may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn build_groups(&self, group_size: usize) -> Vec<Group> {
        assert!(group_size > 0, "group size must be non-zero");
        let jobs = self.build_jobs();
        jobs.chunks(group_size).map(|c| Group::new(c.to_vec())).collect()
    }

    /// Convenience: builds a single group containing exactly `group_size`
    /// jobs (the workload is sized to match).
    pub fn single_group(task: TaskType, group_size: usize, seed: u64) -> Group {
        WorkloadSpec::new(task, group_size)
            .with_seed(seed)
            .build_groups(group_size)
            .into_iter()
            .next()
            .expect("group_size > 0 always yields one group")
    }
}

/// Builds `num_jobs` jobs by interleaving the accelerator layers of the given
/// models, each as a mini-batch of `mini_batch` samples.
///
/// Exposed for callers that want to control the exact model list (e.g. the
/// warm-start experiments, which need several *different* groups of the same
/// task type).
pub(crate) fn build_jobs_from_models(
    models: &[Model],
    num_jobs: usize,
    mini_batch: usize,
) -> Vec<Job> {
    assert!(!models.is_empty(), "need at least one model to build jobs");
    assert!(mini_batch > 0);
    // Per-model cursor over its accelerator layers.
    let layer_lists: Vec<Vec<(usize, crate::LayerShape)>> = models
        .iter()
        .map(|m| {
            m.layers()
                .iter()
                .enumerate()
                .filter(|(_, l)| l.runs_on_accelerator())
                .map(|(i, l)| (i, *l))
                .collect()
        })
        .collect();
    let mut cursors = vec![0usize; models.len()];
    let mut jobs = Vec::with_capacity(num_jobs);
    let mut mi = 0usize;
    while jobs.len() < num_jobs {
        let m = mi % models.len();
        let layers = &layer_lists[m];
        if !layers.is_empty() {
            let (layer_index, layer) = layers[cursors[m] % layers.len()];
            cursors[m] += 1;
            jobs.push(Job::new(
                JobId(jobs.len()),
                models[m].name(),
                layer_index,
                layer,
                mini_batch,
                models[m].task(),
            ));
        }
        mi += 1;
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_requested_number_of_jobs() {
        let spec = WorkloadSpec::new(TaskType::Vision, 250).with_seed(1);
        assert_eq!(spec.build_jobs().len(), 250);
    }

    #[test]
    fn groups_cover_all_jobs() {
        let spec = WorkloadSpec::new(TaskType::Language, 230).with_seed(3);
        let groups = spec.build_groups(100);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 230);
        assert_eq!(groups[2].len(), 30);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = WorkloadSpec::new(TaskType::Mix, 100).with_seed(9).build_jobs();
        let b = WorkloadSpec::new(TaskType::Mix, 100).with_seed(9).build_jobs();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::new(TaskType::Mix, 100).with_seed(1).build_jobs();
        let b = WorkloadSpec::new(TaskType::Mix, 100).with_seed(2).build_jobs();
        assert_ne!(a, b);
    }

    #[test]
    fn mix_workload_contains_all_three_tasks() {
        let jobs = WorkloadSpec::new(TaskType::Mix, 200).with_seed(0).build_jobs();
        for t in TaskType::PURE {
            assert!(jobs.iter().any(|j| j.task() == t), "missing {t}");
        }
    }

    #[test]
    fn pure_workload_contains_only_its_task() {
        let jobs = WorkloadSpec::new(TaskType::Recommendation, 120).with_seed(0).build_jobs();
        assert!(jobs.iter().all(|j| j.task() == TaskType::Recommendation));
    }

    #[test]
    fn single_group_has_exact_size() {
        let g = WorkloadSpec::single_group(TaskType::Mix, 60, 5);
        assert_eq!(g.len(), 60);
    }

    #[test]
    fn mini_batch_is_propagated() {
        let spec = WorkloadSpec::new(TaskType::Vision, 10);
        assert!(spec.build_jobs().iter().all(|j| j.batch() == DEFAULT_MINI_BATCH));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_panics() {
        let _ = WorkloadSpec::new(TaskType::Vision, 0);
    }

    #[test]
    fn no_embedding_jobs_are_generated() {
        let jobs = WorkloadSpec::new(TaskType::Recommendation, 300).with_seed(0).build_jobs();
        assert!(jobs.iter().all(|j| j.layer().runs_on_accelerator()));
    }

    proptest! {
        #[test]
        fn group_ids_are_contiguous(n in 1usize..300, gs in 1usize..120, seed in 0u64..50) {
            let groups = WorkloadSpec::new(TaskType::Mix, n).with_seed(seed).build_groups(gs);
            for g in groups {
                for (i, j) in g.iter().enumerate() {
                    prop_assert_eq!(j.id().0, i);
                }
            }
        }

        #[test]
        fn workload_size_always_honored(n in 1usize..500, seed in 0u64..20) {
            let jobs = WorkloadSpec::new(TaskType::Vision, n).with_seed(seed).build_jobs();
            prop_assert_eq!(jobs.len(), n);
        }
    }
}
