//! Jobs (mini-batched layers) and dependency-free groups.

use crate::{LayerShape, TaskType};
use serde::{DeError, Deserialize, Serialize};
use std::fmt;

/// Identifier of a job inside a workload. Stable across the lifetime of the
/// workload and used to index the job-analysis table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub usize);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// A schedulable unit of work: one DNN layer applied to one mini-batch of
/// activations (Section III of the paper).
///
/// Jobs inside a [`Group`] have no dependencies on each other, because they
/// come from different models or from independent mini-batches of batched-job
/// tasks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Job {
    id: JobId,
    model: String,
    layer_index: usize,
    layer: LayerShape,
    batch: usize,
    task: TaskType,
}

/// The serialized shape of a [`Job`], before its invariants are checked.
#[derive(Deserialize)]
struct JobFields {
    id: JobId,
    model: String,
    layer_index: usize,
    layer: LayerShape,
    batch: usize,
    task: TaskType,
}

// A job read off the wire is outside input: it goes through the checks of
// `Job::new`, so a `submit_group` with `"batch": 0`, a dimension of 2^64 − 1 or
// an all-zero layer is a decode error that costs its sender the connection,
// not a panic in the cost model or a replay that never ends, which cost
// every tenant the engine thread.
impl Deserialize for Job {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let JobFields { id, model, layer_index, layer, batch, task } = JobFields::from_value(v)?;
        Job::try_new(id, model, layer_index, layer, batch, task).map_err(DeError::custom)
    }
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, if the layer does not run on the accelerator
    /// (embedding lookups are host-side and never become jobs), if the layer
    /// is so large that its FLOPs or data volume for the mini-batch overflow
    /// `u64`, or if it is so degenerate (zero dimensions) that it moves no
    /// data at all.
    pub fn new(
        id: JobId,
        model: impl Into<String>,
        layer_index: usize,
        layer: LayerShape,
        batch: usize,
        task: TaskType,
    ) -> Self {
        Job::try_new(id, model.into(), layer_index, layer, batch, task)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Job::new`] with the broken invariant as an error: the constructor
    /// for jobs that come from outside, such as off the wire.
    pub fn try_new(
        id: JobId,
        model: String,
        layer_index: usize,
        layer: LayerShape,
        batch: usize,
        task: TaskType,
    ) -> Result<Self, &'static str> {
        if batch == 0 {
            return Err("a job must have a non-empty mini-batch");
        }
        if !layer.runs_on_accelerator() {
            return Err("host-side layers (embedding lookups) cannot become accelerator jobs");
        }
        match layer.checked_totals(batch) {
            None => return Err("a job's FLOPs and data volume must fit 64 bits"),
            // Algorithm 1 divides a job's remaining bytes by its bandwidth
            // share; at zero bytes and zero bandwidth the job never completes.
            Some((_, 0)) => {
                return Err("a job must move data (every tensor of its layer is empty)")
            }
            Some(_) => {}
        }
        Ok(Job { id, model, layer_index, layer, batch, task })
    }

    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Name of the model this layer belongs to.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Index of the layer inside its model.
    pub fn layer_index(&self) -> usize {
        self.layer_index
    }

    /// The layer shape.
    pub fn layer(&self) -> &LayerShape {
        &self.layer
    }

    /// Mini-batch size (number of activations processed together).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The task category of the owning model.
    pub fn task(&self) -> TaskType {
        self.task
    }

    /// MACs for the whole mini-batch.
    pub fn macs(&self) -> u64 {
        self.layer.macs() * self.batch as u64
    }

    /// FLOPs (2 × MACs) for the whole mini-batch.
    pub fn flops(&self) -> u64 {
        self.macs() * 2
    }

    /// Activation elements (input + output) moved for the whole mini-batch.
    pub fn activation_elems(&self) -> u64 {
        (self.layer.input_elems() + self.layer.output_elems()) * self.batch as u64
    }

    /// Weight elements moved for this job (weights are fetched once per job,
    /// independent of the mini-batch size).
    pub fn weight_elems(&self) -> u64 {
        self.layer.weight_elems()
    }

    /// Total DRAM traffic in elements for the whole mini-batch.
    pub fn total_data_elems(&self) -> u64 {
        self.activation_elems() + self.weight_elems()
    }

    /// MACs per data element for the whole job.
    pub fn arithmetic_intensity(&self) -> f64 {
        let d = self.total_data_elems();
        if d == 0 {
            0.0
        } else {
            self.macs() as f64 / d as f64
        }
    }

    /// Re-numbers the job (used when slicing workloads into groups).
    pub fn with_id(mut self, id: JobId) -> Self {
        self.id = id;
        self
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {} L{} b{}]",
            self.id, self.model, self.layer, self.layer_index, self.batch
        )
    }
}

/// A dependency-free group of jobs — the unit the mapper optimizes over.
///
/// The host-side control program chops the pool of queued jobs into groups
/// (Section III). The group size is a hyper-parameter (default 100 in the
/// paper's evaluation, swept in Fig. 17).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Group {
    jobs: Vec<Job>,
}

impl Group {
    /// Creates a group from a list of jobs, renumbering their ids to be the
    /// position inside the group (so encodings can index genes by job id).
    pub fn new(jobs: Vec<Job>) -> Self {
        let jobs = jobs.into_iter().enumerate().map(|(i, j)| j.with_id(JobId(i))).collect();
        Group { jobs }
    }

    /// The jobs in this group, ordered by id.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs in the group.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterator over the jobs.
    pub fn iter(&self) -> std::slice::Iter<'_, Job> {
        self.jobs.iter()
    }

    /// Total FLOPs across the group — the numerator of the throughput
    /// objective. Saturating, as [`Group::total_macs`] is: every job's totals
    /// fit `u64`, a group's sum of them need not.
    pub fn total_flops(&self) -> u64 {
        self.jobs.iter().fold(0, |total, j| total.saturating_add(j.flops()))
    }

    /// Total MACs across the group.
    pub fn total_macs(&self) -> u64 {
        self.jobs.iter().fold(0, |total, j| total.saturating_add(j.macs()))
    }

    /// Count of jobs per task category, in `TaskType::ALL` order (Mix counts
    /// are always zero since jobs carry only pure task tags).
    pub fn task_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for j in &self.jobs {
            let idx = TaskType::ALL.iter().position(|t| *t == j.task()).unwrap();
            h[idx] += 1;
        }
        h
    }
}

impl FromIterator<Job> for Group {
    fn from_iter<I: IntoIterator<Item = Job>>(iter: I) -> Self {
        Group::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Group {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job(id: usize) -> Job {
        Job::new(
            JobId(id),
            "ResNet50",
            3,
            LayerShape::Conv2d { k: 64, c: 64, y: 56, x: 56, r: 3, s: 3, stride: 1 },
            4,
            TaskType::Vision,
        )
    }

    #[test]
    fn job_macs_scale_with_batch() {
        let j = sample_job(0);
        assert_eq!(j.macs(), j.layer().macs() * 4);
        assert_eq!(j.flops(), j.macs() * 2);
    }

    #[test]
    fn weights_do_not_scale_with_batch() {
        let j = sample_job(0);
        assert_eq!(j.weight_elems(), j.layer().weight_elems());
    }

    #[test]
    #[should_panic(expected = "non-empty mini-batch")]
    fn zero_batch_panics() {
        let _ = Job::new(JobId(0), "m", 0, LayerShape::pointwise(1, 1, 1, 1), 0, TaskType::Vision);
    }

    #[test]
    #[should_panic(expected = "host-side layers")]
    fn embedding_job_panics() {
        let _ = Job::new(
            JobId(0),
            "m",
            0,
            LayerShape::EmbeddingLookup { lookups: 4, dim: 4 },
            1,
            TaskType::Recommendation,
        );
    }

    #[test]
    fn deserializing_a_job_enforces_the_constructor_checks() {
        let good = serde_json::to_string(&sample_job(3)).unwrap();
        assert!(good.contains("\"batch\":4"), "{good}");
        let back: Job = serde_json::from_str(&good).expect("a well-formed job decodes");
        assert_eq!(back, sample_job(3));
        assert_eq!(serde_json::to_string(&back).unwrap(), good, "same bytes after a round trip");

        let zero_batch = good.replace("\"batch\":4", "\"batch\":0");
        let error = serde_json::from_str::<Job>(&zero_batch).unwrap_err();
        assert!(error.to_string().contains("non-empty mini-batch"), "{error}");

        let host_side = LayerShape::EmbeddingLookup { lookups: 4, dim: 4 };
        let layer = serde_json::to_string(sample_job(3).layer()).unwrap();
        let embedding = good.replace(&layer, &serde_json::to_string(&host_side).unwrap());
        assert_ne!(embedding, good);
        let error = serde_json::from_str::<Job>(&embedding).unwrap_err();
        assert!(error.to_string().contains("host-side layers"), "{error}");

        let overflowing = good.replace("\"k\":64", "\"k\":18446744073709551615");
        assert_ne!(overflowing, good);
        let error = serde_json::from_str::<Job>(&overflowing).unwrap_err();
        assert!(error.to_string().contains("must fit 64 bits"), "{error}");

        // No output channels is a job that computes nothing but still reads
        // its input; no channels at all is one that moves no data.
        let idle = good.replace("\"k\":64", "\"k\":0");
        assert_eq!(serde_json::from_str::<Job>(&idle).expect("it decodes").flops(), 0);
        let empty = idle.replace("\"c\":64", "\"c\":0");
        let error = serde_json::from_str::<Job>(&empty).unwrap_err();
        assert!(error.to_string().contains("must move data"), "{error}");
    }

    #[test]
    fn group_renumbers_ids() {
        let g = Group::new(vec![sample_job(17), sample_job(42), sample_job(3)]);
        let ids: Vec<usize> = g.iter().map(|j| j.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn group_totals() {
        let g = Group::new(vec![sample_job(0), sample_job(1)]);
        assert_eq!(g.total_macs(), 2 * sample_job(0).macs());
        assert_eq!(g.total_flops(), 2 * g.total_macs());
    }

    #[test]
    fn task_histogram_counts_vision() {
        let g = Group::new(vec![sample_job(0), sample_job(1), sample_job(2)]);
        assert_eq!(g.task_histogram(), [3, 0, 0, 0]);
    }

    #[test]
    fn group_from_iterator() {
        let g: Group = (0..5).map(sample_job).collect();
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn display_mentions_model_and_id() {
        let j = sample_job(7);
        let s = j.to_string();
        assert!(s.contains("ResNet50"));
        assert!(s.contains("J7"));
    }
}
