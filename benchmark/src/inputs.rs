//! Inputs made from `--seed`: the same seed gives the same job groups,
//! arrival times and search seeds. The measured programs see only these
//! inputs, never the seed itself.

use magma_model::{zoo, Job, JobId, LayerShape, Model, TaskType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Jobs per RPC group: the daemon's shipped dispatch-group target, so one
/// submit fills exactly one group.
pub const RPC_GROUP: usize = 30;

/// An independent generator for `stream` of the run's seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream))
}

/// Draws job groups of random (zoo model, layer, mini-batch) triples.
pub struct GroupSource {
    layers: Vec<(String, TaskType, usize, LayerShape)>,
    rng: StdRng,
}

impl GroupSource {
    /// A source over every accelerator layer of every zoo model.
    pub fn new(rng: StdRng) -> Self {
        let models: Vec<Model> = zoo::models_for_task(TaskType::Mix);
        let layers = models
            .iter()
            .flat_map(|m| {
                m.layers()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.runs_on_accelerator())
                    .map(|(i, l)| (m.name().to_string(), m.task(), i, *l))
            })
            .collect();
        GroupSource { layers, rng }
    }

    /// One group of `jobs` jobs, each an independent draw with a mini-batch
    /// from {1, 2, 4, 8}.
    pub fn group(&mut self, jobs: usize) -> Vec<Job> {
        (0..jobs)
            .map(|k| {
                let (model, task, index, layer) =
                    self.layers[self.rng.gen_range(0..self.layers.len())].clone();
                let batch = 1usize << self.rng.gen_range(0..4u32);
                Job::new(JobId(k), model, index, layer, batch, task)
            })
            .collect()
    }
}

/// Poisson arrival times over `[0, seconds)` at `rate` per second.
pub fn poisson_times(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut times = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return times;
        }
        times.push(t);
    }
}
