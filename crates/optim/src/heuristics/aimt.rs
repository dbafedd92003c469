//! The AI-MT-like manual mapper.

use crate::optimizer::{Optimizer, SessionState};
use crate::session::OneShot;
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// AI-MT-like mapper: designed for *homogeneous* multi-array accelerators.
///
/// AI-MT schedules memory blocks as early as possible so compute can overlap
/// with prefetching, and it treats all sub-arrays as interchangeable. The
/// reproduction follows that spirit:
///
/// * cores are assumed identical — jobs are dealt round-robin across them
///   (balanced *counts*, not balanced latency), which is exactly why this
///   mapper collapses on heterogeneous accelerators (Fig. 9);
/// * within a core, jobs are ordered by descending bandwidth intensity so
///   memory-heavy jobs issue their DRAM traffic first (front-loaded BW, the
///   behaviour contrasted with MAGMA in Fig. 15).
#[derive(Debug, Clone, Copy, Default)]
pub struct AiMtLike;

impl AiMtLike {
    /// Creates the AI-MT-like mapper.
    pub fn new() -> Self {
        AiMtLike
    }

    /// Builds the single deterministic mapping this heuristic proposes.
    pub fn build_mapping(&self, problem: &dyn MappingProblem) -> Mapping {
        let n = problem.num_jobs();
        let m = problem.num_accels();

        // Bandwidth intensity of a job, measured on core 0 (the cores are
        // assumed identical by this heuristic).
        let bw_intensity =
            |j: usize| -> f64 { problem.profile(j, 0).map(|p| p.required_bw_gbps).unwrap_or(1.0) };

        // Order jobs by descending BW intensity, then deal them round-robin.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            bw_intensity(b).partial_cmp(&bw_intensity(a)).unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut accel_sel = vec![0usize; n];
        let mut priority = vec![0.0f64; n];
        for (rank, &job) in order.iter().enumerate() {
            accel_sel[job] = rank % m;
            // Memory-intensive jobs first on every core.
            priority[job] = rank as f64 / n as f64;
        }
        Mapping::new(accel_sel, priority, m)
    }
}

impl Optimizer for AiMtLike {
    fn name(&self) -> &str {
        "AI-MT-like"
    }

    fn open(&self, problem: &dyn MappingProblem, _rng: &mut StdRng) -> Box<dyn SessionState> {
        // The heuristic proposes a single deterministic mapping: its session
        // spends one sample on the first step and reports exhaustion after.
        OneShot::open(self.build_mapping(problem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::ToyProblem;
    use rand::SeedableRng;

    #[test]
    fn round_robin_balances_job_counts() {
        let p = ToyProblem { jobs: 20, accels: 4 };
        let m = AiMtLike::new().build_mapping(&p);
        let loads = m.load_per_accel();
        assert!(loads.iter().all(|&l| l == 5), "loads = {loads:?}");
    }

    #[test]
    fn one_shot_search() {
        let p = ToyProblem { jobs: 10, accels: 2 };
        let o = AiMtLike::new().search(&p, 10_000, &mut StdRng::seed_from_u64(0));
        assert_eq!(o.history.num_samples(), 1);
        assert!(o.best_fitness > 0.0);
    }
}
