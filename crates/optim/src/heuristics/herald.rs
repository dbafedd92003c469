//! The Herald-like manual mapper.

use crate::optimizer::{Optimizer, SessionState};
use crate::session::OneShot;
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;

/// Herald-like mapper: dataflow-affinity placement with greedy load
/// balancing, tuned (like Herald) for heterogeneous multi-dataflow
/// accelerators running vision-style workloads.
///
/// Placement rule: jobs are considered in descending no-stall-latency order
/// (longest processing time first); each job goes to the core whose
/// *finish time* (current accumulated load + the job's latency on that core)
/// is smallest, which naturally routes each job to a core whose dataflow
/// suits it while keeping the cores balanced. Priorities follow the placement
/// order, so the heavy (often bandwidth-hungry) jobs are front-loaded — the
/// behaviour the paper observes for Herald-like in Fig. 15.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeraldLike;

impl HeraldLike {
    /// Creates the Herald-like mapper.
    pub fn new() -> Self {
        HeraldLike
    }

    /// Builds the single deterministic mapping this heuristic proposes.
    pub(crate) fn build_mapping(&self, problem: &dyn MappingProblem) -> Mapping {
        let n = problem.num_jobs();
        let m = problem.num_accels();

        // Sort jobs by their best-case latency, longest first (LPT).
        let mut order: Vec<usize> = (0..n).collect();
        let best_latency = |j: usize| -> f64 {
            (0..m)
                .filter_map(|a| problem.profile(j, a).map(|p| p.no_stall_seconds))
                .fold(f64::INFINITY, f64::min)
        };
        order.sort_by(|&a, &b| {
            best_latency(b).partial_cmp(&best_latency(a)).unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut accel_sel = vec![0usize; n];
        let mut priority = vec![0.0f64; n];
        let mut load = vec![0.0f64; m];

        for (rank, &job) in order.iter().enumerate() {
            // Place on the core minimizing (load + latency-on-that-core),
            // i.e. affinity-aware earliest-finish-time.
            let mut best_accel = 0;
            let mut best_finish = f64::INFINITY;
            for (a, core_load) in load.iter().enumerate() {
                let lat = problem.profile(job, a).map(|p| p.no_stall_seconds).unwrap_or(1.0);
                let finish = core_load + lat;
                if finish < best_finish {
                    best_finish = finish;
                    best_accel = a;
                }
            }
            let lat = problem.profile(job, best_accel).map(|p| p.no_stall_seconds).unwrap_or(1.0);
            load[best_accel] += lat;
            accel_sel[job] = best_accel;
            // Priority = placement rank: heavy jobs first.
            priority[job] = rank as f64 / n as f64;
        }

        Mapping::new(accel_sel, priority, m)
    }
}

impl Optimizer for HeraldLike {
    fn name(&self) -> &str {
        "Herald-like"
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
    fn produces_valid_mapping_without_profiles() {
        // ToyProblem returns no profiles; the heuristic must still work.
        let p = ToyProblem { jobs: 12, accels: 3 };
        let m = HeraldLike::new().build_mapping(&p);
        assert_eq!(m.num_jobs(), 12);
        assert!(m.accel_sel().iter().all(|&a| a < 3));
        let o = HeraldLike::new().search(&p, 100, &mut StdRng::seed_from_u64(0));
        assert_eq!(o.history.num_samples(), 1);
    }

    #[test]
    fn without_profiles_it_balances_load_evenly() {
        let p = ToyProblem { jobs: 12, accels: 3 };
        let m = HeraldLike::new().build_mapping(&p);
        let loads = m.load_per_accel();
        assert_eq!(loads.iter().sum::<usize>(), 12);
        assert!(loads.iter().all(|&l| l == 4), "loads = {loads:?}");
    }
}
