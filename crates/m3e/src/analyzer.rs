//! The Job Analyzer and the Job Analysis Table (Section IV-D2/D4).
//!
//! Before the search starts, every job in the group is profiled on every
//! sub-accelerator with the analytical cost model. The resulting table of
//! (no-stall latency, required bandwidth) pairs is the only thing the
//! optimization loop consults — the cost model is never queried inside the
//! loop, exactly as in the paper.

use magma_cost::{best_flexible_shape, CostEstimate, CostModel};
use magma_model::{Group, JobId};
use magma_platform::AcceleratorPlatform;

/// The Job Analyzer: profiles a group of jobs against a platform.
#[derive(Debug, Clone, Default)]
pub struct JobAnalyzer {
    cost_model: CostModel,
}

impl JobAnalyzer {
    /// Creates an analyzer with the default cost-model constants.
    pub fn new() -> Self {
        JobAnalyzer { cost_model: CostModel::default() }
    }

    /// Creates an analyzer with a custom cost model.
    pub(crate) fn with_cost_model(cost_model: CostModel) -> Self {
        JobAnalyzer { cost_model }
    }

    /// Profiles every job of `group` on every sub-accelerator of `platform`,
    /// producing the Job Analysis Table.
    ///
    /// Cores whose PE-array shape is flexible are profiled with the best
    /// per-layer factorization (Section VI-F).
    pub fn analyze(&self, group: &Group, platform: &AcceleratorPlatform) -> JobAnalysisTable {
        let mut entries = Vec::with_capacity(group.len());
        for job in group.iter() {
            let mut per_accel = Vec::with_capacity(platform.num_sub_accels());
            for accel in platform.sub_accels() {
                let est = if accel.flexible_shape() {
                    best_flexible_shape(&self.cost_model, job.layer(), job.batch(), accel).estimate
                } else {
                    self.cost_model.estimate(job.layer(), job.batch(), accel)
                };
                per_accel.push(est);
            }
            entries.push(per_accel);
        }
        let flops = group.iter().map(|j| j.flops()).collect();
        let freqs = platform.sub_accels().iter().map(|a| a.frequency_hz()).collect();
        JobAnalysisTable { entries, flops, frequencies_hz: freqs }
    }
}

/// The Job Analysis Table: per (job, sub-accelerator) cost estimates plus the
/// per-job FLOPs the evaluator needs and the per-core clock frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct JobAnalysisTable {
    /// `entries[job][accel]`.
    entries: Vec<Vec<CostEstimate>>,
    flops: Vec<u64>,
    frequencies_hz: Vec<f64>,
}

impl JobAnalysisTable {
    /// Number of jobs in the table.
    pub fn num_jobs(&self) -> usize {
        self.entries.len()
    }

    /// Number of sub-accelerators in the table.
    pub(crate) fn num_accels(&self) -> usize {
        self.frequencies_hz.len()
    }

    /// The cost estimate for running `job` on `accel`.
    pub(crate) fn estimate(&self, job: JobId, accel: usize) -> &CostEstimate {
        &self.entries[job.0][accel]
    }

    /// No-stall latency in *seconds* for `job` on `accel` (cycles divided by
    /// that core's clock).
    pub(crate) fn no_stall_seconds(&self, job: JobId, accel: usize) -> f64 {
        self.entries[job.0][accel].no_stall_cycles as f64 / self.frequencies_hz[accel]
    }

    /// Required (no-stall) bandwidth in GB/s for `job` on `accel`.
    pub(crate) fn required_bw_gbps(&self, job: JobId, accel: usize) -> f64 {
        self.entries[job.0][accel].required_bw_gbps
    }

    /// FLOPs of `job` (independent of where it runs).
    pub(crate) fn flops(&self, job: JobId) -> u64 {
        self.flops[job.0]
    }

    /// Total FLOPs across all jobs — the numerator of the throughput
    /// objective. Saturating: each job's FLOPs fit `u64`, a group of them
    /// near the bound need not, and a wrapped total (0 for two jobs of 2^63)
    /// would score every mapping alike.
    pub(crate) fn total_flops(&self) -> u64 {
        self.flops.iter().fold(0, |total, &flops| total.saturating_add(flops))
    }

    /// Average no-stall latency (cycles) across all jobs and cores —
    /// the per-job statistic plotted in Fig. 7(b) and Fig. 13(a).
    pub fn avg_no_stall_cycles(&self) -> f64 {
        let total: u64 =
            self.entries.iter().flat_map(|row| row.iter().map(|e| e.no_stall_cycles)).sum();
        total as f64 / (self.num_jobs() * self.num_accels()) as f64
    }

    /// Average required bandwidth (GB/s) across all jobs and cores —
    /// the statistic plotted in Fig. 7(c) and Fig. 13(b).
    pub fn avg_required_bw_gbps(&self) -> f64 {
        let total: f64 =
            self.entries.iter().flat_map(|row| row.iter().map(|e| e.required_bw_gbps)).sum();
        total / (self.num_jobs() * self.num_accels()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, Setting};

    fn table(task: TaskType, n: usize, setting: Setting) -> JobAnalysisTable {
        let group = WorkloadSpec::single_group(task, n, 0);
        let platform = settings::build(setting);
        JobAnalyzer::new().analyze(&group, &platform)
    }

    #[test]
    fn dimensions_match_group_and_platform() {
        let t = table(TaskType::Mix, 24, Setting::S2);
        assert_eq!(t.num_jobs(), 24);
        assert_eq!(t.num_accels(), 4);
        assert!(t.total_flops() > 0);
    }

    #[test]
    fn latencies_and_bw_are_positive() {
        let t = table(TaskType::Mix, 16, Setting::S4);
        for j in 0..t.num_jobs() {
            for a in 0..t.num_accels() {
                assert!(t.no_stall_seconds(JobId(j), a) > 0.0);
                assert!(t.required_bw_gbps(JobId(j), a) > 0.0);
            }
        }
    }

    #[test]
    fn vision_has_lower_bw_need_than_recommendation() {
        // Fig. 7: Vision has the lowest BW requirement, Recommendation the
        // highest.
        let v = table(TaskType::Vision, 40, Setting::S1).avg_required_bw_gbps();
        let r = table(TaskType::Recommendation, 40, Setting::S1).avg_required_bw_gbps();
        assert!(r > v, "recom {r} should exceed vision {v}");
    }

    #[test]
    fn vision_has_higher_latency_than_recommendation() {
        let v = table(TaskType::Vision, 40, Setting::S1).avg_no_stall_cycles();
        let r = table(TaskType::Recommendation, 40, Setting::S1).avg_no_stall_cycles();
        assert!(v > r, "vision {v} should exceed recom {r}");
    }

    #[test]
    fn heterogeneous_platform_gives_different_estimates_per_core() {
        let t = table(TaskType::Language, 10, Setting::S2);
        // At least one job must see different latencies on HB vs LB cores.
        let any_diff = (0..t.num_jobs()).any(|j| {
            let first = t.estimate(JobId(j), 0).no_stall_cycles;
            (1..t.num_accels()).any(|a| t.estimate(JobId(j), a).no_stall_cycles != first)
        });
        assert!(any_diff);
    }

    #[test]
    fn flexible_platform_is_not_slower() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 20, 1);
        let fixed = settings::build(Setting::S1);
        let flex = settings::build_flexible(Setting::S1, 16.0);
        let analyzer = JobAnalyzer::new();
        let tf = analyzer.analyze(&group, &fixed);
        let tx = analyzer.analyze(&group, &flex);
        // Flexible shapes never *increase* latency on the same PE budget with
        // the bigger flexible buffers.
        assert!(tx.avg_no_stall_cycles() <= tf.avg_no_stall_cycles() * 1.05);
    }
}
