//! The M3E façade and the problem interface the optimizers search against.

use crate::analyzer::{JobAnalysisTable, JobAnalyzer};
use crate::encoding::Mapping;
use crate::evaluator::{FitnessEvaluator, Objective};
use crate::schedule::Schedule;
use magma_cost::CostModel;
use magma_model::{Group, JobSignature, TaskType};
use magma_platform::AcceleratorPlatform;

/// Per-(job, core) profile information exposed to knowledge-based mappers.
///
/// The black-box optimizers never look at this; the manual-heuristic mappers
/// (Herald-like, AI-MT-like) mirror the paper's mappers, which consult the
/// job-analysis table directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProfile {
    /// No-stall latency of the job on the core, in seconds.
    pub no_stall_seconds: f64,
    /// Required (no-stall) bandwidth of the job on the core, in GB/s.
    pub required_bw_gbps: f64,
    /// FLOPs of the job (core-independent).
    pub flops: u64,
}

/// The black-box problem interface exposed to the optimization algorithms.
///
/// Every optimizer in `magma-optim` (MAGMA, stdGA, DE, CMA-ES, PSO, TBPSA,
/// the RL agents and the heuristics) only sees this trait: the dimensions of
/// the encoding plus a fitness oracle. Higher fitness is always better.
///
/// The trait requires [`Sync`] so whole populations can be evaluated
/// concurrently from shared references (`magma_optim::parallel` fans a batch
/// of candidate mappings out over a scoped worker pool).
/// [`evaluate`](Self::evaluate) therefore must be a pure function of
/// `(&self, mapping)` — no interior mutability, no evaluation-order
/// dependence — which is also what makes the optimizers reproducible.
pub trait MappingProblem: Sync {
    /// Number of jobs in the group (genome length).
    fn num_jobs(&self) -> usize;

    /// Number of sub-accelerator cores (range of the selection genes).
    fn num_accels(&self) -> usize;

    /// Evaluates a candidate mapping; higher is better.
    fn evaluate(&self, mapping: &Mapping) -> f64;

    /// The task category of the group being mapped, if known. Used by the
    /// warm-start engine to decide whether previous solutions apply.
    fn task_type(&self) -> Option<TaskType> {
        None
    }

    /// Profile of one job on one core, if the problem exposes its analysis
    /// table (the concrete [`M3e`] does). Heuristic mappers fall back to
    /// uninformed choices when this returns `None`.
    fn profile(&self, _job: usize, _accel: usize) -> Option<JobProfile> {
        None
    }

    /// The platform-independent signatures of the jobs being mapped, in job
    /// order, if the problem knows them (the concrete [`M3e`] does). The
    /// warm-start engine uses these for profile-matched adaptation
    /// (Section V-C, Table V); callers without signatures fall back to
    /// index-wrapped adaptation.
    fn signatures(&self) -> Option<&[JobSignature]> {
        None
    }
}

/// The Multi-workload Multi-accelerator Mapping Explorer.
///
/// `M3e` owns the platform description, the group of jobs, the job-analysis
/// table produced by the [`JobAnalyzer`], and the [`FitnessEvaluator`]. It is
/// the concrete [`MappingProblem`] handed to the optimizers.
#[derive(Debug, Clone)]
pub struct M3e {
    platform: AcceleratorPlatform,
    group: Group,
    evaluator: FitnessEvaluator,
    dominant_task: TaskType,
    signatures: Vec<JobSignature>,
}

impl M3e {
    /// Sets up the explorer: runs the Job Analyzer over `group` × `platform`
    /// and prepares the fitness function for `objective`.
    pub fn new(platform: AcceleratorPlatform, group: Group, objective: Objective) -> Self {
        Self::with_cost_model(platform, group, objective, CostModel::default())
    }

    /// As [`M3e::new`] but with custom cost-model constants.
    pub fn with_cost_model(
        platform: AcceleratorPlatform,
        group: Group,
        objective: Objective,
        cost_model: CostModel,
    ) -> Self {
        assert!(!group.is_empty(), "cannot optimize an empty group");
        let table = JobAnalyzer::with_cost_model(cost_model).analyze(&group, &platform);
        let dominant_task = dominant_task(&group);
        let mut signatures = group.signatures();
        // Fold the analysis table's per-core no-stall latencies into the
        // signatures so warm-start matching and the serving cache's near-hit
        // probe see platform affinity, not just layer shape.
        attach_core_classes(&mut signatures, &table);
        let evaluator = FitnessEvaluator::new(table, platform.system_bw_gbps(), objective);
        M3e { platform, group, evaluator, dominant_task, signatures }
    }

    /// The accelerator platform being mapped onto.
    pub fn platform(&self) -> &AcceleratorPlatform {
        &self.platform
    }

    /// The group of jobs being mapped.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The job-analysis table (no-stall latency and required BW per job per
    /// core).
    pub fn table(&self) -> &JobAnalysisTable {
        self.evaluator.table()
    }

    /// The fitness evaluator.
    pub fn evaluator(&self) -> &FitnessEvaluator {
        &self.evaluator
    }

    /// Evaluates a mapping (same as [`MappingProblem::evaluate`]).
    pub fn evaluate(&self, mapping: &Mapping) -> f64 {
        self.evaluator.fitness(mapping)
    }

    /// Returns the full schedule for a mapping (Gantt + BW trace).
    pub fn schedule(&self, mapping: &Mapping) -> Schedule {
        self.evaluator.schedule(mapping)
    }

    /// The task category that dominates the group ([`TaskType::Mix`] when no
    /// single category holds a strict majority).
    pub fn dominant_task(&self) -> TaskType {
        self.dominant_task
    }

    /// The signatures of the group's jobs, in job order (computed once at
    /// construction). Hand these to
    /// [`StoredSolution::adapt_to`](crate::StoredSolution::adapt_to) to
    /// transfer a stored solution onto this problem by job profile.
    pub fn signatures(&self) -> &[JobSignature] {
        &self.signatures
    }
}

impl MappingProblem for M3e {
    fn num_jobs(&self) -> usize {
        self.group.len()
    }

    fn num_accels(&self) -> usize {
        self.platform.num_sub_accels()
    }

    fn evaluate(&self, mapping: &Mapping) -> f64 {
        self.evaluator.fitness(mapping)
    }

    fn task_type(&self) -> Option<TaskType> {
        Some(self.dominant_task)
    }

    fn profile(&self, job: usize, accel: usize) -> Option<JobProfile> {
        use magma_model::JobId;
        if job >= self.num_jobs() || accel >= MappingProblem::num_accels(self) {
            return None;
        }
        let table = self.table();
        Some(JobProfile {
            no_stall_seconds: table.no_stall_seconds(JobId(job), accel),
            required_bw_gbps: table.required_bw_gbps(JobId(job), accel),
            flops: table.flops(JobId(job)),
        })
    }

    fn signatures(&self) -> Option<&[JobSignature]> {
        Some(M3e::signatures(self))
    }
}

/// Attaches a packed per-core latency class (fastest-core affinity plus
/// octave-quantized best-core no-stall latency, see
/// [`JobSignature::encode_core_class`]) to every signature, from the rows of
/// the job-analysis table. `sigs[i]` must profile job `i` of the analyzed
/// group.
///
/// [`M3e`] calls this at construction, always; it is public so tests and
/// custom pipelines can profile signatures they derived themselves.
///
/// # Panics
///
/// Panics if `sigs` is longer than the analyzed group.
pub fn attach_core_classes(sigs: &mut [JobSignature], table: &JobAnalysisTable) {
    use magma_model::JobId;
    for (i, sig) in sigs.iter_mut().enumerate() {
        let latencies: Vec<f64> =
            (0..table.num_accels()).map(|a| table.no_stall_seconds(JobId(i), a)).collect();
        *sig = sig.with_core_class(JobSignature::encode_core_class(&latencies));
    }
}

/// Determines the dominant task category of a group: the category of more
/// than half the jobs, or [`TaskType::Mix`] otherwise.
fn dominant_task(group: &Group) -> TaskType {
    let hist = group.task_histogram();
    let total: usize = hist.iter().sum();
    for (i, &count) in hist.iter().enumerate() {
        if count * 2 > total {
            return TaskType::ALL[i];
        }
    }
    TaskType::Mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_model::{JobId, WorkloadSpec};
    use magma_platform::{settings, Setting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m3e(task: TaskType, n: usize) -> M3e {
        let group = WorkloadSpec::single_group(task, n, 0);
        let platform = settings::build(Setting::S2);
        M3e::new(platform, group, Objective::Throughput)
    }

    #[test]
    fn problem_dimensions() {
        let p = m3e(TaskType::Mix, 30);
        assert_eq!(p.num_jobs(), 30);
        assert_eq!(p.num_accels(), 4);
    }

    #[test]
    fn evaluate_positive_throughput() {
        let p = m3e(TaskType::Vision, 20);
        let mut rng = StdRng::seed_from_u64(0);
        let m = Mapping::random(&mut rng, 20, 4);
        assert!(p.evaluate(&m) > 0.0);
        assert!(MappingProblem::evaluate(&p, &m) > 0.0);
    }

    #[test]
    fn jobs_near_the_64_bit_bound_build_and_still_rank_mappings() {
        // 9.2e18 FLOPs each: either fits `u64` (so `Job::new` accepts it),
        // the pair's sum and the cost model's re-fetched traffic do not. They
        // must saturate — neither panic the thread that builds the problem
        // nor wrap the group's FLOPs to 0, which scores every mapping 0.
        let layer =
            magma_model::LayerShape::FullyConnected { out_features: 1 << 31, in_features: 1 << 31 };
        let job = |i| magma_model::Job::new(JobId(i), "huge", i, layer, 1, TaskType::Language);
        let group = Group::new(vec![job(0), job(1)]);
        assert_eq!(group.total_flops(), u64::MAX);
        let p = M3e::new(settings::build(Setting::S2), group, Objective::Throughput);
        assert_eq!(p.table().total_flops(), u64::MAX);
        let on_hb = p.evaluate(&Mapping::new(vec![0, 0], vec![0.1, 0.2], 4));
        let on_lb = p.evaluate(&Mapping::new(vec![3, 3], vec![0.1, 0.2], 4));
        assert!(on_hb > 0.0 && on_hb.is_finite(), "both on the first HB core: {on_hb}");
        assert!(on_lb > 0.0 && on_lb.is_finite(), "both on the LB core: {on_lb}");
        assert_ne!(on_hb, on_lb, "the two mappings must not score alike");
    }

    #[test]
    fn dominant_task_detection() {
        assert_eq!(m3e(TaskType::Vision, 20).dominant_task(), TaskType::Vision);
        assert_eq!(m3e(TaskType::Language, 20).dominant_task(), TaskType::Language);
        // The Mix workload interleaves all 18 models; no category dominates.
        assert_eq!(m3e(TaskType::Mix, 60).dominant_task(), TaskType::Mix);
        assert_eq!(m3e(TaskType::Mix, 60).task_type(), Some(TaskType::Mix));
    }

    #[test]
    fn schedule_covers_group() {
        let p = m3e(TaskType::Mix, 25);
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mapping::random(&mut rng, 25, 4);
        let s = p.schedule(&m);
        assert_eq!(s.segments().len(), 25);
        assert!((p.evaluate(&m) - s.throughput_gflops()).abs() < 1e-9);
    }

    #[test]
    fn signatures_match_group_jobs() {
        let p = m3e(TaskType::Mix, 20);
        let sigs = p.signatures();
        assert_eq!(sigs.len(), 20);
        // The shape part is the job's own signature; the core class on top
        // comes from the analysis table (see below).
        for (job, sig) in p.group().iter().zip(sigs) {
            assert_eq!(job.signature(), sig.with_core_class(0));
        }
        // The trait exposes the same slice.
        assert_eq!(MappingProblem::signatures(&p), Some(sigs));
    }

    #[test]
    fn signatures_carry_core_classes_under_the_default_profile_knob() {
        // What was the default of the MAGMA_SIGNATURE_PROFILE knob is, since
        // the knob went, the only behaviour: every M3e signature carries a
        // packed core class.
        let p = m3e(TaskType::Mix, 12);
        assert!(p.signatures().iter().all(|s| s.has_core_class()));
    }

    #[test]
    fn attach_core_classes_profiles_every_job() {
        let p = m3e(TaskType::Mix, 15);
        let mut sigs = p.group().signatures();
        attach_core_classes(&mut sigs, p.table());
        assert!(sigs.iter().all(|s| s.has_core_class()));
        // Attaching is idempotent on the shape part: stripping the class
        // recovers the original signature.
        for (orig, profiled) in p.group().signatures().iter().zip(&sigs) {
            assert_eq!(*orig, profiled.with_core_class(0));
        }
        // A/B: profiled distances are at least the shape-only distances
        // (the profile term is additive and non-negative), and exact
        // self-distance stays zero.
        for (i, a) in sigs.iter().enumerate() {
            assert_eq!(a.distance(a), 0.0);
            for (j, b) in sigs.iter().enumerate() {
                let shape = p.group().signatures()[i].distance(&p.group().signatures()[j]);
                assert!(a.distance(b) >= shape, "profile term must be additive");
            }
        }
    }

    #[test]
    fn better_bandwidth_platform_never_hurts() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 30, 3);
        let lo = M3e::new(
            settings::build(Setting::S2).with_system_bw_gbps(1.0),
            group.clone(),
            Objective::Throughput,
        );
        let hi = M3e::new(
            settings::build(Setting::S2).with_system_bw_gbps(16.0),
            group,
            Objective::Throughput,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let m = Mapping::random(&mut rng, 30, 4);
        assert!(hi.evaluate(&m) >= lo.evaluate(&m));
    }
}
