//! Objectives and the fitness function (Section IV-C).
//!
//! [`FitnessEvaluator::fitness`] is the kernel every search sample runs
//! once: it decodes the two genomes into per-thread scratch (a counting
//! placement by core, then a sort inside each core's segment — see
//! [`crate::encoding`]), replays them through Algorithm 1 (the one event loop
//! of [`crate::BwAllocator`]: two passes over flat arrays per completion event,
//! recording nothing) against a launch-cost table filled at construction, and
//! turns the makespan and energy into the objective. After a thread's first
//! evaluation of a problem it allocates nothing.
//! [`FitnessEvaluator::schedule`] runs the same loop with the recorder that
//! builds the full [`Schedule`].

use crate::analyzer::JobAnalysisTable;
use crate::bw_alloc;
use crate::encoding::Mapping;
use crate::schedule::{self, Schedule};
use magma_model::JobId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The optimization objective. The paper uses throughput; the alternatives
/// are provided because M3E accepts the objective as an input (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Maximize group throughput in GFLOP/s (the paper's metric).
    #[default]
    Throughput,
    /// Minimize the makespan (seconds); fitness is its negation.
    Latency,
    /// Minimize total energy (nJ); fitness is its negation.
    Energy,
    /// Minimize energy × delay; fitness is its negation.
    EnergyDelayProduct,
}

impl Objective {
    /// Extracts the fitness value (higher is always better) from a schedule.
    pub fn fitness_of(&self, schedule: &Schedule) -> f64 {
        self.fitness_from(
            schedule.makespan_sec(),
            schedule.total_energy_nj(),
            schedule.total_flops(),
        )
    }

    /// The fitness of a replay that took `makespan_sec` and `total_energy_nj`
    /// to execute `total_flops` — the single copy of the objective, shared
    /// by the schedule-free kernel and [`Objective::fitness_of`].
    fn fitness_from(&self, makespan_sec: f64, total_energy_nj: f64, total_flops: u64) -> f64 {
        match self {
            Objective::Throughput => schedule::throughput_gflops(total_flops, makespan_sec),
            Objective::Latency => -makespan_sec,
            Objective::Energy => -total_energy_nj,
            Objective::EnergyDelayProduct => -(total_energy_nj * makespan_sec),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The per-(job, core) quantities the bandwidth-allocator replay needs at
/// job launch: the bytes of DRAM traffic the job streams, its no-stall
/// bandwidth requirement, and the energy it charges at completion. Derived
/// from the [`JobAnalysisTable`] — [`CostMemo`] holds exactly these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaunchCost {
    /// Total DRAM traffic of the job on the core, in bytes
    /// (`no-stall latency × required BW` — the `CurJobs` quantity of the
    /// paper's Algorithm 1).
    pub remaining_bytes: f64,
    /// No-stall bandwidth requirement, in GB/s.
    pub required_bw_gbps: f64,
    /// Energy charged when the job completes, in nJ.
    pub energy_nj: f64,
}

impl LaunchCost {
    /// Derives the launch quantities for `job` on `accel` from the table —
    /// the single copy of these expressions, evaluated by both the
    /// [`CostMemo`] fill and the table-free [`crate::BwAllocator::allocate`],
    /// so the two are bit-identical by construction.
    pub(crate) fn derive(table: &JobAnalysisTable, job: JobId, accel: usize) -> Self {
        let lat = table.no_stall_seconds(job, accel);
        let bw = table.required_bw_gbps(job, accel);
        LaunchCost {
            remaining_bytes: lat * bw * 1e9,
            required_bw_gbps: bw,
            energy_nj: table.estimate(job, accel).energy_nj,
        }
    }
}

/// The launch-cost table: `LaunchCost::derive` of every (job, core) pair,
/// computed once when the evaluator is built.
///
/// The bandwidth-allocator replay launches every job of every candidate, and
/// deriving the three quantities from the analysis table costs a division by
/// the core clock, two nested-`Vec` walks and a multiply. The Job Analyzer
/// has already profiled all `jobs × cores` pairs, so the table is filled
/// eagerly and every launch is one flat-array load. (The name dates from
/// when the cells were filled lazily; the repository's benchmark refers to
/// it.)
#[derive(Debug, Clone)]
pub struct CostMemo {
    /// `cells[job * num_accels + accel]`.
    cells: Vec<LaunchCost>,
    num_accels: usize,
}

impl CostMemo {
    /// Derives the launch cost of every (job, core) pair of `table`.
    pub fn new(table: &JobAnalysisTable) -> Self {
        let num_accels = table.num_accels();
        let cells = (0..table.num_jobs())
            .flat_map(|job| {
                (0..num_accels).map(move |accel| LaunchCost::derive(table, JobId(job), accel))
            })
            .collect();
        CostMemo { cells, num_accels }
    }

    /// The launch cost of `job` on `accel`.
    pub(crate) fn launch(&self, job: JobId, accel: usize) -> LaunchCost {
        self.cells[job.0 * self.num_accels + accel]
    }

    /// Whether this table has `table`'s dimensions.
    pub(crate) fn covers(&self, table: &JobAnalysisTable) -> bool {
        self.num_accels == table.num_accels()
            && self.cells.len() == table.num_jobs() * table.num_accels()
    }
}

/// The fitness function of M3E: decodes an encoded mapping, replays it through
/// the bandwidth allocator under the system-BW constraint, and extracts the
/// objective.
#[derive(Debug, Clone)]
pub struct FitnessEvaluator {
    table: JobAnalysisTable,
    system_bw_gbps: f64,
    objective: Objective,
    costs: CostMemo,
    total_flops: u64,
}

impl FitnessEvaluator {
    /// Creates an evaluator from an analysis table, the system-bandwidth
    /// constraint and the objective, filling the launch-cost table.
    ///
    /// # Panics
    ///
    /// Panics if `system_bw_gbps` is not positive.
    pub fn new(table: JobAnalysisTable, system_bw_gbps: f64, objective: Objective) -> Self {
        assert!(system_bw_gbps > 0.0, "system bandwidth must be positive");
        let costs = CostMemo::new(&table);
        let total_flops = table.total_flops();
        FitnessEvaluator { table, system_bw_gbps, objective, costs, total_flops }
    }

    /// The launch-cost table (always `Some`; the `Option` is the signature
    /// the repository's benchmark was written against).
    pub fn memo(&self) -> Option<&CostMemo> {
        Some(&self.costs)
    }

    /// The job-analysis table this evaluator consults.
    pub fn table(&self) -> &JobAnalysisTable {
        &self.table
    }

    /// The system bandwidth constraint in GB/s.
    pub fn system_bw_gbps(&self) -> f64 {
        self.system_bw_gbps
    }

    /// Evaluates a mapping and returns its fitness (higher is better).
    ///
    /// # Panics
    ///
    /// Panics if the mapping's job count or accelerator count do not match
    /// the analysis table.
    pub fn fitness(&self, mapping: &Mapping) -> f64 {
        self.check_dimensions(mapping);
        let (makespan_sec, total_energy_nj) =
            bw_alloc::replay_totals(mapping, self.system_bw_gbps, &self.costs);
        self.objective.fitness_from(makespan_sec, total_energy_nj, self.total_flops)
    }

    /// Evaluates a mapping and returns the full schedule (used for the
    /// schedule visualizations and detailed reports).
    ///
    /// # Panics
    ///
    /// As [`FitnessEvaluator::fitness`].
    pub fn schedule(&self, mapping: &Mapping) -> Schedule {
        self.check_dimensions(mapping);
        bw_alloc::replay_schedule(mapping, self.system_bw_gbps, &self.costs, self.total_flops)
    }

    fn check_dimensions(&self, mapping: &Mapping) {
        assert_eq!(
            mapping.num_jobs(),
            self.table.num_jobs(),
            "mapping covers a different number of jobs than the analysis table"
        );
        assert_eq!(
            mapping.num_accels(),
            self.table.num_accels(),
            "mapping targets a different number of sub-accelerators than the table"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::JobAnalyzer;
    use crate::bw_alloc::BwAllocator;
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, Setting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn evaluator(obj: Objective) -> FitnessEvaluator {
        let group = WorkloadSpec::single_group(TaskType::Mix, 24, 0);
        let platform = settings::build(Setting::S2);
        let table = JobAnalyzer::new().analyze(&group, &platform);
        FitnessEvaluator::new(table, platform.system_bw_gbps(), obj)
    }

    #[test]
    fn throughput_fitness_positive() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(0);
        let m = Mapping::random(&mut rng, 24, 4);
        assert!(ev.fitness(&m) > 0.0);
    }

    #[test]
    fn latency_and_energy_fitness_negative() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = Mapping::random(&mut rng, 24, 4);
        assert!(evaluator(Objective::Latency).fitness(&m) < 0.0);
        assert!(evaluator(Objective::Energy).fitness(&m) < 0.0);
        assert!(evaluator(Objective::EnergyDelayProduct).fitness(&m) < 0.0);
    }

    #[test]
    fn fitness_matches_schedule_throughput() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mapping::random(&mut rng, 24, 4);
        let s = ev.schedule(&m);
        assert!((ev.fitness(&m) - s.throughput_gflops()).abs() < 1e-9);
    }

    #[test]
    fn different_mappings_give_different_fitness() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mapping::random(&mut rng, 24, 4);
        let b = Mapping::random(&mut rng, 24, 4);
        // Not a strict requirement, but with 24 mixed jobs two random mappings
        // almost surely differ in throughput.
        assert_ne!(ev.fitness(&a), ev.fitness(&b));
    }

    #[test]
    #[should_panic(expected = "different number of jobs")]
    fn wrong_job_count_panics() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mapping::random(&mut rng, 10, 4);
        let _ = ev.fitness(&m);
    }

    #[test]
    fn a_vector_holding_nans_decodes_and_evaluates() {
        // A diverging continuous optimizer (DE / PSO / CMA-ES / TBPSA) can
        // emit NaN coordinates. `from_vector` must hand back genomes
        // `Mapping::new` accepts, which a NaN gene is not.
        let jobs = 100;
        let group = WorkloadSpec::single_group(TaskType::Mix, jobs, 0);
        let platform = settings::build(Setting::S2);
        let table = JobAnalyzer::new().analyze(&group, &platform);
        let ev = FitnessEvaluator::new(table, platform.system_bw_gbps(), Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(9);
        let mut v = Mapping::random(&mut rng, jobs, 4).to_vector();
        for x in v.iter_mut().step_by(3) {
            *x = f64::NAN;
        }
        let m = Mapping::from_vector(&v, 4);
        assert_eq!(Mapping::new(m.accel_sel().to_vec(), m.priority().to_vec(), 4), m);
        assert_eq!(m.decode().num_jobs(), jobs);
        assert!(ev.fitness(&m) > 0.0);
    }

    #[test]
    fn eager_table_cell_equals_launch_cost_derive() {
        // Every cell is filled at construction with exactly what the
        // table-free path derives at launch.
        let ev = evaluator(Objective::Throughput);
        let costs = ev.memo().expect("the launch-cost table is always built");
        for job in 0..ev.table().num_jobs() {
            for accel in 0..ev.table().num_accels() {
                let derived = LaunchCost::derive(ev.table(), JobId(job), accel);
                assert_eq!(costs.launch(JobId(job), accel), derived);
            }
        }
    }

    #[test]
    fn memoized_fitness_is_bit_identical_to_fresh() {
        // The kernel (eager table, nothing recorded) against the table-free
        // allocator, which derives every launch cost afresh and records the
        // whole schedule.
        for obj in [
            Objective::Throughput,
            Objective::Latency,
            Objective::Energy,
            Objective::EnergyDelayProduct,
        ] {
            let ev = evaluator(obj);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..16 {
                let m = Mapping::random(&mut rng, 24, 4);
                let fresh =
                    BwAllocator::new().allocate(&m.decode(), ev.table(), ev.system_bw_gbps());
                assert_eq!(
                    ev.fitness(&m).to_bits(),
                    obj.fitness_of(&fresh).to_bits(),
                    "{obj}: table and fresh paths diverged"
                );
            }
        }
    }

    #[test]
    fn launch_cost_derivation_matches_table() {
        let ev = evaluator(Objective::Throughput);
        let t = ev.table();
        for job in 0..4 {
            for accel in 0..t.num_accels() {
                let c = LaunchCost::derive(t, JobId(job), accel);
                assert_eq!(c.required_bw_gbps, t.required_bw_gbps(JobId(job), accel));
                assert_eq!(
                    c.remaining_bytes,
                    t.no_stall_seconds(JobId(job), accel) * c.required_bw_gbps * 1e9
                );
                assert_eq!(c.energy_nj, t.estimate(JobId(job), accel).energy_nj);
            }
        }
    }
}
