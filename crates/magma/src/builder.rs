//! The high-level, one-call API for running a mapping search.

use magma_m3e::{M3e, Mapping, Objective, Schedule, SearchHistory};
use magma_model::{TaskType, WorkloadSpec};
use magma_optim::{
    cmaes::CmaEs, de::DifferentialEvolution, pso::Pso, rl::a2c::A2c, rl::ppo::Ppo2, stdga::StdGa,
    tbpsa::Tbpsa, AiMtLike, HeraldLike, Magma, Optimizer, RandomSearch,
};
use magma_platform::{settings, AcceleratorPlatform, Setting};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which mapping algorithm to run (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Algorithm {
    /// MAGMA — the paper's genetic algorithm (default).
    #[default]
    Magma,
    /// Standard genetic algorithm.
    StdGa,
    /// Differential evolution.
    De,
    /// Covariance matrix adaptation evolution strategy.
    CmaEs,
    /// Particle swarm optimization.
    Pso,
    /// Test-based population-size adaptation.
    Tbpsa,
    /// Advantage actor-critic.
    A2c,
    /// Proximal policy optimization.
    Ppo2,
    /// Uniform random search.
    Random,
    /// Herald-like manual heuristic.
    HeraldLike,
    /// AI-MT-like manual heuristic.
    AiMtLike,
}

impl Algorithm {
    /// All algorithms, in the order the paper's figures list them; the
    /// random-search reference of Fig. 10 comes last.
    pub const ALL: [Algorithm; 11] = [
        Algorithm::HeraldLike,
        Algorithm::AiMtLike,
        Algorithm::Pso,
        Algorithm::CmaEs,
        Algorithm::De,
        Algorithm::Tbpsa,
        Algorithm::StdGa,
        Algorithm::A2c,
        Algorithm::Ppo2,
        Algorithm::Magma,
        Algorithm::Random,
    ];

    /// The ten mappers the paper compares (Table IV) — the roster of Figs. 8,
    /// 9 and 11: [`Algorithm::ALL`] without the random-search reference.
    pub const TABLE_IV: &[Algorithm] = Self::ALL.split_at(10).0;

    /// Instantiates the optimizer behind this algorithm tag — the one place
    /// the Table IV constructors are written.
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            Algorithm::Magma => Box::new(Magma::default()),
            Algorithm::StdGa => Box::new(StdGa),
            Algorithm::De => Box::new(DifferentialEvolution),
            Algorithm::CmaEs => Box::new(CmaEs),
            Algorithm::Pso => Box::new(Pso),
            Algorithm::Tbpsa => Box::new(Tbpsa),
            Algorithm::A2c => Box::new(A2c),
            Algorithm::Ppo2 => Box::new(Ppo2),
            Algorithm::Random => Box::new(RandomSearch::new()),
            Algorithm::HeraldLike => Box::new(HeraldLike::new()),
            Algorithm::AiMtLike => Box::new(AiMtLike::new()),
        }
    }
}

/// The result of a mapping run.
#[derive(Debug, Clone)]
pub struct MappingReport {
    /// Name of the algorithm that produced the mapping.
    pub algorithm: String,
    /// The best mapping found.
    pub best_mapping: Mapping,
    /// Achieved fitness (GFLOP/s for the throughput objective).
    pub best_fitness: f64,
    /// Group throughput of the best mapping in GFLOP/s.
    pub throughput_gflops: f64,
    /// Makespan of the best mapping in seconds.
    pub makespan_sec: f64,
    /// The full schedule of the best mapping.
    pub schedule: Schedule,
    /// Per-sample search history.
    pub history: SearchHistory,
}

/// Builder for a complete mapping run: workload → platform → search → report.
///
/// Every knob has a sensible default mirroring the paper's evaluation setup
/// (S2, Mix task, group size 100, throughput objective, 10 K samples).
#[derive(Debug, Clone)]
pub struct MapperBuilder {
    setting: Setting,
    platform: Option<AcceleratorPlatform>,
    system_bw_gbps: Option<f64>,
    pub(crate) task: TaskType,
    pub(crate) group_size: usize,
    objective: Objective,
    algorithm: Algorithm,
    budget: usize,
    pub(crate) seed: u64,
    initial_population: Option<Vec<Mapping>>,
}

impl Default for MapperBuilder {
    fn default() -> Self {
        MapperBuilder {
            setting: Setting::S2,
            platform: None,
            system_bw_gbps: None,
            task: TaskType::Mix,
            group_size: 100,
            objective: Objective::Throughput,
            algorithm: Algorithm::Magma,
            budget: 10_000,
            seed: 0,
            initial_population: None,
        }
    }
}

impl MapperBuilder {
    /// Creates a builder with the paper's default evaluation setup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects one of the Table III accelerator settings (default S2).
    pub fn setting(mut self, setting: Setting) -> Self {
        self.setting = setting;
        self
    }

    /// Uses an explicit platform instead of a Table III setting.
    pub fn platform(mut self, platform: AcceleratorPlatform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Overrides the system bandwidth in GB/s.
    pub fn system_bw_gbps(mut self, bw: f64) -> Self {
        self.system_bw_gbps = Some(bw);
        self
    }

    /// Selects the task category of the generated workload (default Mix).
    pub fn task(mut self, task: TaskType) -> Self {
        self.task = task;
        self
    }

    /// Sets the group size (default 100, as in the paper).
    pub fn group_size(mut self, size: usize) -> Self {
        self.group_size = size;
        self
    }

    /// Sets the optimization objective (default throughput).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Selects the mapping algorithm (default MAGMA).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the sampling budget (default 10 000, as in the paper).
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the RNG seed controlling both workload generation and the search.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seeds the search with an initial population instead of random
    /// initialization — the builder-level entry to the warm start of
    /// Section V-C ([`Magma::with_warm_start`], typically over a
    /// `StoredSolution::seed_population`). Honored by [`Algorithm::Magma`]
    /// only; other algorithms ignore the seeds.
    pub(crate) fn initial_population(mut self, population: Vec<Mapping>) -> Self {
        self.initial_population = Some(population);
        self
    }

    /// Builds the problem (platform + group + analysis table) without running
    /// a search — useful when several algorithms should share one problem
    /// instance.
    pub fn build_problem(&self) -> M3e {
        let mut platform = self.platform.clone().unwrap_or_else(|| settings::build(self.setting));
        if let Some(bw) = self.system_bw_gbps {
            platform = platform.with_system_bw_gbps(bw);
        }
        let group = WorkloadSpec::single_group(self.task, self.group_size, self.seed);
        M3e::new(platform, group, self.objective)
    }

    /// Runs the configured algorithm and returns the report.
    pub fn run(&self) -> MappingReport {
        let problem = self.build_problem();
        self.run_on(&problem)
    }

    /// Runs the configured algorithm on an already-built problem.
    ///
    /// The run is driven through the steppable session API: since the
    /// redesign, [`Optimizer::search`] is a provided method that opens one
    /// [`magma_optim::SearchSession`] via [`Optimizer::start`] and steps it
    /// to the budget — so this is exactly the loop a serving layer would
    /// run, without duplicating it here.
    pub fn run_on(&self, problem: &M3e) -> MappingReport {
        let optimizer: Box<dyn Optimizer> = match (&self.initial_population, self.algorithm) {
            (Some(pop), Algorithm::Magma) => Box::new(Magma::with_warm_start(pop.clone())),
            _ => self.algorithm.build(),
        };
        self.run_with(optimizer.as_ref(), problem)
    }

    /// Runs `optimizer` — one no [`Algorithm`] tag names, such as a MAGMA
    /// with a reduced operator set — on `problem` under this builder's
    /// budget and seed.
    pub(crate) fn run_with(&self, optimizer: &dyn Optimizer, problem: &M3e) -> MappingReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let outcome = optimizer.search(problem, self.budget, &mut rng);
        let schedule = problem.schedule(&outcome.best_mapping);
        MappingReport {
            algorithm: optimizer.name().to_string(),
            best_mapping: outcome.best_mapping,
            best_fitness: outcome.best_fitness,
            throughput_gflops: schedule.throughput_gflops(),
            makespan_sec: schedule.makespan_sec(),
            schedule,
            history: outcome.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_produces_valid_report() {
        let report = MapperBuilder::new().group_size(16).budget(200).seed(1).run();
        assert_eq!(report.algorithm, "MAGMA");
        assert!(report.throughput_gflops > 0.0);
        assert!(report.makespan_sec > 0.0);
        assert_eq!(report.schedule.segments().len(), 16);
        assert_eq!(report.history.num_samples(), 200);
    }

    #[test]
    fn all_algorithms_build() {
        for a in Algorithm::ALL {
            let _ = a.build();
        }
    }

    #[test]
    fn shared_problem_across_algorithms() {
        let builder = MapperBuilder::new().group_size(12).budget(60).seed(3);
        let problem = builder.build_problem();
        let magma = builder.clone().algorithm(Algorithm::Magma).run_on(&problem);
        let herald = builder.algorithm(Algorithm::HeraldLike).run_on(&problem);
        assert!(magma.throughput_gflops > 0.0);
        assert!(herald.throughput_gflops > 0.0);
    }

    #[test]
    fn initial_population_seeds_the_magma_search() {
        let builder = MapperBuilder::new().group_size(10).budget(20).seed(4);
        let problem = builder.build_problem();
        // Refine from the problem's own best-of-200 mapping: with only 20
        // samples the seeded run must start from (and so never fall below)
        // that fitness, while an unseeded 20-sample run has no such floor.
        let strong = builder.clone().budget(200).run_on(&problem);
        let seeded =
            builder.clone().initial_population(vec![strong.best_mapping.clone()]).run_on(&problem);
        assert!(seeded.best_fitness >= strong.best_fitness);
        assert_eq!(seeded.history.num_samples(), 20);
    }

    #[test]
    fn bw_override_is_applied() {
        let low = MapperBuilder::new().group_size(12).budget(80).system_bw_gbps(1.0).seed(2).run();
        let high =
            MapperBuilder::new().group_size(12).budget(80).system_bw_gbps(16.0).seed(2).run();
        assert!(high.throughput_gflops >= low.throughput_gflops);
    }
}
