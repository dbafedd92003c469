//! MAGMA — the Multi-Accelerator Genetic Mapping Algorithm (Section V).
//!
//! MAGMA is a genetic algorithm whose operators are designed around the
//! structure of the mapping encoding:
//!
//! * **Mutation** — the standard operator: randomly re-draw a fraction of the
//!   genes (rate 0.05).
//! * **Crossover-gen** — genome-wise single-pivot crossover: pick *one* of
//!   the two genomes (sub-accelerator selection or job priority) and exchange
//!   genes after a random pivot, leaving the other genome untouched (rate
//!   0.9, the main operator).
//! * **Crossover-rg** — range crossover: pick a gene range and exchange it in
//!   *both* genomes simultaneously, preserving the cross-genome dependency of
//!   the affected jobs (rate 0.05).
//! * **Crossover-accel** — accelerator crossover: copy one parent's complete
//!   job set (selection + priorities) for one sub-accelerator into the child,
//!   randomly re-assigning the child's jobs that previously occupied that
//!   core to preserve load balance (rate 0.05).
//!
//! The population size defaults to the group size (as in the paper), elites
//! survive unchanged, and the whole search respects a fixed sampling budget.
//! The four operators are this module's `Breed` rule; ranking, elitism and
//! parent selection are the engine stdGA shares (`ga.rs`).

use crate::ga::{mutate, Breed, ElitistGa};
use crate::optimizer::{Optimizer, SessionState};
use crate::session::Generations;
use magma_m3e::{Mapping, MappingProblem};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which genetic operators are enabled — the knob behind the operator
/// ablation study (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorSet {
    /// Enable the standard mutation operator.
    pub mutation: bool,
    /// Enable the genome-wise crossover (Crossover-gen).
    pub crossover_gen: bool,
    /// Enable the range crossover (Crossover-rg).
    pub crossover_rg: bool,
    /// Enable the accelerator crossover (Crossover-accel).
    pub crossover_accel: bool,
}

impl OperatorSet {
    /// All four operators (full MAGMA).
    pub fn all() -> Self {
        OperatorSet {
            mutation: true,
            crossover_gen: true,
            crossover_rg: true,
            crossover_accel: true,
        }
    }

    /// Mutation only (the weakest ablation level of Fig. 16).
    pub fn mutation_only() -> Self {
        OperatorSet {
            mutation: true,
            crossover_gen: false,
            crossover_rg: false,
            crossover_accel: false,
        }
    }

    /// Mutation + Crossover-gen (the middle ablation level of Fig. 16).
    pub fn mutation_and_gen() -> Self {
        OperatorSet {
            mutation: true,
            crossover_gen: true,
            crossover_rg: false,
            crossover_accel: false,
        }
    }

    /// A short label for result tables.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.mutation {
            parts.push("Mut");
        }
        if self.crossover_gen {
            parts.push("Crs-gen");
        }
        if self.crossover_rg {
            parts.push("Crs-rg");
        }
        if self.crossover_accel {
            parts.push("Crs-accel");
        }
        parts.join("+")
    }
}

impl Default for OperatorSet {
    fn default() -> Self {
        Self::all()
    }
}

/// MAGMA hyper-parameters. The defaults are the paper's values (Section V-B2,
/// tuned via Bayesian optimization in the original work and shipped here as
/// constants).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MagmaConfig {
    /// Population size; `None` means "equal to the group size" (the paper's
    /// choice), clamped to at least 16.
    pub population_size: Option<usize>,
    /// Fraction of the population carried over unchanged as elites.
    pub elite_ratio: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Probability of applying Crossover-gen to a child.
    pub crossover_gen_rate: f64,
    /// Probability of applying Crossover-rg to a child.
    pub crossover_rg_rate: f64,
    /// Probability of applying Crossover-accel to a child.
    pub crossover_accel_rate: f64,
    /// Which operators are enabled (ablation knob).
    pub operators: OperatorSet,
    /// Optional warm-start population (Section V-C). When set, these
    /// individuals replace random initialization.
    pub initial_population: Option<Vec<Mapping>>,
}

impl Default for MagmaConfig {
    fn default() -> Self {
        MagmaConfig {
            population_size: None,
            elite_ratio: 0.25,
            mutation_rate: 0.05,
            crossover_gen_rate: 0.9,
            crossover_rg_rate: 0.05,
            crossover_accel_rate: 0.05,
            operators: OperatorSet::all(),
            initial_population: None,
        }
    }
}

/// The MAGMA optimizer.
#[derive(Debug, Clone, Default)]
pub struct Magma {
    config: MagmaConfig,
}

impl Magma {
    /// Creates MAGMA with a restricted operator set (Fig. 16 ablations).
    pub fn with_operators(operators: OperatorSet) -> Self {
        Magma { config: MagmaConfig { operators, ..MagmaConfig::default() } }
    }

    /// Creates MAGMA seeded with a warm-start population (Section V-C), e.g.
    /// a `StoredSolution::seed_population`. The seeds are evaluated first,
    /// so a search of any budget is never worse than the first seed — which
    /// is how the serving layer refines a cache hit on a fraction of the
    /// cold budget.
    pub fn with_warm_start(population: Vec<Mapping>) -> Self {
        Magma {
            config: MagmaConfig { initial_population: Some(population), ..MagmaConfig::default() },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MagmaConfig {
        &self.config
    }

    /// The population size a search will actually use on `problem` at
    /// `budget`. Callers building a seed population (e.g. the serving
    /// layer's cache-hit path) size it with this so the seeds fill exactly
    /// one initial generation — no seed is dropped and none of the
    /// refinement budget is padded with random individuals.
    pub fn population_size_for(&self, problem: &dyn MappingProblem, budget: usize) -> usize {
        Breed::population_size(self, problem.num_jobs()).min(budget.max(2))
    }

    /// [`Optimizer::open`] for a caller that is done with this `Magma`: the
    /// session takes the configuration, and the warm-start population with
    /// it, and emits each seed by move — nothing is copied. Draws nothing
    /// from any RNG (neither does `open`).
    pub fn into_session(mut self, problem: &dyn MappingProblem) -> Box<dyn SessionState> {
        let seeds = self.config.initial_population.take().unwrap_or_default();
        Generations::open(ElitistGa::new(self, problem, seeds))
    }

    // ----- genetic operators -------------------------------------------------

    /// Crossover-gen: single-pivot crossover restricted to one randomly
    /// chosen genome.
    fn crossover_gen(child: &mut Mapping, mom: &Mapping, rng: &mut StdRng) {
        let n = child.num_jobs();
        let pivot = rng.gen_range(0..n);
        if rng.gen::<bool>() {
            for i in pivot..n {
                child.accel_sel_mut()[i] = mom.accel_sel()[i];
            }
        } else {
            for i in pivot..n {
                child.priority_mut()[i] = mom.priority()[i];
            }
        }
    }

    /// Crossover-rg: exchange a gene *range* across both genomes at once,
    /// preserving the per-job coupling between selection and priority.
    fn crossover_rg(child: &mut Mapping, mom: &Mapping, rng: &mut StdRng) {
        let n = child.num_jobs();
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for i in lo..=hi {
            child.accel_sel_mut()[i] = mom.accel_sel()[i];
            child.priority_mut()[i] = mom.priority()[i];
        }
    }

    /// Crossover-accel: adopt the mom's complete job set for one randomly
    /// chosen sub-accelerator; the child's jobs previously on that core are
    /// randomly re-assigned to keep the load balanced.
    fn crossover_accel(child: &mut Mapping, mom: &Mapping, num_accels: usize, rng: &mut StdRng) {
        let target = rng.gen_range(0..num_accels);
        let n = child.num_jobs();
        for i in 0..n {
            if mom.accel_sel()[i] == target {
                child.accel_sel_mut()[i] = target;
                child.priority_mut()[i] = mom.priority()[i];
            } else if child.accel_sel()[i] == target {
                // Load balancing: evict to a random other core.
                child.accel_sel_mut()[i] = rng.gen_range(0..num_accels);
            }
        }
    }
}

impl Breed for Magma {
    fn population_size(&self, num_jobs: usize) -> usize {
        self.config.population_size.unwrap_or(num_jobs).max(16)
    }

    fn elite_ratio(&self) -> f64 {
        self.config.elite_ratio
    }

    fn make_child(
        &self,
        child: &mut Mapping,
        dad: &Mapping,
        mom: &Mapping,
        num_accels: usize,
        rng: &mut StdRng,
    ) {
        let ops = &self.config.operators;
        child.clone_from(dad);
        if ops.crossover_gen && rng.gen::<f64>() < self.config.crossover_gen_rate {
            Self::crossover_gen(child, mom, rng);
        }
        if ops.crossover_rg && rng.gen::<f64>() < self.config.crossover_rg_rate {
            Self::crossover_rg(child, mom, rng);
        }
        if ops.crossover_accel && rng.gen::<f64>() < self.config.crossover_accel_rate {
            Self::crossover_accel(child, mom, num_accels, rng);
        }
        if ops.mutation {
            mutate(child, self.config.mutation_rate, num_accels, rng);
        }
    }
}

impl Optimizer for Magma {
    fn name(&self) -> &str {
        "MAGMA"
    }

    fn open(&self, problem: &dyn MappingProblem, _rng: &mut StdRng) -> Box<dyn SessionState> {
        self.clone().into_session(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::test_support::{toy_optimum, ToyProblem};
    use crate::random::RandomSearch;
    use rand::SeedableRng;

    #[test]
    fn finds_near_optimal_toy_solution() {
        let problem = ToyProblem { jobs: 20, accels: 4 };
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = Magma::default().search(&problem, 2_000, &mut rng);
        assert!(outcome.best_fitness >= 0.9 * toy_optimum(20), "got {}", outcome.best_fitness);
    }

    #[test]
    fn respects_budget() {
        let problem = ToyProblem { jobs: 10, accels: 2 };
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = Magma::default().search(&problem, 137, &mut rng);
        assert_eq!(outcome.history.num_samples(), 137);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let problem = ToyProblem { jobs: 12, accels: 3 };
        let a = Magma::default().search(&problem, 300, &mut StdRng::seed_from_u64(7));
        let b = Magma::default().search(&problem, 300, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn beats_random_search_on_same_budget() {
        let problem = ToyProblem { jobs: 30, accels: 4 };
        let budget = 1_500;
        let magma = Magma::default().search(&problem, budget, &mut StdRng::seed_from_u64(3));
        let random = RandomSearch::new().search(&problem, budget, &mut StdRng::seed_from_u64(3));
        assert!(
            magma.best_fitness > random.best_fitness,
            "MAGMA {} should beat random {}",
            magma.best_fitness,
            random.best_fitness
        );
    }

    #[test]
    fn full_operator_set_at_least_as_good_as_mutation_only() {
        let problem = ToyProblem { jobs: 24, accels: 4 };
        let budget = 800;
        let full = Magma::with_operators(OperatorSet::all()).search(
            &problem,
            budget,
            &mut StdRng::seed_from_u64(11),
        );
        let mut_only = Magma::with_operators(OperatorSet::mutation_only()).search(
            &problem,
            budget,
            &mut StdRng::seed_from_u64(11),
        );
        assert!(full.best_fitness >= mut_only.best_fitness * 0.95);
    }

    #[test]
    fn warm_start_population_is_used() {
        let problem = ToyProblem { jobs: 10, accels: 2 };
        // A hand-built optimal individual.
        let accel: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let prio: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let seed = Mapping::new(accel, prio, 2);
        let outcome = Magma::with_warm_start(vec![seed.clone()]).search(
            &problem,
            20,
            &mut StdRng::seed_from_u64(2),
        );
        // With only 20 samples the seeded optimum must already be found.
        assert_eq!(outcome.best_fitness, toy_optimum(10));
    }

    #[test]
    fn refine_is_budget_limited_and_never_below_its_seed() {
        let problem = ToyProblem { jobs: 10, accels: 2 };
        let accel: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let prio: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let seed = Mapping::new(accel, prio, 2);
        let seed_fitness = problem.evaluate(&seed);
        // Even a minimal refinement budget evaluates the seed itself.
        for budget in [1, 4, 16] {
            let outcome = Magma::with_warm_start(vec![seed.clone()]).search(
                &problem,
                budget,
                &mut StdRng::seed_from_u64(9),
            );
            assert_eq!(outcome.history.num_samples(), budget, "budget {budget}");
            assert!(outcome.best_fitness >= seed_fitness, "budget {budget}");
        }
    }

    #[test]
    fn refine_is_deterministic() {
        let problem = ToyProblem { jobs: 12, accels: 3 };
        let mut rng = StdRng::seed_from_u64(4);
        let seeds: Vec<Mapping> = (0..6).map(|_| Mapping::random(&mut rng, 12, 3)).collect();
        let refine = |seeds: Vec<Mapping>| {
            Magma::with_warm_start(seeds).search(&problem, 60, &mut StdRng::seed_from_u64(5))
        };
        let (a, b) = (refine(seeds.clone()), refine(seeds));
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn operator_set_labels() {
        assert_eq!(OperatorSet::mutation_only().label(), "Mut");
        assert_eq!(OperatorSet::mutation_and_gen().label(), "Mut+Crs-gen");
        assert_eq!(OperatorSet::all().label(), "Mut+Crs-gen+Crs-rg+Crs-accel");
    }

    #[test]
    fn crossover_accel_preserves_moms_core_assignment() {
        let mut rng = StdRng::seed_from_u64(5);
        let dad = Mapping::random(&mut rng, 12, 3);
        let mom = Mapping::random(&mut rng, 12, 3);
        // Run the operator many times; whenever a job is on the target core in
        // mom, the child must have it there too. We can't observe the chosen
        // core directly, so check the invariant that the child is always a
        // valid mapping and at least sometimes differs from dad.
        let mut changed = false;
        for _ in 0..50 {
            let mut child = dad.clone();
            Magma::crossover_accel(&mut child, &mom, 3, &mut rng);
            assert!(child.accel_sel().iter().all(|&a| a < 3));
            if child != dad {
                changed = true;
            }
        }
        assert!(changed);
    }
}
