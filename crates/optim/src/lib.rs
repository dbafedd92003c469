//! Optimization algorithms for the multi-DNN multi-core mapping problem.
//!
//! Every algorithm implements the [`Optimizer`] trait and searches a
//! [`MappingProblem`](magma_m3e::MappingProblem) under a fixed sampling
//! budget, mirroring Table IV of the paper:
//!
//! | Algorithm | Module | Notes |
//! |---|---|---|
//! | **MAGMA** (this paper) | [`magma_ga`] | GA with domain-aware operators: Mutation, Crossover-gen, Crossover-rg, Crossover-accel |
//! | stdGA | [`stdga`] | standard genetic algorithm (mutation 0.1, crossover 0.1) |
//! | DE | [`de`] | differential evolution (F = 0.8, CR = 0.8) |
//! | CMA-ES | [`cmaes`] | (separable) covariance matrix adaptation evolution strategy |
//! | PSO | [`pso`] | particle swarm optimization (c1 = c2 = 0.8) |
//! | TBPSA | [`tbpsa`] | test-based population-size adaptation evolution strategy |
//! | RL A2C | [`rl`] | advantage actor-critic, 3×128 MLP policy/critic |
//! | RL PPO2 | [`rl`] | proximal policy optimization with clipping, 3×128 MLP |
//! | Random | [`random`] | uniform random search (the "exhaustively sampled" reference of Fig. 10) |
//! | Herald-like | [`heuristics`] | manual mapper tuned for heterogeneous cores |
//! | AI-MT-like | [`heuristics`] | manual mapper tuned for homogeneous cores |
//!
//! Every optimizer evaluates its candidates through the shared batch oracle
//! in [`parallel`] ([`BatchEvaluator::evaluate_batch`]), which fans each
//! generation out over the **persistent work-stealing worker pool** in
//! [`pool`], sized by the `MAGMA_THREADS` knob (workers are spawned lazily
//! once and parked between batches, not re-spawned per generation).
//! Parallelism only changes wall-clock time, never results — the returned
//! fitnesses are bit-identical at every worker count.
//!
//! # Search sessions
//!
//! Every optimizer is driven through a resumable, budget-sliced
//! [`SearchSession`]: [`Optimizer::start`] opens a session and
//! [`SearchSession::step`] evaluates up to a slice's worth of candidates,
//! carrying population / distribution / policy state (and the RNG stream)
//! across slices. [`Optimizer::search`] is a provided method that steps one
//! session to the budget, and stepping at *any* slice sizes is bit-identical
//! to it (locked down by `tests/integration_sessions.rs`) — which is what
//! lets `magma-serve` overlap search slices with accelerator execution.
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Section IV-E (MAGMA's genetic operators) | [`magma_ga::OperatorSet`] |
//! | Figs. 8–12 (the mapper rosters) | `magma::Algorithm` — the facade's tag enum is the one list of the optimizers here |
//! | Fig. 11 / Fig. 16 (convergence, operator ablation) | [`Optimizer::search`] histories, [`magma_ga::Magma::with_operators`] |
//! | Table V (warm-started initial populations) | [`magma_ga::Magma::with_warm_start`] |
//! | Section V-B (hyper-parameter tuning) | [`hyper`] |
//!
//! # Example
//!
//! ```
//! use magma_m3e::{M3e, Objective};
//! use magma_model::{TaskType, WorkloadSpec};
//! use magma_optim::{magma_ga::Magma, Optimizer};
//! use magma_platform::{settings, Setting};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let group = WorkloadSpec::single_group(TaskType::Mix, 20, 0);
//! let problem = M3e::new(settings::build(Setting::S2), group, Objective::Throughput);
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let outcome = Magma::default().search(&problem, 400, &mut rng);
//! assert!(outcome.best_fitness > 0.0);
//! ```

// `deny` rather than `forbid`: the persistent worker pool (`pool`) is the
// one module allowed to use `unsafe` (type-erased borrowed batches handed to
// `'static` worker threads); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cmaes;
pub mod de;
pub mod heuristics;
pub mod hyper;
pub mod magma_ga;
pub mod optimizer;
pub mod parallel;
#[allow(unsafe_code)]
pub mod pool;
pub mod pso;
pub mod random;
pub mod rl;
mod session;
pub mod stdga;
pub mod tbpsa;
pub mod vector;

pub use heuristics::{AiMtLike, HeraldLike};
pub use magma_ga::{Magma, MagmaConfig, OperatorSet};
pub use optimizer::{Optimizer, SearchOutcome, SearchSession, SessionState, StepReport};
pub use parallel::BatchEvaluator;
pub use random::RandomSearch;
