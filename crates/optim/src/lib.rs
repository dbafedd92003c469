//! Optimization algorithms for the multi-DNN multi-core mapping problem.
//!
//! Every algorithm implements the [`Optimizer`] trait and searches a
//! [`MappingProblem`](magma_m3e::MappingProblem) under a fixed sampling
//! budget, mirroring Table IV of the paper:
//!
//! | Algorithm | Module | Rule and constants |
//! |---|---|---|
//! | **MAGMA** (this paper) | [`magma_ga`] | breeding rule of the elitist GA engine: Crossover-gen 0.9, Crossover-rg 0.05, Crossover-accel 0.05, Mutation 0.05; population = group size (≥ 16), elites 0.25 — [`MagmaConfig`], the one settable set (Fig. 16, warm start) |
//! | stdGA | [`stdga`] | breeding rule of the same engine: flat single-pivot crossover 0.1, mutation 0.1; population 50, elites 0.2 |
//! | DE | [`de`] | generation of 40 rand/1/bin trials, selected index by index: F = 0.8, CR = 0.8 |
//! | CMA-ES | [`cmaes`] | generation of 40 Gaussian samples, separable: elite half, initial σ 0.3, variance learning rate 0.3 |
//! | PSO | [`pso`] | iteration of 40 particles: c1 = c2 = 0.8, inertia 0.6, velocity cap 0.25 |
//! | TBPSA | [`tbpsa`] | generation of λ Gaussian samples, λ from 50 growing ×1.3 to at most 400 when a generation does not improve: elite half, σ 0.3 decaying ×0.95 |
//! | RL A2C | [`rl`] | generation of one episode, then the actor-critic update: 3×128 MLP policy/critic, γ = 0.99, RMSProp lr 7e-4, entropy bonus 0.01 |
//! | RL PPO2 | [`rl`] | generation of 8 episodes under a frozen policy, then the clipped update: same networks, γ = 0.99, Adam lr 2.5e-4, clip 0.2, 4 epochs |
//! | Random | [`random`] | generations of 1 024 uniform mappings, nothing folded (the "exhaustively sampled" reference of Fig. 10) |
//! | Herald-like | [`heuristics`] | one proposal, then exhausted: manual mapper tuned for heterogeneous cores |
//! | AI-MT-like | [`heuristics`] | one proposal, then exhausted: manual mapper tuned for homogeneous cores |
//!
//! The paper compares the mappers at these fixed values, so the baselines'
//! are `const`s beside each rule, not configuration. Every row is a
//! *generation rule* — `size()`, `emit(index)`, `close(fits)` — over the one
//! session driver of `session.rs`, which owns the generation in flight.
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
//! to it — a rule never sees a slice, so the k-th candidate cannot depend on
//! one (stated and property-tested in `session.rs`, locked down end to end by
//! `tests/integration_sessions.rs`, and pinned across commits for every row
//! above by `tests/data/baselines_parent.json`) — which is what lets
//! `magma-serve` overlap search slices with accelerator execution.
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Section IV-E (MAGMA's genetic operators) | [`magma_ga::OperatorSet`] |
//! | Figs. 8–12 (the mapper rosters) | `magma::Algorithm` — the facade's tag enum is the one list of the optimizers here |
//! | Fig. 11 / Fig. 16 (convergence, operator ablation) | [`Optimizer::search`] histories, [`magma_ga::Magma::with_operators`] |
//! | Table V (warm-started initial populations) | [`magma_ga::Magma::with_warm_start`] |
//! | Section V-B (hyper-parameter tuning) | the paper's tuned rates, the [`MagmaConfig`] defaults |
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
mod ga;
pub mod heuristics;
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
