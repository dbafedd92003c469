//! MAGMA / M3E — an optimization framework for mapping multiple DNNs on
//! multiple accelerator cores.
//!
//! This crate is the user-facing façade of the reproduction of the HPCA 2022
//! paper *"MAGMA: An Optimization Framework for Mapping Multiple DNNs on
//! Multiple Accelerator Cores"*. It re-exports the component crates and adds
//! a high-level [`MapperBuilder`] API plus the [`experiments`] module that
//! regenerates every figure and table of the paper's evaluation.
//!
//! # Components
//!
//! * [`magma_model`] — DNN model zoo, jobs, groups and workload generation.
//! * [`magma_cost`] — MAESTRO-like analytical cost model for sub-accelerators.
//! * [`magma_platform`] — multi-core accelerator platforms (Table III, S1–S6).
//! * [`magma_m3e`] — the M3E optimization framework: encoding, job analyzer,
//!   bandwidth allocator (Algorithm 1), fitness evaluation and warm start.
//! * [`magma_optim`] — the MAGMA genetic algorithm and every baseline the
//!   paper compares against (stdGA, DE, CMA-ES, PSO, TBPSA, A2C, PPO2,
//!   Herald-like, AI-MT-like).
//! * [`magma_serve`] — the online multi-tenant serving simulator: traffic
//!   scenarios, admission batching, a signature-keyed mapping cache and a
//!   virtual-clock latency/throughput metrics pipeline.
//!
//! # Paper cross-references
//!
//! The [`experiments`] module documents a full figure/table → function map
//! (Figs. 7–17 and Table V). The warm-start experiment
//! ([`experiments::warm_start_study`]) stores its solution with the job
//! signatures it was found for, so it transfers by profile matching
//! (Section V-C); a solution stored without them index-wraps, which is the
//! baseline (see [`magma_m3e::warmstart`]).
//!
//! # Quickstart
//!
//! ```
//! use magma::prelude::*;
//!
//! // A Mix-task group of 30 jobs on the small heterogeneous accelerator S2.
//! let report = MapperBuilder::new()
//!     .setting(Setting::S2)
//!     .task(TaskType::Mix)
//!     .group_size(30)
//!     .budget(500)
//!     .seed(7)
//!     .run();
//!
//! println!("MAGMA found {:.1} GFLOP/s", report.throughput_gflops);
//! assert!(report.throughput_gflops > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod builder;
pub mod experiments;

pub use builder::{Algorithm, MapperBuilder, MappingReport};

pub use magma_cost as cost;
pub use magma_m3e as m3e;
pub use magma_model as model;
pub use magma_optim as optim;
pub use magma_platform as platform;
pub use magma_serve as serve;

/// Convenience re-exports covering the common workflow: build a workload,
/// pick a platform, run a mapper, inspect the schedule.
pub mod prelude {
    pub use crate::builder::{Algorithm, MapperBuilder, MappingReport};
    pub use magma_cost::{CostModel, DataflowStyle, SubAccelConfig};
    pub use magma_m3e::{
        JobAnalyzer, M3e, Mapping, MappingProblem, Objective, Schedule, SearchHistory,
        StoredSolution, WarmStartEngine,
    };
    pub use magma_model::{
        Group, Job, JobId, JobSignature, LayerShape, Model, TaskType, Tenant, TenantMix,
        WorkloadSpec,
    };
    pub use magma_optim::{
        AiMtLike, BatchEvaluator, HeraldLike, Magma, MagmaConfig, OperatorSet, Optimizer,
        RandomSearch, SearchOutcome, SearchSession, SessionState, StepReport,
    };
    pub use magma_platform::{settings, AcceleratorPlatform, Setting};
    pub use magma_serve::{
        DispatchConfig, FleetConfig, MappingCache, MappingService, Scenario, ServeReport,
    };
}
