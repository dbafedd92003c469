//! MAGMA / M3E — an optimization framework for mapping multiple DNNs on
//! multiple accelerator cores.
//!
//! This crate is the user-facing façade of the reproduction of the HPCA 2022
//! paper *"MAGMA: An Optimization Framework for Mapping Multiple DNNs on
//! Multiple Accelerator Cores"*. It holds the high-level [`MapperBuilder`]
//! API (with [`Algorithm`] and [`MappingReport`]) and the [`experiments`]
//! module that regenerates every figure and table of the paper's evaluation.
//! Every other item is imported from the component crate that defines it.
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
//! use magma::MapperBuilder;
//! use magma_model::TaskType;
//! use magma_platform::Setting;
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

mod builder;
pub mod experiments;

pub use builder::{Algorithm, MapperBuilder, MappingReport};

// The README's `rust` blocks, compiled and run as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
