//! magma-serve — an online multi-tenant serving simulator with a
//! signature-keyed mapping cache.
//!
//! The paper's premise is multi-tenant serving: groups of jobs from
//! co-resident DNNs arriving at a shared multi-core accelerator (Sections I
//! & III). The static experiments optimize *pre-formed* groups; this crate
//! closes the loop from **traffic** to **mappings**:
//!
//! ```text
//!  TenantMix ──▶ trace (Poisson / bursty / drift, seeded)
//!                  │ arrivals
//!                  ▼
//!           AdmissionBatcher (size target + deadline)
//!                  │ dispatch groups
//!                  ▼
//!           MappingService ──▶ MappingCache (LRU over quantized
//!                  │               JobSignature sets)
//!                  │   hit: adapt (profile match) + refine (small budget)
//!                  │   miss: full MAGMA search (cold budget)
//!                  ▼
//!           virtual-clock schedule ──▶ ServeMetrics (p50/p95/p99,
//!                                       SLA, hit rate, throughput)
//! ```
//!
//! * [`trace`] — seeded arrival scenarios over the model zoo's tenants.
//! * [`batcher`] — admission batching under a group-size/deadline policy.
//! * [`cache`] — the bounded LRU over quantized [`magma_model::JobSignature`]
//!   sets, with a nearest-key probe for near-matching groups (threshold
//!   calibrated by [`sweep`]), serde persistence (`MAGMA_SERVE_CACHE_PATH`
//!   makes restarts warm) and a fleet-wide [`cache::SharedCache`]
//!   tier with per-tenant quotas.
//! * [`dispatch`] — cold search vs adapt-then-refine as *steppable plans*
//!   (plan → session → complete), both through the parallel batch evaluator
//!   (`magma_optim::parallel`).
//! * [`FleetConfig::single_queue`] — the single-queue simulator: one
//!   mapper, one accelerator, a group's search (a `magma_optim`
//!   [`SessionState`](magma_optim::SessionState), mapper cost charged from
//!   measured per-step samples) hidden behind the previous group's
//!   execution. Not a second loop: a config of the 1-shard [`fleet`].
//! * [`metrics`] — the latency/throughput/SLA pipeline, with per-tenant SLA
//!   contracts.
//! * [`report`] — the schema-stable `BENCH_serve.json` contract
//!   (`magma-serve/v4`: the scenario ladder and the embedded scenario
//!   descriptor).
//! * [`sweep`] — the epsilon × refine-budget × quantization calibration
//!   sweep behind `BENCH_cache.json` (`magma-cache/v3`), whose frontier
//!   justifies the shipped cache defaults.
//! * [`emit`](mod@emit) — the one path every `BENCH_*.json` takes to disk:
//!   [`BenchReport`] (shared header self-check, the report's invariants, its
//!   acceptance gate) and [`emit()`] (validate → write → gate).
//! * [`descriptor`] — the self-describing
//!   [`ScenarioDescriptor`] every report
//!   embeds, and the [`CustomScenario`] value
//!   the scenario registry (`magma-registry`) resolves scenario files into
//!   — [`CustomScenario::apply`] is the one place its overrides meet the
//!   knob nest (`ServeKnobs` ⊂ `FleetKnobs` ⊂ `ServerKnobs`), the one typed
//!   serving config every driver builds from.
//!
//! # Fleet serving
//!
//! The general machine is the **fleet** — N platform shards behind a
//! signature-affine router, each time-sharing its mapper across many live
//! searches. One crate-private shard core (route → plan → step → complete →
//! publish → persist), configured by one [`ShardConfig`], runs under both
//! drivers, the virtual-clock [`fleet`] loop and the wall-clock [`engine`]:
//!
//! * [`router`] — sticky signature-affinity placement with
//!   least-loaded/lowest-index fallback.
//! * [`scheduler`] — the per-shard concurrent session scheduler: uniform
//!   round-robin or deadline-aware (EDF + urgency-sized slices), with
//!   deadline and value **preemption** (early `finish()` of live sessions).
//! * [`fleet`] — the one virtual-clock event loop gluing trace → batcher →
//!   router → shards (with an optional shared cache tier and per-shard
//!   cache persistence), plus the schema-stable `BENCH_fleet.json`
//!   scaling-ladder report (`magma-fleet/v3`).
//! * [`engine`] — the same shards behind a wall-clock API (tokens,
//!   admission control, timeouts, cancel, drain) for `magma-server`.
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Sections I & III (multi-tenant job streams, groups) | [`trace`], [`batcher`] |
//! | Section V-C / Table V (solution transfer to similar groups) | [`cache`], [`dispatch`] |
//! | Section IV (M3E as the per-group mapping engine) | [`dispatch`] |
//!
//! # Determinism
//!
//! A simulation is a pure function of `(FleetConfig, TenantMix)`: virtual
//! clock only, seeded RNG only, and candidate evaluation through the
//! order-stable parallel batch oracle — so `BENCH_serve.json` is
//! bit-identical at every `MAGMA_THREADS` setting (locked down by
//! `tests/integration_serve.rs`).
//!
//! # Example
//!
//! ```
//! use magma_platform::settings::ServeKnobs;
//! use magma_serve::report::run_standard_scenarios;
//!
//! let knobs = ServeKnobs { requests: 32, cold_budget: 30, refine_budget: 3,
//!                          ..ServeKnobs::smoke() };
//! let report = run_standard_scenarios(&knobs, true);
//! assert_eq!(report.schema, magma_serve::report::SCHEMA);
//! assert!(report.scenarios.iter().all(|s| s.metrics.jobs == 32));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod descriptor;
pub mod dispatch;
pub mod emit;
pub mod engine;
pub mod fleet;
pub mod metrics;
pub mod report;
pub mod router;
pub mod scheduler;
mod shards;
#[cfg(test)]
mod sim;
pub mod sweep;
pub mod trace;

pub use batcher::{AdmissionBatcher, BatchPolicy, DispatchGroup};
pub use cache::{quantize_signatures, CacheStats, MappingCache, SharedCache, SignatureKey};
pub use descriptor::{CustomScenario, ScenarioDescriptor};
pub use dispatch::{DispatchConfig, DispatchKind, DispatchOutcome, MappingService};
pub use emit::{emit, mode_tag, BenchReport};
pub use engine::{
    Admission, EngineConfig, EngineStats, JobCompletion, MapperWork, ServeEngine, Wake,
};
pub use fleet::{
    fleet_simulate, run_fleet_custom, run_fleet_ladder, FleetConfig, FleetReport, FleetResult,
    FLEET_SCHEMA,
};
pub use metrics::{LatencyStats, ServeMetrics};
pub use report::{run_custom_scenario, run_standard_scenarios, ServeReport, SCHEMA};
pub use router::{RouterStats, ShardRouter};
pub use scheduler::{SchedStats, SchedulerConfig, SessionScheduler};
pub use shards::{shard_cache_file, ShardConfig};
pub use sweep::{run_cache_sweep, run_cache_sweep_custom, CacheSweepReport, CACHE_SCHEMA};
pub use trace::{generate_trace, Arrival, Scenario, TraceParams};
