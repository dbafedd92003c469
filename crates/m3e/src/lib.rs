//! M3E — the Multi-workload Multi-accelerator Mapping Explorer.
//!
//! M3E is the optimization *framework* of the paper (Section IV): it turns
//! the multi-tenant mapping problem into a black-box optimization problem
//! that any search algorithm can drive. The pieces are:
//!
//! * [`encoding`] — the genome encoding of a mapping: a **sub-accelerator
//!   selection** section (which core runs each job) and a **job
//!   prioritization** section (the execution order inside each core), plus
//!   the decoder that turns genes into per-core job queues.
//! * [`analyzer`] — the Job Analyzer, which profiles every job on every
//!   sub-accelerator with the cost model once, producing the Job Analysis
//!   Table consulted inside the optimization loop.
//! * [`BwAllocator`] — the Bandwidth Allocator (Algorithm 1), which replays a
//!   decoded mapping on the platform, re-dividing the shared system bandwidth
//!   among the live jobs at every job-completion event: one event loop over
//!   per-thread scratch, run without a recorder by the fitness function and
//!   with one to build a full schedule.
//! * [`schedule`] — the resulting timeline: per-core job segments, the
//!   bandwidth-allocation trace, makespan and throughput.
//! * [`evaluator`] — fitness functions (throughput by default; latency,
//!   energy and EDP are also available) with the system-BW constraint baked
//!   in, over a per-(job, core) launch-cost table filled at construction.
//! * [`M3e`] — the façade tying everything together, and the
//!   [`MappingProblem`] trait the optimizers in `magma-optim` search against.
//! * [`history`] — sample-efficiency bookkeeping (best-so-far curves, the
//!   data behind Figs. 10/11/16).
//! * [`warmstart`] — the warm start of Section V-C / Table V: a
//!   [`StoredSolution`] (a solved mapping with its job signatures) adapts
//!   onto a fresh group by job profile and seeds the next search.
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Fig. 4a / 5a (encoding + decoder) | [`encoding`] |
//! | Section IV-D2/D4 (Job Analyzer / Analysis Table) | [`analyzer`] |
//! | Algorithm 1 (bandwidth allocation) | [`BwAllocator`] |
//! | Section IV-D (fitness / objectives) | [`evaluator`] |
//! | Section IV-F (search-space size) | [`encoding::search_space_log10`] |
//! | Section V-C / Table V (warm start) | [`warmstart`] |
//!
//! # Example
//!
//! ```
//! use magma_m3e::prelude::*;
//! use magma_model::{TaskType, WorkloadSpec};
//! use magma_platform::{settings, Setting};
//!
//! let group = WorkloadSpec::single_group(TaskType::Mix, 20, 0);
//! let platform = settings::build(Setting::S2);
//! let m3e = M3e::new(platform, group, Objective::Throughput);
//!
//! // Evaluate a random mapping.
//! let mut rng = rand::thread_rng();
//! let mapping = Mapping::random(&mut rng, m3e.num_jobs(), m3e.num_accels());
//! let fitness = m3e.evaluate(&mapping);
//! assert!(fitness > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod analyzer;
mod bw_alloc;
pub mod encoding;
pub mod evaluator;
mod framework;
pub mod history;
pub mod schedule;
pub mod warmstart;

pub use analyzer::{JobAnalysisTable, JobAnalyzer};
pub use bw_alloc::BwAllocator;
pub use encoding::{DecodedMapping, Mapping};
pub use evaluator::{CostMemo, FitnessEvaluator, Objective};
pub use framework::{JobProfile, M3e, MappingProblem};
pub use history::SearchHistory;
pub use schedule::{Schedule, ScheduleSegment};
pub use warmstart::{StoredSolution, WarmStartEngine};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::analyzer::{JobAnalysisTable, JobAnalyzer};
    pub use crate::bw_alloc::BwAllocator;
    pub use crate::encoding::{DecodedMapping, Mapping};
    pub use crate::evaluator::{CostMemo, FitnessEvaluator, Objective};
    pub use crate::framework::{JobProfile, M3e, MappingProblem};
    pub use crate::history::SearchHistory;
    pub use crate::schedule::{Schedule, ScheduleSegment};
    pub use crate::warmstart::{StoredSolution, WarmStartEngine};
}
