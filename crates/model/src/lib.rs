//! DNN model zoo, layer shapes and multi-tenant workload generation for the
//! MAGMA reproduction.
//!
//! The paper schedules *jobs* — a job is one DNN layer executed on one
//! mini-batch of activations — drawn from three application domains that are
//! common in inference data centers: **vision**, **language** and
//! **recommendation** (plus a **Mix** task that combines all three). This
//! crate provides:
//!
//! * [`LayerShape`] — the tensor-shape description of a single DNN layer
//!   (convolution, depth-wise convolution, fully-connected / GEMM, attention
//!   projections, embedding lookups), together with MAC/FLOP and tensor-size
//!   accounting.
//! * [`Model`] — a named sequence of layers with a [`TaskType`], and
//!   [`zoo`] — hand-coded layer tables for the models the paper evaluates
//!   (ResNet-50, MobileNetV2, ShuffleNet, GPT-2, MobileBERT, Transformer-XL,
//!   DLRM, Wide&Deep, NCF, ...).
//! * [`Job`], [`Group`] and [`workload`] — mini-batched jobs, dependency-free
//!   groups, and deterministic workload generators for each task type.
//! * [`JobSignature`] — a platform-independent per-job profile (layer class,
//!   compute and data-movement footprint) with a distance metric; the
//!   transfer key of the profile-matched warm start (Table V). `M3e`
//!   attaches a packed per-core latency class to each, letting the metric
//!   see platform affinity too.
//! * [`Tenant`], [`TenantMix`] and [`TenantJobStream`] — the co-resident
//!   service owners behind the online serving simulator (`magma-serve`),
//!   each emitting a deterministic job stream from the slice of the zoo it
//!   references (shared, never copied per tenant).
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Section III (jobs, groups, batched-job tasks) | [`Job`], [`Group`], [`workload`] |
//! | Table II (model zoo: vision / language / recommendation) | [`zoo`] |
//! | Fig. 7 representative models | [`zoo::fig7_models`] |
//! | Section V-C / Table V (warm-start transfer keys) | [`signature`] |
//! | Fig. 17 (group size as a knob) | [`WorkloadSpec::build_groups`] |
//!
//! # Example
//!
//! ```
//! use magma_model::{zoo, workload::WorkloadSpec, TaskType};
//!
//! let resnet = zoo::resnet50();
//! assert!(resnet.layers().len() > 20);
//!
//! // Build a Mix-task workload of 100 jobs, chopped into one group.
//! let spec = WorkloadSpec::new(TaskType::Mix, 100).with_seed(7);
//! let groups = spec.build_groups(100);
//! assert_eq!(groups[0].len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod job;
pub mod layer;
pub mod model;
pub mod signature;
pub mod task;
pub mod tenant;
pub mod workload;
pub mod zoo;

pub use job::{Group, Job, JobId};
pub use layer::LayerShape;
pub use model::Model;
pub use signature::{DistanceCoords, JobSignature, LayerClass};
pub use task::TaskType;
pub use tenant::{PreparedWeights, Tenant, TenantJobStream, TenantMix};
pub use workload::WorkloadSpec;
