//! MAESTRO-like analytical cost model for DNN sub-accelerators.
//!
//! The paper uses the MAESTRO cost model to profile every job on every
//! sub-accelerator before the mapping search starts; the search itself only
//! consumes two numbers per (job, sub-accelerator) pair:
//!
//! * **no-stall latency** — cycles to run the job assuming memory bandwidth is
//!   never the bottleneck, and
//! * **no-stall (required) bandwidth** — the minimum DRAM bandwidth that keeps
//!   the job compute-bound.
//!
//! This crate reimplements that analytical model from scratch. Given a
//! [`LayerShape`](magma_model::LayerShape), a mini-batch size and a
//! [`SubAccelConfig`] (PE array, buffer sizes, dataflow style, clock), it
//! produces a [`CostEstimate`] with the two quantities above plus DRAM
//! traffic, utilization and an energy proxy.
//!
//! Two dataflow styles are modelled, following the paper's evaluation:
//!
//! * [`DataflowStyle::HighBandwidth`] (HB) — NVDLA-inspired weight-stationary
//!   dataflow that parallelizes across channel dimensions. Compute-efficient
//!   on channel-heavy layers (late CNN layers, FC/attention) but re-streams
//!   activations per weight tile, so it is bandwidth-hungry.
//! * [`DataflowStyle::LowBandwidth`] (LB) — Eyeriss-inspired row-stationary
//!   dataflow that parallelizes across activation (spatial) dimensions.
//!   Excellent on early CNN layers and depth-wise convolutions and very light
//!   on bandwidth, but poorly utilized on FC/GEMM layers.
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Section IV-D2 (cost-model profiling, no-stall latency / required BW) | [`CostModel::estimate`], [`CostEstimate`] |
//! | Fig. 7 (HB vs LB per-model characteristics) | [`DataflowStyle`] |
//! | Table III (per-core PE arrays, buffers, clocks) | [`SubAccelConfig`] |
//! | Fig. 14 / Section VI-F (flexible PE-array shapes) | [`best_flexible_shape`] |
//!
//! # Example
//!
//! ```
//! use magma_cost::{CostModel, DataflowStyle, SubAccelConfig};
//! use magma_model::LayerShape;
//!
//! let hb = SubAccelConfig::new("hb", 128, 64, DataflowStyle::HighBandwidth, 580 * 1024);
//! let lb = SubAccelConfig::new("lb", 128, 64, DataflowStyle::LowBandwidth, 434 * 1024);
//! let layer = LayerShape::FullyConnected { out_features: 768, in_features: 768 };
//!
//! let model = CostModel::default();
//! let on_hb = model.estimate(&layer, 4, &hb);
//! let on_lb = model.estimate(&layer, 4, &lb);
//!
//! // HB finishes the FC much faster but demands far more bandwidth.
//! assert!(on_hb.no_stall_cycles < on_lb.no_stall_cycles);
//! assert!(on_hb.required_bw_gbps > on_lb.required_bw_gbps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dataflow;
pub mod estimate;
pub mod flexible;
pub mod model;
mod subaccel;

pub use dataflow::DataflowStyle;
pub use estimate::CostEstimate;
pub use flexible::{best_flexible_shape, FlexibleChoice};
pub use model::CostModel;
pub use subaccel::SubAccelConfig;
