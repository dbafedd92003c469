//! Multi-core accelerator platform model and the paper's S1–S6 settings.
//!
//! An [`AcceleratorPlatform`] is a set of sub-accelerator cores
//! ([`SubAccelConfig`](magma_cost::SubAccelConfig)) that share the *system
//! bandwidth* — the minimum of the host-memory bandwidth and the
//! host-to-accelerator link bandwidth — through an interconnect the scheduler
//! is agnostic to.
//!
//! The [`settings`] module constructs the six accelerator configurations of
//! Table III (S1–S6) and their flexible-PE-array variants used in
//! Section VI-F.
//!
//! # Paper cross-references
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Table III (accelerator settings S1–S6) | [`Setting`], [`settings::build`] |
//! | Fig. 12 (system-bandwidth sweep) | [`AcceleratorPlatform::with_system_bw_gbps`] |
//! | Fig. 13 (sub-accelerator combinations S3/S4/S5) | [`settings::build`], [`AcceleratorPlatform::with_system_bw_gbps`] |
//! | Fig. 14 / Section VI-F (flexible PE arrays) | [`settings::build_flexible`] |
//!
//! # Example
//!
//! ```
//! use magma_cost::DataflowStyle;
//! use magma_platform::{settings, Setting};
//!
//! let s4 = settings::build(Setting::S4).with_system_bw_gbps(256.0);
//! assert_eq!(s4.num_sub_accels(), 8);
//! // Seven high-bandwidth cores and one low-bandwidth core.
//! let low_bw = s4.sub_accels().iter().filter(|c| c.dataflow() == DataflowStyle::LowBandwidth);
//! assert_eq!(low_bw.count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod platform;
pub mod settings;

pub use platform::AcceleratorPlatform;
pub use settings::{PlatformSpec, Setting};
