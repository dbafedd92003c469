//! Shared reduced-scale instance setup for the integration suites.
//!
//! Every suite needs "a small real M3E problem on setting X": one group of
//! `n` jobs of one task category, a Table III platform at an explicit or
//! default bandwidth, throughput objective. This helper is the single copy
//! of that setup (it used to be re-declared per suite).

// Each integration test target compiles this module independently and none
// uses every helper, so dead-code analysis is per-target noise here.
#![allow(dead_code)]

use magma_m3e::{M3e, Objective};
use magma_model::{TaskType, WorkloadSpec};
use magma_platform::{settings, AcceleratorPlatform, Setting};

/// Builds a reduced-scale M3E problem: `n` jobs of `task` on `setting`, at
/// `bw` GB/s (or the setting's Table III default when `None`), optimizing
/// throughput. `seed` controls workload generation.
pub fn problem(setting: Setting, task: TaskType, bw: Option<f64>, n: usize, seed: u64) -> M3e {
    let group = WorkloadSpec::single_group(task, n, seed);
    let platform = match bw {
        Some(bw) => settings::build(setting).with_system_bw_gbps(bw),
        None => settings::build(setting),
    };
    M3e::new(platform, group, Objective::Throughput)
}

/// The three platforms of the repository's benchmark at paper scale: S2 at
/// 16 GB/s, S4 at 256 GB/s, and a 64-core platform (S6's sixteen big/little
/// cores four times over) at 256 GB/s.
pub fn paper_scale_platforms() -> Vec<(&'static str, AcceleratorPlatform)> {
    let s6 = settings::build(Setting::S6);
    let cores = s6.sub_accels().iter().cycle().take(64).cloned().collect();
    vec![
        ("s2", settings::build(Setting::S2).with_system_bw_gbps(16.0)),
        ("s4", settings::build(Setting::S4).with_system_bw_gbps(256.0)),
        ("mesh64", AcceleratorPlatform::new("mesh64", cores, 256.0)),
    ]
}
