//! The cache-calibration sweep behind `BENCH_cache.json`.
//!
//! The near-hit probe (`cache_epsilon`), the refinement budget
//! (`refine_budget`) and the key quantization step (`quant_step`) of
//! [`ServeKnobs`] trade hit rate against hit quality: a looser
//! epsilon or coarser key catches more traffic but adapts from
//! less-matching solutions. This module sweeps that grid on the standard
//! Poisson mix trace and emits a schema-stable report ([`CACHE_SCHEMA`])
//! whose frontier justifies the shipped defaults: the **calibrated point**
//! is the highest-hit-rate grid point whose delivered quality stays at
//! least [`QUALITY_FLOOR`] of the all-cold-search run while spending at
//! most [`BUDGET_CEILING`] of the cold budget per hit.
//!
//! Quality is measured *matched*: each point's mean best-mapping
//! throughput per dispatch group — over **all** dispatches, hit and cold —
//! is divided by its probe-off (`epsilon = 0`) sibling's at the same
//! refinement budget and quantization step. Same trace, same group
//! population, so the ratio isolates what the probe cost. The per-cohort
//! `hit_cold_throughput_ratio` is also reported but is **not** the
//! admission criterion: on a mix trace the few groups that still miss at a
//! loose epsilon are an unrepresentative cohort, so hit-mean over
//! cold-mean is biased by *which* groups landed on each path, not by what
//! the probe did to them.

use crate::descriptor::{CustomScenario, ScenarioDescriptor};
use crate::emit::{mode_tag, BenchReport};
use crate::fleet::{fleet_simulate, FleetConfig};
use crate::trace::Scenario;
use magma_model::TenantMix;
use magma_platform::settings::ServeKnobs;
use magma_platform::{PlatformSpec, Setting};
use serde::{Deserialize, Serialize, Value};

/// Version tag of the cache-sweep report layout. Same contract as
/// [`crate::report::SCHEMA`]: fields are only ever added, with a bump.
/// `v2` added the embedded `scenario_descriptor` (required by
/// [`BenchReport::validate`]). `v3` is one deliberate removal: the
/// `profile_ab` block went with the `MAGMA_SIGNATURE_PROFILE` knob it
/// toggled; every remaining key and number is unchanged from `v2`.
pub const CACHE_SCHEMA: &str = "magma-cache/v3";

/// Minimum `quality_vs_probe_off` a grid point must keep to be admissible
/// as the calibrated point.
pub const QUALITY_FLOOR: f64 = 0.95;

/// Maximum `hit_sample_fraction` (mean hit samples over mean cold samples)
/// the calibrated point may spend.
pub const BUDGET_CEILING: f64 = 0.25;

/// One `(epsilon, refine_budget, quant_step)` grid point's measurements on
/// the mix trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Nearest-key probe threshold swept.
    pub epsilon: f64,
    /// Cache-hit refinement budget swept, in samples.
    pub refine_budget: usize,
    /// Key quantization step swept, in nats.
    pub quant_step: f64,
    /// Cache hits (exact and near combined).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// The subset of hits served by the nearest-key probe.
    pub near_hits: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Mean best-mapping throughput per dispatch group over **all**
    /// dispatches (hit and cold), GFLOP/s.
    pub mean_dispatch_gflops: f64,
    /// This point's `mean_dispatch_gflops` over its probe-off
    /// (`epsilon = 0`) sibling's at the same refinement budget and
    /// quantization step — the matched quality measure the floors judge
    /// (1.0 for the probe-off rows themselves; 0 when no sibling was
    /// swept).
    pub quality_vs_probe_off: f64,
    /// `hit_gflops_mean / cold_gflops_mean` — per-cohort hit quality (0
    /// when either side is empty). Informational only: cohort-biased on
    /// mix traces (see the module docs).
    pub hit_cold_throughput_ratio: f64,
    /// Mean hit samples over mean cold samples (0 when either side is
    /// empty).
    pub hit_sample_fraction: f64,
    /// Mean end-to-end latency, µs of virtual time.
    pub mean_e2e_us: f64,
    /// p95 end-to-end latency, µs of virtual time.
    pub p95_e2e_us: f64,
    /// Jobs per virtual second.
    pub jobs_per_sec: f64,
}

impl SweepPoint {
    /// Whether this point satisfies the calibration floors (and actually
    /// served hits, so the ratios are meaningful).
    pub fn admissible(&self) -> bool {
        self.hits > 0
            && self.quality_vs_probe_off >= QUALITY_FLOOR
            && self.hit_sample_fraction <= BUDGET_CEILING
    }
}

/// The full report written to `BENCH_cache.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSweepReport {
    /// Schema version tag ([`CACHE_SCHEMA`]).
    pub schema: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Trace/search seed.
    pub seed: u64,
    /// Arrivals per grid point.
    pub requests: usize,
    /// Cold-search budget every point refines against.
    pub cold_budget: usize,
    /// The quality floor applied ([`QUALITY_FLOOR`]).
    pub quality_floor: f64,
    /// The budget ceiling applied ([`BUDGET_CEILING`]).
    pub budget_ceiling: f64,
    /// The shipped default knob point `(epsilon, refine_budget,
    /// quant_step)` this sweep ran under.
    pub default_epsilon: f64,
    /// Shipped default refinement budget.
    pub default_refine_budget: usize,
    /// Shipped default quantization step.
    pub default_quant_step: f64,
    /// What this sweep measured: the resolved scenario descriptor (builtin
    /// mix-trace parameters, or the registry definitions behind a
    /// `--scenario` run), content-hashed.
    pub scenario_descriptor: ScenarioDescriptor,
    /// One entry per grid point, in sweep order (epsilon-major).
    pub grid: Vec<SweepPoint>,
    /// The calibrated point: highest hit rate among admissible points
    /// (ties: lower mean e2e, then smaller epsilon, refine budget and
    /// quantization step). `None` when no point is admissible.
    pub calibrated: Option<SweepPoint>,
    /// Whether the shipped defaults coincide with the calibrated point.
    pub defaults_match_calibrated: bool,
}

impl BenchReport for CacheSweepReport {
    const FILE: &'static str = "BENCH_cache.json";
    const SCHEMA: &'static str = CACHE_SCHEMA;

    fn header(&self) -> (&str, &str, &ScenarioDescriptor) {
        (&self.schema, &self.mode, &self.scenario_descriptor)
    }

    fn check_body(&self) -> Result<(), String> {
        if self.grid.is_empty() {
            return Err("empty sweep grid".into());
        }
        for (i, p) in self.grid.iter().enumerate() {
            if !(p.epsilon >= 0.0 && p.quant_step > 0.0 && p.refine_budget > 0) {
                return Err(format!("grid[{i}]: degenerate axes"));
            }
            if !(0.0..=1.0).contains(&p.hit_rate) {
                return Err(format!("grid[{i}]: hit rate {} out of range", p.hit_rate));
            }
            if p.near_hits > p.hits {
                return Err(format!("grid[{i}]: more near hits than hits"));
            }
            let lookups = p.hits + p.misses;
            if lookups == 0 {
                return Err(format!("grid[{i}]: no cache lookups recorded"));
            }
            let expect = p.hits as f64 / lookups as f64;
            if (p.hit_rate - expect).abs() > 1e-12 {
                return Err(format!("grid[{i}]: hit rate disagrees with its counters"));
            }
            if p.mean_dispatch_gflops <= 0.0 || p.mean_dispatch_gflops.is_nan() {
                return Err(format!("grid[{i}]: no mapped dispatch throughput"));
            }
            // The matched quality must be re-derivable from the grid
            // itself: each point against its probe-off sibling.
            match probe_off_sibling(&self.grid, p) {
                Some(base) => {
                    let expect = p.mean_dispatch_gflops / base;
                    if (p.quality_vs_probe_off - expect).abs() > 1e-9 * expect {
                        return Err(format!(
                            "grid[{i}]: quality_vs_probe_off {} disagrees with its \
                             probe-off sibling ({} expected)",
                            p.quality_vs_probe_off, expect
                        ));
                    }
                }
                None => {
                    return Err(format!(
                        "grid[{i}]: no probe-off sibling at refine {} / quant {}",
                        p.refine_budget, p.quant_step
                    ));
                }
            }
        }
        match &self.calibrated {
            Some(c) => {
                if !self.grid.contains(c) {
                    return Err("calibrated point is not a grid member".into());
                }
                if !c.admissible() {
                    return Err(format!(
                        "calibrated point violates the floors: quality {} (≥ {} required), \
                         budget {} (≤ {} allowed)",
                        c.quality_vs_probe_off,
                        self.quality_floor,
                        c.hit_sample_fraction,
                        self.budget_ceiling
                    ));
                }
                for p in &self.grid {
                    if p.admissible() && p.hit_rate > c.hit_rate {
                        return Err(format!(
                            "admissible point (eps {}, refine {}, quant {}) out-hits the \
                             calibrated one",
                            p.epsilon, p.refine_budget, p.quant_step
                        ));
                    }
                }
            }
            None => {
                if self.grid.iter().any(|p| p.admissible()) {
                    return Err("an admissible point exists but none was calibrated".into());
                }
                if self.defaults_match_calibrated {
                    return Err("defaults cannot match a missing calibrated point".into());
                }
            }
        }
        Ok(())
    }

    /// The frontier justifies what ships: an admissible grid point exists
    /// (that the calibrated point is one is [`BenchReport::check_body`]'s),
    /// and at full scale the shipped defaults are the calibrated point.
    /// (Smoke sweeps pin refine/quant to the knobs and only A/B the probe,
    /// so defaults can only be held to the frontier at full scale.)
    fn accept(&self) -> Result<String, String> {
        let Some(c) = &self.calibrated else {
            return Err(format!(
                "no admissible grid point: none kept quality ≥ {} at ≤ {} of the cold budget",
                self.quality_floor, self.budget_ceiling
            ));
        };
        let full = self.mode == mode_tag(false);
        if full && !self.defaults_match_calibrated {
            return Err(format!(
                "the shipped defaults (epsilon {}, refine {}, quant {}) are not the calibrated \
                 point (epsilon {}, refine {}, quant {}) — recalibrate platform::settings",
                self.default_epsilon,
                self.default_refine_budget,
                self.default_quant_step,
                c.epsilon,
                c.refine_budget,
                c.quant_step
            ));
        }
        Ok(format!(
            "calibrated point epsilon {}, refine {}, quant {} — hit rate {:.3}, quality {:.3} \
             (≥ {}), budget {:.3} (≤ {}){}",
            c.epsilon,
            c.refine_budget,
            c.quant_step,
            c.hit_rate,
            c.quality_vs_probe_off,
            self.quality_floor,
            c.hit_sample_fraction,
            self.budget_ceiling,
            if full { "; shipped defaults match" } else { "" }
        ))
    }
}

/// The probe-off (`epsilon = 0`) sibling's delivered throughput for a
/// point's refinement budget and quantization step, if that row was swept.
fn probe_off_sibling(grid: &[SweepPoint], p: &SweepPoint) -> Option<f64> {
    grid.iter()
        .find(|b| {
            b.epsilon == 0.0 && b.refine_budget == p.refine_budget && b.quant_step == p.quant_step
        })
        .map(|b| b.mean_dispatch_gflops)
}

/// The grid swept: full mode crosses eight epsilons (up past the useful
/// range, so the frontier visibly closes) with three refinement budgets
/// (5%, 10% and 25% of cold) and three quantization steps; smoke mode pins
/// refine/quant to the shipped knobs and only A/Bs the probe (off vs the
/// shipped epsilon) so CI stays fast.
pub fn sweep_grid(knobs: &ServeKnobs, smoke: bool) -> Vec<(f64, usize, f64)> {
    let (epsilons, refines, quants): (Vec<f64>, Vec<usize>, Vec<f64>) = if smoke {
        (vec![0.0, knobs.cache_epsilon.max(1.0)], vec![knobs.refine_budget], vec![knobs.quant_step])
    } else {
        (
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0],
            vec![
                (knobs.cold_budget / 20).max(1),
                (knobs.cold_budget / 10).max(1),
                (knobs.cold_budget / 4).max(1),
            ],
            vec![0.5, 1.0, 2.0],
        )
    };
    let mut grid = Vec::with_capacity(epsilons.len() * refines.len() * quants.len());
    for &eps in &epsilons {
        for &refine in &refines {
            for &quant in &quants {
                grid.push((eps, refine, quant));
            }
        }
    }
    grid
}

/// What a sweep simulates at every grid point: the standard Poisson mix on
/// S2 for the builtin sweep, a registry scenario's platform, arrival process
/// and mix otherwise.
struct SweepTrace<'a> {
    platform: &'a PlatformSpec,
    scenario: Scenario,
    mix: &'a TenantMix,
}

/// Runs one grid point: the trace through the single-queue simulator with
/// the point's probe threshold, refinement budget and quantization step.
fn run_point(knobs: &ServeKnobs, trace: &SweepTrace, point: (f64, usize, f64)) -> SweepPoint {
    let (epsilon, refine_budget, quant_step) = point;
    let at_point = ServeKnobs {
        cache_epsilon: epsilon,
        refine_budget,
        quant_step,
        // Every grid point starts cold — a persistence file would leak
        // cache state from point to point and corrupt the frontier.
        cache_path: None,
        ..knobs.clone()
    };
    let config = FleetConfig::single_queue(&at_point, trace.platform.clone(), trace.scenario);
    let result = fleet_simulate(&config, trace.mix);
    let m = &result.metrics;
    SweepPoint {
        epsilon,
        refine_budget,
        quant_step,
        hits: m.cache.hits,
        misses: m.cache.misses,
        near_hits: m.cache.near_hits,
        hit_rate: m.cache.hit_rate,
        mean_dispatch_gflops: if m.dispatch.dispatches > 0 {
            (m.dispatch.cold as f64 * m.dispatch.cold_gflops_mean
                + m.dispatch.hits as f64 * m.dispatch.hit_gflops_mean)
                / m.dispatch.dispatches as f64
        } else {
            0.0
        },
        // Filled in against the probe-off sibling once the grid is
        // complete (`attach_quality`).
        quality_vs_probe_off: 0.0,
        hit_cold_throughput_ratio: m.dispatch.hit_cold_throughput_ratio,
        hit_sample_fraction: m.dispatch.hit_sample_fraction,
        mean_e2e_us: m.end_to_end.mean_sec * 1e6,
        p95_e2e_us: m.end_to_end.p95_sec * 1e6,
        jobs_per_sec: m.jobs_per_sec,
    }
}

/// Fills every point's `quality_vs_probe_off` from its probe-off sibling
/// (1.0 for the probe-off rows themselves, by construction).
fn attach_quality(grid: &mut [SweepPoint]) {
    let baselines: Vec<(usize, f64, f64)> = grid
        .iter()
        .filter(|p| p.epsilon == 0.0)
        .map(|p| (p.refine_budget, p.quant_step, p.mean_dispatch_gflops))
        .collect();
    for p in grid.iter_mut() {
        p.quality_vs_probe_off = baselines
            .iter()
            .find(|(r, q, _)| *r == p.refine_budget && *q == p.quant_step)
            .map(|(_, _, base)| p.mean_dispatch_gflops / base)
            .unwrap_or(0.0);
    }
}

/// Picks the calibrated point: highest hit rate among admissible points,
/// ties broken toward lower mean end-to-end latency. Points that are still
/// metrically tied (the quantization axis often is: near hits don't
/// consult the exact key) prefer the shipped default on each axis — no
/// churning a default over a measured dead heat — then the smaller value.
/// A total order, so calibration is deterministic.
fn calibrate_grid(grid: &[SweepPoint], shipped: (f64, usize, f64)) -> Option<SweepPoint> {
    grid.iter()
        .filter(|p| p.admissible())
        .max_by(|a, b| {
            let fin = |x: &f64, y: &f64| x.partial_cmp(y).expect("sweep metrics are finite");
            fin(&a.hit_rate, &b.hit_rate)
                .then_with(|| fin(&b.mean_e2e_us, &a.mean_e2e_us))
                .then_with(|| (a.epsilon == shipped.0).cmp(&(b.epsilon == shipped.0)))
                .then_with(|| fin(&b.epsilon, &a.epsilon))
                .then_with(|| (a.refine_budget == shipped.1).cmp(&(b.refine_budget == shipped.1)))
                .then_with(|| b.refine_budget.cmp(&a.refine_budget))
                .then_with(|| (a.quant_step == shipped.2).cmp(&(b.quant_step == shipped.2)))
                .then_with(|| fin(&b.quant_step, &a.quant_step))
        })
        .cloned()
}

/// The builtin sweep's self-describing descriptor: the knob values that
/// shape the mix-trace sweep.
fn builtin_cache_descriptor(knobs: &ServeKnobs) -> ScenarioDescriptor {
    let params = Value::Map(vec![
        ("requests".into(), Value::U64(knobs.requests as u64)),
        ("group_target".into(), Value::U64(knobs.group_target as u64)),
        ("offered_load".into(), Value::F64(knobs.offered_load)),
        ("cold_budget".into(), Value::U64(knobs.cold_budget as u64)),
        ("default_epsilon".into(), Value::F64(knobs.cache_epsilon)),
        ("default_refine_budget".into(), Value::U64(knobs.refine_budget as u64)),
        ("default_quant_step".into(), Value::F64(knobs.quant_step)),
        ("platform".into(), Value::Str("S2".into())),
        ("mix".into(), Value::Str("standard".into())),
        ("scenario".into(), Value::Str("poisson".into())),
        ("seed".into(), Value::U64(knobs.seed)),
    ]);
    ScenarioDescriptor::new("builtin", "cache_sweep", params)
}

/// Runs the sweep on the standard Poisson mix and assembles the report.
pub fn run_cache_sweep(knobs: &ServeKnobs, smoke: bool) -> CacheSweepReport {
    let trace = SweepTrace {
        platform: &Setting::S2.into(),
        scenario: Scenario::Poisson,
        mix: &TenantMix::standard(),
    };
    run_sweep(knobs, smoke, &trace, builtin_cache_descriptor(knobs))
}

/// Runs the same calibration sweep on a registry-defined scenario: its
/// platform, mix and arrival process replace the builtin S2 / standard-mix /
/// Poisson trace, and the report embeds its descriptor. The grid axes and
/// admission floors are unchanged, so registry scenarios can re-calibrate
/// the cache knobs for their own traffic. `knobs` are the resolved ones
/// ([`CustomScenario::apply`]).
pub fn run_cache_sweep_custom(
    knobs: &ServeKnobs,
    smoke: bool,
    custom: &CustomScenario,
) -> CacheSweepReport {
    let trace =
        SweepTrace { platform: &custom.platform, scenario: custom.scenario, mix: &custom.mix };
    run_sweep(knobs, smoke, &trace, custom.descriptor.clone())
}

/// The sweep engine shared by the builtin and registry paths.
fn run_sweep(
    knobs: &ServeKnobs,
    smoke: bool,
    trace: &SweepTrace,
    descriptor: ScenarioDescriptor,
) -> CacheSweepReport {
    let mut grid: Vec<SweepPoint> =
        sweep_grid(knobs, smoke).into_iter().map(|p| run_point(knobs, trace, p)).collect();
    attach_quality(&mut grid);
    let shipped = (knobs.cache_epsilon, knobs.refine_budget, knobs.quant_step);
    let calibrated = calibrate_grid(&grid, shipped);
    let defaults_match_calibrated = calibrated.as_ref().is_some_and(|c| {
        c.epsilon == knobs.cache_epsilon
            && c.refine_budget == knobs.refine_budget
            && c.quant_step == knobs.quant_step
    });
    CacheSweepReport {
        schema: CACHE_SCHEMA.to_string(),
        mode: mode_tag(smoke).to_string(),
        seed: knobs.seed,
        requests: knobs.requests,
        cold_budget: knobs.cold_budget,
        quality_floor: QUALITY_FLOOR,
        budget_ceiling: BUDGET_CEILING,
        default_epsilon: knobs.cache_epsilon,
        default_refine_budget: knobs.refine_budget,
        default_quant_step: knobs.quant_step,
        scenario_descriptor: descriptor,
        grid,
        calibrated,
        defaults_match_calibrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_knobs() -> ServeKnobs {
        ServeKnobs {
            requests: 48,
            group_target: 8,
            cold_budget: 40,
            refine_budget: 4,
            cache_capacity: 16,
            ..ServeKnobs::smoke()
        }
    }

    #[test]
    fn smoke_sweep_validates_and_round_trips_with_stable_keys() {
        let report = run_cache_sweep(&tiny_knobs(), true);
        report.validate().expect("a freshly assembled sweep must self-check");
        assert_eq!(report.grid.len(), 2, "smoke sweeps probe-off vs the shipped epsilon");
        let json = serde_json::to_string_pretty(&report).unwrap();
        for key in [
            "\"schema\"",
            "\"mode\"",
            "\"seed\"",
            "\"cold_budget\"",
            "\"quality_floor\"",
            "\"budget_ceiling\"",
            "\"default_epsilon\"",
            "\"default_refine_budget\"",
            "\"default_quant_step\"",
            "\"grid\"",
            "\"epsilon\"",
            "\"refine_budget\"",
            "\"quant_step\"",
            "\"hit_rate\"",
            "\"near_hits\"",
            "\"mean_dispatch_gflops\"",
            "\"quality_vs_probe_off\"",
            "\"hit_cold_throughput_ratio\"",
            "\"hit_sample_fraction\"",
            "\"mean_e2e_us\"",
            "\"p95_e2e_us\"",
            "\"jobs_per_sec\"",
            "\"calibrated\"",
            "\"defaults_match_calibrated\"",
            // v2 additions.
            "\"scenario_descriptor\"",
            "\"content_hash\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let back: CacheSweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn the_probe_earns_its_keep_on_the_mix_trace() {
        let report = run_cache_sweep(&tiny_knobs(), true);
        let off = &report.grid[0];
        let on = &report.grid[1];
        assert_eq!(off.epsilon, 0.0);
        assert!(on.epsilon > 0.0);
        assert_eq!(off.quality_vs_probe_off, 1.0, "the probe-off row is its own baseline");
        assert!(on.quality_vs_probe_off > 0.0);
        assert!(
            on.hits > off.hits,
            "the probe must convert mix-trace misses into near hits: on {on:?} vs off {off:?}"
        );
        assert!(on.near_hits > 0);
    }

    #[test]
    fn full_grid_crosses_all_three_axes() {
        let grid = sweep_grid(&ServeKnobs::full(), false);
        assert_eq!(grid.len(), 8 * 3 * 3);
        // The shipped defaults are a grid member, so the frontier can
        // actually justify (or indict) them.
        let d = ServeKnobs::full();
        assert!(
            grid.contains(&(d.cache_epsilon, d.refine_budget, d.quant_step)),
            "the default point {:?} must be swept",
            (d.cache_epsilon, d.refine_budget, d.quant_step)
        );
    }

    #[test]
    fn validate_rejects_a_corrupted_sweep() {
        let good = run_cache_sweep(&tiny_knobs(), true);
        let mut bad = good.clone();
        bad.grid[0].hit_rate = 2.0;
        assert!(bad.validate().is_err());
        let mut foreign = good;
        if let Some(c) = &mut foreign.calibrated {
            c.epsilon += 123.0;
            assert!(foreign.validate().is_err(), "a non-member calibrated point must fail");
        }
    }
}
