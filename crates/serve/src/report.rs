//! The schema-stable serving report behind `BENCH_serve.json`.
//!
//! [`SCHEMA`] is a versioned tag: fields are added with a version bump and
//! never renamed, so trend tooling can diff serving profiles across commits.
//! The report is purely virtual-clock — it contains **no wall-clock
//! measurements and no thread counts** — which is what makes the determinism
//! suite's bit-identical-JSON assertion possible across `MAGMA_THREADS`
//! settings.

use crate::descriptor::{CustomScenario, ScenarioDescriptor};
use crate::emit::{mode_tag, BenchReport};
use crate::fleet::{fleet_simulate, FleetConfig};
use crate::trace::Scenario;
use magma_model::{TaskType, TenantMix};
use magma_platform::settings::ServeKnobs;
use magma_platform::{PlatformSpec, Setting};
use serde::{Deserialize, Serialize, Value};

/// Version tag of the report layout. Bump when (and only when) the field
/// set changes; existing fields are never renamed.
///
/// `v2` (the steppable-session release) adds, on top of `v1`, `near_hits`
/// in the cache block and `sla_multiplier` per tenant (plus the two-mode
/// fields `v4` removed again).
///
/// `v3` (the scenario-registry release) adds the embedded
/// `scenario_descriptor`: what the report measured — builtin ladder knobs or
/// the resolved registry definitions — content-hashed and required by
/// [`BenchReport::validate`].
///
/// `v4` is the one deliberate removal: the serial baseline serving mode was
/// deleted, and with it the mode flags, the second ladder and the
/// comparison block. Every remaining key and number is unchanged from `v3`.
pub const SCHEMA: &str = "magma-serve/v4";

/// Minimum mean throughput of the repeated-tenant scenario's cache-hit
/// dispatches over its cold searches' ([`ServeReport`]'s acceptance gate).
pub const HIT_THROUGHPUT_FLOOR: f64 = 0.9;

/// Maximum mean hit samples over mean cold samples on the same scenario:
/// a tenth of the cold budget, plus the rounding of integer sample means.
pub const HIT_BUDGET_CEILING: f64 = 0.101;

/// One simulated scenario's block in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Short stable identifier (e.g. `repeated_tenant`).
    pub name: String,
    /// The traffic scenario simulated.
    pub scenario: Scenario,
    /// Arrivals simulated.
    pub requests: usize,
    /// Dispatch-group size target.
    pub group_target: usize,
    /// Calibrated mean inter-arrival gap, µs of virtual time.
    pub mean_interarrival_us: f64,
    /// Per-job SLA bound, µs of virtual time.
    pub sla_us: f64,
    /// The full metrics block.
    pub metrics: crate::metrics::ServeMetrics,
}

/// The full report written to `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Schema version tag ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Trace/search seed.
    pub seed: u64,
    /// Cold-search sampling budget.
    pub cold_budget: usize,
    /// Cache-hit refinement budget.
    pub refine_budget: usize,
    /// Mapping-cache capacity.
    pub cache_capacity: usize,
    /// What this report measured: the resolved scenario descriptor
    /// (builtin ladder parameters, or the registry definitions behind a
    /// `--scenario` run), content-hashed.
    pub scenario_descriptor: ScenarioDescriptor,
    /// One entry per simulated scenario.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport for ServeReport {
    const FILE: &'static str = "BENCH_serve.json";
    const SCHEMA: &'static str = SCHEMA;

    fn header(&self) -> (&str, &str, &ScenarioDescriptor) {
        (&self.schema, &self.mode, &self.scenario_descriptor)
    }

    fn check_body(&self) -> Result<(), String> {
        if self.scenarios.is_empty() {
            return Err("empty scenario ladder".into());
        }
        Ok(())
    }

    /// The cache economics of the repeated-tenant scenario: hits reach
    /// [`HIT_THROUGHPUT_FLOOR`] of cold-search throughput while spending at
    /// most [`HIT_BUDGET_CEILING`] of the cold sample budget.
    fn accept(&self) -> Result<String, String> {
        let d = match self.scenarios.iter().find(|s| s.name == "repeated_tenant") {
            Some(s) => s.metrics.dispatch,
            None => return Err("no repeated_tenant scenario to judge the cache on".into()),
        };
        if d.hits == 0 {
            return Err("repeated_tenant traffic produced 0 cache hits".into());
        }
        if d.hit_cold_throughput_ratio < HIT_THROUGHPUT_FLOOR {
            return Err(format!(
                "repeated_tenant hit/cold throughput ratio {:.4} is under the floor of {}",
                d.hit_cold_throughput_ratio, HIT_THROUGHPUT_FLOOR
            ));
        }
        if d.hit_sample_fraction > HIT_BUDGET_CEILING {
            return Err(format!(
                "repeated_tenant hits spent {:.4} of the cold sample budget, over the ceiling \
                 of {}",
                d.hit_sample_fraction, HIT_BUDGET_CEILING
            ));
        }
        Ok(format!(
            "hit/cold throughput ratio {:.3} (≥ {}) at {:.1}% of the cold budget (≤ 10%)",
            d.hit_cold_throughput_ratio,
            HIT_THROUGHPUT_FLOOR,
            d.hit_sample_fraction * 100.0
        ))
    }
}

/// The standard scenario ladder: what `serve_sim` runs and the determinism
/// suite locks down.
///
/// * `poisson_mix` — stationary multi-tenant traffic (the paper's Mix task,
///   served online).
/// * `repeated_tenant` — a single small-model tenant whose job windows
///   recur; the repeated-tenant trace of the acceptance criteria (cache
///   economics).
/// * (full mode only) `bursty_mix` and `drift_mix` — deadline-path stress
///   and cache-invalidation-under-drift.
pub fn standard_scenarios(smoke: bool) -> Vec<(&'static str, Scenario, TenantMix)> {
    let mut scenarios = vec![
        ("poisson_mix", Scenario::Poisson, TenantMix::standard()),
        (
            "repeated_tenant",
            Scenario::Poisson,
            TenantMix::single(
                "recommendation",
                TaskType::Recommendation,
                vec![magma_model::zoo::ncf()],
            ),
        ),
    ];
    if !smoke {
        scenarios.push(("bursty_mix", Scenario::Bursty, TenantMix::standard()));
        scenarios.push(("drift_mix", Scenario::Drift, TenantMix::standard()));
    }
    scenarios
}

/// Simulates each scenario on `platform` through the single-queue simulator
/// ([`FleetConfig::single_queue`]) and assembles the report — shared by the
/// builtin and registry paths, which differ only in the platform, the
/// scenario list and the descriptor.
fn run_scenarios(
    knobs: &ServeKnobs,
    smoke: bool,
    platform: &PlatformSpec,
    scenarios: Vec<(&str, Scenario, TenantMix)>,
    descriptor: ScenarioDescriptor,
) -> ServeReport {
    // The report's acceptance criteria assume every scenario starts cold; a
    // persistence file would leak cache state across scenarios. Warm
    // restarts are exercised by `fleet_simulate` callers and the
    // integration suites, never by the report.
    let cold = ServeKnobs { cache_path: None, ..knobs.clone() };
    let scenarios = scenarios
        .into_iter()
        .map(|(name, scenario, mix)| {
            let config = FleetConfig::single_queue(&cold, platform.clone(), scenario);
            let result = fleet_simulate(&config, &mix);
            ScenarioResult {
                name: name.to_string(),
                scenario,
                requests: config.requests,
                group_target: config.group_target,
                mean_interarrival_us: result.mean_interarrival_sec * 1e6,
                sla_us: result.sla_sec * 1e6,
                metrics: result.metrics,
            }
        })
        .collect();
    ServeReport {
        schema: SCHEMA.to_string(),
        mode: mode_tag(smoke).to_string(),
        seed: knobs.seed,
        cold_budget: knobs.cold_budget,
        refine_budget: knobs.refine_budget,
        cache_capacity: knobs.cache_capacity,
        scenario_descriptor: descriptor,
        scenarios,
    }
}

/// The builtin ladder's self-describing descriptor: the knob values that
/// shape the run plus the ladder's scenario names (the registry path embeds
/// the full resolved definitions instead).
fn builtin_serve_descriptor(knobs: &ServeKnobs, smoke: bool) -> ScenarioDescriptor {
    let names: Vec<Value> = standard_scenarios(smoke)
        .iter()
        .map(|(name, _, _)| Value::Str((*name).to_string()))
        .collect();
    let params = Value::Map(vec![
        ("requests".into(), Value::U64(knobs.requests as u64)),
        ("group_target".into(), Value::U64(knobs.group_target as u64)),
        ("offered_load".into(), Value::F64(knobs.offered_load)),
        ("sla_x".into(), Value::F64(knobs.sla_x)),
        ("cold_budget".into(), Value::U64(knobs.cold_budget as u64)),
        ("refine_budget".into(), Value::U64(knobs.refine_budget as u64)),
        ("cache_capacity".into(), Value::U64(knobs.cache_capacity as u64)),
        ("cache_epsilon".into(), Value::F64(knobs.cache_epsilon)),
        ("quant_step".into(), Value::F64(knobs.quant_step)),
        ("platform".into(), Value::Str("S2".into())),
        ("seed".into(), Value::U64(knobs.seed)),
        ("scenarios".into(), Value::Seq(names)),
    ]);
    ScenarioDescriptor::new("builtin", "standard_ladder", params)
}

/// Runs the standard scenario ladder under `knobs` on the default platform
/// (S2, the paper's main evaluation setting) and assembles the report.
pub fn run_standard_scenarios(knobs: &ServeKnobs, smoke: bool) -> ServeReport {
    let descriptor = builtin_serve_descriptor(knobs, smoke);
    run_scenarios(knobs, smoke, &Setting::S2.into(), standard_scenarios(smoke), descriptor)
}

/// Runs one registry-defined scenario and assembles a single-scenario report
/// embedding its descriptor: the scenario supplies the platform, mix and
/// arrival process. `knobs` are the resolved ones
/// ([`CustomScenario::apply`]) — its pinned trace length, offered load, seed
/// and serving block are already in place.
pub fn run_custom_scenario(
    knobs: &ServeKnobs,
    smoke: bool,
    custom: &CustomScenario,
) -> ServeReport {
    let scenarios = vec![(custom.name.as_str(), custom.scenario, custom.mix.clone())];
    run_scenarios(knobs, smoke, &custom.platform, scenarios, custom.descriptor.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_knobs() -> ServeKnobs {
        ServeKnobs {
            requests: 40,
            group_target: 8,
            cold_budget: 40,
            refine_budget: 4,
            cache_capacity: 8,
            ..ServeKnobs::smoke()
        }
    }

    /// `knobs` with `custom` resolved onto them, the way the binaries do it.
    fn resolved(knobs: ServeKnobs, custom: &CustomScenario) -> ServeKnobs {
        use magma_platform::settings::{FleetKnobs, ServerKnobs};
        let fleet = FleetKnobs { serve: knobs, ..FleetKnobs::smoke() };
        custom.apply(ServerKnobs { fleet, ..ServerKnobs::smoke() }).fleet.serve
    }

    #[test]
    fn smoke_ladder_has_the_acceptance_scenario() {
        let names: Vec<&str> = standard_scenarios(true).iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, ["poisson_mix", "repeated_tenant"]);
        let full: Vec<&str> = standard_scenarios(false).iter().map(|(n, _, _)| *n).collect();
        assert_eq!(full.len(), 4);
        assert!(full.contains(&"repeated_tenant"));
    }

    #[test]
    fn report_round_trips_through_serde_with_stable_keys() {
        let report = run_standard_scenarios(&tiny_knobs(), true);
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.scenarios.len(), 2);
        let json = serde_json::to_string_pretty(&report).unwrap();
        // The schema contract: these keys must never be renamed (only added
        // to, with a SCHEMA bump). v1 keys first, then the later additions.
        for key in [
            "\"schema\"",
            "\"mode\"",
            "\"seed\"",
            "\"cold_budget\"",
            "\"refine_budget\"",
            "\"cache_capacity\"",
            "\"scenarios\"",
            "\"name\"",
            "\"scenario\"",
            "\"requests\"",
            "\"group_target\"",
            "\"mean_interarrival_us\"",
            "\"sla_us\"",
            "\"metrics\"",
            "\"jobs\"",
            "\"duration_sec\"",
            "\"jobs_per_sec\"",
            "\"throughput_gflops\"",
            "\"queueing\"",
            "\"service\"",
            "\"end_to_end\"",
            "\"p50_sec\"",
            "\"p95_sec\"",
            "\"p99_sec\"",
            "\"tenants\"",
            "\"sla_violations\"",
            "\"cache\"",
            "\"hit_rate\"",
            "\"dispatch\"",
            "\"hit_cold_throughput_ratio\"",
            "\"hit_sample_fraction\"",
            // v2 additions.
            "\"near_hits\"",
            "\"sla_multiplier\"",
            // v3 additions.
            "\"scenario_descriptor\"",
            "\"source\"",
            "\"content_hash\"",
            "\"params\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        back.validate().expect("a freshly assembled report must self-check");
    }

    #[test]
    fn validate_rejects_a_corrupted_report() {
        // (The header — tag, mode, descriptor hash — is bent for every report
        // kind in `tests/integration_serve.rs`.)
        let mut empty = run_standard_scenarios(&tiny_knobs(), true);
        empty.scenarios.clear();
        assert!(empty.validate().is_err(), "a report without scenarios measured nothing");
    }

    #[test]
    fn custom_scenario_runs_and_embeds_its_descriptor() {
        let descriptor = ScenarioDescriptor::new(
            "registry",
            "test_custom",
            serde::Value::Map(vec![("platform".into(), serde::Value::Str("S1".into()))]),
        );
        let custom = CustomScenario {
            name: "test_custom".into(),
            scenario: Scenario::Poisson,
            mix: TenantMix::standard(),
            platform: PlatformSpec::Setting(Setting::S1),
            requests: Some(32),
            offered_load: None,
            seed: Some(9),
            cache_epsilon: None,
            refine_budget: None,
            quant_step: None,
            sla_x: None,
            descriptor,
        };
        let report = run_custom_scenario(&resolved(tiny_knobs(), &custom), true, &custom);
        report.validate().expect("custom-scenario report must self-check");
        assert_eq!(report.scenario_descriptor.source, "registry");
        assert_eq!(report.seed, 9);
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.scenarios[0].name, "test_custom");
        assert_eq!(report.scenarios[0].requests, 32);
        assert_eq!(report.scenarios[0].metrics.jobs, 32);
    }

    #[test]
    fn pinned_serving_block_overrides_the_knobs_in_the_report() {
        let knobs = tiny_knobs();
        let descriptor = ScenarioDescriptor::new("registry", "pinned", serde::Value::Null);
        let custom = CustomScenario {
            name: "pinned".into(),
            scenario: Scenario::Poisson,
            mix: TenantMix::standard(),
            platform: PlatformSpec::Setting(Setting::S1),
            requests: Some(16),
            offered_load: None,
            seed: None,
            cache_epsilon: Some(2.5),
            refine_budget: Some(7),
            quant_step: None,
            sla_x: None,
            descriptor,
        };
        let effective = resolved(knobs.clone(), &custom);
        assert_eq!(effective.cache_epsilon, 2.5);
        assert_eq!(effective.refine_budget, 7);
        assert_eq!(effective.quant_step, knobs.quant_step, "unpinned knob inherits");
        let report = run_custom_scenario(&effective, true, &custom);
        report.validate().expect("self-check");
        assert_eq!(report.refine_budget, 7, "report reflects the pinned serving config");
    }
}
