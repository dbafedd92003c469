//! Registry ↔ hardcoded equivalence suite (CI tier-1).
//!
//! The scenario registry holds the experiment space as committed JSON files,
//! the only definition of it; this suite locks down that the data and the
//! code the paper artefacts run cannot drift apart:
//!
//! * registry-resolved S1–S6 platforms are **bit-identical** to
//!   `magma_platform::settings::build`;
//! * registry-resolved mixes produce **bit-identical trace event streams**
//!   to the hardcoded `TenantMix` constructors under every arrival process;
//! * registry-run serving scenarios produce **bit-identical `BENCH`
//!   scenario blocks** to the hardcoded ladder at the same knobs, for all
//!   three arrival scenarios;
//! * the generated sweep stays wide enough for the acceptance criteria
//!   (≥ 20 generated scenarios, a 64-core asymmetric-BW mesh, a flash-crowd
//!   trace) and a generated scenario actually runs end to end.

use std::path::PathBuf;

use magma_model::{zoo, TaskType, TenantMix};
use magma_platform::settings::{self, FleetKnobs, ServeKnobs, ServerKnobs};
use magma_platform::Setting;
use magma_registry::Registry;
use magma_serve::report::{run_custom_scenario, run_standard_scenarios, ServeReport};
use magma_serve::trace::{generate_trace, Scenario, TraceParams};
use magma_serve::{BenchReport, CustomScenario};

/// The committed registry tree, independent of the test CWD.
fn committed_tree() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_registry() -> Registry {
    Registry::load_dir(&committed_tree()).expect("the committed scenarios/ tree validates")
}

/// Knobs small enough for an equivalence run, deterministic and
/// env-independent.
fn tiny_knobs() -> ServeKnobs {
    ServeKnobs {
        requests: 32,
        group_target: 8,
        cold_budget: 30,
        refine_budget: 3,
        ..ServeKnobs::smoke()
    }
}

/// Runs a resolved registry scenario the way `serve_sim --scenario` does:
/// the scenario applied onto the knob nest, then the report from the result.
fn run_resolved(knobs: &ServeKnobs, smoke: bool, resolved: &CustomScenario) -> ServeReport {
    let fleet = FleetKnobs { serve: knobs.clone(), ..FleetKnobs::smoke() };
    let knobs = resolved.apply(ServerKnobs { fleet, ..ServerKnobs::smoke() }).fleet.serve;
    run_custom_scenario(&knobs, smoke, resolved)
}

#[test]
fn registry_platforms_are_bit_identical_to_hardcoded_settings() {
    let registry = committed_registry();
    for setting in Setting::ALL {
        let built = registry.build_platform(&setting.to_string()).expect("registered");
        assert_eq!(built, settings::build(setting), "{setting} build drifted");
    }
}

#[test]
fn registry_mixes_are_bit_identical_to_hardcoded_mixes() {
    let registry = committed_registry();
    let standard = registry.mix("standard").expect("standard mix").build().expect("builds");
    assert_eq!(standard, TenantMix::standard());
    let repeated = registry.mix("repeated_tenant").expect("repeated mix").build().expect("builds");
    assert_eq!(
        repeated,
        TenantMix::single("recommendation", TaskType::Recommendation, vec![zoo::ncf()])
    );
}

#[test]
fn registry_mixes_generate_bit_identical_trace_streams() {
    let registry = committed_registry();
    let registry_standard = registry.mix("standard").unwrap().build().unwrap();
    let hardcoded = TenantMix::standard();
    // Same mix ⇒ same arrival stream under every arrival process.
    for scenario in [Scenario::Poisson, Scenario::Bursty, Scenario::Drift] {
        let params = TraceParams {
            scenario,
            requests: 64,
            mean_interarrival_sec: 250e-6,
            mini_batch: 4,
            seed: 42,
        };
        assert_eq!(
            generate_trace(&params, &registry_standard),
            generate_trace(&params, &hardcoded),
            "{scenario:?} trace stream drifted"
        );
    }
}

/// The headline equivalence: running the registry's committed scenario
/// files produces bit-identical `BENCH` scenario blocks to the hardcoded
/// ladder at the same knobs — for all four ladder entries, covering all
/// three arrival scenarios.
#[test]
fn registry_scenarios_reproduce_the_hardcoded_bench_output() {
    let registry = committed_registry();
    let knobs = tiny_knobs();
    // smoke=false so the builtin ladder includes bursty_mix and drift_mix.
    let builtin_report = run_standard_scenarios(&knobs, false);
    for name in ["poisson_mix", "repeated_tenant", "bursty_mix", "drift_mix"] {
        let resolved = registry.resolve(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let custom_report = run_resolved(&knobs, false, &resolved);
        assert_eq!(custom_report.scenario_descriptor.source, "registry");
        let builtin_block = builtin_report
            .scenarios
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("builtin ladder misses {name}"));
        assert_eq!(custom_report.scenarios.len(), 1, "{name}: one scenario per registry report");
        // Bit-identical serialized scenario block — metrics, latency
        // percentiles, cache counters, everything.
        assert_eq!(
            serde_json::to_string(&custom_report.scenarios[0]).unwrap(),
            serde_json::to_string(builtin_block).unwrap(),
            "{name} BENCH block drifted from the hardcoded ladder"
        );
    }
}

#[test]
fn generated_sweep_spans_the_acceptance_space() {
    let registry = committed_registry();
    let generated: Vec<String> = registry
        .scenario_names()
        .into_iter()
        .filter(|n| {
            !["poisson_mix", "repeated_tenant", "bursty_mix", "drift_mix"].contains(&n.as_str())
        })
        .collect();
    assert!(generated.len() >= 20, "only {} generated scenarios committed", generated.len());
    // The acceptance endpoints: a 64-core asymmetric-BW mesh and a
    // flash-crowd trace, committed and resolvable.
    let mesh = registry.platform("dc-mesh64-asymbw").expect("64-core mesh committed");
    assert_eq!(mesh.core_count(), 64);
    let flash = registry
        .resolve("dc-mesh64-asymbw-flash-crowd")
        .expect("flash-crowd scenario on the 64-core mesh resolves");
    assert_eq!(flash.scenario, Scenario::Bursty);
    assert_eq!(flash.platform.build().num_sub_accels(), 64);
}

/// A generated scenario actually runs end to end (small trace) and embeds
/// its registry descriptor in a validating report.
#[test]
fn generated_scenario_runs_end_to_end() {
    let registry = committed_registry();
    let resolved = registry.resolve("edge-duo-steady").expect("resolves");
    let mut knobs = tiny_knobs();
    knobs.requests = 16;
    let report = run_resolved(&knobs, true, &resolved);
    report.validate().expect("registry report validates");
    assert_eq!(report.scenario_descriptor.source, "registry");
    assert_eq!(report.scenario_descriptor.name, "edge-duo-steady");
    assert_eq!(report.scenarios.len(), 1);
    assert_eq!(report.scenarios[0].metrics.jobs, 16);
    // The generated scenario pinned its offered load (0.7) in the file.
    let resolved_load = resolved.offered_load.expect("steady profile pins its load");
    assert!((resolved_load - 0.7).abs() < 1e-12);
}

/// `--scenario <file>` path resolution: a scenario file resolves against
/// the registry named by `MAGMA_SCENARIO_DIR`.
#[test]
fn scenario_files_resolve_via_the_env_registry_root() {
    std::env::set_var("MAGMA_SCENARIO_DIR", committed_tree());
    let file = committed_tree().join("generated/traffic/dc-mesh64-asymbw-flash-crowd.json");
    let resolved = magma_registry::resolve_scenario_file(&file)
        .unwrap_or_else(|e| panic!("scenario file resolves: {e}"));
    assert_eq!(resolved.name, "dc-mesh64-asymbw-flash-crowd");
    assert_eq!(resolved.platform.build().num_sub_accels(), 64);
    assert!(resolved.descriptor.validate().is_ok());
    std::env::remove_var("MAGMA_SCENARIO_DIR");
}
