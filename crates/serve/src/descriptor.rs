//! Self-describing scenario descriptors embedded in every `BENCH_*.json`
//! serving report.
//!
//! A [`ScenarioDescriptor`] records *what* a report measured: the scenario's
//! source (`builtin` for the hardcoded ladders, `registry` for a
//! `magma-registry` file), its name, the resolved parameter tree, and a
//! content hash over that tree so two reports can be compared for "same
//! scenario?" without diffing the whole parameter blob. Report `validate()`
//! self-checks recompute the hash, so a hand-edited report that changes the
//! parameters without re-hashing fails validation.

use crate::trace::Scenario;
use magma_model::TenantMix;
use magma_platform::settings::ServerKnobs;
use magma_platform::PlatformSpec;
use serde::{Deserialize, Serialize, Value};

/// The descriptor sources a report may carry.
pub const DESCRIPTOR_SOURCES: [&str; 2] = ["builtin", "registry"];

/// FNV-1a 64-bit hash — tiny, stable, dependency-free; plenty for
/// content-addressing scenario parameter trees (this is an integrity check
/// against accidental drift, not a cryptographic commitment).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// JSON-round-trips a value so its in-memory form matches what a reader of
/// the serialized report reconstructs (see [`ScenarioDescriptor::new`]).
fn canonicalize(v: Value) -> Value {
    serde_json::to_string(&v)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or(Value::Null)
}

/// The resolved description of the scenario a serving report measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDescriptor {
    /// Where the scenario came from: `"builtin"` (hardcoded ladder) or
    /// `"registry"` (a `magma-registry` scenario file).
    pub source: String,
    /// The scenario's name (ladder name for builtins, registry name
    /// otherwise).
    pub name: String,
    /// FNV-1a 64-bit hash (hex, `fnv1a64:` prefixed) of the compact JSON
    /// serialization of `params`.
    pub content_hash: String,
    /// The resolved parameter tree: for registry scenarios the full
    /// platform/mix/traffic definitions; for builtins the knob values that
    /// shaped the run.
    pub params: Value,
}

impl ScenarioDescriptor {
    /// Builds a descriptor, computing the content hash of `params`.
    ///
    /// `params` is canonicalized through a JSON round-trip first: the
    /// vendored serializer prints whole floats without a decimal point
    /// (`3.0` → `3`), which reparses as an integer — canonicalizing up
    /// front makes an in-memory descriptor bit-equal to its reloaded form,
    /// so report round-trip equality (and the determinism suite's
    /// bit-identical-JSON assertions) hold.
    pub fn new(source: &str, name: &str, params: Value) -> Self {
        let params = canonicalize(params);
        let content_hash = Self::hash_of(&params);
        ScenarioDescriptor {
            source: source.to_string(),
            name: name.to_string(),
            content_hash,
            params,
        }
    }

    /// The canonical content hash of a parameter tree: FNV-1a 64 over its
    /// compact JSON serialization.
    pub fn hash_of(params: &Value) -> String {
        let compact = serde_json::to_string(params).unwrap_or_default();
        format!("fnv1a64:{:016x}", fnv1a64(compact.as_bytes()))
    }

    /// Self-check: known source, non-empty name, and a content hash that
    /// matches a recomputation over `params`.
    pub fn validate(&self) -> Result<(), String> {
        if !DESCRIPTOR_SOURCES.contains(&self.source.as_str()) {
            return Err(format!(
                "scenario descriptor source {:?} not in {:?}",
                self.source, DESCRIPTOR_SOURCES
            ));
        }
        if self.name.trim().is_empty() {
            return Err("scenario descriptor name is empty".into());
        }
        let expect = Self::hash_of(&self.params);
        if self.content_hash != expect {
            return Err(format!(
                "scenario descriptor content_hash {:?} does not match params (expected {expect:?})",
                self.content_hash
            ));
        }
        Ok(())
    }
}

/// A fully resolved, data-driven scenario ready to run: everything the
/// hardcoded ladders derive from their names, as one value. Built by the
/// scenario registry (`magma-registry`) from a scenario file; its overrides
/// reach the knobs through [`CustomScenario::apply`], its mix, platform and
/// descriptor through [`crate::report::run_custom_scenario`],
/// [`crate::fleet::run_fleet_custom`] and
/// [`crate::sweep::run_cache_sweep_custom`].
#[derive(Debug, Clone, PartialEq)]
pub struct CustomScenario {
    /// The scenario's registry name (report scenario label).
    pub name: String,
    /// The arrival process.
    pub scenario: Scenario,
    /// The tenant mix driving the trace.
    pub mix: TenantMix,
    /// The platform to serve on (every fleet shard gets a copy).
    pub platform: PlatformSpec,
    /// Trace-length override; `None` inherits the knob.
    pub requests: Option<usize>,
    /// Offered-load override; `None` inherits the knob.
    pub offered_load: Option<f64>,
    /// Seed override; `None` inherits the knob.
    pub seed: Option<u64>,
    /// Near-hit epsilon override; `None` inherits the knob.
    pub cache_epsilon: Option<f64>,
    /// Refine-budget override; `None` inherits the knob.
    pub refine_budget: Option<usize>,
    /// Quantization-step override; `None` inherits the knob.
    pub quant_step: Option<f64>,
    /// SLA-multiplier override; `None` inherits the knob.
    pub sla_x: Option<f64>,
    /// The self-describing descriptor embedded in any report this scenario
    /// produces.
    pub descriptor: ScenarioDescriptor,
}

impl CustomScenario {
    /// Resolves this scenario onto the knob nest — the single place a
    /// scenario file meets the defaults and the environment
    /// ([`ServerKnobs::from_env`]). Each pinned value replaces its knob at
    /// every level that carries one (the trace length and offered load
    /// exist per driver), every `None` inherits, and the platform becomes
    /// the fleet's only shard setting. Drivers build their configs from the
    /// result and patch nothing afterwards.
    pub fn apply(&self, mut knobs: ServerKnobs) -> ServerKnobs {
        if let Some(requests) = self.requests {
            knobs.requests = requests;
            knobs.fleet.requests = requests;
            knobs.fleet.serve.requests = requests;
        }
        let fleet = &mut knobs.fleet;
        if let Some(load) = self.offered_load {
            fleet.offered_load = load;
            fleet.serve.offered_load = load;
        }
        fleet.shard_settings = vec![self.platform.clone()];
        let serve = &mut fleet.serve;
        serve.seed = self.seed.unwrap_or(serve.seed);
        serve.cache_epsilon = self.cache_epsilon.unwrap_or(serve.cache_epsilon);
        serve.refine_budget = self.refine_budget.unwrap_or(serve.refine_budget);
        serve.quant_step = self.quant_step.unwrap_or(serve.quant_step);
        serve.sla_x = self.sla_x.unwrap_or(serve.sla_x);
        knobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn descriptor_hash_is_stable_and_validated() {
        let params = Value::Map(vec![
            ("requests".into(), Value::U64(96)),
            ("scenario".into(), Value::Str("poisson_mix".into())),
        ]);
        let d = ScenarioDescriptor::new("builtin", "standard_ladder", params.clone());
        assert!(d.validate().is_ok());
        assert_eq!(d.content_hash, ScenarioDescriptor::hash_of(&params));
        assert!(d.content_hash.starts_with("fnv1a64:"));

        let mut tampered = d.clone();
        tampered.params = Value::Map(vec![("requests".into(), Value::U64(97))]);
        assert!(tampered.validate().is_err());

        let mut bad_source = d.clone();
        bad_source.source = "handwritten".into();
        assert!(bad_source.validate().is_err());

        let mut unnamed = d;
        unnamed.name = "  ".into();
        assert!(unnamed.validate().is_err());
    }

    /// What the binaries print in their banners is what the reports record:
    /// every pinned value lands in the resolved knobs, and each driver's
    /// report repeats the resolved knob, not a pre-override default.
    #[test]
    fn reports_record_the_knobs_apply_resolved() {
        use crate::fleet::run_fleet_custom;
        use crate::report::run_custom_scenario;
        use crate::sweep::run_cache_sweep_custom;
        use magma_platform::settings::{FleetKnobs, ServeKnobs};
        use magma_platform::Setting;

        let custom = CustomScenario {
            name: "pinned".into(),
            scenario: Scenario::Bursty,
            mix: TenantMix::standard(),
            platform: Setting::S1.into(),
            requests: Some(24),
            offered_load: Some(3.0),
            seed: Some(5),
            cache_epsilon: Some(2.5),
            refine_budget: None,
            quant_step: None,
            sla_x: Some(1.5),
            descriptor: ScenarioDescriptor::new("registry", "pinned", Value::Null),
        };
        let serve = ServeKnobs { group_target: 6, cold_budget: 30, ..ServeKnobs::smoke() };
        let fleet = FleetKnobs { serve, shards: 2, max_live: 2, ..FleetKnobs::smoke() };
        let knobs = custom.apply(ServerKnobs { fleet, ..ServerKnobs::smoke() });
        let (fleet, serve) = (&knobs.fleet, &knobs.fleet.serve);
        assert_eq!((knobs.requests, fleet.requests, serve.requests), (24, 24, 24));
        assert_eq!((fleet.offered_load, serve.offered_load), (3.0, 3.0));
        assert_eq!((serve.seed, serve.cache_epsilon, serve.sla_x), (5, 2.5, 1.5));
        assert_eq!(serve.refine_budget, ServeKnobs::smoke().refine_budget, "unpinned inherits");
        assert_eq!(fleet.shard_specs(2), vec![custom.platform.clone(); 2]);

        let report = run_custom_scenario(serve, true, &custom);
        assert_eq!(report.seed, serve.seed);
        assert_eq!(report.scenarios[0].requests, serve.requests);
        assert_eq!(report.scenarios[0].metrics.jobs, serve.requests);

        let report = run_fleet_custom(fleet, true, &custom);
        assert_eq!((report.requests, report.seed), (fleet.requests, serve.seed));
        assert_eq!(report.scenarios[0].offered_load, fleet.offered_load);
        assert_eq!(report.scenarios[0].sla_x, serve.sla_x);
        assert!(report.scenarios[0]
            .rungs
            .iter()
            .all(|r| r.shard_settings.iter().all(|s| s == "S1")));

        let report = run_cache_sweep_custom(serve, true, &custom);
        assert_eq!((report.requests, report.seed), (serve.requests, serve.seed));
        assert_eq!(report.default_epsilon, serve.cache_epsilon);
    }

    #[test]
    fn descriptor_round_trips_through_json() {
        let d = ScenarioDescriptor::new(
            "registry",
            "edge-duo-flash-crowd",
            Value::Map(vec![("load".into(), Value::F64(3.0))]),
        );
        let json = serde_json::to_string(&d).unwrap();
        let back: ScenarioDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert!(back.validate().is_ok());
    }
}
