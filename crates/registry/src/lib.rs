//! magma-registry — the declarative platform / tenant-mix / traffic-scenario
//! registry.
//!
//! The experiment space (Table III's S1–S6 platforms, the standard tenant
//! mixes, the Poisson/bursty/drift arrival ladders, and a sweep beyond them
//! from edge-SoC duos to 64-core asymmetric-bandwidth meshes) is **data**:
//! JSON definition files under the committed `scenarios/` tree, loaded and
//! validated by a [`Registry`], and resolved into runnable
//! [`CustomScenario`](magma_serve::CustomScenario) values that
//! `serve_sim` / `fleet_sim` / `cache_sweep` / `magma_server` accept via
//! `--scenario <file>` without recompilation. The files are the only
//! definition: adding a scenario means writing a file.
//!
//! ```text
//!  scenarios/                       Registry::load_dir
//!  ├── platforms/*.json   ──────▶   PlatformDef  ─┐
//!  ├── mixes/*.json       ──────▶   MixDef       ─┤  key, cross-ref + range
//!  ├── traffic/*.json     ──────▶   ScenarioDef  ─┘  validation
//!  └── generated/...                     │
//!                                        ▼  Registry::resolve
//!                                 CustomScenario
//!                                 (PlatformSpec + TenantMix +
//!                                  Scenario + ScenarioDescriptor)
//! ```
//!
//! # Definition files
//!
//! Every file carries `"schema": "magma-registry/v1"` and a `"kind"`
//! (`platform` / `mix` / `scenario`); unknown schemas and kinds are rejected
//! with actionable errors, as are keys the definition type does not have (a
//! typo would otherwise silently inherit the default), out-of-range values
//! (zero PE dims, non-positive bandwidth, zero weights), dangling
//! cross-references (a scenario naming an unknown platform or mix, a mix
//! naming a model the zoo does not have) and duplicate names. `null` on an
//! optional field means "use the default"; the committed files spell
//! defaults out.
//!
//! # Equivalence guarantee
//!
//! The data is checked against the code the paper artefacts run:
//! `tests/integration_registry.rs` locks down that the committed S1–S6
//! platforms build **bit-identical** to `magma_platform::settings::build`,
//! that the `standard` / `repeated_tenant` mixes equal the `TenantMix`
//! constructors (same trace event stream), and that the four ladder
//! scenarios reproduce the serve ladder's `BENCH` blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod defs;
pub mod error;
mod registry;

pub use defs::{
    CoreDef, MixDef, PlatformDef, ScenarioDef, ServingDef, SyntheticMixDef, TenantDef, TrafficDef,
};
pub use error::RegistryError;
pub use registry::{resolve_scenario_file, Registry, RegistryStats};

/// Schema tag every registry definition file must carry.
pub(crate) const REGISTRY_SCHEMA: &str = "magma-registry/v1";

/// The definition kinds the registry understands, in load order.
pub(crate) const REGISTRY_KINDS: [&str; 3] = ["platform", "mix", "scenario"];

/// The default committed registry root, relative to the repository root.
pub(crate) const DEFAULT_SCENARIO_DIR: &str = "scenarios";

/// The registry root directory: `MAGMA_SCENARIO_DIR` if set (and non-empty),
/// else [`DEFAULT_SCENARIO_DIR`].
pub(crate) fn magma_scenario_dir() -> std::path::PathBuf {
    match std::env::var("MAGMA_SCENARIO_DIR") {
        Ok(dir) if !dir.trim().is_empty() => std::path::PathBuf::from(dir),
        _ => std::path::PathBuf::from(DEFAULT_SCENARIO_DIR),
    }
}

/// A path in the committed `scenarios/` tree (`""` is its root): the unit
/// tests' fixtures are the files the binaries load.
#[cfg(test)]
pub(crate) fn committed(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(DEFAULT_SCENARIO_DIR)
        .join(rel)
}

/// Every definition in one directory of the committed tree, in file-name
/// order (parsed alone: no key, range or cross-reference check).
#[cfg(test)]
fn committed_defs<T: serde::Deserialize>(dir: &str) -> Vec<T> {
    let mut paths: Vec<_> = std::fs::read_dir(committed(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect()
}

/// The paper's definitions at the top of the committed tree: Table III's
/// S1–S6, the `standard` / `repeated_tenant` mixes and the serve ladder's
/// four scenarios.
#[cfg(test)]
mod builtin {
    use crate::{committed_defs, MixDef, PlatformDef, ScenarioDef};

    pub(crate) fn platforms() -> Vec<PlatformDef> {
        committed_defs("platforms")
    }

    pub(crate) fn mixes() -> Vec<MixDef> {
        committed_defs("mixes")
    }

    pub(crate) fn scenarios() -> Vec<ScenarioDef> {
        committed_defs("traffic")
    }

    mod tests {
        use super::*;

        #[test]
        fn builtin_defs_validate() {
            for def in platforms() {
                def.validate().unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
            for def in mixes() {
                def.validate().unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
            for def in scenarios() {
                def.validate().unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
        }

        #[test]
        fn builtin_scenarios_mirror_the_serve_ladder() {
            let defs = scenarios();
            let names: Vec<String> = defs.iter().map(|d| d.name.clone()).collect();
            assert_eq!(names, ["bursty_mix", "drift_mix", "poisson_mix", "repeated_tenant"]);
            assert!(defs.iter().all(|d| d.platform == "S2"));
            // The ladder's knobs come from the run, never from the file.
            assert!(defs.iter().all(|d| d.traffic.requests.is_none()
                && d.traffic.offered_load.is_none()
                && d.traffic.seed.is_none()));
        }
    }
}

/// The sweep beyond the paper under `scenarios/generated/`.
#[cfg(test)]
mod gen {
    mod tests {
        use crate::{committed_defs, MixDef, PlatformDef, ScenarioDef};

        #[test]
        fn generated_defs_validate_and_span_the_acceptance_space() {
            let platforms: Vec<PlatformDef> = committed_defs("generated/platforms");
            for def in &platforms {
                def.validate().unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
            // The acceptance criteria demand a 64-core asymmetric-BW mesh…
            let mesh =
                platforms.iter().find(|p| p.name == "dc-mesh64-asymbw").expect("64-core mesh");
            assert_eq!(mesh.core_count(), 64);
            let styles: std::collections::BTreeSet<&str> =
                mesh.cores.iter().map(|c| c.dataflow.as_str()).collect();
            assert!(styles.len() > 1, "mixes HB and LB core classes");
            // …and an edge-SoC duo at the other end.
            let duo = platforms.iter().find(|p| p.name == "edge-duo").expect("edge duo");
            assert_eq!(duo.core_count(), 2);

            for def in committed_defs::<MixDef>("generated/mixes") {
                def.validate().unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
            let scenarios: Vec<ScenarioDef> = committed_defs("generated/traffic");
            assert!(scenarios.len() >= 20, "scenario explosion: {}", scenarios.len());
            for def in &scenarios {
                def.validate().unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
            assert!(
                scenarios.iter().any(|s| s.name == "dc-mesh64-asymbw-flash-crowd"),
                "flash-crowd trace on the 64-core mesh exists"
            );
        }
    }
}
