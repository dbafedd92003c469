//! The validating loader: walks a `scenarios/` tree, parses every `*.json`
//! into its definition type, range-checks each, rejects duplicates and
//! dangling cross-references, and resolves scenario definitions into
//! runnable values.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use magma_model::{zoo, TenantMix};
use magma_platform::{AcceleratorPlatform, PlatformSpec};
use magma_serve::{CustomScenario, Scenario, ScenarioDescriptor};
use serde::{Deserialize, Value};

use crate::defs::{def_value, MixDef, PlatformDef, ScenarioDef};
use crate::error::RegistryError;
use crate::{magma_scenario_dir, REGISTRY_SCHEMA};

/// A loaded, fully validated registry: platform / mix / scenario definitions
/// keyed by name, each remembering the file it came from.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    platforms: BTreeMap<String, (PathBuf, PlatformDef)>,
    mixes: BTreeMap<String, (PathBuf, MixDef)>,
    scenarios: BTreeMap<String, (PathBuf, ScenarioDef)>,
}

/// What a registry holds, for `scenario_gen --check` reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of platform definitions.
    pub platforms: usize,
    /// Number of mix definitions.
    pub mixes: usize,
    /// Number of scenario definitions.
    pub scenarios: usize,
}

/// A scenario resolved against its registry: the built runtime values plus
/// the self-describing descriptor that lands in `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct ResolvedScenario {
    /// The scenario's registry name.
    pub name: String,
    /// The arrival process.
    pub scenario: Scenario,
    /// The platform definition the scenario referenced.
    pub platform_def: PlatformDef,
    /// The built platform.
    pub platform: AcceleratorPlatform,
    /// The built tenant mix.
    pub mix: TenantMix,
    /// Trace-length override (`None` inherits the knobs).
    pub requests: Option<usize>,
    /// Offered-load override (`None` inherits the knobs).
    pub offered_load: Option<f64>,
    /// Seed override (`None` inherits the knobs).
    pub seed: Option<u64>,
    /// Near-hit epsilon override (`None` inherits the knobs).
    pub cache_epsilon: Option<f64>,
    /// Refine-budget override (`None` inherits the knobs).
    pub refine_budget: Option<usize>,
    /// Quantization-step override (`None` inherits the knobs).
    pub quant_step: Option<f64>,
    /// SLA-multiplier override (`None` inherits the knobs).
    pub sla_x: Option<f64>,
    /// The descriptor embedding the full resolved definitions.
    pub descriptor: ScenarioDescriptor,
}

impl ResolvedScenario {
    /// The [`CustomScenario`] value the serving stack consumes: its
    /// overrides through `CustomScenario::apply`, the rest through
    /// `run_custom_scenario` / `run_fleet_custom` /
    /// `run_cache_sweep_custom`.
    pub fn custom(&self) -> CustomScenario {
        CustomScenario {
            name: self.name.clone(),
            scenario: self.scenario,
            mix: self.mix.clone(),
            platform: PlatformSpec::Custom(self.platform.clone()),
            requests: self.requests,
            offered_load: self.offered_load,
            seed: self.seed,
            cache_epsilon: self.cache_epsilon,
            refine_budget: self.refine_budget,
            quant_step: self.quant_step,
            sla_x: self.sla_x,
            descriptor: self.descriptor.clone(),
        }
    }
}

/// Recursively collects every `*.json` under `dir`, sorted for a
/// deterministic load (and therefore deterministic first-error reporting).
fn collect_json_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), RegistryError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| RegistryError::Io { path: dir.to_path_buf(), message: e.to_string() })?;
    for entry in entries {
        let entry = entry
            .map_err(|e| RegistryError::Io { path: dir.to_path_buf(), message: e.to_string() })?;
        let path = entry.path();
        if path.is_dir() {
            collect_json_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Parses one registry file into a raw [`Value`] and checks its schema tag,
/// returning the value and its `kind` string.
fn parse_registry_file(path: &Path) -> Result<(Value, String), RegistryError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RegistryError::Io { path: path.to_path_buf(), message: e.to_string() })?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| RegistryError::Parse { path: path.to_path_buf(), message: e.to_string() })?;
    let schema = match value.get("schema") {
        Value::Str(s) => s.clone(),
        Value::Null => "<missing schema field>".to_string(),
        other => format!("<non-string schema: {other:?}>"),
    };
    if schema != REGISTRY_SCHEMA {
        return Err(RegistryError::UnknownSchema { path: path.to_path_buf(), found: schema });
    }
    let kind = match value.get("kind") {
        Value::Str(s) => s.clone(),
        Value::Null => "<missing kind field>".to_string(),
        other => format!("<non-string kind: {other:?}>"),
    };
    Ok((value, kind))
}

/// Parses + range-checks one definition of a known type.
fn parse_def<T>(
    path: &Path,
    value: &Value,
    validate: impl Fn(&T) -> Result<(), String>,
    name_of: impl Fn(&T) -> String,
) -> Result<T, RegistryError>
where
    T: Deserialize,
{
    let def = T::from_value(value)
        .map_err(|e| RegistryError::Parse { path: path.to_path_buf(), message: e.to_string() })?;
    validate(&def).map_err(|message| RegistryError::Invalid {
        path: path.to_path_buf(),
        name: name_of(&def),
        message,
    })?;
    Ok(def)
}

impl Registry {
    /// Loads and fully validates every `*.json` under `dir` (recursively).
    ///
    /// Rejections, in check order per file: unreadable file, unparseable
    /// JSON, unknown schema, unknown kind, failed range validation,
    /// duplicate name — then, across the whole tree, dangling model
    /// references from mixes and dangling platform/mix references from
    /// scenarios.
    pub fn load_dir(dir: &Path) -> Result<Registry, RegistryError> {
        if !dir.is_dir() {
            return Err(RegistryError::Io {
                path: dir.to_path_buf(),
                message: "not a directory (set MAGMA_SCENARIO_DIR or run `scenario_gen --out` \
                          to create the registry tree)"
                    .to_string(),
            });
        }
        let mut files = Vec::new();
        collect_json_files(dir, &mut files)?;
        let mut registry = Registry::default();
        for path in files {
            registry.insert_file(&path)?;
        }
        registry.validate_cross_refs()?;
        Ok(registry)
    }

    /// Loads the registry from [`magma_scenario_dir`] (`MAGMA_SCENARIO_DIR`
    /// or the committed `scenarios/` tree).
    pub fn load_env() -> Result<Registry, RegistryError> {
        Registry::load_dir(&magma_scenario_dir())
    }

    /// Parses, validates and registers one file.
    fn insert_file(&mut self, path: &Path) -> Result<(), RegistryError> {
        let (value, kind) = parse_registry_file(path)?;
        match kind.as_str() {
            "platform" => {
                let def: PlatformDef =
                    parse_def(path, &value, PlatformDef::validate, |d| d.name.clone())?;
                if let Some((prior, _)) = self.platforms.get(&def.name) {
                    return Err(RegistryError::Duplicate {
                        kind: "platform",
                        name: def.name,
                        path: path.to_path_buf(),
                        prior: prior.clone(),
                    });
                }
                self.platforms.insert(def.name.clone(), (path.to_path_buf(), def));
            }
            "mix" => {
                let def: MixDef = parse_def(path, &value, MixDef::validate, |d| d.name.clone())?;
                if let Some((prior, _)) = self.mixes.get(&def.name) {
                    return Err(RegistryError::Duplicate {
                        kind: "mix",
                        name: def.name,
                        path: path.to_path_buf(),
                        prior: prior.clone(),
                    });
                }
                self.mixes.insert(def.name.clone(), (path.to_path_buf(), def));
            }
            "scenario" => {
                let def: ScenarioDef =
                    parse_def(path, &value, ScenarioDef::validate, |d| d.name.clone())?;
                if let Some((prior, _)) = self.scenarios.get(&def.name) {
                    return Err(RegistryError::Duplicate {
                        kind: "scenario",
                        name: def.name,
                        path: path.to_path_buf(),
                        prior: prior.clone(),
                    });
                }
                self.scenarios.insert(def.name.clone(), (path.to_path_buf(), def));
            }
            other => {
                return Err(RegistryError::UnknownKind {
                    path: path.to_path_buf(),
                    found: other.to_string(),
                })
            }
        }
        Ok(())
    }

    /// The tree-wide reference pass: every mix's model names must exist in
    /// the zoo, every scenario's platform and mix must be registered.
    fn validate_cross_refs(&self) -> Result<(), RegistryError> {
        for (path, mix) in self.mixes.values() {
            for model in mix.model_refs() {
                if zoo::by_name(model).is_none() {
                    return Err(RegistryError::DanglingRef {
                        path: path.clone(),
                        ref_kind: "model",
                        reference: model.to_string(),
                        from: mix.name.clone(),
                        known: zoo::models_for_task(magma_model::TaskType::Mix)
                            .iter()
                            .map(|m| m.name().to_string())
                            .collect(),
                    });
                }
            }
        }
        for (path, scenario) in self.scenarios.values() {
            if !self.platforms.contains_key(&scenario.platform) {
                return Err(RegistryError::DanglingRef {
                    path: path.clone(),
                    ref_kind: "platform",
                    reference: scenario.platform.clone(),
                    from: scenario.name.clone(),
                    known: self.platform_names(),
                });
            }
            if !self.mixes.contains_key(&scenario.mix) {
                return Err(RegistryError::DanglingRef {
                    path: path.clone(),
                    ref_kind: "mix",
                    reference: scenario.mix.clone(),
                    from: scenario.name.clone(),
                    known: self.mix_names(),
                });
            }
        }
        Ok(())
    }

    /// Looks up a platform definition by name.
    pub fn platform(&self, name: &str) -> Option<&PlatformDef> {
        self.platforms.get(name).map(|(_, def)| def)
    }

    /// Looks up a mix definition by name.
    pub fn mix(&self, name: &str) -> Option<&MixDef> {
        self.mixes.get(name).map(|(_, def)| def)
    }

    /// Looks up a scenario definition by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioDef> {
        self.scenarios.get(name).map(|(_, def)| def)
    }

    /// Registered platform names, sorted.
    pub fn platform_names(&self) -> Vec<String> {
        self.platforms.keys().cloned().collect()
    }

    /// Registered mix names, sorted.
    pub fn mix_names(&self) -> Vec<String> {
        self.mixes.keys().cloned().collect()
    }

    /// Registered scenario names, sorted.
    pub fn scenario_names(&self) -> Vec<String> {
        self.scenarios.keys().cloned().collect()
    }

    /// Definition counts.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            platforms: self.platforms.len(),
            mixes: self.mixes.len(),
            scenarios: self.scenarios.len(),
        }
    }

    /// Builds the runtime platform for a registered platform name.
    pub fn build_platform(&self, name: &str) -> Result<AcceleratorPlatform, RegistryError> {
        self.platform(name).map(PlatformDef::build).ok_or_else(|| RegistryError::UnknownName {
            kind: "platform",
            name: name.to_string(),
            known: self.platform_names(),
        })
    }

    /// Resolves a registered scenario by name into runnable values.
    pub fn resolve(&self, name: &str) -> Result<ResolvedScenario, RegistryError> {
        let (path, def) = self.scenarios.get(name).ok_or_else(|| RegistryError::UnknownName {
            kind: "scenario",
            name: name.to_string(),
            known: self.scenario_names(),
        })?;
        self.resolve_def(def, path)
    }

    /// Resolves a validated scenario definition against this registry's
    /// platforms and mixes. `path` is only used in error messages.
    pub fn resolve_def(
        &self,
        def: &ScenarioDef,
        path: &Path,
    ) -> Result<ResolvedScenario, RegistryError> {
        let platform_def =
            self.platform(&def.platform).ok_or_else(|| RegistryError::DanglingRef {
                path: path.to_path_buf(),
                ref_kind: "platform",
                reference: def.platform.clone(),
                from: def.name.clone(),
                known: self.platform_names(),
            })?;
        let mix_def = self.mix(&def.mix).ok_or_else(|| RegistryError::DanglingRef {
            path: path.to_path_buf(),
            ref_kind: "mix",
            reference: def.mix.clone(),
            from: def.name.clone(),
            known: self.mix_names(),
        })?;
        let invalid = |message: String| RegistryError::Invalid {
            path: path.to_path_buf(),
            name: def.name.clone(),
            message,
        };
        let scenario = def.traffic.process().map_err(&invalid)?;
        let mix = mix_def.build().map_err(&invalid)?;
        let platform = platform_def.build();
        // The descriptor embeds the *resolved* definitions — a report built
        // from this scenario is self-describing without the registry tree.
        let params = Value::Map(vec![
            ("scenario".to_string(), def_value(def)),
            ("platform".to_string(), def_value(platform_def)),
            ("mix".to_string(), def_value(mix_def)),
        ]);
        let descriptor = ScenarioDescriptor::new("registry", &def.name, params);
        Ok(ResolvedScenario {
            name: def.name.clone(),
            scenario,
            platform_def: platform_def.clone(),
            platform,
            mix,
            requests: def.traffic.requests,
            offered_load: def.traffic.offered_load,
            seed: def.traffic.seed,
            cache_epsilon: def.serving.as_ref().and_then(|s| s.cache_epsilon),
            refine_budget: def.serving.as_ref().and_then(|s| s.refine_budget),
            quant_step: def.serving.as_ref().and_then(|s| s.quant_step),
            sla_x: def.serving.as_ref().and_then(|s| s.sla_x),
            descriptor,
        })
    }
}

/// Resolves a single scenario **file** (the `--scenario <file>` path):
/// loads the registry from [`magma_scenario_dir`] for cross-references,
/// then parses, validates and resolves the file itself. The file does not
/// need to live inside the registry tree, but its platform/mix references
/// must resolve there.
pub fn resolve_scenario_file(path: &Path) -> Result<ResolvedScenario, RegistryError> {
    let registry = Registry::load_env()?;
    let (value, kind) = parse_registry_file(path)?;
    if kind != "scenario" {
        return Err(RegistryError::UnknownKind {
            path: path.to_path_buf(),
            found: format!("{kind} (expected a scenario file here)"),
        });
    }
    let def: ScenarioDef = parse_def(path, &value, ScenarioDef::validate, |d| d.name.clone())?;
    registry.resolve_def(&def, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::gen;
    use magma_platform::{settings, Setting};

    /// Writes the full builtin + generated tree under a fresh temp dir.
    fn temp_tree(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("magma-registry-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        gen::write_tree(&dir).expect("write tree");
        dir
    }

    #[test]
    fn loads_and_resolves_the_generated_tree() {
        let dir = temp_tree("load");
        let registry = Registry::load_dir(&dir).expect("loads");
        let stats = registry.stats();
        assert!(stats.platforms >= 6 + 2, "builtin + generated platforms: {stats:?}");
        assert!(stats.scenarios >= 20, "scenario explosion: {stats:?}");
        // Every registered scenario resolves (buildable platform + mix).
        for name in registry.scenario_names() {
            let resolved = registry.resolve(&name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(resolved.descriptor.validate().is_ok(), "{name}: descriptor self-checks");
            assert_eq!(resolved.descriptor.source, "registry");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_platforms_match_hardcoded_settings() {
        let dir = temp_tree("equiv");
        let registry = Registry::load_dir(&dir).expect("loads");
        for setting in Setting::ALL {
            let built = registry.build_platform(&setting.to_string()).expect("registered");
            assert_eq!(built, settings::build(setting), "{setting} drifted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_unknown_schema_kind_duplicates_and_dangling_refs() {
        let dir =
            std::env::temp_dir().join(format!("magma-registry-test-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            std::fs::write(dir.join(name), text).unwrap();
        };
        let s1 = serde_json::to_string_pretty(&builtin::platform_def_for(Setting::S1)).unwrap();
        let standard = serde_json::to_string_pretty(&builtin::builtin_mix_defs()[0]).unwrap();

        // Unknown schema version.
        write("bad_schema.json", &s1.replace("magma-registry/v1", "magma-registry/v9"));
        match Registry::load_dir(&dir) {
            Err(RegistryError::UnknownSchema { found, .. }) => {
                assert_eq!(found, "magma-registry/v9")
            }
            other => panic!("expected UnknownSchema, got {other:?}"),
        }
        std::fs::remove_file(dir.join("bad_schema.json")).unwrap();

        // Unknown kind.
        write("bad_kind.json", &s1.replace("\"platform\"", "\"chassis\""));
        assert!(matches!(
            Registry::load_dir(&dir),
            Err(RegistryError::UnknownKind { found, .. }) if found == "chassis"
        ));
        std::fs::remove_file(dir.join("bad_kind.json")).unwrap();

        // Duplicate name across two files.
        write("s1.json", &s1);
        write("s1_again.json", &s1);
        assert!(matches!(
            Registry::load_dir(&dir),
            Err(RegistryError::Duplicate { kind: "platform", .. })
        ));
        std::fs::remove_file(dir.join("s1_again.json")).unwrap();

        // Dangling model reference from a mix.
        write("bad_mix.json", &standard.replace("ResNet50", "ResNet5000"));
        match Registry::load_dir(&dir) {
            Err(RegistryError::DanglingRef { ref_kind: "model", reference, .. }) => {
                assert_eq!(reference, "ResNet5000")
            }
            other => panic!("expected dangling model ref, got {other:?}"),
        }
        std::fs::remove_file(dir.join("bad_mix.json")).unwrap();

        // Dangling platform / mix references from a scenario.
        write("standard.json", &standard);
        let scenario = serde_json::to_string_pretty(&builtin::builtin_scenario_defs()[0]).unwrap();
        write("bad_scenario.json", &scenario.replace("\"S2\"", "\"S99\""));
        assert!(matches!(
            Registry::load_dir(&dir),
            Err(RegistryError::DanglingRef { ref_kind: "platform", .. })
        ));
        std::fs::remove_file(dir.join("bad_scenario.json")).unwrap();
        write(
            "bad_scenario2.json",
            &scenario.replace("\"S2\"", "\"S1\"").replace("\"standard\"", "\"nonesuch\""),
        );
        assert!(matches!(
            Registry::load_dir(&dir),
            Err(RegistryError::DanglingRef { ref_kind: "mix", .. })
        ));
        std::fs::remove_file(dir.join("bad_scenario2.json")).unwrap();

        // Out-of-range value (zero PE rows) → Invalid.
        write(
            "zero_rows.json",
            &s1.replace("\"S1\"", "\"S1x\"").replace("\"pe_rows\": 32", "\"pe_rows\": 0"),
        );
        assert!(matches!(Registry::load_dir(&dir), Err(RegistryError::Invalid { .. })));
        std::fs::remove_file(dir.join("zero_rows.json")).unwrap();

        // Unparseable JSON → Parse.
        write("garbage.json", "{ not json");
        assert!(matches!(Registry::load_dir(&dir), Err(RegistryError::Parse { .. })));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_actionable_io_error() {
        let err = Registry::load_dir(Path::new("/nonexistent/magma-scenarios")).unwrap_err();
        match err {
            RegistryError::Io { message, .. } => assert!(message.contains("MAGMA_SCENARIO_DIR")),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
