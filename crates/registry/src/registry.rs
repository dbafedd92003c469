//! The validating loader: walks a `scenarios/` tree, parses every `*.json`
//! into its definition type, rejects keys the type does not have,
//! range-checks each, rejects duplicates and dangling cross-references, and
//! resolves scenario definitions into runnable values.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use magma_model::zoo;
use magma_platform::{AcceleratorPlatform, PlatformSpec};
use magma_serve::{CustomScenario, ScenarioDescriptor};
use serde::{Deserialize, Serialize, Value};

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

/// Definition counts of a loaded registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of platform definitions.
    pub platforms: usize,
    /// Number of mix definitions.
    pub mixes: usize,
    /// Number of scenario definitions.
    pub scenarios: usize,
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

/// The first key of `file` that `def` — the definition parsed from it,
/// serialized back, so every field it has is a key — does not have, as a
/// dotted path from `at` (`traffic.offered_laod`, `cores[0].pe_colls`).
/// The derive reads fields by name and ignores every other key, so without
/// this walk a mistyped key silently inherits its default.
fn unknown_key(file: &Value, def: &Value, at: &str) -> Option<String> {
    match (file, def) {
        (Value::Map(entries), Value::Map(fields)) => entries.iter().find_map(|(key, value)| {
            let path = if at.is_empty() { key.clone() } else { format!("{at}.{key}") };
            match fields.iter().find(|(field, _)| field == key) {
                Some((_, known)) => unknown_key(value, known, &path),
                None => Some(path),
            }
        }),
        (Value::Seq(items), Value::Seq(known)) => items
            .iter()
            .zip(known)
            .enumerate()
            .find_map(|(i, (item, known))| unknown_key(item, known, &format!("{at}[{i}]"))),
        _ => None,
    }
}

/// Parses + key- and range-checks one definition of a known type.
fn parse_def<T>(
    path: &Path,
    value: &Value,
    validate: impl Fn(&T) -> Result<(), String>,
    name_of: impl Fn(&T) -> String,
) -> Result<T, RegistryError>
where
    T: Deserialize + Serialize,
{
    let parse_error = |message: String| RegistryError::Parse { path: path.to_path_buf(), message };
    let def = T::from_value(value).map_err(|e| parse_error(e.to_string()))?;
    if let Some(key) = unknown_key(value, &def_value(&def), "") {
        return Err(parse_error(format!(
            "unknown key {key:?} (the definition has no such field; check its spelling)"
        )));
    }
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
    /// JSON, unknown schema, unknown kind, unknown key, failed range
    /// validation, duplicate name — then, across the whole tree, dangling model
    /// references from mixes and dangling platform/mix references from
    /// scenarios.
    pub fn load_dir(dir: &Path) -> Result<Registry, RegistryError> {
        if !dir.is_dir() {
            return Err(RegistryError::Io {
                path: dir.to_path_buf(),
                message: "not a directory (set MAGMA_SCENARIO_DIR to the registry tree, \
                          default `scenarios/` in the repository root)"
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
    pub(crate) fn load_env() -> Result<Registry, RegistryError> {
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

    /// Registered platform names, sorted.
    pub(crate) fn platform_names(&self) -> Vec<String> {
        self.platforms.keys().cloned().collect()
    }

    /// Registered mix names, sorted.
    pub(crate) fn mix_names(&self) -> Vec<String> {
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

    /// Resolves a registered scenario by name into the value the serving
    /// drivers run.
    pub fn resolve(&self, name: &str) -> Result<CustomScenario, RegistryError> {
        let (path, def) = self.scenarios.get(name).ok_or_else(|| RegistryError::UnknownName {
            kind: "scenario",
            name: name.to_string(),
            known: self.scenario_names(),
        })?;
        self.resolve_def(def, path)
    }

    /// Resolves a validated scenario definition against this registry's
    /// platforms and mixes. `path` is only used in error messages.
    pub(crate) fn resolve_def(
        &self,
        def: &ScenarioDef,
        path: &Path,
    ) -> Result<CustomScenario, RegistryError> {
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
        // The descriptor embeds the *resolved* definitions — a report built
        // from this scenario is self-describing without the registry tree.
        let params = Value::Map(vec![
            ("scenario".to_string(), def_value(def)),
            ("platform".to_string(), def_value(platform_def)),
            ("mix".to_string(), def_value(mix_def)),
        ]);
        let serving = def.serving.as_ref();
        Ok(CustomScenario {
            name: def.name.clone(),
            scenario,
            mix,
            platform: PlatformSpec::Custom(platform_def.build()),
            requests: def.traffic.requests,
            offered_load: def.traffic.offered_load,
            seed: def.traffic.seed,
            cache_epsilon: serving.and_then(|s| s.cache_epsilon),
            refine_budget: serving.and_then(|s| s.refine_budget),
            quant_step: serving.and_then(|s| s.quant_step),
            sla_x: serving.and_then(|s| s.sla_x),
            descriptor: ScenarioDescriptor::new("registry", &def.name, params),
        })
    }
}

/// Resolves a single scenario **file** (the `--scenario <file>` path):
/// loads the registry from `magma_scenario_dir` for cross-references,
/// then parses, validates and resolves the file itself. The file does not
/// need to live inside the registry tree, but its platform/mix references
/// must resolve there.
pub fn resolve_scenario_file(path: &Path) -> Result<CustomScenario, RegistryError> {
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
    use crate::committed;
    use magma_platform::{settings, Setting};

    #[test]
    fn loads_and_resolves_the_generated_tree() {
        let registry = Registry::load_dir(&committed("")).expect("the committed tree loads");
        let stats = registry.stats();
        assert!(stats.platforms >= 6 + 2, "Table III + generated platforms: {stats:?}");
        assert!(stats.scenarios >= 20, "scenario explosion: {stats:?}");
        // Every registered scenario resolves (buildable platform + mix).
        for name in registry.scenario_names() {
            let resolved = registry.resolve(&name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(resolved.descriptor.validate().is_ok(), "{name}: descriptor self-checks");
            assert_eq!(resolved.descriptor.source, "registry");
        }
    }

    #[test]
    fn registry_platforms_match_hardcoded_settings() {
        let registry = Registry::load_dir(&committed("")).expect("loads");
        for setting in Setting::ALL {
            let built = registry.build_platform(&setting.to_string()).expect("registered");
            assert_eq!(built, settings::build(setting), "{setting} drifted");
        }
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
        let read = |rel: &str| std::fs::read_to_string(committed(rel)).unwrap();
        let s1 = read("platforms/s1.json");
        let standard = read("mixes/standard.json");

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
        let scenario = read("traffic/poisson_mix.json");
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

        // A mistyped key, in `traffic` and in a `cores` entry → Parse, naming
        // the file and the dotted key (the derive alone ignores the key, and
        // the run would take the default).
        let unknown_key = |file: &str, text: &str, key: &str| {
            write(file, text);
            match Registry::load_dir(&dir) {
                Err(e @ RegistryError::Parse { .. }) => {
                    let text = e.to_string();
                    assert!(text.contains(file) && text.contains(key), "{text}");
                }
                other => panic!("expected Parse naming {key}, got {other:?}"),
            }
            std::fs::remove_file(dir.join(file)).unwrap();
        };
        unknown_key(
            "typo_traffic.json",
            &scenario
                .replace("\"S2\"", "\"S1\"")
                .replace("\"offered_load\": null", "\"offered_laod\": 3.0"),
            "traffic.offered_laod",
        );
        unknown_key(
            "typo_core.json",
            &s1.replace("\"S1\"", "\"S1y\"").replace("\"pe_cols\"", "\"pe_colls\""),
            "cores[0].pe_colls",
        );

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
