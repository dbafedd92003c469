//! The definition types a registry file deserializes into, with their
//! range/consistency validation and builders into runtime values.
//!
//! Design notes for the vendored mini-serde: optional JSON fields must be
//! `Option<T>` (a missing key deserializes as `None`, and `None` serializes
//! back as an explicit `null`), and there are no field attributes — so every
//! default lives in the builder (`pe_cols: None` → 64 columns), not in the
//! serde layer.

use magma_cost::{DataflowStyle, SubAccelConfig};
use magma_model::{zoo, TaskType, Tenant, TenantMix};
use magma_platform::AcceleratorPlatform;
use magma_serve::Scenario;
use serde::{Deserialize, Serialize, Value};

/// Bytes per KB — scratchpad sizes are specified in KB in registry files,
/// matching Table III's units.
pub(crate) const KB: usize = 1024;

/// Default PE-array column count when a core omits `pe_cols` (Table III
/// fixes 64 columns for every setting).
pub(crate) const DEFAULT_PE_COLS: usize = 64;

/// Parses a registry task string into a [`TaskType`].
///
/// Accepted (case-insensitive): `vision`, `language`, `recommendation`,
/// `mix`.
pub(crate) fn parse_task(s: &str) -> Option<TaskType> {
    match s.trim().to_ascii_lowercase().as_str() {
        "vision" => Some(TaskType::Vision),
        "language" => Some(TaskType::Language),
        "recommendation" => Some(TaskType::Recommendation),
        "mix" => Some(TaskType::Mix),
        _ => None,
    }
}

/// Parses a registry dataflow string into a [`DataflowStyle`].
///
/// Accepted (case-insensitive): `hb` / `highbandwidth` (NVDLA-style
/// weight-stationary) and `lb` / `lowbandwidth` (ShiDianNao-style
/// output-stationary).
pub(crate) fn parse_dataflow(s: &str) -> Option<DataflowStyle> {
    match s.trim().to_ascii_lowercase().as_str() {
        "hb" | "highbandwidth" => Some(DataflowStyle::HighBandwidth),
        "lb" | "lowbandwidth" => Some(DataflowStyle::LowBandwidth),
        _ => None,
    }
}

/// Parses a registry arrival-process string into a [`Scenario`].
///
/// Accepted (case-insensitive): `poisson`, `bursty`, `drift`.
pub(crate) fn parse_process(s: &str) -> Option<Scenario> {
    match s.trim().to_ascii_lowercase().as_str() {
        "poisson" => Some(Scenario::Poisson),
        "bursty" => Some(Scenario::Bursty),
        "drift" => Some(Scenario::Drift),
        _ => None,
    }
}

/// Serializes a definition into its canonical [`Value`] tree (used to embed
/// resolved definitions in scenario descriptors).
pub(crate) fn def_value<T: Serialize>(def: &T) -> Value {
    def.to_value()
}

/// One accelerator core class inside a [`PlatformDef`]: `count` identical
/// sub-accelerator cores sharing PE-array shape, dataflow and buffering.
///
/// With `count > 1` the expanded cores are named `{name}0..{name}{count-1}`
/// (matching the hardcoded Table III naming, e.g. `S1-hb` × 4 →
/// `S1-hb0..S1-hb3`); with `count` 1 (or omitted) the name is used verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreDef {
    /// Core-class name (expansion prefix when `count > 1`).
    pub name: String,
    /// Number of identical cores of this class; `null` means 1.
    pub count: Option<usize>,
    /// PE-array rows.
    pub pe_rows: usize,
    /// PE-array columns; `null` means `DEFAULT_PE_COLS`.
    pub pe_cols: Option<usize>,
    /// Dataflow style: `hb` or `lb` (see `parse_dataflow`).
    pub dataflow: String,
    /// Global scratchpad capacity in KB.
    pub sg_kb: usize,
    /// Per-PE local scratchpad in bytes; `null` means the cost model's
    /// default.
    pub sl_bytes: Option<usize>,
    /// Clock frequency in MHz; `null` means the cost model's default.
    pub frequency_mhz: Option<f64>,
    /// Run-time configurable PE-array shape (Section VI-F); `null` means
    /// fixed-shape.
    pub flexible: Option<bool>,
}

impl CoreDef {
    /// Range-checks this core class. Returns the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("core name is empty".into());
        }
        if self.count == Some(0) {
            return Err(format!("core {:?} has count 0 (omit the core instead)", self.name));
        }
        if self.pe_rows == 0 {
            return Err(format!("core {:?} has zero PE rows", self.name));
        }
        if self.pe_cols == Some(0) {
            return Err(format!("core {:?} has zero PE columns", self.name));
        }
        if parse_dataflow(&self.dataflow).is_none() {
            return Err(format!(
                "core {:?} has unknown dataflow {:?} (expected hb or lb)",
                self.name, self.dataflow
            ));
        }
        if self.sg_kb == 0 {
            return Err(format!("core {:?} has a zero-KB global scratchpad", self.name));
        }
        if self.sl_bytes == Some(0) {
            return Err(format!("core {:?} has a zero-byte local scratchpad", self.name));
        }
        if let Some(f) = self.frequency_mhz {
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("core {:?} has non-positive frequency {f} MHz", self.name));
            }
        }
        Ok(())
    }

    /// The expanded core names this class contributes.
    pub(crate) fn expanded_names(&self) -> Vec<String> {
        let count = self.count.unwrap_or(1);
        if count == 1 {
            vec![self.name.clone()]
        } else {
            (0..count).map(|i| format!("{}{i}", self.name)).collect()
        }
    }

    /// Expands this class into its [`SubAccelConfig`] cores. Must only be
    /// called on a validated def (panics on invalid dims, like the hardcoded
    /// builders).
    pub(crate) fn build_into(&self, cores: &mut Vec<SubAccelConfig>) {
        let dataflow = parse_dataflow(&self.dataflow)
            .unwrap_or_else(|| panic!("core {:?}: unvalidated dataflow", self.name));
        for name in self.expanded_names() {
            let mut core = SubAccelConfig::new(
                name,
                self.pe_rows,
                self.pe_cols.unwrap_or(DEFAULT_PE_COLS),
                dataflow,
                self.sg_kb * KB,
            );
            if let Some(sl) = self.sl_bytes {
                core = core.with_sl_bytes(sl);
            }
            if let Some(f) = self.frequency_mhz {
                core = core.with_frequency_mhz(f);
            }
            if let Some(flexible) = self.flexible {
                core = core.with_flexible_shape(flexible);
            }
            cores.push(core);
        }
    }
}

/// A multi-core accelerator platform definition (`"kind": "platform"`) —
/// the registry form of a Table III row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformDef {
    /// Must equal `REGISTRY_SCHEMA`.
    pub schema: String,
    /// Must be `"platform"`.
    pub kind: String,
    /// Platform name — what scenarios reference and reports label runs with.
    pub name: String,
    /// Free-form description; `null` allowed.
    pub description: Option<String>,
    /// Shared system (DRAM) bandwidth in GB/s.
    pub system_bw_gbps: f64,
    /// The core classes; expanded in order.
    pub cores: Vec<CoreDef>,
}

impl PlatformDef {
    /// Range- and consistency-checks the platform definition.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("platform name is empty".into());
        }
        if !self.system_bw_gbps.is_finite() || self.system_bw_gbps <= 0.0 {
            return Err(format!(
                "system_bw_gbps must be finite and positive, got {}",
                self.system_bw_gbps
            ));
        }
        if self.cores.is_empty() {
            return Err("a platform needs at least one core".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for core in &self.cores {
            core.validate()?;
            for name in core.expanded_names() {
                if !seen.insert(name.clone()) {
                    return Err(format!(
                        "expanded core name {name:?} collides (check core class names/counts)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Total expanded core count.
    pub fn core_count(&self) -> usize {
        self.cores.iter().map(|c| c.count.unwrap_or(1)).sum()
    }

    /// Builds the runtime [`AcceleratorPlatform`]. Call only after
    /// `PlatformDef::validate`.
    pub fn build(&self) -> AcceleratorPlatform {
        let mut cores = Vec::with_capacity(self.core_count());
        for core in &self.cores {
            core.build_into(&mut cores);
        }
        AcceleratorPlatform::new(self.name.clone(), cores, self.system_bw_gbps)
    }
}

/// One tenant in an explicit [`MixDef`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantDef {
    /// Tenant name (appears in per-tenant metrics).
    pub name: String,
    /// Task category: `vision` / `language` / `recommendation` / `mix`.
    pub task: String,
    /// Zoo model names this tenant owns (case-insensitive lookup).
    pub models: Vec<String>,
    /// Relative traffic weight.
    pub weight: f64,
    /// Per-tenant SLA contract multiplier; `null` means the uniform bound.
    pub sla_multiplier: Option<f64>,
}

impl TenantDef {
    /// Range-checks the tenant (model-name existence is the registry's
    /// cross-reference pass, not this check).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("tenant name is empty".into());
        }
        if parse_task(&self.task).is_none() {
            return Err(format!(
                "tenant {:?} has unknown task {:?} (expected vision, language, \
                 recommendation or mix)",
                self.name, self.task
            ));
        }
        if self.models.is_empty() {
            return Err(format!("tenant {:?} owns no models", self.name));
        }
        if !self.weight.is_finite() || self.weight <= 0.0 {
            return Err(format!("tenant {:?} has non-positive weight {}", self.name, self.weight));
        }
        if let Some(x) = self.sla_multiplier {
            if !x.is_finite() || x <= 0.0 {
                return Err(format!("tenant {:?} has non-positive SLA multiplier {x}", self.name));
            }
        }
        Ok(())
    }

    /// Builds the runtime [`Tenant`], resolving model names against the zoo.
    pub fn build(&self) -> Result<Tenant, String> {
        let task = parse_task(&self.task)
            .ok_or_else(|| format!("tenant {:?}: unvalidated task {:?}", self.name, self.task))?;
        let models = self
            .models
            .iter()
            .map(|m| {
                zoo::by_name(m)
                    .ok_or_else(|| format!("tenant {:?}: unknown model {m:?}", self.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tenant = Tenant::new(self.name.clone(), task, models, self.weight);
        Ok(match self.sla_multiplier {
            Some(x) => tenant.with_sla_multiplier(x),
            None => tenant,
        })
    }
}

/// Parameters of a synthetic fleet-scale mix
/// ([`TenantMix::synthetic`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticMixDef {
    /// Number of synthetic tenants.
    pub tenants: usize,
    /// Seed deterministically assigning models/weights/SLA contracts.
    pub seed: u64,
}

/// A tenant-mix definition (`"kind": "mix"`): either an explicit tenant
/// list or a synthetic fleet-scale mix — exactly one of the two.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixDef {
    /// Must equal `REGISTRY_SCHEMA`.
    pub schema: String,
    /// Must be `"mix"`.
    pub kind: String,
    /// Mix name — what scenarios reference.
    pub name: String,
    /// Free-form description; `null` allowed.
    pub description: Option<String>,
    /// Explicit tenants (exclusive with `synthetic`).
    pub tenants: Option<Vec<TenantDef>>,
    /// Synthetic mix parameters (exclusive with `tenants`).
    pub synthetic: Option<SyntheticMixDef>,
    /// SLA contract multiplier applied to every explicit tenant that does
    /// not pin its own `sla_multiplier`; `null` means the uniform bound.
    /// Only valid on explicit mixes (synthetic mixes derive contracts from
    /// their seed).
    pub default_sla_multiplier: Option<f64>,
}

impl MixDef {
    /// Range- and consistency-checks the mix definition.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("mix name is empty".into());
        }
        match (&self.tenants, &self.synthetic) {
            (Some(_), Some(_)) => {
                return Err("a mix is either explicit tenants or synthetic, not both".into())
            }
            (None, None) => {
                return Err("a mix needs either a tenants list or a synthetic block".into())
            }
            (Some(tenants), None) => {
                if tenants.is_empty() {
                    return Err("the tenants list is empty".into());
                }
                let mut seen = std::collections::BTreeSet::new();
                for t in tenants {
                    t.validate()?;
                    if !seen.insert(t.name.clone()) {
                        return Err(format!("duplicate tenant name {:?}", t.name));
                    }
                }
            }
            (None, Some(synth)) => {
                if synth.tenants == 0 {
                    return Err("a synthetic mix needs at least one tenant".into());
                }
                if self.default_sla_multiplier.is_some() {
                    return Err("default SLA multiplier requires an explicit tenants list \
                         (synthetic mixes derive contracts from their seed)"
                        .into());
                }
            }
        }
        if let Some(x) = self.default_sla_multiplier {
            if !x.is_finite() || x <= 0.0 {
                return Err(format!(
                    "mix {:?} has non-positive default SLA multiplier {x}",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Every model name this mix references (for the registry's dangling-ref
    /// pass).
    pub(crate) fn model_refs(&self) -> Vec<&str> {
        self.tenants.iter().flatten().flat_map(|t| t.models.iter().map(String::as_str)).collect()
    }

    /// Builds the runtime [`TenantMix`]. Call only after
    /// `MixDef::validate` and the registry's model cross-reference pass.
    pub fn build(&self) -> Result<TenantMix, String> {
        if let Some(synth) = &self.synthetic {
            return Ok(TenantMix::synthetic(synth.tenants, synth.seed));
        }
        let tenants = self
            .tenants
            .as_ref()
            .ok_or_else(|| format!("mix {:?}: unvalidated empty mix", self.name))?
            .iter()
            .map(|t| {
                let built = t.build()?;
                Ok(match (t.sla_multiplier, self.default_sla_multiplier) {
                    (None, Some(x)) => built.with_sla_multiplier(x),
                    _ => built,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TenantMix::new(tenants))
    }
}

/// The traffic block of a [`ScenarioDef`]: arrival process plus optional
/// scale overrides (`null` inherits the serving knobs, so the same scenario
/// file runs at smoke and full scale).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficDef {
    /// Arrival process: `poisson` / `bursty` / `drift`
    /// (see `parse_process`).
    pub process: String,
    /// Trace length override; `null` inherits the `requests` knob.
    pub requests: Option<usize>,
    /// Offered-load override (fraction of ideal service rate); `null`
    /// inherits the `offered_load` knob.
    pub offered_load: Option<f64>,
    /// Seed override; `null` inherits the `seed` knob.
    pub seed: Option<u64>,
}

impl TrafficDef {
    /// Range-checks the traffic block.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if parse_process(&self.process).is_none() {
            return Err(format!(
                "unknown arrival process {:?} (expected poisson, bursty or drift)",
                self.process
            ));
        }
        if self.requests == Some(0) {
            return Err("requests override must be positive".into());
        }
        if let Some(load) = self.offered_load {
            if !load.is_finite() || load <= 0.0 {
                return Err(format!("offered_load must be finite and positive, got {load}"));
            }
        }
        Ok(())
    }

    /// The parsed arrival process. Call only after
    /// [`TrafficDef::validate`].
    pub(crate) fn process(&self) -> Result<Scenario, String> {
        parse_process(&self.process)
            .ok_or_else(|| format!("unvalidated arrival process {:?}", self.process))
    }
}

/// The optional serving block of a [`ScenarioDef`]: cache/dispatch knobs a
/// scenario pins so it carries its *full* serving configuration, not just
/// workload and traffic. Every field is optional — `null` inherits the
/// `ServeKnobs` default, so the same file still runs at smoke and full
/// scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingDef {
    /// Near-hit probe threshold override (mean per-job signature distance);
    /// `0` disables the probe. `null` inherits `cache_epsilon`.
    pub cache_epsilon: Option<f64>,
    /// Refine-budget override for cache hits; `null` inherits
    /// `refine_budget`.
    pub refine_budget: Option<usize>,
    /// Signature-key quantization step override; `null` inherits
    /// `quant_step`.
    pub quant_step: Option<f64>,
    /// Uniform SLA bound multiplier override; `null` inherits `sla_x`.
    pub sla_x: Option<f64>,
}

impl ServingDef {
    /// Range-checks the serving block.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if let Some(eps) = self.cache_epsilon {
            if !eps.is_finite() || eps < 0.0 {
                return Err(format!("cache_epsilon must be finite and >= 0, got {eps}"));
            }
        }
        if self.refine_budget == Some(0) {
            return Err("refine_budget override must be positive".into());
        }
        if let Some(q) = self.quant_step {
            if !q.is_finite() || q <= 0.0 {
                return Err(format!("quant_step must be finite and positive, got {q}"));
            }
        }
        if let Some(x) = self.sla_x {
            if !x.is_finite() || x <= 0.0 {
                return Err(format!("sla_x must be finite and positive, got {x}"));
            }
        }
        Ok(())
    }
}

/// A runnable scenario definition (`"kind": "scenario"`): a platform
/// reference, a mix reference, a traffic block and an optional serving
/// block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDef {
    /// Must equal `REGISTRY_SCHEMA`.
    pub schema: String,
    /// Must be `"scenario"`.
    pub kind: String,
    /// Scenario name — the report label and `Registry::resolve` key.
    pub name: String,
    /// Free-form description; `null` allowed.
    pub description: Option<String>,
    /// Name of a registered platform definition.
    pub platform: String,
    /// Name of a registered mix definition.
    pub mix: String,
    /// The traffic block.
    pub traffic: TrafficDef,
    /// Optional serving-configuration block; `null` inherits every knob.
    pub serving: Option<ServingDef>,
}

impl ScenarioDef {
    /// Range-checks the scenario definition (reference existence is the
    /// registry's cross-reference pass).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("scenario name is empty".into());
        }
        if self.platform.trim().is_empty() {
            return Err("platform reference is empty".into());
        }
        if self.mix.trim().is_empty() {
            return Err("mix reference is empty".into());
        }
        self.traffic.validate()?;
        if let Some(serving) = &self.serving {
            serving.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_platform::{settings, Setting};

    /// One definition of the committed `scenarios/` tree.
    fn committed<T: Deserialize>(rel: &str) -> T {
        let text = std::fs::read_to_string(crate::committed(rel)).unwrap();
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"))
    }

    fn s1() -> PlatformDef {
        committed("platforms/s1.json")
    }

    fn standard() -> MixDef {
        committed("mixes/standard.json")
    }

    fn poisson_mix() -> ScenarioDef {
        committed("traffic/poisson_mix.json")
    }

    #[test]
    fn parse_helpers_cover_registry_vocabulary() {
        assert_eq!(parse_task("Vision"), Some(TaskType::Vision));
        assert_eq!(parse_task("RECOMMENDATION"), Some(TaskType::Recommendation));
        assert_eq!(parse_task("speech"), None);
        assert_eq!(parse_dataflow("hb"), Some(DataflowStyle::HighBandwidth));
        assert_eq!(parse_dataflow("LowBandwidth"), Some(DataflowStyle::LowBandwidth));
        assert_eq!(parse_dataflow("systolic"), None);
        assert_eq!(parse_process("Poisson"), Some(Scenario::Poisson));
        assert_eq!(parse_process("drift"), Some(Scenario::Drift));
        assert_eq!(parse_process("uniform"), None);
    }

    #[test]
    fn builtin_platform_defs_build_bit_identical_settings() {
        let defs = crate::builtin::platforms();
        for setting in Setting::ALL {
            let name = setting.to_string();
            let def = defs.iter().find(|d| d.name == name).expect("Table III row committed");
            def.validate().unwrap_or_else(|e| panic!("{setting}: {e}"));
            assert_eq!(def.build(), settings::build(setting), "{setting} differs");
        }
    }

    #[test]
    fn builtin_mix_defs_build_bit_identical_mixes() {
        let defs = crate::builtin::mixes();
        let standard = defs.iter().find(|d| d.name == "standard").expect("standard mix");
        standard.validate().expect("valid");
        assert_eq!(standard.build().expect("builds"), TenantMix::standard());

        let repeated =
            defs.iter().find(|d| d.name == "repeated_tenant").expect("repeated_tenant mix");
        assert_eq!(
            repeated.build().expect("builds"),
            TenantMix::single("recommendation", TaskType::Recommendation, vec![zoo::ncf()])
        );
    }

    #[test]
    fn core_expansion_matches_table_iii_naming() {
        let quad = CoreDef {
            name: "S1-hb".into(),
            count: Some(4),
            pe_rows: 32,
            pe_cols: None,
            dataflow: "hb".into(),
            sg_kb: 146,
            sl_bytes: None,
            frequency_mhz: None,
            flexible: None,
        };
        assert_eq!(quad.expanded_names(), ["S1-hb0", "S1-hb1", "S1-hb2", "S1-hb3"]);
        let single = CoreDef { name: "S2-lb0".into(), count: None, ..quad.clone() };
        assert_eq!(single.expanded_names(), ["S2-lb0"]);
    }

    #[test]
    fn rejects_out_of_range_platform_values() {
        let mut def = s1();
        def.system_bw_gbps = 0.0;
        assert!(def.validate().unwrap_err().contains("system_bw_gbps"));

        let mut def = s1();
        def.system_bw_gbps = -4.0;
        assert!(def.validate().is_err());

        let mut def = s1();
        def.cores[0].pe_rows = 0;
        assert!(def.validate().unwrap_err().contains("PE rows"));

        let mut def = s1();
        def.cores[0].dataflow = "warp".into();
        assert!(def.validate().unwrap_err().contains("unknown dataflow"));

        let mut def = s1();
        def.cores.clear();
        assert!(def.validate().is_err());

        // Colliding expansion: two classes expanding to the same name.
        let mut def = committed::<PlatformDef>("platforms/s2.json");
        def.cores[1].name = "S2-hb0".into();
        assert!(def.validate().unwrap_err().contains("collides"));
    }

    #[test]
    fn rejects_out_of_range_mix_values() {
        let mut def = standard();
        def.tenants.as_mut().unwrap()[0].weight = 0.0;
        assert!(def.validate().unwrap_err().contains("weight"));

        let mut def = standard();
        def.tenants.as_mut().unwrap()[0].task = "speech".into();
        assert!(def.validate().unwrap_err().contains("unknown task"));

        let mut def = standard();
        def.tenants.as_mut().unwrap()[0].sla_multiplier = Some(-1.0);
        assert!(def.validate().unwrap_err().contains("SLA"));

        let mut def = standard();
        def.synthetic = Some(SyntheticMixDef { tenants: 8, seed: 1 });
        assert!(def.validate().unwrap_err().contains("not both"));

        let mut def = standard();
        def.tenants = None;
        assert!(def.validate().unwrap_err().contains("either"));

        let mut def = standard();
        def.default_sla_multiplier = Some(0.0);
        assert!(def.validate().unwrap_err().contains("default SLA multiplier"));

        let mut def = standard();
        def.default_sla_multiplier = Some(f64::NAN);
        assert!(def.validate().is_err());

        let mut def = standard();
        def.tenants = None;
        def.synthetic = Some(SyntheticMixDef { tenants: 8, seed: 1 });
        def.default_sla_multiplier = Some(2.0);
        assert!(def.validate().unwrap_err().contains("explicit tenants"));
    }

    #[test]
    fn default_sla_multiplier_fills_unpinned_tenants_only() {
        let mut def = standard();
        let tenants = def.tenants.as_mut().unwrap();
        tenants[0].sla_multiplier = Some(0.5);
        def.default_sla_multiplier = Some(2.0);
        def.validate().expect("valid");
        let mix = def.build().expect("builds");
        assert_eq!(mix.tenants()[0].sla_multiplier(), Some(0.5), "pinned tenant keeps its own");
        for t in &mix.tenants()[1..] {
            assert_eq!(t.sla_multiplier(), Some(2.0), "unpinned tenant inherits the default");
        }
    }

    #[test]
    fn rejects_out_of_range_serving_values() {
        let base = poisson_mix();

        let mut def = base.clone();
        def.serving = Some(ServingDef {
            cache_epsilon: Some(-1.0),
            refine_budget: None,
            quant_step: None,
            sla_x: None,
        });
        assert!(def.validate().unwrap_err().contains("cache_epsilon"));

        let mut def = base.clone();
        def.serving = Some(ServingDef {
            cache_epsilon: Some(f64::INFINITY),
            refine_budget: None,
            quant_step: None,
            sla_x: None,
        });
        assert!(def.validate().is_err());

        let mut def = base.clone();
        def.serving = Some(ServingDef {
            cache_epsilon: None,
            refine_budget: Some(0),
            quant_step: None,
            sla_x: None,
        });
        assert!(def.validate().unwrap_err().contains("refine_budget"));

        let mut def = base.clone();
        def.serving = Some(ServingDef {
            cache_epsilon: None,
            refine_budget: None,
            quant_step: Some(0.0),
            sla_x: None,
        });
        assert!(def.validate().unwrap_err().contains("quant_step"));

        let mut def = base.clone();
        def.serving = Some(ServingDef {
            cache_epsilon: None,
            refine_budget: None,
            quant_step: None,
            sla_x: Some(-3.0),
        });
        assert!(def.validate().unwrap_err().contains("sla_x"));

        // A fully-pinned in-range block passes.
        let mut def = base;
        def.serving = Some(ServingDef {
            cache_epsilon: Some(2.0),
            refine_budget: Some(12),
            quant_step: Some(0.5),
            sla_x: Some(4.0),
        });
        def.validate().expect("in-range serving block validates");
    }

    // Serialize → load round-trips over randomized definitions: whatever a
    // definition can express must survive the committed-file form
    // bit-for-bit, including the built runtime values.
    mod round_trip {
        use super::super::*;
        use crate::REGISTRY_SCHEMA;
        use proptest::prelude::*;

        fn platform_of(
            bw: f64,
            hb_count: usize,
            lb_count: usize,
            pe_rows: usize,
            sg_kb: usize,
        ) -> PlatformDef {
            PlatformDef {
                schema: REGISTRY_SCHEMA.to_string(),
                kind: "platform".to_string(),
                name: "prop-platform".to_string(),
                description: None,
                system_bw_gbps: bw,
                cores: vec![
                    CoreDef {
                        name: "prop-hb".to_string(),
                        count: Some(hb_count),
                        pe_rows,
                        pe_cols: None,
                        dataflow: "hb".to_string(),
                        sg_kb,
                        sl_bytes: None,
                        frequency_mhz: None,
                        flexible: None,
                    },
                    CoreDef {
                        name: "prop-lb".to_string(),
                        count: Some(lb_count),
                        pe_rows,
                        pe_cols: Some(32),
                        dataflow: "lb".to_string(),
                        sg_kb,
                        sl_bytes: Some(2048),
                        frequency_mhz: Some(700.0),
                        flexible: Some(true),
                    },
                ],
            }
        }

        proptest! {
            #[test]
            fn platform_defs_round_trip_and_rebuild(
                bw in 1.0f64..512.0,
                hb_count in 1usize..9,
                lb_count in 1usize..5,
                pe_rows in 1usize..257,
                sg_kb in 1usize..1024,
            ) {
                let def = platform_of(bw, hb_count, lb_count, pe_rows, sg_kb);
                def.validate().map_err(proptest::TestCaseError::fail)?;
                let json = serde_json::to_string_pretty(&def).unwrap();
                let back: PlatformDef = serde_json::from_str(&json).unwrap();
                assert_eq!(back, def, "def round-trips");
                assert_eq!(back.build(), def.build(), "built platform round-trips");
            }

            #[test]
            fn synthetic_mix_defs_round_trip_and_rebuild(
                tenants in 1usize..96,
                seed in 0u64..4096,
            ) {
                let def = MixDef {
                    schema: REGISTRY_SCHEMA.to_string(),
                    kind: "mix".to_string(),
                    name: "prop-mix".to_string(),
                    description: None,
                    tenants: None,
                    synthetic: Some(SyntheticMixDef { tenants, seed }),
                    default_sla_multiplier: None,
                };
                def.validate().map_err(proptest::TestCaseError::fail)?;
                let json = serde_json::to_string_pretty(&def).unwrap();
                let back: MixDef = serde_json::from_str(&json).unwrap();
                assert_eq!(back, def, "def round-trips");
                assert_eq!(back.build().unwrap(), def.build().unwrap(), "built mix round-trips");
            }

            #[test]
            fn scenario_defs_round_trip(
                requests in 1usize..100_000,
                load in 0.05f64..8.0,
                seed in 0u64..u64::MAX,
                profile in 0usize..3,
                pin_flag in 0usize..2,
                epsilon in 0.0f64..8.0,
                refine in 1usize..64,
                quant in 0.25f64..4.0,
            ) {
                let process = ["poisson", "bursty", "drift"][profile];
                let pin_serving = pin_flag == 1;
                let def = ScenarioDef {
                    schema: REGISTRY_SCHEMA.to_string(),
                    kind: "scenario".to_string(),
                    name: "prop-scenario".to_string(),
                    description: Some("randomized".to_string()),
                    platform: "S2".to_string(),
                    mix: "standard".to_string(),
                    traffic: TrafficDef {
                        process: process.to_string(),
                        requests: Some(requests),
                        offered_load: Some(load),
                        seed: Some(seed),
                    },
                    serving: pin_serving.then_some(ServingDef {
                        cache_epsilon: Some(epsilon),
                        refine_budget: Some(refine),
                        quant_step: Some(quant),
                        sla_x: None,
                    }),
                };
                def.validate().map_err(proptest::TestCaseError::fail)?;
                let json = serde_json::to_string_pretty(&def).unwrap();
                let back: ScenarioDef = serde_json::from_str(&json).unwrap();
                assert_eq!(back, def, "def round-trips");
            }
        }
    }

    #[test]
    fn rejects_out_of_range_traffic_values() {
        let mut def = poisson_mix();
        def.traffic.process = "uniform".into();
        assert!(def.validate().unwrap_err().contains("arrival process"));

        let mut def = poisson_mix();
        def.traffic.requests = Some(0);
        assert!(def.validate().is_err());

        let mut def = poisson_mix();
        def.traffic.offered_load = Some(f64::NAN);
        assert!(def.validate().is_err());

        let mut def = poisson_mix();
        def.platform = "  ".into();
        assert!(def.validate().is_err());
    }
}
