//! The six accelerator settings of Table III, their default bandwidths, the
//! process-wide runtime knob (`MAGMA_THREADS`)
//! and the one typed serving config: the [`ServeKnobs`] ⊂ [`FleetKnobs`] ⊂
//! [`ServerKnobs`] nest, whose four environment overrides are read by
//! [`ServerKnobs::from_env`] and nowhere else.

use crate::platform::{AcceleratorPlatform, DEFAULT_LARGE_BW_GBPS, DEFAULT_SMALL_BW_GBPS};
use magma_cost::{DataflowStyle, SubAccelConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Reads the `MAGMA_THREADS` environment knob: how many worker threads batch
/// fitness evaluation (`magma_optim::parallel`) may use.
///
/// Unset, empty, unparsable or zero values fall back to the machine's
/// available parallelism (itself falling back to 1), so the knob can never
/// disable evaluation. The result is always ≥ 1; `MAGMA_THREADS=1` forces
/// fully serial evaluation.
///
/// Resolved once per process: every batch evaluation asks, and asking the
/// OS for its parallelism re-reads the affinity mask and the cgroup quota
/// files (≈ 20 µs a call on Linux). Nothing in the workspace changes the
/// variable after start-up.
pub fn magma_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        threads_or(std::env::var("MAGMA_THREADS").ok().as_deref(), || {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    })
}

/// Pure core of [`magma_threads`]: `raw` (the environment value, if the
/// variable was set) when it parses to a count ≥ 1, the machine's `cores`
/// otherwise — asked for only then.
pub(crate) fn threads_or(raw: Option<&str>, cores: impl FnOnce() -> usize) -> usize {
    match parse_or(raw, 0) {
        0 => cores(),
        n => n,
    }
}

/// Parses `raw` (an environment value, if the variable was set) into `T`,
/// falling back to `default` when absent, empty, whitespace-only or
/// unparsable — the malformed-value fallback of every `MAGMA_*` count
/// ([`threads_or`], [`ServerKnobs::with_overrides`]), pure so it is testable
/// without mutating the process environment.
pub(crate) fn parse_or<T: std::str::FromStr>(raw: Option<&str>, default: T) -> T {
    raw.and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// The serving knobs every driver shares: trace size, batching, search
/// budgets, cache geometry, SLA tolerance and seed (`magma-serve` / the
/// `serve_sim` and `cache_sweep` binaries read this level directly).
///
/// Per-scenario values come from a registry scenario file (its `traffic` and
/// `serving` blocks, applied by `CustomScenario::apply` in `magma-serve`);
/// two fields can also be set from the environment
/// ([`ServerKnobs::from_env`]):
///
/// | Variable | Field | Meaning |
/// |---|---|---|
/// | `MAGMA_SERVE_REQUESTS` | `requests` | arrivals per simulated scenario |
/// | `MAGMA_SERVE_CACHE_PATH` | `cache_path` | mapping-cache persistence base path: every driver loads `<path>.shard<i>` (if present) before a run and saves it after — warm restarts; empty/unset disables |
#[derive(Debug, Clone, PartialEq)]
pub struct ServeKnobs {
    /// Arrivals per simulated scenario.
    pub requests: usize,
    /// Dispatch-group size target of the admission batcher.
    pub group_target: usize,
    /// Admission deadline in batch-formation windows.
    pub max_wait_x: f64,
    /// Capacity of the signature-keyed mapping cache (bounded LRU).
    pub cache_capacity: usize,
    /// Sampling budget of a full (cache-miss) MAGMA search.
    pub cold_budget: usize,
    /// Sampling budget of a cache-hit refinement (the "≤ 10% of cold" lever).
    pub refine_budget: usize,
    /// Log-scale quantization step of the cache key, in nats.
    pub quant_step: f64,
    /// Offered load relative to the calibrated service rate.
    pub offered_load: f64,
    /// Per-job SLA bound in batch windows (see `magma-serve` docs).
    pub sla_x: f64,
    /// Samples per scheduler slice under [`FleetPolicy::Uniform`] (the
    /// fleet's and the engine's `base_slice`). Slicing never changes a
    /// search's result (the session-stepping invariant), only how live
    /// sessions interleave on a shard's mapper; the single-queue simulator
    /// holds one session at a time and ignores it.
    pub search_slice: usize,
    /// Nearest-key cache probe threshold: on an exact-key miss, a stored
    /// solution whose signatures are within this mean `JobSignature`
    /// distance of the group's is still served as a (near) hit. `0.0`
    /// disables the probe (exact-key only — the pre-calibration default).
    pub cache_epsilon: f64,
    /// Mapping-cache persistence base path: when set, every driver (the
    /// simulators and the engine) loads shard `i`'s cache from
    /// `<path>.shard<i>` before the run (if the file exists) and saves it
    /// back afterwards, so a restart starts warm. `None` (the default)
    /// keeps the caches in-memory only.
    pub cache_path: Option<String>,
    /// Trace/search seed.
    pub seed: u64,
}

impl ServeKnobs {
    /// Full-scale defaults: the scenario sizes `serve_sim` runs without
    /// `--smoke`.
    pub fn full() -> Self {
        ServeKnobs {
            requests: 400,
            group_target: 30,
            max_wait_x: 2.0,
            cache_capacity: 64,
            cold_budget: 600,
            // Calibrated by the `cache_sweep` frontier: at the calibrated
            // epsilon the 5%-of-cold refinement matches the 10% one on
            // quality (0.993 vs 0.994) with lower mean e2e, so hits ship
            // the cheaper budget.
            refine_budget: 30,
            quant_step: 1.0,
            offered_load: 0.7,
            sla_x: 3.0,
            search_slice: 32,
            // Calibrated by the `cache_sweep` frontier (the committed
            // `BENCH_cache.json`): the largest probe threshold whose
            // matched quality — mean mapped GFLOP/s per dispatch vs the
            // probe-off run on the same trace — stays ≥ 0.95 (measured
            // 0.993 at a 21% mix-trace hit rate; epsilon 2 already costs
            // 6–10%). `0` is the exact-key behaviour that shipped before
            // the calibration.
            cache_epsilon: 1.0,
            cache_path: None,
            seed: 0,
        }
    }

    /// CI-friendly smoke defaults: tiny trace, tiny budgets, same shape.
    pub fn smoke() -> Self {
        ServeKnobs {
            requests: 96,
            group_target: 8,
            cache_capacity: 16,
            cold_budget: 60,
            refine_budget: 6,
            // Smoke groups are tiny (8 jobs), so mean signature distances
            // between mix-trace groups run larger than at full scale — the
            // full-scale calibrated 1.0 finds no neighbours at all here.
            // CI must still exercise the near-hit path, so smoke keeps the
            // looser threshold (its own `cache_sweep --smoke` frontier
            // admits it: near hits beat cold search at this scale).
            cache_epsilon: 3.0,
            ..Self::full()
        }
    }
}

/// The scheduling policy of the fleet's concurrent session scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FleetPolicy {
    /// Round-robin over live sessions with a fixed slice
    /// ([`ServeKnobs::search_slice`]). No preemption.
    Uniform,
    /// Earliest-deadline-first session selection with deadline-aware slice
    /// sizing (urgent sessions get big slices, relaxed ones small), plus
    /// deadline preemption: a live session whose group deadline has passed
    /// is `finish()`-ed early and executes its best-so-far mapping.
    #[default]
    Deadline,
}

impl fmt::Display for FleetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetPolicy::Uniform => f.write_str("uniform"),
            FleetPolicy::Deadline => f.write_str("deadline"),
        }
    }
}

impl std::str::FromStr for FleetPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "uniform" => Ok(FleetPolicy::Uniform),
            "deadline" => Ok(FleetPolicy::Deadline),
            other => Err(format!("unknown fleet policy {other:?} (expected uniform|deadline)")),
        }
    }
}

/// The fleet shape of the multi-shard simulator (`magma-serve`'s fleet layer
/// / the `fleet_sim` binary), layered on top of the [`ServeKnobs`] budgets.
/// One field can be set from the environment ([`ServerKnobs::from_env`]):
///
/// | Variable | Field | Meaning |
/// |---|---|---|
/// | `MAGMA_FLEET_SHARDS` | `shards` | platform shards in the fleet — the widest rung of the bench ladder |
#[derive(Debug, Clone, PartialEq)]
pub struct FleetKnobs {
    /// The underlying serving knobs (budgets, cache geometry, group target,
    /// SLA tolerance, slice, seed). The fleet reads
    /// everything except `requests`/`offered_load`, which it carries itself
    /// at fleet-appropriate defaults.
    pub serve: ServeKnobs,
    /// Platform shards in the fleet.
    pub shards: usize,
    /// Platforms cycled across shards ([`FleetKnobs::shard_specs`]): Table
    /// III settings, or the one platform of a registry scenario. A single
    /// entry means a homogeneous fleet.
    pub shard_settings: Vec<PlatformSpec>,
    /// Arrivals per fleet scenario.
    pub requests: usize,
    /// Synthetic-mix tenant count (`TenantMix::synthetic` — thousands of
    /// tenants at full scale).
    pub tenants: usize,
    /// Offered load relative to one calibrated reference shard. Calibration
    /// uses an *unoptimized* random mapping, so the optimized serving
    /// pipeline absorbs several × of this before saturating — the default
    /// is high enough to actually drown a 1-shard fleet, which is what
    /// makes the shard ladder show throughput scaling.
    pub offered_load: f64,
    /// Concurrent live search sessions per shard mapper.
    pub max_live: usize,
    /// The session scheduler policy.
    pub policy: FleetPolicy,
    /// Slice floor of deadline-aware sizing: a group already past its
    /// deadline at admission still advances by at least this many samples
    /// (so its early finish has a best mapping) instead of panicking or
    /// spinning.
    pub min_slice: usize,
    /// Value-preemption threshold (0 disables): when a shard is full, an
    /// incoming group whose value is at least `preempt_margin ×` the least
    /// valuable live session's value finishes that session early to take
    /// its slot.
    pub preempt_margin: f64,
    /// Entry capacity of the fleet-wide shared cache tier: a shard-cache
    /// miss falls through to this tier before cold-searching, and every
    /// completed mapping is published to both tiers. `0` disables the tier
    /// (each shard keeps only its own cache, the pre-PR-8 behaviour).
    pub shared_cache_capacity: usize,
    /// Per-tenant entry quota over the shared tier's LRU (a tenant over
    /// quota evicts its own least recently used entry first); `0` disables
    /// the quota.
    pub shared_tenant_quota: usize,
}

impl FleetKnobs {
    /// Full-scale defaults: the fleet sizes `fleet_sim` runs without
    /// `--smoke`.
    pub fn full() -> Self {
        FleetKnobs {
            serve: ServeKnobs::full(),
            shards: 4,
            shard_settings: vec![Setting::S2.into()],
            requests: 20_000,
            tenants: 1_000,
            offered_load: 32.0,
            max_live: 4,
            policy: FleetPolicy::Deadline,
            min_slice: 4,
            preempt_margin: 2.0,
            shared_cache_capacity: 256,
            shared_tenant_quota: 8,
        }
    }

    /// CI-friendly smoke defaults: tiny trace and tenant count, same shape.
    pub fn smoke() -> Self {
        FleetKnobs {
            serve: ServeKnobs::smoke(),
            requests: 400,
            tenants: 32,
            shared_cache_capacity: 32,
            shared_tenant_quota: 4,
            ..Self::full()
        }
    }

    /// The platform of each of `shards` shards: shard `i` gets
    /// `shard_settings[i % len]`.
    ///
    /// # Panics
    ///
    /// Panics if the settings list is empty.
    pub fn shard_specs(&self, shards: usize) -> Vec<PlatformSpec> {
        assert!(!self.shard_settings.is_empty(), "the settings list cannot be empty");
        self.shard_settings.iter().cycle().take(shards).cloned().collect()
    }
}

/// The wall-clock RPC serving daemon's knobs (`magma-server` / the
/// `magma_server` binary) — the outermost level of the one typed serving
/// config: it embeds the [`FleetKnobs`] fleet shape, which embeds the
/// [`ServeKnobs`] budgets. One field of its own can be set from the
/// environment ([`ServerKnobs::from_env`]):
///
/// | Variable | Field | Meaning |
/// |---|---|---|
/// | `MAGMA_SERVER_ADDR` | `addr` | TCP listen address of the daemon |
#[derive(Debug, Clone, PartialEq)]
pub struct ServerKnobs {
    /// The underlying fleet shape: shard count and settings, session
    /// scheduler policy/budgets, dispatch budgets, cache geometry and
    /// persistence (`cache_path` + `.shard<i>`), shared-tier
    /// size, seed. The daemon reads everything except the virtual-clock
    /// trace knobs (`requests` / `offered_load`), which have no wall-clock
    /// meaning server-side.
    pub fleet: FleetKnobs,
    /// TCP address the daemon binds. Port `0` binds an ephemeral port (the
    /// daemon prints the resolved address).
    pub addr: String,
    /// `Busy` threshold on the projected per-shard mapper backlog in
    /// seconds — the same load metric the shard router balances on
    /// (session backlog × per-sample overhead + accelerator queue). The
    /// retry-after hint is the overload beyond this bound.
    pub max_backlog_sec: f64,
    /// Bounded admission queue per shard: planned groups waiting for a
    /// scheduler slot. Submits bounce with `Busy` when every admissible
    /// shard's queue is full.
    pub pending_per_shard: usize,
    /// Wall-clock session timeout in seconds: a group searching longer than
    /// this after admission is finished early (its best-so-far mapping
    /// executes) and reported `timed_out`.
    pub timeout_sec: f64,
    /// Maximum RPC frame payload size in bytes; larger frames are rejected.
    pub max_frame_bytes: usize,
    /// The offered rate the daemon is provisioned for, groups per second of
    /// wall time: it prices the admission batching window
    /// (`max_wait_x × group_target / rate` seconds).
    pub rate: f64,
}

impl ServerKnobs {
    /// Full-scale defaults: what `magma_server` runs without `--smoke`.
    pub fn full() -> Self {
        ServerKnobs {
            fleet: FleetKnobs::full(),
            addr: "127.0.0.1:4270".to_string(),
            max_backlog_sec: 4.0,
            pending_per_shard: 8,
            timeout_sec: 30.0,
            max_frame_bytes: 8 * 1024 * 1024,
            rate: 8.0,
        }
    }

    /// CI-friendly smoke defaults: smaller budgets, tighter timeout, same
    /// shape.
    pub fn smoke() -> Self {
        ServerKnobs { fleet: FleetKnobs::smoke(), timeout_sec: 10.0, rate: 16.0, ..Self::full() }
    }

    /// The smoke or full defaults with the serving environment applied —
    /// the one place the serving stack reads `MAGMA_*` variables.
    pub fn from_env(smoke: bool) -> Self {
        let defaults = if smoke { Self::smoke() } else { Self::full() };
        defaults.with_overrides(|name| std::env::var(name).ok())
    }

    /// Pure core of [`ServerKnobs::from_env`]: applies the four variables a
    /// deployment, CI or a test sets, looked up through `var`. Unset or
    /// unparsable counts keep the field, a zero count clamps to 1 (so no
    /// environment can produce a degenerate trace or fleet), and an empty
    /// path or address is ignored.
    pub(crate) fn with_overrides(mut self, var: impl Fn(&str) -> Option<String>) -> Self {
        let count = |name: &str, default: usize| parse_or(var(name).as_deref(), default).max(1);
        let text = |name: &str| var(name).map(|v| v.trim().to_string()).filter(|v| !v.is_empty());
        let fleet = &mut self.fleet;
        fleet.serve.requests = count("MAGMA_SERVE_REQUESTS", fleet.serve.requests);
        fleet.serve.cache_path = text("MAGMA_SERVE_CACHE_PATH").or(fleet.serve.cache_path.take());
        fleet.shards = count("MAGMA_FLEET_SHARDS", fleet.shards);
        self.addr = text("MAGMA_SERVER_ADDR").unwrap_or(self.addr);
        self
    }
}

/// The accelerator settings evaluated in the paper (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Setting {
    /// Small homogeneous: 4 × (32-row PE array, HB dataflow, 146 KB buffer).
    S1,
    /// Small heterogeneous: 3 × (32, HB, 146 KB) + 1 × (32, LB, 110 KB).
    S2,
    /// Large homogeneous: 8 × (128, HB, 580 KB).
    S3,
    /// Large heterogeneous: 7 × (128, HB, 580 KB) + 1 × (128, LB, 434 KB).
    S4,
    /// Large heterogeneous Big.Little: 3 × (128, HB) + 1 × (128, LB) +
    /// 3 × (64, HB) + 1 × (64, LB).
    S5,
    /// Large scale-up (16 cores): 7 × (128, HB) + 1 × (128, LB) +
    /// 7 × (64, HB) + 1 × (64, LB).
    S6,
}

impl Setting {
    /// All six settings in Table III order.
    pub const ALL: [Setting; 6] =
        [Setting::S1, Setting::S2, Setting::S3, Setting::S4, Setting::S5, Setting::S6];

    /// Whether the setting is one of the Small-class accelerators.
    pub(crate) fn is_small(self) -> bool {
        matches!(self, Setting::S1 | Setting::S2)
    }

    /// The default system bandwidth the paper pairs with this setting.
    pub(crate) fn default_bw_gbps(self) -> f64 {
        if self.is_small() {
            DEFAULT_SMALL_BW_GBPS
        } else {
            DEFAULT_LARGE_BW_GBPS
        }
    }

    /// The bandwidth sweep range the paper uses for this accelerator class
    /// (DDR1–DDR4 / PCIe for Small, DDR4–HBM / PCIe3–6 for Large).
    pub fn bw_sweep_gbps(self) -> Vec<f64> {
        if self.is_small() {
            vec![1.0, 4.0, 8.0, 16.0]
        } else {
            vec![1.0, 16.0, 64.0, 256.0]
        }
    }
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::str::FromStr for Setting {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "S1" => Ok(Setting::S1),
            "S2" => Ok(Setting::S2),
            "S3" => Ok(Setting::S3),
            "S4" => Ok(Setting::S4),
            "S5" => Ok(Setting::S5),
            "S6" => Ok(Setting::S6),
            other => Err(format!("unknown setting {other:?} (expected S1..S6)")),
        }
    }
}

const KB: usize = 1024;

fn hb(name: String, rows: usize, sg_kb: usize) -> SubAccelConfig {
    SubAccelConfig::new(name, rows, 64, DataflowStyle::HighBandwidth, sg_kb * KB)
}

fn lb(name: String, rows: usize, sg_kb: usize) -> SubAccelConfig {
    SubAccelConfig::new(name, rows, 64, DataflowStyle::LowBandwidth, sg_kb * KB)
}

/// Builds a [`Setting`] with its default system bandwidth.
pub fn build(setting: Setting) -> AcceleratorPlatform {
    build_with_bw(setting, setting.default_bw_gbps())
}

/// Builds a [`Setting`] with an explicit system bandwidth in GB/s.
pub(crate) fn build_with_bw(setting: Setting, bw_gbps: f64) -> AcceleratorPlatform {
    let mut cores = Vec::new();
    match setting {
        Setting::S1 => {
            for i in 0..4 {
                cores.push(hb(format!("S1-hb{i}"), 32, 146));
            }
        }
        Setting::S2 => {
            for i in 0..3 {
                cores.push(hb(format!("S2-hb{i}"), 32, 146));
            }
            cores.push(lb("S2-lb0".into(), 32, 110));
        }
        Setting::S3 => {
            for i in 0..8 {
                cores.push(hb(format!("S3-hb{i}"), 128, 580));
            }
        }
        Setting::S4 => {
            for i in 0..7 {
                cores.push(hb(format!("S4-hb{i}"), 128, 580));
            }
            cores.push(lb("S4-lb0".into(), 128, 434));
        }
        Setting::S5 => {
            for i in 0..3 {
                cores.push(hb(format!("S5-big-hb{i}"), 128, 580));
            }
            cores.push(lb("S5-big-lb0".into(), 128, 434));
            for i in 0..3 {
                cores.push(hb(format!("S5-lit-hb{i}"), 64, 291));
            }
            cores.push(lb("S5-lit-lb0".into(), 64, 218));
        }
        Setting::S6 => {
            for i in 0..7 {
                cores.push(hb(format!("S6-big-hb{i}"), 128, 580));
            }
            cores.push(lb("S6-big-lb0".into(), 128, 434));
            for i in 0..7 {
                cores.push(hb(format!("S6-lit-hb{i}"), 64, 291));
            }
            cores.push(lb("S6-lit-lb0".into(), 64, 218));
        }
    }
    AcceleratorPlatform::new(setting.to_string(), cores, bw_gbps)
}

/// Builds the flexible-PE-array variant of a setting (Section VI-F): the same
/// cores with run-time configurable array shapes, 1 KB SLs and 2 MB SGs.
pub fn build_flexible(setting: Setting, bw_gbps: f64) -> AcceleratorPlatform {
    build_with_bw(setting, bw_gbps).into_flexible()
}

/// What platform a simulation runs on: a Table III [`Setting`] built on
/// demand, or an arbitrary pre-built [`AcceleratorPlatform`] (e.g. one loaded
/// from the scenario registry). The serving simulators consume this instead
/// of a bare `Setting`, so registry-defined platforms run through exactly the
/// same code path as the paper's six.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformSpec {
    /// One of the paper's Table III settings, built with its default
    /// bandwidth via [`build`].
    Setting(Setting),
    /// A fully specified platform (registry-loaded or hand-constructed).
    Custom(AcceleratorPlatform),
}

impl PlatformSpec {
    /// Materializes the platform this spec describes.
    pub fn build(&self) -> AcceleratorPlatform {
        match self {
            PlatformSpec::Setting(s) => build(*s),
            PlatformSpec::Custom(p) => p.clone(),
        }
    }

    /// A short label for reports: the Table III name (`"S2"`) or the custom
    /// platform's own name.
    pub fn label(&self) -> String {
        match self {
            PlatformSpec::Setting(s) => s.to_string(),
            PlatformSpec::Custom(p) => p.name().to_string(),
        }
    }
}

impl From<Setting> for PlatformSpec {
    fn from(s: Setting) -> Self {
        PlatformSpec::Setting(s)
    }
}

impl fmt::Display for PlatformSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_match_table_iii() {
        assert_eq!(build(Setting::S1).num_sub_accels(), 4);
        assert_eq!(build(Setting::S2).num_sub_accels(), 4);
        assert_eq!(build(Setting::S3).num_sub_accels(), 8);
        assert_eq!(build(Setting::S4).num_sub_accels(), 8);
        assert_eq!(build(Setting::S5).num_sub_accels(), 8);
        assert_eq!(build(Setting::S6).num_sub_accels(), 16);
    }

    #[test]
    fn homogeneity_matches_table_iii() {
        assert!(build(Setting::S1).is_homogeneous());
        assert!(build(Setting::S3).is_homogeneous());
        for s in [Setting::S2, Setting::S4, Setting::S5, Setting::S6] {
            assert!(!build(s).is_homogeneous(), "{s} should be heterogeneous");
        }
    }

    #[test]
    fn default_bandwidths() {
        assert_eq!(build(Setting::S1).system_bw_gbps(), 16.0);
        assert_eq!(build(Setting::S4).system_bw_gbps(), 256.0);
    }

    #[test]
    fn s5_is_a_strict_subset_of_s6_in_compute() {
        assert!(build(Setting::S5).total_pes() < build(Setting::S4).total_pes());
        assert!(build(Setting::S6).total_pes() > build(Setting::S4).total_pes());
    }

    #[test]
    fn pe_array_widths_are_64() {
        for s in Setting::ALL {
            for c in build(s).sub_accels() {
                assert_eq!(c.pe_cols(), 64, "{s} core {}", c.name());
            }
        }
    }

    #[test]
    fn heterogeneous_settings_contain_both_dataflows() {
        for s in [Setting::S2, Setting::S4, Setting::S5, Setting::S6] {
            let p = build(s);
            let has_hb =
                p.sub_accels().iter().any(|c| c.dataflow() == DataflowStyle::HighBandwidth);
            let has_lb = p.sub_accels().iter().any(|c| c.dataflow() == DataflowStyle::LowBandwidth);
            assert!(has_hb && has_lb, "{s}");
        }
    }

    #[test]
    fn bw_sweep_ranges() {
        assert_eq!(Setting::S2.bw_sweep_gbps(), vec![1.0, 4.0, 8.0, 16.0]);
        assert_eq!(Setting::S4.bw_sweep_gbps(), vec![1.0, 16.0, 64.0, 256.0]);
    }

    #[test]
    fn flexible_builder_marks_cores_flexible() {
        let p = build_flexible(Setting::S1, 16.0);
        assert!(p.sub_accels().iter().all(|c| c.flexible_shape()));
    }

    #[test]
    fn core_names_are_unique() {
        for s in Setting::ALL {
            let p = build(s);
            let mut names: Vec<&str> = p.sub_accels().iter().map(|c| c.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), p.num_sub_accels(), "{s}");
        }
    }

    #[test]
    fn magma_threads_is_at_least_one() {
        // The knob may or may not be set in the ambient environment; either
        // way the resolved count must be usable as a worker-pool size.
        assert!(magma_threads() >= 1);
    }

    #[test]
    fn serve_knobs_defaults_are_sane() {
        let full = ServeKnobs::full();
        let smoke = ServeKnobs::smoke();
        // Smoke must be a strict shrink of full on every cost-bearing knob.
        assert!(smoke.requests < full.requests);
        assert!(smoke.group_target < full.group_target);
        assert!(smoke.cold_budget < full.cold_budget);
        assert!(smoke.refine_budget < full.refine_budget);
        // The refinement budget is the "≤ 10% of cold" acceptance lever.
        assert!(full.refine_budget * 10 <= full.cold_budget);
        assert!(smoke.refine_budget * 10 <= smoke.cold_budget);
        // Since the cache_sweep calibration the nearest-key probe defaults
        // on (BENCH_cache.json documents the frontier). Persistence stays
        // opt-in.
        assert!(full.search_slice >= 1);
        assert!(full.cache_epsilon > 0.0 && smoke.cache_epsilon > 0.0);
        assert_eq!(full.cache_path, None);
    }

    #[test]
    fn setting_parses_from_table_iii_names() {
        assert_eq!("s4".parse::<Setting>().unwrap(), Setting::S4);
        assert_eq!(" S1 ".parse::<Setting>().unwrap(), Setting::S1);
        assert!("S7".parse::<Setting>().is_err());
        for s in Setting::ALL {
            assert_eq!(s.to_string().parse::<Setting>().unwrap(), s);
        }
    }

    #[test]
    fn fleet_knobs_defaults_are_sane() {
        let full = FleetKnobs::full();
        let smoke = FleetKnobs::smoke();
        // Smoke shrinks the cost-bearing fleet knobs, same shape otherwise.
        assert!(smoke.requests < full.requests);
        assert!(smoke.tenants < full.tenants);
        assert_eq!(smoke.policy, full.policy);
        assert!(full.tenants >= 1_000, "full scale means thousands of tenants");
        assert!(full.offered_load > 1.0, "the shard ladder needs an overloaded 1-shard rung");
        assert_eq!(full.policy, FleetPolicy::Deadline);
        assert!(full.min_slice >= 1 && full.max_live >= 1 && full.shards >= 1);
        // The shared tier defaults on, bigger than one shard cache, and
        // smoke keeps the same shape at a smaller size.
        assert!(full.shared_cache_capacity > full.serve.cache_capacity);
        assert!(smoke.shared_cache_capacity > smoke.serve.cache_capacity);
        assert!(full.shared_tenant_quota > 0 && smoke.shared_tenant_quota > 0);
        // Shards cycle the settings list.
        let duo =
            FleetKnobs { shard_settings: vec![Setting::S2.into(), Setting::S4.into()], ..full };
        let labels: Vec<String> = duo.shard_specs(3).iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["S2", "S4", "S2"]);
    }

    #[test]
    fn server_knobs_defaults_are_sane() {
        let full = ServerKnobs::full();
        let smoke = ServerKnobs::smoke();
        // Smoke shrinks the wall-clock cost (budgets, timeout), keeps the
        // shape, and stays on a loopback address.
        assert!(smoke.fleet.serve.cold_budget < full.fleet.serve.cold_budget);
        assert!(smoke.timeout_sec <= full.timeout_sec);
        assert!(full.addr.starts_with("127.0.0.1") && smoke.addr == full.addr);
        assert!(full.max_backlog_sec > 0.0 && full.rate > 0.0);
        assert!(full.pending_per_shard >= 1 && smoke.pending_per_shard >= 1);
        // A frame must comfortably hold a serialized dispatch group.
        assert!(full.max_frame_bytes >= 1024 * 1024);
        // from_env falls back to the defaults when the variables are unset
        // (the ambient test environment never sets the serving four).
        assert_eq!(ServerKnobs::from_env(true), smoke);
        assert_eq!(ServerKnobs::from_env(false), full);
    }

    /// A lookup over literal `(name, value)` pairs — the override pass is
    /// tested without touching the process environment.
    fn vars(pairs: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |name| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
    }

    #[test]
    fn each_surviving_variable_lands_in_its_field_on_both_scales() {
        for base in [ServerKnobs::smoke(), ServerKnobs::full()] {
            let set = base.clone().with_overrides(vars(&[
                ("MAGMA_SERVE_REQUESTS", "24"),
                ("MAGMA_SERVE_CACHE_PATH", " rpc-cache/cache.json "),
                ("MAGMA_FLEET_SHARDS", "7"),
                ("MAGMA_SERVER_ADDR", "127.0.0.1:0"),
            ]));
            let mut expect = base.clone();
            expect.fleet.serve.requests = 24;
            expect.fleet.serve.cache_path = Some("rpc-cache/cache.json".into());
            expect.fleet.shards = 7;
            expect.addr = "127.0.0.1:0".into();
            assert_eq!(set, expect, "every other field keeps its default");
            assert_eq!(base.clone().with_overrides(vars(&[])), base);
        }
    }

    #[test]
    fn malformed_zero_and_empty_overrides_cannot_degenerate_the_knobs() {
        let base = ServerKnobs::smoke();
        let malformed = base.clone().with_overrides(vars(&[
            ("MAGMA_SERVE_REQUESTS", "many"),
            ("MAGMA_FLEET_SHARDS", "-2"),
            ("MAGMA_SERVE_CACHE_PATH", "   "),
            ("MAGMA_SERVER_ADDR", ""),
        ]));
        assert_eq!(malformed, base, "unparsable counts and empty text fall back");
        let zero = base
            .clone()
            .with_overrides(vars(&[("MAGMA_SERVE_REQUESTS", "0"), ("MAGMA_FLEET_SHARDS", "0")]));
        assert_eq!(zero.fleet.serve.requests, 1);
        assert_eq!(zero.fleet.shards, 1);
        // An empty path does not clear one already configured.
        let mut pathed = base;
        pathed.fleet.serve.cache_path = Some("kept".into());
        let kept = pathed.clone().with_overrides(vars(&[("MAGMA_SERVE_CACHE_PATH", "")]));
        assert_eq!(kept, pathed);
    }

    #[test]
    fn fleet_policy_parses_case_insensitively() {
        assert_eq!("deadline".parse::<FleetPolicy>().unwrap(), FleetPolicy::Deadline);
        assert_eq!("UNIFORM".parse::<FleetPolicy>().unwrap(), FleetPolicy::Uniform);
        assert!("edf".parse::<FleetPolicy>().is_err());
        assert_eq!(FleetPolicy::default(), FleetPolicy::Deadline);
        assert_eq!(FleetPolicy::Deadline.to_string(), "deadline");
    }

    #[test]
    fn parse_or_falls_back_on_malformed_values() {
        // The single, central test of the malformed-value fallback every
        // MAGMA_* count shares: absent, empty, whitespace-only and
        // unparsable values all yield the default; well-formed values (with
        // surrounding whitespace) parse.
        assert_eq!(parse_or::<usize>(None, 7), 7);
        assert_eq!(parse_or::<usize>(Some(""), 7), 7);
        assert_eq!(parse_or::<usize>(Some("   "), 7), 7);
        assert_eq!(parse_or::<usize>(Some("banana"), 7), 7);
        assert_eq!(parse_or::<usize>(Some("-3"), 7), 7); // unsigned: no parse
        assert_eq!(parse_or::<usize>(Some("3.5"), 7), 7);
        assert_eq!(parse_or::<usize>(Some(" 12 "), 7), 12);
        assert_eq!(parse_or::<f64>(Some("not-a-float"), 1.5), 1.5);
        assert_eq!(parse_or::<f64>(Some(" 0.25 "), 1.5), 0.25);
        assert_eq!(parse_or::<u64>(Some("18446744073709551616"), 9), 9); // overflow
        assert_eq!(parse_or::<FleetPolicy>(Some("edf"), FleetPolicy::Uniform), {
            FleetPolicy::Uniform
        });
        assert_eq!(parse_or(Some("deadline"), FleetPolicy::Uniform), FleetPolicy::Deadline);
    }

    #[test]
    fn threads_or_takes_a_positive_count_and_asks_the_machine_otherwise() {
        for raw in [None, Some(""), Some("  "), Some("0"), Some("banana"), Some("-2")] {
            assert_eq!(threads_or(raw, || 6), 6, "{raw:?}");
        }
        assert_eq!(threads_or(Some(" 3 "), || unreachable!("a set count asks nothing")), 3);
    }

    #[test]
    fn platform_spec_builds_and_labels() {
        for s in Setting::ALL {
            let spec = PlatformSpec::from(s);
            assert_eq!(spec.build(), build(s));
            assert_eq!(spec.label(), s.to_string());
            assert_eq!(spec.to_string(), s.to_string());
        }
        let custom = PlatformSpec::Custom(build_with_bw(Setting::S2, 4.0));
        assert_eq!(custom.label(), "S2");
        assert_eq!(custom.build().system_bw_gbps(), 4.0);
        assert_ne!(custom, PlatformSpec::Setting(Setting::S2));
    }
}
