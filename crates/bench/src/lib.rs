//! Shared plumbing for the experiment-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the paper's
//! evaluation section (each binary's doc comment names its artefact):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig07_job_analysis` | Fig. 7 — HB/LB job characteristics |
//! | `fig08_homogeneous` | Fig. 8 — mappers on the homogeneous S1 |
//! | `fig09_heterogeneous` | Fig. 9 — mappers on heterogeneous S2/S4 |
//! | `fig10_exploration` | Fig. 10 — exploration study |
//! | `fig11_convergence` | Fig. 11 — convergence curves |
//! | `fig12_bw_sweep` | Fig. 12 — bandwidth sweep |
//! | `fig13_subaccel_combos` | Fig. 13 — sub-accelerator combinations |
//! | `fig14_flexible` | Fig. 14 — fixed vs flexible PE arrays |
//! | `fig15_schedule_visual` | Fig. 15 — schedule visualization |
//! | `fig16_operator_ablation` | Fig. 16 — GA operator ablation |
//! | `fig17_group_size` | Fig. 17 — group-size sweep |
//! | `tab05_warm_start` | Table V — warm-start transfer |
//! | `serve_sim` | not a paper artefact — the online multi-tenant serving simulator behind `BENCH_serve.json` (`magma-serve`) |
//! | `fleet_sim` | not a paper artefact — the multi-shard fleet simulator behind `BENCH_fleet.json` (`magma-serve`) |
//! | `cache_sweep` | not a paper artefact — the mapping-cache calibration sweep behind `BENCH_cache.json` (`magma-serve`) |
//! | `magma_server` | not a paper artefact — the wall-clock RPC serving daemon (`magma-server`) |
//! | `loadgen` | not a paper artefact — the daemon's load generator behind `BENCH_rpc.json` (`magma-server`) |
//! | `scenario_gen` | not a paper artefact — writes and checks the `scenarios/` registry tree (`magma-registry`) |
//!
//! By default the binaries run at a *reduced* scale so they finish in seconds
//! on a laptop; set the environment variable `MAGMA_FULL_SCALE=1` to run at
//! the paper's scale (group size 100, 10 000-sample budget), or override the
//! individual knobs with `MAGMA_GROUP_SIZE` and `MAGMA_BUDGET` (see
//! [`Scale::from_env`]). Binaries print paper-style tables and dump raw JSON
//! under `target/experiment-results/` via [`dump_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use magma::experiments::MethodScore;
use magma::platform::settings::{self, ServerKnobs};
use serde::Serialize;
use std::path::PathBuf;

/// Scale parameters shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of jobs per group.
    pub group_size: usize,
    /// Sampling budget per optimizer run.
    pub budget: usize,
    /// Workload / search seed.
    pub seed: u64,
    /// Worker threads for batch fitness evaluation (`MAGMA_THREADS`,
    /// default: available parallelism). Purely a wall-clock knob — results
    /// are identical at every thread count.
    pub threads: usize,
}

impl Scale {
    /// Reads the scale from the environment: paper scale when
    /// [`full_scale`], reduced scale otherwise, with per-knob overrides via
    /// `MAGMA_GROUP_SIZE` / `MAGMA_BUDGET` / `MAGMA_SEED` / `MAGMA_THREADS`
    /// (unparsable values keep the scale's default).
    pub fn from_env() -> Self {
        let (group_size, budget) = if full_scale() { (100, 10_000) } else { (30, 1_000) };
        Scale {
            group_size: settings::env_parse("MAGMA_GROUP_SIZE", group_size),
            budget: settings::env_parse("MAGMA_BUDGET", budget),
            seed: settings::env_parse("MAGMA_SEED", 0),
            threads: settings::magma_threads(),
        }
    }
}

/// Whether `MAGMA_FULL_SCALE` asks for the paper's scale: set to anything
/// but `0` / `off` / `false` (the workspace's flag convention).
pub fn full_scale() -> bool {
    settings::env_flag("MAGMA_FULL_SCALE", false)
}

/// The parsed command line shared by the serving binaries (`serve_sim`,
/// `fleet_sim`, `cache_sweep`, `magma_server`, `loadgen`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingCli {
    /// CI scale requested (`--smoke`).
    pub smoke: bool,
    /// Registry scenario file to run instead of the builtin ladder
    /// (`--scenario <file>` / `--scenario=<file>`).
    pub scenario: Option<PathBuf>,
}

/// Pure parser behind [`serving_setup`]: accepts `--smoke`,
/// `--scenario <file>` and `--scenario=<file>`; **any other flag is a hard
/// error** (the serving binaries used to silently ignore typos like
/// `--smokey` or `--scenrio`, running at full scale instead).
pub fn parse_serving_args<I>(args: I) -> Result<ServingCli, String>
where
    I: IntoIterator<Item = String>,
{
    let mut cli = ServingCli::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            cli.smoke = true;
        } else if arg == "--scenario" {
            match args.next() {
                Some(path) => cli.scenario = Some(PathBuf::from(path)),
                None => return Err("--scenario requires a path to a registry scenario file".into()),
            }
        } else if let Some(path) = arg.strip_prefix("--scenario=") {
            if path.is_empty() {
                return Err("--scenario requires a path to a registry scenario file".into());
            }
            cli.scenario = Some(PathBuf::from(path));
        } else {
            return Err(format!(
                "unknown argument {arg:?} (expected --smoke, --scenario <file> or \
                 --scenario=<file>)"
            ));
        }
    }
    Ok(cli)
}

/// What a serving binary runs from: the scale, the resolved knob nest and
/// the registry scenario behind `--scenario`, if any.
pub struct ServingSetup {
    /// CI scale requested (`--smoke`).
    pub smoke: bool,
    /// The smoke or full defaults with the serving environment
    /// ([`ServerKnobs::from_env`]) and then the scenario file
    /// (`CustomScenario::apply`) resolved onto them. Banners and configs
    /// both read this; nothing is patched afterwards.
    pub knobs: ServerKnobs,
    /// The resolved `--scenario` file.
    pub scenario: Option<magma_registry::ResolvedScenario>,
}

impl ServingSetup {
    /// `smoke` or `full`, as the reports record it.
    pub fn mode(&self) -> &'static str {
        magma_serve::mode_tag(self.smoke)
    }
}

/// The one way into the serving stack: parses the process arguments,
/// resolves `--scenario <file>` against the registry (`MAGMA_SCENARIO_DIR`,
/// default `scenarios/`) and resolves the knobs. Unknown flags and rejected
/// scenario files exit with status 2 and an actionable message.
pub fn serving_setup() -> ServingSetup {
    let fail = |message: String| -> ! {
        eprintln!("{message}");
        std::process::exit(2);
    };
    let cli = parse_serving_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    let scenario = cli.scenario.map(|path| {
        magma_registry::resolve_scenario_file(&path).unwrap_or_else(|e| fail(e.to_string()))
    });
    let mut knobs = ServerKnobs::from_env(cli.smoke);
    if let Some(resolved) = &scenario {
        knobs = resolved.custom().apply(knobs);
    }
    ServingSetup { smoke: cli.smoke, knobs, scenario }
}

/// Prints what a `--scenario` run resolved to, under the binary's banner.
pub fn print_scenario(resolved: &magma_registry::ResolvedScenario) {
    println!(
        "registry scenario {:?}: {} traffic, platform {} ({} cores), {} tenants, descriptor {}",
        resolved.name,
        resolved.scenario,
        resolved.platform.name(),
        resolved.platform_def.core_count(),
        resolved.mix.len(),
        resolved.descriptor.content_hash
    );
}

/// The tail of every gated serving binary: [`magma_serve::emit()`] the report
/// (self-check → write → gate when `gated`), print where it went and the
/// acceptance summary — or exit with status 1 and the one-line failure on
/// stderr.
pub fn emit_or_exit<R: magma_serve::BenchReport>(report: &R, gated: bool) {
    match magma_serve::emit(report, gated) {
        Ok(printed) => println!("\n{printed}"),
        Err(failure) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}

/// Prints a banner naming the experiment and the scale it runs at.
pub fn banner(title: &str, scale: &Scale) {
    println!("==============================================================");
    println!("{title}");
    println!(
        "group size {}, budget {} samples, seed {}, {} eval thread(s) \
         (set MAGMA_FULL_SCALE=1 for paper scale, MAGMA_THREADS=n for the pool size)",
        scale.group_size, scale.budget, scale.seed, scale.threads
    );
    println!("==============================================================");
}

/// Prints a normalized-throughput table in the layout of the paper's bar
/// charts (one row per mapper).
pub fn print_scores(label: &str, scores: &[MethodScore]) {
    println!("\n[{label}]");
    println!("{:<22} {:>14} {:>12}", "mapper", "GFLOP/s", "norm (MAGMA=1)");
    for s in scores {
        println!("{:<22} {:>14.2} {:>12.3}", s.method, s.gflops, s.normalized);
    }
}

/// Writes any serializable result next to the printed table as JSON so the
/// numbers can be post-processed/plotted. Files land in
/// `target/experiment-results/`.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiment-results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if std::fs::write(&path, s).is_ok() {
                println!("\n(raw data written to {})", path.display());
            }
        }
        Err(e) => eprintln!("could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_scale_defaults_are_modest() {
        // The default (no env override) must stay laptop-friendly.
        let s = Scale { group_size: 30, budget: 1_000, seed: 0, threads: 1 };
        assert!(s.group_size <= 100);
        assert!(s.budget <= 10_000);
        assert!(Scale::from_env().threads >= 1);
    }

    #[test]
    fn serving_cli_accepts_the_shared_flags() {
        let to_args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_serving_args(to_args(&[])).unwrap(), ServingCli::default());
        let cli = parse_serving_args(to_args(&["--smoke"])).unwrap();
        assert!(cli.smoke && cli.scenario.is_none());
        let cli = parse_serving_args(to_args(&["--scenario", "a/b.json", "--smoke"])).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.scenario.as_deref(), Some(std::path::Path::new("a/b.json")));
        let cli = parse_serving_args(to_args(&["--scenario=c.json"])).unwrap();
        assert_eq!(cli.scenario.as_deref(), Some(std::path::Path::new("c.json")));
    }

    #[test]
    fn serving_cli_rejects_unknown_and_malformed_flags() {
        let to_args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert!(parse_serving_args(to_args(&["--smokey"])).unwrap_err().contains("--smokey"));
        assert!(parse_serving_args(to_args(&["extra"])).is_err());
        assert!(parse_serving_args(to_args(&["--scenario"])).unwrap_err().contains("path"));
        assert!(parse_serving_args(to_args(&["--scenario="])).is_err());
        // The first bad flag wins even after valid ones.
        assert!(parse_serving_args(to_args(&["--smoke", "--verbose"])).is_err());
    }

    #[test]
    fn print_scores_does_not_panic() {
        print_scores(
            "test",
            &[MethodScore { method: "MAGMA".into(), gflops: 10.0, normalized: 1.0 }],
        );
    }
}
