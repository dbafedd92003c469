//! Shared plumbing for the five binaries in `src/bin/`.
//!
//! | Binary | What it runs |
//! |---|---|
//! | `paper` | the paper's evaluation section — Figs. 7–17 and Table V, one row of [`magma::experiments::ARTEFACTS`] each: `paper --list`, `paper fig08 tab05`, `paper all` |
//! | `serve_sim` | not a paper artefact — the online multi-tenant serving simulator behind `BENCH_serve.json` (`magma-serve`) |
//! | `fleet_sim` | not a paper artefact — the multi-shard fleet simulator behind `BENCH_fleet.json` (`magma-serve`) |
//! | `cache_sweep` | not a paper artefact — the mapping-cache calibration sweep behind `BENCH_cache.json` (`magma-serve`) |
//! | `magma_server` | not a paper artefact — the wall-clock RPC serving daemon (`magma-server`), which `benchmark/run.sh --workload rpc_mix` / `rpc_hot` drives and measures |
//!
//! `paper` runs at a *reduced* scale by default so every artefact finishes in
//! seconds on a laptop; `--full` runs at the paper's scale (group size 100,
//! 10 000-sample budget), and `--group-size N`, `--budget N`, `--seed N`
//! override one value each ([`parse_paper_args`]). It prints paper-style
//! tables and dumps raw JSON under `target/experiment-results/` via
//! [`dump_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use magma::experiments::{Artefact, Scale, ARTEFACTS};
use magma::platform::settings::{self, ServerKnobs};
use serde::Serialize;
use std::path::PathBuf;

/// The parsed command line of the `paper` binary.
#[derive(Debug, Clone)]
pub struct PaperCli {
    /// Print the artefact table (`--list`) before running what is selected.
    pub list: bool,
    /// The scale every selected artefact runs at.
    pub scale: Scale,
    /// The selected rows of [`ARTEFACTS`], in the paper's order.
    pub artefacts: Vec<&'static Artefact>,
}

/// Pure parser of `paper [--list] [--full] [--group-size N] [--budget N]
/// [--seed N] <artefact…|all>`, in the strict style of
/// [`parse_serving_args`]: an unknown flag, an unknown artefact name, an
/// unparsable value or a zero group size or budget (either would panic deep
/// inside workload generation or `Optimizer::search`) is a hard error that
/// names what is valid. `--full` selects [`Scale::FULL`] instead of
/// [`Scale::REDUCED`]; the three valued flags then override one field each,
/// wherever they stand on the line.
pub fn parse_paper_args<I>(args: I) -> Result<PaperCli, String>
where
    I: IntoIterator<Item = String>,
{
    fn value<T>(flag: &str, raw: Option<String>, at_least: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let raw = raw.unwrap_or_default();
        match raw.parse::<T>() {
            Ok(n) if n >= at_least => Ok(n),
            _ => Err(format!("{flag} requires an integer of at least {at_least}, got {raw:?}")),
        }
    }
    let names = || ARTEFACTS.iter().map(|a| a.name).collect::<Vec<_>>().join(", ");
    let (mut list, mut full, mut all) = (false, false, false);
    let (mut group_size, mut budget, mut seed) = (None, None, None);
    let mut selected = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--full" => full = true,
            "--group-size" => group_size = Some(value(&arg, args.next(), 1usize)?),
            "--budget" => budget = Some(value(&arg, args.next(), 1usize)?),
            "--seed" => seed = Some(value(&arg, args.next(), 0u64)?),
            "all" => all = true,
            name if ARTEFACTS.iter().any(|a| a.name == name) => selected.push(arg),
            _ => {
                return Err(format!(
                    "unknown argument {arg:?} (expected --list, --full, --group-size N, \
                     --budget N, --seed N, and artefacts out of: {}, all)",
                    names()
                ))
            }
        }
    }
    let artefacts: Vec<_> =
        ARTEFACTS.iter().filter(|a| all || selected.iter().any(|s| s == a.name)).collect();
    if artefacts.is_empty() && !list {
        return Err(format!("no artefact selected (expected any of: {}, all)", names()));
    }
    let base = if full { Scale::FULL } else { Scale::REDUCED };
    let scale = Scale {
        group_size: group_size.unwrap_or(base.group_size),
        budget: budget.unwrap_or(base.budget),
        seed: seed.unwrap_or(base.seed),
        full,
    };
    Ok(PaperCli { list, scale, artefacts })
}

/// The parsed command line shared by the serving binaries (`serve_sim`,
/// `fleet_sim`, `cache_sweep`, `magma_server`).
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
    pub scenario: Option<magma_serve::CustomScenario>,
}

impl ServingSetup {
    /// `smoke` or `full`, as the reports record it.
    pub fn mode(&self) -> &'static str {
        magma_serve::mode_tag(self.smoke)
    }

    /// The tail of every simulator binary: [`magma_serve::emit()`] the report
    /// (self-check → write → gate; a `--scenario` run skips the gate, whose
    /// thresholds belong to the builtin ladder), print where it went and the
    /// acceptance summary — or exit with status 1 and the one-line failure on
    /// stderr.
    pub fn emit_or_exit<R: magma_serve::BenchReport>(&self, report: &R) {
        match magma_serve::emit(report, self.scenario.is_none()) {
            Ok(printed) => println!("\n{printed}"),
            Err(failure) => {
                eprintln!("{failure}");
                std::process::exit(1);
            }
        }
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
        knobs = resolved.apply(knobs);
    }
    ServingSetup { smoke: cli.smoke, knobs, scenario }
}

/// Prints what a `--scenario` run resolved to, under the binary's banner.
pub fn print_scenario(resolved: &magma_serve::CustomScenario) {
    println!(
        "registry scenario {:?}: {} traffic, platform {} ({} cores), {} tenants, descriptor {}",
        resolved.name,
        resolved.scenario,
        resolved.platform.label(),
        resolved.platform.build().num_sub_accels(),
        resolved.mix.len(),
        resolved.descriptor.content_hash
    );
}

/// Prints a banner naming the artefact and the scale it runs at.
pub fn banner(title: &str, scale: &Scale) {
    println!("==============================================================");
    println!("{title}");
    println!(
        "group size {}, budget {} samples, seed {}, {} eval thread(s) \
         (--full for paper scale, MAGMA_THREADS=n for the pool size)",
        scale.group_size,
        scale.budget,
        scale.seed,
        settings::magma_threads()
    );
    println!("==============================================================");
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

    fn paper(args: &[&str]) -> Result<PaperCli, String> {
        parse_paper_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn paper_scales_are_the_reduced_default_and_the_papers_under_full() {
        let cli = paper(&["all"]).unwrap();
        assert_eq!(cli.scale, Scale { group_size: 30, budget: 1_000, seed: 0, full: false });
        assert!(!cli.list && cli.artefacts.len() == ARTEFACTS.len());
        let cli = paper(&["--full", "tab05"]).unwrap();
        assert_eq!(cli.scale, Scale { group_size: 100, budget: 10_000, seed: 0, full: true });
        // Each valued flag replaces one field of either preset, in any order.
        let cli = paper(&["--group-size", "8", "fig08", "--seed", "7", "--full"]).unwrap();
        assert_eq!(cli.scale, Scale { group_size: 8, budget: 10_000, seed: 7, full: true });
        assert_eq!(paper(&["--budget", "50", "all"]).unwrap().scale.budget, 50);
    }

    #[test]
    fn paper_cli_selects_rows_in_the_papers_order_once_each() {
        let names = |args: &[&str]| -> Vec<&str> {
            paper(args).unwrap().artefacts.iter().map(|a| a.name).collect()
        };
        assert_eq!(names(&["tab05", "fig08", "fig08"]), ["fig08", "tab05"]);
        assert_eq!(names(&["fig11", "all"]).len(), 12);
        let cli = paper(&["--list"]).unwrap();
        assert!(cli.list && cli.artefacts.is_empty());
    }

    #[test]
    fn paper_cli_rejects_bad_values_unknown_flags_and_unknown_artefacts() {
        // Unparsable values, and zeros that would panic deep inside a search.
        for bad in [
            &["--budget", "1e4", "all"][..],
            &["--group-size", "ten", "all"],
            &["--budget", "0", "all"],
            &["--group-size", "0", "all"],
            &["--seed", "-1", "all"],
            &["all", "--budget"],
        ] {
            assert!(paper(bad).unwrap_err().contains("requires an integer"), "{bad:?}");
        }
        // Unknown flags and names list the valid artefacts.
        for bad in [&["--smoke", "all"][..], &["fig18"], &["--budget=50", "all"], &[]] {
            let message = paper(bad).unwrap_err();
            assert!(message.contains("fig07") && message.contains("tab05"), "{bad:?}: {message}");
        }
    }
}
