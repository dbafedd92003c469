//! The one path from a serving report to its `BENCH_*.json` file.
//!
//! Four reports leave the serving stack — [`ServeReport`](crate::ServeReport)
//! (`BENCH_serve.json`), [`FleetReport`](crate::FleetReport)
//! (`BENCH_fleet.json`), [`CacheSweepReport`](crate::CacheSweepReport)
//! (`BENCH_cache.json`) and `magma-server`'s `RpcReport` (`BENCH_rpc.json`)
//! — and all four are a [`BenchReport`]: a shared `(schema, mode,
//! scenario_descriptor)` header that [`BenchReport::validate`] checks once
//! before the report's own invariants, and an acceptance gate
//! ([`BenchReport::accept`]) whose thresholds live beside the report instead
//! of in a binary's `main`. [`emit`] is the only writer: validate → create
//! the directory → write → *then* gate, so a run that fails its gate leaves
//! the measured file behind for diagnosis. The JSON layouts are the reports'
//! own; the envelope is this code path, not a file shape.

use crate::descriptor::ScenarioDescriptor;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The `mode` a report records: `smoke` for a `--smoke` run, `full`
/// otherwise. The only two values [`BenchReport::validate`] accepts.
pub fn mode_tag(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// A schema-stable serving report that [`emit`] can write and gate.
pub trait BenchReport: Serialize {
    /// File name under the output directory (e.g. `BENCH_serve.json`).
    const FILE: &'static str;
    /// The versioned schema tag the report must carry.
    const SCHEMA: &'static str;

    /// The `(schema, mode, scenario_descriptor)` the report carries.
    fn header(&self) -> (&str, &str, &ScenarioDescriptor);

    /// The report-specific invariants behind the header. Returns the first
    /// violation.
    fn check_body(&self) -> Result<(), String>;

    /// The acceptance gate of a builtin run: the summary line when every
    /// threshold holds, otherwise the violated threshold by name with the
    /// measured value.
    fn accept(&self) -> Result<String, String>;

    /// The schema self-check: the header (tag, `mode` ∈ {`smoke`, `full`},
    /// descriptor content hash), then [`BenchReport::check_body`]. Returns
    /// the first violation.
    fn validate(&self) -> Result<(), String> {
        let (schema, mode, descriptor) = self.header();
        if schema != Self::SCHEMA {
            return Err(format!("schema tag {schema:?} != {:?}", Self::SCHEMA));
        }
        if ![mode_tag(true), mode_tag(false)].contains(&mode) {
            return Err(format!("mode {mode:?} is neither \"smoke\" nor \"full\""));
        }
        descriptor.validate()?;
        self.check_body()
    }
}

/// Validates `report`, writes it to [`BenchReport::FILE`] in
/// `MAGMA_BENCH_DIR` (default: the current directory, i.e. the repo root
/// under `cargo run`; created if missing) and then, when `gated`, judges it
/// by [`BenchReport::accept`].
///
/// `Ok` is what a binary prints: where the file went, plus the acceptance
/// summary of a gated run. `Err` is one line naming the report and what
/// failed — the self-check, the write, or a threshold with its measured
/// value; in the last case the file is already on disk.
pub fn emit<R: BenchReport>(report: &R, gated: bool) -> Result<String, String> {
    let dir = std::env::var("MAGMA_BENCH_DIR").map(PathBuf::from).unwrap_or_else(|_| ".".into());
    emit_into(&dir, report, gated)
}

fn emit_into<R: BenchReport>(dir: &Path, report: &R, gated: bool) -> Result<String, String> {
    report.validate().map_err(|e| format!("{}: {} self-check failed: {e}", R::FILE, R::SCHEMA))?;
    let path = write_json(dir, report)
        .map_err(|e| format!("{}: could not write into {}: {e}", R::FILE, dir.display()))?;
    let written = format!("({} written to {})", R::FILE, path.display());
    if !gated {
        return Ok(written);
    }
    match report.accept() {
        Ok(summary) => Ok(format!("{written}\nacceptance: {summary}")),
        Err(violation) => Err(format!(
            "{}: acceptance failed: {violation} (the report is at {})",
            R::FILE,
            path.display()
        )),
    }
}

fn write_json<R: BenchReport>(dir: &Path, report: &R) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(R::FILE);
    let json = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeReport;

    const COMMITTED: &str = include_str!("../../../BENCH_serve.json");

    /// The committed serving report, with its repeated-tenant hits slowed to
    /// `ratio` of cold-search throughput (the committed value passes the gate).
    fn report(ratio: Option<f64>) -> ServeReport {
        let mut report: ServeReport = serde_json::from_str(COMMITTED).expect("it deserializes");
        let repeated = report.scenarios.iter_mut().find(|s| s.name == "repeated_tenant").unwrap();
        if let Some(ratio) = ratio {
            repeated.metrics.dispatch.hit_cold_throughput_ratio = ratio;
        }
        report
    }

    /// Runs `test` on a directory that does not exist yet, then cleans up.
    fn in_scratch(tag: &str, test: impl FnOnce(&Path)) {
        let root = std::env::temp_dir().join(format!("magma_emit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        test(&root.join("not/yet/there"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn emit_creates_a_missing_directory_and_writes_the_committed_bytes() {
        in_scratch("ok", |dir| {
            let printed = emit_into(dir, &report(None), true).expect("a passing report emits");
            assert!(printed.contains("BENCH_serve.json written to"), "{printed}");
            assert!(printed.contains("\nacceptance: hit/cold throughput ratio"), "{printed}");
            let on_disk = std::fs::read_to_string(dir.join("BENCH_serve.json")).unwrap();
            assert!(on_disk == COMMITTED, "the writer is what produced the committed file");
            // Ungated (registry scenarios): written the same, no verdict.
            assert!(!emit_into(dir, &report(Some(0.5)), false).unwrap().contains("acceptance"));
        });
    }

    #[test]
    fn a_failed_self_check_writes_nothing_and_a_failed_gate_leaves_the_file() {
        in_scratch("refused", |dir| {
            let mut bent = report(None);
            bent.mode = "ful".into();
            let error = emit_into(dir, &bent, true).unwrap_err();
            assert!(error.contains("magma-serve/v4 self-check failed: mode \"ful\""), "{error}");
            assert!(!dir.exists(), "an invalid report is never written");

            let error = emit_into(dir, &report(Some(0.5)), true).unwrap_err();
            assert!(error.starts_with("BENCH_serve.json: acceptance failed: repeated_tenant hit/"));
            assert!(error.contains("0.5000") && !error.contains('\n'), "one line: {error}");
            assert!(dir.join("BENCH_serve.json").is_file(), "the file is there to diagnose");
        });
    }
}
