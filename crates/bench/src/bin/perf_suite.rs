//! Perf harness — measures batch fitness evaluation (the hot path of every
//! optimizer) at 1..N worker threads on figure-scale instances and writes
//! the schema-stable `BENCH_parallel_eval.json` perf trajectory.
//!
//! Not a paper artefact: this binary tracks the *reproduction's* speed so
//! regressions (and wins) are visible across PRs. Every parallel measurement
//! is cross-checked bit-for-bit against the serial fitness vector, so a perf
//! run doubles as a determinism check. On a ≥ 4-core host the 4-thread row
//! of the Fig. 8 homogeneous instance is expected to show ≥ 2× the serial
//! evaluations/sec.
//!
//! Knobs: `MAGMA_PERF_MODE` (`full` (default) = figure-scale batches on the
//! Fig. 8/9 instances; `smoke` = the homogeneous instance only, one warm-up
//! batch — what CI runs), `MAGMA_THREADS` (top of the measured thread ladder,
//! default: available parallelism; the ladder always includes 1, 2 and 4
//! plus an oversubscription rung), `MAGMA_PERF_LADDER` (comma-separated
//! explicit thread counts, e.g. `1,2,4` — replaces the computed ladder; CI
//! pins this so the gate measures exactly the rungs it judges),
//! `MAGMA_GROUP_SIZE` (jobs per group, default 30), `MAGMA_SEED`, and
//! `MAGMA_BENCH_DIR` (where `BENCH_parallel_eval.json` lands, default: the
//! current directory).

use magma_bench::perf::{print_report, run_suite, write_bench_json, PerfParams};
use magma_bench::Scale;

/// Parses `MAGMA_PERF_LADDER` (`"1,2,4"`) into an explicit thread ladder:
/// positive comma-separated counts, sorted and deduplicated. Unset, empty or
/// malformed values leave the computed ladder in place (malformed with a
/// warning — a typo'd CI variable must not silently change what the perf
/// gate measures).
fn ladder_override() -> Option<Vec<usize>> {
    let raw = std::env::var("MAGMA_PERF_LADDER").ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    let parsed: Option<Vec<usize>> =
        raw.split(',').map(|t| t.trim().parse::<usize>().ok().filter(|&n| n > 0)).collect();
    match parsed {
        Some(mut counts) if !counts.is_empty() => {
            counts.sort_unstable();
            counts.dedup();
            Some(counts)
        }
        _ => {
            eprintln!(
                "warning: ignoring malformed MAGMA_PERF_LADDER '{raw}' (expected e.g. '1,2,4')"
            );
            None
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let mode = std::env::var("MAGMA_PERF_MODE").unwrap_or_else(|_| "full".into());
    let mut params = match mode.as_str() {
        "smoke" => PerfParams::smoke(scale.threads, scale.group_size, scale.seed),
        "full" => PerfParams::full(scale.threads, scale.group_size, scale.seed),
        other => {
            eprintln!("warning: unknown MAGMA_PERF_MODE '{other}' (expected 'smoke' or 'full'); using full");
            PerfParams::full(scale.threads, scale.group_size, scale.seed)
        }
    };
    if let Some(ladder) = ladder_override() {
        params.thread_counts = ladder;
    }

    println!("==============================================================");
    println!("Perf suite — parallel batch evaluation ({} mode)", params.mode);
    println!(
        "group size {}, batch {} × {}, thread ladder {:?}, seed {}",
        params.group_size, params.batch_size, params.batches, params.thread_counts, params.seed
    );
    println!("==============================================================");

    let report = run_suite(&params);
    print_report(&report);

    if report.host_parallelism < 4 {
        println!(
            "\n(note: host has {} core(s); speedups above 1x are not expected here)",
            report.host_parallelism
        );
    }
    match write_bench_json(&report) {
        Ok(path) => println!("\n(perf trajectory written to {})", path.display()),
        Err(e) => {
            // Exit non-zero: CI uploads BENCH_*.json, and the committed
            // baseline at the repo root would otherwise mask the failure
            // with a stale artifact.
            eprintln!("could not write BENCH_parallel_eval.json: {e}");
            std::process::exit(1);
        }
    }
}
