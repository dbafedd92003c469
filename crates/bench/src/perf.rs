//! The perf harness behind `BENCH_parallel_eval.json`.
//!
//! Measures the throughput of batch fitness evaluation
//! ([`magma::optim::parallel::evaluate_batch_with`]) — the hot path of every
//! optimizer in the workspace — at 1..N worker threads on figure-scale
//! problem instances, and emits a schema-stable JSON report so every future
//! PR has a recorded perf trajectory to compare against.
//!
//! The report schema ([`SCHEMA`]) is a versioned contract: fields are only
//! ever added (with a version bump), never renamed or removed, so trend
//! tooling can diff `BENCH_parallel_eval.json` across commits. The harness
//! also cross-checks, at every thread count, that the fitness vector is
//! bit-identical to the serial one — a measurement run doubles as a
//! determinism check.
//!
//! Run it via the `perf_suite` binary; CI runs the smoke mode on the
//! homogeneous instance and uploads the JSON as a workflow artifact.

use magma::optim::parallel::evaluate_batch_with;
use magma::prelude::*;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Version tag of the report layout. Bump when (and only when) fields are
/// added; existing fields are never renamed or removed.
///
/// v2 (the persistent-pool PR) added per-rung `scaling_efficiency`, the
/// report-level `pool_mode`, `warmup_batches` and `host` block — so a
/// committed `BENCH_parallel_eval.json` is self-describing: it names the
/// batch-execution machinery, the warm-up discipline and the measuring
/// host, not just the numbers.
pub const SCHEMA: &str = "magma-perf/v2";

/// One thread-count measurement on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadPerf {
    /// Worker threads used for the batch evaluation.
    pub threads: usize,
    /// Total wall-clock time of the timed batches, in milliseconds.
    pub wall_ms: f64,
    /// Achieved fitness evaluations per second.
    pub evals_per_sec: f64,
    /// Speedup over the 1-thread measurement of the same workload
    /// (`evals_per_sec / serial evals_per_sec`; 1.0 for the serial row).
    pub speedup_vs_serial: f64,
    /// Scaling efficiency of the rung: `speedup_vs_serial / threads`
    /// (1.0 = perfect linear scaling; the SG2042 HPC-characterization idiom
    /// of publishing a scaling curve, not one number). Zero when a pre-v2
    /// file is read back through [`crate::compare::load_report`].
    pub scaling_efficiency: f64,
}

/// All measurements for one problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPerf {
    /// Short stable identifier (e.g. `fig08_homogeneous_s1`).
    pub name: String,
    /// Accelerator setting of the instance.
    pub setting: Setting,
    /// Task mix of the instance.
    pub task: TaskType,
    /// Jobs per group (genome length).
    pub group_size: usize,
    /// Mappings per evaluated batch.
    pub batch_size: usize,
    /// Timed batches per thread count.
    pub batches: usize,
    /// One entry per measured thread count, serial (1 thread) first.
    pub measurements: Vec<ThreadPerf>,
}

impl WorkloadPerf {
    /// The measurement at exactly `threads` workers, if it was taken.
    pub fn at_threads(&self, threads: usize) -> Option<&ThreadPerf> {
        self.measurements.iter().find(|m| m.threads == threads)
    }
}

/// Metadata of the measuring host, stamped into every report so a committed
/// baseline can never be mistaken for numbers from a different machine (the
/// v1 file said only `host_parallelism`, which a CI re-measure silently
/// re-recorded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostMeta {
    /// Available parallelism at measurement time.
    pub parallelism: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl HostMeta {
    /// Captures the current host.
    pub fn capture() -> Self {
        HostMeta {
            parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// The full report written to `BENCH_parallel_eval.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema version tag ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Available parallelism of the measuring host. Kept from v1 (fields are
    /// never removed); duplicated inside [`PerfReport::host`].
    pub host_parallelism: usize,
    /// How parallel batches were executed
    /// ([`magma::optim::parallel::pool_mode`]) — `persistent-work-stealing`
    /// since the pool PR. Empty when a pre-v2 file is read back through
    /// [`crate::compare::load_report`].
    pub pool_mode: String,
    /// Untimed batches run per thread count before the timed ones (the first
    /// doubles as the bit-identical determinism cross-check). Zero when a
    /// pre-v2 file is read back (v1 always warmed exactly once).
    pub warmup_batches: usize,
    /// The measuring host ([`HostMeta`]); zero/empty when a pre-v2 file is
    /// read back.
    pub host: HostMeta,
    /// Thread counts measured, ascending.
    pub thread_counts: Vec<usize>,
    /// Workload seed used to generate groups and candidate batches.
    pub seed: u64,
    /// One entry per measured problem instance.
    pub workloads: Vec<WorkloadPerf>,
}

/// Parameters of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfParams {
    /// `smoke` or `full` (recorded in the report; smoke also trims the
    /// workload list to the homogeneous instance).
    pub mode: String,
    /// Jobs per group.
    pub group_size: usize,
    /// Mappings per evaluated batch.
    pub batch_size: usize,
    /// Timed batches per thread count.
    pub batches: usize,
    /// Thread counts to measure, ascending, starting at 1.
    pub thread_counts: Vec<usize>,
    /// Untimed warm-up batches per thread count (≥ 1; the first is also the
    /// determinism cross-check).
    pub warmup_batches: usize,
    /// Workload / candidate seed.
    pub seed: u64,
}

impl PerfParams {
    /// CI-friendly smoke parameters: homogeneous instance only, one warm-up.
    /// The batches are as large as full mode's because the 2-thread gate
    /// judges this rung: one fitness evaluation of a 30-job group costs about
    /// 1.5 µs, so anything much smaller than 256 × 4 leaves a serial timed
    /// region under a millisecond and the gate measuring a pool wake-up.
    pub fn smoke(max_threads: usize, group_size: usize, seed: u64) -> Self {
        PerfParams {
            mode: "smoke".into(),
            group_size,
            batch_size: 256,
            batches: 4,
            thread_counts: thread_ladder(max_threads),
            warmup_batches: 1,
            seed,
        }
    }

    /// Full parameters: figure-scale batches on every workload.
    pub fn full(max_threads: usize, group_size: usize, seed: u64) -> Self {
        PerfParams {
            mode: "full".into(),
            group_size,
            batch_size: 256,
            batches: 4,
            thread_counts: thread_ladder(max_threads),
            warmup_batches: 2,
            seed,
        }
    }
}

/// The thread counts a run measures: 1, the powers of two up to
/// `max(max_threads, 4)`, `max_threads` itself, and one **oversubscription
/// rung** at twice the top — so the 1-thread baseline, the 2-thread gate
/// point and the 4-thread acceptance point are always present, big hosts
/// get their full width measured, and the curve shows what happens past the
/// hardware (a persistent pool should degrade gracefully there, not fall
/// off a cliff). Override with an explicit list via the `perf_suite`
/// binary's `MAGMA_PERF_LADDER` knob.
pub fn thread_ladder(max_threads: usize) -> Vec<usize> {
    let top = max_threads.max(4);
    let mut ladder = vec![1usize];
    let mut t = 2;
    while t <= top {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max_threads.max(1));
    ladder.push(top * 2);
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// The figure-scale instances the harness measures. Smoke mode keeps only
/// the first (the Fig. 8 homogeneous instance the acceptance criterion names);
/// full mode adds the heterogeneous instances of Fig. 9.
fn workload_specs(smoke: bool) -> Vec<(&'static str, Setting, TaskType, f64)> {
    let mut specs = vec![("fig08_homogeneous_s1", Setting::S1, TaskType::Mix, 16.0)];
    if !smoke {
        specs.push(("fig09_heterogeneous_s2", Setting::S2, TaskType::Mix, 16.0));
        specs.push(("fig09_heterogeneous_s4", Setting::S4, TaskType::Mix, 256.0));
    }
    specs
}

/// Measures one problem instance at every thread count in `params`.
///
/// Every parallel measurement is cross-checked bit-for-bit against the
/// serial fitness vector, so a perf run is also a determinism check.
///
/// # Panics
///
/// Panics if any thread count produces a fitness vector different from the
/// serial one (that would be a parallelism bug, never acceptable), or if
/// `batch_size`/`batches`/`thread_counts` is empty/zero.
pub fn measure_workload(
    name: &str,
    setting: Setting,
    task: TaskType,
    bw_gbps: f64,
    params: &PerfParams,
) -> WorkloadPerf {
    assert!(params.batch_size > 0 && params.batches > 0 && !params.thread_counts.is_empty());
    let group = WorkloadSpec::single_group(task, params.group_size, params.seed);
    let platform = settings::build_with_bw(setting, bw_gbps);
    let num_accels = platform.num_sub_accels();
    let problem = M3e::new(platform, group, Objective::Throughput);

    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let batch: Vec<Mapping> = (0..params.batch_size)
        .map(|_| Mapping::random(&mut rng, params.group_size, num_accels))
        .collect();

    // Serial reference: warms the caches (including this thread's kernel
    // scratch) and anchors the determinism check.
    let reference = evaluate_batch_with(&problem, &batch, 1);

    let mut measurements = Vec::with_capacity(params.thread_counts.len());
    let mut serial_rate = None;
    for &threads in &params.thread_counts {
        // Untimed warm-ups; the first doubles as the determinism
        // cross-check, the rest settle the (persistent) pool and the
        // branch predictors before the timer starts.
        let check = evaluate_batch_with(&problem, &batch, threads);
        assert!(
            check.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: fitness vector at {threads} threads differs from serial"
        );
        for _ in 1..params.warmup_batches.max(1) {
            std::hint::black_box(evaluate_batch_with(&problem, &batch, threads));
        }

        let start = Instant::now();
        for _ in 0..params.batches {
            std::hint::black_box(evaluate_batch_with(&problem, &batch, threads));
        }
        let wall = start.elapsed();
        let evals = (params.batches * params.batch_size) as f64;
        let evals_per_sec = evals / wall.as_secs_f64().max(1e-12);
        let serial = *serial_rate.get_or_insert(evals_per_sec);
        let speedup_vs_serial = evals_per_sec / serial;
        measurements.push(ThreadPerf {
            threads,
            wall_ms: wall.as_secs_f64() * 1e3,
            evals_per_sec,
            speedup_vs_serial,
            scaling_efficiency: speedup_vs_serial / threads as f64,
        });
    }

    WorkloadPerf {
        name: name.to_string(),
        setting,
        task,
        group_size: params.group_size,
        batch_size: params.batch_size,
        batches: params.batches,
        measurements,
    }
}

/// Runs the whole suite and assembles the report.
pub fn run_suite(params: &PerfParams) -> PerfReport {
    let smoke = params.mode == "smoke";
    let workloads = workload_specs(smoke)
        .into_iter()
        .map(|(name, setting, task, bw)| measure_workload(name, setting, task, bw, params))
        .collect();
    let host = HostMeta::capture();
    PerfReport {
        schema: SCHEMA.to_string(),
        mode: params.mode.clone(),
        host_parallelism: host.parallelism,
        pool_mode: magma::optim::parallel::pool_mode().to_string(),
        warmup_batches: params.warmup_batches.max(1),
        host,
        thread_counts: params.thread_counts.clone(),
        seed: params.seed,
        workloads,
    }
}

/// Prints the report as a per-workload table (threads, evals/sec, speedup).
pub fn print_report(report: &PerfReport) {
    for w in &report.workloads {
        println!(
            "\n[{}] {} / {} — {} jobs, batches of {} × {}",
            w.name, w.setting, w.task, w.group_size, w.batch_size, w.batches
        );
        println!(
            "{:>8} {:>12} {:>14} {:>10} {:>12}",
            "threads", "wall (ms)", "evals/sec", "speedup", "efficiency"
        );
        for m in &w.measurements {
            println!(
                "{:>8} {:>12.2} {:>14.0} {:>9.2}x {:>11.0}%",
                m.threads,
                m.wall_ms,
                m.evals_per_sec,
                m.speedup_vs_serial,
                m.scaling_efficiency * 100.0
            );
        }
    }
}

/// Writes the report to `BENCH_parallel_eval.json` in `MAGMA_BENCH_DIR`
/// (default: the current directory, i.e. the repo root under `cargo run`),
/// returning the path on success and the underlying error otherwise (the
/// `perf_suite` binary exits non-zero on failure so CI never silently
/// uploads a stale trajectory).
pub fn write_bench_json(report: &PerfReport) -> std::io::Result<PathBuf> {
    let dir = std::env::var("MAGMA_BENCH_DIR").map(PathBuf::from).unwrap_or_else(|_| ".".into());
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_parallel_eval.json");
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::other(format!("serializing the perf report: {e}")))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> PerfParams {
        PerfParams {
            mode: "smoke".into(),
            group_size: 4,
            batch_size: 8,
            batches: 1,
            thread_counts: vec![1, 2],
            warmup_batches: 1,
            seed: 0,
        }
    }

    #[test]
    fn thread_ladder_always_has_serial_four_and_oversubscription() {
        for max in [1, 2, 3, 4, 6, 8, 11, 64] {
            let ladder = thread_ladder(max);
            assert_eq!(ladder[0], 1, "max {max}");
            assert!(ladder.contains(&2), "max {max}: {ladder:?}");
            assert!(ladder.contains(&4), "max {max}: {ladder:?}");
            assert!(ladder.contains(&max.max(1)), "max {max}: {ladder:?}");
            // The oversubscription rung: twice the top of the ladder proper.
            assert!(ladder.contains(&(max.max(4) * 2)), "max {max}: {ladder:?}");
            assert!(ladder.windows(2).all(|w| w[0] < w[1]), "max {max}: {ladder:?}");
        }
    }

    #[test]
    fn measurements_are_positive_and_anchored_at_serial() {
        let w = measure_workload("t", Setting::S1, TaskType::Mix, 16.0, &tiny_params());
        assert_eq!(w.measurements.len(), 2);
        assert_eq!(w.measurements[0].threads, 1);
        assert_eq!(w.measurements[0].speedup_vs_serial, 1.0);
        assert_eq!(w.measurements[0].scaling_efficiency, 1.0);
        assert!(w.measurements.iter().all(|m| m.evals_per_sec > 0.0 && m.wall_ms > 0.0));
        for m in &w.measurements {
            assert_eq!(m.scaling_efficiency, m.speedup_vs_serial / m.threads as f64);
        }
        assert!(w.at_threads(2).is_some() && w.at_threads(3).is_none());
    }

    #[test]
    fn smoke_suite_covers_the_homogeneous_instance_only() {
        let report = run_suite(&tiny_params());
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.workloads.len(), 1);
        assert_eq!(report.workloads[0].name, "fig08_homogeneous_s1");
        assert_eq!(report.workloads[0].setting, Setting::S1);
        assert!(report.host_parallelism >= 1);
        assert_eq!(report.host.parallelism, report.host_parallelism);
        assert_eq!(report.pool_mode, magma::optim::parallel::pool_mode());
        assert_eq!(report.warmup_batches, 1);
        assert!(!report.host.os.is_empty() && !report.host.arch.is_empty());
    }

    #[test]
    fn report_round_trips_through_serde_with_stable_keys() {
        let report = run_suite(&tiny_params());
        let json = serde_json::to_string_pretty(&report).unwrap();
        // The schema contract: these keys must never be renamed (only added
        // to, with a SCHEMA bump).
        for key in [
            "\"schema\"",
            "\"mode\"",
            "\"host_parallelism\"",
            "\"pool_mode\"",
            "\"warmup_batches\"",
            "\"host\"",
            "\"parallelism\"",
            "\"os\"",
            "\"arch\"",
            "\"scaling_efficiency\"",
            "\"thread_counts\"",
            "\"seed\"",
            "\"workloads\"",
            "\"name\"",
            "\"setting\"",
            "\"task\"",
            "\"group_size\"",
            "\"batch_size\"",
            "\"batches\"",
            "\"measurements\"",
            "\"threads\"",
            "\"wall_ms\"",
            "\"evals_per_sec\"",
            "\"speedup_vs_serial\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
