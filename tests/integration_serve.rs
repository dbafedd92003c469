//! Serving determinism suite: the online simulator must emit bit-identical
//! `BENCH_serve.json` metrics at a fixed seed, whatever the worker-thread
//! count and however often it is re-run.
//!
//! The report is purely virtual-clock (no wall-clock fields, no thread
//! counts), every search evaluates candidates through the order-stable
//! parallel batch oracle, and every RNG is seeded — so the *entire
//! serialized report* must be byte-equal across `MAGMA_THREADS` ∈ {1, 4}
//! (pinned per-thread via `magma_optim::parallel::with_threads`, exactly as
//! the optimizer determinism suite does) and across repeated runs. The suite
//! also locks the acceptance criterion — the repeated-tenant cache economics
//! (hits ≥ 90% of cold throughput at ≤ 10% of the cold budget) — pins the
//! full-scale numbers (the shipped knobs must regenerate the committed
//! `BENCH_serve.json` and `BENCH_cache.json` exactly) and holds the three
//! committed reports to the gates the binaries apply: each passes
//! `validate` and `accept`, and a bent copy fails by the threshold's name.

use magma_optim::parallel::with_threads;
use magma_platform::settings::ServeKnobs;
use magma_serve::report::run_standard_scenarios;
use magma_serve::sweep::run_cache_sweep;
use magma_serve::{BenchReport, CacheSweepReport, FleetReport, ServeReport};

const BENCH_SERVE: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json"));
const BENCH_FLEET: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json"));
const BENCH_CACHE: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json"));

/// Miniature but non-trivial knobs: several dispatch groups per scenario,
/// cold/refine budgets in the acceptance ratio, a real (bounded) cache.
fn test_knobs() -> ServeKnobs {
    ServeKnobs {
        requests: 64,
        group_target: 8,
        cold_budget: 50,
        refine_budget: 5,
        cache_capacity: 12,
        seed: 7,
        ..ServeKnobs::smoke()
    }
}

fn report_json(threads: usize) -> String {
    with_threads(threads, || {
        let report = run_standard_scenarios(&test_knobs(), true);
        serde_json::to_string_pretty(&report).expect("report serializes")
    })
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let serial = report_json(1);
    let parallel = report_json(4);
    assert_eq!(serial, parallel, "MAGMA_THREADS must never change serving metrics");
    // Oversubscription (more workers than candidates) must not matter either.
    assert_eq!(serial, report_json(64));
}

#[test]
fn report_is_bit_identical_across_repeated_runs() {
    assert_eq!(report_json(2), report_json(2));
}

#[test]
fn report_survives_a_serde_round_trip_under_parallel_evaluation() {
    let json = report_json(4);
    let report: ServeReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(report.schema, magma_serve::SCHEMA);
    assert_eq!(report.scenarios.len(), 2);
    report.validate().expect("the schema self-check holds after a round trip");
    assert_eq!(serde_json::to_string_pretty(&report).unwrap(), json);
}

#[test]
fn different_seeds_produce_different_reports() {
    let a = report_json(1);
    let b = with_threads(1, || {
        let knobs = ServeKnobs { seed: 8, ..test_knobs() };
        serde_json::to_string_pretty(&run_standard_scenarios(&knobs, true)).unwrap()
    });
    assert_ne!(a, b, "the seed must actually drive the trace and searches");
}

#[test]
fn acceptance_criterion_holds_on_the_repeated_tenant_trace() {
    let report = with_threads(4, || run_standard_scenarios(&test_knobs(), true));
    report.accept().expect("the repeated-tenant cache economics hold");
    let repeat = report.scenarios.iter().find(|s| s.name == "repeated_tenant").unwrap();
    // The cache never exceeds its bound.
    assert!(repeat.metrics.cache.entries <= test_knobs().cache_capacity);
}

/// The committed serving profile is what the shipped knobs produce today: a
/// refactor of the serving stack cannot bend `BENCH_serve.json` unnoticed.
#[test]
fn full_scale_ladder_regenerates_the_committed_bench_serve_json() {
    let report = run_standard_scenarios(&ServeKnobs::full(), false);
    let json = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
    assert!(json == BENCH_SERVE, "BENCH_serve.json is stale: regenerate it with `serve_sim`");
}

/// The same for the cache-calibration sweep.
#[test]
fn full_scale_sweep_regenerates_the_committed_bench_cache_json() {
    let report = run_cache_sweep(&ServeKnobs::full(), false);
    let json = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
    assert!(json == BENCH_CACHE, "BENCH_cache.json is stale: regenerate it with `cache_sweep`");
}

/// What is committed is what the gates accept: each file deserializes,
/// passes the schema self-check and its acceptance gate (parse-only).
#[test]
fn the_committed_reports_validate_and_pass_their_gates() {
    fn check<R: BenchReport + serde::Deserialize>(json: &str, summary_names: &str) {
        let report: R = serde_json::from_str(json).expect("the committed report deserializes");
        report.validate().unwrap_or_else(|e| panic!("{}: {e}", R::FILE));
        let summary = report.accept().unwrap_or_else(|e| panic!("{}: {e}", R::FILE));
        assert!(summary.contains(summary_names), "{}: {summary}", R::FILE);
    }
    check::<ServeReport>(BENCH_SERVE, "hit/cold throughput ratio 1.0");
    check::<FleetReport>(BENCH_FLEET, "fleet_mix 4-shard speedup");
    check::<CacheSweepReport>(BENCH_CACHE, "shipped defaults match");
}

/// Every threshold a binary gates on, bent one at a time in a copy of the
/// committed report: `accept` names the threshold and the measured value.
#[test]
fn a_bent_report_fails_its_gate_by_the_thresholds_name() {
    fn refused(verdict: Result<String, String>, names: &str) {
        let violation = verdict.expect_err(names);
        assert!(violation.contains(names), "{violation:?} does not name {names:?}");
    }

    let serve: ServeReport = serde_json::from_str(BENCH_SERVE).unwrap();
    let repeated = serve.scenarios.iter().position(|s| s.name == "repeated_tenant").unwrap();
    let mut slow_hits = serve.clone();
    slow_hits.scenarios[repeated].metrics.dispatch.hit_cold_throughput_ratio = 0.89;
    refused(slow_hits.accept(), "hit/cold throughput ratio 0.8900 is under the floor of 0.9");
    let mut dear_hits = serve;
    dear_hits.scenarios[repeated].metrics.dispatch.hit_sample_fraction = 0.11;
    refused(dear_hits.accept(), "0.1100 of the cold sample budget");

    let fleet: FleetReport = serde_json::from_str(BENCH_FLEET).unwrap();
    let names: Vec<&str> = fleet.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["fleet_mix", "deadline_pressure"]);
    let mut flat = fleet.clone();
    let one_shard = flat.scenarios[0].rungs[0].jobs_per_sec;
    flat.scenarios[0].rungs.last_mut().unwrap().jobs_per_sec = one_shard;
    refused(flat.accept(), "fleet_mix at 4 shards");
    let mut calm = fleet.clone();
    calm.scenarios[1].rungs.last_mut().unwrap().preemptions = 0;
    refused(calm.accept(), "deadline_pressure preempted 0 sessions at 4 shards");

    let cache: CacheSweepReport = serde_json::from_str(BENCH_CACHE).unwrap();
    let mut no_frontier = cache.clone();
    no_frontier.calibrated = None;
    refused(no_frontier.accept(), "no admissible grid point");
    let mut drifted = cache;
    drifted.defaults_match_calibrated = false;
    refused(drifted.accept(), "are not the calibrated point");
    // Smoke sweeps only A/B the probe: their defaults are not held to it.
    drifted.mode = "smoke".into();
    drifted.accept().expect("a smoke sweep with a calibrated point passes");
}

/// The header check is one function: each report kind rejects a foreign
/// schema tag, a mode that is neither `smoke` nor `full`, and a descriptor
/// whose parameters were edited without re-hashing.
#[test]
fn every_report_kind_shares_the_header_check() {
    macro_rules! header_is_checked {
        ($kind:ty, $json:expr) => {{
            let good: $kind = serde_json::from_str($json).unwrap();
            let mut bent = good.clone();
            bent.schema.push_str("-next");
            assert!(bent.validate().unwrap_err().contains("schema tag"));
            let mut bent = good.clone();
            bent.mode = "ful".into();
            assert!(bent.validate().unwrap_err().contains("mode \"ful\""));
            let mut bent = good.clone();
            bent.scenario_descriptor.params = serde::Value::Null;
            assert!(bent.validate().unwrap_err().contains("content_hash"));
        }};
    }
    header_is_checked!(ServeReport, BENCH_SERVE);
    header_is_checked!(FleetReport, BENCH_FLEET);
    header_is_checked!(CacheSweepReport, BENCH_CACHE);
}

/// The warm-restart contract of `MAGMA_SERVE_CACHE_PATH`: a run persists
/// its mapping cache (to `<path>.shard0`, like every driver), a restart
/// loads it and serves strictly more hits than the cold run did — and two
/// restarts from the same persisted file are bit-identical whatever
/// `MAGMA_THREADS` says.
#[test]
fn a_persisted_cache_restart_is_warm_and_thread_invariant() {
    use magma_model::TenantMix;
    use magma_platform::Setting;
    use magma_serve::fleet::{fleet_simulate, FleetConfig};
    use magma_serve::shard_cache_file;
    use magma_serve::trace::Scenario;

    let knobs = test_knobs();
    let mix = TenantMix::synthetic(8, knobs.seed);
    let dir = std::env::temp_dir();
    let seed_path = dir.join(format!("magma_serve_cache_seed_{}", std::process::id()));
    let seed_file = shard_cache_file(&seed_path, 0);
    let _ = std::fs::remove_file(&seed_file);
    let base = FleetConfig::single_queue(&knobs, Setting::S2.into(), Scenario::Poisson);
    let persisting_at = |path: &std::path::Path| {
        let mut config = base.clone();
        config.core.cache_path = Some(path.to_path_buf());
        config
    };
    // First run: starts cold, persists its cache on exit.
    let cold = with_threads(2, || fleet_simulate(&persisting_at(&seed_path), &mix));
    // Every restart loads its own copy of the persisted file — a run
    // overwrites its cache file on exit, so copies keep the restarts
    // independent and comparable.
    let warm_run = |tag: &str, threads: usize| {
        let path = dir.join(format!("magma_serve_cache_{tag}_{}", std::process::id()));
        let copy = shard_cache_file(&path, 0);
        std::fs::copy(&seed_file, &copy).expect("the persisted cache copies");
        let result = with_threads(threads, || fleet_simulate(&persisting_at(&path), &mix));
        let _ = std::fs::remove_file(copy);
        result
    };
    let warm_serial = warm_run("t1", 1);
    let warm_parallel = warm_run("t4", 4);
    let _ = std::fs::remove_file(&seed_file);
    assert!(
        warm_serial.metrics.cache.hit_rate > cold.metrics.cache.hit_rate,
        "a restart from the persisted cache must hit more: warm {} vs cold {}",
        warm_serial.metrics.cache.hit_rate,
        cold.metrics.cache.hit_rate
    );
    assert!(warm_serial.metrics.cache.hits > cold.metrics.cache.hits);
    assert_eq!(
        warm_serial.metrics, warm_parallel.metrics,
        "a reloaded cache must reproduce identical metrics across MAGMA_THREADS"
    );
}

#[test]
fn every_scenario_completes_all_requests_with_sane_profiles() {
    let report = with_threads(2, || run_standard_scenarios(&test_knobs(), true));
    for s in &report.scenarios {
        let m = &s.metrics;
        assert_eq!(m.jobs, 64, "{}", s.name);
        assert_eq!(m.tenants.iter().map(|t| t.jobs).sum::<usize>(), m.jobs, "{}", s.name);
        assert!(m.duration_sec > 0.0 && m.throughput_gflops > 0.0, "{}", s.name);
        for stats in [&m.queueing, &m.service, &m.end_to_end] {
            assert_eq!(stats.count, m.jobs, "{}", s.name);
            assert!(stats.p50_sec <= stats.p95_sec && stats.p95_sec <= stats.p99_sec);
            assert!(stats.p99_sec <= stats.max_sec && stats.max_sec.is_finite());
        }
        assert_eq!(m.cache.hits + m.cache.misses, m.dispatch.dispatches as u64, "{}", s.name);
    }
}

/// The persisted format is a contract with files already on disk:
/// `tests/data/cache_parent.json` was written by the code *before*
/// signatures carried log coordinates and entries a derived index (five
/// entries: profiled and plain signatures, a three-job group, an entry
/// without signatures, one signature set under two keys), and
/// `cache_parent_after_probe.json` by the same code after one near-hit probe
/// — a distance tie between the twin entries, settled by recency. Today's
/// code must load the first, re-save it to the same bytes, serve the same
/// near hit and arrive at the second file's bytes.
#[test]
fn a_cache_file_written_before_the_scan_rewrite_loads_probes_and_resaves_identically() {
    use magma_m3e::{M3e, Objective};
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::settings::{self, Setting};
    use magma_serve::{quantize_signatures, MappingCache};
    use std::path::PathBuf;

    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let before = std::fs::read(data.join("cache_parent.json")).unwrap();
    let after = std::fs::read(data.join("cache_parent_after_probe.json")).unwrap();
    let mut cache = MappingCache::load(&data.join("cache_parent.json")).expect("the file loads");
    assert_eq!(cache.len(), 5);

    let scratch = std::env::temp_dir().join(format!("magma_golden_cache_{}", std::process::id()));
    let resaved = |cache: &MappingCache| {
        cache.save(&scratch).expect("temp dir is writable");
        std::fs::read(&scratch).unwrap()
    };
    assert!(resaved(&cache) == before, "load → save changed the file");

    let group = WorkloadSpec::single_group(TaskType::Vision, 4, 5);
    let probe = M3e::new(settings::build(Setting::S2), group, Objective::Throughput);
    let key = quantize_signatures(probe.signatures(), 1.0);
    let hit = cache.lookup_near(&key, probe.signatures(), 8.0).expect("a vision entry is near");
    assert_eq!(hit.mapping().accel_sel(), [0, 2, 0, 2], "the more recent of the tied twins");
    assert!(resaved(&cache) == after, "the probe left a different cache than it used to");
    assert!(cache.lookup_near(&key, probe.signatures(), 0.01).is_none());
    let _ = std::fs::remove_file(&scratch);
}
