//! Fleet determinism and preemption suite: the multi-shard serving layer
//! must emit bit-identical `BENCH_fleet.json` reports at a fixed seed
//! (whatever the worker-thread count and however often it is re-run), the
//! single-queue simulator must be *exactly* the 1-shard fleet it says it
//! is, preemption must actually fire under deadline pressure, and
//! the router's placement invariants must hold for arbitrary placement
//! sequences (proptest).
//!
//! The fleet event loop is a pure function of `(FleetConfig, TenantMix)`:
//! virtual clocks only, seeded RNG only, candidate evaluation through the
//! order-stable parallel batch oracle, and a deterministic event order
//! (arrival < cut < step on time ties, then shard index). These tests are
//! the contract that keeps it that way.

use magma_model::{Job, JobId, LayerShape, TaskType, TenantMix};
use magma_optim::parallel::with_threads;
use magma_platform::settings::{FleetKnobs, FleetPolicy, ServeKnobs};
use magma_platform::Setting;
use magma_serve::fleet::{fleet_simulate, run_fleet_ladder, FleetConfig};
use magma_serve::trace::Scenario;
use magma_serve::{quantize_signatures, BenchReport, ShardRouter, SignatureKey};
use proptest::prelude::*;
use std::collections::HashMap;

/// Miniature but non-trivial fleet knobs: several groups per shard, a real
/// cache, an offered load that genuinely overloads one shard.
fn test_knobs() -> FleetKnobs {
    FleetKnobs {
        serve: ServeKnobs {
            requests: 60,
            group_target: 6,
            cold_budget: 40,
            refine_budget: 4,
            cache_capacity: 12,
            seed: 7,
            ..ServeKnobs::smoke()
        },
        shards: 3,
        requests: 60,
        tenants: 10,
        offered_load: 12.0,
        max_live: 2,
        ..FleetKnobs::smoke()
    }
}

fn report_json(threads: usize) -> String {
    with_threads(threads, || {
        let report = run_fleet_ladder(&test_knobs(), true);
        serde_json::to_string_pretty(&report).expect("report serializes")
    })
}

#[test]
fn fleet_report_is_bit_identical_across_thread_counts() {
    let serial = report_json(1);
    let parallel = report_json(4);
    assert_eq!(serial, parallel, "MAGMA_THREADS must never change fleet metrics");
    // Oversubscription (more workers than candidates) must not matter either.
    assert_eq!(serial, report_json(64));
}

#[test]
fn fleet_report_is_bit_identical_across_repeated_runs() {
    assert_eq!(report_json(2), report_json(2));
}

#[test]
fn fleet_report_validates_and_survives_a_serde_round_trip() {
    let json = report_json(2);
    let report: magma_serve::FleetReport =
        serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(report.schema, magma_serve::FLEET_SCHEMA);
    report.validate().expect("the fleet schema self-check holds after a round trip");
    assert_eq!(serde_json::to_string_pretty(&report).unwrap(), json);
}

#[test]
fn different_seeds_produce_different_fleet_reports() {
    let a = report_json(1);
    let b = with_threads(1, || {
        let mut knobs = test_knobs();
        knobs.serve.seed = 8;
        serde_json::to_string_pretty(&run_fleet_ladder(&knobs, true)).unwrap()
    });
    assert_ne!(a, b, "the seed must actually drive the trace and searches");
}

/// The degenerate-fleet contract: `FleetConfig::single_queue` is a config of
/// the fleet loop, and the fleet it derives is the one a caller would write
/// down by hand — one shard, the Uniform policy, one live session, no value
/// preemption, no shared tier and a slice at least the search budget.
/// Bit-identical metrics, not approximate. `search_slice` is the fleet's
/// `base_slice`; on the single-queue side it is not an input.
#[test]
fn one_shard_uniform_fleet_matches_the_single_queue_simulator_exactly() {
    let serve = ServeKnobs {
        requests: 60,
        group_target: 6,
        cold_budget: 40,
        refine_budget: 4,
        cache_capacity: 12,
        offered_load: 12.0,
        search_slice: 1 << 14, // ≥ every budget: one step per search
        seed: 7,
        ..ServeKnobs::smoke()
    };
    let mix = TenantMix::synthetic(10, 3);
    for scenario in [Scenario::Poisson, Scenario::Bursty] {
        let fleet_knobs = FleetKnobs {
            serve: serve.clone(),
            shards: 1,
            shard_settings: vec![Setting::S2.into()],
            requests: serve.requests,
            tenants: 10,
            offered_load: serve.offered_load,
            max_live: 1,
            policy: FleetPolicy::Uniform,
            min_slice: 4,
            preempt_margin: 0.0,
            shared_cache_capacity: 0,
            shared_tenant_quota: 0,
        };
        let fleet = fleet_simulate(&FleetConfig::from_knobs(&fleet_knobs, 1, scenario), &mix);
        for search_slice in [serve.search_slice, 3] {
            let knobs = ServeKnobs { search_slice, ..serve.clone() };
            let single = FleetConfig::single_queue(&knobs, Setting::S2.into(), scenario);
            let sim = fleet_simulate(&single, &mix);
            assert_eq!(
                sim, fleet,
                "{scenario:?}: the single-queue simulator must equal a 1-shard Uniform fleet"
            );
        }
        assert_eq!(fleet.sched.preemptions(), 0);
        assert_eq!(fleet.per_shard_jobs, vec![serve.requests]);
    }
}

/// The preemption path end to end: under the standard deadline-pressure
/// scenario sessions are early-finished mid-budget, *and every preempted
/// group still completes and executes* (an early finish produces a usable
/// mapping, never a dropped request).
#[test]
fn deadline_preemption_fires_and_preempted_groups_still_complete() {
    let knobs = test_knobs();
    let mut config = FleetConfig::from_knobs(&knobs, 2, Scenario::Poisson);
    config.requests = 240;
    config.offered_load = knobs.offered_load * 1.5;
    config.sla_x = knobs.serve.sla_x / 3.0;
    config.core.scheduler.policy = FleetPolicy::Deadline;
    config.mapper_pressure = 1.5;
    // This test pins the preemption path, which needs a cold-search-
    // dominated mapper: the shared tier and the nearest-key probe turn most
    // searches into cheap refinements at this scale, so switch them off.
    config.core.shared_cache_capacity = 0;
    config.core.dispatch.cache_epsilon = 0.0;
    let mix = TenantMix::synthetic(knobs.tenants, 0);
    let result = with_threads(2, || fleet_simulate(&config, &mix));
    assert!(
        result.sched.preempted_deadline > 0,
        "an oversubscribed mapper with tight SLAs must deadline-preempt: {:?}",
        result.sched
    );
    assert_eq!(result.metrics.jobs, 240, "every request completes, preempted or not");
    assert_eq!(
        result.sched.admitted,
        result.sched.completed + result.sched.preemptions(),
        "every admitted session is accounted for exactly once"
    );
    assert_eq!(result.metrics.dispatch.dispatches as u64, result.sched.admitted);
    // A preempted session spent less than its budget, so the mean spent
    // samples across dispatches sit strictly below the cold budget.
    assert!(result.metrics.dispatch.cold_samples > 0);
}

/// Satellite regression: a group whose deadline is already past at
/// admission (possible under heavy batcher backlog) degrades gracefully —
/// clamped to the minimum slice, counted, preempted at its next selection —
/// and the run still completes every request without panicking.
#[test]
fn past_deadline_admissions_degrade_gracefully() {
    let knobs = test_knobs();
    let mut config = FleetConfig::from_knobs(&knobs, 1, Scenario::Bursty);
    config.requests = 240;
    // Brutal pressure: SLAs far tighter than one batch window, the mapper
    // heavily oversubscribed — late admissions are unavoidable.
    config.offered_load = knobs.offered_load * 2.0;
    config.sla_x = knobs.serve.sla_x / 20.0;
    config.core.scheduler.policy = FleetPolicy::Deadline;
    config.mapper_pressure = 3.0;
    let mix = TenantMix::synthetic(knobs.tenants, 0);
    let result = fleet_simulate(&config, &mix);
    assert_eq!(result.metrics.jobs, 240, "no request is lost to a late admission");
    assert!(
        result.sched.late_admissions > 0,
        "this pressure must actually admit groups past their deadline: {:?}",
        result.sched
    );
    assert!(result.sched.min_slice_clamps > 0, "late sessions step at the floor slice");
    assert!(result.sched.preempted_deadline > 0, "and are then early-finished");
    let violations: usize = result.metrics.tenants.iter().map(|t| t.sla_violations).sum();
    assert!(violations > 0, "blown deadlines surface as SLA violations, not panics");
}

/// The fleet warm-restart contract: every shard persists its cache to
/// `<path>.shard<i>`, a restarted fleet reloads them and hits more than the
/// cold run — and restarts from the same persisted files are bit-identical
/// whatever `MAGMA_THREADS` says (shared tier, router and scheduler
/// counters included).
#[test]
fn a_persisted_fleet_cache_restart_is_warm_and_thread_invariant() {
    let knobs = test_knobs();
    let mix = TenantMix::synthetic(knobs.tenants, 0);
    let shards = 2;
    let dir = std::env::temp_dir();
    let tag = format!("magma_fleet_it_{}", std::process::id());
    let shard_file = magma_serve::shard_cache_file;
    let seed_base = dir.join(format!("{tag}_seed"));
    for i in 0..shards {
        let _ = std::fs::remove_file(shard_file(&seed_base, i));
    }
    let mut config = FleetConfig::from_knobs(&knobs, shards, Scenario::Poisson);
    config.core.cache_path = Some(seed_base.clone());
    let cold = with_threads(2, || fleet_simulate(&config, &mix));
    let warm_run = |name: &str, threads: usize| {
        let base = dir.join(format!("{tag}_{name}"));
        for i in 0..shards {
            std::fs::copy(shard_file(&seed_base, i), shard_file(&base, i))
                .expect("the persisted shard caches copy");
        }
        let mut warm_config = config.clone();
        warm_config.core.cache_path = Some(base.clone());
        let result = with_threads(threads, || fleet_simulate(&warm_config, &mix));
        for i in 0..shards {
            let _ = std::fs::remove_file(shard_file(&base, i));
        }
        result
    };
    let warm_serial = warm_run("t1", 1);
    let warm_parallel = warm_run("t4", 4);
    for i in 0..shards {
        let _ = std::fs::remove_file(shard_file(&seed_base, i));
    }
    assert!(
        warm_serial.metrics.cache.hit_rate > cold.metrics.cache.hit_rate,
        "a fleet restart from persisted shard caches must hit more: warm {} vs cold {}",
        warm_serial.metrics.cache.hit_rate,
        cold.metrics.cache.hit_rate
    );
    assert_eq!(
        warm_serial, warm_parallel,
        "a reloaded fleet must reproduce identical results across MAGMA_THREADS"
    );
}

// ---------------------------------------------------------------------------
// Router placement invariants (proptest).
// ---------------------------------------------------------------------------

/// A distinct signature key per tag (64× size steps stay apart under the
/// 0.01-nat quantization used below).
fn key(tag: usize) -> SignatureKey {
    let job = Job::new(
        JobId(0),
        "m",
        0,
        LayerShape::FullyConnected { out_features: 64 * (tag + 1), in_features: 64 },
        4,
        TaskType::Recommendation,
    );
    quantize_signatures(&[job.signature()], 0.01)
}

/// Splitmix-style hash for deterministic pseudo-loads inside proptest cases.
fn mash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

proptest! {
    // Every admitted group lands on exactly one live (admissible) shard,
    // placement is a pure function of the op sequence, and the sticky
    // affinity/re-pin semantics match an explicit model.
    #[test]
    fn router_places_on_exactly_one_admissible_shard_deterministically(
        shards in 1usize..6,
        ops in proptest::collection::vec((0usize..12, 0u64..u64::MAX, 0u8..255), 1..60)
    ) {
        let run = |router: &mut ShardRouter| -> Result<Vec<usize>, TestCaseError> {
            let mut model: HashMap<SignatureKey, usize> = HashMap::new();
            let mut placements = Vec::with_capacity(ops.len());
            for &(tag, load_seed, mask) in &ops {
                let load: Vec<f64> =
                    (0..shards).map(|s| (mash(load_seed ^ s as u64) % 1000) as f64).collect();
                let mut admissible: Vec<bool> =
                    (0..shards).map(|s| mask & (1 << s) != 0).collect();
                if !admissible.iter().any(|&b| b) {
                    admissible = vec![true; shards];
                }
                let k = key(tag);
                let chosen = router.place(&k, &load, &admissible);
                // Exactly one live shard, and an admissible one.
                prop_assert!(chosen < shards);
                prop_assert!(admissible[chosen], "placed on an inadmissible shard");
                // Sticky affinity: an admissible pinned shard always wins;
                // otherwise the key re-pins to the chosen shard.
                match model.get(&k) {
                    Some(&pinned) if admissible[pinned] => {
                        prop_assert!(chosen == pinned, "affinity must be sticky")
                    }
                    _ => {
                        model.insert(k, chosen);
                    }
                }
                placements.push(chosen);
            }
            Ok(placements)
        };
        let first = run(&mut ShardRouter::new(shards))?;
        let second = run(&mut ShardRouter::new(shards))?;
        prop_assert!(first == second, "placement must be deterministic");
    }

    // Under uniform conditions — distinct keys, every shard admissible,
    // load reported as the router's own placement counts — no shard
    // starves: a whole number of rounds spreads exactly evenly.
    #[test]
    fn no_shard_starves_under_uniform_load(shards in 1usize..6, rounds in 1usize..8) {
        let mut router = ShardRouter::new(shards);
        for tag in 0..shards * rounds {
            let load: Vec<f64> = router.per_shard().iter().map(|&c| c as f64).collect();
            let admissible = vec![true; shards];
            router.place(&key(tag), &load, &admissible);
        }
        for (s, &count) in router.per_shard().iter().enumerate() {
            prop_assert!(
                count as usize == rounds,
                "shard {} got {} of {} placements", s, count, shards * rounds
            );
        }
        prop_assert_eq!(router.stats().placed as usize, shards * rounds);
        prop_assert!(router.stats().affinity_hits == 0, "distinct keys never hit affinity");
    }
}
