//! `fleet_sim` — the fleet-scale serving benchmark behind
//! `BENCH_fleet.json` (not a paper artefact; the multi-shard layer on top
//! of the paper's per-group mapper).
//!
//! Runs the standard fleet scenario set of `magma_serve::fleet` — the
//! `fleet_mix` scaling headline (a large synthetic tenant mix at an offered
//! load that drowns one shard) and the `deadline_pressure` preemption
//! stress (higher load, SLAs cut to a third, the mapper oversubscribed) —
//! over a shard-count ladder, prints a throughput/latency/preemption
//! profile per rung and writes the schema-stable `BENCH_fleet.json`
//! (schema `magma-fleet/v3`, self-checked via `FleetReport::validate`).
//!
//! With `--scenario <file>` the standard set is replaced by a registry
//! scenario (`magma-registry`): every shard runs the file's platform, the
//! trace follows its tenant mix and traffic block, and the report embeds
//! the resolved scenario descriptor.
//!
//! The builtin run doubles as an acceptance check and panics on regression:
//! the widest `fleet_mix` rung must beat the 1-shard rung's throughput, and
//! the `deadline_pressure` scenario must actually preempt (a nonzero
//! deadline-preemption counter at its widest rung). Registry scenarios skip
//! that gate.
//!
//! # Knobs
//!
//! Serving knobs are the shipped defaults (`ServeKnobs` / `FleetKnobs` /
//! `ServerKnobs`); per-scenario values come from the registry file's
//! `traffic` / `serving` blocks, and the environment overrides only what
//! the table lists (README has the one table of all 16 `MAGMA_*` variables).
//!
//! | Flag / variable | Effect |
//! |---|---|
//! | `--smoke` | CI scale: 400 requests, 32 tenants, ladder {1, N} |
//! | `--scenario <file>` | run a registry scenario file instead of the standard set |
//! | `MAGMA_FLEET_SHARDS` | widest rung of the shard ladder |
//! | `MAGMA_SCENARIO_DIR` | registry root the scenario's references resolve against (default `scenarios/`) |
//! | `MAGMA_THREADS` | evaluation worker threads — wall-clock only, the report never changes |
//! | `MAGMA_BENCH_DIR` | output directory of `BENCH_fleet.json` |

use magma_serve::fleet::{
    run_fleet_custom, run_fleet_ladder, write_fleet_json, FleetRung, FleetScenarioResult,
};
use magma_serve::FleetReport;

fn main() {
    let setup = magma_bench::serving_setup();
    let (smoke, knobs) = (setup.smoke, &setup.knobs.fleet);
    println!("==============================================================");
    println!("fleet_sim — fleet-scale multi-shard serving (magma-serve)");
    println!(
        "mode {}, {} shards ({}), {} requests/rung, {} tenants, load {}x, \
         policy {}, max_live {}, min_slice {}, preempt margin {}, seed {}",
        setup.mode(),
        knobs.shards,
        knobs.shard_settings.iter().map(|s| s.label()).collect::<Vec<_>>().join(","),
        knobs.requests,
        setup.scenario.as_ref().map_or(knobs.tenants, |s| s.mix.len()),
        knobs.offered_load,
        knobs.policy,
        knobs.max_live,
        knobs.min_slice,
        knobs.preempt_margin,
        knobs.serve.seed
    );
    println!("==============================================================");

    let report = match &setup.scenario {
        Some(resolved) => {
            magma_bench::print_scenario(resolved);
            run_fleet_custom(knobs, smoke, &resolved.custom())
        }
        None => run_fleet_ladder(knobs, smoke),
    };
    if let Err(violation) = report.validate() {
        eprintln!("magma-fleet/v3 schema self-check failed: {violation}");
        std::process::exit(1);
    }
    print_report(&report);
    if setup.scenario.is_none() {
        check_acceptance(&report);
    }

    match write_fleet_json(&report) {
        Ok(path) => println!("\n(fleet profile written to {})", path.display()),
        Err(e) => {
            eprintln!("could not write BENCH_fleet.json: {e}");
            std::process::exit(1);
        }
    }
}

fn print_rung(r: &FleetRung) {
    println!(
        "  {:>2} shard{} {:>9.0} jobs/s ({:>5.2}x) {:>8.1} GFLOP/s  \
         e2e p50/p95/p99 {:>9.1}/{:>9.1}/{:>9.1} µs",
        r.shards,
        if r.shards == 1 { " " } else { "s" },
        r.jobs_per_sec,
        r.speedup_vs_one_shard,
        r.throughput_gflops,
        r.p50_e2e_us,
        r.p95_e2e_us,
        r.p99_e2e_us
    );
    println!(
        "     sessions: {} admitted = {} completed + {} preempted \
         ({} deadline / {} value), {} late, {} floor-clamped slices",
        r.admitted,
        r.completed,
        r.preemptions,
        r.preempted_deadline,
        r.preempted_value,
        r.late_admissions,
        r.min_slice_clamps
    );
    println!(
        "     routing: {}/{} affinity hits, {} shared-balanced, per-shard jobs {:?}; \
         cache rate {:.2}; SLA violations {} ({:.1}%)",
        r.affinity_hits,
        r.placed,
        r.shared_balanced,
        r.per_shard_jobs,
        r.cache.hit_rate,
        r.sla_violations,
        r.sla_violation_rate * 100.0
    );
    if r.shared.hits + r.shared.misses > 0 {
        println!(
            "     shared tier: {} hits / {} lookups (rate {:.2}), {} entries, {} evictions",
            r.shared.hits,
            r.shared.hits + r.shared.misses,
            r.shared.hit_rate,
            r.shared.entries,
            r.shared.evictions
        );
    }
}

fn print_scenario(s: &FleetScenarioResult) {
    println!(
        "\n[{}] {} traffic, {} policy, load {:.2}x, SLA x{:.2}:",
        s.name, s.scenario, s.policy, s.offered_load, s.sla_x
    );
    for rung in &s.rungs {
        print_rung(rung);
    }
}

fn print_report(report: &FleetReport) {
    for s in &report.scenarios {
        print_scenario(s);
    }
}

/// The fleet acceptance criteria. Panics on regression so CI fails loudly.
fn check_acceptance(report: &FleetReport) {
    let scenario = |name: &str| -> &FleetScenarioResult {
        report
            .scenarios
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("the standard set always contains {name}"))
    };
    let mix = scenario("fleet_mix");
    let one = mix.rungs.first().expect("the ladder starts at 1 shard");
    let wide = mix.rungs.last().expect("the ladder is non-empty");
    assert!(
        wide.shards > one.shards,
        "the ladder must span more than one shard count to show scaling"
    );
    assert!(
        wide.jobs_per_sec > one.jobs_per_sec,
        "{} shards ({:.0} jobs/s) failed to beat 1 shard ({:.0} jobs/s) on the fleet mix",
        wide.shards,
        wide.jobs_per_sec,
        one.jobs_per_sec
    );
    let pressure = scenario("deadline_pressure");
    let stressed = pressure.rungs.last().expect("the ladder is non-empty");
    assert!(
        stressed.preemptions > 0,
        "the deadline-pressure scenario completed without a single preemption at {} shards",
        stressed.shards
    );
    println!(
        "\nacceptance: fleet_mix {}-shard speedup {:.2}x over 1 shard; \
         deadline_pressure preempted {} sessions ({} deadline / {} value) at {} shards",
        wide.shards,
        wide.speedup_vs_one_shard,
        stressed.preemptions,
        stressed.preempted_deadline,
        stressed.preempted_value,
        stressed.shards
    );
}
