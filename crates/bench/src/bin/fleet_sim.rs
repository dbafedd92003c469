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
//! (schema `magma-fleet/v3`) through `magma_serve::emit`: self-check,
//! write, then gate.
//!
//! With `--scenario <file>` the standard set is replaced by a registry
//! scenario (`magma-registry`): every shard runs the file's platform, the
//! trace follows its tenant mix and traffic block, and the report embeds
//! the resolved scenario descriptor.
//!
//! The builtin run doubles as an acceptance check (`FleetReport::accept`)
//! and exits 1 on regression: the widest `fleet_mix` rung must beat the
//! 1-shard rung's throughput, and the `deadline_pressure` scenario must
//! actually preempt (a nonzero deadline-preemption counter at its widest
//! rung). Registry scenarios skip that gate.
//!
//! # Knobs
//!
//! Serving knobs are the shipped defaults (`ServeKnobs` / `FleetKnobs` /
//! `ServerKnobs`); per-scenario values come from the registry file's
//! `traffic` / `serving` blocks, and the environment overrides only what
//! the table lists (README has the one table of every `MAGMA_*` variable).
//!
//! | Flag / variable | Effect |
//! |---|---|
//! | `--smoke` | CI scale: 400 requests, 32 tenants, ladder {1, N} |
//! | `--scenario <file>` | run a registry scenario file instead of the standard set |
//! | `MAGMA_FLEET_SHARDS` | widest rung of the shard ladder |
//! | `MAGMA_SCENARIO_DIR` | registry root the scenario's references resolve against (default `scenarios/`) |
//! | `MAGMA_THREADS` | evaluation worker threads — wall-clock only, the report never changes |
//! | `MAGMA_BENCH_DIR` | output directory of `BENCH_fleet.json` |

use magma_serve::fleet::{run_fleet_custom, run_fleet_ladder, FleetRung, FleetScenarioResult};

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
            run_fleet_custom(knobs, smoke, resolved)
        }
        None => run_fleet_ladder(knobs, smoke),
    };
    report.scenarios.iter().for_each(print_scenario);
    setup.emit_or_exit(&report);
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
