//! `serve_sim` — the online multi-tenant serving simulator behind
//! `BENCH_serve.json` (not a paper artefact; the serving layer on top of the
//! paper's per-group mapper).
//!
//! Runs the standard scenario ladder of `magma_serve::report` — stationary
//! Poisson multi-tenant traffic, a repeated-tenant trace, and (full mode)
//! bursty and tenant-drift traffic — through the virtual-clock simulator
//! (each group's search hidden behind the previous group's execution),
//! prints a latency/throughput/cache profile per scenario, and writes the
//! schema-stable `BENCH_serve.json` (schema `magma-serve/v4`) through
//! `magma_serve::emit`: self-check, write, then gate.
//!
//! With `--scenario <file>` the builtin ladder is replaced by a scenario
//! from the registry (`magma-registry`): the file's platform / tenant-mix /
//! traffic definitions are validated, resolved and run, and the report
//! embeds the resolved scenario descriptor.
//!
//! The builtin run doubles as an acceptance check (`ServeReport::accept`)
//! and exits 1 on regression, so CI can never silently lose the win: on the
//! repeated-tenant scenario the cache-hit dispatches must reach ≥ 90% of the
//! cold-search throughput while spending ≤ 10% of the cold sample budget.
//! Registry scenarios skip the ladder-specific acceptance gate.
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
//! | `--smoke` | CI scale: 96 requests, groups of 8, 60/6 budgets, 2 scenarios |
//! | `--scenario <file>` | run a registry scenario file instead of the builtin ladder |
//! | `MAGMA_SERVE_REQUESTS` | arrivals per scenario |
//! | `MAGMA_SCENARIO_DIR` | registry root the scenario's references resolve against (default `scenarios/`) |
//! | `MAGMA_THREADS` | evaluation worker threads — wall-clock only, the report never changes |
//! | `MAGMA_BENCH_DIR` | output directory of `BENCH_serve.json` |

use magma_serve::metrics::LatencyStats;
use magma_serve::report::{run_custom_scenario, run_standard_scenarios, ScenarioResult};

fn main() {
    let setup = magma_bench::serving_setup();
    let (smoke, knobs) = (setup.smoke, &setup.knobs.fleet.serve);
    println!("==============================================================");
    println!("serve_sim — online multi-tenant serving (magma-serve)");
    println!(
        "mode {}, {} requests/scenario, groups of {}, budgets {}/{} (cold/refine), \
         cache {} entries (epsilon {}), seed {}",
        setup.mode(),
        knobs.requests,
        knobs.group_target,
        knobs.cold_budget,
        knobs.refine_budget,
        knobs.cache_capacity,
        knobs.cache_epsilon,
        knobs.seed
    );
    println!("==============================================================");

    let report = match &setup.scenario {
        Some(resolved) => {
            magma_bench::print_scenario(resolved);
            run_custom_scenario(knobs, smoke, resolved)
        }
        None => run_standard_scenarios(knobs, smoke),
    };
    report.scenarios.iter().for_each(print_scenario);
    setup.emit_or_exit(&report);
}

fn latency_row(label: &str, s: &LatencyStats) {
    println!(
        "  {label:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        s.mean_sec * 1e6,
        s.p50_sec * 1e6,
        s.p95_sec * 1e6,
        s.p99_sec * 1e6,
        s.max_sec * 1e6
    );
}

fn print_scenario(s: &ScenarioResult) {
    let m = &s.metrics;
    println!(
        "\n[{}] {} — {} jobs in {:.1} ms of virtual time ({:.0} jobs/s, {:.1} GFLOP/s)",
        s.name,
        s.scenario,
        m.jobs,
        m.duration_sec * 1e3,
        m.jobs_per_sec,
        m.throughput_gflops
    );
    println!(
        "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "latency (µs)", "mean", "p50", "p95", "p99", "max"
    );
    latency_row("queueing", &m.queueing);
    latency_row("service", &m.service);
    latency_row("end-to-end", &m.end_to_end);
    println!(
        "  cache: {} hits ({} near) / {} misses (rate {:.2}), {} evictions, {} live entries",
        m.cache.hits,
        m.cache.near_hits,
        m.cache.misses,
        m.cache.hit_rate,
        m.cache.evictions,
        m.cache.entries
    );
    println!(
        "  dispatch: {} cold ({} samples, {:.1} GFLOP/s mean) vs {} hits \
         ({} samples, {:.1} GFLOP/s mean) → ratio {:.3} at {:.1}% of cold budget",
        m.dispatch.cold,
        m.dispatch.cold_samples,
        m.dispatch.cold_gflops_mean,
        m.dispatch.hits,
        m.dispatch.hit_samples,
        m.dispatch.hit_gflops_mean,
        m.dispatch.hit_cold_throughput_ratio,
        m.dispatch.hit_sample_fraction * 100.0
    );
    for t in &m.tenants {
        println!(
            "  tenant {:<16} {} jobs, p99 {:.1} µs, SLA({:.1} µs ×{:.2}) violations {} ({:.1}%)",
            t.tenant,
            t.jobs,
            t.latency.p99_sec * 1e6,
            t.sla_sec * 1e6,
            t.sla_multiplier,
            t.sla_violations,
            t.sla_violation_rate * 100.0
        );
    }
}
