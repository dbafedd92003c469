//! `cache_sweep` — the mapping-cache calibration sweep behind
//! `BENCH_cache.json` (not a paper artefact; the tuning harness for the
//! serving layer's warm-start cache).
//!
//! Sweeps the nearest-key probe threshold × refinement budget × key
//! quantization step grid of `magma_serve::sweep` on the standard Poisson
//! mix trace, prints the measured frontier (hit rate, near-hit share, hit
//! quality vs cold search, end-to-end latency per point) and writes the
//! schema-stable `BENCH_cache.json` (schema `magma-cache/v3`) through
//! `magma_serve::emit`: self-check, write, then gate.
//!
//! With `--scenario <file>` the sweep's trace comes from a registry
//! scenario (`magma-registry`) instead of the standard Poisson mix, and
//! the report embeds the resolved scenario descriptor.
//!
//! The builtin run doubles as an acceptance check
//! (`CacheSweepReport::accept`) and exits 1 on regression: a calibrated
//! point must exist (near-hit quality ≥ 0.95× cold search at ≤ 0.25× of the
//! cold budget), and in full mode the shipped defaults must be that
//! calibrated point — so a default that the frontier no longer justifies
//! fails CI instead of shipping silently. Registry scenarios skip that gate
//! — their frontier is the scenario's, not the shipped defaults'.
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
//! | `--smoke` | CI scale: tiny grid (probe off vs shipped epsilon) |
//! | `--scenario <file>` | sweep on a registry scenario's trace instead of the standard Poisson mix |
//! | `MAGMA_SERVE_REQUESTS` | arrivals per grid point |
//! | `MAGMA_SCENARIO_DIR` | registry root the scenario's references resolve against (default `scenarios/`) |
//! | `MAGMA_THREADS` | evaluation worker threads — wall-clock only, the report never changes |
//! | `MAGMA_BENCH_DIR` | output directory of `BENCH_cache.json` |

use magma_serve::sweep::{run_cache_sweep, run_cache_sweep_custom, SweepPoint};
use magma_serve::CacheSweepReport;

fn main() {
    let setup = magma_bench::serving_setup();
    let (smoke, knobs) = (setup.smoke, &setup.knobs.fleet.serve);
    println!("==============================================================");
    println!("cache_sweep — mapping-cache calibration (magma-serve)");
    println!(
        "mode {}, {} requests/point, groups of {}, cold budget {}, cache {} entries, seed {}",
        setup.mode(),
        knobs.requests,
        knobs.group_target,
        knobs.cold_budget,
        knobs.cache_capacity,
        knobs.seed
    );
    println!(
        "knob point: epsilon {}, refine budget {}, quant step {}",
        knobs.cache_epsilon, knobs.refine_budget, knobs.quant_step
    );
    println!("==============================================================");

    let report = match &setup.scenario {
        Some(resolved) => {
            magma_bench::print_scenario(resolved);
            run_cache_sweep_custom(knobs, smoke, resolved)
        }
        None => run_cache_sweep(knobs, smoke),
    };
    print_report(&report);
    setup.emit_or_exit(&report);
}

fn print_point(p: &SweepPoint, marker: &str) {
    println!(
        "  {:>5.2} {:>7} {:>6.2} | {:>5} {:>5} {:>5} {:>6.3} | {:>8.3} {:>8.3} {:>8.3} | \
         {:>10.1} {:>10.1} {:>9.0}{marker}",
        p.epsilon,
        p.refine_budget,
        p.quant_step,
        p.hits,
        p.near_hits,
        p.misses,
        p.hit_rate,
        p.quality_vs_probe_off,
        p.hit_cold_throughput_ratio,
        p.hit_sample_fraction,
        p.mean_e2e_us,
        p.p95_e2e_us,
        p.jobs_per_sec
    );
}

fn print_report(report: &CacheSweepReport) {
    println!(
        "\n    eps  refine  quant |  hits  near  miss   rate |  quality   cohort   budget |  \
         mean e2e    p95 e2e    jobs/s"
    );
    for p in &report.grid {
        let chosen = report.calibrated.as_ref() == Some(p);
        print_point(p, if chosen { "  ← calibrated" } else { "" });
    }
}
