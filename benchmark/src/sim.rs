//! `sim_fleet`: the serving stack on its virtual clock — no socket, no
//! tick, CPU-bound. This is what regenerating the committed `BENCH_*.json`
//! files costs, and it shows serve-layer CPU that the RPC workloads hide
//! behind waiting.

use crate::stats;
use crate::tracer::Tracer;
use crate::{EndToEnd, Layers};
use magma_model::TenantMix;
use magma_platform::settings::FleetKnobs;
use magma_serve::fleet::{fleet_simulate, FleetConfig, FleetResult};
use magma_serve::trace::Scenario;
use std::time::Instant;

/// Arrivals per simulation. The shipped fleet default is 20 000 (about
/// 3.5 s of host time); 4 000 keeps the same four-shard Poisson shape and
/// lets one run hold enough simulations for a median and a p80.
pub const REQUESTS: usize = 4_000;
const SHARDS: usize = 4;

/// Distinct traces one run cycles through. Host time per simulation follows
/// the trace (how often the caches hit), so one run covers several.
const TRACES: u64 = 8;

/// Arrivals of the warm-up simulation set-up runs.
const WARM_UP_REQUESTS: usize = 400;

/// The shipped full-scale fleet on four shards under Poisson traffic, with
/// the shipped synthetic tenant mix, after one short warm-up simulation —
/// everything that happens before the first timed simulation. The warm-up
/// also makes the figure steady: mix and config alone take about a
/// millisecond.
pub fn setup() -> (FleetConfig, TenantMix) {
    let knobs = FleetKnobs::full();
    let mut config = FleetConfig::from_knobs(&knobs, SHARDS, Scenario::Poisson);
    let mix = TenantMix::synthetic(knobs.tenants, knobs.serve.seed);
    config.requests = WARM_UP_REQUESTS;
    std::hint::black_box(fleet_simulate(&config, &mix));
    config.requests = REQUESTS;
    (config, mix)
}

/// Simulations back to back for `seconds` (at least one per trace), the
/// trace seed cycling through `seed .. seed + TRACES`. Each simulation must
/// complete every job and repeat the first result of its trace bit for bit;
/// `each` sees every result with its host milliseconds. Returns the number
/// of simulations, the result of trace `seed` and every repeat's time.
fn simulations(
    seed: u64,
    seconds: f64,
    problems: &mut Vec<String>,
    mut each: impl FnMut(&FleetResult, f64),
) -> Result<(u64, FleetResult, stats::Repeats), String> {
    let (config, mix) = setup();
    let started = Instant::now();
    let mut repeats = stats::Repeats::default();
    let mut first: Vec<FleetResult> = Vec::new();
    let mut runs = 0u64;
    while runs < TRACES || started.elapsed().as_secs_f64() < seconds {
        let trace = runs % TRACES;
        let config = FleetConfig { seed: seed.wrapping_add(trace), ..config.clone() };
        let (result, host_ms) = repeats.time(trace as usize, || fleet_simulate(&config, &mix))?;
        if result.metrics.jobs != REQUESTS {
            problems.push(format!("simulation {runs} completed {} jobs", result.metrics.jobs));
        }
        each(&result, host_ms);
        match first.get(trace as usize) {
            Some(reference) if *reference != result => {
                problems.push(format!("simulation {runs} differs from its trace's first run"))
            }
            Some(_) => {}
            None => first.push(result),
        }
        runs += 1;
    }
    Ok((runs, first.swap_remove(0), repeats))
}

/// Runs simulations for `seconds` and reports the end-to-end metrics. A
/// simulation is deterministic, so a trace's host time is its fastest
/// repeat's (see [`stats::Repeats`]).
pub fn run(seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let (_, setup_s) = stats::timed_setups(9, setup);
    let mut out = EndToEnd { setup_s: stats::fastest(&setup_s), ..EndToEnd::default() };
    let mut problems = Vec::new();
    let (runs, first, repeats) = simulations(seed, seconds, &mut problems, |_, _| {})?;
    out.attempted = runs;
    out.failed = problems.len().min(runs as usize) as u64;
    out.limited = runs;
    out.within_limit = runs - out.failed;
    out.latency_ms = repeats.fastest_wall_ms();
    out.throughput_per_s =
        (REQUESTS as u64 * TRACES) as f64 / (out.latency_ms.iter().sum::<f64>() / 1e3);
    out.cpu_ms_per_op = repeats.fastest_cpu_ms();
    out.peak_rss_mb = stats::peak_rss_mb(None)?;
    out.problems = problems;
    let quality = first.metrics.throughput_gflops;
    out.notes.push(format!(
        "{TRACES} traces of {REQUESTS} requests, {runs} simulations with their repeats; \
         simulated {quality} GFLOP/s"
    ));
    Ok(out)
}

/// The traced run: a root span per simulation, then the serve-layer ratios
/// the drained results give.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut problems = Vec::new();
    let origin = Instant::now();
    let (mut host_s, mut samples) = (0.0, 0u64);
    let (runs, reference, _) = simulations(seed, seconds, &mut problems, |result, host_ms| {
        let end = origin.elapsed().as_nanos() as u64;
        tracer.record("sim.run", None, origin, end.saturating_sub((host_ms * 1e6) as u64), end);
        layers.push_sample("serve.fleet.sim_ms_p50", host_ms);
        host_s += host_ms / 1e3;
        samples += result.metrics.dispatch.cold_samples + result.metrics.dispatch.hit_samples;
    })?;
    layers.attempted += runs;
    layers.problems.extend(problems);
    layers.set("serve.fleet.host_us_per_sample", host_s * 1e6 / samples as f64);
    layers.set("serve.fleet.quality_gflops", reference.metrics.throughput_gflops);
    layers.set("serve.cache.hit_share", reference.metrics.cache.hit_rate);
    Ok(())
}
