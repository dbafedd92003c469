//! `search_offline`: the paper's use case. One caller runs 10 000-sample
//! MAGMA searches on 100-job Mix groups, round after round over three
//! platforms; `magma-optim` and `magma-m3e` do all the work.

use crate::stats::{self, ns_per_call};
use crate::tracer::{Traced, Tracer};
use crate::{inputs, EndToEnd, Layers};
use magma::{Algorithm, MapperBuilder};
use magma_m3e::{BwAllocator, M3e, Mapping, MappingProblem, Objective};
use magma_model::TaskType;
use magma_optim::{Magma, Optimizer};
use magma_platform::Setting;
use magma_registry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Samples per search and jobs per group: the paper's evaluation scale.
pub const BUDGET: usize = 10_000;
const GROUP: usize = 100;

/// The registry platform that stands for a large asymmetric-bandwidth mesh.
const MESH: &str = "dc-mesh64-asymbw";

/// Below this geometric-mean best throughput (GFLOP/s, over a run's distinct
/// searches) the run is reported incorrect. Mapping quality comes from the
/// analytic cost model, so it does not depend on the host, but it follows the
/// run's four groups: 40 seeds tried at the defining commit gave 4810–5910
/// (and 3790–4690 with a tenth of the samples), so this floor only catches a
/// search that has broken outright. A search that traded a little quality for
/// speed shows in `optim.search.quality_gflops`, which repeats exactly for a
/// seed.
const QUALITY_FLOOR_GFLOPS: f64 = 4300.0;

/// One platform the rounds visit, as a builder that lacks only its seed.
pub type Instance = (&'static str, MapperBuilder);

/// Samples of the warm-up search set-up runs on each platform.
const WARM_UP_BUDGET: usize = 1_000;

/// Loads the scenario registry, builds the three platforms, analyses one
/// group on each and runs a short warm-up search on it — everything that
/// happens before the first timed search. The warm-up also makes the figure
/// steady: the bare loads and builds take about a millisecond, which on a
/// shared host reads anything from 1.1 to 2.3 ms.
pub fn setup() -> Result<Vec<Instance>, String> {
    let registry = Registry::load_dir(Path::new("scenarios")).map_err(|e| e.to_string())?;
    let mesh = registry.build_platform(MESH).map_err(|e| e.to_string())?;
    let base = MapperBuilder::new()
        .task(TaskType::Mix)
        .group_size(GROUP)
        .objective(Objective::Throughput)
        .algorithm(Algorithm::Magma)
        .budget(BUDGET);
    let instances = vec![
        ("s2", base.clone().setting(Setting::S2).system_bw_gbps(16.0)),
        ("s4", base.clone().setting(Setting::S4).system_bw_gbps(256.0)),
        ("mesh64", base.platform(mesh)),
    ];
    for (_, builder) in &instances {
        std::hint::black_box(builder.clone().budget(WARM_UP_BUDGET).run());
    }
    Ok(instances)
}

/// Group seed and search seed of `round`.
fn round_seed(seed: u64, round: u64) -> u64 {
    inputs::rng(seed, round).gen()
}

/// What one search found, reduced to what two runs must agree on.
#[derive(Debug, Clone, PartialEq)]
struct Found {
    best_fitness_bits: u64,
    best_mapping: Mapping,
    throughput_gflops: f64,
}

/// Output checks on one finished search. Returns what failed, if anything.
fn check(problem: &M3e, found: &Found, samples: usize) -> Option<String> {
    let m = &found.best_mapping;
    let accels = MappingProblem::num_accels(problem);
    if samples != BUDGET {
        return Some(format!("search evaluated {samples} samples, not {BUDGET}"));
    }
    if m.num_jobs() != GROUP || m.accel_sel().iter().any(|&a| a >= accels) {
        return Some("best mapping is out of range".to_string());
    }
    if problem.evaluate(m).to_bits() != found.best_fitness_bits {
        return Some("re-evaluating the best mapping gives another fitness".to_string());
    }
    None
}

fn search_untraced(builder: &MapperBuilder, problem: &M3e) -> (Found, usize, f64) {
    let t = Instant::now();
    let report = builder.run_on(problem);
    let seconds = t.elapsed().as_secs_f64();
    let found = Found {
        best_fitness_bits: report.best_fitness.to_bits(),
        best_mapping: report.best_mapping,
        throughput_gflops: report.throughput_gflops,
    };
    (found, report.history.num_samples(), seconds)
}

/// Distinct rounds of one run. Every round has its own group and search
/// seed and visits the three platforms, so a run holds `3 × ROUNDS` distinct
/// searches; the list is repeated pass after pass until the time is up.
const ROUNDS: u64 = 4;

/// Repeats the run's distinct searches for `seconds` and reports the
/// end-to-end metrics. A search is deterministic, so every repeat must find
/// what the first one found, and its time is the fastest repeat's (see
/// [`stats::Repeats`]).
pub fn run(seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let (instances, setup_s) = stats::timed_setups(9, setup);
    let instances = instances?;
    let started = Instant::now();
    let mut out = EndToEnd { setup_s: stats::fastest(&setup_s), ..EndToEnd::default() };
    let mut repeats = stats::Repeats::default();
    let mut firsts: Vec<Found> = Vec::new();
    let mut pass = 0;
    'passes: loop {
        for round in 0..ROUNDS {
            for (i, (name, builder)) in instances.iter().enumerate() {
                if pass > 0 && started.elapsed().as_secs_f64() >= seconds {
                    break 'passes;
                }
                let builder = builder.clone().seed(round_seed(seed, round));
                let problem = builder.build_problem();
                let slot = round as usize * instances.len() + i;
                let ((found, samples, _), _) =
                    repeats.time(slot, || search_untraced(&builder, &problem))?;
                out.attempted += 1;
                let mut failure = check(&problem, &found, samples);
                match firsts.get(slot) {
                    Some(first) if *first != found => {
                        failure = Some("a repeat found another result".to_string())
                    }
                    Some(_) => {}
                    None => firsts.push(found),
                }
                match failure {
                    None => out.within_limit += 1,
                    Some(why) => out.problems.push(format!("round {round} on {name}: {why}")),
                }
            }
        }
        pass += 1;
    }
    let distinct = firsts.len() as f64;
    out.limited = out.attempted;
    out.failed = out.attempted - out.within_limit;
    out.latency_ms = repeats.fastest_wall_ms();
    out.throughput_per_s = distinct * BUDGET as f64 / (out.latency_ms.iter().sum::<f64>() / 1e3);
    out.cpu_ms_per_op = repeats.fastest_cpu_ms();
    out.peak_rss_mb = stats::peak_rss_mb(None)?;
    let quality = (firsts.iter().map(|f| f.throughput_gflops.ln()).sum::<f64>() / distinct).exp();
    out.notes.push(format!(
        "{distinct} distinct searches, {} with their repeats; quality geomean {quality} GFLOP/s",
        out.attempted
    ));
    if quality < QUALITY_FLOOR_GFLOPS {
        out.problems.push(format!("quality {quality} GFLOP/s is under {QUALITY_FLOOR_GFLOPS}"));
    }
    Ok(out)
}

/// Sums over the traced searches of one run.
#[derive(Default)]
struct Sums {
    untraced_s: f64,
    traced_ns: u64,
    eval_ns: u64,
    breed_ns: u64,
    calls: u64,
    samples: u64,
    duplicates: u64,
    ln_quality: f64,
    searches: u64,
}

/// The same search stepped one population at a time on the [`Traced`]
/// wrapper: a root span per search, a child per step. Returns what it found,
/// the sample count and the mappings kept for the kernel ladder.
fn search_traced(
    name: &'static str,
    builder_seed: u64,
    problem: &M3e,
    tracer: &mut Tracer,
    sums: &mut Sums,
    layers: &mut Layers,
) -> (Found, usize, Vec<Mapping>) {
    let traced = Traced::new(problem, BUDGET);
    let optimizer = Magma::default();
    let population = optimizer.population_size_for(&traced, BUDGET);
    let mut rng = StdRng::seed_from_u64(builder_seed);
    let root = tracer.begin("search", None);
    let mut session = optimizer.start(&traced, &mut rng);
    let mut step_ns = Vec::new();
    while session.spent() < BUDGET {
        let eval_before = traced.eval_ns();
        let span = tracer.begin("search.step", Some(root));
        let spent = session.step(population.min(BUDGET - session.spent())).spent;
        let ns = tracer.end(span);
        if spent == 0 {
            break;
        }
        step_ns.push(ns as f64);
        sums.breed_ns += ns.saturating_sub(traced.eval_ns() - eval_before);
    }
    let outcome = session.finish();
    sums.traced_ns += tracer.end(root);
    sums.eval_ns += traced.eval_ns();
    sums.calls += traced.calls();
    sums.samples += outcome.history.num_samples() as u64;
    layers.push_sample(&format!("optim.magma_ga.gen_us.{name}"), stats::median(&step_ns) / 1e3);
    let (duplicates, reservoir) = traced.finish();
    sums.duplicates += duplicates;
    let found = Found {
        best_fitness_bits: outcome.best_fitness.to_bits(),
        throughput_gflops: problem.schedule(&outcome.best_mapping).throughput_gflops(),
        best_mapping: outcome.best_mapping,
    };
    (found, outcome.history.num_samples(), reservoir)
}

/// Kernel timings over the mappings a traced search evaluated.
fn kernel_ladder(name: &str, problem: &M3e, reservoir: &[Mapping], layers: &mut Layers) {
    let evaluator = problem.evaluator();
    let mut next = 0;
    let mut cycle = || {
        next = (next + 1) % reservoir.len();
        &reservoir[next]
    };
    let fitness_ns = ns_per_call(60, 256, || evaluator.fitness(cycle()));
    layers.set(&format!("m3e.evaluator.fitness_ns.{name}"), fitness_ns);
    if name != "s4" {
        return;
    }
    layers.set("m3e.encoding.decode_ns", ns_per_call(40, 256, || cycle().decode()));
    let decoded: Vec<_> = reservoir.iter().map(Mapping::decode).collect();
    let mut d = 0;
    let allocate_ns = ns_per_call(60, 256, || {
        d = (d + 1) % decoded.len();
        BwAllocator::new().allocate_with_memo(
            &decoded[d],
            evaluator.table(),
            evaluator.system_bw_gbps(),
            evaluator.memo(),
        )
    });
    layers.set("m3e.bw_alloc.allocate_ns", allocate_ns);
    let before = crate::tracer::allocations();
    for m in reservoir {
        std::hint::black_box(evaluator.fitness(m));
    }
    let allocs = (crate::tracer::allocations() - before) as f64 / reservoir.len() as f64;
    layers.set("m3e.evaluator.allocs_per_fitness", allocs);
}

/// Traced rounds: every search runs untraced and traced on the same problem
/// and seed, and the two must find the same mapping with the same fitness.
/// Runs at least one round, then more until `seconds` have passed.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let instances = setup()?;
    layers.set("registry.load_dir_ms", {
        let load = || Registry::load_dir(Path::new("scenarios")).map(|r| r.stats());
        ns_per_call(100, 1, load) / 1e6
    });
    let mut sums = Sums::default();
    let mut round = 0;
    while round == 0 || t.elapsed().as_secs_f64() < seconds {
        for (name, builder) in &instances {
            let search_seed = round_seed(seed, round);
            let builder = builder.clone().seed(search_seed);
            let problem = builder.build_problem();
            let (plain, _, secs) = search_untraced(&builder, &problem);
            let (traced, samples, reservoir) =
                search_traced(name, search_seed, &problem, tracer, &mut sums, layers);
            layers.attempted += 1;
            if plain != traced {
                layers.problems.push(format!(
                    "round {round} on {name}: the traced search found another result"
                ));
            } else if let Some(why) = check(&problem, &traced, samples) {
                layers.problems.push(format!("round {round} on {name}: {why}"));
            }
            sums.untraced_s += secs;
            sums.ln_quality += traced.throughput_gflops.ln();
            sums.searches += 1;
            if round == 0 {
                kernel_ladder(name, &problem, &reservoir, layers);
            }
        }
        round += 1;
    }
    let traced_s = sums.traced_ns as f64 / 1e9;
    layers.set("m3e.evaluator.busy_share", sums.eval_ns as f64 / sums.traced_ns as f64);
    layers.set("optim.magma_ga.breed_share", sums.breed_ns as f64 / sums.traced_ns as f64);
    layers.set("m3e.evaluator.calls_per_sample", sums.calls as f64 / sums.samples as f64);
    layers.set("m3e.evaluator.dup_share", sums.duplicates as f64 / sums.calls as f64);
    layers.set("bench.trace.overhead_share", traced_s / sums.untraced_s - 1.0);
    layers.set("optim.search.quality_gflops", (sums.ln_quality / sums.searches as f64).exp());
    Ok(())
}
