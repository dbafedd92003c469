//! The per-layer ladder: each layer a request crosses, called in isolation
//! on inputs made from the seed and timed from outside. These rows do not
//! depend on the workload, so every traced run measures them.

use crate::inputs::{self, GroupSource, RPC_GROUP};
use crate::stats::{median, ns_per_call};
use crate::Layers;
use magma_cost::CostModel;
use magma_m3e::{JobAnalyzer, M3e, Mapping, MappingProblem, Objective, StoredSolution};
use magma_model::{Group, Job, TaskType, TenantMix, WorkloadSpec};
use magma_optim::parallel::evaluate_batch_with;
use magma_optim::{Magma, Optimizer};
use magma_platform::settings::{self, FleetKnobs, ServerKnobs};
use magma_platform::{AcceleratorPlatform, Setting};
use magma_registry::Registry;
use magma_serve::trace::{generate_trace, Arrival, Scenario, TraceParams};
use magma_serve::{
    quantize_signatures, AdmissionBatcher, BatchPolicy, DispatchConfig, MappingCache,
    MappingService, ShardRouter, SignatureKey,
};
use magma_server::frame::{read_frame, write_frame};
use magma_server::proto::{decode, encode};
use magma_server::RequestMsg;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// A problem with no work in `evaluate`: what is left is the pool's own cost.
struct ZeroWork(usize, usize);

impl MappingProblem for ZeroWork {
    fn num_jobs(&self) -> usize {
        self.0
    }

    fn num_accels(&self) -> usize {
        self.1
    }

    fn evaluate(&self, _mapping: &Mapping) -> f64 {
        0.0
    }
}

fn serve_problem(platform: &AcceleratorPlatform, jobs: Vec<Job>) -> M3e {
    M3e::new(platform.clone(), Group::new(jobs), Objective::Throughput)
}

fn analyzer_and_cost(s2: &AcceleratorPlatform, group30: &[Job], layers: &mut Layers) {
    let analyzer = JobAnalyzer::new();
    let small = Group::new(group30.to_vec());
    layers.set(
        "m3e.analyzer.analyze_us.g30a4",
        ns_per_call(60, 8, || analyzer.analyze(&small, s2)) / 1e3,
    );
    // The registry is part of the checkout; search_offline's set-up already
    // failed the run if it could not be loaded.
    if let Ok(mesh) = Registry::load_dir(Path::new("scenarios"))
        .and_then(|r| r.build_platform("dc-mesh64-asymbw"))
    {
        let large = WorkloadSpec::single_group(TaskType::Mix, 100, 0);
        layers.set(
            "m3e.analyzer.analyze_us.g100a64",
            ns_per_call(100, 1, || analyzer.analyze(&large, &mesh)) / 1e3,
        );
    }
    let model = CostModel::default();
    let cores = s2.sub_accels();
    let mut k = 0;
    let estimate_ns = ns_per_call(40, 256, || {
        k += 1;
        let job = &group30[k % group30.len()];
        model.estimate(job.layer(), job.batch(), &cores[k % cores.len()])
    });
    layers.set("cost.model.estimate_ns", estimate_ns);
}

/// Per-sample cost of a cold 600-sample search stepped `slice` samples at a
/// time, in nanoseconds (median of five searches).
fn stepped_ns_per_sample(problem: &M3e, budget: usize, slice: usize) -> f64 {
    let per_sample: Vec<f64> = (0..5)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let optimizer = Magma::default();
            let t = Instant::now();
            let mut session = optimizer.start(problem, &mut rng);
            while session.spent() < budget {
                if session.step(slice.min(budget - session.spent())).spent == 0 {
                    break;
                }
            }
            std::hint::black_box(session.finish());
            t.elapsed().as_nanos() as f64 / budget as f64
        })
        .collect();
    median(&per_sample)
}

fn optim(problem30: &M3e, layers: &mut Layers) {
    let knobs = FleetKnobs::full();
    let budget = knobs.serve.cold_budget;
    let population = Magma::default().population_size_for(problem30, budget);
    layers.set(
        "optim.session.slice4_overhead_x",
        stepped_ns_per_sample(problem30, budget, knobs.min_slice)
            / stepped_ns_per_sample(problem30, budget, population),
    );

    let mut rng = StdRng::seed_from_u64(0);
    let zero = ZeroWork(100, 8);
    let batch: Vec<Mapping> = (0..256).map(|_| Mapping::random(&mut rng, 100, 8)).collect();
    layers.set(
        "optim.pool.dispatch_us",
        ns_per_call(60, 16, || evaluate_batch_with(&zero, &batch, 2)) / 1e3,
    );
    let s4 = M3e::new(
        settings::build(Setting::S4),
        WorkloadSpec::single_group(TaskType::Mix, 100, 0),
        Objective::Throughput,
    );
    let one = ns_per_call(100, 1, || evaluate_batch_with(&s4, &batch, 1));
    let two = ns_per_call(100, 1, || evaluate_batch_with(&s4, &batch, 2));
    layers.set("optim.pool.speedup_2t", one / two);
}

/// A cache holding `entries` solved 30-job groups, and their keys.
fn filled_cache(
    entries: usize,
    s2: &AcceleratorPlatform,
    source: &mut GroupSource,
    rng: &mut StdRng,
) -> (MappingCache, Vec<SignatureKey>) {
    let quant = FleetKnobs::full().serve.quant_step;
    let mut cache = MappingCache::new(entries);
    let mut keys = Vec::with_capacity(entries);
    while cache.len() < entries {
        let problem = serve_problem(s2, source.group(RPC_GROUP));
        let key = quantize_signatures(problem.signatures(), quant);
        let mapping = Mapping::random(rng, RPC_GROUP, s2.num_sub_accels());
        cache
            .insert(key.clone(), StoredSolution::new(mapping, Some(problem.signatures().to_vec())));
        keys.push(key);
    }
    (cache, keys)
}

/// Times the cache and the dispatch planner; returns 64 cached keys for the
/// router row.
fn cache_and_dispatch(
    s2: &AcceleratorPlatform,
    source: &mut GroupSource,
    layers: &mut Layers,
) -> Vec<SignatureKey> {
    let serve = FleetKnobs::full().serve;
    let mut rng = StdRng::seed_from_u64(1);
    let stranger = serve_problem(s2, source.group(RPC_GROUP));
    let stranger_key = quantize_signatures(stranger.signatures(), serve.quant_step);
    let sigs = stranger.signatures();
    let mut k = 0;
    layers.set(
        "model.signature.distance_ns",
        ns_per_call(30, 1024, || {
            k += 1;
            sigs[k % sigs.len()].distance(&sigs[(k / sigs.len()) % sigs.len()])
        }),
    );

    for (label, entries) in [("e64", serve.cache_capacity), ("e256", 256)] {
        let (mut cache, keys) = filled_cache(entries, s2, source, &mut rng);
        let near_us = ns_per_call(100, 1, || {
            cache.lookup_near(&stranger_key, sigs, serve.cache_epsilon).is_some()
        }) / 1e3;
        layers.set(&format!("serve.cache.lookup_near_us.{label}"), near_us);
        if label != "e64" {
            continue;
        }
        let mut i = 0;
        let lookup_us = ns_per_call(30, 256, || {
            i += 1;
            cache.lookup(&keys[i % keys.len()]).is_some()
        }) / 1e3;
        layers.set("serve.cache.lookup_us", lookup_us);
        // The cache is full, so every insert of a new key also evicts.
        let fresh: Vec<_> = (0..64)
            .map(|_| {
                let p = serve_problem(s2, source.group(RPC_GROUP));
                (
                    quantize_signatures(p.signatures(), serve.quant_step),
                    StoredSolution::new(
                        Mapping::random(&mut rng, RPC_GROUP, s2.num_sub_accels()),
                        Some(p.signatures().to_vec()),
                    ),
                )
            })
            .collect();
        let mut j = 0;
        let insert_us = ns_per_call(30, 64, || {
            j += 1;
            let (key, solution) = fresh[j % fresh.len()].clone();
            cache.insert(key, solution)
        }) / 1e3;
        layers.set("serve.cache.insert_us", insert_us);
    }

    // A service whose cache is full of other groups plans `stranger` as a
    // miss (after the near-key scan); once it holds the group's own key the
    // same call is an exact hit that adapts the stored mapping.
    let config = DispatchConfig::new(
        serve.cold_budget,
        serve.refine_budget,
        serve.quant_step,
        serve.cache_capacity,
    )
    .with_cache_epsilon(serve.cache_epsilon);
    let mut service = MappingService::new(config);
    let (cache, keys) = filled_cache(serve.cache_capacity, s2, source, &mut rng);
    service.install_cache(cache);
    let plan_us = |service: &mut MappingService| {
        ns_per_call(60, 4, || service.plan_group(&stranger, &mut StdRng::seed_from_u64(2)).budget())
            / 1e3
    };
    layers.set("serve.dispatch.plan_miss_us", plan_us(&mut service));
    std::hint::black_box(service.map_group(&stranger, 3));
    layers.set("serve.dispatch.plan_hit_us", plan_us(&mut service));
    keys
}

fn batcher_and_router(group30: &[Job], keys: &[SignatureKey], layers: &mut Layers) {
    let mut batcher = AdmissionBatcher::new(BatchPolicy::new(RPC_GROUP, 1.0));
    let push_take_us = ns_per_call(30, 64, || {
        for job in group30 {
            batcher.push(Arrival { time_sec: 0.0, tenant: 0, job: job.clone() });
        }
        batcher.take_group(0.0).map(|g| g.arrivals.len())
    }) / 1e3;
    layers.set("serve.batcher.push_take_us", push_take_us);

    let mut router = ShardRouter::new(4);
    let (load, admissible) = ([0.3, 0.1, 0.2, 0.4], [true; 4]);
    let mut k = 0;
    let place_ns = ns_per_call(30, 256, || {
        k += 1;
        router.place(&keys[k % keys.len()], &load, &admissible)
    });
    layers.set("serve.router.place_ns", place_ns);
}

fn wire(group30: &[Job], layers: &mut Layers) {
    let max_frame = ServerKnobs::full().max_frame_bytes;
    let msg = RequestMsg::submit(1, 0, group30.to_vec());
    let payload = encode(&msg);
    layers.set("server.proto.submit_bytes", payload.len() as f64);
    layers.set("server.proto.encode_us", ns_per_call(40, 16, || encode(&msg)) / 1e3);
    layers.set(
        "server.proto.decode_us",
        ns_per_call(40, 16, || decode::<RequestMsg>(&payload).map(|m| m.id)) / 1e3,
    );
    let mut wire = Vec::with_capacity(payload.len() + 4);
    let roundtrip_us = ns_per_call(30, 64, || {
        wire.clear();
        write_frame(&mut wire, &payload, max_frame).expect("a Vec accepts every write");
        read_frame(&mut wire.as_slice(), max_frame).map(|f| f.map(|f| f.len()))
    }) / 1e3;
    layers.set("server.frame.roundtrip_us", roundtrip_us);
}

/// Measures every workload-independent row into `layers`.
pub fn run(seed: u64, layers: &mut Layers) {
    let s2 = settings::build(Setting::S2);
    let mut source = GroupSource::new(inputs::rng(seed, 10));
    let group30 = source.group(RPC_GROUP);
    analyzer_and_cost(&s2, &group30, layers);
    optim(&serve_problem(&s2, group30.clone()), layers);
    let keys = cache_and_dispatch(&s2, &mut source, layers);
    batcher_and_router(&group30, &keys, layers);
    wire(&group30, layers);

    let knobs = FleetKnobs::full();
    let mix = TenantMix::synthetic(knobs.tenants, seed);
    let params = TraceParams {
        scenario: Scenario::Poisson,
        requests: crate::sim::REQUESTS,
        mean_interarrival_sec: 1e-3,
        mini_batch: magma_model::workload::DEFAULT_MINI_BATCH,
        seed,
    };
    layers.set(
        "serve.trace.generate_ms",
        ns_per_call(100, 1, || generate_trace(&params, &mix)) / 1e6,
    );
}
