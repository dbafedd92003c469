//! The zero-allocation gate on the fitness kernel — and on the near-hit
//! cache probe, the other loop a request's cost is counted in — the
//! constant-allocation gate on a GA generation around the kernel, and the
//! bound on a cached group's plan and open, which pins that the seeds are
//! never copied, and on a submit's trip through the wire codec — and the
//! memory gates on the serving layer's tenants, which pins that a tenant and
//! its job stream reference the zoo's models, on its full caches, which
//! pins that a published group's key and packed rows exist once, and on the
//! fleet simulator, which pins that it holds what is live rather than its
//! whole trace and every finished group.
//!
//! Every search sample is one `M3e::evaluate` call, and after a thread's
//! first evaluation of a problem (which sizes its scratch) the call must not
//! touch the heap: the decode goes into per-thread flat queues, the replay of
//! Algorithm 1 records nothing, and launch costs come from a table filled
//! when the problem was built.
//!
//! This suite is its own test binary so that its counting global allocator
//! touches nothing else. Its counters (allocations, live bytes and their
//! high-water mark) are `const`-initialised thread-locals without a
//! destructor — reading them never allocates or initialises lazily, so they
//! are safe to bump from inside `alloc` — and being per thread they see only
//! the calling test's allocations, however many tests run beside it.

mod common;

use common::{paper_scale_platforms, problem};
use magma_m3e::{M3e, Mapping, MappingProblem, Objective, StoredSolution};
use magma_model::{Job, JobId, JobSignature, LayerShape, TaskType, TenantMix, WorkloadSpec};
use magma_optim::parallel::{evaluate_batch_with, thread_count, with_threads};
use magma_optim::{Magma, Optimizer};
use magma_platform::{settings, Setting};
use magma_serve::{
    fleet_simulate, generate_trace, quantize_signatures, Admission, DispatchConfig, DispatchKind,
    EngineConfig, FleetConfig, MappingCache, MappingService, Scenario, ServeEngine, TraceParams,
};
use magma_server::proto::{decode, encode, RequestMsg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the calling thread has allocated minus those it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

/// Records one allocation that changes the thread's live bytes by `delta`.
fn count(delta: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    resize(delta);
}

fn resize(delta: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + delta);
        n.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is thread-local counter updates
// that neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) `f` performs on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap bytes on the calling thread while `f` runs: what its result still
/// holds when it returns, and the most that was live at any point, both
/// counted from where the thread stood when `f` was called.
struct HeapUse {
    retained: i64,
    peak: i64,
}

fn heap_use_of<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let value = f();
    let retained = LIVE.with(Cell::get) - before;
    (value, HeapUse { retained, peak: PEAK.with(Cell::get) - before })
}

/// The paper-scale instances of the repository's benchmark: a 100-job Mix
/// group on each of its three platforms.
fn problems() -> Vec<(&'static str, M3e)> {
    paper_scale_platforms()
        .into_iter()
        .zip(0..)
        .map(|((name, platform), seed)| {
            let group = WorkloadSpec::single_group(TaskType::Mix, 100, seed);
            (name, M3e::new(platform, group, Objective::Throughput))
        })
        .collect()
}

fn population(p: &M3e, count: usize, seed: u64) -> Vec<Mapping> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| Mapping::random(&mut rng, p.num_jobs(), p.num_accels())).collect()
}

#[test]
fn evaluate_allocates_nothing_after_one_warm_up_call() {
    for (name, p) in problems() {
        let mappings = population(&p, 50, 7);
        std::hint::black_box(p.evaluate(&mappings[0]));
        let allocations = allocations_in(|| {
            for i in 0..1000 {
                std::hint::black_box(p.evaluate(&mappings[i % mappings.len()]));
            }
        });
        assert_eq!(allocations, 0, "{name}: 1000 evaluations allocated {allocations} times");
    }
}

#[test]
fn a_serial_batch_allocates_only_its_output() {
    for (name, p) in problems() {
        let mappings = population(&p, 256, 11);
        std::hint::black_box(p.evaluate(&mappings[0]));
        let allocations = allocations_in(|| {
            std::hint::black_box(evaluate_batch_with(&p, &mappings, 1));
        });
        assert!(allocations <= 1, "{name}: a 256-mapping batch allocated {allocations} times");
    }
}

/// A MAGMA generation recycles its individuals: children are bred into the
/// genome buffers of individuals an earlier ranking discarded, the parent pool
/// is the ranked generation's first half by index, and the best-so-far mapping
/// is overwritten in place. Children are emitted straight into the session's
/// generation in flight, which is evaluated where it stands, so what a
/// steady-state generation still allocates is the fitness vector that comes
/// back (history growth is amortised: the fewest of four consecutive
/// generations leaves it out) — the same count at any population, where
/// cloning every child and every parent cost two allocations apiece (≥ 250 a
/// generation at population 100).
#[test]
fn a_steady_state_generation_allocates_a_constant_independent_of_the_population() {
    let per_generation = |population: usize| -> u64 {
        let p = problem(Setting::S2, TaskType::Mix, Some(16.0), population, 4);
        let optimizer = Magma::default();
        assert_eq!(optimizer.population_size_for(&p, usize::MAX), population);
        let elites = (population as f64 * optimizer.config().elite_ratio).round() as usize;
        let children = population - elites;
        let mut rng = StdRng::seed_from_u64(5);
        with_threads(1, || {
            let mut session = optimizer.open(&p, &mut rng);
            // The initial population, a generation of cloned children, and one
            // bred into the initial population's discards.
            assert_eq!(
                session.step(&p, &mut rng, population + 2 * children).spent,
                population + 2 * children
            );
            (0..4)
                .map(|_| {
                    allocations_in(|| {
                        assert_eq!(session.step(&p, &mut rng, children).spent, children);
                    })
                })
                .min()
                .unwrap()
        })
    };
    let (small, paper_scale) = (per_generation(16), per_generation(100));
    assert_eq!(small, paper_scale, "allocations per generation at population 16 and 100");
    assert!(small <= 4, "a steady-state generation allocated {small} times");
}

/// An exact-key miss walks the whole cache looking for a near entry; the walk
/// reads the entries in place and keeps its running totals in registers.
#[test]
fn a_near_hit_probe_that_misses_allocates_nothing() {
    // Every job an independent draw from a long Mix workload, so no two
    // groups are windows of one model.
    let pool = WorkloadSpec::new(TaskType::Mix, 2000).build_jobs();
    let mut rng = StdRng::seed_from_u64(3);
    let signatures = |rng: &mut StdRng| -> Vec<JobSignature> {
        (0..30).map(|_| pool[rng.gen_range(0..pool.len())].signature()).collect()
    };
    let mut cache = MappingCache::new(64);
    while cache.len() < 64 {
        let sigs = signatures(&mut rng);
        let mapping = Mapping::random(&mut rng, sigs.len(), 4);
        cache.insert(quantize_signatures(&sigs, 1.0), StoredSolution::new(mapping, Some(sigs)));
    }
    // Half the shipped epsilon: near enough that entries are walked many
    // jobs deep before they are abandoned, too tight for a stranger to hit.
    let probe = signatures(&mut rng);
    let key = quantize_signatures(&probe, 1.0);
    let misses = cache.stats().misses;
    let allocations = allocations_in(|| {
        for _ in 0..100 {
            assert!(std::hint::black_box(cache.lookup_near(&key, &probe, 0.5)).is_none());
        }
    });
    assert_eq!(cache.stats().misses, misses + 100);
    assert_eq!(allocations, 0, "100 probes of {} entries allocated", cache.len());
}

/// A cached group's dispatch: the plan adapts the stored mapping into a
/// 30-individual seed population (two genome buffers each), and the session
/// it opens takes those seeds and emits each by move. Until PR 25 they were
/// copied three times on the way — into `Magma::with_warm_start`, into the
/// engine with the whole configuration, and once more as each was emitted:
/// plan 69 + open 123 + initial generation 73 = 265 allocations, where this
/// takes 69 + 1 + 13 = 83. The initial generation is counted because its
/// emits are where the last copy was made.
#[test]
fn an_exact_hit_plans_and_opens_without_copying_its_seeds() {
    let problem = problem(Setting::S2, TaskType::Mix, Some(16.0), 30, 1);
    let refine_budget = settings::ServeKnobs::full().refine_budget;
    let mut service = MappingService::new(DispatchConfig::new(60, refine_budget, 1.0, 8));
    let mut rng = StdRng::seed_from_u64(2);
    with_threads(1, || {
        service.map_group(&problem, 1);
        let allocations = allocations_in(|| {
            let mut plan = service.plan_group(&problem, &mut rng);
            assert_eq!(plan.kind(), DispatchKind::CacheHit);
            let mut state = service.open_search(&mut plan, &problem);
            assert_eq!(state.step(&problem, &mut rng, 30).spent, 30);
        });
        assert!(
            allocations <= 83,
            "an exact hit's plan, open and seeds allocated {allocations} times"
        );
    });
}

/// The daemon holds its synthetic fleet for its whole life. A tenant points
/// at one of the zoo's 18 models instead of copying it, so a thousand of them
/// cost their names and pointers — 3.44 MB when each owned a clone.
#[test]
fn a_thousand_synthetic_tenants_share_the_zoo() {
    let (mix, heap) = heap_use_of(|| TenantMix::synthetic(1000, 0));
    assert!(heap.retained < 256 << 10, "1000 tenants keep {} bytes live", heap.retained);
    let first = &mix.tenants()[0];
    let twin = mix.tenants()[1..]
        .iter()
        .find(|t| t.models()[0].name() == first.models()[0].name())
        .expect("1000 tenants over 18 models repeat one");
    assert!(std::ptr::eq(first.models(), twin.models()), "two tenants copy one model");
}

/// A trace opens a tenant's job stream at its first arrival, and a stream
/// references the tenant's models: synthesis costs the arrivals it returns,
/// where building a stream (a model clone and a layer copy) for each of the
/// thousand tenants peaked ≈ 8.5 MB above them.
#[test]
fn a_fleet_trace_peaks_near_the_arrivals_it_returns() {
    let mix = TenantMix::synthetic(1000, 0);
    let params = TraceParams {
        scenario: Scenario::Poisson,
        requests: 4_000,
        mean_interarrival_sec: 1e-3,
        mini_batch: 4,
        seed: 3,
    };
    let (trace, heap) = heap_use_of(|| generate_trace(&params, &mix));
    assert_eq!(trace.len(), 4_000);
    let transient = heap.peak - heap.retained;
    assert!(transient < 1 << 20, "synthesis peaked {transient} bytes above its arrivals");
}

/// A fleet simulation draws its trace one arrival at a time and keeps three
/// numbers of each finished group, so what it holds grows with the live
/// sessions and the 40-byte record of each completed job, not with the
/// trace: ≈ 1.10 MB at 4 000 requests of the full four-shard fleet and
/// ≈ 0.80 MB more at 8 000. Built up front and kept whole — every arrival,
/// and every group's mapping and schedule — it peaked at 2.13 MB and grew
/// 1.91 MB.
#[test]
fn a_fleet_simulation_holds_what_is_live() {
    let knobs = settings::FleetKnobs::full();
    let mix = TenantMix::synthetic(knobs.tenants, knobs.serve.seed);
    let peak_at = |requests: usize| {
        let config = FleetConfig {
            requests,
            seed: 0,
            ..FleetConfig::from_knobs(&knobs, 4, Scenario::Poisson)
        };
        let (result, heap) = heap_use_of(|| fleet_simulate(&config, &mix));
        assert_eq!(result.metrics.jobs, requests);
        heap.peak
    };
    with_threads(1, || {
        let at_4k = peak_at(4_000);
        let growth = peak_at(8_000) - at_4k;
        assert!(at_4k < 1_400_000, "4 000 requests peaked at {at_4k} bytes");
        assert!(growth < 1_200_000, "4 000 more requests peaked {growth} bytes higher");
    });
}

/// Never-seen 30-job groups the way the benchmark's `rpc_mix` draws them:
/// every job a random accelerator layer of a random zoo model at a
/// mini-batch from {1, 2, 4, 8}.
fn fresh_groups(seed: u64) -> impl FnMut() -> Vec<Job> {
    let layers: Vec<_> = magma_model::zoo::models_for_task(TaskType::Mix)
        .iter()
        .flat_map(|m| {
            let layer = |(i, l): (usize, &LayerShape)| (m.name().to_string(), m.task(), i, *l);
            m.layers().iter().enumerate().map(layer).collect::<Vec<_>>()
        })
        .filter(|(_, _, _, l)| l.runs_on_accelerator())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    move || {
        (0..30)
            .map(|k| {
                let (model, task, index, layer) = layers[rng.gen_range(0..layers.len())].clone();
                Job::new(JobId(k), model, index, layer, 1 << rng.gen_range(0..4u32), task)
            })
            .collect()
    }
}

/// The daemon's caches at saturation: every completed group is published to
/// its shard's 64-entry cache and to the 256-entry fleet tier. Each of them
/// derives a key (480 bytes at 30 jobs), packed rows (1 200 bytes) and a
/// solution (≈ 2.6 KB). The key is held by the plan, the router's affinity
/// pin, the shard slot, the tier slot and the tier's quota book, the rows by
/// both slots; they share one key and one rows buffer, as they share the
/// solution. The state retains ≈ 1.40 MB; copied per holder — three more
/// keys and one more rows buffer per published group — it retained
/// ≈ 2.07 MB, and one more key copy per tier entry would cross the bound.
#[test]
fn a_full_serving_cache_keeps_one_key_and_one_rows_buffer_per_group() {
    /// Groups in flight at a time, so that the router spreads them over the
    /// four shards by load.
    const WAVE: u64 = 4;
    let knobs = settings::ServerKnobs::full();
    let tenants = knobs.fleet.tenants;
    let mut engine = ServeEngine::new(
        EngineConfig::from_knobs(&knobs),
        TenantMix::synthetic(tenants, knobs.fleet.serve.seed),
    );
    let mut group = fresh_groups(3);
    let mut rng = StdRng::seed_from_u64(5);
    // Waves `waves`, each submitted at its own second and polled to the end.
    let mut serve = |engine: &mut ServeEngine, waves: std::ops::Range<u64>| {
        for wave in waves {
            let now = wave as f64;
            for token in wave * WAVE..(wave + 1) * WAVE {
                let verdict = engine.submit(now, token, rng.gen_range(0..tenants), group());
                assert_eq!(verdict, Admission::Accepted);
            }
            let mut done = 0;
            while done < WAVE as usize * 30 {
                done += engine.poll(now).len();
            }
        }
    };
    with_threads(1, || {
        // 640 groups: ≈ 160 a shard, well past its 64 entries, and 2.5 times
        // the tier's 256.
        let (_, full) = heap_use_of(|| serve(&mut engine, 0..160));
        let stats = engine.stats();
        assert_eq!(stats.completed_sessions, 640);
        assert_eq!(stats.cache_hits, stats.cache_near_hits, "no key recurs");
        // Full caches replace what they take in: 64 more groups keep next
        // to nothing more.
        let (_, more) = heap_use_of(|| serve(&mut engine, 160..176));
        assert!(more.retained < 64 << 10, "64 more groups kept {} bytes", more.retained);
        assert!(full.retained < 1_460_000, "full caches retain {} bytes", full.retained);
    });
}

/// A cached group's submit crosses the wire codec twice: the client encodes
/// it, the daemon decodes it, jobs and all. The encoder writes the frame
/// straight into one buffer sized for it, and the reader builds the request
/// straight off the text — a vector, one model name per job and the verb —
/// where the serde path built a `Value` node per job, member name and number.
#[test]
fn a_submit_is_encoded_into_one_buffer_and_its_jobs_built_off_the_text() {
    let jobs = WorkloadSpec::single_group(TaskType::Mix, 30, 0).jobs().to_vec();
    let msg = RequestMsg::submit(1, 0, jobs);
    let mut payload = Vec::new();
    let encoding = allocations_in(|| payload = encode(&msg));
    assert!(encoding <= 2, "encoding a 30-job submit allocated {encoding} times");

    let mut decoded = None;
    let decoding = allocations_in(|| decoded = Some(decode::<RequestMsg>(&payload)));
    assert_eq!(decoded, Some(Ok(msg)));
    assert!(decoding <= 30 + 2, "decoding a 30-job submit allocated {decoding} times");
}

/// Every batch evaluation — one per scheduler slice, one per GA generation —
/// asks how many workers it may use. The answer is resolved once per
/// process: neither the environment nor the OS is asked again.
#[test]
fn resolving_the_thread_count_allocates_nothing_after_the_first_call() {
    let threads = thread_count();
    let allocations = allocations_in(|| {
        for _ in 0..100 {
            assert_eq!(std::hint::black_box(thread_count()), threads);
        }
    });
    assert_eq!(allocations, 0, "100 thread-count reads allocated {allocations} times");
}
