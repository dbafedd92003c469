//! The zero-allocation gate on the fitness kernel — and on the near-hit
//! cache probe, the other loop a request's cost is counted in.
//!
//! Every search sample is one `M3e::evaluate` call, and after a thread's
//! first evaluation of a problem (which sizes its scratch) the call must not
//! touch the heap: the decode goes into per-thread flat queues, the replay of
//! Algorithm 1 records nothing, and launch costs come from a table filled
//! when the problem was built.
//!
//! This suite is its own test binary so that its counting global allocator
//! touches nothing else. The counter is a `const`-initialised thread-local
//! without a destructor — reading it never allocates or initialises lazily,
//! so it is safe to bump from inside `alloc` — and being per thread it sees
//! only the calling test's allocations, however many tests run beside it.

mod common;

use common::problem;
use magma::m3e::StoredSolution;
use magma::optim::parallel::{evaluate_batch_with, thread_count};
use magma::prelude::*;
use magma::serve::quantize_signatures;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// The paper-scale instances of the repository's benchmark: 100-job Mix
/// groups on S2 at 16 GB/s, S4 at 256 GB/s, and a 64-core platform (S6's
/// sixteen big/little cores four times over).
fn problems() -> Vec<(&'static str, M3e)> {
    let s6 = settings::build(Setting::S6);
    let cores = s6.sub_accels().iter().cycle().take(64).cloned().collect();
    let mesh64 = AcceleratorPlatform::new("mesh64", cores, 256.0);
    let group = WorkloadSpec::single_group(TaskType::Mix, 100, 2);
    vec![
        ("s2", problem(Setting::S2, TaskType::Mix, Some(16.0), 100, 0)),
        ("s4", problem(Setting::S4, TaskType::Mix, Some(256.0), 100, 1)),
        ("mesh64", M3e::new(mesh64, group, Objective::Throughput)),
    ]
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
