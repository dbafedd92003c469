//! The mapping service: cache-hit adapt-then-refine vs cache-miss cold
//! search, both through the parallel batch evaluator.
//!
//! Every dispatch group becomes an [`M3e`] problem; the service then either
//!
//! * **hits** the [`MappingCache`]: the stored solution is adapted onto the
//!   new group by profile matching ([`StoredSolution::seed_population`]) and
//!   refined with the small `refine_budget` by a MAGMA search seeded with the
//!   result ([`Magma::with_warm_start`]); or
//! * **misses**: a full MAGMA search runs at `cold_budget`.
//!
//! Both paths evaluate candidates through `magma_optim::parallel` (every
//! `Magma` search batches its generations), so `MAGMA_THREADS` is a pure
//! wall-clock knob here too — dispatch outcomes are bit-identical at every
//! worker count. Either way the best mapping found is (re-)inserted under
//! the group's key, so the cache tracks the freshest solution per traffic
//! pattern.
//!
//! Since the session redesign the service is **steppable**: a dispatch is
//! [`plan`](MappingService::plan_group)ned (cache probe + seed adaptation),
//! its search opened as a detached [`SessionState`]
//! ([`MappingService::open_search`]) that the caller advances in budget
//! slices, and [`complete`](MappingService::complete_group)d into the cache.
//! [`MappingService::map_group`] remains the one-call composition of the
//! three — and, by the session-stepping invariant, any slicing of the same
//! budget produces the same outcome.

use crate::cache::{
    quantize_signatures, CacheStats, MappingCache, SharedCache, SignatureKey, Slot,
};
use magma_m3e::{M3e, Mapping, MappingProblem, Schedule, StoredSolution};
use magma_optim::{Magma, SearchOutcome, SessionState};
use magma_platform::settings::ServeKnobs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How a dispatch was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DispatchKind {
    /// Cache miss: full MAGMA search at the cold budget.
    ColdSearch,
    /// Cache hit: stored solution adapted and refined at the small budget.
    CacheHit,
}

impl fmt::Display for DispatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchKind::ColdSearch => f.write_str("cold-search"),
            DispatchKind::CacheHit => f.write_str("cache-hit"),
        }
    }
}

/// Budgets and cache geometry of the mapping service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchConfig {
    /// Sampling budget of a cache-miss search.
    pub cold_budget: usize,
    /// Sampling budget of a cache-hit refinement (the ≤ 10%-of-cold lever).
    pub refine_budget: usize,
    /// Log-scale quantization step of the cache key, in nats.
    pub quant_step: f64,
    /// LRU capacity of the mapping cache.
    pub cache_capacity: usize,
    /// Nearest-key probe threshold (mean per-job signature distance) for the
    /// cache; `0.0` keeps lookups exact-key only. See
    /// [`MappingCache::lookup_near`].
    pub cache_epsilon: f64,
}

impl DispatchConfig {
    /// Creates a config with the nearest-key probe disabled (exact-key
    /// lookups only); chain [`DispatchConfig::with_cache_epsilon`] to enable
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if any budget or the capacity is zero, or `quant_step` is not
    /// finite and positive.
    pub fn new(
        cold_budget: usize,
        refine_budget: usize,
        quant_step: f64,
        cache_capacity: usize,
    ) -> Self {
        assert!(cold_budget > 0 && refine_budget > 0, "budgets must be non-zero");
        assert!(cache_capacity > 0, "the cache must hold at least one entry");
        assert!(quant_step.is_finite() && quant_step > 0.0, "quant step must be positive");
        DispatchConfig {
            cold_budget,
            refine_budget,
            quant_step,
            cache_capacity,
            cache_epsilon: 0.0,
        }
    }

    /// The budgets and cache geometry of the serving knobs,
    /// nearest-key probe included.
    pub fn from_knobs(knobs: &ServeKnobs) -> Self {
        DispatchConfig::new(
            knobs.cold_budget,
            knobs.refine_budget,
            knobs.quant_step,
            knobs.cache_capacity,
        )
        .with_cache_epsilon(knobs.cache_epsilon)
    }

    /// Enables the nearest-key cache probe at threshold `epsilon` (mean
    /// per-job signature distance; `0.0` disables it again).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn with_cache_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon >= 0.0, "epsilon must be finite and non-negative");
        self.cache_epsilon = epsilon;
        self
    }
}

/// The result of mapping one dispatch group.
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// Whether the cache served this dispatch.
    pub kind: DispatchKind,
    /// Search samples actually evaluated.
    pub samples: usize,
    /// Fitness of the best mapping (GFLOP/s under the throughput objective).
    pub best_fitness: f64,
    /// The best mapping found.
    pub mapping: Mapping,
    /// The full schedule of the best mapping (per-job finish times feed the
    /// latency metrics).
    pub schedule: Schedule,
}

/// The stateful mapping service: one [`MappingCache`] plus the search
/// budgets.
#[derive(Debug)]
pub struct MappingService {
    config: DispatchConfig,
    cache: MappingCache,
}

impl MappingService {
    /// Creates a service with an empty cache.
    pub fn new(config: DispatchConfig) -> Self {
        MappingService { cache: MappingCache::new(config.cache_capacity), config }
    }

    /// The configured budgets.
    pub fn config(&self) -> &DispatchConfig {
        &self.config
    }

    /// The cache's running counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Read-only view of the cache — the persistence seam: save it with
    /// [`MappingCache::save`] at the end of a run (`MAGMA_SERVE_CACHE_PATH`).
    pub fn cache(&self) -> &MappingCache {
        &self.cache
    }

    /// Installs `cache` — typically one [`MappingCache::load`]ed from a
    /// previous run — re-bounded to the configured capacity. A service that
    /// starts with a persisted cache behaves hit-for-hit identically to the
    /// service that kept running (the warm-restart invariant the
    /// integration suite pins down).
    pub fn install_cache(&mut self, mut cache: MappingCache) {
        cache.rebound(self.config.cache_capacity);
        self.cache = cache;
    }

    /// Plans how a dispatch group will be searched: probes the cache (exact
    /// key, then the nearest-key fallback when `cache_epsilon > 0`) and, on
    /// a hit, adapts the stored solution into a seed population. The plan
    /// carries everything [`MappingService::open_search`] needs; nothing is
    /// evaluated yet.
    ///
    /// The seed population's jitter draws from `rng`; pass the same RNG on
    /// to the session's steps, as the one-call path ([`Self::map_group`])
    /// does — opening the search draws nothing in between.
    pub fn plan_group(&mut self, problem: &M3e, rng: &mut StdRng) -> SearchPlan {
        self.plan_group_shared(problem, rng, None)
    }

    /// [`MappingService::plan_group`] with a fleet-tier fallthrough: a miss
    /// in this service's own cache probes the [`SharedCache`] (same epsilon,
    /// same tie-break) before falling back to a cold search. A dispatch the
    /// tier serves counts as a miss in the shard's counters and a hit in
    /// the tier's — the two stat streams stay disjoint.
    pub fn plan_group_shared(
        &mut self,
        problem: &M3e,
        rng: &mut StdRng,
        shared: Option<&mut SharedCache>,
    ) -> SearchPlan {
        let key = quantize_signatures(problem.signatures(), self.config.quant_step);
        self.plan_keyed(problem, key, rng, shared)
    }

    /// [`MappingService::plan_group_shared`] for a caller that already
    /// quantized the group — the shard set needs the key to route, before
    /// there is a problem to plan. `key` must be the problem's signatures
    /// quantized at this service's `quant_step` (the platform profile a
    /// problem attaches to its signatures is not part of the key).
    pub(crate) fn plan_keyed(
        &mut self,
        problem: &M3e,
        key: SignatureKey,
        rng: &mut StdRng,
        shared: Option<&mut SharedCache>,
    ) -> SearchPlan {
        let sigs = problem.signatures();
        debug_assert_eq!(key, quantize_signatures(sigs, self.config.quant_step));
        let num_accels = MappingProblem::num_accels(problem);
        let magma = Magma::default();
        let budget = self.config.refine_budget;
        // Sized by Magma itself so the seeds fill exactly one initial
        // population (pure in the problem and budget; no RNG draw).
        let pop = magma.population_size_for(problem, budget);
        let epsilon = self.config.cache_epsilon;
        let mut adapt =
            |stored: &StoredSolution| stored.seed_population(rng, sigs, num_accels, pop);
        // The tier is told which cache has just refused the probe, so it
        // skips the entries it shares with it.
        let seeds = self.cache.lookup_near(&key, sigs, epsilon).map(&mut adapt).or_else(|| {
            let tier = shared?;
            tier.lookup_near(&key, sigs, epsilon, &self.cache).map(&mut adapt)
        });
        if seeds.is_some() {
            return SearchPlan { kind: DispatchKind::CacheHit, budget, key, seeds };
        }
        SearchPlan {
            kind: DispatchKind::ColdSearch,
            budget: self.config.cold_budget,
            key,
            seeds: None,
        }
    }

    /// Opens the search a plan describes — a seeded refinement on a cache
    /// hit, a cold MAGMA search on a miss — as a detached [`SessionState`],
    /// so a scheduler can hold many live searches at once and lend each its
    /// problem and RNG per step. The caller owns the stepping: spend
    /// [`SearchPlan::budget`] samples in whatever slices fit its schedule,
    /// then pass the finished outcome to [`MappingService::complete_group`].
    ///
    /// A warm-started session takes the plan's seeds and emits each one by
    /// move ([`Magma::into_session`]); the plan keeps its kind, budget and
    /// key for `complete_group`. Opening draws nothing from any RNG.
    pub fn open_search(&self, plan: &mut SearchPlan, problem: &M3e) -> Box<dyn SessionState> {
        match plan.seeds.take() {
            Some(seeds) => Magma::with_warm_start(seeds),
            None => Magma::default(),
        }
        .into_session(problem)
    }

    /// Completes a planned dispatch: stores the best mapping under the
    /// group's key (so the cache tracks the freshest solution per traffic
    /// pattern) and assembles the [`DispatchOutcome`]. Also returns the key
    /// the insert evicted from the cache, if any ([`MappingCache::insert`]).
    pub fn complete_group(
        &mut self,
        problem: &M3e,
        plan: SearchPlan,
        outcome: SearchOutcome,
    ) -> (DispatchOutcome, Option<SignatureKey>) {
        self.complete_group_shared(problem, plan, outcome, None)
    }

    /// [`MappingService::complete_group`] that also publishes the solution
    /// to the fleet tier on behalf of a tenant: the cache entry — key, packed
    /// rows and stored solution — is built once and the two caches share it.
    pub(crate) fn complete_group_shared(
        &mut self,
        problem: &M3e,
        plan: SearchPlan,
        outcome: SearchOutcome,
        shared: Option<(&mut SharedCache, usize)>,
    ) -> (DispatchOutcome, Option<SignatureKey>) {
        let stored =
            StoredSolution::new(outcome.best_mapping.clone(), Some(problem.signatures().to_vec()));
        let slot = Slot::new(plan.key, Arc::new(stored));
        if let Some((tier, tenant)) = shared {
            tier.publish_slot(slot.clone(), tenant);
        }
        let evicted = self.cache.insert_slot(slot);
        let schedule = problem.schedule(&outcome.best_mapping);
        let outcome = DispatchOutcome {
            kind: plan.kind,
            samples: outcome.history.num_samples(),
            best_fitness: outcome.best_fitness,
            mapping: outcome.best_mapping,
            schedule,
        };
        (outcome, evicted)
    }

    /// Maps one dispatch group in one call: plan, open the search, step it
    /// to the plan's budget, complete. `seed` drives the (deterministic)
    /// search RNG. The serving loops drive the same plan/open/complete
    /// primitives themselves, slice by slice ([`crate::scheduler`]).
    pub fn map_group(&mut self, problem: &M3e, seed: u64) -> DispatchOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = self.plan_group(problem, &mut rng);
        let mut state = self.open_search(&mut plan, problem);
        loop {
            let remaining = plan.budget - state.spent();
            if remaining == 0 || state.step(problem, &mut rng, remaining).spent == 0 {
                break;
            }
        }
        self.complete_group(problem, plan, state.finish()).0
    }
}

/// The decision [`MappingService::plan_group`] makes for one dispatch group:
/// how it will be served (cold vs hit), at what budget, under which cache
/// key, and — on a hit, until [`MappingService::open_search`] hands them to
/// the session — the adapted seed population.
#[derive(Debug, Clone)]
pub struct SearchPlan {
    kind: DispatchKind,
    budget: usize,
    key: SignatureKey,
    seeds: Option<Vec<Mapping>>,
}

impl SearchPlan {
    /// How the dispatch will be served.
    pub fn kind(&self) -> DispatchKind {
        self.kind
    }

    /// The sampling budget the search should spend.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The cache key the group quantized to — what the completed mapping
    /// will be stored under, in the shard's cache and the shared tier.
    pub fn key(&self) -> &SignatureKey {
        &self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_m3e::Objective;
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, Setting};
    use proptest::prelude::*;
    use rand::Rng;

    fn problem(seed: u64) -> M3e {
        let group = WorkloadSpec::single_group(TaskType::Recommendation, 8, seed);
        M3e::new(settings::build(Setting::S2), group, Objective::Throughput)
    }

    fn config() -> DispatchConfig {
        DispatchConfig::new(80, 8, 1.0, 8)
    }

    #[test]
    fn first_dispatch_is_cold_repeat_is_a_hit() {
        let mut service = MappingService::new(config());
        let p = problem(0);
        let cold = service.map_group(&p, 1);
        assert_eq!(cold.kind, DispatchKind::ColdSearch);
        assert_eq!(cold.samples, 80);
        let hit = service.map_group(&p, 2);
        assert_eq!(hit.kind, DispatchKind::CacheHit);
        assert_eq!(hit.samples, 8);
        assert_eq!(service.cache_len(), 1);
        assert_eq!(service.cache_stats().hits, 1);
        assert_eq!(service.cache_stats().misses, 1);
    }

    #[test]
    fn hit_on_an_identical_group_recovers_cold_quality() {
        let mut service = MappingService::new(config());
        let p = problem(3);
        let cold = service.map_group(&p, 1);
        let hit = service.map_group(&p, 99);
        // The adapted seed IS the stored best mapping (identical signature
        // set), so refinement can only improve on the cold result.
        assert!(hit.best_fitness >= cold.best_fitness * (1.0 - 1e-12));
        assert!(hit.samples * 10 <= cold.samples);
    }

    #[test]
    fn dispatch_is_deterministic_in_the_seed() {
        let p = problem(5);
        let run = || {
            let mut service = MappingService::new(config());
            let a = service.map_group(&p, 7);
            let b = service.map_group(&p, 8);
            (a.best_fitness, a.mapping, b.best_fitness, b.mapping)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_groups_miss_each_other() {
        let mut service = MappingService::new(config());
        let a = problem(0);
        let b = M3e::new(
            settings::build(Setting::S2),
            WorkloadSpec::single_group(TaskType::Vision, 8, 0),
            Objective::Throughput,
        );
        assert_eq!(service.map_group(&a, 1).kind, DispatchKind::ColdSearch);
        assert_eq!(service.map_group(&b, 2).kind, DispatchKind::ColdSearch);
        assert_eq!(service.cache_len(), 2);
    }

    #[test]
    fn schedule_covers_the_group() {
        let mut service = MappingService::new(config());
        let p = problem(1);
        let out = service.map_group(&p, 3);
        assert_eq!(out.schedule.segments().len(), 8);
        assert!(out.schedule.makespan_sec() > 0.0);
    }

    #[test]
    fn sliced_plan_start_complete_equals_one_call_map_group() {
        let p = problem(7);
        // One-call path (cold, then a hit) ...
        let mut one_call = MappingService::new(config());
        let cold_a = one_call.map_group(&p, 1);
        let hit_a = one_call.map_group(&p, 2);
        // ... versus the steppable path driven in slices of 3 samples.
        let mut sliced = MappingService::new(config());
        let mut drive = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut plan = sliced.plan_group(&p, &mut rng);
            let budget = plan.budget();
            let mut state = sliced.open_search(&mut plan, &p);
            loop {
                let remaining = budget - state.spent();
                if remaining == 0 || state.step(&p, &mut rng, remaining.min(3)).spent == 0 {
                    break;
                }
            }
            sliced.complete_group(&p, plan, state.finish()).0
        };
        let cold_b = drive(1);
        let hit_b = drive(2);
        assert_eq!(cold_a.kind, cold_b.kind);
        assert_eq!(cold_a.samples, cold_b.samples);
        assert_eq!(cold_a.best_fitness.to_bits(), cold_b.best_fitness.to_bits());
        assert_eq!(cold_a.mapping, cold_b.mapping);
        assert_eq!(hit_a.kind, hit_b.kind);
        assert_eq!(hit_a.best_fitness.to_bits(), hit_b.best_fitness.to_bits());
        assert_eq!(hit_a.mapping, hit_b.mapping);
    }

    #[test]
    fn a_shard_miss_falls_through_to_the_shared_tier() {
        let p = problem(0);
        // Shard A solves the group and publishes to the shared tier.
        let mut shard_a = MappingService::new(config());
        let cold = shard_a.map_group(&p, 1);
        let mut shared = SharedCache::new(8, 0);
        let sigs = p.signatures().to_vec();
        let key = quantize_signatures(&sigs, shard_a.config().quant_step);
        shared.publish(key, StoredSolution::new(cold.mapping.clone(), Some(sigs)), 0);
        // Shard B's own cache is cold: alone it would cold-search, but the
        // tier turns the plan into a refine-budget hit. The miss lands in
        // shard B's counters, the hit in the tier's.
        let mut shard_b = MappingService::new(config());
        let mut rng = StdRng::seed_from_u64(2);
        let plan = shard_b.plan_group_shared(&p, &mut rng, Some(&mut shared));
        assert_eq!(plan.kind(), DispatchKind::CacheHit);
        assert_eq!(plan.budget(), shard_b.config().refine_budget);
        assert_eq!(shard_b.cache_stats().misses, 1);
        assert_eq!(shard_b.cache_stats().hits, 0);
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn an_installed_cache_restores_hit_behaviour() {
        let p = problem(0);
        let mut service = MappingService::new(config());
        service.map_group(&p, 1);
        let saved = service.cache().clone();
        let mut restarted = MappingService::new(config());
        restarted.install_cache(saved);
        assert_eq!(restarted.map_group(&p, 2).kind, DispatchKind::CacheHit);
    }

    #[test]
    fn a_bent_cache_file_is_a_load_error_not_a_panic_on_the_first_hit() {
        use crate::shards::tests::drop_last_of_first_entry;
        let p = problem(0);
        let mut service = MappingService::new(config());
        service.map_group(&p, 1);
        let path = std::env::temp_dir().join(format!("magma_bent_cache_{}", std::process::id()));
        service.cache().save(&path).expect("temp dir is writable");
        let saved = std::fs::read_to_string(&path).unwrap();
        // Each file is valid JSON; each used to load and be installed. The
        // first then killed the thread in `Mapping::gather` on the group's
        // next `map_group`.
        for (field, why) in [
            (Some(["mapping", "priority"].as_slice()), "genome lengths must match"),
            (Some(&["mapping", "accel_sel"]), "genome lengths must match"),
            (Some(&["signatures"]), "one signature per job"),
            (None, "keys 7 jobs but maps 8"),
        ] {
            std::fs::write(&path, drop_last_of_first_entry(&saved, field)).unwrap();
            let err = MappingCache::load(&path).expect_err("nothing to install").to_string();
            assert!(err.contains(why), "{field:?}: {err}");
        }
        // The file as it was saved is what a restart installs and hits.
        std::fs::write(&path, &saved).unwrap();
        let mut restarted = MappingService::new(config());
        restarted.install_cache(MappingCache::load(&path).expect("the saved file loads"));
        assert_eq!(restarted.map_group(&p, 2).kind, DispatchKind::CacheHit);
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // The fleet tier skips the entries it shares with the shard that has
        // just refused a probe, and no plan can tell: two fleets take the
        // same completions and the same probes, one sharing every published
        // solution between shard and tier, the other reloading each shard's
        // cache from its saved form after every completion — which is what a
        // restart does, and leaves nothing shared. Plans, seeds and both
        // tiers' counters stay equal throughout.
        #[test]
        fn the_tier_skips_what_the_shard_refused_and_plans_the_same(seed in 0u64..u64::MAX) {
            const SHARDS: usize = 2;
            let mut rng = StdRng::seed_from_u64(seed);
            let epsilon = [0.0, 0.5, 2.0, 8.0, 1e6][rng.gen_range(0..5)];
            let config = DispatchConfig::new(6, 2, 1.0, rng.gen_range(1..5))
                .with_cache_epsilon(epsilon);
            let fleet = || -> (Vec<MappingService>, SharedCache) {
                ((0..SHARDS).map(|_| MappingService::new(config)).collect(), SharedCache::new(6, 2))
            };
            let (mut sharing, mut reloaded) = (fleet(), fleet());
            let platform = settings::build(Setting::S2);
            let mut shared_entries = 0;
            for _ in 0..20 {
                let task = TaskType::ALL[rng.gen_range(0..TaskType::ALL.len())];
                let group = WorkloadSpec::single_group(task, 6, rng.gen_range(0..4));
                let problem = M3e::new(platform.clone(), group, Objective::Throughput);
                let (shard, tenant, search_seed) =
                    (rng.gen_range(0..SHARDS), rng.gen_range(0..3), rng.gen::<u64>());
                let mut outcomes = Vec::new();
                for (services, tier) in [&mut sharing, &mut reloaded] {
                    let service = &mut services[shard];
                    let mut search = StdRng::seed_from_u64(search_seed);
                    let mut plan = service.plan_group_shared(&problem, &mut search, Some(tier));
                    // Captured before the session takes the seeds.
                    let planned = (plan.kind(), plan.budget(), plan.seeds.clone());
                    let mut state = service.open_search(&mut plan, &problem);
                    state.step(&problem, &mut search, plan.budget());
                    let (outcome, evicted) = service.complete_group_shared(
                        &problem,
                        plan,
                        state.finish(),
                        Some((tier, tenant)),
                    );
                    outcomes.push((planned, outcome.mapping, evicted));
                }
                prop_assert_eq!(&outcomes[0], &outcomes[1]);
                shared_entries += sharing.1.shared_with(sharing.0[shard].cache());
                let saved = serde_json::to_string(reloaded.0[shard].cache()).unwrap();
                reloaded.0[shard].install_cache(serde_json::from_str(&saved).unwrap());
                for shard in 0..SHARDS {
                    prop_assert_eq!(reloaded.1.shared_with(reloaded.0[shard].cache()), 0);
                    prop_assert_eq!(
                        sharing.0[shard].cache_stats(),
                        reloaded.0[shard].cache_stats()
                    );
                }
                prop_assert_eq!(sharing.1.stats(), reloaded.1.stats());
                prop_assert_eq!(sharing.1.len(), reloaded.1.len());
            }
            prop_assert!(shared_entries > 0, "a completion shares its solution with the tier");
        }
    }

    #[test]
    fn nearest_key_probe_turns_a_similar_group_into_a_hit() {
        // Same task, same size, different window: exact keys (almost
        // surely) differ, so exact-only misses but a generous epsilon hits.
        let a = problem(0);
        let b = problem(9);
        let mut exact = MappingService::new(config());
        exact.map_group(&a, 1);
        let exact_b = exact.map_group(&b, 2);
        let mut near = MappingService::new(config().with_cache_epsilon(1e6));
        near.map_group(&a, 1);
        let near_b = near.map_group(&b, 2);
        assert_eq!(exact_b.kind, DispatchKind::ColdSearch);
        assert_eq!(near_b.kind, DispatchKind::CacheHit);
        assert_eq!(near.cache_stats().near_hits, 1);
    }
}
