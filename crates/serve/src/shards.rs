//! The shard core both serving drivers run on.
//!
//! A [`ShardSet`] is N platform shards — each a platform, a
//! [`MappingService`] (warm-restarted from its persisted cache file), a
//! [`SessionScheduler`] and a virtual accelerator timeline — behind one
//! [`ShardRouter`], with the optional fleet-wide [`SharedCache`] tier behind
//! the per-shard caches. It owns every serving step that does not depend on
//! whose clock is running — admit, step, complete, persist, the counter
//! totals — so the drivers keep only their clock:
//! [`crate::fleet::fleet_simulate`] its virtual-time event order, admission
//! gate and per-shard mapper clocks, [`crate::engine::ServeEngine`] its
//! wall-clock API (tokens, admission control, timeouts, cancel, drain).
//!
//! The core is configured once: a [`ShardConfig`] — platforms, dispatch
//! budgets, shared tier, persistence path and scheduler — built from the
//! knob nest by [`ShardConfig::from_knobs`], is one field of both drivers'
//! configs ([`FleetConfig::core`](crate::fleet::FleetConfig::core),
//! [`EngineConfig::core`](crate::engine::EngineConfig::core)).
//!
//! A group's key is quantized once, at admission: the router pins a clone of
//! it, the plan carries it, and the completion builds one cache entry — key,
//! packed signature rows and stored solution — that the shard's cache and
//! the shared tier take clones of. A published group so costs its key, its
//! rows and its solution once, however many of these hold it.

use crate::batcher::DispatchGroup;
use crate::cache::{quantize_signatures, CacheStats, MappingCache, SharedCache};
use crate::dispatch::{DispatchConfig, DispatchOutcome, MappingService};
use crate::metrics::CacheReport;
use crate::router::{RouterStats, ShardRouter};
use crate::scheduler::{LiveSession, SchedStats, SchedStep, SchedulerConfig, SessionScheduler};
use crate::trace::Arrival;
use magma_m3e::{M3e, Objective};
use magma_model::{Group, JobId, JobSignature, TenantMix};
use magma_platform::settings::FleetKnobs;
use magma_platform::{AcceleratorPlatform, PlatformSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Seed stride decorrelating per-admission search RNG streams (the 64-bit
/// golden ratio, as used by splitmix-style generators).
const K_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Virtual mapper cost charged per evaluated search sample: 1 µs. No
/// scenario, test or figure varies it; the fleet's `mapper_pressure`
/// re-derives its own.
const OVERHEAD_SEC_PER_SAMPLE: f64 = 1e-6;

/// The shard core's parameters: what the crate's shard set is built from,
/// and the one field both drivers' configs carry
/// ([`FleetConfig::core`](crate::fleet::FleetConfig::core),
/// [`EngineConfig::core`](crate::engine::EngineConfig::core)).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// One platform spec per shard (shard count = length; the knobs'
    /// settings list cycled — Table III settings or a registry scenario's
    /// custom platform). Shard 0 is the fleet's load-calibration reference.
    pub shard_settings: Vec<PlatformSpec>,
    /// Search budgets and cache geometry (per shard).
    pub dispatch: DispatchConfig,
    /// Entries in the fleet-wide shared cache tier; `0` disables the tier
    /// (shard misses go straight to a cold search).
    pub shared_cache_capacity: usize,
    /// Per-tenant entry quota over the shared tier; `0` means unlimited.
    pub shared_tenant_quota: usize,
    /// Mapping-cache persistence base path: each shard loads/saves
    /// `<path>.shard<i>` ([`shard_cache_file`]). `None` keeps caches
    /// in-memory.
    pub cache_path: Option<PathBuf>,
    /// Every shard's scheduler: policy, live-session capacity, slices,
    /// value-preemption margin and the mapper's cost per sample.
    pub scheduler: SchedulerConfig,
}

impl ShardConfig {
    /// The shard core the fleet knobs describe, on `shards` shards (cycling
    /// the settings list).
    pub fn from_knobs(knobs: &FleetKnobs, shards: usize) -> Self {
        ShardConfig {
            shard_settings: knobs.shard_specs(shards),
            dispatch: DispatchConfig::from_knobs(&knobs.serve),
            shared_cache_capacity: knobs.shared_cache_capacity,
            shared_tenant_quota: knobs.shared_tenant_quota,
            cache_path: knobs.serve.cache_path.as_ref().map(PathBuf::from),
            scheduler: SchedulerConfig {
                policy: knobs.policy,
                max_live: knobs.max_live,
                base_slice: knobs.serve.search_slice,
                min_slice: knobs.min_slice,
                preempt_margin: knobs.preempt_margin,
                overhead_sec_per_sample: OVERHEAD_SEC_PER_SAMPLE,
            },
        }
    }

    /// Number of shards (the settings list's length).
    pub fn shards(&self) -> usize {
        self.shard_settings.len()
    }
}

/// The per-shard persistence file a `MAGMA_SERVE_CACHE_PATH` base path
/// expands to: `<base>.shard<i>`, for every driver.
pub fn shard_cache_file(base: &Path, shard: usize) -> PathBuf {
    PathBuf::from(format!("{}.shard{shard}", base.display()))
}

/// A group's preemption value: Σ `1 / sla_multiplier` over its arrivals —
/// tighter contracts are worth more, bigger groups are worth more.
pub(crate) fn group_value<'a>(arrivals: impl Iterator<Item = &'a Arrival>, mix: &TenantMix) -> f64 {
    arrivals.map(|a| 1.0 / mix.tenants()[a.tenant].sla_multiplier().unwrap_or(1.0)).sum()
}

/// A group's dominant tenant: the most frequent tenant among its arrivals,
/// smallest index on ties — the tenant the shared tier charges the
/// published entry to. `ids` is scratch space, so that a completion
/// allocates nothing here.
fn dominant_tenant(arrivals: &[Arrival], ids: &mut Vec<usize>) -> usize {
    ids.clear();
    ids.extend(arrivals.iter().map(|a| a.tenant));
    ids.sort_unstable();
    // Runs in ascending order of tenant: the first longest one wins.
    let (mut dominant, mut most) = (0, 0);
    for run in ids.chunk_by(|a, b| a == b) {
        if run.len() > most {
            (dominant, most) = (run[0], run.len());
        }
    }
    dominant
}

/// A completed group, as [`ShardSet::complete`] hands it back to the driver.
pub(crate) struct Completed {
    /// The group's arrivals and cut time.
    pub(crate) group: DispatchGroup,
    /// The dispatch outcome (kind, samples, mapping, schedule).
    pub(crate) outcome: DispatchOutcome,
    /// Each job's execution end on the shard's accelerator timeline, in
    /// arrival order and in the driver's time domain.
    pub(crate) end_sec: Vec<f64>,
}

/// N shards behind one router. See the module docs.
pub(crate) struct ShardSet {
    platforms: Vec<AcceleratorPlatform>,
    services: Vec<MappingService>,
    shared: Option<SharedCache>,
    scheds: Vec<SessionScheduler>,
    router: ShardRouter,
    /// Per-shard accelerator timeline: when the last scheduled group ends.
    accel_free: Vec<f64>,
    /// Sessions admitted so far — the next session's id and seed index.
    admitted: u64,
    quant_step: f64,
    overhead_sec_per_sample: f64,
    cache_path: Option<PathBuf>,
    seed: u64,
    /// [`dominant_tenant`]'s scratch space.
    tenant_ids: Vec<usize>,
}

impl ShardSet {
    /// Builds one shard per platform spec. With a `cache_path`, each shard
    /// warm-restarts from `<cache_path>.shard<i>`: a missing file is the
    /// normal first run; an unreadable one (truncated, not JSON) is reported
    /// and that shard comes up cold — a serving fleet must come up cold
    /// rather than not at all.
    pub(crate) fn new(config: &ShardConfig, seed: u64) -> Self {
        let shards = config.shards();
        let dispatch = config.dispatch;
        let mut services: Vec<_> = (0..shards).map(|_| MappingService::new(dispatch)).collect();
        if let Some(base) = &config.cache_path {
            for (i, service) in services.iter_mut().enumerate() {
                let file = shard_cache_file(base, i);
                if file.exists() {
                    match MappingCache::load(&file) {
                        Ok(cache) => service.install_cache(cache),
                        Err(e) => {
                            eprintln!("warning: ignoring mapping cache at {}: {e}", file.display())
                        }
                    }
                }
            }
        }
        ShardSet {
            platforms: config.shard_settings.iter().map(|s| s.build()).collect(),
            services,
            shared: (config.shared_cache_capacity > 0).then(|| {
                SharedCache::new(config.shared_cache_capacity, config.shared_tenant_quota)
            }),
            scheds: (0..shards).map(|_| SessionScheduler::new(config.scheduler)).collect(),
            router: ShardRouter::new(shards),
            accel_free: vec![0.0; shards],
            admitted: 0,
            quant_step: dispatch.quant_step,
            overhead_sec_per_sample: config.scheduler.overhead_sec_per_sample,
            cache_path: config.cache_path.clone(),
            seed,
            tenant_ids: Vec::new(),
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.scheds.len()
    }

    /// Whether some shard can take a session without preempting.
    pub(crate) fn has_room(&self) -> bool {
        self.scheds.iter().any(|s| s.has_room())
    }

    /// One shard's scheduler.
    pub(crate) fn sched(&mut self, shard: usize) -> &mut SessionScheduler {
        &mut self.scheds[shard]
    }

    /// Live sessions across all shards.
    pub(crate) fn live_total(&self) -> usize {
        self.scheds.iter().map(|s| s.live()).sum()
    }

    /// A shard's congestion in seconds — the router's load measure: queued
    /// mapper work plus how far its accelerator timeline runs past now.
    /// Search is usually cheap, so the accelerator queue is what actually
    /// differentiates shards under load.
    pub(crate) fn load(&self, shard: usize, now_sec: f64) -> f64 {
        self.scheds[shard].backlog() * self.overhead_sec_per_sample
            + (self.accel_free[shard] - now_sec).max(0.0)
    }

    /// The fleet's cheapest value-preemptable session as `(shard, value)`,
    /// ties to the lowest shard.
    pub(crate) fn cheapest_victim(&self) -> Option<(usize, f64)> {
        (0..self.len())
            .filter_map(|s| self.scheds[s].preemptable_value().map(|v| (s, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("values are finite").then(a.0.cmp(&b.0)))
    }

    /// Admits a freshly cut group at `t`: routes it, plans it, opens its
    /// search and hands the session to the chosen shard's scheduler. Returns
    /// `(session id, shard)`. Some shard must have room.
    pub(crate) fn admit(
        &mut self,
        group: DispatchGroup,
        t: f64,
        deadline_sec: f64,
        mix: &TenantMix,
    ) -> (u64, usize) {
        let sigs: Vec<JobSignature> = group.arrivals.iter().map(|a| a.job.signature()).collect();
        let key = quantize_signatures(&sigs, self.quant_step);
        let admissible: Vec<bool> = self.scheds.iter().map(|s| s.has_room()).collect();
        let loads: Vec<f64> = (0..self.len()).map(|s| self.load(s, t)).collect();
        // A key the shared tier holds is served warm from any shard, so
        // affinity buys nothing: place purely by load.
        let shard = if self.shared.as_ref().is_some_and(|tier| tier.contains(&key)) {
            self.router.place_balanced(&loads, &admissible)
        } else {
            self.router.place(&key, &loads, &admissible)
        };
        let jobs: Vec<_> = group
            .arrivals
            .iter()
            .enumerate()
            .map(|(k, a)| a.job.clone().with_id(JobId(k)))
            .collect();
        let problem =
            M3e::new(self.platforms[shard].clone(), Group::new(jobs), Objective::Throughput);
        let id = self.admitted;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(id.wrapping_mul(K_SEED_STRIDE)));
        let mut plan =
            self.services[shard].plan_keyed(&problem, key, &mut rng, self.shared.as_mut());
        let budget = plan.budget();
        let state = self.services[shard].open_search(&mut plan, &problem);
        let value = group_value(group.arrivals.iter(), mix);
        let session =
            LiveSession { id, group, plan, problem, rng, state, budget, deadline_sec, value };
        self.scheds[shard].admit(session, t);
        self.admitted += 1;
        (id, shard)
    }

    /// Runs one scheduler decision on `shard` at `now_sec`. Returns the
    /// samples the step evaluated — the mapper time the caller owes — and,
    /// when the selected session left the scheduler (budget done, search
    /// exhausted or deadline-preempted), the session and whether it was
    /// preempted; the caller completes it.
    pub(crate) fn step(
        &mut self,
        shard: usize,
        now_sec: f64,
    ) -> (usize, Option<(LiveSession, bool)>) {
        match self.scheds[shard].step(now_sec) {
            SchedStep::Idle => (0, None),
            SchedStep::Progress { spent } => (spent, None),
            SchedStep::Finished { session, spent, preempted } => {
                (spent, Some((*session, preempted)))
            }
        }
    }

    /// Completes a session that left `shard`'s scheduler (finished,
    /// preempted or cancelled mid-search) whose search ended at
    /// `search_end_sec`: stores the best mapping in the shard's cache,
    /// publishes it to the shared tier under the group's dominant tenant and
    /// schedules the group at `max(search end, accelerator free)`.
    pub(crate) fn complete(
        &mut self,
        session: LiveSession,
        shard: usize,
        search_end_sec: f64,
    ) -> Completed {
        let LiveSession { group, plan, problem, state, .. } = session;
        let tenant = dominant_tenant(&group.arrivals, &mut self.tenant_ids);
        let shared = self.shared.as_mut().map(|tier| (tier, tenant));
        let (outcome, evicted) =
            self.services[shard].complete_group_shared(&problem, plan, state.finish(), shared);
        // A pin is only worth keeping while the shard's cache holds the key.
        if let Some(evicted) = evicted {
            self.router.forget(&evicted, shard);
        }
        let exec_start = search_end_sec.max(self.accel_free[shard]);
        self.accel_free[shard] = exec_start + outcome.schedule.makespan_sec();
        let mut end_sec = vec![exec_start; group.arrivals.len()];
        for seg in outcome.schedule.segments() {
            end_sec[seg.job.0] = exec_start + seg.end_sec;
        }
        Completed { group, outcome, end_sec }
    }

    /// Drops a session that left `shard`'s scheduler before evaluating a
    /// sample (cancelled before its first slice): there is no outcome to
    /// store, so unless an earlier group left the key in the shard's cache
    /// its pin points at nothing and is forgotten.
    pub(crate) fn discard(&mut self, session: &LiveSession, shard: usize) {
        let key = session.plan.key();
        if !self.services[shard].cache().contains_key(key) {
            self.router.forget(key, shard);
        }
    }

    /// Persists each shard's mapping cache to `<cache_path>.shard<i>`
    /// (crash-safe: see [`MappingCache::save`]). A failed write is reported,
    /// never fatal.
    pub(crate) fn persist(&self) {
        if let Some(base) = &self.cache_path {
            for (i, service) in self.services.iter().enumerate() {
                let file = shard_cache_file(base, i);
                if let Err(e) = service.cache().save(&file) {
                    eprintln!(
                        "warning: could not persist mapping cache to {}: {e}",
                        file.display()
                    );
                }
            }
        }
    }

    /// The shard caches' counters and live entries, summed over shards.
    pub(crate) fn cache_report(&self) -> CacheReport {
        let mut total = CacheStats::default();
        let mut entries = 0;
        for service in &self.services {
            let s = service.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.near_hits += s.near_hits;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            entries += service.cache_len();
        }
        CacheReport::new(total, entries)
    }

    /// Scheduler lifecycle counters summed over shards.
    pub(crate) fn sched_totals(&self) -> SchedStats {
        let mut total = SchedStats::default();
        for st in self.scheds.iter().map(|s| s.stats()) {
            total.admitted += st.admitted;
            total.completed += st.completed;
            total.preempted_deadline += st.preempted_deadline;
            total.preempted_value += st.preempted_value;
            total.late_admissions += st.late_admissions;
            total.min_slice_clamps += st.min_slice_clamps;
        }
        total
    }

    /// The shared tier's counters (all zero when the tier is disabled).
    pub(crate) fn shared_report(&self) -> CacheReport {
        self.shared
            .as_ref()
            .map_or_else(CacheReport::default, |t| CacheReport::new(t.stats(), t.len()))
    }

    /// Router placement counters.
    pub(crate) fn router_stats(&self) -> RouterStats {
        self.router.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use magma_model::{Job, LayerShape, TaskType};
    use magma_platform::settings::{FleetKnobs, FleetPolicy};

    #[test]
    fn the_dominant_tenant_is_the_most_frequent_one_and_the_smallest_on_ties() {
        let job = Job::new(
            JobId(0),
            "m",
            0,
            LayerShape::FullyConnected { out_features: 8, in_features: 8 },
            1,
            TaskType::Recommendation,
        );
        let arrivals = |tenants: &[usize]| -> Vec<Arrival> {
            tenants
                .iter()
                .map(|&tenant| Arrival { time_sec: 0.0, tenant, job: job.clone() })
                .collect()
        };
        let mut ids = Vec::new();
        assert_eq!(dominant_tenant(&arrivals(&[5, 2, 5, 9, 2, 5]), &mut ids), 5);
        assert_eq!(dominant_tenant(&arrivals(&[7, 3, 7, 3, 9]), &mut ids), 3, "a tie");
        assert_eq!(dominant_tenant(&arrivals(&[4]), &mut ids), 4);
        assert_eq!(dominant_tenant(&[], &mut ids), 0);
    }

    /// Affinity pins die with the cache entries they point at: however many
    /// distinct keys pass through, the router holds at most one pin per
    /// cache slot plus one per live session.
    #[test]
    fn affinity_pins_are_bounded_by_cache_capacity_and_live_sessions() {
        const CAPACITY: usize = 3;
        let config = ShardConfig {
            dispatch: DispatchConfig::new(8, 2, 1.0, CAPACITY),
            shared_cache_capacity: 0,
            scheduler: SchedulerConfig {
                policy: FleetPolicy::Uniform,
                max_live: 2,
                base_slice: 4,
                min_slice: 4,
                preempt_margin: 0.0,
                overhead_sec_per_sample: 1e-6,
            },
            ..ShardConfig::from_knobs(&FleetKnobs::smoke(), 2)
        };
        let mut set = ShardSet::new(&config, 7);
        let mix = TenantMix::synthetic(2, 0);
        // 40 groups that differ in size or, by at least a factor of four,
        // in their jobs' width: 40 distinct keys at a quantization step of
        // 1 nat.
        let mut last = (0, 0);
        for i in 0..40 {
            while !set.has_room() {
                for shard in 0..set.len() {
                    if let (_, Some((session, _))) = set.step(shard, 0.0) {
                        set.complete(session, shard, 0.0);
                    }
                }
            }
            let shape =
                LayerShape::FullyConnected { out_features: 32 << (2 * (i % 8)), in_features: 64 };
            let job = Job::new(JobId(0), "m", 0, shape, 4, TaskType::Recommendation);
            let arrival = Arrival { time_sec: 0.0, tenant: i % 2, job };
            let group = DispatchGroup { arrivals: vec![arrival; 1 + i / 8], formed_at_sec: 0.0 };
            last = set.admit(group, 0.0, f64::INFINITY, &mix);
            assert!(
                set.router.pinned() <= set.len() * CAPACITY + set.live_total(),
                "{} pins after {} keys",
                set.router.pinned(),
                i + 1
            );
        }
        assert_eq!(set.router_stats().affinity_hits, 0, "every key was distinct");
        assert!(set.cache_report().evictions > 0, "the caches did overflow");

        // The last group is still live and has evaluated nothing: dropped
        // now (a cancel before its first slice), it takes its pin with it.
        let pins = set.router.pinned();
        let (id, shard) = last;
        let session = set.sched(shard).remove_by_id(id).expect("admitted last, never stepped");
        assert_eq!(session.spent(), 0);
        set.discard(&session, shard);
        assert_eq!(set.router.pinned(), pins - 1);
    }

    /// A completion publishes one entry: the router's pin, the shard's
    /// entry, the tier's entry and the tier's quota book hold one key
    /// allocation, and the two entries one rows buffer and one solution.
    #[test]
    fn a_completion_shares_one_key_and_one_rows_buffer_among_its_holders() {
        let config = ShardConfig::from_knobs(&FleetKnobs::smoke(), 2);
        assert!(config.shared_cache_capacity > 0, "the tier is on");
        let mut set = ShardSet::new(&config, 3);
        let mix = TenantMix::synthetic(2, 0);
        let jobs = magma_model::WorkloadSpec::single_group(TaskType::Mix, 30, 1).jobs().to_vec();
        let sigs: Vec<JobSignature> = jobs.iter().map(Job::signature).collect();
        let arrivals = jobs.into_iter().map(|job| Arrival { time_sec: 0.0, tenant: 1, job });
        let group = DispatchGroup { arrivals: arrivals.collect(), formed_at_sec: 0.0 };
        let (_, shard) = set.admit(group, 0.0, f64::INFINITY, &mix);
        let key = quantize_signatures(&sigs, config.dispatch.quant_step);
        let pin = set.router.pinned_key(&key).expect("a new key is pinned").clone();
        loop {
            if let (_, Some((session, _))) = set.step(shard, 0.0) {
                set.complete(session, shard, 0.0);
                break;
            }
        }
        let tier = set.shared.as_ref().expect("the tier is on");
        assert!(tier.holds_as_one(set.services[shard].cache(), &pin));
        // An equal key quantized apart is equal, not the same allocation.
        assert!(!key.is(&pin) && key == pin);
        assert!(!tier.holds_as_one(set.services[shard].cache(), &key));
    }

    /// The corrupt-cache-file contract, checked against either driver:
    /// `serve(cache_path)` runs a fixed two-shard workload to the end.
    pub(crate) fn corrupt_cache_files_come_up_cold<R: PartialEq + std::fmt::Debug>(
        tag: &str,
        serve: impl Fn(Option<PathBuf>) -> R,
    ) {
        let base = std::env::temp_dir().join(format!("magma_{tag}_corrupt_{}", std::process::id()));
        let cold = serve(None);
        serve(Some(base.clone())); // persists both shards' caches
        let warm = std::fs::read(shard_cache_file(&base, 0)).expect("shard 0 persisted");
        // A truncated file (what a save killed mid-write used to leave), a
        // file that never was JSON, and a stale `.tmp` holding a valid warm
        // cache that must not be picked up.
        std::fs::write(shard_cache_file(&base, 0), &warm[..warm.len() / 2]).unwrap();
        std::fs::write(shard_cache_file(&base, 1), "not a cache").unwrap();
        let stale = PathBuf::from(format!("{}.tmp", shard_cache_file(&base, 0).display()));
        std::fs::write(&stale, &warm).unwrap();
        assert_eq!(serve(Some(base.clone())), cold, "unreadable files mean a cold start");
        assert!(!stale.exists(), "a save consumes its temp file");
        // Files that parse but are not a cache any more: a mapping short of
        // a priority gene (which used to load, and panic on the first hit
        // that gathered from it) and a solution short of a signature.
        for (i, field) in [["mapping", "priority"].as_slice(), &["signatures"]].iter().enumerate() {
            let file = shard_cache_file(&base, i);
            let saved = std::fs::read_to_string(&file).expect("the run replaced the corrupt file");
            MappingCache::load(&file).expect("and what it wrote loads");
            std::fs::write(&file, drop_last_of_first_entry(&saved, Some(field))).unwrap();
            MappingCache::load(&file).expect_err("an inconsistent file is a load error");
        }
        assert_eq!(serve(Some(base.clone())), cold, "inconsistent files mean a cold start");
        for i in 0..2 {
            let file = shard_cache_file(&base, i);
            MappingCache::load(&file).expect("the run replaced the inconsistent file");
            let _ = std::fs::remove_file(file);
        }
    }

    /// A persisted cache with the last element dropped from one array of its
    /// first entry — the key (`None`) or a field of the stored solution
    /// (`Some(&["mapping", "priority"])`): still JSON, no longer consistent.
    pub(crate) fn drop_last_of_first_entry(cache_json: &str, field: Option<&[&str]>) -> String {
        use serde::Value;
        fn child<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
            let Value::Map(fields) = v else { panic!("{name}: not inside an object") };
            &mut fields.iter_mut().find(|(k, _)| k == name).expect("the field exists").1
        }
        let mut root: Value = serde_json::from_str(cache_json).expect("a saved cache is JSON");
        let Value::Seq(entries) = child(&mut root, "entries") else { panic!("entries is a list") };
        let Value::Seq(pair) = &mut entries[0] else { panic!("an entry is a pair") };
        let (key, solution) = pair.split_at_mut(1);
        let target = match field {
            None => &mut key[0],
            Some(path) => path.iter().fold(&mut solution[0], |v, name| child(v, name)),
        };
        let Value::Seq(items) = target else { panic!("the target is a list") };
        items.pop().expect("the list has an element to drop");
        serde_json::to_string_pretty(&root).unwrap()
    }
}
