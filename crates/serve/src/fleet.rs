//! Fleet-scale serving: N platform shards behind a signature-affine router,
//! each multiplexing many live searches through a concurrent session
//! scheduler.
//!
//! A fleet is `FleetKnobs::shards` independent **shards** — each a full
//! platform with its own mapper clock, accelerator timeline, mapping cache
//! and `SessionScheduler` — fed from
//! one global admission batcher:
//!
//! ```text
//!  trace ─▶ AdmissionBatcher ─▶ ShardRouter ──▶ shard 0: scheduler ⇄ cache ⇄ accel
//!                         (affinity + load)  ├▶ shard 1: …
//!                                            └▶ shard N-1: …
//! ```
//!
//! The event loop is a pure function of `(FleetConfig, TenantMix)`: three
//! event kinds — an **arrival** joins the batcher, a **cut** admits the next
//! group to the shard the router picks, a **step** advances the
//! earliest-clock shard's scheduler by one slice — are processed in global
//! virtual-time order (ties resolved arrival < cut < step, then shard
//! index), so fleet runs are bit-identical across repeats and
//! `MAGMA_THREADS` settings. A cut happens once the batcher is ready *and*
//! a shard can take the group: either a free scheduler slot, or (margin
//! knob permitting) a live session cheap enough to value-preempt.
//!
//! Behind the per-shard caches sits an optional fleet-wide **shared cache
//! tier** ([`ShardConfig::shared_cache_capacity`] entries, per-tenant quota
//! [`ShardConfig::shared_tenant_quota`]): a shard miss falls through to the tier
//! before cold-searching, every completed session publishes its mapping to
//! both its shard cache and the tier, and the router places tier-held keys
//! purely by load (`place_balanced`) since
//! any shard then serves them warm. The tier lives on the fleet's
//! single-threaded event loop, so its event order — and therefore every
//! fleet result — stays bit-identical across `MAGMA_THREADS` settings.
//! When `MAGMA_SERVE_CACHE_PATH` is set, each shard persists its cache to
//! `<path>.shard<i>` at the end of the run and reloads it at the next
//! start, so fleet restarts begin warm.
//!
//! This is the one virtual-clock serving loop: the single-queue simulator
//! ([`FleetConfig::single_queue`]) is this loop at one shard, the Uniform
//! policy, one live session and one step per search. The shard machinery
//! itself — route, plan, step, complete, publish, persist — is the
//! crate-private shard core the wall-clock [`crate::engine`] runs on too;
//! this module adds only the event order, the admission gate and the
//! per-shard mapper clocks. Its config is the same way round: a
//! [`FleetConfig`] is the shard core's [`ShardConfig`] (its `core` field,
//! built by the same [`ShardConfig::from_knobs`] the engine uses) plus the
//! traffic, batching, SLA and mapper-pressure settings of a simulation.
//!
//! # What a running simulation holds
//!
//! What is live, not what it was sent: the loop peeks a
//! `TraceStream` and moves each arrival into the batcher when its time
//! comes, so the trace in memory is the arrivals waiting in the batcher
//! and the groups in flight. A finished group leaves one 40-byte
//! `JobRecord` per job and its kind, samples and best fitness, folded into
//! a running `DispatchTally` in completion order; its arrivals, mapping
//! and schedule are dropped when it is booked. Beside the shard caches,
//! which stop growing at capacity, the records are what still grows with
//! the requests: the end-of-run latency profiles sort them.
//!
//! # Calibration
//!
//! Arrival rates are specified as an *offered load* relative to the
//! **reference shard**'s (shard 0) unoptimized service rate: a calibration
//! group (the first `group_target` jobs of the mix, round-robin across
//! tenants) is scheduled under a seeded random mapping, and its per-job
//! makespan share becomes the unit the mean inter-arrival gap is derived
//! from. This keeps one knob meaningful across platforms from S1 to S6, and
//! an offered load of 2.5 means "2.5× what one shard sustains": the
//! one-shard rung of the [`FleetReport`] ladder drowns and the ladder's
//! throughput climbs with the shard count — the scaling headline
//! `BENCH_fleet.json` exists to track. The per-job SLA bound is `sla_x ×
//! (batch window + calibrated group service time + cold mapper overhead)` —
//! the latency a job would see in a healthy, uncongested system, times a
//! tolerance factor.

use crate::batcher::{AdmissionBatcher, BatchPolicy};
use crate::descriptor::{CustomScenario, ScenarioDescriptor};
use crate::emit::{mode_tag, BenchReport};
use crate::metrics::{CacheReport, DispatchTally, JobRecord, LatencyStats, ServeMetrics};
use crate::router::RouterStats;
use crate::scheduler::SchedStats;
use crate::shards::{group_value, Completed, ShardConfig, ShardSet};
use crate::trace::{Arrival, Scenario, TraceParams, TraceStream};
use magma_m3e::{M3e, Mapping, Objective};
use magma_model::workload::DEFAULT_MINI_BATCH;
use magma_model::{Group, JobId, TenantMix};
use magma_platform::settings::{FleetKnobs, FleetPolicy, ServeKnobs};
use magma_platform::PlatformSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

/// The full parameter set of one fleet run: the shard core plus the fleet's
/// traffic, batching, SLA and mapper-pressure settings.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The shard core (platforms, dispatch, shared tier, persistence,
    /// scheduler).
    pub core: ShardConfig,
    /// The traffic scenario.
    pub scenario: Scenario,
    /// Arrivals to simulate.
    pub requests: usize,
    /// Dispatch-group size target.
    pub group_target: usize,
    /// Admission deadline in batch-formation windows.
    pub max_wait_x: f64,
    /// Offered load relative to the reference shard's calibrated rate.
    pub offered_load: f64,
    /// SLA tolerance factor (see the module docs' calibration section).
    pub sla_x: f64,
    /// Mapper-saturation factor for stress scenarios; `0` (the default)
    /// uses the core's per-sample overhead. When positive, the
    /// per-sample overhead is re-derived after calibration so that one cold
    /// search costs `mapper_pressure × shards` batch windows — every
    /// shard's mapper is oversubscribed by the factor at any rung, forcing
    /// live sessions to pile up and deadlines to expire mid-search (the
    /// `deadline_pressure` scenario sets this; the scaling headline leaves
    /// it off).
    pub mapper_pressure: f64,
    /// Trace/search seed.
    pub seed: u64,
}

impl FleetConfig {
    /// Builds a config from the fleet knobs for `shards` shards (cycling
    /// the settings list) under the given scenario.
    pub fn from_knobs(knobs: &FleetKnobs, shards: usize, scenario: Scenario) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        FleetConfig {
            core: ShardConfig::from_knobs(knobs, shards),
            scenario,
            requests: knobs.requests,
            group_target: knobs.serve.group_target,
            max_wait_x: knobs.serve.max_wait_x,
            offered_load: knobs.offered_load,
            sla_x: knobs.serve.sla_x,
            mapper_pressure: 0.0,
            seed: knobs.serve.seed,
        }
    }

    /// The single-queue simulator as the degenerate fleet it is: one
    /// `platform` shard under the Uniform policy with one live session, no
    /// shared tier and no preemption — one mapper, one accelerator, a
    /// group's search hidden behind the previous group's execution. Trace
    /// length and offered load are the serving knobs' own.
    pub fn single_queue(knobs: &ServeKnobs, platform: PlatformSpec, scenario: Scenario) -> Self {
        let degenerate = FleetKnobs {
            // One scheduler step per search: with a single live session the
            // slice size cannot change any result (the session-stepping
            // invariant, `tests/integration_sessions.rs`), so the knob is
            // not an input here.
            serve: ServeKnobs { search_slice: usize::MAX, ..knobs.clone() },
            shards: 1,
            shard_settings: vec![platform],
            requests: knobs.requests,
            // Sizes the synthetic mix only; a config does not read it.
            tenants: 1,
            offered_load: knobs.offered_load,
            max_live: 1,
            policy: FleetPolicy::Uniform,
            min_slice: 1,
            preempt_margin: 0.0,
            shared_cache_capacity: 0,
            shared_tenant_quota: 0,
        };
        Self::from_knobs(&degenerate, 1, scenario)
    }
}

/// The output of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// The fleet-wide metrics block (cache counters summed over shards).
    pub metrics: ServeMetrics,
    /// The calibrated mean inter-arrival gap, in virtual seconds.
    pub mean_interarrival_sec: f64,
    /// The per-job SLA bound applied, in virtual seconds.
    pub sla_sec: f64,
    /// Scheduler lifecycle counters, summed over shards.
    pub sched: SchedStats,
    /// Shared cache tier counters (all zero when the tier is disabled). The
    /// tier's stream is disjoint from the per-shard counters in
    /// [`FleetResult::metrics`]: a tier-served dispatch is a shard miss
    /// *and* a tier hit.
    pub shared: CacheReport,
    /// Router placement counters.
    pub router: RouterStats,
    /// Jobs completed per shard.
    pub per_shard_jobs: Vec<usize>,
}

/// The load calibration of the reference shard (see the module docs):
/// everything the trace synthesis and the SLA bound derive from the
/// unoptimized service rate.
struct Calibration {
    mean_interarrival_sec: f64,
    batch_window_sec: f64,
    sla_sec: f64,
}

/// Calibrates arrival rate and SLA bound against the reference shard's
/// (shard 0) unoptimized service time: the calibration group (the first
/// `group_target` jobs of the mix, round-robin across tenants, re-identified
/// 0..target) scheduled under a seeded random mapping. The shard 0
/// reference means the offered load is "multiples of one shard's
/// unoptimized rate" at every rung of a scaling ladder.
fn calibrate(config: &FleetConfig, mix: &TenantMix) -> Calibration {
    let core = &config.core;
    let platform = core.shard_settings[0].build();
    let calib_n = config.group_target;
    // Job k comes from tenant k mod len, so only the first calib_n streams
    // are ever drawn from.
    let mut streams: Vec<_> =
        mix.tenants().iter().take(calib_n).map(|t| t.job_stream(DEFAULT_MINI_BATCH)).collect();
    let jobs = (0..calib_n).map(|k| streams[k % mix.len()].next_job(JobId(k))).collect();
    let mut calib_rng = StdRng::seed_from_u64(config.seed);
    let calib_mapping = Mapping::random(&mut calib_rng, calib_n, platform.num_sub_accels());
    let calib_problem = M3e::new(platform, Group::new(jobs), Objective::Throughput);
    let calib_makespan = calib_problem.schedule(&calib_mapping).makespan_sec();
    let mean_interarrival_sec = calib_makespan / calib_n as f64 / config.offered_load;
    let batch_window_sec = config.group_target as f64 * mean_interarrival_sec;
    let cold_overhead_sec =
        core.dispatch.cold_budget as f64 * core.scheduler.overhead_sec_per_sample;
    let sla_sec = config.sla_x * (batch_window_sec + calib_makespan + cold_overhead_sec);
    Calibration { mean_interarrival_sec, batch_window_sec, sla_sec }
}

/// Earliest per-job SLA expiry across a group's arrivals.
fn group_deadline(arrivals: &[Arrival], mix: &TenantMix, sla_sec: f64) -> f64 {
    arrivals
        .iter()
        .map(|a| a.time_sec + mix.tenants()[a.tenant].effective_sla_sec(sla_sec))
        .fold(f64::INFINITY, f64::min)
}

/// Whether the next group could be taken right now: a free slot somewhere,
/// or a value-preemptable victim the prospective group out-values by the
/// margin.
fn gate_is_open(
    shards: &ShardSet,
    batcher: &AdmissionBatcher,
    margin: f64,
    mix: &TenantMix,
) -> bool {
    if shards.has_room() {
        return true;
    }
    if margin <= 0.0 || batcher.pending() == 0 {
        return false;
    }
    let incoming = group_value(batcher.peek_next_group(), mix);
    shards.cheapest_victim().is_some_and(|(_, cheapest)| incoming >= margin * cheapest)
}

/// Runs one fleet scenario to completion. See the module docs for the event
/// model.
///
/// # Panics
///
/// Panics if the config is degenerate (no shards/requests, a non-positive
/// offered load) — [`FleetConfig::from_knobs`] never builds such a config.
pub fn fleet_simulate(config: &FleetConfig, mix: &TenantMix) -> FleetResult {
    let shards = config.core.shards();
    assert!(shards > 0 && config.requests > 0 && config.group_target > 0);
    assert!(config.offered_load > 0.0 && config.offered_load.is_finite());

    let calib = calibrate(config, mix);
    let sla_sec = calib.sla_sec;
    let mut core = config.core.clone();
    // Stress scenarios re-derive the per-sample mapper cost so that one
    // cold search costs `mapper_pressure × shards` batch windows — the
    // mapper is then the contended resource at every rung of a ladder (the
    // SLA keeps the *configured* overhead, so the pressure actually bites).
    if config.mapper_pressure > 0.0 {
        core.scheduler.overhead_sec_per_sample =
            config.mapper_pressure * shards as f64 * calib.batch_window_sec
                / core.dispatch.cold_budget as f64;
    }

    let mut trace = TraceStream::new(
        &TraceParams {
            scenario: config.scenario,
            requests: config.requests,
            mean_interarrival_sec: calib.mean_interarrival_sec,
            mini_batch: DEFAULT_MINI_BATCH,
            seed: config.seed,
        },
        mix,
    )
    .peekable();
    let mut batcher = AdmissionBatcher::new(BatchPolicy::new(
        config.group_target,
        config.max_wait_x * calib.batch_window_sec,
    ));
    let mut set = ShardSet::new(&core, config.seed);
    let mut mapper_now = vec![0.0f64; shards];
    let mut records: Vec<JobRecord> = Vec::with_capacity(config.requests);
    let mut dispatch = DispatchTally::default();
    let mut per_shard_jobs = vec![0usize; shards];
    // Books a group `shard` completed: one record per job, dispatched at the
    // group's cut time, and its dispatch tallied. The group's arrivals,
    // mapping and schedule are dropped here.
    let mut book = |shard: usize, done: Completed| {
        let Completed { group, outcome, end_sec } = done;
        for (a, &completed_sec) in group.arrivals.iter().zip(&end_sec) {
            records.push(JobRecord {
                tenant: a.tenant,
                arrival_sec: a.time_sec,
                dispatched_sec: group.formed_at_sec,
                completed_sec,
                flops: a.job.flops(),
            });
        }
        per_shard_jobs[shard] += group.arrivals.len();
        dispatch.add(&outcome);
    };
    // The admission gate: open while some shard can take the next group.
    // `gate_since` is the instant the current open stretch began — a cut
    // can never predate the capacity it needs.
    let mut gate_open = true;
    let mut gate_since = 0.0f64;

    loop {
        let ta = trace.peek().map(|a| a.time_sec);
        let tc = if gate_open { batcher.earliest_ready().map(|r| r.max(gate_since)) } else { None };
        let ts = (0..shards)
            .filter(|&s| set.sched(s).live() > 0)
            .map(|s| (mapper_now[s], s))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let t_cut = tc.unwrap_or(f64::INFINITY);
        let t_step = ts.map_or(f64::INFINITY, |(t, _)| t);
        // The time the gate re-evaluation below attributes to this event.
        let gate_time;
        match (ta, tc, ts) {
            // Arrivals admit first on ties so they can join the group being
            // cut.
            (Some(t), _, _) if t <= t_cut && t <= t_step => {
                batcher.push(trace.next().expect("the arrival was peeked"));
                gate_time = t;
            }
            (_, Some(t), _) if t <= t_step => {
                let group = batcher.take_group(t).expect("readiness verified");
                if !set.has_room() {
                    // The gate only opened through value preemption: evict
                    // the fleet's cheapest started session (ties to the
                    // lowest shard) and finish it with what it has.
                    let (vs, _) = set.cheapest_victim().expect("the gate verified a victim exists");
                    let victim = set.sched(vs).preempt_lowest_value();
                    book(vs, set.complete(victim, vs, mapper_now[vs].max(t)));
                }
                let deadline_sec = group_deadline(&group.arrivals, mix, sla_sec);
                let (_, shard) = set.admit(group, t, deadline_sec, mix);
                // An idle mapper starts at the admission; a busy one keeps
                // its clock (the new session waits for a slice).
                mapper_now[shard] = mapper_now[shard].max(t);
                gate_time = t;
            }
            (_, _, Some((t, shard))) => {
                let (spent, finished) = set.step(shard, t);
                mapper_now[shard] += spent as f64 * core.scheduler.overhead_sec_per_sample;
                if let Some((session, preempted)) = finished {
                    debug_assert!(
                        !preempted || core.scheduler.policy == FleetPolicy::Deadline,
                        "only the Deadline policy preempts on step"
                    );
                    book(shard, set.complete(session, shard, mapper_now[shard]));
                }
                // Room freed (or spent advanced) when the mapper's slice
                // ended, not at the step's start.
                gate_time = mapper_now[shard];
            }
            (None, None, None) => break,
            // The guards compare against INFINITY when an event kind is
            // absent, so any arm with a Some already matched above.
            _ => unreachable!("the time guards cover every live event"),
        }

        let open = gate_is_open(&set, &batcher, core.scheduler.preempt_margin, mix);
        if open && !gate_open {
            gate_since = gate_time;
        }
        gate_open = open;
    }
    debug_assert_eq!(records.len(), config.requests, "every arrival completes exactly once");

    set.persist();

    FleetResult {
        metrics: ServeMetrics::from_records(
            &records,
            dispatch.summary(),
            set.cache_report(),
            mix,
            sla_sec,
        ),
        mean_interarrival_sec: calib.mean_interarrival_sec,
        sla_sec,
        sched: set.sched_totals(),
        shared: set.shared_report(),
        router: set.router_stats(),
        per_shard_jobs,
    }
}

// ---------------------------------------------------------------------------
// The BENCH_fleet.json report.
// ---------------------------------------------------------------------------

/// Version tag of the fleet report layout. Same contract as
/// [`crate::report::SCHEMA`]: fields are only ever added, with a bump.
/// `v2` added the shared cache tier block (`shared`, `shared_balanced`);
/// `v3` added the embedded `scenario_descriptor` (and `FleetRung`'s
/// `shard_settings` became plain labels so registry-defined platforms can
/// appear next to the Table III names).
pub const FLEET_SCHEMA: &str = "magma-fleet/v3";

/// One `(scenario, shard count)` rung of the scaling ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRung {
    /// Shards in this rung.
    pub shards: usize,
    /// Per-shard platform labels (Table III names for builtin settings,
    /// platform names for registry-defined meshes).
    pub shard_settings: Vec<String>,
    /// Jobs completed (always the full trace).
    pub jobs: usize,
    /// Jobs per virtual second.
    pub jobs_per_sec: f64,
    /// Useful work per virtual second, GFLOP/s.
    pub throughput_gflops: f64,
    /// `jobs_per_sec / (the 1-shard rung's jobs_per_sec)` — the scaling
    /// headline (1.0 on the 1-shard rung itself).
    pub speedup_vs_one_shard: f64,
    /// End-to-end p50, µs of virtual time.
    pub p50_e2e_us: f64,
    /// End-to-end p95, µs.
    pub p95_e2e_us: f64,
    /// End-to-end p99, µs.
    pub p99_e2e_us: f64,
    /// Queueing (arrival → dispatch) profile, seconds.
    pub queueing: LatencyStats,
    /// End-to-end profile, seconds.
    pub end_to_end: LatencyStats,
    /// SLA violations across all tenants.
    pub sla_violations: usize,
    /// `sla_violations / jobs`.
    pub sla_violation_rate: f64,
    /// Fleet-wide cache counters (summed over shards).
    pub cache: crate::metrics::CacheReport,
    /// Shared cache tier counters — disjoint from `cache`: a tier-served
    /// dispatch is a shard miss *and* a tier hit. All zero when the tier is
    /// disabled.
    pub shared: crate::metrics::CacheReport,
    /// Fleet-wide dispatch/budget/quality summary.
    pub dispatch: crate::metrics::DispatchSummary,
    /// Sessions admitted across shards.
    pub admitted: u64,
    /// Sessions that ran to their full budget.
    pub completed: u64,
    /// Deadline preemptions (early finishes past the deadline).
    pub preempted_deadline: u64,
    /// Value preemptions (evicted for a higher-value group).
    pub preempted_value: u64,
    /// Total preemptions (both kinds).
    pub preemptions: u64,
    /// Groups admitted with their deadline already past.
    pub late_admissions: u64,
    /// Deadline-policy steps clamped to the slice floor.
    pub min_slice_clamps: u64,
    /// Groups placed by the router.
    pub placed: u64,
    /// Placements that followed signature affinity.
    pub affinity_hits: u64,
    /// Placements routed purely by load because the shared tier held the
    /// group's key.
    pub shared_balanced: u64,
    /// Jobs completed per shard.
    pub per_shard_jobs: Vec<usize>,
    /// Calibrated mean inter-arrival gap, µs of virtual time.
    pub mean_interarrival_us: f64,
    /// Per-job SLA bound, µs of virtual time.
    pub sla_us: f64,
}

/// One scenario's scaling ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenarioResult {
    /// Short stable identifier (`fleet_mix`, `deadline_pressure`).
    pub name: String,
    /// The traffic scenario simulated.
    pub scenario: Scenario,
    /// Scheduler policy in force (`uniform` / `deadline`).
    pub policy: String,
    /// Offered load relative to one reference shard.
    pub offered_load: f64,
    /// SLA tolerance factor.
    pub sla_x: f64,
    /// One rung per shard count, ascending.
    pub rungs: Vec<FleetRung>,
}

/// The full report written to `BENCH_fleet.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Schema version tag ([`FLEET_SCHEMA`]).
    pub schema: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Trace/search seed.
    pub seed: u64,
    /// Shard counts of the ladder, ascending from 1.
    pub shard_ladder: Vec<usize>,
    /// Synthetic tenants in the mix.
    pub tenants: usize,
    /// Arrivals per rung.
    pub requests: usize,
    /// Live-session capacity per shard.
    pub max_live: usize,
    /// Deadline-policy slice floor, samples.
    pub min_slice: usize,
    /// Value-preemption margin.
    pub preempt_margin: f64,
    /// What this report measured: the resolved scenario descriptor
    /// (builtin ladder parameters, or the registry definitions behind a
    /// `--scenario` run), content-hashed.
    pub scenario_descriptor: ScenarioDescriptor,
    /// One ladder per scenario.
    pub scenarios: Vec<FleetScenarioResult>,
}

impl BenchReport for FleetReport {
    const FILE: &'static str = "BENCH_fleet.json";
    const SCHEMA: &'static str = FLEET_SCHEMA;

    fn header(&self) -> (&str, &str, &ScenarioDescriptor) {
        (&self.schema, &self.mode, &self.scenario_descriptor)
    }

    fn check_body(&self) -> Result<(), String> {
        if self.scenarios.is_empty() {
            return Err("empty scenario list".into());
        }
        if self.shard_ladder.first() != Some(&1) {
            return Err("the ladder must start at 1 shard (the speedup baseline)".into());
        }
        if self.shard_ladder.windows(2).any(|w| w[0] >= w[1]) {
            return Err("the shard ladder must be strictly ascending".into());
        }
        for scenario in &self.scenarios {
            let rung_shards: Vec<usize> = scenario.rungs.iter().map(|r| r.shards).collect();
            if rung_shards != self.shard_ladder {
                return Err(format!("{}: rungs {rung_shards:?} != ladder", scenario.name));
            }
            let base = scenario.rungs[0].jobs_per_sec;
            for rung in &scenario.rungs {
                if rung.jobs != self.requests {
                    return Err(format!(
                        "{} @ {} shards: {} jobs completed of {} — arrivals lost",
                        scenario.name, rung.shards, rung.jobs, self.requests
                    ));
                }
                if rung.shard_settings.len() != rung.shards {
                    return Err(format!(
                        "{} @ {} shards: one setting per shard required",
                        scenario.name, rung.shards
                    ));
                }
                if !(rung.p50_e2e_us <= rung.p95_e2e_us && rung.p95_e2e_us <= rung.p99_e2e_us) {
                    return Err(format!(
                        "{} @ {} shards: percentiles out of order",
                        scenario.name, rung.shards
                    ));
                }
                if rung.shared_balanced > rung.placed {
                    return Err(format!(
                        "{} @ {} shards: more shared-balanced placements than placements",
                        scenario.name, rung.shards
                    ));
                }
                let tier_lookups = rung.shared.hits + rung.shared.misses;
                if tier_lookups != 0 && tier_lookups != rung.cache.misses {
                    return Err(format!(
                        "{} @ {} shards: tier lookups {} != shard misses {} — every shard \
                         miss probes the enabled tier exactly once",
                        scenario.name, rung.shards, tier_lookups, rung.cache.misses
                    ));
                }
                if rung.preemptions != rung.preempted_deadline + rung.preempted_value {
                    return Err(format!(
                        "{} @ {} shards: preemption counters inconsistent",
                        scenario.name, rung.shards
                    ));
                }
                if rung.admitted != rung.completed + rung.preemptions {
                    return Err(format!(
                        "{} @ {} shards: admitted {} != completed {} + preempted {}",
                        scenario.name, rung.shards, rung.admitted, rung.completed, rung.preemptions
                    ));
                }
                let expect = if base > 0.0 { rung.jobs_per_sec / base } else { 0.0 };
                if (rung.speedup_vs_one_shard - expect).abs() > 1e-9 * expect.max(1.0) {
                    return Err(format!(
                        "{} @ {} shards: speedup {} disagrees with the ladder",
                        scenario.name, rung.shards, rung.speedup_vs_one_shard
                    ));
                }
            }
        }
        Ok(())
    }

    /// Scaling and preemption: the widest `fleet_mix` rung out-throughputs
    /// the 1-shard rung, and `deadline_pressure` actually preempts at its
    /// widest rung.
    fn accept(&self) -> Result<String, String> {
        let ends = |name: &str| {
            let scenario = self.scenarios.iter().find(|s| s.name == name);
            scenario
                .and_then(|s| s.rungs.first().zip(s.rungs.last()))
                .ok_or_else(|| format!("no {name} ladder to judge"))
        };
        let (one, wide) = ends("fleet_mix")?;
        if wide.jobs_per_sec <= one.jobs_per_sec {
            return Err(format!(
                "fleet_mix at {} shards ({:.0} jobs/s) does not out-throughput {} shard \
                 ({:.0} jobs/s)",
                wide.shards, wide.jobs_per_sec, one.shards, one.jobs_per_sec
            ));
        }
        let (_, stressed) = ends("deadline_pressure")?;
        if stressed.preemptions == 0 {
            return Err(format!(
                "deadline_pressure preempted 0 sessions at {} shards",
                stressed.shards
            ));
        }
        Ok(format!(
            "fleet_mix {}-shard speedup {:.2}x over 1 shard; deadline_pressure preempted {} \
             sessions ({} deadline / {} value) at {} shards",
            wide.shards,
            wide.speedup_vs_one_shard,
            stressed.preemptions,
            stressed.preempted_deadline,
            stressed.preempted_value,
            stressed.shards
        ))
    }
}

/// The standard fleet scenario set.
///
/// * `fleet_mix` — the scaling headline: a large synthetic tenant mix at an
///   offered load that overloads one shard (`FleetKnobs::offered_load`),
///   under the configured policy.
/// * `deadline_pressure` — the preemption stress: 1.5× that load with the
///   SLA tolerance cut to a third and the mapper oversubscribed 1.5×
///   ([`FleetConfig::mapper_pressure`]), always under the Deadline policy
///   and with the nearest-key probe off (exact-key hits only), so live
///   sessions pile up, deadlines expire mid-search and the preemption
///   counters exercise.
pub(crate) fn fleet_scenarios(knobs: &FleetKnobs) -> Vec<(&'static str, FleetConfig)> {
    let base = |shards| FleetConfig::from_knobs(knobs, shards, Scenario::Poisson);
    let mut pressure = base(knobs.shards);
    pressure.offered_load = knobs.offered_load * 1.5;
    pressure.sla_x = knobs.serve.sla_x / 3.0;
    pressure.core.scheduler.policy = FleetPolicy::Deadline;
    pressure.mapper_pressure = 1.5;
    // The stress must actually pay for cold searches: a nearest-key hit
    // sidesteps the mapper entirely, and with the calibrated probe on (and
    // smoke-scale traces warming the cache within a few groups) no deadline
    // would ever expire mid-search. Exact-key hits stay — repeated groups
    // are part of the workload — but the probe is off here so the
    // preemption machinery is exercised regardless of how the cache
    // defaults are calibrated.
    pressure.core.dispatch.cache_epsilon = 0.0;
    vec![("fleet_mix", base(knobs.shards)), ("deadline_pressure", pressure)]
}

/// The shard-count ladder: `{1, 4}` for smoke, `{1, 2, N}` for full (always
/// starting at the 1-shard speedup baseline, deduplicated, ascending).
pub(crate) fn shard_ladder(knobs: &FleetKnobs, smoke: bool) -> Vec<usize> {
    let mut ladder = if smoke { vec![1, knobs.shards] } else { vec![1, 2, knobs.shards] };
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// Runs one scenario template over the shard ladder, each rung cycling the
/// knobs' settings list over its shard count.
fn run_scenario_ladder(
    name: &str,
    template: &FleetConfig,
    knobs: &FleetKnobs,
    ladder: &[usize],
    mix: &TenantMix,
) -> FleetScenarioResult {
    let mut rungs = Vec::with_capacity(ladder.len());
    let mut base_jobs_per_sec = 0.0f64;
    for &shards in ladder {
        // Every rung of the ladder starts cold: a persistence file would
        // leak shard caches from rung to rung and scenario to scenario,
        // invalidating the scaling comparison. Warm fleet restarts are
        // exercised by `fleet_simulate` callers and the integration suite.
        let mut config = template.clone();
        config.core.shard_settings = knobs.shard_specs(shards);
        config.core.cache_path = None;
        let result = fleet_simulate(&config, mix);
        if rungs.is_empty() {
            base_jobs_per_sec = result.metrics.jobs_per_sec;
        }
        rungs.push(rung_from_result(&config, &result, base_jobs_per_sec));
    }
    FleetScenarioResult {
        name: name.to_string(),
        scenario: template.scenario,
        policy: template.core.scheduler.policy.to_string(),
        offered_load: template.offered_load,
        sla_x: template.sla_x,
        rungs,
    }
}

/// The builtin ladder's self-describing descriptor: the knob values that
/// shape the run (the registry path embeds full definitions instead).
fn builtin_fleet_descriptor(knobs: &FleetKnobs, ladder: &[usize]) -> ScenarioDescriptor {
    let params = Value::Map(vec![
        ("ladder".into(), Value::Seq(ladder.iter().map(|&s| Value::U64(s as u64)).collect())),
        (
            "shard_settings".into(),
            Value::Seq(knobs.shard_settings.iter().map(|s| Value::Str(s.label())).collect()),
        ),
        ("tenants".into(), Value::U64(knobs.tenants as u64)),
        ("requests".into(), Value::U64(knobs.requests as u64)),
        ("offered_load".into(), Value::F64(knobs.offered_load)),
        ("policy".into(), Value::Str(knobs.policy.to_string())),
        ("max_live".into(), Value::U64(knobs.max_live as u64)),
        ("min_slice".into(), Value::U64(knobs.min_slice as u64)),
        ("preempt_margin".into(), Value::F64(knobs.preempt_margin)),
        ("seed".into(), Value::U64(knobs.serve.seed)),
        (
            "scenarios".into(),
            Value::Seq(vec![
                Value::Str("fleet_mix".into()),
                Value::Str("deadline_pressure".into()),
            ]),
        ),
    ]);
    ScenarioDescriptor::new("builtin", "fleet_ladder", params)
}

/// Runs scenario templates over the shard ladder and assembles the report —
/// shared by the builtin and registry paths, which differ only in the
/// templates, the mix and the descriptor.
fn run_ladders(
    knobs: &FleetKnobs,
    smoke: bool,
    templates: &[(&str, FleetConfig)],
    mix: &TenantMix,
    descriptor: ScenarioDescriptor,
) -> FleetReport {
    let ladder = shard_ladder(knobs, smoke);
    let scenarios = templates
        .iter()
        .map(|(name, template)| run_scenario_ladder(name, template, knobs, &ladder, mix))
        .collect();
    FleetReport {
        schema: FLEET_SCHEMA.to_string(),
        mode: mode_tag(smoke).to_string(),
        seed: knobs.serve.seed,
        scenario_descriptor: descriptor,
        shard_ladder: ladder,
        tenants: mix.tenants().len(),
        requests: knobs.requests,
        max_live: knobs.max_live,
        min_slice: knobs.min_slice,
        preempt_margin: knobs.preempt_margin,
        scenarios,
    }
}

/// Runs the fleet scenario set over the shard ladder and assembles the
/// report.
pub fn run_fleet_ladder(knobs: &FleetKnobs, smoke: bool) -> FleetReport {
    let mix = TenantMix::synthetic(knobs.tenants, knobs.serve.seed);
    let descriptor = builtin_fleet_descriptor(knobs, &shard_ladder(knobs, smoke));
    run_ladders(knobs, smoke, &fleet_scenarios(knobs), &mix, descriptor)
}

/// Runs one registry-defined scenario over the shard ladder: the trace is
/// drawn from its tenant mix and the report embeds its descriptor. `knobs`
/// are the resolved ones ([`CustomScenario::apply`]): every shard is a copy
/// of the scenario's platform, and its pinned trace length, offered load,
/// seed and serving block are already in place.
///
/// # Panics
///
/// Panics if the scenario was not resolved onto `knobs` first.
pub fn run_fleet_custom(knobs: &FleetKnobs, smoke: bool, custom: &CustomScenario) -> FleetReport {
    assert!(
        knobs.shard_settings == std::slice::from_ref(&custom.platform),
        "resolve the scenario onto the knobs first (CustomScenario::apply)"
    );
    let template = FleetConfig::from_knobs(knobs, knobs.shards, custom.scenario);
    let templates = [(custom.name.as_str(), template)];
    run_ladders(knobs, smoke, &templates, &custom.mix, custom.descriptor.clone())
}

/// Folds one run into its ladder rung.
fn rung_from_result(
    config: &FleetConfig,
    result: &FleetResult,
    base_jobs_per_sec: f64,
) -> FleetRung {
    let m = &result.metrics;
    let sla_violations: usize = m.tenants.iter().map(|t| t.sla_violations).sum();
    FleetRung {
        shards: config.core.shards(),
        shard_settings: config.core.shard_settings.iter().map(|s| s.label()).collect(),
        jobs: m.jobs,
        jobs_per_sec: m.jobs_per_sec,
        throughput_gflops: m.throughput_gflops,
        speedup_vs_one_shard: if base_jobs_per_sec > 0.0 {
            m.jobs_per_sec / base_jobs_per_sec
        } else {
            0.0
        },
        p50_e2e_us: m.end_to_end.p50_sec * 1e6,
        p95_e2e_us: m.end_to_end.p95_sec * 1e6,
        p99_e2e_us: m.end_to_end.p99_sec * 1e6,
        queueing: m.queueing,
        end_to_end: m.end_to_end,
        sla_violations,
        sla_violation_rate: if m.jobs == 0 { 0.0 } else { sla_violations as f64 / m.jobs as f64 },
        cache: m.cache,
        shared: result.shared,
        dispatch: m.dispatch,
        admitted: result.sched.admitted,
        completed: result.sched.completed,
        preempted_deadline: result.sched.preempted_deadline,
        preempted_value: result.sched.preempted_value,
        preemptions: result.sched.preemptions(),
        late_admissions: result.sched.late_admissions,
        min_slice_clamps: result.sched.min_slice_clamps,
        placed: result.router.placed,
        affinity_hits: result.router.affinity_hits,
        shared_balanced: result.router.shared_balanced,
        per_shard_jobs: result.per_shard_jobs.clone(),
        mean_interarrival_us: result.mean_interarrival_sec * 1e6,
        sla_us: result.sla_sec * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shards::shard_cache_file;

    fn tiny_knobs() -> FleetKnobs {
        FleetKnobs {
            serve: magma_platform::settings::ServeKnobs {
                requests: 48,
                group_target: 6,
                cold_budget: 40,
                refine_budget: 4,
                cache_capacity: 16,
                ..magma_platform::settings::ServeKnobs::smoke()
            },
            shards: 3,
            requests: 48,
            tenants: 12,
            offered_load: 8.0,
            max_live: 2,
            ..FleetKnobs::smoke()
        }
    }

    #[test]
    #[ignore = "manual load-curve probe"]
    fn load_probe() {
        for load in [2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let mut knobs = tiny_knobs();
            knobs.offered_load = load;
            let mix = TenantMix::synthetic(knobs.tenants, 0);
            let one = fleet_simulate(&FleetConfig::from_knobs(&knobs, 1, Scenario::Poisson), &mix);
            let three =
                fleet_simulate(&FleetConfig::from_knobs(&knobs, 3, Scenario::Poisson), &mix);
            println!(
                "load {load:5.1}: 1-shard {:9.1} jobs/s (preempt {}), 3-shard {:9.1} jobs/s (preempt {}, per-shard {:?}, interarrival {:.2e})",
                one.metrics.jobs_per_sec,
                one.sched.preemptions(),
                three.metrics.jobs_per_sec,
                three.sched.preemptions(),
                three.per_shard_jobs,
                three.mean_interarrival_sec
            );
        }
    }

    #[test]
    fn every_arrival_completes_exactly_once_across_shards() {
        let knobs = tiny_knobs();
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        let config = FleetConfig::from_knobs(&knobs, 3, Scenario::Poisson);
        let result = fleet_simulate(&config, &mix);
        assert_eq!(result.metrics.jobs, 48);
        assert_eq!(result.per_shard_jobs.iter().sum::<usize>(), 48);
        assert_eq!(result.sched.admitted, result.metrics.dispatch.dispatches as u64);
        assert_eq!(result.sched.admitted, result.sched.completed + result.sched.preemptions());
        assert_eq!(result.router.placed, result.sched.admitted);
        assert!(result.metrics.jobs_per_sec > 0.0);
    }

    #[test]
    fn fleet_simulation_is_deterministic() {
        let knobs = tiny_knobs();
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        let config = FleetConfig::from_knobs(&knobs, 2, Scenario::Bursty);
        let a = fleet_simulate(&config, &mix);
        let b = fleet_simulate(&config, &mix);
        assert_eq!(a, b);
    }

    #[test]
    fn more_shards_raise_throughput_under_overload() {
        let knobs = tiny_knobs();
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        let one = fleet_simulate(&FleetConfig::from_knobs(&knobs, 1, Scenario::Poisson), &mix);
        let three = fleet_simulate(&FleetConfig::from_knobs(&knobs, 3, Scenario::Poisson), &mix);
        assert!(
            three.metrics.jobs_per_sec > one.metrics.jobs_per_sec,
            "3 shards {} must beat 1 shard {} at 2x load",
            three.metrics.jobs_per_sec,
            one.metrics.jobs_per_sec
        );
    }

    #[test]
    fn ladder_report_validates_and_round_trips() {
        let report = run_fleet_ladder(&tiny_knobs(), true);
        report.validate().expect("a freshly assembled report must self-check");
        assert_eq!(report.shard_ladder, vec![1, 3]);
        assert_eq!(report.scenarios.len(), 2);
        let json = serde_json::to_string_pretty(&report).unwrap();
        for key in [
            "\"schema\"",
            "\"shard_ladder\"",
            "\"speedup_vs_one_shard\"",
            "\"p99_e2e_us\"",
            "\"preemptions\"",
            "\"preempted_deadline\"",
            "\"preempted_value\"",
            "\"late_admissions\"",
            "\"min_slice_clamps\"",
            "\"affinity_hits\"",
            "\"shared_balanced\"",
            "\"shared\"",
            "\"per_shard_jobs\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // A tampered report fails the self-check.
        let mut bad = report.clone();
        bad.scenarios[0].rungs[1].speedup_vs_one_shard *= 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn the_shared_tier_serves_cross_shard_repeats() {
        let knobs = tiny_knobs();
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        let tiered_config = FleetConfig::from_knobs(&knobs, 3, Scenario::Poisson);
        assert!(tiered_config.core.shared_cache_capacity > 0, "smoke knobs enable the tier");
        let mut solo_config = tiered_config.clone();
        solo_config.core.shared_cache_capacity = 0;
        let tiered = fleet_simulate(&tiered_config, &mix);
        let solo = fleet_simulate(&solo_config, &mix);
        assert!(
            tiered.shared.hits > 0,
            "repeated signatures across shards must hit the tier: {:?}",
            tiered.shared
        );
        assert_eq!(solo.shared, CacheReport::default(), "a disabled tier reports zeros");
        // A tier lookup happens on every shard miss and nowhere else.
        assert_eq!(tiered.shared.hits + tiered.shared.misses, tiered.metrics.cache.misses);
        // Cold searches (misses everywhere) can only go down with the tier.
        assert!(tiered.shared.misses <= solo.metrics.cache.misses);
    }

    #[test]
    fn a_persisted_fleet_restarts_warm() {
        let knobs = tiny_knobs();
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        let base = std::env::temp_dir().join(format!("magma_fleet_cache_{}", std::process::id()));
        let shards = 2;
        let mut config = FleetConfig::from_knobs(&knobs, shards, Scenario::Poisson);
        config.core.cache_path = Some(base.clone());
        for i in 0..shards {
            let _ = std::fs::remove_file(shard_cache_file(&base, i));
        }
        let cold = fleet_simulate(&config, &mix);
        let warm = fleet_simulate(&config, &mix);
        for i in 0..shards {
            let file = shard_cache_file(&base, i);
            assert!(file.exists(), "every shard persists its cache");
            let _ = std::fs::remove_file(file);
        }
        assert!(
            warm.metrics.cache.hit_rate > cold.metrics.cache.hit_rate,
            "a restart from persisted caches must hit more: warm {} vs cold {}",
            warm.metrics.cache.hit_rate,
            cold.metrics.cache.hit_rate
        );
        assert_eq!(warm.metrics.jobs, cold.metrics.jobs);
    }

    #[test]
    fn corrupt_shard_cache_files_come_up_cold() {
        let knobs = tiny_knobs();
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        crate::shards::tests::corrupt_cache_files_come_up_cold("fleet", |cache_path| {
            let mut config = FleetConfig::from_knobs(&knobs, 2, Scenario::Poisson);
            config.core.cache_path = cache_path;
            fleet_simulate(&config, &mix)
        });
    }

    #[test]
    fn deadline_pressure_scenario_preempts() {
        let knobs = tiny_knobs();
        let (_, mut pressure) =
            fleet_scenarios(&knobs).into_iter().find(|(n, _)| *n == "deadline_pressure").unwrap();
        // Preemption needs the mapper backlog to outgrow the SLA, which
        // takes tens of groups — give the stress a longer trace than the
        // other tiny tests use.
        pressure.requests = 240;
        let mix = TenantMix::synthetic(knobs.tenants, 0);
        let result = fleet_simulate(&pressure, &mix);
        assert!(
            result.sched.preemptions() > 0,
            "an oversubscribed mapper with tight SLAs must expire deadlines mid-search: {:?}",
            result.sched
        );
        assert_eq!(result.metrics.jobs, 240, "preempted groups still complete");
    }
}
