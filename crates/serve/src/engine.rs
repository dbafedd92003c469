//! The wall-clock serving engine: the shard core driven by real time
//! instead of the virtual event loop.
//!
//! The simulator ([`crate::fleet`]) owns its clock: it synthesizes a trace
//! up front and processes arrival/cut/step events in virtual-time order. A
//! *server* cannot — requests arrive over a socket whenever clients send
//! them. [`ServeEngine`] is the piece in between: the same shard core (an
//! [`AdmissionBatcher`] feeding the router, per-shard schedulers and
//! caches, and the optional shared tier the simulator runs on), but every
//! entry point takes the caller's `now_sec`. The daemon (`magma-server`)
//! feeds it `Instant`-derived seconds; tests feed it synthetic time, which
//! keeps the engine deterministic and clock-free to test.
//!
//! ```text
//!  submit(now, …) ─▶ AdmissionBatcher ─┐
//!                                      │ poll(now): cut ready groups,
//!                                      ▼ one scheduler step per shard
//!                        ShardRouter ──▶ shard 0..N: scheduler ⇄ cache ⇄ accel
//!                                      │
//!                                      └──▶ Vec<JobCompletion> (token-tagged)
//! ```
//!
//! The engine never sleeps or reads a clock; instead
//! [`ServeEngine::next_wake`] tells its driver when the next `poll` is due
//! (now, at a partial group's admission deadline, or not until the next
//! submit), so the driver can block exactly that long.
//!
//! Three server-specific behaviours sit on top of the shard core:
//!
//! * **Admission control** — [`ServeEngine::submit`] rejects with
//!   [`Admission::Busy`] (and a retry-after hint) when the projected mapper
//!   backlog — the same seconds-denominated load measure the router places
//!   by, plus the cost of everything still queued in the batcher — exceeds
//!   `max_backlog_sec`, or when the bounded admission queue
//!   (`pending_per_shard × shards` groups) is full. A submission larger
//!   than that whole queue could never get in: it is [`Admission::Invalid`].
//! * **Timeouts** — every admitted group carries a deadline of
//!   `admission + timeout_sec`; under the Deadline policy an expired
//!   session is early-finished by the scheduler (a usable mapping built
//!   from the samples already evaluated — never a discard) and its
//!   completions are flagged `timed_out`.
//! * **Cancellation** — [`ServeEngine::cancel`] marks a token cancelled;
//!   a live session whose jobs are all cancelled is removed immediately
//!   (finished into the cache when it has evaluated samples, dropped
//!   outright when it has not) — also a group cut with every token already
//!   cancelled, which is never searched — and completions of cancelled
//!   tokens are flagged so the transport can suppress them.
//!
//! An [`EngineConfig`] is the shard core's [`ShardConfig`] (its `core`
//! field, built by the same [`ShardConfig::from_knobs`] as the fleet's,
//! with value preemption off) plus these server-side settings.
//!
//! [`ServeEngine::drain`] closes the lifecycle: admissions stop, every
//! queued group is force-cut and every live session run to completion, and
//! the per-shard mapping caches are persisted to `<cache_path>.shard<i>`
//! (the same files the simulators use), so a drained server restarts warm.
//!
//! Determinism: given the same sequence of `submit`/`cancel`/`poll`/`drain`
//! calls (same arguments, same `now_sec` values), the engine's completions
//! and stats are bit-identical — searches are seeded per admission, and
//! every internal iteration runs in session-id order, never hash order.

use crate::batcher::{AdmissionBatcher, BatchPolicy};
use crate::dispatch::DispatchKind;
use crate::scheduler::LiveSession;
use crate::shards::{ShardConfig, ShardSet};
use crate::trace::Arrival;
use magma_model::{Job, TenantMix};
use magma_platform::settings::ServerKnobs;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// The full parameter set of a wall-clock engine, derived from the knob
/// nest by [`EngineConfig::from_knobs`]: the shard core plus the engine's
/// batching, backpressure and timeout settings.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The shard core (platforms, dispatch, shared tier, persistence,
    /// scheduler). Timeouts only preempt under
    /// [`FleetPolicy::Deadline`](magma_platform::settings::FleetPolicy::Deadline);
    /// the scheduler's per-sample overhead also prices the backlog
    /// projection.
    pub core: ShardConfig,
    /// Dispatch-group size target.
    pub group_target: usize,
    /// Admission deadline of a partial group, in wall-clock seconds.
    pub max_wait_sec: f64,
    /// Backpressure knob: reject submissions once the projected mapper
    /// backlog exceeds this many seconds.
    pub max_backlog_sec: f64,
    /// Bounded admission queue: at most `pending_per_shard × shards` groups
    /// worth of jobs may wait in the batcher.
    pub pending_per_shard: usize,
    /// Session timeout: an admitted group's deadline is its admission time
    /// plus this, in wall-clock seconds.
    pub timeout_sec: f64,
    /// Search seed (per-admission seeds derive from it).
    pub seed: u64,
}

impl EngineConfig {
    /// Builds a config from the server knobs (which embed the fleet and
    /// serving knobs). The batcher's admission deadline is
    /// expressed in wall-clock terms by pricing one batch window at the
    /// server's target rate: `max_wait_x × group_target / rate` seconds.
    pub fn from_knobs(knobs: &ServerKnobs) -> Self {
        let fleet = &knobs.fleet;
        let serve = &fleet.serve;
        let mut core = ShardConfig::from_knobs(fleet, fleet.shards);
        // Admission control replaces value preemption on the server path:
        // overload is shed at the socket (`Busy`), not by evicting work that
        // was already accepted.
        core.scheduler.preempt_margin = 0.0;
        EngineConfig {
            core,
            group_target: serve.group_target,
            max_wait_sec: serve.max_wait_x * serve.group_target as f64 / knobs.rate,
            max_backlog_sec: knobs.max_backlog_sec,
            pending_per_shard: knobs.pending_per_shard,
            timeout_sec: knobs.timeout_sec,
            seed: serve.seed,
        }
    }
}

/// The verdict of one [`ServeEngine::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The jobs joined the admission queue.
    Accepted,
    /// Backpressure: the projected backlog exceeds the knob (or the
    /// admission queue is full). Retry after the hinted delay.
    Busy {
        /// Seconds after which the backlog is projected back under the
        /// knob — a hint, not a promise.
        retry_after_sec: f64,
    },
    /// The engine is draining; no new work is admitted.
    Draining,
    /// The request itself was malformed (empty job list, unknown tenant,
    /// reused token, more jobs than the admission queue holds).
    Invalid {
        /// What was wrong with it.
        reason: String,
    },
}

/// One finished job, tagged with the submission token the transport layer
/// routes completions by.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCompletion {
    /// The caller's token from [`ServeEngine::submit`].
    pub token: u64,
    /// The job's index within its submission (0-based).
    pub job_index: usize,
    /// The tenant the job was submitted under.
    pub tenant: usize,
    /// The shard that served it.
    pub shard: usize,
    /// How the dispatch was served (cold search vs cache hit).
    pub kind: DispatchKind,
    /// True when the session was early-finished past its timeout deadline.
    pub timed_out: bool,
    /// True when the token was cancelled before this job completed — the
    /// transport suppresses the completion (the cancel was already acked).
    pub cancelled: bool,
    /// Wall-clock completion time (execution end on the shard's virtual
    /// accelerator timeline), in the caller's `now_sec` domain.
    pub completed_sec: f64,
}

/// The mapper work an engine has done since it was created — cumulative, so
/// a driver that budgets the mapper (the daemon's admission pace) charges
/// the difference between two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperWork {
    /// Groups cut, planned and handed to a shard.
    pub groups: u64,
    /// Search samples evaluated.
    pub samples: u64,
}

/// A point-in-time counter snapshot of the engine — the `Stats` RPC payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Submissions accepted into the admission queue.
    pub accepted: u64,
    /// Submissions rejected with [`Admission::Busy`].
    pub rejected: u64,
    /// Cancel calls acknowledged (token known and still open).
    pub cancelled: u64,
    /// Jobs completed and reported (cancelled jobs not included).
    pub completed_jobs: u64,
    /// Completed jobs whose session was early-finished past its timeout.
    pub timed_out_jobs: u64,
    /// Jobs of cancelled tokens (reported-but-suppressed and dropped alike).
    pub cancelled_jobs: u64,
    /// Jobs currently waiting in the admission queue.
    pub queued_jobs: u64,
    /// Live search sessions across shards.
    pub live_sessions: u64,
    /// Sessions admitted to shard schedulers.
    pub admitted_sessions: u64,
    /// Sessions that ran to their full budget.
    pub completed_sessions: u64,
    /// Sessions early-finished by the scheduler (timeout preemptions).
    pub preempted_sessions: u64,
    /// Shard-cache hits (exact + near).
    pub cache_hits: u64,
    /// Near-key shard-cache hits (subset of `cache_hits`).
    pub cache_near_hits: u64,
    /// Shard-cache misses (cold searches).
    pub cache_misses: u64,
}

/// The token tag of one queued/live job, aligned with its group's arrival
/// order.
#[derive(Debug, Clone, Copy)]
struct JobTag {
    token: u64,
    job_index: usize,
}

/// Where a live session's jobs came from.
struct SessionTags {
    shard: usize,
    tags: Vec<JobTag>,
}

/// The wall-clock serving engine. See the module docs for the lifecycle.
pub struct ServeEngine {
    config: EngineConfig,
    mix: TenantMix,
    batcher: AdmissionBatcher,
    /// Token tags parallel to the batcher's FIFO queue: `take_group` removes
    /// the oldest `n` arrivals, so the first `n` tags here are theirs.
    pending_tags: VecDeque<JobTag>,
    /// The shards; their accelerator timelines run in wall-clock seconds.
    shards: ShardSet,
    /// Live sessions' tags by session id — ordered, so every walk over the
    /// live set is in admission order whatever the hasher says.
    session_tags: BTreeMap<u64, SessionTags>,
    /// Remaining job count per open token.
    open_tokens: HashMap<u64, usize>,
    cancelled: HashSet<u64>,
    /// Completions produced since the last `poll`/`drain` returned.
    out: Vec<JobCompletion>,
    /// Monotonic clamp over caller-supplied time.
    last_now: f64,
    draining: bool,
    /// The engine's own counters; [`ServeEngine::stats`] fills in the rest.
    counters: EngineStats,
    work: MapperWork,
}

impl ServeEngine {
    /// Creates an engine and warm-restarts each shard's mapping cache from
    /// `<cache_path>.shard<i>` when the file exists (an unreadable file is
    /// reported and that shard comes up cold — same contract as the fleet).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (no shards, zero group target, a
    /// non-positive timeout or backlog knob).
    pub fn new(config: EngineConfig, mix: TenantMix) -> Self {
        assert!(config.core.shards() > 0, "an engine needs at least one shard");
        assert!(config.group_target > 0, "the group target must be non-zero");
        assert!(config.timeout_sec > 0.0, "the session timeout must be positive");
        assert!(config.max_backlog_sec > 0.0, "the backlog knob must be positive");
        assert!(config.pending_per_shard > 0, "the admission queue needs capacity");
        let shards = ShardSet::new(&config.core, config.seed);
        let batcher = AdmissionBatcher::new(BatchPolicy::new(
            config.group_target,
            config.max_wait_sec.max(0.0),
        ));
        ServeEngine {
            mix,
            batcher,
            pending_tags: VecDeque::new(),
            shards,
            session_tags: BTreeMap::new(),
            open_tokens: HashMap::new(),
            cancelled: HashSet::new(),
            out: Vec::new(),
            last_now: 0.0,
            draining: false,
            counters: EngineStats::default(),
            work: MapperWork::default(),
            config,
        }
    }

    /// The projected mapper backlog at `now_sec`, in seconds: the least
    /// loaded shard's router load measure (queued mapper work plus how far
    /// its accelerator timeline runs past now) plus the search cost of
    /// everything still waiting in the admission queue, spread over the
    /// shards. This is what [`ServeEngine::submit`] compares against
    /// `max_backlog_sec`.
    pub(crate) fn projected_backlog_sec(&self, now_sec: f64) -> f64 {
        let now = now_sec.max(self.last_now);
        let shards = self.shards.len();
        let min_load = (0..shards).map(|s| self.shards.load(s, now)).fold(f64::INFINITY, f64::min);
        let queued_groups = self.batcher.pending() as f64 / self.config.group_target as f64;
        let queued_cost = queued_groups
            * self.config.core.dispatch.cold_budget as f64
            * self.config.core.scheduler.overhead_sec_per_sample
            / shards as f64;
        min_load + queued_cost
    }

    /// Submits one group of jobs under `token` (the transport's correlation
    /// id; must be unique per open submission) for `tenant`. The jobs join
    /// the admission queue and will be batched, routed and searched by
    /// subsequent [`ServeEngine::poll`] calls; their completions carry the
    /// token back.
    pub fn submit(&mut self, now_sec: f64, token: u64, tenant: usize, jobs: Vec<Job>) -> Admission {
        let now = self.clamp_now(now_sec);
        if self.draining {
            return Admission::Draining;
        }
        if jobs.is_empty() {
            return Admission::Invalid { reason: "a submission needs at least one job".into() };
        }
        if tenant >= self.mix.tenants().len() {
            return Admission::Invalid {
                reason: format!(
                    "tenant {tenant} out of range (the mix has {} tenants)",
                    self.mix.tenants().len()
                ),
            };
        }
        if self.open_tokens.contains_key(&token) {
            return Admission::Invalid { reason: format!("token {token} is already open") };
        }
        // A group larger than the whole queue would be bounced for ever.
        let queue_cap =
            self.config.pending_per_shard * self.shards.len() * self.config.group_target;
        if jobs.len() > queue_cap {
            return Admission::Invalid {
                reason: format!(
                    "{} jobs exceed the admission queue's {queue_cap} in one submission",
                    jobs.len()
                ),
            };
        }
        // Backpressure: the bounded queue is full, or the projected backlog
        // is over the knob. The hint is how long the backlog is projected to
        // need to fall back under it, floored at 1 ms.
        let projected = self.projected_backlog_sec(now);
        if self.batcher.pending() + jobs.len() > queue_cap
            || projected > self.config.max_backlog_sec
        {
            self.counters.rejected += 1;
            return Admission::Busy {
                retry_after_sec: (projected - self.config.max_backlog_sec).max(1e-3),
            };
        }
        let n = jobs.len();
        for (job_index, job) in jobs.into_iter().enumerate() {
            self.batcher.push(Arrival { time_sec: now, tenant, job });
            self.pending_tags.push_back(JobTag { token, job_index });
        }
        self.open_tokens.insert(token, n);
        self.counters.accepted += 1;
        Admission::Accepted
    }

    /// Cancels an open token. Returns `false` when the token is unknown,
    /// already finished or already cancelled. Jobs of the token still
    /// produce [`JobCompletion`]s (flagged `cancelled`) so the transport
    /// can close its books; a live session whose jobs are *all* cancelled
    /// is removed immediately — finished into the cache when it has
    /// evaluated samples (the mapping is still worth keeping), dropped
    /// outright when it has not (an empty history cannot be finished). A
    /// token still in the admission queue is only flagged: the poll that cuts
    /// its group drops it the same way if nobody else is in it.
    pub fn cancel(&mut self, now_sec: f64, token: u64) -> bool {
        let now = self.clamp_now(now_sec);
        if !self.open_tokens.contains_key(&token) || !self.cancelled.insert(token) {
            return false;
        }
        self.counters.cancelled += 1;
        // Early-finish every live session wholly made of cancelled tokens,
        // in ascending session id: the completion order feeds the shard's
        // accelerator timeline and the cache's insertion order.
        let doomed: Vec<(u64, usize)> = self
            .session_tags
            .iter()
            .filter(|(_, st)| st.tags.iter().all(|t| self.cancelled.contains(&t.token)))
            .map(|(&id, st)| (id, st.shard))
            .collect();
        for (id, shard) in doomed {
            self.end_cancelled_session(id, shard, now);
        }
        true
    }

    /// Advances the engine at `now_sec`: cuts every ready group the shards
    /// have room for (routing, planning and opening its search), runs one
    /// scheduler step per shard with live sessions — this is where search
    /// compute actually burns CPU — and returns the completions produced
    /// since the last call.
    ///
    /// One call is one scheduler slice per shard, so it is also the
    /// engine's preemption granularity: a driver that applies `cancel` /
    /// `stats` / `drain` between two polls is never more than one slice
    /// late. How soon to call again is [`ServeEngine::next_wake`]'s answer —
    /// polling an engine before the time it reports, or one that reports
    /// none, is harmless but does nothing.
    pub fn poll(&mut self, now_sec: f64) -> Vec<JobCompletion> {
        let now = self.clamp_now(now_sec);
        while self.batcher.earliest_ready().is_some_and(|r| r <= now) && self.shards.has_room() {
            self.cut_group(now);
        }
        self.step_shards(now);
        std::mem::take(&mut self.out)
    }

    /// When the next [`ServeEngine::poll`] is due, as seen at `now_sec` —
    /// read-only, so a driver can ask between any two calls:
    ///
    /// * `Some(now_sec)` while any search is live (every poll advances one
    ///   slice per shard), while a group is ready to cut and a shard has
    ///   room for it, or while completions a `cancel` synthesized are
    ///   waiting to be collected;
    /// * `Some(ready)`, the batcher's `earliest_ready`, when all that is
    ///   left is a partial group waiting out `max_wait_sec`;
    /// * `None` when the queue is empty and nothing is live — only a
    ///   `submit` can change that.
    ///
    /// Session timeouts need no wake-up of their own: they preempt live
    /// sessions, and a live session already means a poll now.
    pub fn next_wake(&self, now_sec: f64) -> Option<f64> {
        if self.shards.live_total() > 0 || !self.out.is_empty() {
            return Some(now_sec);
        }
        // Nothing is live, so every shard has room for a ready group.
        let now = now_sec.max(self.last_now);
        self.batcher.earliest_ready().map(|ready| if ready > now { ready } else { now_sec })
    }

    /// Stops admissions and runs everything to completion: every queued
    /// group is force-cut (the batcher's deadline path), every live session
    /// stepped until it finishes, and the shard caches persisted to
    /// `<cache_path>.shard<i>`. Returns the completions produced. After
    /// `drain` the engine is empty; further submissions return
    /// [`Admission::Draining`].
    pub fn drain(&mut self, now_sec: f64) -> Vec<JobCompletion> {
        let now = self.clamp_now(now_sec);
        self.draining = true;
        loop {
            // Cut whatever the shards have room for; force the deadline
            // path by cutting at the group's own ready time when it lies
            // beyond `now`.
            while let Some(ready) = self.batcher.earliest_ready() {
                if !self.shards.has_room() {
                    break;
                }
                self.cut_group(now.max(ready));
            }
            if self.shards.live_total() == 0 {
                // With nothing live every shard has room, so the cut loop
                // above emptied the queue.
                break;
            }
            self.step_shards(now);
        }
        self.shards.persist();
        std::mem::take(&mut self.out)
    }

    /// A counter snapshot (the `Stats` RPC payload).
    pub fn stats(&self) -> EngineStats {
        let cache = self.shards.cache_report();
        let sched = self.shards.sched_totals();
        EngineStats {
            queued_jobs: self.batcher.pending() as u64,
            live_sessions: self.shards.live_total() as u64,
            admitted_sessions: sched.admitted,
            completed_sessions: sched.completed,
            preempted_sessions: sched.preemptions(),
            cache_hits: cache.hits,
            cache_near_hits: cache.near_hits,
            cache_misses: cache.misses,
            ..self.counters
        }
    }

    /// The mapper work done so far: groups cut and samples evaluated.
    pub fn mapper_work(&self) -> MapperWork {
        self.work
    }

    /// Clamps caller time onto the engine's monotonic clock.
    fn clamp_now(&mut self, now_sec: f64) -> f64 {
        assert!(now_sec.is_finite(), "time must be finite");
        self.last_now = self.last_now.max(now_sec);
        self.last_now
    }

    /// Cuts the next group at `t` and admits it to a shard. Callers verified
    /// readiness and room.
    fn cut_group(&mut self, t: f64) {
        let group = self.batcher.take_group(t).expect("readiness verified");
        let tags: Vec<JobTag> = self.pending_tags.drain(..group.arrivals.len()).collect();
        // The server deadline is the session timeout, not an SLA bound: the
        // earliest arrival's admission time plus the knob.
        let deadline_sec = group
            .arrivals
            .iter()
            .map(|a| a.time_sec + self.config.timeout_sec)
            .fold(f64::INFINITY, f64::min);
        let (id, shard) = self.shards.admit(group, t, deadline_sec, &self.mix);
        // Cancelled to the last token while it waited to be cut: nobody is
        // left to search for.
        let for_nobody = tags.iter().all(|tag| self.cancelled.contains(&tag.token));
        self.session_tags.insert(id, SessionTags { shard, tags });
        self.work.groups += 1;
        if for_nobody {
            self.end_cancelled_session(id, shard, t);
        }
    }

    /// Removes a live session wholly made of cancelled tokens: finished into
    /// the cache when it has evaluated samples, dropped outright when it has
    /// not, its jobs completed as cancelled either way.
    fn end_cancelled_session(&mut self, id: u64, shard: usize, now: f64) {
        let Some(session) = self.shards.sched(shard).remove_by_id(id) else { return };
        if session.spent() > 0 {
            self.complete(session, shard, now, false);
        } else {
            // Nothing evaluated: no outcome to build, drop the session
            // and synthesize cancelled completions directly.
            self.shards.discard(&session, shard);
            let tags = self.session_tags.remove(&id).expect("tags tracked per session");
            let kind = session.plan.kind();
            for (a, tag) in session.group.arrivals.iter().zip(tags.tags) {
                self.push_completion(JobCompletion {
                    token: tag.token,
                    job_index: tag.job_index,
                    tenant: a.tenant,
                    shard,
                    kind,
                    timed_out: false,
                    cancelled: true,
                    completed_sec: now,
                });
            }
        }
    }

    /// Runs one scheduler step on every shard with live sessions — this is
    /// where search compute actually burns CPU — completing what finishes.
    fn step_shards(&mut self, now: f64) {
        for shard in 0..self.shards.len() {
            let (spent, departed) = self.shards.step(shard, now);
            self.work.samples += spent as u64;
            if let Some((session, preempted)) = departed {
                self.complete(session, shard, now, preempted);
            }
        }
    }

    /// Completes a departed session on its shard (cache, shared tier,
    /// accelerator timeline) and emits one tagged completion per job.
    fn complete(&mut self, session: LiveSession, shard: usize, now_sec: f64, timed_out: bool) {
        let tags = self.session_tags.remove(&session.id).expect("tags tracked per session");
        debug_assert_eq!(tags.shard, shard, "a session completes on its own shard");
        let done = self.shards.complete(session, shard, now_sec);
        for ((a, tag), &completed_sec) in
            done.group.arrivals.iter().zip(tags.tags).zip(&done.end_sec)
        {
            let cancelled = self.cancelled.contains(&tag.token);
            self.push_completion(JobCompletion {
                token: tag.token,
                job_index: tag.job_index,
                tenant: a.tenant,
                shard,
                kind: done.outcome.kind,
                timed_out: timed_out && !cancelled,
                cancelled,
                completed_sec,
            });
        }
    }

    /// Books one completion: counters, open-token bookkeeping, out buffer.
    fn push_completion(&mut self, completion: JobCompletion) {
        if completion.cancelled {
            self.counters.cancelled_jobs += 1;
        } else {
            self.counters.completed_jobs += 1;
            if completion.timed_out {
                self.counters.timed_out_jobs += 1;
            }
        }
        if let Some(remaining) = self.open_tokens.get_mut(&completion.token) {
            *remaining -= 1;
            if *remaining == 0 {
                // The token is closed: it may be submitted again, and a
                // cancellation does not outlive the submission it was for.
                self.open_tokens.remove(&completion.token);
                self.cancelled.remove(&completion.token);
            }
        }
        self.out.push(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shards::shard_cache_file;
    use magma_model::{JobId, LayerShape, TaskType};
    use magma_platform::settings::FleetPolicy;

    fn tiny_knobs() -> ServerKnobs {
        let mut knobs = ServerKnobs::smoke();
        knobs.fleet.serve.cold_budget = 40;
        knobs.fleet.serve.refine_budget = 4;
        knobs.fleet.serve.group_target = 4;
        knobs.fleet.serve.max_wait_x = 1.0;
        knobs.fleet.shards = 2;
        knobs.fleet.max_live = 2;
        knobs.rate = 100.0;
        knobs
    }

    fn job(i: usize) -> Job {
        Job::new(
            JobId(i),
            "m",
            0,
            LayerShape::FullyConnected { out_features: 64 + (i % 3) * 32, in_features: 64 },
            4,
            TaskType::Recommendation,
        )
    }

    fn mix(tenants: usize) -> TenantMix {
        TenantMix::synthetic(tenants, 0)
    }

    fn run_until_idle(engine: &mut ServeEngine, mut now: f64) -> Vec<JobCompletion> {
        let mut all = Vec::new();
        for _ in 0..10_000 {
            all.extend(engine.poll(now));
            now += 0.01;
            if engine.stats().live_sessions == 0 && engine.stats().queued_jobs == 0 {
                break;
            }
        }
        all.extend(engine.poll(now));
        all
    }

    #[test]
    fn the_engine_runs_the_fleets_shard_core_without_value_preemption() {
        let mut knobs = ServerKnobs::smoke();
        knobs.fleet.serve.cache_path = Some("cores".into());
        let fleet = crate::fleet::FleetConfig::from_knobs(
            &knobs.fleet,
            knobs.fleet.shards,
            crate::trace::Scenario::Poisson,
        );
        assert!(fleet.core.scheduler.preempt_margin > 0.0, "the knobs value-preempt");
        let mut core = EngineConfig::from_knobs(&knobs).core;
        assert_eq!(core.scheduler.preempt_margin, 0.0, "overload is shed at the socket");
        core.scheduler.preempt_margin = fleet.core.scheduler.preempt_margin;
        assert_eq!(core, fleet.core);
    }

    #[test]
    fn every_submitted_job_completes_exactly_once() {
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&tiny_knobs()), mix(4));
        for t in 0..6 {
            let jobs = vec![job(t), job(t + 1)];
            assert_eq!(engine.submit(t as f64 * 0.001, t as u64, t % 4, jobs), Admission::Accepted);
        }
        let completions = run_until_idle(&mut engine, 0.01);
        assert_eq!(completions.len(), 12, "two jobs per token, six tokens");
        let mut seen = HashSet::new();
        for c in &completions {
            assert!(seen.insert((c.token, c.job_index)), "duplicate completion {c:?}");
            assert!(!c.cancelled);
        }
        let stats = engine.stats();
        assert_eq!(stats.accepted, 6);
        assert_eq!(stats.completed_jobs, 12);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queued_jobs, 0);
        assert_eq!(stats.live_sessions, 0);
        assert_eq!(stats.admitted_sessions, stats.completed_sessions + stats.preempted_sessions);
        // The work counters saw every group cut and every sample searched.
        let work = engine.mapper_work();
        assert_eq!(work.groups, stats.admitted_sessions);
        assert!(work.samples > 0 && work.samples <= work.groups * 40, "{work:?}");
    }

    #[test]
    fn the_engine_is_deterministic() {
        let run = || {
            let mut engine = ServeEngine::new(EngineConfig::from_knobs(&tiny_knobs()), mix(4));
            for t in 0..8 {
                let _ = engine.submit(t as f64 * 0.002, t as u64, t % 4, vec![job(t)]);
            }
            let mut completions = run_until_idle(&mut engine, 0.02);
            completions.extend(engine.drain(1.0));
            (completions, engine.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cancelling_a_token_spanning_several_live_sessions_is_deterministic() {
        // One 16-job token at a group target of 4 becomes four live
        // sessions on one shard; cancelling it early-finishes all four, and
        // the order they finish in decides the shard's accelerator timeline
        // (`completed_sec`) and the cache's insertion order.
        let run = || {
            let mut knobs = tiny_knobs();
            knobs.fleet.shards = 1;
            knobs.fleet.max_live = 4;
            // Round-robin, so the four polls below start all four searches.
            knobs.fleet.policy = FleetPolicy::Uniform;
            let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
            assert_eq!(engine.submit(0.0, 7, 0, (0..16).map(job).collect()), Admission::Accepted);
            let mut completions = Vec::new();
            for k in 1..=4 {
                completions.extend(engine.poll(k as f64 * 0.001));
            }
            assert_eq!(engine.stats().live_sessions, 4, "every session is mid-search");
            assert!(engine.cancel(0.005, 7));
            completions.extend(engine.poll(0.006));
            assert_eq!(completions.len(), 16);
            (completions, engine.stats())
        };
        let first = run();
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn next_wake_names_the_earliest_time_a_poll_does_work() {
        // group_target 4, max_wait 4 / 100/s = 40 ms, cold budget 40.
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&tiny_knobs()), mix(4));
        let max_wait = engine.config.max_wait_sec;
        assert_eq!(engine.next_wake(0.0), None, "an empty engine waits for a submit");

        // A partial group waits out its admission deadline, and a poll at
        // that very time cuts it.
        assert_eq!(engine.submit(1.0, 0, 0, vec![job(0)]), Admission::Accepted);
        assert_eq!(engine.next_wake(1.0), Some(1.0 + max_wait));
        assert!(engine.poll(1.0 + max_wait / 2.0).is_empty());
        assert_eq!(engine.stats().live_sessions, 0, "a poll before the deadline cuts nothing");
        assert_eq!(engine.next_wake(1.0 + max_wait / 2.0), Some(1.0 + max_wait));
        assert_eq!(
            engine.next_wake(1.0 + max_wait),
            Some(1.0 + max_wait),
            "ready, and every shard has room"
        );
        let mut completions = engine.poll(1.0 + max_wait);
        assert_eq!(engine.stats().admitted_sessions, 1, "the deadline path cut the partial group");

        // Live sessions mean `Now` until the last one completes.
        let mut now = 1.0 + max_wait;
        while engine.stats().live_sessions > 0 {
            assert_eq!(engine.next_wake(now), Some(now));
            now += 1e-3;
            completions.extend(engine.poll(now));
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(engine.next_wake(now), None);

        // A full group is ready on arrival.
        for t in 1..=4 {
            assert_eq!(engine.submit(now, t, 0, vec![job(t as usize)]), Admission::Accepted);
        }
        assert_eq!(engine.next_wake(now), Some(now));

        // After a drain nothing is ever due again.
        assert_eq!(engine.drain(now).len(), 4);
        assert_eq!(engine.next_wake(now), None);
        assert_eq!(engine.next_wake(now + 1e6), None);
    }

    #[test]
    fn completions_a_cancel_synthesizes_are_due_now() {
        // One shard, round-robin, a slice as long as the budget: the first
        // poll cuts both one-job groups and runs the first to completion,
        // leaving the second live with nothing evaluated.
        let mut knobs = tiny_knobs();
        knobs.fleet.serve.group_target = 1;
        knobs.fleet.serve.search_slice = knobs.fleet.serve.cold_budget;
        knobs.fleet.shards = 1;
        knobs.fleet.policy = FleetPolicy::Uniform;
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        for t in 0..2 {
            assert_eq!(engine.submit(0.0, t, 0, vec![job(t as usize)]), Admission::Accepted);
        }
        assert_eq!(engine.poll(0.0).len(), 1);
        assert_eq!(engine.stats().live_sessions, 1);
        // Cancelling it drops the session outright: nothing is live or
        // queued any more, but its completion still has to be collected.
        assert!(engine.cancel(0.0, 1));
        assert_eq!(engine.stats().live_sessions, 0);
        assert_eq!(engine.next_wake(0.0), Some(0.0));
        let cancelled = engine.poll(0.0);
        assert_eq!(cancelled.len(), 1);
        assert!(cancelled[0].cancelled);
        assert_eq!(engine.next_wake(0.0), None);
    }

    #[test]
    fn a_group_cancelled_before_it_is_cut_is_never_searched() {
        // The cancel overtakes the poll that cuts the group — what a client
        // cancelling or hanging up right after `accepted` does. A budget of
        // years: searched for nobody, neither poll nor drain would return.
        let mut knobs = tiny_knobs();
        knobs.fleet.serve.group_target = 1;
        knobs.fleet.serve.cold_budget = 1 << 50;
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        assert_eq!(engine.submit(0.0, 1, 0, vec![job(1)]), Admission::Accepted);
        assert!(engine.cancel(0.0, 1));
        assert_eq!(engine.stats().queued_jobs, 1, "only flagged so far");
        let cancelled = engine.poll(0.0);
        assert!(matches!(cancelled[..], [JobCompletion { token: 1, cancelled: true, .. }]));
        assert_eq!(engine.next_wake(0.0), None);

        // A group somebody still waits for is searched for them, and drain
        // cuts and drops the other kind like poll does.
        knobs.fleet.serve.group_target = 2;
        knobs.fleet.serve.cold_budget = 40;
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        for t in 0..3 {
            assert_eq!(engine.submit(0.0, t, 0, vec![job(t as usize)]), Admission::Accepted);
        }
        assert!(engine.cancel(0.0, 0) && engine.cancel(0.0, 2));
        let done = engine.drain(0.0);
        // Token 2's group is dropped as it is cut, before 0 and 1's finishes.
        let cancelled: Vec<u64> = done.iter().filter(|c| c.cancelled).map(|c| c.token).collect();
        assert_eq!((done.len(), cancelled), (3, vec![2, 0]));
        let stats = engine.stats();
        assert_eq!(
            (stats.completed_jobs, stats.cancelled_jobs, stats.completed_sessions),
            (1, 2, 1)
        );
    }

    #[test]
    fn backpressure_rejects_with_a_retry_after_hint() {
        let mut knobs = tiny_knobs();
        knobs.max_backlog_sec = 1e-3;
        knobs.pending_per_shard = 1;
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        // Flood without polling: the bounded queue (1 group × 2 shards ×
        // 4 jobs) and the backlog knob must start rejecting.
        let mut accepted = 0;
        let mut rejected = 0;
        for t in 0..32 {
            match engine.submit(0.0, t, 0, vec![job(t as usize)]) {
                Admission::Accepted => accepted += 1,
                Admission::Busy { retry_after_sec } => {
                    assert!(retry_after_sec > 0.0, "the hint must be positive");
                    rejected += 1;
                }
                other => panic!("unexpected admission {other:?}"),
            }
        }
        assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
        assert_eq!(engine.stats().rejected, rejected);
        // The engine still completes everything it accepted.
        let completions = engine.drain(0.1);
        assert_eq!(completions.len(), accepted as usize);
    }

    #[test]
    fn timeouts_preempt_and_flag_completions() {
        let mut knobs = tiny_knobs();
        knobs.timeout_sec = 1e-6;
        knobs.fleet.serve.cold_budget = 4_000;
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        for t in 0..4 {
            assert_eq!(engine.submit(0.0, t, 0, vec![job(t as usize)]), Admission::Accepted);
        }
        // Poll well past the timeout: the first step runs the slice floor,
        // the next selection preempts the expired session.
        let completions = run_until_idle(&mut engine, 1.0);
        assert_eq!(completions.len(), 4);
        assert!(completions.iter().all(|c| c.timed_out), "every session expired: {completions:?}");
        let stats = engine.stats();
        assert_eq!(stats.timed_out_jobs, 4);
        assert!(stats.preempted_sessions > 0);
    }

    #[test]
    fn cancel_flags_completions_and_early_finishes_cancelled_sessions() {
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&tiny_knobs()), mix(4));
        assert!(!engine.cancel(0.0, 99), "unknown tokens are not cancellable");
        for t in 0..4 {
            assert_eq!(engine.submit(0.0, t, 0, vec![job(t as usize)]), Admission::Accepted);
        }
        // One poll cuts the 4-job group and steps it once (spent > 0).
        let early = engine.poll(0.001);
        assert!(early.is_empty(), "one slice does not finish a cold search");
        // All four tokens share the one live session: cancelling them all
        // early-finishes it.
        for t in 0..4 {
            assert!(engine.cancel(0.002, t));
            assert!(!engine.cancel(0.002, t), "double cancel is not acked");
        }
        let completions = engine.poll(0.003);
        assert_eq!(completions.len(), 4);
        assert!(completions.iter().all(|c| c.cancelled));
        let stats = engine.stats();
        assert_eq!(stats.cancelled, 4);
        assert_eq!(stats.cancelled_jobs, 4);
        assert_eq!(stats.completed_jobs, 0);
        assert_eq!(stats.live_sessions, 0);
    }

    #[test]
    fn a_cancellation_ends_with_the_submission_it_was_for() {
        let mut knobs = tiny_knobs();
        knobs.pending_per_shard = 16; // room to queue the 101 jobs below
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        assert_eq!(engine.submit(0.0, 7, 0, vec![job(0), job(1)]), Admission::Accepted);
        assert!(engine.cancel(0.0, 7));
        let first = run_until_idle(&mut engine, 0.1);
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|c| c.cancelled));

        // The token closed with its last completion, so it is free again —
        // and the new submission is not the cancelled one.
        assert_eq!(engine.submit(1.0, 7, 0, vec![job(2), job(3)]), Admission::Accepted);
        let second = run_until_idle(&mut engine, 1.1);
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|c| !c.cancelled), "{second:?}");
        assert_eq!(engine.submit(2.0, 7, 0, vec![job(4)]), Admission::Accepted);
        assert!(engine.cancel(2.0, 7), "a reused token can be cancelled again");

        // Nothing is kept per cancelled token once it has closed.
        for t in 100..200 {
            assert_eq!(engine.submit(2.0, t, 0, vec![job(t as usize)]), Admission::Accepted);
            assert!(engine.cancel(2.0, t));
        }
        assert_eq!(engine.cancelled.len(), 101);
        assert_eq!(engine.drain(3.0).len(), 101);
        assert!(engine.cancelled.is_empty(), "{:?}", engine.cancelled);
        let stats = engine.stats();
        assert_eq!((stats.cancelled, stats.cancelled_jobs, stats.completed_jobs), (102, 103, 2));
    }

    #[test]
    fn drain_completes_everything_and_persists_shard_caches() {
        let base = std::env::temp_dir().join(format!("magma_engine_cache_{}", std::process::id()));
        let mut knobs = tiny_knobs();
        knobs.fleet.serve.cache_path = Some(base.display().to_string());
        for i in 0..2 {
            let _ = std::fs::remove_file(shard_cache_file(&base, i));
        }
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
        for t in 0..10 {
            assert_eq!(
                engine.submit(t as f64 * 0.001, t, (t % 4) as usize, vec![job(t as usize)]),
                Admission::Accepted
            );
        }
        // Drain with work still queued and live: everything must complete.
        let completions = engine.drain(0.02);
        assert_eq!(completions.len(), 10);
        assert_eq!(engine.stats().queued_jobs, 0);
        assert_eq!(engine.stats().live_sessions, 0);
        assert!(engine.draining);
        assert_eq!(engine.submit(0.03, 99, 0, vec![job(0)]), Admission::Draining);
        for i in 0..2 {
            let file = shard_cache_file(&base, i);
            assert!(file.exists(), "every shard persists its cache on drain");
            let _ = std::fs::remove_file(file);
        }
    }

    #[test]
    fn corrupt_shard_cache_files_come_up_cold() {
        crate::shards::tests::corrupt_cache_files_come_up_cold("engine", |cache_path| {
            let mut knobs = tiny_knobs();
            knobs.fleet.serve.cache_path = cache_path.map(|p| p.display().to_string());
            let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(4));
            for t in 0..8 {
                assert_eq!(engine.submit(0.0, t, 0, vec![job(t as usize)]), Admission::Accepted);
            }
            (engine.drain(0.01), engine.stats())
        });
    }

    #[test]
    fn invalid_submissions_are_rejected_with_reasons() {
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&tiny_knobs()), mix(2));
        match engine.submit(0.0, 0, 0, vec![]) {
            Admission::Invalid { reason } => assert!(reason.contains("at least one job")),
            other => panic!("unexpected admission {other:?}"),
        }
        match engine.submit(0.0, 0, 7, vec![job(0)]) {
            Admission::Invalid { reason } => assert!(reason.contains("tenant")),
            other => panic!("unexpected admission {other:?}"),
        }
        assert_eq!(engine.submit(0.0, 0, 0, vec![job(0)]), Admission::Accepted);
        match engine.submit(0.0, 0, 0, vec![job(1)]) {
            Admission::Invalid { reason } => assert!(reason.contains("already open")),
            other => panic!("unexpected admission {other:?}"),
        }
    }

    #[test]
    fn a_submission_larger_than_the_queue_is_refused_not_bounced() {
        // The queue holds 1 group × 2 shards × 4 jobs: one job more can never
        // be admitted, however idle the engine, so it is no `Busy`.
        let mut knobs = tiny_knobs();
        knobs.pending_per_shard = 1;
        knobs.max_backlog_sec = 1e9;
        let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix(2));
        match engine.submit(0.0, 0, 0, (0..9).map(job).collect()) {
            Admission::Invalid { reason } => {
                assert!(reason.contains('9') && reason.contains('8'), "{reason}")
            }
            other => panic!("unexpected admission {other:?}"),
        }
        assert_eq!(engine.stats().rejected, 0, "a refused submit is no backpressure");
        assert_eq!(engine.submit(0.0, 1, 0, (0..8).map(job).collect()), Admission::Accepted);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let engine = ServeEngine::new(EngineConfig::from_knobs(&tiny_knobs()), mix(2));
        let stats = engine.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
