//! The concurrent session scheduler: many live searches time-sharing one
//! shard's mapper.
//!
//! A shard holds up to `max_live` detached [`magma_optim::SessionState`]s
//! and multiplexes its mapper across them in slices. Two policies
//! ([`FleetPolicy`], `FleetKnobs::policy`):
//!
//! * **Uniform** — round-robin selection, a fixed slice per step, no
//!   preemption. With one shard and `max_live = 1` this is the single-queue
//!   simulator ([`FleetConfig::single_queue`](crate::fleet::FleetConfig::single_queue)).
//! * **Deadline** (default) — earliest-deadline-first selection with
//!   *deadline-aware slice sizing*: a session's slice grows with its
//!   urgency — the fraction of its remaining headroom its remaining search
//!   would occupy — so a relaxed session trickles at `min_slice` (yielding
//!   the mapper to tighter ones) while a session about to miss sprints to
//!   its budget. When a session's deadline passes mid-search it is
//!   **preempted**: finished early with whatever it has evaluated, freeing
//!   the mapper instead of polishing a mapping that is already late.
//!
//! A third preemption lever is *value preemption*
//! (`FleetKnobs::preempt_margin`, off at `0`): when every slot is full, an incoming
//! group whose value (tighter SLA contracts are worth more) is at least `preempt_margin`
//! times the cheapest live session's may evict it (early-finished, not
//! discarded — every admitted group still completes and executes).
//!
//! Early finishes build their outcome from the samples already evaluated,
//! so a victim must have evaluated at least one sample
//! ([`SearchOutcome`](magma_optim::SearchOutcome) panics on an empty
//! history). The scheduler guarantees this structurally: deadline
//! preemption only fires on sessions with `spent > 0` (an expired session
//! that never ran gets one `min_slice` step first — the graceful
//! past-deadline-at-admission path), and value preemption only considers
//! victims with `spent > 0`.

use crate::batcher::DispatchGroup;
use crate::dispatch::SearchPlan;
use magma_m3e::M3e;
use magma_optim::SessionState;
use magma_platform::settings::FleetPolicy;
use rand::rngs::StdRng;

/// Positive floor applied to a session's deadline headroom before the
/// urgency division in deadline slice sizing — a picosecond, far below any
/// virtual-clock resolution the simulators use, so it only ever matters as
/// a division guard.
const MIN_HEADROOM_SEC: f64 = 1e-12;

/// Tuning of one shard's scheduler (derived from the fleet knobs by
/// [`ShardConfig::from_knobs`](crate::ShardConfig::from_knobs)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Selection + slicing policy.
    pub policy: FleetPolicy,
    /// Concurrent live-session capacity.
    pub max_live: usize,
    /// Fixed slice under [`FleetPolicy::Uniform`], in samples.
    pub base_slice: usize,
    /// Smallest slice under [`FleetPolicy::Deadline`] — also what an
    /// already-late session is clamped to, in samples.
    pub min_slice: usize,
    /// Value-preemption threshold; `0` disables value preemption.
    pub preempt_margin: f64,
    /// Virtual mapper cost per evaluated sample, in seconds (drives the
    /// urgency estimate).
    pub overhead_sec_per_sample: f64,
}

/// Lifecycle counters of one shard's scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions that ran to their full budget (or search exhaustion).
    pub completed: u64,
    /// Sessions early-finished because their deadline passed.
    pub preempted_deadline: u64,
    /// Sessions early-finished to make room for a higher-value group.
    pub preempted_value: u64,
    /// Sessions admitted with their deadline already in the past.
    pub late_admissions: u64,
    /// Deadline-policy steps clamped to `min_slice` because the session's
    /// headroom was already gone.
    pub min_slice_clamps: u64,
}

impl SchedStats {
    /// Total early finishes, both preemption kinds.
    pub fn preemptions(&self) -> u64 {
        self.preempted_deadline + self.preempted_value
    }
}

/// One live search: the owned state of a dispatched group mid-search, plus
/// the bookkeeping the policies rank it by.
pub struct LiveSession {
    pub(crate) id: u64,
    pub(crate) group: DispatchGroup,
    pub(crate) plan: SearchPlan,
    pub(crate) problem: M3e,
    pub(crate) rng: StdRng,
    pub(crate) state: Box<dyn SessionState>,
    pub(crate) budget: usize,
    /// Earliest per-job SLA expiry across the group's arrivals.
    pub(crate) deadline_sec: f64,
    /// Σ over arrivals of `1 / sla_multiplier` — tighter contracts are
    /// worth more.
    pub(crate) value: f64,
}

impl LiveSession {
    /// Samples evaluated so far.
    pub(crate) fn spent(&self) -> usize {
        self.state.spent()
    }

    /// Samples left before the nominal budget is exhausted.
    pub(crate) fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.state.spent())
    }
}

/// What one scheduler step did.
pub(crate) enum SchedStep {
    /// No live session to step.
    Idle,
    /// Stepped the selected session; it stays live.
    Progress {
        /// Samples the step actually evaluated.
        spent: usize,
    },
    /// The selected session left the scheduler — budget done, search
    /// exhausted, or deadline-preempted. The caller finishes and executes
    /// it.
    Finished {
        /// The departing session, boxed to keep the step enum small.
        session: Box<LiveSession>,
        /// Samples the finishing step evaluated (`0` on a deadline
        /// preemption, which removes the session without stepping it) — the
        /// caller still owes the mapper this much time.
        spent: usize,
        /// True when the session was early-finished past its deadline.
        preempted: bool,
    },
}

/// The per-shard scheduler. See the module docs for the policies.
pub struct SessionScheduler {
    config: SchedulerConfig,
    live: Vec<LiveSession>,
    rr_cursor: usize,
    stats: SchedStats,
}

impl SessionScheduler {
    /// Creates an empty scheduler.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (zero capacity or slice sizes, a
    /// non-finite margin or overhead).
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.max_live > 0, "a shard needs at least one live-session slot");
        assert!(config.base_slice > 0 && config.min_slice > 0, "slices must be non-zero");
        assert!(config.preempt_margin >= 0.0, "the preemption margin must be non-negative");
        assert!(
            config.overhead_sec_per_sample.is_finite() && config.overhead_sec_per_sample >= 0.0,
            "the mapper overhead must be finite and non-negative"
        );
        SessionScheduler { config, live: Vec::new(), rr_cursor: 0, stats: SchedStats::default() }
    }

    /// Live session count.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// Whether a session can be admitted without preempting.
    pub fn has_room(&self) -> bool {
        self.live.len() < self.config.max_live
    }

    /// Lifecycle counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// The shard's mapper backlog in samples (the router's load measure):
    /// total remaining budget across live sessions.
    pub fn backlog(&self) -> f64 {
        self.live.iter().map(|s| s.remaining()).sum::<usize>() as f64
    }

    /// Admits a session. A deadline already in the past is tolerated — the
    /// session is counted late and will be stepped once at `min_slice`, then
    /// deadline-preempted — never a panic, never a busy spin.
    ///
    /// # Panics
    ///
    /// Panics when the scheduler is full (the fleet loop gates cuts on
    /// [`has_room`](SessionScheduler::has_room) or preempts first).
    pub(crate) fn admit(&mut self, session: LiveSession, now_sec: f64) {
        assert!(self.has_room(), "admit called on a full scheduler");
        self.stats.admitted += 1;
        if session.deadline_sec <= now_sec {
            self.stats.late_admissions += 1;
        }
        self.live.push(session);
    }

    /// The value of the cheapest value-preemptable live session (one that
    /// has evaluated at least one sample), if any — what an incoming group
    /// must out-value by the margin.
    pub(crate) fn preemptable_value(&self) -> Option<f64> {
        self.victim_index().map(|i| self.live[i].value)
    }

    /// Removes the live session with `id`, if any — the wall-clock engine's
    /// cancellation path ([`crate::engine`]). The departing session is not
    /// counted as completed or preempted; the caller owns its accounting.
    pub(crate) fn remove_by_id(&mut self, id: u64) -> Option<LiveSession> {
        let idx = self.live.iter().position(|s| s.id == id)?;
        Some(self.remove(idx))
    }

    /// Early-finishes the cheapest preemptable session to make room.
    ///
    /// # Panics
    ///
    /// Panics if no live session has evaluated a sample yet; callers gate on
    /// [`preemptable_value`](SessionScheduler::preemptable_value).
    pub(crate) fn preempt_lowest_value(&mut self) -> LiveSession {
        let idx = self.victim_index().expect("a preemptable live session");
        self.stats.preempted_value += 1;
        self.remove(idx)
    }

    /// Runs one scheduling decision at virtual time `now_sec`: selects a
    /// session (round-robin or EDF), preempts it if its deadline has passed
    /// (and it can be finished), otherwise steps it by the policy's slice.
    pub(crate) fn step(&mut self, now_sec: f64) -> SchedStep {
        if self.live.is_empty() {
            return SchedStep::Idle;
        }
        let idx = self.select();
        let expired = self.config.policy == FleetPolicy::Deadline
            && now_sec >= self.live[idx].deadline_sec
            && self.live[idx].spent() > 0;
        if expired {
            self.stats.preempted_deadline += 1;
            return SchedStep::Finished {
                session: Box::new(self.remove(idx)),
                spent: 0,
                preempted: true,
            };
        }
        let slice = self.slice_for(idx, now_sec);
        let session = &mut self.live[idx];
        let report = session.state.step(&session.problem, &mut session.rng, slice);
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        if report.spent == 0 || self.live[idx].remaining() == 0 {
            self.stats.completed += 1;
            SchedStep::Finished {
                session: Box::new(self.remove(idx)),
                spent: report.spent,
                preempted: false,
            }
        } else {
            SchedStep::Progress { spent: report.spent }
        }
    }

    /// The index the policy would step next: round-robin under Uniform, the
    /// earliest deadline (ties to the oldest admission) under Deadline.
    fn select(&self) -> usize {
        match self.config.policy {
            FleetPolicy::Uniform => self.rr_cursor % self.live.len(),
            FleetPolicy::Deadline => self
                .live
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.deadline_sec
                        .partial_cmp(&b.deadline_sec)
                        .expect("deadlines are finite")
                        .then(a.id.cmp(&b.id))
                })
                .map(|(i, _)| i)
                .expect("live is non-empty"),
        }
    }

    /// The slice the selected session gets at `now_sec`.
    fn slice_for(&mut self, idx: usize, now_sec: f64) -> usize {
        let session = &self.live[idx];
        let remaining = session.remaining().max(1);
        match self.config.policy {
            FleetPolicy::Uniform => self.config.base_slice.min(remaining),
            FleetPolicy::Deadline => {
                let headroom = session.deadline_sec - now_sec;
                if headroom <= 0.0 {
                    // Already late: spend the floor, no more — the next
                    // selection preempts it. This branch, not the division
                    // below, must absorb every non-positive headroom.
                    self.stats.min_slice_clamps += 1;
                    self.config.min_slice.min(remaining)
                } else {
                    // Urgency = fraction of the headroom the rest of the
                    // search would occupy; 1 means "sprint to the budget".
                    // The headroom is positive here but can be arbitrarily
                    // tiny, so it is floored before the division and the
                    // ratio clamped into (0, 1] — no sub-floor headroom or
                    // zero per-sample overhead can yield an infinite, NaN
                    // or zero slice scale.
                    let headroom = headroom.max(MIN_HEADROOM_SEC);
                    let cost = remaining as f64 * self.config.overhead_sec_per_sample;
                    let urgency = (cost / headroom).clamp(f64::MIN_POSITIVE, 1.0);
                    debug_assert!(
                        urgency > 0.0 && urgency <= 1.0,
                        "urgency must lie in (0, 1], got {urgency}"
                    );
                    let sized = (remaining as f64 * urgency).ceil() as usize;
                    sized.max(self.config.min_slice).min(remaining)
                }
            }
        }
    }

    /// The cheapest live session that can be early-finished: minimum value,
    /// ties to the oldest admission, among sessions with `spent > 0`.
    fn victim_index(&self) -> Option<usize> {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, s)| s.spent() > 0)
            .min_by(|(_, a), (_, b)| {
                a.value.partial_cmp(&b.value).expect("values are finite").then(a.id.cmp(&b.id))
            })
            .map(|(i, _)| i)
    }

    /// Removes a live session, keeping the round-robin cursor aligned.
    fn remove(&mut self, idx: usize) -> LiveSession {
        if !self.live.is_empty() {
            let len = self.live.len();
            let cursor = self.rr_cursor % len;
            if cursor > idx {
                self.rr_cursor = cursor - 1;
            } else {
                self.rr_cursor = cursor;
            }
        }
        self.live.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{DispatchConfig, MappingService};
    use crate::trace::Arrival;
    use magma_m3e::Objective;
    use magma_model::{Group, Job, JobId, LayerShape, TaskType};
    use magma_platform::{settings, Setting};
    use rand::SeedableRng;

    fn config(policy: FleetPolicy) -> SchedulerConfig {
        SchedulerConfig {
            policy,
            max_live: 4,
            base_slice: 8,
            min_slice: 4,
            preempt_margin: 0.0,
            overhead_sec_per_sample: 1e-6,
        }
    }

    fn live(id: u64, budget: usize, deadline_sec: f64, value: f64) -> LiveSession {
        let job = Job::new(
            JobId(0),
            "m",
            0,
            LayerShape::FullyConnected { out_features: 64, in_features: 64 },
            4,
            TaskType::Recommendation,
        );
        let problem = M3e::new(
            settings::build(Setting::S1),
            Group::new(vec![job.clone()]),
            Objective::Throughput,
        );
        let mut service = MappingService::new(DispatchConfig::new(budget, 4, 1.0, 4));
        let mut rng = StdRng::seed_from_u64(id);
        let mut plan = service.plan_group(&problem, &mut rng);
        let state = service.open_search(&mut plan, &problem);
        let group = DispatchGroup {
            arrivals: vec![Arrival { time_sec: 0.0, tenant: 0, job }],
            formed_at_sec: 0.0,
        };
        LiveSession { id, group, plan, problem, rng, state, budget, deadline_sec, value }
    }

    #[test]
    fn uniform_round_robins_across_live_sessions() {
        let mut sched = SessionScheduler::new(config(FleetPolicy::Uniform));
        sched.admit(live(0, 64, 1.0, 1.0), 0.0);
        sched.admit(live(1, 64, 1.0, 1.0), 0.0);
        // Two steps must touch both sessions: after one step each, both have
        // spent > 0.
        assert!(matches!(sched.step(0.0), SchedStep::Progress { .. }));
        assert!(matches!(sched.step(0.0), SchedStep::Progress { .. }));
        assert_eq!(sched.live(), 2);
        assert!(sched.live.iter().all(|s| s.spent() > 0), "round-robin touches every session");
    }

    #[test]
    fn uniform_runs_to_budget_and_completes() {
        let mut sched = SessionScheduler::new(SchedulerConfig {
            base_slice: 1024,
            max_live: 1,
            ..config(FleetPolicy::Uniform)
        });
        sched.admit(live(0, 32, 1.0, 1.0), 0.0);
        match sched.step(0.0) {
            SchedStep::Finished { session, spent, preempted } => {
                assert!(!preempted);
                assert_eq!(spent, 32, "the finishing step reports its own cost");
                assert_eq!(session.spent(), 32);
            }
            _ => panic!("a budget-sized slice finishes in one step"),
        }
        assert_eq!(sched.stats().completed, 1);
        assert_eq!(sched.stats().preemptions(), 0);
    }

    #[test]
    fn edf_selects_the_earliest_deadline_and_preempts_it_when_expired() {
        let mut sched = SessionScheduler::new(config(FleetPolicy::Deadline));
        sched.admit(live(0, 256, 10.0, 1.0), 0.0);
        sched.admit(live(1, 256, 0.5, 1.0), 0.0);
        // The tight session (id 1) is selected and stepped first.
        assert!(matches!(sched.step(0.0), SchedStep::Progress { .. }));
        let spent_tight = sched.backlog();
        assert!(spent_tight < 512.0);
        // Past its deadline it is preempted — early-finished with what it
        // has, mid-budget.
        match sched.step(0.6) {
            SchedStep::Finished { session, spent, preempted } => {
                assert!(preempted);
                assert_eq!(spent, 0, "a deadline preemption does not step the session");
                assert_eq!(session.id, 1);
                assert!(session.spent() > 0 && session.spent() < 256);
            }
            _ => panic!("an expired session must be preempted"),
        }
        assert_eq!(sched.stats().preempted_deadline, 1);
    }

    #[test]
    fn late_admission_degrades_to_min_slice_then_preempts() {
        let mut sched = SessionScheduler::new(config(FleetPolicy::Deadline));
        // Deadline already in the past at admission: tolerated, counted.
        sched.admit(live(0, 256, 1.0, 1.0), 5.0);
        assert_eq!(sched.stats().late_admissions, 1);
        // First step is clamped to the minimum slice (never a spin, never a
        // panic)...
        match sched.step(5.0) {
            SchedStep::Progress { spent } => assert!((1..=4).contains(&spent), "spent {spent}"),
            _ => panic!("a late session still gets its floor step"),
        }
        assert!(sched.stats().min_slice_clamps >= 1);
        // ...and the next selection finishes it early with a usable outcome.
        match sched.step(5.0) {
            SchedStep::Finished { session, preempted, .. } => {
                assert!(preempted);
                let outcome = session.state.finish();
                assert!(outcome.history.num_samples() > 0);
            }
            _ => panic!("a late session is preempted at its next selection"),
        }
    }

    #[test]
    fn deadline_slice_sizing_survives_every_headroom_edge() {
        // (a) Exactly at the deadline (headroom == 0): the clamp branch, not
        // the division, must absorb it — floor slice, clamp counted.
        let mut sched = SessionScheduler::new(config(FleetPolicy::Deadline));
        sched.admit(live(0, 256, 5.0, 1.0), 0.0);
        match sched.step(5.0) {
            SchedStep::Progress { spent } => assert_eq!(spent, 4, "the min_slice floor"),
            _ => panic!("an at-deadline session still gets its floor step"),
        }
        assert_eq!(sched.stats().min_slice_clamps, 1);

        // (b) Vanishingly small positive headroom: urgency saturates at 1
        // (never infinite or NaN) and the slice sprints to the remaining
        // budget in one finite step.
        let mut sched = SessionScheduler::new(config(FleetPolicy::Deadline));
        sched.admit(live(0, 64, 5.0, 1.0), 0.0);
        match sched.step(5.0 - 1e-15) {
            SchedStep::Finished { preempted, .. } => assert!(!preempted, "ran to budget"),
            SchedStep::Progress { spent } => panic!("expected a full-budget sprint, got {spent}"),
            SchedStep::Idle => panic!("a session was admitted"),
        }
        assert_eq!(sched.stats().min_slice_clamps, 0, "positive headroom never clamps");

        // (c) Zero per-sample overhead: urgency is floored into (0, 1]
        // instead of collapsing to 0, and the slice lands on the floor.
        let mut sched = SessionScheduler::new(SchedulerConfig {
            overhead_sec_per_sample: 0.0,
            ..config(FleetPolicy::Deadline)
        });
        sched.admit(live(0, 256, 1000.0, 1.0), 0.0);
        match sched.step(0.0) {
            SchedStep::Progress { spent } => assert_eq!(spent, 4, "a relaxed session trickles"),
            _ => panic!("a relaxed session must progress at the floor slice"),
        }
    }

    #[test]
    fn value_preemption_evicts_the_cheapest_started_session() {
        // Uniform so round-robin starts both sessions; value preemption
        // itself is policy-independent.
        let mut sched = SessionScheduler::new(SchedulerConfig {
            max_live: 2,
            preempt_margin: 2.0,
            ..config(FleetPolicy::Uniform)
        });
        sched.admit(live(0, 256, 10.0, 3.0), 0.0);
        sched.admit(live(1, 256, 11.0, 1.0), 0.0);
        // Nothing has run yet: no preemptable victim (an empty history
        // cannot be finished).
        assert_eq!(sched.preemptable_value(), None);
        assert!(matches!(sched.step(0.0), SchedStep::Progress { .. }));
        assert!(matches!(sched.step(0.0), SchedStep::Progress { .. }));
        // Both started: the cheapest (id 1, value 1.0) is the victim.
        assert_eq!(sched.preemptable_value(), Some(1.0));
        let victim = sched.preempt_lowest_value();
        assert_eq!(victim.id, 1);
        assert!(victim.spent() > 0);
        assert_eq!(sched.stats().preempted_value, 1);
        assert!(sched.has_room());
    }

    #[test]
    #[should_panic(expected = "full scheduler")]
    fn admitting_past_capacity_panics() {
        let mut sched =
            SessionScheduler::new(SchedulerConfig { max_live: 1, ..config(FleetPolicy::Uniform) });
        sched.admit(live(0, 16, 1.0, 1.0), 0.0);
        sched.admit(live(1, 16, 1.0, 1.0), 0.0);
    }
}
