//! The daemon's protocol, free of I/O: what a connection's bytes mean, what
//! is answered, and when a connection is given up.
//!
//! [`DaemonCore`] owns everything the daemon knows but its sockets: the
//! [`ServeEngine`], the books of accepted submits, the admission pace and,
//! per connection, a `FrameReader`, the encoded answers not yet written and
//! the stall clock. It speaks connection ids, bytes and seconds on one
//! clock, the engine's — whoever drives it says what time it is. The
//! `poll(2)` shell in [`crate::daemon`] drives it from the sockets and the
//! wall clock; a test drives it from a transcript and a virtual clock.
//!
//! **Requests.** A connection's bytes go through its `FrameReader`, and
//! each frame is decoded once, as a whole [`RequestMsg`] with its jobs
//! built, whatever the pace then answers; requests are applied in the order
//! they arrive. A submit is answered `accepted`, `busy` or `error` at once
//! and, once accepted, gets one terminal — `done` or `cancelled` — when the
//! last of its jobs has executed. Request ids are the client's and unique
//! per connection while in flight: a submit that reuses the id of one still
//! open is an `error`, and nothing of it is admitted.
//!
//! **The pace.** The core charges the mapper work the engine does (groups
//! cut, samples evaluated) against a budget of one provisioned mapper-second
//! per second, and while the charges run ahead of the clock — more than a
//! quarter-second burst ahead of an idle daemon's — a submit is answered
//! `busy` with the time the budget needs, exactly like the engine's own
//! backpressure. A never-seen group is charged three times what it costs on
//! the reference box, so an open-loop client at a sane rate never meets the
//! pace, while a client that saturates the daemon gets the same throughput
//! on every host and in every run instead of the host's CPU speed of the
//! minute (see `Pace`).
//!
//! **Hang-ups.** A connection is given up, with a reason, when a frame is
//! not a valid `RequestMsg` (not JSON, a job
//! [`Job::try_new`](magma_model::Job::try_new) refuses, jobs that are no
//! jobs on any verb — paced or not) or over the frame limit, when more than
//! `OUTBOX_FRAMES` answers wait for it, or when it has taken no byte for
//! `WRITE_STALL` seconds while output waits. However a connection goes —
//! given up, or closed by its peer — the submits it still has open are
//! cancelled in the order they were admitted: nobody is left to read their
//! answers.
//!
//! **Drained.** A `drain` leaves the core drained, and so does the shell
//! after a fault, once the core's state is no longer trusted
//! ([`stop`](DaemonCore::stop)): no request is read and no engine step taken
//! any more, and a connection ends once its output is written — at once
//! when none waits.

use std::collections::{BTreeMap, HashMap, VecDeque};

use magma_model::TenantMix;
use magma_serve::{Admission, EngineConfig, EngineStats, JobCompletion, MapperWork, ServeEngine};

use crate::frame::{write_frame, FrameReader};
use crate::proto::{
    decode, encode, RequestMsg, ResponseMsg, KIND_ACCEPTED, KIND_BUSY, KIND_CANCELLED, KIND_DONE,
    KIND_DRAINED, KIND_STATS, VERB_CANCEL, VERB_DRAIN, VERB_STATS, VERB_SUBMIT,
};

/// Answers a connection may have waiting behind its socket's buffers. They
/// only pile up once the peer is already megabytes behind; the bound is
/// generous because one read can complete a whole batch of pipelined
/// requests, all answered before the next write.
const OUTBOX_FRAMES: usize = 1024;

/// Seconds a connection with output waiting may take no byte before it is
/// given up. Also bounds how long a stalled peer can hold up the daemon's
/// exit after a drain.
const WRITE_STALL: f64 = 5.0;

/// The admission pace's price list, in seconds of mapper budget per search
/// sample the engine evaluated and per group it cut. Two rules fix the two
/// prices:
///
/// * **A never-seen 30-job group is charged three times what it costs** the
///   daemon on the reference box, codec, cache probe and scheduler included
///   — its whole charge, the group price in it. Such a group runs ≈ 445
///   samples and, with the pace out of the way, costs 1.18–1.31 ms of CPU:
///   charged 3.9 ms. A host at a third of the speed still keeps up with what
///   the pace admits, and the same box unpaced sustains 2.3 times as much
///   (≈ 600 groups/s), so the saturation figure stays a constant of the
///   daemon.
/// * **A cached group is charged 2.9 ms** — 30 refine samples and the group
///   price. That is not a cost estimate: it keeps a cache-hit workload
///   (≈ 350 groups/s) under what the four virtual accelerator timelines
///   sustain — 330 to 540 groups/s depending on which groups are hot — so
///   that it, too, meets the pace first and not the engine's accelerator
///   backpressure, whose level moves with the request mix.
///
/// Whoever measures a new cost solves the two for the two prices again: the
/// 2.9 ms is the invariant, the sample price is what is left of three times
/// the cost.
const PACE_SEC_PER_SAMPLE: f64 = 2.4e-6;
/// The per-group entry of the price list above.
const PACE_SEC_PER_GROUP: f64 = 2.828e-3;

/// Mapper budget an idle daemon has saved up: the burst it admits at once.
const PACE_BURST_SEC: f64 = 0.25;

/// The shortest wait a `busy` answer suggests, the floor the engine's own
/// backpressure uses: a client that honours a hint of nanoseconds spins.
const PACE_MIN_RETRY_SEC: f64 = 1e-3;

/// The admission pace: one second of mapper budget per second of wall time.
///
/// Work the engine has done is charged at the price list above; while the
/// charges run ahead of the wall clock, submits are answered `busy` with
/// the time the budget needs to catch up. An unsaturated daemon never
/// notices, and the daemon stays work-conserving — what is admitted
/// is searched back to back. A client that saturates the daemon, though, is
/// admitted at the same rate on every host and in every run (≈ 260 never-seen
/// 30-job groups a second, ≈ 350 cached ones) instead of at whatever the
/// host's CPU sustains that minute: saturation throughput is a property of
/// the daemon, not of the box, and the same traffic draws the same `busy`
/// answers everywhere.
#[derive(Debug, Clone, Copy)]
struct Pace {
    /// Wall-clock time up to which the budget is spent.
    spent_until: f64,
    /// The engine's work counters at the last charge.
    charged: MapperWork,
}

impl Pace {
    /// A pace with its whole burst saved up.
    fn new() -> Self {
        Pace { spent_until: f64::NEG_INFINITY, charged: MapperWork::default() }
    }

    /// Charges the work the engine did since the last call.
    fn charge(&mut self, now: f64, done: MapperWork) {
        let cost = (done.groups - self.charged.groups) as f64 * PACE_SEC_PER_GROUP
            + (done.samples - self.charged.samples) as f64 * PACE_SEC_PER_SAMPLE;
        if cost > 0.0 {
            self.spent_until = self.spent_until.max(now - PACE_BURST_SEC) + cost;
            self.charged = done;
        }
    }

    /// How long a submit at `now` has to wait for budget; `None` admits it.
    fn wait(&self, now: f64) -> Option<f64> {
        (self.spent_until > now).then(|| (self.spent_until - now).max(PACE_MIN_RETRY_SEC))
    }
}

/// An accepted submit the engine is still executing.
#[derive(Default)]
struct Book {
    conn: u64,
    request_id: u64,
    total: usize,
    finished: usize,
    any_timed_out: bool,
    cancelled: bool,
}

/// What the core keeps of one open connection.
struct Link {
    input: FrameReader,
    /// Encoded frames the peer has not taken yet.
    output: Vec<u8>,
    /// Where each frame in `output` ends: the answers waiting.
    frame_ends: VecDeque<usize>,
    /// When the peer last took a byte, or when output began to wait.
    progress: f64,
}

impl Link {
    /// Until when a peer with output waiting may go on taking no byte.
    fn stall_deadline(&self) -> Option<f64> {
        (!self.output.is_empty()).then_some(self.progress + WRITE_STALL)
    }
}

/// The daemon's protocol state machine; see the module docs.
pub(crate) struct DaemonCore {
    engine: ServeEngine,
    max_frame_bytes: usize,
    links: BTreeMap<u64, Link>,
    /// Engine tokens are daemon-assigned; books map them back to the
    /// originating (connection, request id) pair.
    next_token: u64,
    books: HashMap<u64, Book>,
    submit_index: HashMap<(u64, u64), u64>,
    pace: Pace,
    /// Submits the pace answered `busy` (the engine counts only its own).
    paced: u64,
    /// Connections given up since the caller last asked, with the reason.
    given_up: Vec<(u64, String)>,
    /// Set by [`stop`](Self::stop); see the module docs.
    drained: bool,
}

impl DaemonCore {
    /// A core over a fresh engine, with no connection open.
    pub(crate) fn new(config: EngineConfig, mix: TenantMix, max_frame_bytes: usize) -> Self {
        DaemonCore {
            engine: ServeEngine::new(config, mix),
            max_frame_bytes,
            links: BTreeMap::new(),
            next_token: 0,
            books: HashMap::new(),
            submit_index: HashMap::new(),
            pace: Pace::new(),
            paced: 0,
            given_up: Vec::new(),
            drained: false,
        }
    }

    /// The engine's counters, with the submits the pace bounced counted as
    /// rejected: a client cannot tell the two kinds of `busy` apart.
    pub(crate) fn stats(&self) -> EngineStats {
        let stats = self.engine.stats();
        EngineStats { rejected: stats.rejected + self.paced, ..stats }
    }

    /// Opens connection `conn` at `now`.
    pub(crate) fn open(&mut self, conn: u64, now: f64) {
        let input = FrameReader::new(self.max_frame_bytes);
        let link = Link { input, output: Vec::new(), frame_ends: VecDeque::new(), progress: now };
        self.links.insert(conn, link);
    }

    /// Where `conn`'s bytes go; [`received`](Self::received) applies them.
    /// None once the connection is gone or the core is drained.
    pub(crate) fn reader(&mut self, conn: u64) -> Option<&mut FrameReader> {
        self.links.get_mut(&conn).filter(|_| !self.drained).map(|link| &mut link.input)
    }

    /// Whether `conn` is open; the caller hangs up every connection that is
    /// not.
    pub(crate) fn is_open(&self, conn: u64) -> bool {
        self.links.contains_key(&conn)
    }

    /// Whether the core is drained; see the module docs.
    pub(crate) fn drained(&self) -> bool {
        self.drained
    }

    /// Applies, at `now`, every request `conn`'s reader holds whole, up to a
    /// drain, then closes the connection when its stream has `ended` — a
    /// drained one stays open until its answer is written.
    pub(crate) fn received(&mut self, conn: u64, ended: bool, now: f64) {
        while let Some(link) = self.links.get_mut(&conn).filter(|_| !self.drained) {
            let request = match link.input.next_frame() {
                Ok(Some(payload)) => decode::<RequestMsg>(payload),
                Ok(None) => break,
                Err(e) => Err(e.to_string()),
            };
            match request {
                Ok(msg) => self.apply(conn, msg, now),
                Err(reason) => self.give_up(conn, reason, now),
            }
        }
        if ended && !self.drained {
            self.closed(conn, now);
        }
    }

    /// Forgets a connection (a no-op when it is already gone) and cancels
    /// the submits it still has open, in admission order — the order
    /// sessions finish in feeds the shard timelines and caches — so the
    /// engine stops searching for answers nobody will read. Their books
    /// close through the `cancelled` completions the engine produces. A
    /// drained core has nothing left to cancel, or no engine it trusts.
    pub(crate) fn closed(&mut self, conn: u64, now: f64) {
        if self.links.remove(&conn).is_none() || self.drained {
            return;
        }
        let mut open: Vec<u64> =
            self.books.iter().filter(|(_, book)| book.conn == conn).map(|(&t, _)| t).collect();
        open.sort_unstable();
        for token in open {
            self.engine.cancel(now, token);
        }
    }

    /// One engine step at `now`: polls it, charges the pace for the work
    /// and queues the terminals of the submits that finished. Nothing once
    /// drained.
    pub(crate) fn turn(&mut self, now: f64) {
        if self.drained {
            return;
        }
        let completions = self.engine.poll(now);
        self.pace.charge(now, self.engine.mapper_work());
        self.deliver(completions, now);
    }

    /// The bytes waiting for `conn`'s peer (none for a closed connection).
    pub(crate) fn output(&self, conn: u64) -> &[u8] {
        self.links.get(&conn).map_or(&[], |link| &link.output)
    }

    /// Records that `conn`'s peer took `n` bytes of its output at `now` —
    /// none is a write that would have blocked — and gives the connection
    /// up when too many answers wait or it has stalled too long. A drained
    /// core ends the connection once its output is written.
    pub(crate) fn wrote(&mut self, conn: u64, n: usize, now: f64) {
        let Some(link) = self.links.get_mut(&conn) else { return };
        if n > 0 {
            link.progress = now;
            link.output.drain(..n);
            while link.frame_ends.front().is_some_and(|&end| end <= n) {
                link.frame_ends.pop_front();
            }
            link.frame_ends.iter_mut().for_each(|end| *end -= n);
        }
        if self.drained && link.output.is_empty() {
            self.links.remove(&conn);
        } else if link.frame_ends.len() > OUTBOX_FRAMES {
            self.give_up(conn, format!("{OUTBOX_FRAMES} answers unread"), now);
        } else if link.stall_deadline().is_some_and(|deadline| deadline <= now) {
            self.give_up(conn, format!("no byte taken for {WRITE_STALL} s"), now);
        }
    }

    /// When the caller must call again at the latest, seen at `now`: the
    /// engine's next wake (`now` itself while it has work due; none once
    /// drained) or the earliest stall deadline. `None` waits for the peers
    /// alone.
    pub(crate) fn wake(&self, now: f64) -> Option<f64> {
        let engine = if self.drained { None } else { self.engine.next_wake(now) };
        let stalls = self.links.values().filter_map(Link::stall_deadline);
        engine.into_iter().chain(stalls).min_by(f64::total_cmp)
    }

    /// The connections given up since the last call, each with its reason;
    /// the caller hangs them up.
    pub(crate) fn given_up(&mut self) -> Vec<(u64, String)> {
        std::mem::take(&mut self.given_up)
    }

    /// Makes the core drained (see the module docs): what a `drain` ends
    /// with, and what the caller does once a core call has panicked. Every
    /// connection with no output waiting ends now.
    pub(crate) fn stop(&mut self) {
        self.drained = true;
        self.links.retain(|_, link| !link.output.is_empty());
    }

    /// Gives a connection up (a no-op when it is already gone).
    fn give_up(&mut self, conn: u64, reason: String, now: f64) {
        if self.links.contains_key(&conn) {
            self.closed(conn, now);
            self.given_up.push((conn, reason));
        }
    }

    /// Applies one request from `conn` at `now`.
    fn apply(&mut self, conn: u64, msg: RequestMsg, now: f64) {
        let resp = match msg.verb.as_str() {
            VERB_SUBMIT if self.submit_index.contains_key(&(conn, msg.id)) => {
                ResponseMsg::error(msg.id, &format!("request id {} is already in flight", msg.id))
            }
            VERB_SUBMIT => match (msg.tenant, msg.jobs) {
                (Some(tenant), Some(jobs)) => {
                    let (token, total) = (self.next_token, jobs.len());
                    // The pace first, then the engine's own admission.
                    let verdict = match self.pace.wait(now) {
                        Some(retry_after_sec) => {
                            self.paced += 1;
                            Admission::Busy { retry_after_sec }
                        }
                        None => self.engine.submit(now, token, tenant, jobs),
                    };
                    match verdict {
                        Admission::Accepted => {
                            self.next_token += 1;
                            let book = Book { conn, request_id: msg.id, total, ..Book::default() };
                            self.books.insert(token, book);
                            self.submit_index.insert((conn, msg.id), token);
                            ResponseMsg::new(msg.id, KIND_ACCEPTED)
                        }
                        Admission::Busy { retry_after_sec } => ResponseMsg {
                            retry_after_sec: Some(retry_after_sec),
                            ..ResponseMsg::new(msg.id, KIND_BUSY)
                        },
                        Admission::Draining => {
                            ResponseMsg::error(msg.id, "draining: admissions closed")
                        }
                        Admission::Invalid { reason } => ResponseMsg::error(msg.id, &reason),
                    }
                }
                _ => ResponseMsg::error(msg.id, "submit_group needs tenant and jobs"),
            },
            // The target's `cancelled` terminal follows with the next turn's
            // completions.
            VERB_CANCEL => match msg.target.and_then(|t| self.submit_index.get(&(conn, t))) {
                Some(&token) if self.engine.cancel(now, token) => {
                    if let Some(book) = self.books.get_mut(&token) {
                        book.cancelled = true;
                    }
                    ResponseMsg::new(msg.id, KIND_CANCELLED)
                }
                Some(_) => ResponseMsg::error(msg.id, "target is not cancellable"),
                None => ResponseMsg::error(msg.id, "cancel target unknown"),
            },
            VERB_STATS => {
                ResponseMsg { stats: Some(self.stats()), ..ResponseMsg::new(msg.id, KIND_STATS) }
            }
            VERB_DRAIN => {
                let completions = self.engine.drain(now);
                self.deliver(completions, now);
                let stats = self.stats();
                let resp = ResponseMsg {
                    jobs: Some(stats.completed_jobs as usize),
                    stats: Some(stats),
                    ..ResponseMsg::new(msg.id, KIND_DRAINED)
                };
                self.send(conn, &resp, now);
                self.stop();
                return;
            }
            // What a panic costs is tested with this verb.
            #[cfg(test)]
            "poison" => panic!("a poisoned request"),
            other => {
                // Echo a prefix only: no response is larger than the stats
                // block, so the output bound is a bound in bytes too.
                let shown: String = other.chars().take(32).collect();
                ResponseMsg::error(msg.id, &format!("unknown verb {shown:?}"))
            }
        };
        self.send(conn, &resp, now);
    }

    /// Folds engine completions into their books; queues the terminal
    /// `done` (or `cancelled`) once a submit's whole group has executed.
    fn deliver(&mut self, completions: Vec<JobCompletion>, now: f64) {
        for completion in completions {
            let Some(book) = self.books.get_mut(&completion.token) else { continue };
            book.finished += 1;
            book.any_timed_out |= completion.timed_out;
            book.cancelled |= completion.cancelled;
            if book.finished < book.total {
                continue;
            }
            let book = self.books.remove(&completion.token).expect("book exists");
            self.submit_index.remove(&(book.conn, book.request_id));
            let resp = if book.cancelled {
                ResponseMsg::new(book.request_id, KIND_CANCELLED)
            } else {
                ResponseMsg {
                    jobs: Some(book.total),
                    timed_out: Some(book.any_timed_out),
                    ..ResponseMsg::new(book.request_id, KIND_DONE)
                }
            };
            self.send(book.conn, &resp, now);
        }
    }

    /// Queues a response on a connection (a no-op when it is closed).
    fn send(&mut self, conn: u64, resp: &ResponseMsg, now: f64) {
        let Some(link) = self.links.get_mut(&conn) else { return };
        if link.output.is_empty() {
            link.progress = now;
        }
        match write_frame(&mut link.output, &encode(resp), self.max_frame_bytes) {
            Ok(()) => link.frame_ends.push_back(link.output.len()),
            Err(e) => self.give_up(conn, e.to_string(), now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use magma_model::{Job, JobId, LayerShape, TaskType};
    use magma_platform::settings::{FleetPolicy, ServerKnobs};

    use crate::client::{Mux, PendingKind};
    use crate::frame::read_frame;

    fn work(groups: u64, samples: u64) -> MapperWork {
        MapperWork { groups, samples }
    }

    #[test]
    fn the_pace_admits_a_burst_then_one_budget_second_per_second() {
        let mut pace = Pace::new();
        assert_eq!(pace.wait(0.0), None, "a fresh daemon has its burst saved up");

        // As many groups as the burst pays for, done in no time at t = 10:
        // still admitting. Two more overdraw the budget by what the burst
        // does not cover (a whole group at least, so well above the hint's
        // floor), and the hint says so to the end — a submit at the hinted
        // time is admitted.
        let group = PACE_SEC_PER_GROUP + 500.0 * PACE_SEC_PER_SAMPLE;
        let burst = (PACE_BURST_SEC / group) as u64;
        pace.charge(10.0, work(burst, 500 * burst));
        assert_eq!(pace.wait(10.0), None);
        let over = burst + 2;
        pace.charge(10.0, work(over, 500 * over));
        let wait = pace.wait(10.0).expect("the budget is overdrawn");
        assert!((wait - (group * over as f64 - PACE_BURST_SEC)).abs() < 1e-9);
        assert_eq!(pace.wait(10.0 + wait), None);

        // A daemon that then idles saves up again, but never more than the
        // burst: after a long pause the same work overdraws it as much.
        pace.charge(1_000.0, work(2 * over, 1_000 * over));
        let again = pace.wait(1_000.0).expect("the budget is overdrawn again");
        assert!((again - wait).abs() < 1e-9);
    }

    #[test]
    fn the_retry_hint_is_never_shorter_than_a_millisecond() {
        // Overdrawn by one sample's price: a client sleeping exactly the
        // hint would otherwise come back every few microseconds.
        let burst = (PACE_BURST_SEC / PACE_SEC_PER_SAMPLE).round() as u64;
        let mut pace = Pace::new();
        pace.charge(10.0, work(0, burst + 1));
        assert_eq!(pace.wait(10.0), Some(PACE_MIN_RETRY_SEC));
        let caught_up = 10.0 + 2.0 * PACE_SEC_PER_SAMPLE;
        assert_eq!(pace.wait(caught_up), None, "the floor lengthens the hint, not the wait");
    }

    /// What one group of `samples` samples is charged.
    fn charged(samples: u64) -> f64 {
        let mut pace = Pace::new();
        pace.charge(0.0, work(1, samples));
        pace.spent_until + PACE_BURST_SEC
    }

    #[test]
    fn the_price_list_charges_a_cached_group_what_it_always_did() {
        // A cache hit's 30 refine samples: the 2.9 ms `rpc_hot`'s ≈ 350 /s
        // rests on, whatever the sample price is. A cold search of 600: 4.268 ms.
        assert!((charged(30) - 2.9e-3).abs() < 1e-12, "{}", charged(30));
        assert!((charged(600) - 4.268e-3).abs() < 1e-12, "{}", charged(600));
    }

    #[test]
    fn a_never_seen_group_is_charged_three_times_what_it_costs() {
        /// CPU seconds the daemon, all threads, spends on a never-seen 30-job
        /// group with the pace out of the way: `benchmark/run.sh --workload
        /// rpc_mix`, both prices 1e-9, 2026-10-04, the 2-core 2.1 GHz Xeon
        /// reference box — six runs over seeds 3 and 11 read 1.18–1.31 ms
        /// (1.44–1.56 ms before the packed cache rows).
        const MEASURED_COST_SEC: f64 = 1.3e-3;
        /// Samples such a group runs on `rpc_mix`: most search cold at 600,
        /// a near hit refines at 30.
        const SAMPLES: u64 = 445;
        let times = charged(SAMPLES) / MEASURED_COST_SEC;
        assert!((times - 3.0).abs() < 0.01, "charged {times} times its cost");
    }

    #[test]
    fn a_saturating_client_is_admitted_at_the_budget_rate_whatever_the_host_does() {
        // A closed loop on synthetic time: one group is admitted whenever
        // the pace allows and searched at the host's speed of the moment.
        // Ten times faster or slower than the price list — as long as the
        // host keeps up — the same number of groups gets in.
        let group = PACE_SEC_PER_GROUP + 500.0 * PACE_SEC_PER_SAMPLE;
        let admitted_in = |seconds: f64, host_sec_per_group: f64| {
            let (mut pace, mut now, mut done) = (Pace::new(), 0.0, work(0, 0));
            while now < seconds {
                now += pace.wait(now).unwrap_or(0.0);
                now += host_sec_per_group;
                done = work(done.groups + 1, done.samples + 500);
                pace.charge(now, done);
            }
            done.groups as f64
        };
        let budget = (10.0 + PACE_BURST_SEC) / group;
        for host in [group / 10.0, group / 3.0, group * 0.9] {
            let admitted = admitted_in(10.0, host);
            assert!((admitted - budget).abs() <= 2.0, "{admitted} groups at {host} s/group");
        }
        // A host slower than the price list is the bottleneck itself.
        assert!(admitted_in(10.0, group * 2.0) < budget * 0.6);
    }

    // The protocol on a virtual clock: no socket, no sleep. Each request is
    // handed to the core as the bytes a peer would send, and each answer is
    // read back out of the bytes the core would write.

    const MAX_FRAME: usize = 1 << 20;

    fn tiny_knobs() -> ServerKnobs {
        let mut knobs = ServerKnobs::smoke();
        knobs.fleet.serve.cold_budget = 40;
        knobs.fleet.serve.refine_budget = 4;
        knobs.fleet.serve.group_target = 1;
        knobs.fleet.shards = 2;
        knobs.fleet.max_live = 3;
        knobs.rate = 100.0;
        knobs.timeout_sec = 30.0;
        knobs.max_backlog_sec = 1e9;
        knobs.pending_per_shard = 1_000;
        knobs
    }

    /// One-job groups whose cold search alone is charged `pace_sec` of
    /// mapper budget (see the price list).
    fn paced_knobs(pace_sec: f64) -> ServerKnobs {
        let mut knobs = tiny_knobs();
        knobs.fleet.serve.cold_budget =
            ((pace_sec - PACE_SEC_PER_GROUP) / PACE_SEC_PER_SAMPLE) as usize;
        knobs
    }

    /// One-job groups whose searches outlast any test's few turns, sliced
    /// round-robin (yet project a backlog the engine still admits).
    fn long_knobs() -> ServerKnobs {
        let mut knobs = tiny_knobs();
        knobs.fleet.serve.cold_budget = 1_000_000;
        knobs.fleet.policy = FleetPolicy::Uniform;
        knobs
    }

    fn new_core(knobs: &ServerKnobs) -> DaemonCore {
        DaemonCore::new(EngineConfig::from_knobs(knobs), TenantMix::synthetic(2, 0), MAX_FRAME)
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

    fn wire(msg: &RequestMsg) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode(msg), MAX_FRAME).expect("a small frame");
        wire
    }

    /// Hands `conn`'s peer's `bytes` to the core at `now` as one read.
    /// Returns `true` once a drain has completed.
    fn send(core: &mut DaemonCore, conn: u64, bytes: &[u8], now: f64) -> bool {
        let reader = core.reader(conn).expect("the connection is open");
        assert_eq!(reader.fill(&mut &bytes[..]).expect("a read"), bytes.len());
        core.received(conn, false, now);
        core.drained()
    }

    /// The answers waiting for `conn`, taken by its peer at `now`.
    fn answers(core: &mut DaemonCore, conn: u64, now: f64) -> Vec<ResponseMsg> {
        let output = core.output(conn).to_vec();
        core.wrote(conn, output.len(), now);
        let mut bytes = &output[..];
        let mut answers = Vec::new();
        while let Some(payload) = read_frame(&mut bytes, MAX_FRAME).expect("whole frames") {
            answers.push(decode(&payload).expect("a response"));
        }
        answers
    }

    /// Turns the core at `now` until the engine has nothing due.
    fn settle(core: &mut DaemonCore, now: f64) {
        while core.engine.next_wake(now) == Some(now) {
            core.turn(now);
        }
    }

    #[test]
    fn a_paced_submit_is_admitted_at_the_hinted_instant_and_not_before() {
        // One cold search charged 20 ms more than the burst, run at t = 10.
        let mut core = new_core(&paced_knobs(PACE_BURST_SEC + 0.02));
        core.open(0, 0.0);
        send(&mut core, 0, &wire(&RequestMsg::submit(1, 0, vec![job(0)])), 10.0);
        settle(&mut core, 10.0);
        let verdicts = answers(&mut core, 0, 10.0);
        assert_eq!(
            verdicts.iter().map(|r| r.kind.as_str()).collect::<Vec<_>>(),
            ["accepted", "done"]
        );

        let mut submit = |id: u64, now: f64| {
            send(&mut core, 0, &wire(&RequestMsg::submit(id, 0, vec![job(1)])), now);
            let [answer] = &answers(&mut core, 0, now)[..] else { panic!("one verdict") };
            answer.clone()
        };
        let bounced = submit(2, 10.0);
        assert_eq!(bounced.kind, KIND_BUSY);
        let hint = bounced.retry_after_sec.expect("a hint");
        assert!(hint > PACE_MIN_RETRY_SEC && (hint - 0.02).abs() < 1e-3, "{hint}");
        assert_eq!(submit(3, 10.0 + hint - 1e-6).kind, KIND_BUSY, "a microsecond early");
        assert_eq!(submit(4, 10.0 + hint + 1e-9).kind, KIND_ACCEPTED, "at the hinted instant");
        assert_eq!(core.stats().rejected, 2, "both paced submits count as rejected");
    }

    #[test]
    fn a_peer_that_takes_nothing_is_given_up_exactly_one_stall_after_its_output_waits() {
        let mut core = new_core(&tiny_knobs());
        core.open(0, 1.0);
        assert_eq!(core.wake(1.0), None, "an idle core with nothing to write waits for peers");

        // An answer begins to wait at t = 2; the peer takes three bytes at
        // t = 4, which restarts its clock, then nothing more.
        send(&mut core, 0, &wire(&RequestMsg::stats(1)), 2.0);
        assert_eq!(core.wake(2.0), Some(2.0 + WRITE_STALL));
        core.wrote(0, 0, 2.0 + WRITE_STALL - 1e-9);
        assert!(core.given_up().is_empty(), "not before the stall deadline");
        core.wrote(0, 3, 4.0);
        assert_eq!(core.wake(4.0), Some(4.0 + WRITE_STALL));
        core.wrote(0, 0, 4.0 + WRITE_STALL - 1e-9);
        assert!(core.given_up().is_empty());
        assert!(!core.output(0).is_empty());

        core.wrote(0, 0, 4.0 + WRITE_STALL);
        let [(0, reason)] = &core.given_up()[..] else { panic!("connection 0 is given up") };
        assert!(reason.contains("no byte"), "{reason}");
        assert!(core.output(0).is_empty() && core.reader(0).is_none());
        assert_eq!(core.wake(4.0 + WRITE_STALL), None, "nothing is left to wait for");
    }

    #[test]
    fn a_closed_connections_open_submits_are_cancelled_in_admission_order() {
        let mut core = new_core(&long_knobs());
        core.open(0, 0.0);
        core.open(1, 0.0);
        // Five searches of connection 0 (tokens 0–4), one of connection 1.
        for id in 0..5 {
            send(&mut core, 0, &wire(&RequestMsg::submit(10 + id, 0, vec![job(id as usize)])), 0.0);
        }
        send(&mut core, 1, &wire(&RequestMsg::submit(1, 1, vec![job(9)])), 0.0);
        for step in 1..4 {
            core.turn(step as f64 * 1e-3);
        }
        assert_eq!(core.stats().live_sessions, 6, "every search is live");

        // Each cancel ends a live session there and then, so the engine's
        // completions are in the order the cancels were made.
        core.closed(0, 0.01);
        assert!(core.reader(0).is_none() && core.given_up().is_empty());
        let completions = core.engine.poll(0.01);
        let order: Vec<u64> = completions.iter().map(|c| c.token).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        assert!(completions.iter().all(|c| c.cancelled));
        core.deliver(completions, 0.01);
        assert!(core.books.keys().eq([5].iter()), "connection 1's book alone is open");

        // Connection 1 cancels its own and drains: every accepted submit
        // ended, as done or cancelled, and nothing else.
        send(&mut core, 1, &wire(&RequestMsg::cancel(2, 1)), 0.02);
        core.turn(0.02);
        assert!(send(&mut core, 1, &wire(&RequestMsg::drain(3)), 0.03), "the drain completes");
        let kinds: Vec<String> = answers(&mut core, 1, 0.03).into_iter().map(|r| r.kind).collect();
        assert_eq!(kinds, ["accepted", "cancelled", "cancelled", "drained"]);
        let stats = core.stats();
        assert_eq!((stats.accepted, stats.cancelled), (6, 6));
        assert_eq!(stats.accepted, stats.completed_jobs + stats.cancelled_jobs);
        assert!(core.books.is_empty() && core.submit_index.is_empty());
    }

    /// What a peer does at a virtual instant.
    #[derive(Debug, Clone)]
    enum Step {
        Open(u64),
        /// Bytes that arrive in one read.
        Bytes(u64, Vec<u8>),
        /// The peer hangs up.
        Close(u64),
        /// The engine runs until nothing is due.
        Settle,
        /// The peer reads everything waiting for it.
        Read(u64),
    }

    /// Plays a transcript to a fresh core; returns every byte each
    /// connection was sent.
    fn replay(knobs: &ServerKnobs, transcript: &[(f64, Step)]) -> BTreeMap<u64, Vec<u8>> {
        let mut core = new_core(knobs);
        let mut sent: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (now, step) in transcript {
            match step {
                Step::Open(conn) => core.open(*conn, *now),
                Step::Bytes(conn, bytes) => {
                    send(&mut core, *conn, bytes, *now);
                }
                Step::Close(conn) => core.closed(*conn, *now),
                Step::Settle => settle(&mut core, *now),
                Step::Read(conn) => {
                    let output = core.output(*conn).to_vec();
                    core.wrote(*conn, output.len(), *now);
                    sent.entry(*conn).or_default().extend(output);
                }
            }
            assert!(core.given_up().is_empty(), "no connection is given up at {now}");
        }
        sent
    }

    #[test]
    fn a_recorded_transcript_replays_byte_for_byte() {
        use Step::*;
        let submit = |id, job_index| wire(&RequestMsg::submit(id, 0, vec![job(job_index)]));
        let stats = wire(&RequestMsg::stats(1));
        let (head, tail) = stats.split_at(7);
        // Connection 0 runs a cold search that overdraws the pace, is
        // bounced, and is admitted again once the budget has caught up;
        // connection 1 asks for stats in a frame split over two reads and
        // cancels a submit of its own; connection 2 hangs up with a submit
        // open; connection 0 drains.
        let transcript = [
            (0.0, Open(0)),
            (0.0, Open(1)),
            (0.0, Open(2)),
            (0.001, Bytes(0, submit(1, 0))),
            (0.001, Bytes(1, head.to_vec())),
            (0.002, Bytes(1, tail.to_vec())),
            (0.002, Bytes(2, submit(7, 1))),
            (0.002, Read(2)),
            (0.003, Close(2)),
            (0.003, Bytes(1, [submit(2, 2), wire(&RequestMsg::cancel(3, 2))].concat())),
            (0.004, Settle),
            (0.004, Read(1)),
            (0.005, Bytes(0, submit(2, 3))),
            (0.005, Read(0)),
            (1.0, Bytes(0, submit(3, 0))),
            (1.0, Settle),
            (1.1, Bytes(1, wire(&RequestMsg::stats(4)))),
            (1.1, Bytes(0, wire(&RequestMsg::drain(4)))),
            (1.1, Read(0)),
            (1.1, Read(1)),
        ];
        let knobs = paced_knobs(PACE_BURST_SEC + 0.02);
        let first = replay(&knobs, &transcript);
        assert_eq!(first, replay(&knobs, &transcript), "a replay is byte for byte the same");

        // The requests each connection sent, by id; every answer matches one
        // and none is missing or doubled.
        let requests: [&[(u64, PendingKind)]; 3] = [
            &[
                (1, PendingKind::Submit),
                (2, PendingKind::Submit),
                (3, PendingKind::Submit),
                (4, PendingKind::Drain),
            ],
            &[
                (1, PendingKind::Stats),
                (2, PendingKind::Submit),
                (3, PendingKind::Cancel),
                (4, PendingKind::Stats),
            ],
            &[(7, PendingKind::Submit)],
        ];
        let mut kinds = Vec::new();
        for (conn, sent) in requests.iter().enumerate() {
            let mut mux = Mux::new();
            for &(id, kind) in *sent {
                mux.sent(id, kind).expect("ids are unique per connection");
            }
            let mut bytes = first.get(&(conn as u64)).map_or(&[][..], Vec::as_slice);
            let mut seen = Vec::new();
            while let Some(payload) = read_frame(&mut bytes, MAX_FRAME).expect("whole frames") {
                let resp: ResponseMsg = decode(&payload).expect("a response");
                mux.on_response(&resp).expect("one verdict a submit, one terminal an accepted one");
                seen.push(resp.kind);
            }
            // The connection that hung up was sent its verdict, never its
            // terminal: nobody was left to read it.
            assert_eq!(mux.outstanding(), usize::from(conn == 2), "connection {conn}: {seen:?}");
            kinds.push(seen);
        }
        assert_eq!(kinds[0], ["accepted", "done", "busy", "accepted", "done", "drained"]);
        assert_eq!(kinds[1], ["stats", "accepted", "cancelled", "cancelled", "stats"]);
        assert_eq!(kinds[2], ["accepted"]);
    }
}
