//! `rpc_mix` and `rpc_hot`: one generator, one TCP connection, the shipped
//! `magma_server` binary as a child process with its shipped defaults.
//!
//! Each run has an open-loop phase (Poisson arrivals at a fixed rate, every
//! latency timed from the request's *due* time) followed by a closed-loop
//! phase (eight requests outstanding) that measures capacity.

use crate::inputs::{self, GroupSource, RPC_GROUP};
use crate::stats;
use crate::tracer::Tracer;
use crate::{Args, EndToEnd, Layers};
use magma_model::{Job, TenantMix};
use magma_platform::settings::ServerKnobs;
use magma_serve::{Admission, EngineConfig, EngineStats, ServeEngine};
use magma_server::{Client, Event};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests kept outstanding in the closed-loop phase and during warm-up.
const OUTSTANDING: usize = 8;
/// A request unanswered this long after the last send is a failure.
const STRAGGLER_WAIT: Duration = Duration::from_secs(20);
/// Share of `--seconds` the open-loop phase takes; the closed loop takes the
/// rest.
const OPEN_SHARE: f64 = 0.65;
/// Generator lateness (p99) above which a run is reported as disturbed.
pub const LATE_LIMIT_MS: f64 = 10.0;

/// What distinguishes the two RPC workloads.
pub struct Profile {
    /// Open-loop arrival rate, groups per second: fixed at about 30 % of
    /// capacity, because latency rises before capacity moves as the rate
    /// nears it. At 6/s on `rpc_mix` about one request in eight queues
    /// behind another on its shard, which puts the p90 on the edge between
    /// the two modes; at 4/s it stays in the unqueued one until capacity
    /// really falls.
    pub rate: f64,
    /// Distinct groups the requests draw from; 0 means every request is a
    /// group the daemon has never seen.
    pub hot_set: usize,
    /// How often the set-up is repeated for its median: often where it is
    /// cheap, three times where it includes the warm-up searches.
    pub setups: usize,
    /// Latency limit of `slo_share`.
    pub limit_ms: f64,
    /// Range the daemon's shard-cache hit share must fall in for the
    /// workload to be exercising what it claims to.
    pub hit_share: (f64, f64),
}

pub const MIX: Profile =
    Profile { rate: 4.0, hot_set: 0, setups: 9, limit_ms: 1000.0, hit_share: (0.0, 0.3) };
pub const HOT: Profile =
    Profile { rate: 64.0, hot_set: 16, setups: 3, limit_ms: 100.0, hit_share: (0.8, 1.0) };

/// The daemon child. Dropping it kills the process and waits for it, so no
/// failure path leaves a daemon behind.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(server: &Path) -> Result<Self, String> {
        let mut child = Command::new(server)
            .env("MAGMA_SERVER_ADDR", "127.0.0.1:0")
            .env("MAGMA_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", server.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon { child, stdout, addr: String::new() };
        let mut line = String::new();
        loop {
            line.clear();
            match daemon.stdout.read_line(&mut line) {
                Ok(0) => return Err("the daemon exited before it listened".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("reading the daemon's output: {e}")),
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                daemon.addr = addr.to_string();
                return Ok(daemon);
            }
        }
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }

    /// Waits for the drained daemon to exit on its own.
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("the daemon did not exit after its drain".to_string()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Where the next request's group comes from.
struct Groups {
    source: GroupSource,
    hot: Vec<(usize, Vec<Job>)>,
    pick: StdRng,
    tenants: usize,
}

impl Groups {
    fn new(profile: &Profile, seed: u64, tenants: usize) -> Self {
        let mut groups = Groups {
            source: GroupSource::new(inputs::rng(seed, 1)),
            hot: Vec::new(),
            pick: inputs::rng(seed, 2),
            tenants,
        };
        groups.hot = (0..profile.hot_set).map(|_| groups.fresh()).collect();
        groups
    }

    fn fresh(&mut self) -> (usize, Vec<Job>) {
        (self.pick.gen_range(0..self.tenants), self.source.group(RPC_GROUP))
    }

    fn next(&mut self) -> (usize, Vec<Job>) {
        if self.hot.is_empty() {
            self.fresh()
        } else {
            self.hot[self.pick.gen_range(0..self.hot.len())].clone()
        }
    }
}

/// Timeline of one request, in seconds since the connection's origin.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: f64,
    sent: f64,
    accepted: Option<f64>,
    open_loop: bool,
}

/// A request the daemon has not finished: its timeline, and the group in
/// case the daemon answers `busy` and it has to be sent again.
struct Pending {
    request: Sent,
    tenant: usize,
    jobs: Vec<Job>,
}

/// Shortest and longest wait before a request answered `busy` is sent
/// again, whatever the daemon's hint says.
const MIN_BACKOFF_SEC: f64 = 0.01;
const MAX_BACKOFF_SEC: f64 = 0.5;

/// A finished request.
#[derive(Debug, Clone, Copy)]
struct Answered {
    request: Sent,
    done: f64,
}

/// The connection plus the books on every request sent over it.
struct Session {
    // Declared before `daemon`: the socket closes before the child dies.
    client: Client,
    daemon: Daemon,
    origin: Instant,
    pending: HashMap<u64, Pending>,
    /// Requests answered `busy`, with the time each is sent again.
    backoff: Vec<(f64, Pending)>,
    answered: Vec<Answered>,
    /// Requests sent, each counted once however often it was sent again.
    sends: u64,
    /// `busy` answers.
    busy: u64,
    errors: u64,
    timed_out: u64,
    unanswered: u64,
    problems: Vec<String>,
}

impl Session {
    /// Starts the daemon, connects and (on `rpc_hot`) sends each hot group
    /// once so the timed phases find it cached.
    fn start(server: &Path, groups: &Groups, max_frame: usize) -> Result<Self, String> {
        let daemon = Daemon::spawn(server)?;
        let client = Client::connect(&daemon.addr, max_frame)
            .map_err(|e| format!("connecting to {}: {e}", daemon.addr))?;
        let mut s = Session {
            client,
            daemon,
            origin: Instant::now(),
            pending: HashMap::new(),
            backoff: Vec::new(),
            answered: Vec::new(),
            sends: 0,
            busy: 0,
            errors: 0,
            timed_out: 0,
            unanswered: 0,
            problems: Vec::new(),
        };
        for (tenant, jobs) in &groups.hot {
            while s.in_flight() >= OUTSTANDING {
                s.pump(STRAGGLER_WAIT)?;
            }
            let now = s.now();
            s.send(now, false, *tenant, jobs.clone())?;
        }
        s.settle()?;
        if s.failures() != 0 {
            return Err("a warm-up request failed".to_string());
        }
        Ok(s)
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// A `busy` answer is backpressure, not a failure: the request is sent
    /// again after the daemon's hint and keeps its due time.
    fn failures(&self) -> u64 {
        self.errors + self.timed_out + self.unanswered
    }

    /// Requests sent and not finished, those waiting to be sent again too.
    fn in_flight(&self) -> usize {
        self.pending.len() + self.backoff.len()
    }

    fn send(
        &mut self,
        due: f64,
        open_loop: bool,
        tenant: usize,
        jobs: Vec<Job>,
    ) -> Result<f64, String> {
        let sent = self.now();
        self.sends += 1;
        self.submit(Pending {
            request: Sent { due, sent, accepted: None, open_loop },
            tenant,
            jobs,
        })?;
        Ok(sent)
    }

    fn submit(&mut self, pending: Pending) -> Result<(), String> {
        let id = self
            .client
            .submit(pending.tenant, pending.jobs.clone())
            .map_err(|e| format!("submit: {e}"))?;
        self.pending.insert(id, pending);
        Ok(())
    }

    /// Sends again what was answered `busy` long enough ago, then waits up to
    /// `timeout` (or until the next such request is due) for one server event
    /// and books it. The client's multiplexer already rejects a second
    /// verdict or a second terminal for one request, so each request is
    /// answered at most once.
    fn pump(&mut self, timeout: Duration) -> Result<(), String> {
        let mut wait = timeout;
        let mut i = 0;
        while i < self.backoff.len() {
            let left = self.backoff[i].0 - self.now();
            if left <= 0.0 {
                let (_, pending) = self.backoff.swap_remove(i);
                self.submit(pending)?;
            } else {
                wait = wait.min(Duration::from_secs_f64(left));
                i += 1;
            }
        }
        let Some(event) = self.client.poll_event(wait).map_err(|e| format!("poll: {e}"))? else {
            return Ok(());
        };
        let now = self.now();
        match event {
            Event::Accepted { id } => match self.pending.get_mut(&id) {
                Some(pending) => pending.request.accepted = Some(now),
                None => self.problems.push(format!("request {id} was accepted but never sent")),
            },
            Event::Busy { id, retry_after_sec } => {
                self.busy += 1;
                match self.pending.remove(&id) {
                    Some(pending) => {
                        // `max` then `min` also turn a hint that is not a number
                        // into a wait inside the range.
                        let wait = retry_after_sec.max(MIN_BACKOFF_SEC).min(MAX_BACKOFF_SEC);
                        self.backoff.push((now + wait, pending));
                    }
                    None => self.problems.push(format!("request {id} was refused but never sent")),
                }
            }
            Event::Error { id, error } => {
                self.pending.remove(&id);
                self.errors += 1;
                self.problems.push(format!("request {id} was answered with an error: {error}"));
            }
            Event::Done { id, jobs, timed_out } => {
                let Some(Pending { request, .. }) = self.pending.remove(&id) else {
                    self.problems.push(format!("request {id} finished but was not pending"));
                    return Ok(());
                };
                if request.accepted.is_none() || jobs != RPC_GROUP {
                    self.problems.push(format!("request {id} finished {jobs} jobs unaccepted"));
                }
                if timed_out {
                    self.timed_out += 1;
                } else {
                    self.answered.push(Answered { request, done: now });
                }
            }
            other => self.problems.push(format!("unexpected event {other:?}")),
        }
        Ok(())
    }

    /// Waits until nothing is in flight; what still is when the straggler
    /// wait runs out is counted unanswered.
    fn settle(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + STRAGGLER_WAIT;
        while self.in_flight() != 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.unanswered += self.in_flight() as u64;
                self.pending.clear();
                self.backoff.clear();
                break;
            }
            self.pump(left)?;
        }
        Ok(())
    }

    /// Open loop: sends one group at each of `arrivals` (seconds from now),
    /// whatever the daemon is doing. Returns how late each send was, in ms.
    fn open_loop(
        &mut self,
        arrivals: &[f64],
        next_group: &mut dyn FnMut() -> (usize, Vec<Job>),
    ) -> Result<Vec<f64>, String> {
        let start = self.now();
        let mut late_ms = Vec::with_capacity(arrivals.len());
        for arrival in arrivals {
            let due = start + arrival;
            loop {
                let wait = due - self.now();
                if wait <= 0.0 {
                    break;
                }
                self.pump(Duration::from_secs_f64(wait))?;
            }
            let (tenant, jobs) = next_group();
            late_ms.push((self.send(due, true, tenant, jobs)? - due) * 1e3);
        }
        self.settle()?;
        Ok(late_ms)
    }

    /// Closed loop: keeps [`OUTSTANDING`] requests in flight for `seconds`.
    /// Returns groups completed per second between the first and the last
    /// completion inside the window, when the loop ran at full depth.
    fn closed_loop(&mut self, seconds: f64, groups: &mut Groups) -> Result<f64, String> {
        let start = self.now();
        let first = self.answered.len();
        let mut in_window = first;
        while self.now() - start < seconds {
            while self.in_flight() < OUTSTANDING {
                let (tenant, jobs) = groups.next();
                let now = self.now();
                self.send(now, false, tenant, jobs)?;
            }
            let left = seconds - (self.now() - start);
            self.pump(Duration::from_secs_f64(left.max(0.0)))?;
            in_window = self.answered.len();
        }
        self.settle()?;
        let window = &self.answered[first..in_window];
        if window.len() < 2 {
            return Err(format!("the closed loop completed {} groups", window.len()));
        }
        Ok((window.len() - 1) as f64 / (window[window.len() - 1].done - window[0].done))
    }

    /// Drains the daemon, waits for it to exit and checks its final counters
    /// against this session's own books. Returns the counters.
    fn drain(mut self, valid_hits: (f64, f64)) -> Result<(EngineStats, Vec<String>), String> {
        self.client.drain().map_err(|e| format!("drain: {e}"))?;
        let deadline = Instant::now() + STRAGGLER_WAIT;
        let stats = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("the daemon did not answer the drain".to_string());
            }
            match self.client.poll_event(left).map_err(|e| format!("drain: {e}"))? {
                Some(Event::Drained { stats: Some(stats), .. }) => break stats,
                Some(other) => self.problems.push(format!("unexpected event {other:?}")),
                None => {}
            }
        };
        self.daemon.wait_exit()?;
        let done = self.sends - self.errors - self.unanswered;
        let mut problems = std::mem::take(&mut self.problems);
        if stats.accepted != done
            || stats.rejected != self.busy
            || stats.completed_jobs != done * RPC_GROUP as u64
            || stats.cancelled != 0
            || stats.cancelled_jobs != 0
            || stats.queued_jobs != 0
            || stats.live_sessions != 0
        {
            problems
                .push(format!("the daemon's counters disagree with {done} groups done: {stats:?}"));
        }
        let hits = hit_share(&stats);
        if hits < valid_hits.0 || hits > valid_hits.1 {
            problems.push(format!("cache hit share {hits} is outside {valid_hits:?}"));
        }
        Ok((stats, problems))
    }
}

/// Share of the daemon's shard-cache lookups that hit (exact or near).
fn hit_share(stats: &EngineStats) -> f64 {
    stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64
}

fn open_latencies_ms(answered: &[Answered]) -> Vec<f64> {
    answered
        .iter()
        .filter(|a| a.request.open_loop)
        .map(|a| (a.done - a.request.due) * 1e3)
        .collect()
}

/// One untraced run: set-up (repeated, median), open loop, closed loop,
/// drain.
pub fn run(profile: &Profile, args: &Args) -> Result<EndToEnd, String> {
    let knobs = ServerKnobs::full();
    let mut groups = Groups::new(profile, args.seed, knobs.fleet.tenants);
    let (session, setup_s) = stats::timed_setups(profile.setups, || {
        Session::start(&args.server, &groups, knobs.max_frame_bytes)
    });
    let mut s = session?;
    let warm_ups = s.sends;
    let cpu_before = stats::cpu_ms(s.daemon.pid())?;

    let open_s = args.seconds * OPEN_SHARE;
    let arrivals = inputs::poisson_times(&mut inputs::rng(args.seed, 3), profile.rate, open_s);
    let late_ms = s.open_loop(&arrivals, &mut || groups.next())?;
    let capacity = s.closed_loop(args.seconds - open_s, &mut groups)?;

    let cpu_ms = stats::cpu_ms(s.daemon.pid())? - cpu_before;
    let peak_rss_mb = stats::peak_rss_mb(s.daemon.pid())?;
    let latency_ms = open_latencies_ms(&s.answered);
    let attempted = s.sends - warm_ups;
    let failed = s.failures();
    let late_p99 = stats::percentile(&late_ms, 0.99);
    let (stats, problems) = s.drain(profile.hit_share)?;

    let mut out = EndToEnd {
        setup_s: stats::median(&setup_s),
        throughput_per_s: capacity,
        within_limit: latency_ms.iter().filter(|&&ms| ms <= profile.limit_ms).count() as u64,
        limited: arrivals.len() as u64,
        latency_ms,
        attempted,
        failed,
        cpu_ms_per_op: cpu_ms / (attempted - failed).max(1) as f64,
        peak_rss_mb,
        problems,
        ..EndToEnd::default()
    };
    out.notes.push(format!(
        "open loop {} sends at {}/s, closed loop {} sends, {} busy answers; generator lateness \
         p99 {late_p99} ms; daemon cache {}/{}/{} hit/near/miss",
        arrivals.len(),
        profile.rate,
        attempted - arrivals.len() as u64,
        stats.rejected,
        stats.cache_hits,
        stats.cache_near_hits,
        stats.cache_misses
    ));
    if late_p99 > LATE_LIMIT_MS {
        out.notes.push(format!("disturbed: generator lateness p99 {late_p99} ms"));
    }
    Ok(out)
}

/// Replays `requests` one at a time into an in-process engine that is fed
/// `Instant` time and polled without pause: no socket, no tick, no queue.
/// What is left is the service time a transport change could at best reach.
fn replay(
    hot: &[(usize, Vec<Job>)],
    requests: Vec<(usize, Vec<Job>)>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<f64, String> {
    let knobs = ServerKnobs::full();
    let mix = TenantMix::synthetic(knobs.fleet.tenants, knobs.fleet.serve.seed);
    let mut engine = ServeEngine::new(EngineConfig::from_knobs(&knobs), mix);
    let origin = Instant::now();
    let (mut service_ms, mut polls_per_group, mut poll_us) = (Vec::new(), Vec::new(), Vec::new());
    let warm_ups = hot.len();
    for (token, (tenant, jobs)) in hot.iter().cloned().chain(requests).enumerate() {
        let timed = token >= warm_ups;
        let root = tracer.begin("engine.request", None);
        let span = tracer.begin("engine.submit", Some(root));
        let verdict = engine.submit(origin.elapsed().as_secs_f64(), token as u64, tenant, jobs);
        let submit_ns = tracer.end(span);
        if verdict != Admission::Accepted {
            return Err(format!("the in-process engine answered {verdict:?}"));
        }
        let (mut finished, mut polls) = (0, 0u64);
        while finished < RPC_GROUP {
            let span = tracer.begin("engine.poll", Some(root));
            finished += engine.poll(origin.elapsed().as_secs_f64()).len();
            let poll_ns = tracer.end(span);
            polls += 1;
            if timed {
                poll_us.push(poll_ns as f64 / 1e3);
            }
        }
        let request_ns = tracer.end(root);
        if timed {
            layers.push_sample("serve.engine.submit_us", submit_ns as f64 / 1e3);
            service_ms.push(request_ns as f64 / 1e6);
            polls_per_group.push(polls as f64);
        }
    }
    layers.set("serve.engine.poll_us_p50", stats::median(&poll_us));
    layers.set("serve.engine.polls_per_group", stats::median(&polls_per_group));
    let service = stats::median(&service_ms);
    layers.set("serve.engine.service_ms_p50", service);
    Ok(service)
}

/// The traced run: idle CPU, a shorter open loop with a span per request,
/// then the same requests replayed into an in-process engine.
pub fn trace(
    profile: &Profile,
    args: &Args,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let knobs = ServerKnobs::full();
    let mut groups = Groups::new(profile, args.seed, knobs.fleet.tenants);
    let mut s = Session::start(&args.server, &groups, knobs.max_frame_bytes)?;

    let idle_before = stats::cpu_ms(s.daemon.pid())?;
    std::thread::sleep(Duration::from_secs(2));
    layers.set(
        "server.daemon.idle_cpu_ms_per_s",
        (stats::cpu_ms(s.daemon.pid())? - idle_before) / 2.0,
    );

    let warm_ups = s.sends;
    let cpu_before = stats::cpu_ms(s.daemon.pid())?;
    let arrivals =
        inputs::poisson_times(&mut inputs::rng(args.seed, 3), profile.rate, args.seconds * 0.4);
    // The replay needs the very groups the open loop sent.
    let sent_groups: Vec<_> = arrivals.iter().map(|_| groups.next()).collect();
    let mut to_send = sent_groups.iter().cloned();
    let late_ms = s.open_loop(&arrivals, &mut || to_send.next().expect("one group per arrival"))?;
    let cpu_ms = stats::cpu_ms(s.daemon.pid())? - cpu_before;

    for a in s.answered.iter().filter(|a| a.request.open_loop) {
        let r = a.request;
        let ns = |sec: f64| (sec * 1e9) as u64;
        let root = tracer.record("rpc.request", None, s.origin, ns(r.due), ns(a.done));
        tracer.record("rpc.late", Some(root), s.origin, ns(r.due), ns(r.sent));
        let accepted = r.accepted.unwrap_or(a.done);
        tracer.record("rpc.admit", Some(root), s.origin, ns(r.sent), ns(accepted));
        tracer.record("rpc.serve", Some(root), s.origin, ns(accepted), ns(a.done));
    }
    let latency_ms = open_latencies_ms(&s.answered);
    if latency_ms.is_empty() {
        return Err("no open-loop request was answered".to_string());
    }
    let done = s.sends - warm_ups - s.failures();
    layers.attempted += s.sends - warm_ups;
    layers.failed += s.failures();
    layers.set("server.client.sends", (s.sends - warm_ups) as f64);
    layers.set("server.client.busy", s.busy as f64);
    layers.set("server.client.errors", s.errors as f64);
    layers.set("server.client.timed_out", s.timed_out as f64);
    layers.set("server.client.unanswered", s.unanswered as f64);
    layers.set("server.daemon.cpu_ms_per_group", cpu_ms / done.max(1) as f64);
    layers.set("bench.gen.late_ms_p99", stats::percentile(&late_ms, 0.99));
    let p50 = stats::percentile(&latency_ms, 0.5);
    layers.set("server.client.latency_ms_p50", p50);
    layers.set("server.client.latency_ms_p99", stats::percentile(&latency_ms, 0.99));

    let (stats, problems) = s.drain(profile.hit_share)?;
    layers.problems.extend(problems);
    layers.set("serve.cache.hit_share", hit_share(&stats));

    let service = replay(&groups.hot, sent_groups, tracer, layers)?;
    // By construction the two layers add up to the client's median latency.
    layers.set("server.daemon.wait_ms_p50", p50 - service);
    layers.set("server.daemon.wait_share", (p50 - service) / p50);
    Ok(())
}
