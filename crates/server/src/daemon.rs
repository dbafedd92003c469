//! The serving daemon: a TCP front-end over [`magma_serve::ServeEngine`],
//! served by one thread.
//!
//! Layout — one reactor thread owns the engine, the listener and every
//! socket, all non-blocking, and waits in `poll(2)` for whichever comes
//! first: a connection, a request, a socket that takes output again, or the
//! engine's next deadline. Nothing wakes on a timer:
//!
//! ```text
//!   listener ─┐                ┌─────────── reactor thread ────────────┐
//!   conn 0 ───┼──▶ poll(2) ──▶ │ 1. accept what is pending             │
//!   conn 1 ───┤    timeout =   │ 2. read each readable socket once     │
//!   conn … ───┘    next_wake   │ 3. apply the requests it completed    │
//!       ▲                      │ 4. poll the engine, charge, deliver   │
//!       └──── write ◀───────── │ 5. write what each socket takes       │
//!                              └───────────────────────────────────────┘
//! ```
//!
//! Every request is applied against the wall clock
//! (`submit`/`cancel`/`drain`/`stats`) where it is read: a connection's
//! bytes go through a `FrameReader`. While the admission pace (below)
//! would bounce a submit, a request is parsed only as far as its
//! [`Envelope`] — id, verb, tenant, target — with the jobs checked to be
//! well-formed JSON; `busy` is decided on that alone, so refusing a group
//! costs a scan of its frame. While the pace would let one in, the jobs are
//! built in the same pass (`Envelope::decode_building`) rather than walked
//! twice. The reader buffers at most one frame: a client that sends faster
//! than its requests are applied is held back by TCP. The loop is
//! **work-conserving**: how long `poll` may wait is the engine's own answer
//! ([`ServeEngine::next_wake`]):
//!
//! * [`Wake::Now`] — searches are live or a group is ready to cut: poll
//!   again, back to back, and look at the sockets without waiting once
//!   50 µs have passed since the last look. A look is a system call: one
//!   after each of a never-seen group's ≈ 116 slices cost it ≈ 40 µs of
//!   CPU. A `cancel`, `stats` or `drain` still waits for at most 50 µs and
//!   one scheduler slice.
//! * [`Wake::At`] — only a partial group is waiting out its admission
//!   deadline: wait for a socket until that time, rounded up to the next
//!   millisecond so the deadline never fires early.
//! * [`Wake::Idle`] — nothing queued, nothing live: wait until a socket is
//!   ready. An idle daemon uses no CPU.
//!
//! Work-conserving is about what was admitted; *how much* is admitted is
//! paced. The reactor charges the mapper work the engine does (groups cut,
//! samples evaluated) against a budget of one provisioned mapper-second per
//! wall-clock second, and while the charges run ahead of the clock — more
//! than a quarter-second burst ahead of an idle daemon's — a submit is
//! answered `busy` with the time the budget needs, exactly like the engine's
//! own backpressure. A never-seen group is charged three times what it costs
//! on the reference box, so an open-loop client at a sane rate never meets
//! the pace, while a client that saturates the daemon gets the same
//! throughput on every host and in every run instead of the host's CPU speed
//! of the minute (see `Pace`).
//!
//! The reactor never blocks on a socket. Answers queue in their
//! connection's output buffer and go out as far as the socket takes them; a
//! peer that stops reading leaves them there and loses its connection once
//! more than `OUTBOX_FRAMES` are waiting, or once it has accepted no byte
//! for five seconds — every other tenant is served on. When a connection
//! goes away, for whatever reason, the submits it still has open are
//! cancelled: nobody is left to read their answers.
//!
//! A `drain` request finishes every live session, persists shard caches,
//! answers with the final stats and shuts the whole daemon down: no request
//! is read after it, every connection's output is written out (a stalled
//! peer is given up after the same five seconds) and closed, and
//! [`Server::join`] returns the final stats.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use magma_model::{Job, TenantMix};
use magma_serve::{
    Admission, EngineConfig, EngineStats, JobCompletion, MapperWork, ServeEngine, Wake,
};

use crate::frame::{write_frame, FrameReader};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::proto::{
    decode_jobs, encode, Envelope, ResponseMsg, KIND_ACCEPTED, KIND_BUSY, KIND_CANCELLED,
    KIND_DONE, KIND_DRAINED, KIND_STATS, VERB_CANCEL, VERB_DRAIN, VERB_STATS, VERB_SUBMIT,
};

/// Answers a connection may have waiting behind its socket's buffers. They
/// only pile up once the peer is already megabytes behind; the bound is
/// generous because one read can complete a whole batch of pipelined
/// requests, all answered before the next write.
const OUTBOX_FRAMES: usize = 1024;

/// How long a connection with output waiting may accept no byte before it
/// is given up. Also bounds how long a stalled peer can hold up the daemon's
/// exit after a drain.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// How long the engine may work, while it has work due now, before the
/// sockets are looked at again (see the module docs).
const LOOK_EVERY_SEC: f64 = 50e-6;

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
/// notices, and the reactor stays work-conserving — what is admitted
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
struct Book {
    conn: u64,
    request_id: u64,
    total: usize,
    finished: usize,
    any_timed_out: bool,
    cancelled: bool,
}

/// A running serving daemon. Dropping the handle does not stop it; send a
/// `drain` request (e.g. [`crate::client::Client::drain`]) and call
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    reactor: JoinHandle<EngineStats>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the reactor
    /// thread — the daemon's only one, however many connections it serves —
    /// and returns immediately.
    pub fn start(
        addr: &str,
        max_frame_bytes: usize,
        config: EngineConfig,
        mix: TenantMix,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let reactor = std::thread::spawn(move || {
            Serving::new(ServeEngine::new(config, mix), listener, max_frame_bytes).run()
        });
        Ok(Server { addr: bound, reactor })
    }

    /// The address the daemon actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a drain shuts the daemon down; returns the engine's
    /// final counters.
    pub fn join(self) -> EngineStats {
        self.reactor.join().expect("reactor thread panicked")
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    input: FrameReader,
    /// Encoded frames the socket has not taken yet.
    output: Vec<u8>,
    /// Where each frame in `output` ends: the answers waiting.
    frame_ends: VecDeque<usize>,
    /// When the peer last accepted a byte, or when output began to wait.
    progress: Instant,
}

impl Conn {
    /// Writes as much of the output as the socket takes without blocking.
    fn flush(&mut self, now: Instant) -> io::Result<()> {
        let mut written = 0;
        while written < self.output.len() {
            match (&self.stream).write(&self.output[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if written > 0 {
            self.progress = now;
            self.output.drain(..written);
            while self.frame_ends.front().is_some_and(|&end| end <= written) {
                self.frame_ends.pop_front();
            }
            self.frame_ends.iter_mut().for_each(|end| *end -= written);
        }
        Ok(())
    }

    /// Until when a peer with output waiting may go on accepting no byte.
    fn stall_deadline(&self) -> Option<Instant> {
        (!self.output.is_empty()).then(|| self.progress + WRITE_STALL)
    }
}

/// Everything the reactor thread owns.
struct Serving {
    engine: ServeEngine,
    /// Origin of the engine's `now_sec` domain.
    start: Instant,
    listener: TcpListener,
    max_frame_bytes: usize,
    /// By accept order, which is the order they are read in.
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    /// Engine tokens are daemon-assigned; books map them back to the
    /// originating (connection, request id) pair.
    next_token: u64,
    books: HashMap<u64, Book>,
    submit_index: HashMap<(u64, u64), u64>,
    pace: Pace,
    /// Submits the pace answered `busy` (the engine counts only its own).
    paced: u64,
}

impl Serving {
    fn new(engine: ServeEngine, listener: TcpListener, max_frame_bytes: usize) -> Self {
        Serving {
            engine,
            start: Instant::now(),
            listener,
            max_frame_bytes,
            conns: BTreeMap::new(),
            next_conn: 0,
            next_token: 0,
            books: HashMap::new(),
            submit_index: HashMap::new(),
            pace: Pace::new(),
            paced: 0,
        }
    }

    /// The engine's counters, with the submits the pace bounced counted as
    /// rejected: a client cannot tell the two kinds of `busy` apart.
    fn stats(&self) -> EngineStats {
        let stats = self.engine.stats();
        EngineStats { rejected: stats.rejected + self.paced, ..stats }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The reactor thread body: waits in `poll` as long as the engine says
    /// it can (see the module docs), applies the requests it reads against
    /// the wall clock and delivers completions; on drain finishes
    /// everything, flushes every connection and returns the final counters.
    fn run(mut self) -> EngineStats {
        let mut fds = Vec::new();
        let mut ids = Vec::new();
        let mut looked = f64::NEG_INFINITY;
        'serve: loop {
            let now = self.now();
            let engine_wait = match self.engine.next_wake(now) {
                Wake::Now => Some(Duration::ZERO),
                // Out of `Duration`'s range means "longer than anyone waits".
                Wake::At(due) => {
                    Some(Duration::try_from_secs_f64((due - now).max(0.0)).unwrap_or(Duration::MAX))
                }
                Wake::Idle => None,
            };
            if engine_wait != Some(Duration::ZERO) || now - looked >= LOOK_EVERY_SEC {
                fds.clear();
                ids.clear();
                fds.push(PollFd::new(&self.listener, POLLIN));
                for (&id, conn) in &self.conns {
                    let events = if conn.output.is_empty() { POLLIN } else { POLLIN | POLLOUT };
                    fds.push(PollFd::new(&conn.stream, events));
                    ids.push(id);
                }
                let timeout = [engine_wait, self.stall_wait()].into_iter().flatten().min();
                poll::wait(&mut fds, timeout).expect("poll(2) on the daemon's own sockets");
                looked = self.now();

                if fds[0].readable() {
                    self.accept();
                }
                for (fd, &id) in fds[1..].iter().zip(&ids) {
                    if fd.readable() && self.read(id) {
                        break 'serve;
                    }
                }
            }
            let completions = self.engine.poll(self.now());
            self.pace.charge(self.now(), self.engine.mapper_work());
            self.deliver(completions);
            self.flush_all();
        }

        // Drained: every connection's output goes out, side by side, and
        // each is closed once it has, or once its peer stalls.
        loop {
            self.flush_all();
            self.conns.retain(|_, conn| {
                let written = conn.output.is_empty();
                if written {
                    hang_up(conn);
                }
                !written
            });
            if self.conns.is_empty() {
                return self.stats();
            }
            fds.clear();
            fds.extend(self.conns.values().map(|conn| PollFd::new(&conn.stream, POLLOUT)));
            poll::wait(&mut fds, self.stall_wait()).expect("poll(2) on the daemon's own sockets");
        }
    }

    /// How long `poll` may wait before some connection's peer has stalled
    /// for too long; `None` while no output waits.
    fn stall_wait(&self) -> Option<Duration> {
        let deadline = self.conns.values().filter_map(Conn::stall_deadline).min()?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }

    /// Accepts every connection waiting on the listener.
    fn accept(&mut self) {
        while let Ok((stream, _peer)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let conn = Conn {
                stream,
                input: FrameReader::new(self.max_frame_bytes),
                output: Vec::new(),
                frame_ends: VecDeque::new(),
                progress: Instant::now(),
            };
            self.conns.insert(self.next_conn, conn);
            self.next_conn += 1;
        }
    }

    /// Reads once from a readable connection and applies the requests that
    /// read completed. Returns `true` once a drain has completed.
    fn read(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else { return false };
        let ended = match conn.input.fill(&mut &conn.stream) {
            Ok(n) => n == 0,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                return false
            }
            // An oversized frame, a reset: the connection is gone.
            Err(_) => true,
        };
        // A submit's jobs are built with its envelope while the pace would
        // let it in (it stays open while requests are applied), and left as
        // text while it would bounce it.
        let admitting = self.pace.wait(self.now()).is_none();
        // Requests are applied in order until none is left or the connection
        // is dropped: a frame that fails to decode, an answer over the limit.
        while let Some(conn) = self.conns.get_mut(&id) {
            let request = match conn.input.next_frame() {
                Ok(Some(payload)) if admitting => Envelope::decode_building(payload),
                Ok(Some(payload)) => Envelope::decode(payload).map(|msg| (msg, None)),
                Ok(None) => break,
                Err(_) => {
                    self.drop_conn(id);
                    return false;
                }
            };
            match request {
                Ok((msg, built)) => {
                    if self.apply(id, msg, built) {
                        return true;
                    }
                }
                Err(reason) => self.drop_malformed(id, &reason),
            }
        }
        if ended {
            self.drop_conn(id);
        }
        false
    }

    /// Applies one request from `conn`, with its jobs when they were built
    /// with the envelope. Returns `true` once a drain has completed.
    fn apply(&mut self, conn: u64, msg: Envelope, built: Option<Vec<Job>>) -> bool {
        let now = self.now();
        match msg.verb.as_str() {
            VERB_SUBMIT => {
                let raw = msg.jobs.as_deref();
                let resp = match msg.tenant {
                    Some(tenant) if built.is_some() || raw.is_some() => {
                        let token = self.next_token;
                        let mut total = 0;
                        // The pace first: only an admitted submit has its
                        // jobs decoded.
                        let verdict = match self.pace.wait(now) {
                            Some(retry_after_sec) => {
                                self.paced += 1;
                                Admission::Busy { retry_after_sec }
                            }
                            None => match built
                                .map_or_else(|| decode_jobs(raw.unwrap_or_default()), Ok)
                            {
                                Ok(jobs) => {
                                    total = jobs.len();
                                    self.engine.submit(now, token, tenant, jobs)
                                }
                                Err(reason) => {
                                    self.drop_malformed(conn, &reason);
                                    return false;
                                }
                            },
                        };
                        match verdict {
                            Admission::Accepted => {
                                self.next_token += 1;
                                self.books.insert(
                                    token,
                                    Book {
                                        conn,
                                        request_id: msg.id,
                                        total,
                                        finished: 0,
                                        any_timed_out: false,
                                        cancelled: false,
                                    },
                                );
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
                };
                self.send(conn, &resp);
            }
            VERB_CANCEL => {
                // The target's `cancelled` terminal follows with the next
                // poll's completions.
                let resp = match msg.target.and_then(|t| self.submit_index.get(&(conn, t))) {
                    Some(&token) => {
                        if self.engine.cancel(now, token) {
                            if let Some(book) = self.books.get_mut(&token) {
                                book.cancelled = true;
                            }
                            ResponseMsg::new(msg.id, KIND_CANCELLED)
                        } else {
                            ResponseMsg::error(msg.id, "target is not cancellable")
                        }
                    }
                    None => ResponseMsg::error(msg.id, "cancel target unknown"),
                };
                self.send(conn, &resp);
            }
            VERB_STATS => {
                let resp = ResponseMsg {
                    stats: Some(self.stats()),
                    ..ResponseMsg::new(msg.id, KIND_STATS)
                };
                self.send(conn, &resp);
            }
            VERB_DRAIN => {
                let completions = self.engine.drain(now);
                self.deliver(completions);
                let stats = self.stats();
                let resp = ResponseMsg {
                    jobs: Some(stats.completed_jobs as usize),
                    stats: Some(stats),
                    ..ResponseMsg::new(msg.id, KIND_DRAINED)
                };
                self.send(conn, &resp);
                return true;
            }
            other => {
                // Echo a prefix only: no response is larger than the stats
                // block, so the output bound is a bound in bytes too.
                let shown: String = other.chars().take(32).collect();
                let resp = ResponseMsg::error(msg.id, &format!("unknown verb {shown:?}"));
                self.send(conn, &resp);
            }
        }
        false
    }

    /// Folds engine completions into their books; emits the terminal `done`
    /// (or `cancelled`) once a submit's whole group has executed.
    fn deliver(&mut self, completions: Vec<JobCompletion>) {
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
            self.send(book.conn, &resp);
        }
    }

    /// Queues a response on a connection (a no-op when it is already
    /// closed); the next [`flush_all`](Self::flush_all) writes it.
    fn send(&mut self, id: u64, resp: &ResponseMsg) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.output.is_empty() {
            conn.progress = Instant::now();
        }
        if write_frame(&mut conn.output, &encode(resp), self.max_frame_bytes).is_err() {
            self.drop_conn(id);
            return;
        }
        conn.frame_ends.push_back(conn.output.len());
    }

    /// Writes what every socket takes. A connection whose peer has stopped
    /// reading — more than [`OUTBOX_FRAMES`] answers waiting, or no byte
    /// taken for [`WRITE_STALL`] — is dropped, as is one whose write fails.
    fn flush_all(&mut self) {
        let mut failed = Vec::new();
        for (&id, conn) in &mut self.conns {
            if conn.output.is_empty() {
                continue;
            }
            let now = Instant::now();
            if conn.flush(now).is_err() {
                failed.push(id);
            } else if conn.frame_ends.len() > OUTBOX_FRAMES {
                eprintln!("magma-server: dropping connection {id}: {OUTBOX_FRAMES} answers unread");
                failed.push(id);
            } else if conn.stall_deadline().is_some_and(|deadline| deadline <= now) {
                failed.push(id);
            }
        }
        for id in failed {
            self.drop_conn(id);
        }
    }

    /// Drops a connection over a frame that failed to decode.
    fn drop_malformed(&mut self, conn: u64, reason: &str) {
        eprintln!("magma-server: dropping connection {conn}: {reason}");
        self.drop_conn(conn);
    }

    /// Closes a connection (a no-op when it is already closed) and cancels
    /// the submits it still has open, so the engine stops searching for
    /// answers nobody will read; their books close through the `cancelled`
    /// completions the engine produces.
    fn drop_conn(&mut self, conn: u64) {
        let Some(dropped) = self.conns.remove(&conn) else { return };
        hang_up(&dropped);
        let mut open: Vec<u64> =
            self.books.iter().filter(|(_, book)| book.conn == conn).map(|(&t, _)| t).collect();
        // In admission order, not hash order: the order sessions finish in
        // feeds the shard timelines and caches.
        open.sort_unstable();
        let now = self.now();
        for token in open {
            self.engine.cancel(now, token);
        }
    }
}

/// Hangs a connection up; whatever output is still waiting is lost.
fn hang_up(conn: &Conn) {
    let _ = conn.stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
