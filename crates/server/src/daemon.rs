//! The serving daemon: a threaded TCP front-end over
//! [`magma_serve::ServeEngine`].
//!
//! Thread layout — every thread blocks on the one thing it waits for, none
//! wakes on a timer:
//!
//! ```text
//!   accept thread ──▶ per-connection reader threads ──▶ command channel
//!   (blocking accept)   (blocking read, envelope scan)     (bounded)
//!                                                             ▼
//!                                        engine thread (owns ServeEngine,
//!                                        wall clock = Instant::elapsed)
//!                                                             │ try_send
//!                                                             ▼
//!                                       per-connection bounded outboxes
//!                                                             │
//!                                                             ▼
//!                                       per-connection writer threads
//!                                       (blocking recv, blocking write)
//! ```
//!
//! The engine thread is the only place serving state lives: readers turn
//! frames into commands, the engine thread applies them against the wall
//! clock (`submit`/`cancel`/`drain`/`stats`) and polls the engine for
//! completions. A reader parses only a request's [`Envelope`] — id, verb,
//! tenant, target — and checks that the jobs are well-formed JSON; the engine
//! thread decides `busy` on that alone and decodes the jobs of the submits it
//! admits, so refusing a group costs a scan of its frame. The command channel
//! is bounded: a reader that cannot enqueue stops reading, and a client that
//! sends faster than the engine thread applies is held back by TCP. It is
//! **work-conserving**: how long it waits for the next
//! command is the engine's own answer ([`ServeEngine::next_wake`]):
//!
//! * [`Wake::Now`] — searches are live or a group is ready to cut: take
//!   whatever commands are already queued (`try_recv`) and poll again, back
//!   to back. Commands are still applied between every two polls, so a
//!   `cancel`, `stats` or `drain` waits for at most one scheduler slice.
//! * [`Wake::At`] — only a partial group is waiting out its admission
//!   deadline: block for a command until exactly that time.
//! * [`Wake::Idle`] — nothing queued, nothing live: block until a command
//!   arrives. An idle daemon uses no CPU.
//!
//! Work-conserving is about what was admitted; *how much* is admitted is
//! paced. The engine thread charges the mapper work it does (groups cut,
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
//! The engine thread never writes to a socket. Responses go through each
//! connection's bounded outbox to its writer thread; a peer that stops
//! reading fills its own outbox and loses its connection (as does one that
//! accepts no byte for five seconds) — every other tenant is served on.
//! When a connection goes away, for whatever reason, the submits it still
//! has open are cancelled: nobody is left to read their answers.
//!
//! A `drain` command finishes every live session, persists shard caches,
//! answers with the final stats and shuts the whole daemon down: the
//! outboxes are flushed and the writers joined, a self-connect wakes the
//! accept thread, and [`Server::join`] returns the final stats.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use magma_model::TenantMix;
use magma_serve::{
    Admission, EngineConfig, EngineStats, JobCompletion, MapperWork, ServeEngine, Wake,
};

use crate::frame::{read_frame, write_frame};
use crate::proto::{
    decode_jobs, encode, Envelope, ResponseMsg, KIND_ACCEPTED, KIND_BUSY, KIND_CANCELLED,
    KIND_DONE, KIND_DRAINED, KIND_STATS, VERB_CANCEL, VERB_DRAIN, VERB_STATS, VERB_SUBMIT,
};

/// Responses a connection may have queued for its writer thread. The socket
/// buffers sit behind the outbox, so it only fills once the peer is already
/// megabytes behind; the bound is generous because the engine thread can
/// answer a whole batch of pipelined requests before the writer runs at all.
const OUTBOX_FRAMES: usize = 1024;

/// Commands the readers may have queued for the engine thread, which takes
/// all of them between every two scheduler slices. Each holds at most one
/// frame, so this bounds what unapplied requests can pin in memory; a reader
/// that finds the queue full blocks, and its peer meets TCP backpressure.
const CMD_QUEUE: usize = 256;

/// How long a writer thread waits for a peer to accept a byte before it
/// gives the connection up. Also bounds how long a stalled peer can hold up
/// the daemon's exit after a drain.
const WRITE_STALL: Duration = Duration::from_secs(5);

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
/// notices, and the engine thread stays work-conserving — what is admitted
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

/// Commands flowing from the accept and reader threads to the engine thread.
enum Cmd {
    /// A connection opened; carries the engine thread's end of it.
    Connect { conn: u64, link: Link },
    /// A request from `conn`, its jobs not decoded yet.
    Request { conn: u64, msg: Envelope },
    /// A frame that failed to decode: the connection is dropped.
    Malformed { conn: u64, reason: String },
    /// The connection closed or errored.
    Gone { conn: u64 },
}

/// The engine thread's end of one connection.
struct Link {
    /// Encoded responses on their way to the writer thread.
    outbox: SyncSender<Vec<u8>>,
    /// The socket, to shut it down under a writer blocked on a stalled peer.
    stream: Arc<TcpStream>,
    writer: JoinHandle<()>,
}

impl Link {
    /// Hangs up the outbox: the writer flushes what is queued, shuts the
    /// socket down and exits. Returns its handle to join.
    fn hang_up(self) -> JoinHandle<()> {
        self.writer
    }

    /// Drops the connection now: whatever is still queued is lost.
    fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.hang_up().join().expect("writer thread panicked");
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
    engine_thread: JoinHandle<EngineStats>,
    accept_thread: JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spins up the
    /// accept and engine threads and returns immediately.
    pub fn start(
        addr: &str,
        max_frame_bytes: usize,
        config: EngineConfig,
        mix: TenantMix,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<Cmd>(CMD_QUEUE);

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(listener, tx, shutdown, max_frame_bytes))
        };
        let engine_thread = std::thread::spawn(move || {
            let stats = Serving::new(ServeEngine::new(config, mix)).run(&rx);
            // Wake the accept thread out of its blocking `accept`; it sees
            // the flag, stops accepting and joins its readers.
            shutdown.store(true, Ordering::SeqCst);
            match TcpStream::connect(bound) {
                // Connections that raced the shutdown have a reader waiting
                // on a socket nobody serves: close them until the accept
                // thread and every reader have hung up.
                Ok(_) => rx.iter().for_each(|cmd| {
                    if let Cmd::Connect { link, .. } = cmd {
                        link.close();
                    }
                }),
                Err(e) => eprintln!("magma-server: cannot wake the accept thread: {e}"),
            }
            stats
        });
        Ok(Server { addr: bound, engine_thread, accept_thread })
    }

    /// The address the daemon actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a drain shuts the daemon down; returns the engine's
    /// final counters.
    pub fn join(self) -> EngineStats {
        let stats = self.engine_thread.join().expect("engine thread panicked");
        self.accept_thread.join().expect("accept thread panicked");
        stats
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Cmd>,
    shutdown: Arc<AtomicBool>,
    max_frame_bytes: usize,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    for conn in 0u64.. {
        let Ok((stream, _peer)) = listener.accept() else { break };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_STALL));
        let stream = Arc::new(stream);
        let (outbox, frames) = mpsc::sync_channel(OUTBOX_FRAMES);
        let writer = {
            let stream = Arc::clone(&stream);
            std::thread::spawn(move || writer_loop(&stream, frames, max_frame_bytes))
        };
        let link = Link { outbox, stream: Arc::clone(&stream), writer };
        if let Err(mpsc::SendError(cmd)) = tx.send(Cmd::Connect { conn, link }) {
            if let Cmd::Connect { link, .. } = cmd {
                link.close();
            }
            break;
        }
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || reader_loop(conn, &stream, tx, max_frame_bytes)));
    }
    for reader in readers {
        let _ = reader.join();
    }
}

fn reader_loop(conn: u64, stream: &TcpStream, tx: SyncSender<Cmd>, max_frame_bytes: usize) {
    let mut r = BufReader::new(stream);
    loop {
        match read_frame(&mut r, max_frame_bytes) {
            Ok(Some(payload)) => match Envelope::decode(&payload) {
                Ok(msg) => {
                    if tx.send(Cmd::Request { conn, msg }).is_err() {
                        return;
                    }
                }
                Err(reason) => {
                    let _ = tx.send(Cmd::Malformed { conn, reason });
                    return;
                }
            },
            Ok(None) | Err(_) => {
                let _ = tx.send(Cmd::Gone { conn });
                return;
            }
        }
    }
}

/// Writes a connection's queued responses in order until the engine thread
/// hangs up the outbox or a write fails, then shuts the socket down — which
/// is also what tells the connection's reader (and through it the engine
/// thread) that the connection is gone.
fn writer_loop(stream: &TcpStream, frames: Receiver<Vec<u8>>, max_frame_bytes: usize) {
    let mut w = BufWriter::new(stream);
    for payload in frames {
        if write_frame(&mut w, &payload, max_frame_bytes).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Everything the engine thread owns.
struct Serving {
    engine: ServeEngine,
    /// Origin of the engine's `now_sec` domain.
    start: Instant,
    conns: HashMap<u64, Link>,
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
    fn new(engine: ServeEngine) -> Self {
        Serving {
            engine,
            start: Instant::now(),
            conns: HashMap::new(),
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

    /// The engine thread body: waits for commands as long as the engine
    /// says it can (see the module docs), applies them against the wall
    /// clock and delivers completions; on drain finishes everything,
    /// flushes every connection and returns the final counters.
    fn run(mut self, rx: &Receiver<Cmd>) -> EngineStats {
        'serve: loop {
            let now = self.now();
            let first = match self.engine.next_wake(now) {
                Wake::Now => match rx.try_recv() {
                    Ok(cmd) => Some(cmd),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => break 'serve,
                },
                Wake::At(due) => {
                    // Out of `Duration`'s range means "longer than anyone waits".
                    let wait =
                        Duration::try_from_secs_f64((due - now).max(0.0)).unwrap_or(Duration::MAX);
                    match rx.recv_timeout(wait) {
                        Ok(cmd) => Some(cmd),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break 'serve,
                    }
                }
                Wake::Idle => match rx.recv() {
                    Ok(cmd) => Some(cmd),
                    Err(mpsc::RecvError) => break 'serve,
                },
            };
            for cmd in first.into_iter().chain(rx.try_iter()) {
                if self.apply(cmd) {
                    break 'serve;
                }
            }
            let completions = self.engine.poll(self.now());
            self.pace.charge(self.now(), self.engine.mapper_work());
            self.deliver(completions);
        }

        // Hang up every outbox before joining any writer, so the `drained`
        // frame (and every `done` before it) is on the wire when this
        // returns and stalled peers time out side by side.
        let writers: Vec<_> = self.conns.drain().map(|(_, link)| link.hang_up()).collect();
        for writer in writers {
            writer.join().expect("writer thread panicked");
        }
        self.stats()
    }

    /// Applies one command. Returns `true` once a drain has completed.
    fn apply(&mut self, cmd: Cmd) -> bool {
        let now = self.now();
        match cmd {
            Cmd::Connect { conn, link } => {
                self.conns.insert(conn, link);
            }
            Cmd::Gone { conn } => self.drop_conn(conn),
            Cmd::Malformed { conn, reason } => self.drop_malformed(conn, &reason),
            Cmd::Request { conn, msg } => match msg.verb.as_str() {
                // Queued behind the request that got its connection dropped:
                // not admitted, nobody is left to search for.
                VERB_SUBMIT if !self.conns.contains_key(&conn) => {}
                VERB_SUBMIT => {
                    let resp = match (msg.tenant, &msg.jobs) {
                        (Some(tenant), Some(raw)) => {
                            let token = self.next_token;
                            let mut total = 0;
                            // The pace first: only an admitted submit has
                            // its jobs decoded.
                            let verdict = match self.pace.wait(now) {
                                Some(retry_after_sec) => {
                                    self.paced += 1;
                                    Admission::Busy { retry_after_sec }
                                }
                                None => match decode_jobs(raw) {
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
                                Admission::Invalid { reason } => {
                                    ResponseMsg::error(msg.id, &reason)
                                }
                            }
                        }
                        _ => ResponseMsg::error(msg.id, "submit_group needs tenant and jobs"),
                    };
                    self.send(conn, &resp);
                }
                VERB_CANCEL => {
                    // The target's `cancelled` terminal follows with the
                    // next poll's completions.
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
                    // Echo a prefix only: no response is larger than the
                    // stats block, so a full outbox is a bounded one.
                    let shown: String = other.chars().take(32).collect();
                    let resp = ResponseMsg::error(msg.id, &format!("unknown verb {shown:?}"));
                    self.send(conn, &resp);
                }
            },
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

    /// Queues a response for a connection's writer — never blocks. A full
    /// outbox means the peer stopped reading, a hung-up one that its writer
    /// already failed: either way the connection is dropped.
    fn send(&mut self, conn: u64, resp: &ResponseMsg) {
        let Some(link) = self.conns.get(&conn) else { return };
        if let Err(e) = link.outbox.try_send(encode(resp)) {
            if matches!(e, TrySendError::Full(_)) {
                eprintln!("magma-server: dropping connection {conn}: its outbox is full");
            }
            self.drop_conn(conn);
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
        let Some(link) = self.conns.remove(&conn) else { return };
        link.close();
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
