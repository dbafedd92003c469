//! The serving daemon: a TCP front-end over the serving engine
//! (`magma_serve`), served by one thread. This module is its I/O shell — the
//! sockets, `poll(2)`, the wall clock — around the protocol in
//! `daemon_core` (requests, the admission pace, the books, when a
//! connection is given up), which touches neither: the shell passes it a
//! clock reading with every call.
//!
//! ```text
//!   listener ─┐                ┌──────────── reactor thread ─────────────┐
//!   conn 0 ───┼──▶ poll(2) ──▶ │ 1. accept what is pending               │
//!   conn 1 ───┤    timeout =   │ 2. read each readable socket once, into │
//!   conn … ───┘    core.wake   │    the core, which applies the requests │
//!       ▲                      │ 3. turn the core: engine, pace, deliver │
//!       └──── write ◀───────── │ 4. write what each socket takes         │
//!                              └─────────────────────────────────────────┘
//! ```
//!
//! Nothing wakes on a timer: `poll` waits as long as the core's `wake`
//! allows — the engine's next deadline or the earliest stall deadline,
//! rounded up to the next millisecond so that it never fires early — or,
//! when nothing is due, until a socket is ready: an idle daemon uses no
//! CPU. While work is due now the core is turned back to back, and the
//! sockets are looked at without waiting once 50 µs have passed since the
//! last look. A look is a system call: one after each of a never-seen
//! group's ≈ 116 slices cost it ≈ 40 µs of CPU, while a `cancel`, `stats`
//! or `drain` still waits at most 50 µs and one scheduler slice.
//!
//! No socket blocks the thread: answers wait in the core and go out as far
//! as each socket takes them. A connection the core gives up is hung up and
//! its reason printed; one whose peer hangs up or whose write fails is
//! closed in the core, which cancels its open submits. After a `drain` no
//! request is read: every connection's output is written out (a stalled
//! peer is given up at its stall deadline), then closed, and
//! [`Server::join`] returns the final stats.

use std::collections::BTreeMap;
use std::io::ErrorKind::{Interrupted, WouldBlock, WriteZero};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use magma_model::TenantMix;
use magma_serve::{EngineConfig, EngineStats};

use crate::daemon_core::DaemonCore;
use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// How long the engine may work, while it has work due now, before the
/// sockets are looked at again (see the module docs).
const LOOK_EVERY_SEC: f64 = 50e-6;

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
            let core = DaemonCore::new(config, mix, max_frame_bytes);
            Shell { core, start: Instant::now(), listener, streams: BTreeMap::new(), next_conn: 0 }
                .run()
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

/// Everything the reactor thread owns.
struct Shell {
    core: DaemonCore,
    /// Origin of the core's clock.
    start: Instant,
    listener: TcpListener,
    /// By accept order, which is the order they are read in.
    streams: BTreeMap<u64, TcpStream>,
    next_conn: u64,
}

impl Shell {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The reactor thread body (see the module docs); returns the final
    /// counters once a drain has been answered and every socket closed.
    fn run(mut self) -> EngineStats {
        let mut fds = Vec::new();
        let mut ids = Vec::new();
        let mut looked = f64::NEG_INFINITY;
        loop {
            let now = self.now();
            let due = self.core.wake(now);
            if due.is_none_or(|due| due > now) || now - looked >= LOOK_EVERY_SEC {
                fds.clear();
                ids.clear();
                fds.push(PollFd::new(&self.listener, POLLIN));
                for (&id, stream) in &self.streams {
                    let waiting = !self.core.output(id).is_empty();
                    fds.push(PollFd::new(stream, if waiting { POLLIN | POLLOUT } else { POLLIN }));
                    ids.push(id);
                }
                poll::wait(&mut fds, due.map(|due| until(due, now)))
                    .expect("poll(2) on the daemon's own sockets");
                looked = self.now();
                if fds[0].readable() {
                    self.accept();
                }
                if fds[1..].iter().zip(&ids).any(|(fd, &id)| fd.readable() && self.read(id)) {
                    break;
                }
            }
            self.core.turn(self.now());
            self.flush_all();
        }

        // Drained: every connection's output goes out, side by side, and
        // each is closed once it has, or once its peer stalls.
        loop {
            self.flush_all();
            let core = &self.core;
            let written = self.streams.extract_if(.., |&id, _| core.output(id).is_empty());
            written.for_each(|(_, stream)| hang_up(&stream));
            if self.streams.is_empty() {
                return self.core.stats();
            }
            fds.clear();
            fds.extend(self.streams.values().map(|stream| PollFd::new(stream, POLLOUT)));
            let now = self.now();
            poll::wait(&mut fds, self.core.wake(now).map(|due| until(due, now)))
                .expect("poll(2) on the daemon's own sockets");
        }
    }

    /// Accepts every connection waiting on the listener.
    fn accept(&mut self) {
        while let Ok((stream, _peer)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.core.open(self.next_conn, self.now());
            self.streams.insert(self.next_conn, stream);
            self.next_conn += 1;
        }
    }

    /// Reads once from a readable connection, straight into the core's
    /// reader, and has the core apply what the read completed. Returns
    /// `true` once a drain has completed.
    fn read(&mut self, id: u64) -> bool {
        let (Some(stream), Some(reader)) = (self.streams.get(&id), self.core.reader(id)) else {
            return false;
        };
        let ended = match reader.fill(&mut &*stream) {
            Ok(n) => n == 0,
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => return false,
            // An oversized frame, a reset: the connection is gone.
            Err(_) => true,
        };
        // A drain keeps the connection open for its answer.
        let drained = self.core.received(id, ended, self.now());
        if ended && !drained {
            self.streams.remove(&id).inspect(hang_up);
        }
        self.hang_up_given_up();
        drained
    }

    /// Writes what every socket takes and tells the core how much that was;
    /// a connection whose write fails is closed. Hangs up what the core has
    /// given up since the last call.
    fn flush_all(&mut self) {
        let mut failed = Vec::new();
        for (&id, stream) in &self.streams {
            let output = self.core.output(id);
            if output.is_empty() {
                continue;
            }
            let now = self.now();
            match write_some(stream, output) {
                Ok(n) => self.core.wrote(id, n, now),
                Err(_) => failed.push(id),
            }
        }
        for id in failed {
            self.core.closed(id, self.now());
            self.streams.remove(&id).inspect(hang_up);
        }
        self.hang_up_given_up();
    }

    /// Hangs up every connection the core has given up, saying why.
    fn hang_up_given_up(&mut self) {
        for (id, reason) in self.core.given_up() {
            eprintln!("magma-server: dropping connection {id}: {reason}");
            self.streams.remove(&id).inspect(hang_up);
        }
    }
}

/// Writes as much of `output` as the socket takes without blocking.
fn write_some(mut stream: &TcpStream, output: &[u8]) -> io::Result<usize> {
    let mut written = 0;
    while written < output.len() {
        match stream.write(&output[written..]) {
            Ok(0) => return Err(WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == WouldBlock => break,
            Err(e) if e.kind() == Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// How long `poll` may wait at `now` for `due` (out of range: for ever).
fn until(due: f64, now: f64) -> Duration {
    Duration::try_from_secs_f64((due - now).max(0.0)).unwrap_or(Duration::MAX)
}

/// Hangs a connection up; whatever output is still waiting is lost.
fn hang_up(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
}
