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
//!                              │ 5. hang up what the core has ended      │
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
//! as each socket takes them. The core says when a connection ends — its
//! peer hung up, a write failed, it was given up, or the core is drained and
//! its output written — and the shell hangs up, at one site, whatever the
//! core no longer has open, printing the reason for each one given up.
//!
//! The loop has one exit — the core is drained and no connection is left —
//! and [`Server::join`] then returns the final stats. A `drain` request
//! drains the core, and so does a fault, named in one line on stderr: a core
//! call that panics (every call that changes the core runs under
//! `catch_unwind`) or a failed `poll(2)`. The core is then no longer trusted:
//! no request is read, no engine step taken. Either way queued answers go
//! out, a stalled peer is given up at its stall deadline and every
//! connection closes. A panic costs what is not yet queued: the terminals of
//! every open submit.

use std::collections::BTreeMap;
use std::io::ErrorKind::{Interrupted, WouldBlock, WriteZero};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

    /// Blocks until the daemon has drained — on a `drain` request, or after
    /// a fault (see the module docs) — and returns the engine's final
    /// counters.
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
    /// counters once the core is drained and every socket closed.
    fn run(mut self) -> EngineStats {
        let mut fds = Vec::new();
        let mut ids = Vec::new();
        let mut looked = f64::NEG_INFINITY;
        while !(self.core.drained() && self.streams.is_empty()) {
            let now = self.now();
            let due = self.core.wake(now);
            if due.is_none_or(|due| due > now) || now - looked >= LOOK_EVERY_SEC {
                fds.clear();
                ids.clear();
                // A drained core reads nothing, and takes no connection:
                // only waiting output is news.
                let reading = if self.core.drained() { 0 } else { POLLIN };
                fds.push(PollFd::new(&self.listener, reading));
                for (&id, stream) in &self.streams {
                    let writing = if self.core.output(id).is_empty() { 0 } else { POLLOUT };
                    fds.push(PollFd::new(stream, reading | writing));
                    ids.push(id);
                }
                if let Err(e) = poll::wait(&mut fds, due.map(|due| until(due, now))) {
                    fault(&mut self.core, &format!("poll(2) failed: {e}"));
                }
                looked = self.now();
                if fds[0].readable() {
                    self.accept();
                }
                for (fd, &id) in fds[1..].iter().zip(&ids) {
                    if fd.readable() {
                        self.read(id);
                    }
                }
            }
            let now = self.now();
            guard(&mut self.core, |core| core.turn(now));
            self.flush_all();
            self.hang_up_ended();
        }
        self.core.stats()
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
    /// reader, and has the core apply what the read completed.
    fn read(&mut self, id: u64) {
        let (Some(stream), Some(reader)) = (self.streams.get(&id), self.core.reader(id)) else {
            return;
        };
        let ended = match reader.fill(&mut &*stream) {
            Ok(n) => n == 0,
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => return,
            // An oversized frame, a reset: the connection is gone.
            Err(_) => true,
        };
        let now = self.now();
        guard(&mut self.core, |core| core.received(id, ended, now));
    }

    /// Writes what every socket takes and tells the core how much that was;
    /// a connection whose write fails is closed.
    fn flush_all(&mut self) {
        for (&id, stream) in &self.streams {
            let output = self.core.output(id);
            if output.is_empty() {
                continue;
            }
            let written = write_some(stream, output);
            let now = self.now();
            guard(&mut self.core, |core| match written {
                Ok(n) => core.wrote(id, n, now),
                Err(_) => core.closed(id, now),
            });
        }
    }

    /// Hangs up every connection the core no longer has open — the one place
    /// a connection goes — and says why for each one the core gave up.
    fn hang_up_ended(&mut self) {
        for (id, reason) in self.core.given_up() {
            eprintln!("magma-server: dropping connection {id}: {reason}");
        }
        let core = &self.core;
        self.streams.retain(|&id, _| core.is_open(id));
    }
}

/// Runs a call that changes the core; a panic in it drains the core.
fn guard(core: &mut DaemonCore, call: impl FnOnce(&mut DaemonCore)) {
    if catch_unwind(AssertUnwindSafe(|| call(&mut *core))).is_err() {
        fault(core, "a core call panicked");
    }
}

/// Drains the core after a fault (see the module docs), naming it once.
fn fault(core: &mut DaemonCore, cause: &str) {
    if !core.drained() {
        eprintln!("magma-server: {cause}; draining");
    }
    core.stop();
}

/// Writes as much of `output` as the socket takes without blocking: one
/// write, since a non-blocking socket that takes less than all is full.
fn write_some(mut stream: &TcpStream, output: &[u8]) -> io::Result<usize> {
    match stream.write(output) {
        Ok(0) => Err(WriteZero.into()),
        Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => Ok(0),
        written => written,
    }
}

/// How long `poll` may wait at `now` for `due` (out of range: for ever).
fn until(due: f64, now: f64) -> Duration {
    Duration::try_from_secs_f64((due - now).max(0.0)).unwrap_or(Duration::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    use magma_platform::settings::ServerKnobs;

    use crate::frame::{read_frame, write_frame};

    const MAX_FRAME: usize = 1 << 20;

    /// Sends one request, as its JSON, on `stream`.
    fn ask(mut stream: &TcpStream, json: &str) {
        write_frame(&mut stream, json.as_bytes(), MAX_FRAME).expect("the frame sends");
    }

    /// The next frame `stream` is sent, or `None` at its EOF.
    fn next(mut stream: &TcpStream) -> Option<Vec<u8>> {
        read_frame(&mut stream, MAX_FRAME).expect("a frame or a clean EOF")
    }

    #[test]
    fn a_panic_in_the_core_leaves_through_the_drain_exit() {
        let knobs = ServerKnobs::smoke();
        let config = EngineConfig::from_knobs(&knobs);
        let server = Server::start("127.0.0.1:0", MAX_FRAME, config, TenantMix::synthetic(2, 0))
            .expect("the daemon binds an ephemeral localhost port");
        let addr = server.addr();
        let connect = || {
            let stream = TcpStream::connect(addr).expect("a client connects");
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout sets");
            stream
        };

        // A second connection is open, and served, when the first one's
        // request panics the core.
        let (poisoner, bystander) = (connect(), connect());
        ask(&bystander, r#"{"id":1,"verb":"stats"}"#);
        assert!(next(&bystander).is_some(), "the bystander is served");
        ask(&poisoner, r#"{"id":1,"verb":"poison"}"#);

        // Both connections close, the daemon exits with its counters, and
        // nobody is listening any more.
        assert_eq!(next(&poisoner), None, "the poisoner reaches EOF");
        assert_eq!(next(&bystander), None, "the bystander reaches EOF");
        let stats = server.join();
        assert_eq!((stats.accepted, stats.rejected), (0, 0));
        assert!(TcpStream::connect(addr).is_err(), "a connect after join is refused");
    }
}
