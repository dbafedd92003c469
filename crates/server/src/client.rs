//! The client side: a request multiplexer and a blocking TCP client.
//!
//! `Mux` is the pure state machine: it tracks which request ids are
//! awaiting which responses and turns raw [`ResponseMsg`]s into typed
//! [`Event`]s, rejecting unknown ids, duplicate terminals and
//! wrong-state responses. Keeping it free of I/O makes the
//! zero-lost/zero-duplicated-response property directly testable (the
//! proptest below drives it with interleaved response orders).
//!
//! [`Client`] wraps a `TcpStream` around a `Mux`: a background reader
//! thread decodes frames into a channel and [`Client::poll_event`]
//! pumps them through the multiplexer.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use magma_model::Job;
use magma_serve::EngineStats;

use crate::frame::{read_frame, write_frame};
use crate::proto::{
    decode, encode, RequestMsg, ResponseMsg, KIND_ACCEPTED, KIND_BUSY, KIND_CANCELLED, KIND_DONE,
    KIND_DRAINED, KIND_ERROR, KIND_STATS,
};

/// What a request id is currently waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingKind {
    /// A `submit_group` awaiting its admission verdict.
    Submit,
    /// A `cancel` awaiting its acknowledgement.
    Cancel,
    /// A `drain` awaiting the final `drained` response.
    Drain,
    /// A `stats` awaiting its snapshot.
    Stats,
}

/// A typed, validated server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A submit was admitted; a terminal [`Event::Done`] (or
    /// [`Event::Cancelled`]) will follow for the same id.
    Accepted {
        /// The submit's request id.
        id: u64,
    },
    /// A submit was rejected by backpressure.
    Busy {
        /// The submit's request id.
        id: u64,
        /// Suggested wait before resubmitting, in seconds.
        retry_after_sec: f64,
    },
    /// Every job in an accepted submit finished executing.
    Done {
        /// The submit's request id.
        id: u64,
        /// Number of jobs that executed.
        jobs: usize,
        /// Whether any job blew its deadline.
        timed_out: bool,
    },
    /// An accepted submit was cancelled (terminal), or a `cancel` request
    /// was acknowledged — distinguished by which id the server echoes.
    Cancelled {
        /// The request id the acknowledgement answers.
        id: u64,
    },
    /// The drain completed; the server is shutting down.
    Drained {
        /// The drain's request id.
        id: u64,
        /// Total jobs the engine completed over its lifetime.
        jobs: usize,
        /// The engine's final counter snapshot, if the server attached one.
        stats: Option<EngineStats>,
    },
    /// A stats snapshot.
    Stats {
        /// The stats request id.
        id: u64,
        /// The engine's counters at snapshot time.
        stats: EngineStats,
    },
    /// The server rejected a request outright.
    Error {
        /// The rejected request's id.
        id: u64,
        /// The server's reason.
        error: String,
    },
}

/// The pure request-multiplexing state machine.
///
/// Invariants enforced (violations return `Err` rather than being
/// silently dropped — the integration suite asserts no send path ever
/// trips them):
///
/// * every response id must match a request this mux sent;
/// * a request id gets exactly one verdict, and an accepted submit
///   exactly one terminal — duplicates are protocol errors;
/// * response kinds must match the request's [`PendingKind`].
#[derive(Debug, Default)]
pub(crate) struct Mux {
    pending: HashMap<u64, PendingKind>,
    in_flight: HashSet<u64>,
}

impl Mux {
    /// Creates an empty multiplexer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records that request `id` of `kind` was sent. Reusing a live id is
    /// an error.
    pub(crate) fn sent(&mut self, id: u64, kind: PendingKind) -> Result<(), String> {
        if self.pending.contains_key(&id) || self.in_flight.contains(&id) {
            return Err(format!("request id {id} is already live"));
        }
        self.pending.insert(id, kind);
        Ok(())
    }

    /// Number of requests still awaiting a verdict or terminal response.
    pub(crate) fn outstanding(&self) -> usize {
        self.pending.len() + self.in_flight.len()
    }

    /// Consumes one server response, advancing the state machine.
    pub(crate) fn on_response(&mut self, resp: &ResponseMsg) -> Result<Event, String> {
        let id = resp.id;
        // Terminal for an accepted submit?
        if self.in_flight.contains(&id) {
            let event = match resp.kind.as_str() {
                KIND_DONE => Event::Done {
                    id,
                    jobs: resp.jobs.unwrap_or(0),
                    timed_out: resp.timed_out.unwrap_or(false),
                },
                KIND_CANCELLED => Event::Cancelled { id },
                other => {
                    return Err(format!(
                        "in-flight submit {id} got non-terminal response kind {other:?}"
                    ))
                }
            };
            self.in_flight.remove(&id);
            return Ok(event);
        }
        let Some(kind) = self.pending.get(&id).copied() else {
            return Err(format!("response for unknown request id {id} (kind {:?})", resp.kind));
        };
        let event = match (kind, resp.kind.as_str()) {
            (PendingKind::Submit, KIND_ACCEPTED) => {
                self.in_flight.insert(id);
                Event::Accepted { id }
            }
            (PendingKind::Submit, KIND_BUSY) => {
                Event::Busy { id, retry_after_sec: resp.retry_after_sec.unwrap_or(0.0) }
            }
            (PendingKind::Cancel, KIND_CANCELLED) => Event::Cancelled { id },
            (PendingKind::Drain, KIND_DRAINED) => {
                Event::Drained { id, jobs: resp.jobs.unwrap_or(0), stats: resp.stats }
            }
            (PendingKind::Stats, KIND_STATS) => Event::Stats {
                id,
                stats: resp.stats.ok_or_else(|| format!("stats response {id} without stats"))?,
            },
            (_, KIND_ERROR) => {
                Event::Error { id, error: resp.error.clone().unwrap_or_else(|| "error".into()) }
            }
            (kind, other) => {
                return Err(format!("request {id} ({kind:?}) got response kind {other:?}"))
            }
        };
        self.pending.remove(&id);
        Ok(event)
    }
}

/// A blocking TCP client speaking the magma-rpc protocol.
///
/// Requests are written synchronously on the caller's thread; responses
/// are decoded by a background reader thread and surfaced through
/// [`Client::poll_event`] in arrival order.
pub struct Client {
    writer: BufWriter<TcpStream>,
    events: Receiver<io::Result<ResponseMsg>>,
    mux: Mux,
    next_id: u64,
    max_frame_bytes: usize,
    reader: Option<JoinHandle<()>>,
}

impl Client {
    /// Connects to `addr` and spawns the reader thread.
    pub fn connect(addr: &str, max_frame_bytes: usize) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(read_half);
            loop {
                match read_frame(&mut r, max_frame_bytes) {
                    Ok(None) => break,
                    Ok(Some(payload)) => {
                        let msg = decode::<ResponseMsg>(&payload)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });
        Ok(Self {
            writer: BufWriter::new(stream),
            events: rx,
            mux: Mux::new(),
            next_id: 1,
            max_frame_bytes,
            reader: Some(reader),
        })
    }

    fn send(&mut self, msg: &RequestMsg, kind: PendingKind) -> io::Result<u64> {
        self.mux.sent(msg.id, kind).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        write_frame(&mut self.writer, &encode(msg), self.max_frame_bytes)?;
        Ok(msg.id)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Submits a job group; returns the request id to correlate events.
    pub fn submit(&mut self, tenant: usize, jobs: Vec<Job>) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&RequestMsg::submit(id, tenant, jobs), PendingKind::Submit)
    }

    /// Cancels an earlier submit by its request id.
    pub fn cancel(&mut self, target: u64) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&RequestMsg::cancel(id, target), PendingKind::Cancel)
    }

    /// Requests a graceful drain; the server shuts down after answering.
    pub fn drain(&mut self) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&RequestMsg::drain(id), PendingKind::Drain)
    }

    /// Requests a stats snapshot.
    pub fn stats(&mut self) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&RequestMsg::stats(id), PendingKind::Stats)
    }

    /// Number of requests still awaiting a verdict or terminal response.
    pub fn outstanding(&self) -> usize {
        self.mux.outstanding()
    }

    /// Waits up to `timeout` for the next server event. `Ok(None)` means
    /// the timeout elapsed with nothing to report; protocol violations
    /// surface as [`io::ErrorKind::InvalidData`].
    pub fn poll_event(&mut self, timeout: Duration) -> io::Result<Option<Event>> {
        match self.events.recv_timeout(timeout) {
            Ok(Ok(resp)) => self
                .mux
                .on_response(&resp)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if let Ok(stream) = self.writer.get_ref().try_clone() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ResponseMsg;
    use proptest::prelude::*;

    fn resp(id: u64, kind: &str) -> ResponseMsg {
        ResponseMsg::new(id, kind)
    }

    #[test]
    fn a_submit_walks_accepted_then_done() {
        let mut mux = Mux::new();
        mux.sent(1, PendingKind::Submit).unwrap();
        assert_eq!(mux.on_response(&resp(1, KIND_ACCEPTED)).unwrap(), Event::Accepted { id: 1 });
        assert_eq!(mux.outstanding(), 1, "accepted submits stay in flight");
        let done = ResponseMsg { jobs: Some(3), timed_out: Some(false), ..resp(1, KIND_DONE) };
        assert_eq!(
            mux.on_response(&done).unwrap(),
            Event::Done { id: 1, jobs: 3, timed_out: false }
        );
        assert_eq!(mux.outstanding(), 0);
    }

    #[test]
    fn protocol_violations_are_errors_not_silence() {
        let mut mux = Mux::new();
        assert!(mux.on_response(&resp(9, KIND_DONE)).is_err(), "unknown id");
        mux.sent(1, PendingKind::Submit).unwrap();
        assert!(mux.sent(1, PendingKind::Submit).is_err(), "duplicate live id");
        assert!(mux.on_response(&resp(1, KIND_DONE)).is_err(), "done before accepted");
        mux.on_response(&resp(1, KIND_ACCEPTED)).unwrap();
        assert!(mux.on_response(&resp(1, KIND_ACCEPTED)).is_err(), "duplicate accepted");
        let done = resp(1, KIND_DONE);
        mux.on_response(&done).unwrap();
        assert!(mux.on_response(&done).is_err(), "duplicate terminal");
    }

    // Any interleaving of well-formed responses across many in-flight
    // submits yields exactly one Accepted and one terminal per id — no
    // response lost, none double-counted.
    proptest! {
        #[test]
        fn multiplexing_survives_arbitrary_response_interleavings(
            n in 1usize..24,
            order_seed in proptest::collection::vec(0u64..1_000_000, 48..49),
        ) {
            let mut mux = Mux::new();
            for id in 0..n as u64 {
                mux.sent(id, PendingKind::Submit).unwrap();
            }
            // Each submit owes two responses: accepted then done. Build the
            // per-id queues, then interleave them with the seeded order.
            let mut queues: Vec<Vec<ResponseMsg>> = (0..n as u64)
                .map(|id| vec![
                    ResponseMsg::new(id, KIND_ACCEPTED),
                    ResponseMsg { jobs: Some(1), ..ResponseMsg::new(id, KIND_DONE) },
                ])
                .collect();
            let mut accepted = vec![0usize; n];
            let mut done = vec![0usize; n];
            let mut delivered = 0usize;
            let mut pick = 0usize;
            while delivered < 2 * n {
                let live: Vec<usize> =
                    (0..n).filter(|&i| !queues[i].is_empty()).collect();
                let choice = order_seed[pick % order_seed.len()] as usize % live.len();
                pick += 1;
                let i = live[choice];
                let msg = queues[i].remove(0);
                match mux.on_response(&msg).unwrap() {
                    Event::Accepted { id } => accepted[id as usize] += 1,
                    Event::Done { id, .. } => done[id as usize] += 1,
                    other => prop_assert!(false, "unexpected event {other:?}"),
                }
                delivered += 1;
            }
            prop_assert!(accepted.iter().all(|&c| c == 1));
            prop_assert!(done.iter().all(|&c| c == 1));
            prop_assert_eq!(mux.outstanding(), 0);
        }
    }
}
