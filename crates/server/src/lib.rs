//! magma-server — a wall-clock RPC serving daemon and its client over the
//! serving core.
//!
//! The simulator crates (`magma-serve`) answer *what-if* questions on a
//! virtual clock; this crate runs the same machinery — admission
//! batching, signature-affine placement, concurrent mapper sessions,
//! the mapping cache — as a **real server**: a TCP daemon whose clock is
//! `Instant::now()` and whose requests arrive over a socket.
//!
//! ```text
//!   Client (or any client) ── length-prefixed JSON frames ──▶ daemon
//!     submit_group / cancel / drain / stats                      │
//!     ◀── accepted/busy ... done (multiplexed ids) ◀─────────────┘
//! ```
//!
//! * [`frame`] — 4-byte big-endian length-prefixed framing with hard
//!   size limits; tolerant of arbitrary read splits, read blocking or, by
//!   the daemon, a non-blocking read at a time.
//! * [`proto`] — the JSON message shapes and verbs
//!   (`submit_group`/`cancel`/`drain`/`stats`) with per-request ids; the hot
//!   frames are written and read by hand, serde's bytes without its `Value`
//!   tree, and any other frame goes through serde.
//! * `daemon_core` — the daemon's protocol, free of I/O: it owns a
//!   [`ServeEngine`](magma_serve::ServeEngine), the admission pace, the
//!   books of accepted submits and each connection's buffers, and speaks
//!   connection ids, bytes and the seconds its caller passes — so its tests
//!   run on a virtual clock, and it builds on every platform. Crate-private.
//! * [`daemon`] — [`Server`]: the `poll(2)` shell around the core. One
//!   reactor thread owns the core, the listener and every connection, reads
//!   the wall clock and hands each reading to the core (it turns the engine
//!   back to back while searches are live and blocks when none are); a
//!   connection costs it buffers, not threads, and graceful drain finishes
//!   every admitted group and persists shard caches before shutdown. Unix
//!   only.
//! * [`client`] — [`Client`] and the pure `Mux` state machine that
//!   guarantees no response is lost or double-counted.
//!
//! Backpressure is part of the protocol: when the projected mapper
//! backlog exceeds the configured bound (the same load measure the
//! fleet router balances on), submits get `busy` with a
//! `retry_after_sec` hint instead of queueing without bound. The daemon
//! adds an admission pace in front of it — a budget of provisioned mapper
//! time per wall-clock second, answered with the same `busy` — so what a
//! saturating client gets is the same on every host and in every run. A
//! frame is decoded once, jobs and all, whatever the pace says; one that is
//! not a valid request closes its connection, paced or not.
//!
//! The end-to-end localhost suite lives in `tests/integration_rpc.rs`; the
//! repository's benchmark (`benchmark/run.sh --workload rpc_mix` or
//! `rpc_hot`) drives the shipped `magma_server` binary through [`Client`]
//! and measures it.

// `deny` rather than `forbid`: `poll`, the daemon's one foreign call, is the
// one module allowed to opt out; everything else stays free of it.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
#[cfg(unix)]
pub mod daemon;
// The protocol builds everywhere; only its `poll(2)` shell is Unix-only.
#[cfg_attr(not(unix), allow(dead_code))]
mod daemon_core;
pub mod frame;
#[cfg(unix)]
#[allow(unsafe_code)]
mod poll;
pub mod proto;

pub use client::{Client, Event};
#[cfg(unix)]
pub use daemon::Server;
pub use proto::{RequestMsg, ResponseMsg};
