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
//! * [`daemon`] — [`Server`]: one reactor thread that owns a
//!   [`ServeEngine`](magma_serve::ServeEngine), the listener and every
//!   connection, and waits in `poll(2)` (it polls the engine back to back
//!   while searches are live and blocks when none are); a connection costs
//!   it buffers, not threads, and graceful drain finishes every admitted
//!   group and persists shard caches before shutdown. Unix only.
//! * [`client`] — [`Client`] and the pure [`Mux`] state machine that
//!   guarantees no response is lost or double-counted.
//!
//! Backpressure is part of the protocol: when the projected mapper
//! backlog exceeds the configured bound (the same load measure the
//! fleet router balances on), submits get `busy` with a
//! `retry_after_sec` hint instead of queueing without bound. The daemon
//! adds an admission pace in front of it — a budget of provisioned mapper
//! time per wall-clock second, answered with the same `busy`, and decided on
//! a request's envelope before its jobs are decoded — so what a saturating
//! client gets is the same on every host and in every run, and what it is
//! refused costs the daemon a scan of the frame.
//!
//! The end-to-end localhost suite lives in `tests/integration_rpc.rs`; the
//! repository's benchmark (`benchmark/run.sh --workload rpc_mix` or
//! `rpc_hot`) drives the shipped `magma_server` binary through [`Client`]
//! and measures it.

// `deny` rather than `forbid`: `poll`, the daemon's one foreign call, is the
// one module allowed to opt out; everything else stays free of it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
pub mod daemon;
pub mod frame;
#[cfg(unix)]
#[allow(unsafe_code)]
mod poll;
pub mod proto;

pub use client::{Client, Event, Mux, PendingKind};
#[cfg(unix)]
pub use daemon::Server;
pub use proto::{RequestMsg, ResponseMsg};
