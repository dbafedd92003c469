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
//!   size limits; tolerant of arbitrary read splits.
//! * [`proto`] — the JSON message shapes and verbs
//!   (`submit_group`/`cancel`/`drain`/`stats`) with per-request ids; the hot
//!   frames are written and read by hand, serde's bytes without its `Value`
//!   tree, and any other frame goes through serde.
//! * [`daemon`] — [`Server`]: accept thread + per-connection reader and
//!   writer threads + one event-driven engine thread owning a
//!   [`ServeEngine`](magma_serve::ServeEngine) (it polls back to back
//!   while searches are live and blocks when none are); graceful drain
//!   finishes every admitted group and persists shard caches before
//!   shutdown.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod frame;
pub mod proto;

pub use client::{Client, Event, Mux, PendingKind};
pub use daemon::Server;
pub use proto::{RequestMsg, ResponseMsg};
