//! The load generator: replays a trace against a live daemon at a target
//! wall-clock rate and measures what the *client* sees.
//!
//! Each trace arrival becomes one `submit_group` over the wire at
//! `start + arrival.time_sec` of real time. Between sends the generator
//! pumps [`Client::poll_event`], correlating admission verdicts and
//! terminal `done`s by request id. After the last send it waits for all
//! in-flight submits (bounded by the timeout), takes one `stats`
//! snapshot to exercise the verb, then drains — the daemon finishes every
//! live session, persists its caches and answers with final counters,
//! which land in the [`RpcReport`] beside the client-side percentiles.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use magma_serve::metrics::percentile;
use magma_serve::{Arrival, ScenarioDescriptor};

use crate::client::{Client, Event};
use crate::report::{RpcReport, RPC_SCHEMA};

/// Wall-clock replay parameters.
#[derive(Debug, Clone)]
pub struct LoadgenParams {
    /// Daemon address to dial.
    pub addr: String,
    /// Offered rate (requests per second) the trace was generated at;
    /// recorded in the report.
    pub rate: f64,
    /// Frame size limit, matching the daemon's.
    pub max_frame_bytes: usize,
    /// How long to wait for stragglers after the last send, seconds.
    pub timeout_sec: f64,
    /// Replay speed multiplier: 1.0 replays the trace's own timing,
    /// larger values compress it (arrival times are divided by this).
    pub speedup: f64,
}

/// Per-request bookkeeping while the replay runs.
struct Tracker {
    sent_at: Instant,
    latency: Option<Duration>,
    terminal: Terminal,
}

enum Terminal {
    Pending,
    Done { timed_out: bool },
    Cancelled,
    Busy,
    Errored,
}

/// Replays `trace` against the daemon and assembles the report.
///
/// `mode` is recorded verbatim (`"full"` / `"smoke"`). The returned
/// report has not been validated; `magma_serve::emit` self-checks, writes
/// and gates it.
pub fn run(
    params: &LoadgenParams,
    trace: &[Arrival],
    descriptor: ScenarioDescriptor,
    mode: &str,
) -> io::Result<RpcReport> {
    assert!(params.speedup > 0.0, "speedup must be positive");
    let mut client = Client::connect(&params.addr, params.max_frame_bytes)?;
    let mut trackers: HashMap<u64, Tracker> = HashMap::new();
    let start = Instant::now();

    for arrival in trace {
        let due = Duration::from_secs_f64(arrival.time_sec / params.speedup);
        // Pump events until this arrival is due, then send it.
        loop {
            let elapsed = start.elapsed();
            if elapsed >= due {
                break;
            }
            let wait = (due - elapsed).min(Duration::from_millis(5));
            pump(&mut client, &mut trackers, wait)?;
        }
        let id = client.submit(arrival.tenant, vec![arrival.job.clone()])?;
        trackers.insert(
            id,
            Tracker { sent_at: Instant::now(), latency: None, terminal: Terminal::Pending },
        );
    }

    // Exercise the stats verb once while work may still be in flight.
    let stats_id = client.stats()?;
    let mut snapshot_seen = false;

    // Wait for every outstanding submit (and the stats snapshot), bounded
    // by the timeout.
    let deadline = Instant::now() + Duration::from_secs_f64(params.timeout_sec);
    while client.outstanding() > 0 && Instant::now() < deadline {
        if let Some(event) = pump_one(&mut client, &mut trackers, Duration::from_millis(10))? {
            if matches!(event, Event::Stats { id, .. } if id == stats_id) {
                snapshot_seen = true;
            }
        }
    }
    if !snapshot_seen {
        eprintln!("loadgen: stats snapshot never arrived (continuing)");
    }

    // Drain: the daemon finishes all live sessions, persists caches and
    // answers with its final stats, then shuts down.
    client.drain()?;
    let mut drained_jobs = 0usize;
    let mut server_stats = None;
    let drain_deadline = Instant::now() + Duration::from_secs_f64(params.timeout_sec.max(5.0));
    while Instant::now() < drain_deadline {
        match pump_one(&mut client, &mut trackers, Duration::from_millis(20))? {
            Some(Event::Drained { jobs, stats, .. }) => {
                drained_jobs = jobs;
                server_stats = stats;
                break;
            }
            Some(_) => {}
            None => {}
        }
    }
    let server_stats = server_stats.ok_or_else(|| {
        io::Error::new(io::ErrorKind::TimedOut, "daemon never acknowledged the drain")
    })?;

    // Tally.
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut errored = 0usize;
    let mut completed = 0usize;
    let mut timed_out = 0usize;
    let mut cancelled = 0usize;
    let mut dropped_in_flight = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::new();
    for tracker in trackers.values() {
        match tracker.terminal {
            Terminal::Busy => rejected += 1,
            Terminal::Errored => errored += 1,
            Terminal::Pending => {
                accepted += 1;
                dropped_in_flight += 1;
            }
            Terminal::Cancelled => {
                accepted += 1;
                cancelled += 1;
            }
            Terminal::Done { timed_out: t } => {
                accepted += 1;
                completed += 1;
                if t {
                    timed_out += 1;
                }
                if let Some(latency) = tracker.latency {
                    latencies_ms.push(latency.as_secs_f64() * 1e3);
                }
            }
        }
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };

    Ok(RpcReport {
        schema: RPC_SCHEMA.to_string(),
        mode: mode.to_string(),
        addr: params.addr.clone(),
        rate: params.rate,
        requests: trace.len(),
        accepted,
        rejected,
        errored,
        completed,
        timed_out,
        cancelled,
        dropped_in_flight,
        mean_latency_ms: mean,
        p50_latency_ms: percentile(&latencies_ms, 0.50),
        p95_latency_ms: percentile(&latencies_ms, 0.95),
        p99_latency_ms: percentile(&latencies_ms, 0.99),
        drained_jobs,
        server: server_stats,
        scenario_descriptor: descriptor,
    })
}

/// Pumps at most one event into the trackers; returns it.
fn pump_one(
    client: &mut Client,
    trackers: &mut HashMap<u64, Tracker>,
    timeout: Duration,
) -> io::Result<Option<Event>> {
    let Some(event) = client.poll_event(timeout)? else { return Ok(None) };
    match &event {
        Event::Accepted { .. } => {}
        Event::Busy { id, .. } => {
            if let Some(t) = trackers.get_mut(id) {
                t.terminal = Terminal::Busy;
            }
        }
        Event::Error { id, .. } => {
            if let Some(t) = trackers.get_mut(id) {
                t.terminal = Terminal::Errored;
            }
        }
        Event::Done { id, timed_out, .. } => {
            if let Some(t) = trackers.get_mut(id) {
                t.latency = Some(t.sent_at.elapsed());
                t.terminal = Terminal::Done { timed_out: *timed_out };
            }
        }
        Event::Cancelled { id } => {
            if let Some(t) = trackers.get_mut(id) {
                t.terminal = Terminal::Cancelled;
            }
        }
        Event::Drained { .. } | Event::Stats { .. } => {}
    }
    Ok(Some(event))
}

/// Pumps events for up to `timeout` (used while pacing sends).
fn pump(
    client: &mut Client,
    trackers: &mut HashMap<u64, Tracker>,
    timeout: Duration,
) -> io::Result<()> {
    pump_one(client, trackers, timeout).map(|_| ())
}
