//! End-to-end RPC suite: a real daemon on a localhost socket, driven by
//! the real client over TCP.
//!
//! What is locked down here:
//!
//! * **No lost or duplicated responses** — every submit gets exactly one
//!   admission verdict and every accepted submit exactly one terminal,
//!   enforced structurally by the client's `Mux` (any violation surfaces
//!   as an `InvalidData` error from `poll_event`) and re-counted here.
//! * **Backpressure engages under flood** — with tiny queue bounds the
//!   daemon answers `busy` with a positive retry hint while accepted
//!   requests still complete within the timeout.
//! * **Admissions are paced** — once the mapper work done overdraws the
//!   daemon's budget a submit is answered `busy` with the time the budget
//!   needs, a submit after that time is admitted, and the final stats count
//!   the bounced submit as rejected. A frame is decoded whole whatever the
//!   pace says: at a closed pace a frame that is not a valid request — a job
//!   the constructor refuses, jobs that are no jobs on a `stats`, not JSON —
//!   closes its connection, while a well-formed submit is bounced.
//! * **Graceful drain** — every in-flight group reaches its terminal
//!   `done` *before* the `drained` response, shard caches are persisted
//!   to disk, and the final stats account for every job.
//! * **Cancellation over the wire** — a cancel is acknowledged and the
//!   target submit terminates as `cancelled`, never `done`.
//! * **A request id names one submit in flight** — a submit that reuses the
//!   id of one still open is an `error` and admits nothing, so a cancel of
//!   that id still reaches the first.
//! * **The daemon waits exactly as long as the engine says** — a lone
//!   partial group is cut at its admission deadline with no other traffic
//!   to wake the daemon (a wrong wake time hangs, it does not add a tick).
//! * **A bad client costs only its own connection** — one that stops
//!   reading is dropped while every other client is served on (also one that
//!   floods submits at a closed pace), one that vanishes has its open submits
//!   cancelled, and one whose `submit_group` carries a job `Job::new` would
//!   refuse (`"batch": 0`, a dimension of 2^64 − 1, a layer with no elements)
//!   is a decode error on its own socket, not a panic or a hang of the
//!   daemon's thread.
//! * **A connection costs the daemon no thread** — one thread serves every
//!   socket, idle ones and one stuck mid-frame included, and a request on
//!   yet another is answered as ever.
//! * **A paced replay is answered in full** — a trace sent at its
//!   wall-clock due times gets one verdict a submit and one terminal per
//!   accepted submit before the drain, and the daemon's final counters
//!   agree with the client's books. The repository's benchmark
//!   (`benchmark/run.sh --workload rpc_mix`) holds the shipped binary to
//!   the same books over a 28-second run.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use magma_model::{Job, JobId, LayerShape, TaskType, TenantMix};
use magma_platform::settings::{FleetPolicy, ServerKnobs};
use magma_serve::shard_cache_file;
use magma_serve::trace::{generate_trace, Scenario, TraceParams};
use magma_serve::EngineConfig;
use magma_server::client::{Client, Event};
use magma_server::daemon::Server;
use magma_server::frame::{read_frame, write_frame};
use magma_server::proto::{
    decode, encode, RequestMsg, ResponseMsg, KIND_ACCEPTED, KIND_BUSY, KIND_CANCELLED, KIND_DONE,
    KIND_ERROR,
};

const MAX_FRAME: usize = 1 << 20;
const STEP: Duration = Duration::from_millis(20);

fn tiny_knobs() -> ServerKnobs {
    let mut knobs = ServerKnobs::smoke();
    knobs.addr = "127.0.0.1:0".to_string();
    knobs.fleet.serve.cold_budget = 40;
    knobs.fleet.serve.refine_budget = 4;
    knobs.fleet.serve.group_target = 4;
    knobs.fleet.serve.max_wait_x = 1.0;
    knobs.fleet.shards = 2;
    knobs.fleet.max_live = 2;
    knobs.rate = 100.0;
    knobs.timeout_sec = 30.0;
    knobs
}

/// One-job groups whose search cannot finish on its own, however fast the
/// daemon is: a budget of years, sliced round-robin so commands still land
/// between slices (the deadline policy would sprint it in one step) — a
/// submit under these knobs is live until something cancels it.
fn endless_search_knobs() -> ServerKnobs {
    let mut knobs = tiny_knobs();
    knobs.fleet.serve.cold_budget = 1 << 50;
    knobs.fleet.serve.group_target = 1;
    knobs.fleet.policy = FleetPolicy::Uniform;
    knobs
}

fn job(i: usize) -> Job {
    Job::new(
        JobId(i),
        "m",
        0,
        LayerShape::FullyConnected { out_features: 64 + (i % 3) * 32, in_features: 64 },
        4,
        TaskType::Recommendation,
    )
}

fn start_server(knobs: &ServerKnobs) -> (Server, String) {
    let config = EngineConfig::from_knobs(knobs);
    let mix = TenantMix::synthetic(knobs.fleet.tenants.max(2), 0);
    let server = Server::start(&knobs.addr, MAX_FRAME, config, mix)
        .expect("daemon binds an ephemeral localhost port");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Polls the client until no request is outstanding, collecting events.
fn pump_until_settled(client: &mut Client, events: &mut Vec<Event>, deadline: Instant) {
    while client.outstanding() > 0 {
        assert!(Instant::now() < deadline, "timed out waiting; events so far: {events:#?}");
        if let Some(event) = client.poll_event(STEP).expect("no protocol violations") {
            events.push(event);
        }
    }
}

/// Polls the client until `stop(events)` holds, collecting events.
fn pump_until(
    client: &mut Client,
    events: &mut Vec<Event>,
    deadline: Instant,
    mut stop: impl FnMut(&[Event]) -> bool,
) {
    while !stop(events) {
        assert!(Instant::now() < deadline, "timed out waiting; events so far: {events:#?}");
        if let Some(event) = client.poll_event(STEP).expect("no protocol violations") {
            events.push(event);
        }
    }
}

/// One-job groups whose search is charged `closed_for_sec` of mapper budget
/// (2.4 µs a sample, a sixth of that to run), and an engine that never
/// answers `busy` itself: see [`close_the_pace`].
fn paced_knobs(closed_for_sec: f64) -> ServerKnobs {
    let mut knobs = tiny_knobs();
    knobs.fleet.serve.cold_budget = (closed_for_sec / 2.4e-6) as usize;
    knobs.fleet.serve.group_target = 1;
    knobs.max_backlog_sec = 1e9;
    knobs.pending_per_shard = 1_000;
    knobs
}

/// Has a daemon under [`paced_knobs`] search one group. Its charge overdraws
/// the budget by the knobs' seconds less the burst, from when it was admitted:
/// until then the daemon is idle and every submit is bounced by the pace.
///
/// One such search at a time: it buys its budget seconds with a sixth as many
/// CPU seconds, which leaves a margin only while it has a core to itself.
fn close_the_pace(client: &mut Client) {
    static CLOSING: Mutex<()> = Mutex::new(());
    let _one_at_a_time = CLOSING.lock().unwrap_or_else(PoisonError::into_inner);
    client.submit(0, vec![job(0)]).expect("submit");
    let mut events = Vec::new();
    pump_until_settled(client, &mut events, Instant::now() + Duration::from_secs(60));
    assert!(matches!(events[..], [Event::Accepted { .. }, Event::Done { .. }]), "{events:?}");
}

fn drain_and_join(mut client: Client, server: Server) -> magma_serve::EngineStats {
    client.drain().expect("drain request sends");
    let mut post = Vec::new();
    pump_until(&mut client, &mut post, Instant::now() + Duration::from_secs(120), |evs| {
        evs.iter().any(|e| matches!(e, Event::Drained { .. }))
    });
    drop(client);
    server.join()
}

#[test]
fn submits_round_trip_with_no_lost_or_duplicated_responses() {
    let knobs = tiny_knobs();
    let (server, addr) = start_server(&knobs);
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");

    let mut submit_ids = Vec::new();
    for t in 0..6usize {
        let id = client.submit(t % 2, vec![job(t), job(t + 1)]).expect("submit");
        submit_ids.push(id);
    }
    let mut events = Vec::new();
    pump_until_settled(&mut client, &mut events, Instant::now() + Duration::from_secs(120));

    let mut verdicts: HashMap<u64, usize> = HashMap::new();
    let mut terminals: HashMap<u64, usize> = HashMap::new();
    for event in &events {
        match event {
            Event::Accepted { id } | Event::Busy { id, .. } | Event::Error { id, .. } => {
                *verdicts.entry(*id).or_default() += 1;
            }
            Event::Done { id, jobs, .. } => {
                assert_eq!(*jobs, 2, "group size echoes back");
                *terminals.entry(*id).or_default() += 1;
            }
            Event::Cancelled { id } => {
                *terminals.entry(*id).or_default() += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    for id in &submit_ids {
        assert_eq!(verdicts.get(id), Some(&1), "exactly one verdict for submit {id}");
    }
    let accepted: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Accepted { id } => Some(*id),
            _ => None,
        })
        .collect();
    assert!(!accepted.is_empty(), "the unloaded daemon accepts work");
    for id in &accepted {
        assert_eq!(terminals.get(id), Some(&1), "exactly one terminal for accepted {id}");
    }

    let stats = drain_and_join(client, server);
    assert_eq!(stats.completed_jobs, 2 * accepted.len() as u64);
    assert_eq!(stats.queued_jobs, 0);
    assert_eq!(stats.live_sessions, 0);
}

#[test]
fn flooding_engages_backpressure_while_accepted_work_stays_bounded() {
    let mut knobs = tiny_knobs();
    knobs.fleet.serve.cold_budget = 400;
    knobs.max_backlog_sec = 1e-3;
    knobs.pending_per_shard = 1;
    let (server, addr) = start_server(&knobs);
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");

    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    for t in 0..32usize {
        let id = client.submit(0, vec![job(t)]).expect("submit");
        sent_at.insert(id, Instant::now());
    }

    let mut events = Vec::new();
    let mut latencies = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while client.outstanding() > 0 {
        assert!(Instant::now() < deadline, "flood never settled; events: {events:#?}");
        if let Some(event) = client.poll_event(STEP).expect("no protocol violations") {
            if let Event::Done { id, .. } = &event {
                latencies.push(sent_at[id].elapsed());
            }
            events.push(event);
        }
    }
    let accepted = events.iter().filter(|e| matches!(e, Event::Accepted { .. })).count();
    let busy: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Busy { retry_after_sec, .. } => Some(*retry_after_sec),
            _ => None,
        })
        .collect();
    assert!(accepted > 0, "some of the flood is admitted");
    assert!(!busy.is_empty(), "backpressure engages under flood");
    assert!(busy.iter().all(|&hint| hint > 0.0), "retry hints are positive: {busy:?}");
    assert_eq!(latencies.len(), accepted, "every accepted submit completed");
    let worst = latencies.iter().max().copied().unwrap_or_default();
    assert!(
        worst < Duration::from_secs_f64(knobs.timeout_sec),
        "accepted-request tail latency {worst:?} stays under the {}s timeout",
        knobs.timeout_sec
    );

    let stats = drain_and_join(client, server);
    assert_eq!(stats.rejected as usize, busy.len());
}

#[test]
fn the_admission_pace_bounces_a_submit_until_the_budget_has_caught_up() {
    // A search charged 1.2 s of mapper budget, almost five times the burst.
    let (server, addr) = start_server(&paced_knobs(1.2));
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");
    let settle = |client: &mut Client| {
        let mut events = Vec::new();
        pump_until_settled(client, &mut events, Instant::now() + Duration::from_secs(60));
        events
    };
    close_the_pace(&mut client);

    // The budget is overdrawn now: the next submit bounces, with a hint.
    client.submit(0, vec![job(1)]).expect("submit");
    let events = settle(&mut client);
    let [Event::Busy { retry_after_sec, .. }] = events[..] else { panic!("{events:?}") };
    assert!(retry_after_sec > 0.0 && retry_after_sec < 2.0, "hint {retry_after_sec}");

    // The hint is good to the end: after it the same submit is admitted.
    std::thread::sleep(Duration::from_secs_f64(retry_after_sec));
    client.submit(0, vec![job(1)]).expect("submit");
    let events = settle(&mut client);
    assert!(matches!(events[..], [Event::Accepted { .. }, Event::Done { .. }]), "{events:?}");

    let stats = drain_and_join(client, server);
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.rejected, 1, "a paced submit counts as rejected");
    assert_eq!(stats.completed_jobs, 2);
}

#[test]
fn a_frame_that_is_not_a_request_closes_its_connection_whatever_the_pace() {
    let (server, addr) = start_server(&paced_knobs(4.0));
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");
    close_the_pace(&mut client);

    // Each frame on a connection of its own: the daemon's answer, or `None`
    // when it hangs up.
    let ask = |payload: &[u8]| {
        let mut raw = TcpStream::connect(&addr).expect("raw client connects");
        raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout sets");
        write_frame(&mut raw, payload, MAX_FRAME).expect("the frame sends");
        let answer = read_frame(&mut raw, MAX_FRAME).expect("the daemon answers or hangs up");
        answer.map(|payload| decode::<ResponseMsg>(&payload).expect("a response"))
    };

    // Nothing is admitted now, yet each frame is decoded whole and refused:
    // a job the constructor refuses, jobs that are no jobs on a verb that
    // does not use them, and a frame that is not JSON at all.
    let frame = String::from_utf8(encode(&RequestMsg::submit(0, 0, vec![job(0)]))).unwrap();
    for bent in [
        frame.replace("\"batch\":4", "\"batch\":0"),
        r#"{"id":1,"verb":"stats","jobs":[7]}"#.to_string(),
        frame.replace("\"batch\":4", "\"batch\":}"),
    ] {
        assert_eq!(ask(bent.as_bytes()), None, "{bent}: the connection closes");
    }
    // A well-formed submit is still bounced by the pace.
    let bounced = ask(frame.as_bytes()).expect("an answer");
    assert_eq!(bounced.kind, KIND_BUSY);
    assert!(bounced.retry_after_sec.expect("a hint") > 1.0, "{bounced:?}");

    let stats = drain_and_join(client, server);
    assert_eq!((stats.accepted, stats.rejected), (1, 1), "only the well-formed submit was bounced");
}

#[test]
fn a_submit_flood_at_a_closed_pace_costs_only_the_flooders_connection() {
    let (server, addr) = start_server(&paced_knobs(10.0));
    let mut healthy = Client::connect(&addr, MAX_FRAME).expect("client connects");
    close_the_pace(&mut healthy);

    // The flooder pipelines submits as fast as the socket takes them and
    // never reads an answer. Every one is bounced; the unread answers fill
    // its socket, then its outbox, and the daemon drops it, well before the
    // pace would admit one. Its writes then fail, or stall if the daemon's
    // end closed on a full window, and what is left to read ends in a
    // hang-up: on a live connection the read would time out instead.
    let frame = encode(&RequestMsg::submit(0, 0, vec![job(0)]));
    let mut flooder = TcpStream::connect(&addr).expect("raw client connects");
    flooder.set_write_timeout(Some(Duration::from_secs(1))).expect("timeout sets");
    flooder.set_read_timeout(Some(Duration::from_secs(8))).expect("timeout sets");
    let flood = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(8);
        let mut sent = 0u64;
        while write_frame(&mut flooder, &frame, MAX_FRAME).is_ok() {
            assert!(Instant::now() < deadline, "still served after {sent} unread answers");
            sent += 1;
        }
        let end = loop {
            match read_frame(&mut flooder, MAX_FRAME) {
                Ok(Some(_answer)) => {}
                end => break end,
            }
        };
        assert!(!matches!(&end, Err(e) if e.kind() == ErrorKind::WouldBlock), "still connected");
        sent
    });

    // Meanwhile, and afterwards, everyone else is answered.
    let mut flooding = true;
    while flooding {
        flooding = !flood.is_finished();
        healthy.stats().expect("stats");
        let mut events = Vec::new();
        pump_until_settled(&mut healthy, &mut events, Instant::now() + Duration::from_secs(30));
        assert!(matches!(events[..], [Event::Stats { .. }]), "{events:?}");
    }
    let sent = flood.join().expect("the flooder was dropped");

    let stats = drain_and_join(healthy, server);
    assert_eq!(stats.accepted, 1, "no submit of the flood was admitted");
    assert!(stats.rejected > 0 && stats.rejected <= sent, "{stats:?} after {sent} frames");
}

#[test]
fn drain_completes_in_flight_groups_first_and_persists_shard_caches() {
    let dir = std::env::temp_dir().join(format!("magma_rpc_drain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache_base = dir.join("serve_cache.json");

    let mut knobs = tiny_knobs();
    knobs.fleet.serve.cold_budget = 800;
    let mut config = EngineConfig::from_knobs(&knobs);
    config.core.cache_path = Some(cache_base.clone());
    let mix = TenantMix::synthetic(2, 0);
    let server = Server::start("127.0.0.1:0", MAX_FRAME, config, mix).expect("daemon starts");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");

    // Submit groups and drain while they are still in flight.
    for t in 0..8usize {
        client.submit(t % 2, vec![job(t)]).expect("submit");
    }
    let mut events = Vec::new();
    pump_until(&mut client, &mut events, Instant::now() + Duration::from_secs(60), |evs| {
        evs.iter().filter(|e| matches!(e, Event::Accepted { .. })).count() == 8
    });
    client.drain().expect("drain");
    pump_until(&mut client, &mut events, Instant::now() + Duration::from_secs(120), |evs| {
        evs.iter().any(|e| matches!(e, Event::Drained { .. }))
    });

    // Ordering: every Done precedes the Drained response.
    let drained_pos =
        events.iter().position(|e| matches!(e, Event::Drained { .. })).expect("drained");
    let dones_before =
        events.iter().take(drained_pos).filter(|e| matches!(e, Event::Done { .. })).count();
    assert_eq!(dones_before, 8, "all eight in-flight groups complete before drained");
    let Event::Drained { jobs, stats, .. } = &events[drained_pos] else { unreachable!() };
    assert_eq!(*jobs, 8);
    let final_stats = stats.expect("drained carries the final stats");
    assert_eq!(final_stats.completed_jobs, 8);
    assert_eq!(final_stats.live_sessions, 0);
    assert_eq!(final_stats.queued_jobs, 0);

    drop(client);
    server.join();
    for shard in 0..knobs.fleet.shards {
        let file = shard_cache_file(&cache_base, shard);
        assert!(file.exists(), "drain persists {}", file.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelling_over_the_wire_acknowledges_and_terminates_the_target() {
    let (server, addr) = start_server(&endless_search_knobs());
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");

    let target = client.submit(0, vec![job(0)]).expect("submit");
    let mut events = Vec::new();
    pump_until(&mut client, &mut events, Instant::now() + Duration::from_secs(30), |evs| {
        evs.iter().any(|e| matches!(e, Event::Accepted { .. }))
    });

    let cancel_id = client.cancel(target).expect("cancel");
    pump_until(&mut client, &mut events, Instant::now() + Duration::from_secs(60), |evs| {
        evs.iter().any(|e| matches!(e, Event::Cancelled { id } if *id == cancel_id))
            && evs.iter().any(|e| matches!(e, Event::Cancelled { id } if *id == target))
    });
    assert!(
        !events.iter().any(|e| matches!(e, Event::Done { id, .. } if *id == target)),
        "a cancelled submit never reports done: {events:#?}"
    );

    let stats = drain_and_join(client, server);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed_jobs, 0);
    assert_eq!(stats.cancelled_jobs, 1);
}

#[test]
fn a_submit_that_reuses_an_in_flight_id_is_refused() {
    // Backpressure never answers first, however long the search projects.
    let mut knobs = endless_search_knobs();
    knobs.max_backlog_sec = 1e12;
    let (server, addr) = start_server(&knobs);
    let raw = TcpStream::connect(&addr).expect("raw client connects");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout sets");
    let answer = || {
        let payload = read_frame(&mut &raw, MAX_FRAME).expect("an answer").expect("no hang-up");
        decode::<ResponseMsg>(&payload).expect("a response")
    };

    // Two submits under id 1, sent back to back: the first is searched
    // until cancelled, the second is refused and admits nothing.
    let mut wire = Vec::new();
    for job_index in [0, 1] {
        let submit = encode(&RequestMsg::submit(1, 0, vec![job(job_index)]));
        write_frame(&mut wire, &submit, MAX_FRAME).expect("the frame encodes");
    }
    (&raw).write_all(&wire).expect("both submits send");
    let (first, second) = (answer(), answer());
    assert_eq!((first.id, first.kind.as_str()), (1, KIND_ACCEPTED));
    assert_eq!((second.id, second.kind.as_str()), (1, KIND_ERROR), "{second:?}");
    let reason = second.error.expect("a reason");
    assert!(reason.contains("request id 1 is already in flight"), "{reason}");

    // The cancel of id 1 reaches the first submit: acknowledged, then its
    // terminal.
    let cancel = encode(&RequestMsg::cancel(2, 1));
    write_frame(&mut &raw, &cancel, MAX_FRAME).expect("the cancel sends");
    let mut ends = [answer(), answer()].map(|r| (r.id, r.kind));
    ends.sort();
    assert_eq!(ends, [(1, KIND_CANCELLED.to_string()), (2, KIND_CANCELLED.to_string())]);

    let client = Client::connect(&addr, MAX_FRAME).expect("client connects");
    let stats = drain_and_join(client, server);
    assert_eq!((stats.accepted, stats.cancelled, stats.cancelled_jobs), (1, 1, 1));
    assert_eq!(stats.completed_jobs, 0);
}

#[test]
fn a_lone_partial_group_completes_at_its_admission_deadline() {
    let mut knobs = tiny_knobs();
    // One job against a group target of 4: only the deadline path cuts it.
    knobs.rate = knobs.fleet.serve.group_target as f64 / 0.25;
    let max_wait = Duration::from_secs_f64(EngineConfig::from_knobs(&knobs).max_wait_sec);
    assert_eq!(max_wait, Duration::from_millis(250));
    let (server, addr) = start_server(&knobs);
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");

    // Nothing else is sent, so nothing but the engine's own wake time gets
    // the daemon out of its blocking wait.
    let sent = Instant::now();
    client.submit(0, vec![job(0)]).expect("submit");
    let mut events = Vec::new();
    pump_until_settled(&mut client, &mut events, sent + Duration::from_secs(30));
    let waited = sent.elapsed();
    assert!(matches!(events[..], [Event::Accepted { .. }, Event::Done { jobs: 1, .. }]));
    assert!(waited >= max_wait, "cut after {waited:?}, before the {max_wait:?} deadline");
    assert!(waited < max_wait + Duration::from_secs(5), "cut only after {waited:?}");

    let stats = drain_and_join(client, server);
    assert_eq!(stats.completed_jobs, 1);
}

#[test]
fn a_stalled_reader_loses_only_its_own_connection() {
    let (server, addr) = start_server(&tiny_knobs());
    let mut healthy = Client::connect(&addr, MAX_FRAME).expect("client connects");

    // The stalled client submits a group, then keeps asking for stats and
    // never reads an answer: its socket buffers fill, then its outbox, and
    // the daemon drops it — seen here as a failing write.
    let mut stalled = TcpStream::connect(&addr).expect("raw client connects");
    write_frame(&mut stalled, &encode(&RequestMsg::submit(0, 0, vec![job(0)])), MAX_FRAME)
        .expect("submit");
    let flood = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut id = 1;
        while write_frame(&mut stalled, &encode(&RequestMsg::stats(id)), MAX_FRAME).is_ok() {
            assert!(Instant::now() < deadline, "still connected after {id} unread answers");
            id += 1;
        }
    });

    // Meanwhile, and afterwards, everyone else is served.
    let mut served = 0;
    let mut flooding = true;
    while flooding {
        flooding = !flood.is_finished();
        healthy.submit(1, vec![job(served)]).expect("submit");
        let mut events = Vec::new();
        pump_until_settled(&mut healthy, &mut events, Instant::now() + Duration::from_secs(30));
        assert!(matches!(events[..], [Event::Accepted { .. }, Event::Done { .. }]), "{events:?}");
        served += 1;
    }
    flood.join().expect("the stalled client was dropped");

    let stats = drain_and_join(healthy, server);
    assert_eq!(stats.accepted, served as u64 + 1);
    assert!(stats.completed_jobs >= served as u64);
    // The stalled client's one job finished or was cancelled with its
    // connection; either way every accepted job is accounted for.
    assert_eq!(stats.completed_jobs + stats.cancelled_jobs, stats.accepted);
}

#[test]
fn a_job_the_constructor_would_refuse_costs_only_its_senders_connection() {
    let (server, addr) = start_server(&tiny_knobs());

    // Client A bends an otherwise well-formed submit. Admitted, a zero
    // mini-batch panics the cost model on the daemon's thread, a dimension of
    // 2^64 − 1 overflows the job's FLOP count there, and a layer without a
    // single element never completes in the bandwidth allocator's replay.
    let frame = String::from_utf8(encode(&RequestMsg::submit(0, 0, vec![job(0)]))).unwrap();
    let bend = |from: &str, to: &str| {
        let bent = frame.replace(from, to);
        assert_ne!(bent, frame, "{from}");
        bent
    };
    for bent in [
        bend("\"batch\":4", "\"batch\":0"),
        bend("\"in_features\":64", "\"in_features\":18446744073709551615"),
        bend("\"out_features\":64,\"in_features\":64", "\"out_features\":0,\"in_features\":0"),
        // Jobs that are not even JSON: the frame is no request at all.
        bend("\"batch\":4", "\"batch\":}"),
    ] {
        let mut hostile = TcpStream::connect(&addr).expect("raw client connects");
        hostile.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout sets");
        write_frame(&mut hostile, bent.as_bytes(), MAX_FRAME).expect("the bent frame sends");
        let answer = read_frame(&mut hostile, MAX_FRAME).expect("the daemon hangs up cleanly");
        assert_eq!(answer, None, "{bent}: a malformed submit closes the connection");
    }

    // Client B, on the same daemon, is served as if nothing had happened.
    let mut healthy = Client::connect(&addr, MAX_FRAME).expect("client connects");
    healthy.submit(1, vec![job(1)]).expect("submit");
    let mut events = Vec::new();
    pump_until_settled(&mut healthy, &mut events, Instant::now() + Duration::from_secs(30));
    assert!(matches!(events[..], [Event::Accepted { .. }, Event::Done { .. }]), "{events:?}");

    let stats = drain_and_join(healthy, server);
    assert_eq!((stats.accepted, stats.rejected), (1, 0), "no bent frame reached admission");
    assert_eq!(stats.accepted, stats.completed_jobs + stats.cancelled_jobs);
    assert_eq!((stats.completed_jobs, stats.timed_out_jobs), (1, 0));
}

#[test]
fn a_vanished_clients_open_submits_are_cancelled() {
    let (server, addr) = start_server(&endless_search_knobs());
    let mut vanishing = Client::connect(&addr, MAX_FRAME).expect("client connects");
    vanishing.submit(0, vec![job(0)]).expect("submit");
    let mut events = Vec::new();
    pump_until(&mut vanishing, &mut events, Instant::now() + Duration::from_secs(30), |evs| {
        evs.iter().any(|e| matches!(e, Event::Accepted { .. }))
    });
    drop(vanishing);

    // A second client watches the daemon stop searching for the first.
    let mut observer = Client::connect(&addr, MAX_FRAME).expect("client connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        observer.stats().expect("stats");
        let mut events = Vec::new();
        pump_until_settled(&mut observer, &mut events, deadline);
        let [Event::Stats { stats, .. }] = events[..] else { panic!("unexpected {events:?}") };
        if stats.live_sessions == 0 {
            break;
        }
    }

    let stats = drain_and_join(observer, server);
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.cancelled_jobs, 1);
    assert_eq!(stats.accepted, stats.completed_jobs + stats.cancelled_jobs);
    assert_eq!(stats.timed_out_jobs, 0);
}

/// The threads of this process whose name is `name`: a thread of that name
/// and every thread it, or one of them, spawned without naming it — a new
/// thread inherits its creator's name.
fn threads_named(name: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

#[test]
fn connections_cost_the_daemon_no_threads() {
    // Started from a thread of this name, the daemon's threads carry it too;
    // other tests' threads and the evaluation pool's (`magma-eval-*`) do not.
    const STARTER: &str = "rpc-conn-cost";
    let knobs = tiny_knobs();
    let starter = std::thread::Builder::new().name(STARTER.to_string());
    let (server, addr) = starter
        .spawn(move || start_server(&knobs))
        .expect("the starter thread spawns")
        .join()
        .expect("the daemon starts");

    // 32 idle connections, and one that announces a 4 KB frame and stops.
    let idle: Vec<TcpStream> =
        (0..32).map(|_| TcpStream::connect(&addr).expect("raw client connects")).collect();
    let mut stuck = TcpStream::connect(&addr).expect("raw client connects");
    stuck.write_all(&4096u32.to_be_bytes()).expect("the header sends");

    // A 34th connection is served as ever.
    let mut raw = TcpStream::connect(&addr).expect("raw client connects");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout sets");
    write_frame(&mut raw, &encode(&RequestMsg::submit(1, 0, vec![job(0)])), MAX_FRAME)
        .expect("the submit sends");
    let mut answer = || {
        let payload = read_frame(&mut raw, MAX_FRAME).expect("an answer").expect("no hang-up");
        decode::<ResponseMsg>(&payload).expect("a response").kind
    };
    assert_eq!((answer(), answer()), (KIND_ACCEPTED.to_string(), KIND_DONE.to_string()));

    // The accept order has reached the 34th, so the daemon has seen every
    // connection: still only the thread `Server::start` spawned.
    assert_eq!(threads_named(STARTER), 1, "the daemon's threads with 34 connections open");

    let healthy = Client::connect(&addr, MAX_FRAME).expect("client connects");
    let stats = drain_and_join(healthy, server);
    assert_eq!((stats.accepted, stats.completed_jobs), (1, 1));
    drop((idle, stuck));
}

/// A trace of the synthetic mix's zoo jobs, each sent at its wall-clock due
/// time by a client that reads its answers in between, then a `stats`
/// snapshot and a drain: the pattern of any paced client. Every submit gets
/// one verdict, every accepted one reaches its terminal before `drained`,
/// and the daemon's final counters agree with the client's books.
#[test]
fn a_paced_trace_replay_is_answered_in_full_before_the_drain() {
    let knobs = tiny_knobs();
    let (server, addr) = start_server(&knobs);
    let mut client = Client::connect(&addr, MAX_FRAME).expect("client connects");

    let mix = TenantMix::synthetic(knobs.fleet.tenants.max(2), 0);
    let trace = generate_trace(
        &TraceParams {
            scenario: Scenario::Poisson,
            requests: 24,
            mean_interarrival_sec: 1.0 / 200.0,
            mini_batch: magma_model::workload::DEFAULT_MINI_BATCH,
            seed: 7,
        },
        &mix,
    );
    let mut events = Vec::new();
    let start = Instant::now();
    for arrival in &trace {
        let due = start + Duration::from_secs_f64(arrival.time_sec);
        while let Some(wait) = due.checked_duration_since(Instant::now()).filter(|w| !w.is_zero()) {
            events.extend(client.poll_event(wait.min(STEP)).expect("no protocol violations"));
        }
        client.submit(arrival.tenant, vec![arrival.job.clone()]).expect("submit");
    }
    let snapshot = client.stats().expect("stats");
    pump_until_settled(&mut client, &mut events, Instant::now() + Duration::from_secs(60));
    assert!(events.iter().any(|e| matches!(e, Event::Stats { id, .. } if *id == snapshot)));

    let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let accepted = count(|e| matches!(e, Event::Accepted { .. }));
    let busy = count(|e| matches!(e, Event::Busy { .. }));
    assert_eq!(accepted + busy, trace.len() as u64, "one verdict a submit, none an error");
    assert!(accepted > 0, "the daemon admits a sane rate");
    assert_eq!(count(|e| matches!(e, Event::Done { jobs: 1, .. })), accepted);

    let stats = drain_and_join(client, server);
    assert_eq!((stats.accepted, stats.rejected), (accepted, busy));
    assert_eq!((stats.completed_jobs, stats.cancelled_jobs), (accepted, 0));
    assert_eq!((stats.queued_jobs, stats.live_sessions), (0, 0));
}
