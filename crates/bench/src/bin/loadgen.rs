//! `loadgen` — the wall-clock load generator for the `magma_server`
//! daemon (`magma-server`).
//!
//! Replays a traffic scenario over the wire at a target rate: each trace
//! arrival becomes one `submit_group` RPC at its wall-clock due time,
//! admission verdicts and terminal `done`s are correlated by request id,
//! and after the last send the generator waits for stragglers, snapshots
//! the server's stats and drains it. The run emits the schema-stable
//! `BENCH_rpc.json` (`magma-rpc/v1`): client-measured p50/p95/p99,
//! accepted/rejected/timed-out/cancelled counts, the daemon's final
//! counters and the resolved scenario descriptor.
//!
//! The report goes through `magma_serve::emit` (self-check, write, then
//! gate): the process exits 1 if the self-check fails or if any accepted
//! submit never reached a terminal response (`dropped_in_flight != 0`,
//! `RpcReport::accept`) — the drain guarantee CI gates on, for every run.
//!
//! With `--scenario <file>` the trace replays a registry scenario's
//! traffic block and tenant mix; the daemon should be started with the
//! same file so the mixes agree.
//!
//! # Knobs
//!
//! Serving knobs are the shipped defaults (`ServeKnobs` / `FleetKnobs` /
//! `ServerKnobs`); per-scenario values come from the registry file's
//! `traffic` / `serving` blocks, and the environment overrides only what
//! the table lists (README has the one table of every `MAGMA_*` variable).
//!
//! | Flag / variable | Effect |
//! |---|---|
//! | `--smoke` | CI scale: fewer requests, higher rate |
//! | `--scenario <file>` | replay a registry scenario's traffic/mix |
//! | `MAGMA_SERVER_ADDR` | daemon address to dial (default `127.0.0.1:4270`) |
//! | `MAGMA_SERVER_REQUESTS` | trace length (arrivals replayed) |
//! | `MAGMA_SCENARIO_DIR` | registry root for scenario references (default `scenarios/`) |
//! | `MAGMA_BENCH_DIR` | output directory of `BENCH_rpc.json` |

use magma_model::TenantMix;
use magma_serve::trace::{generate_trace, Scenario, TraceParams};
use magma_serve::ScenarioDescriptor;
use magma_server::loadgen::{self, LoadgenParams};

fn main() {
    let setup = magma_bench::serving_setup();
    let (knobs, mode) = (&setup.knobs, setup.mode());
    let (requests, seed) = (knobs.requests, knobs.fleet.serve.seed);

    println!("==============================================================");
    println!("loadgen — wall-clock RPC load generator (magma-server)");

    let (scenario, mix, descriptor) = match setup.scenario {
        Some(resolved) => {
            magma_bench::print_scenario(&resolved);
            (resolved.scenario, resolved.mix, resolved.descriptor)
        }
        None => {
            let params = serde::Value::Map(vec![
                ("requests".into(), serde::Value::U64(requests as u64)),
                ("rate".into(), serde::Value::F64(knobs.rate)),
                ("tenants".into(), serde::Value::U64(knobs.fleet.tenants as u64)),
                ("scenario".into(), serde::Value::Str("poisson".into())),
                ("seed".into(), serde::Value::U64(seed)),
            ]);
            (
                Scenario::Poisson,
                TenantMix::synthetic(knobs.fleet.tenants, seed),
                ScenarioDescriptor::new("builtin", "loadgen_poisson", params),
            )
        }
    };
    println!(
        "mode {mode}, target {}, {} requests at {} groups/s, timeout {}s, seed {seed}",
        knobs.addr, requests, knobs.rate, knobs.timeout_sec
    );
    println!("==============================================================");

    let trace = generate_trace(
        &TraceParams {
            scenario,
            requests,
            mean_interarrival_sec: 1.0 / knobs.rate,
            mini_batch: magma_model::workload::DEFAULT_MINI_BATCH,
            seed,
        },
        &mix,
    );
    let params = LoadgenParams {
        addr: knobs.addr.clone(),
        rate: knobs.rate,
        max_frame_bytes: knobs.max_frame_bytes,
        timeout_sec: knobs.timeout_sec,
        speedup: 1.0,
    };
    let report = match loadgen::run(&params, &trace, descriptor, mode) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen run against {} failed: {e}", knobs.addr);
            std::process::exit(1);
        }
    };

    println!(
        "admission: {} accepted / {} busy / {} errored of {} requests",
        report.accepted, report.rejected, report.errored, report.requests
    );
    println!(
        "terminals: {} done ({} timed out), {} cancelled, {} dropped in flight",
        report.completed, report.timed_out, report.cancelled, report.dropped_in_flight
    );
    println!(
        "client latency: mean {:.1} ms, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        report.mean_latency_ms, report.p50_latency_ms, report.p95_latency_ms, report.p99_latency_ms
    );
    println!(
        "server: {} jobs completed, {} sessions preempted, cache {}/{}/{} hit/near/miss",
        report.server.completed_jobs,
        report.server.preempted_sessions,
        report.server.cache_hits,
        report.server.cache_near_hits,
        report.server.cache_misses
    );

    magma_bench::emit_or_exit(&report, true);
}
