//! `magma_server` — the wall-clock RPC serving daemon (`magma-server`).
//!
//! Binds a TCP socket and serves the mapping pipeline for real: clients
//! submit job groups over the length-prefixed JSON protocol, the engine
//! batches, places and searches them against `Instant::now()`, and every
//! group's execution is reported back as a multiplexed `done` response.
//! The process runs until a client sends `drain`: admissions close, every
//! live session finishes, shard caches persist (when
//! `MAGMA_SERVE_CACHE_PATH` is set) and the daemon exits with a final
//! counter summary.
//!
//! With `--scenario <file>` the platform and tenant mix come from a
//! registry scenario (`magma-registry`) instead of the synthetic
//! defaults; the scenario's cache/SLA residuals apply to the engine.
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
//! | `--smoke` | CI scale: smaller budgets, tighter timeout |
//! | `--scenario <file>` | serve a registry scenario's platform/mix |
//! | `MAGMA_SERVER_ADDR` | bind address (default `127.0.0.1:4270`; port 0 = ephemeral) |
//! | `MAGMA_FLEET_SHARDS` | platform shards behind the router |
//! | `MAGMA_SERVE_CACHE_PATH` | per-shard cache persistence at `<path>.shard<i>` |
//! | `MAGMA_SCENARIO_DIR` | registry root for scenario references (default `scenarios/`) |
//! | `MAGMA_THREADS` | evaluation worker threads |

use magma_model::TenantMix;
use magma_serve::EngineConfig;
use magma_server::Server;

fn main() {
    let setup = magma_bench::serving_setup();
    let knobs = &setup.knobs;

    println!("==============================================================");
    println!("magma_server — wall-clock RPC serving daemon (magma-server)");

    let config = EngineConfig::from_knobs(knobs);
    let mix = match &setup.scenario {
        Some(resolved) => {
            magma_bench::print_scenario(resolved);
            resolved.mix.clone()
        }
        None => TenantMix::synthetic(knobs.fleet.tenants, knobs.fleet.serve.seed),
    };
    println!(
        "mode {}, {} shards, policy {}, max_live {}, backlog bound {}s, \
         pending/shard {}, timeout {}s, seed {}",
        setup.mode(),
        config.shards(),
        config.policy,
        config.max_live,
        config.max_backlog_sec,
        config.pending_per_shard,
        config.timeout_sec,
        config.seed
    );
    println!("==============================================================");

    let server = match Server::start(&knobs.addr, knobs.max_frame_bytes, config, mix) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("could not bind {}: {e}", knobs.addr);
            std::process::exit(1);
        }
    };
    // The benchmark (`benchmark/src/rpc.rs`) and scripts scrape this line for
    // the resolved address, so keep its shape stable.
    println!("listening on {}", server.addr());

    let stats = server.join();
    println!(
        "drained: {} accepted / {} rejected submits; {} jobs completed \
         ({} timed out, {} cancelled); sessions {} admitted = {} completed + {} preempted; \
         cache {}/{}/{} hit/near/miss",
        stats.accepted,
        stats.rejected,
        stats.completed_jobs,
        stats.timed_out_jobs,
        stats.cancelled_jobs,
        stats.admitted_sessions,
        stats.completed_sessions,
        stats.preempted_sessions,
        stats.cache_hits,
        stats.cache_near_hits,
        stats.cache_misses
    );
}
