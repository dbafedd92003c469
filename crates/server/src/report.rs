//! The schema-stable `BENCH_rpc.json` contract (`magma-rpc/v1`).
//!
//! The load generator ([`crate::loadgen`]) emits one [`RpcReport`] per
//! run: client-measured latency percentiles over the wire, admission
//! outcomes, the server's final counter snapshot and the resolved
//! scenario descriptor — so a report is self-describing and
//! re-runnable. It is a [`BenchReport`]: `magma_serve::emit` self-checks,
//! writes and gates it (the drain guarantee) like the simulators' reports.

use magma_serve::{BenchReport, EngineStats, ScenarioDescriptor};
use serde::{Deserialize, Serialize};

/// Schema tag every `BENCH_rpc.json` carries.
pub const RPC_SCHEMA: &str = "magma-rpc/v1";

/// One load-generator run against a live daemon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RpcReport {
    /// Always [`RPC_SCHEMA`].
    pub schema: String,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// The daemon address the client dialed.
    pub addr: String,
    /// Offered request rate, requests per wall-clock second.
    pub rate: f64,
    /// Requests the client attempted to submit.
    pub requests: usize,
    /// Submits the daemon admitted.
    pub accepted: usize,
    /// Submits rejected with `busy` backpressure.
    pub rejected: usize,
    /// Submits rejected outright (`error` responses).
    pub errored: usize,
    /// Accepted submits that reached a terminal `done`.
    pub completed: usize,
    /// Completed submits whose group blew its deadline server-side.
    pub timed_out: usize,
    /// Accepted submits that terminated as `cancelled`.
    pub cancelled: usize,
    /// Accepted submits that never reached a terminal response —
    /// the drain guarantee makes this zero on a healthy run.
    pub dropped_in_flight: usize,
    /// Mean accepted-submit latency (submit sent → `done` received), ms.
    pub mean_latency_ms: f64,
    /// Median accepted-submit latency, ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile accepted-submit latency, ms.
    pub p95_latency_ms: f64,
    /// 99th-percentile accepted-submit latency, ms.
    pub p99_latency_ms: f64,
    /// Jobs the drain reported completed over the daemon's lifetime.
    pub drained_jobs: usize,
    /// The daemon's final counter snapshot (from the `drained` response).
    pub server: EngineStats,
    /// The resolved scenario this run replayed.
    pub scenario_descriptor: ScenarioDescriptor,
}

impl BenchReport for RpcReport {
    const FILE: &'static str = "BENCH_rpc.json";
    const SCHEMA: &'static str = RPC_SCHEMA;

    fn header(&self) -> (&str, &str, &ScenarioDescriptor) {
        (&self.schema, &self.mode, &self.scenario_descriptor)
    }

    fn check_body(&self) -> Result<(), String> {
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(format!("rate {} is not positive", self.rate));
        }
        if self.accepted + self.rejected + self.errored != self.requests {
            return Err(format!(
                "admission outcomes do not partition requests: {} accepted + {} rejected + {} \
                 errored != {} requests",
                self.accepted, self.rejected, self.errored, self.requests
            ));
        }
        if self.completed + self.cancelled + self.dropped_in_flight != self.accepted {
            return Err(format!(
                "terminal outcomes do not partition accepted submits: {} completed + {} \
                 cancelled + {} dropped != {} accepted",
                self.completed, self.cancelled, self.dropped_in_flight, self.accepted
            ));
        }
        if self.timed_out > self.completed {
            return Err(format!(
                "{} timed out exceeds {} completed",
                self.timed_out, self.completed
            ));
        }
        let percentiles =
            [self.mean_latency_ms, self.p50_latency_ms, self.p95_latency_ms, self.p99_latency_ms];
        if percentiles.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err("latency statistics must be finite and non-negative".to_string());
        }
        if self.p50_latency_ms > self.p95_latency_ms || self.p95_latency_ms > self.p99_latency_ms {
            return Err(format!(
                "latency percentiles are not monotone: p50 {} > p95 {} or p95 > p99 {}",
                self.p50_latency_ms, self.p95_latency_ms, self.p99_latency_ms
            ));
        }
        Ok(())
    }

    /// The drain guarantee: every accepted submit reached a terminal
    /// response before the daemon acknowledged the drain.
    fn accept(&self) -> Result<String, String> {
        if self.dropped_in_flight != 0 {
            return Err(format!(
                "dropped_in_flight = {}: accepted submits never reached a terminal response \
                 (the drain guarantee requires 0)",
                self.dropped_in_flight
            ));
        }
        Ok(format!("all {} accepted submits reached a terminal response", self.accepted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RpcReport {
        RpcReport {
            schema: RPC_SCHEMA.to_string(),
            mode: "smoke".to_string(),
            addr: "127.0.0.1:4270".to_string(),
            rate: 16.0,
            requests: 10,
            accepted: 8,
            rejected: 1,
            errored: 1,
            completed: 7,
            timed_out: 1,
            cancelled: 1,
            dropped_in_flight: 0,
            mean_latency_ms: 12.0,
            p50_latency_ms: 10.0,
            p95_latency_ms: 20.0,
            p99_latency_ms: 25.0,
            drained_jobs: 7,
            server: EngineStats::default(),
            scenario_descriptor: ScenarioDescriptor::new(
                "builtin",
                "loadgen_poisson",
                serde::Value::Map(vec![("rate".into(), serde::Value::F64(16.0))]),
            ),
        }
    }

    #[test]
    fn a_consistent_report_validates_and_round_trips() {
        let report = sample();
        assert_eq!(report.validate(), Ok(()));
        let back: RpcReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back.validate(), Ok(()));
        assert_eq!(back.requests, report.requests);
        assert!(back.accept().unwrap().contains("all 8 accepted"));
    }

    #[test]
    fn every_partition_violation_is_caught() {
        let mut r = sample();
        r.accepted += 1;
        assert!(r.validate().unwrap_err().contains("partition requests"));

        let mut r = sample();
        r.dropped_in_flight = 1;
        assert!(r.validate().unwrap_err().contains("partition accepted"));

        let mut r = sample();
        r.p50_latency_ms = 30.0;
        assert!(r.validate().unwrap_err().contains("monotone"));

        let mut r = sample();
        r.timed_out = 9;
        assert!(r.validate().is_err());
    }

    #[test]
    fn the_shared_header_check_covers_the_rpc_report() {
        let mut r = sample();
        r.schema = "magma-rpc/v0".into();
        assert!(r.validate().unwrap_err().contains("schema tag"));

        let mut r = sample();
        r.mode = "ful".into();
        assert!(r.validate().unwrap_err().contains("mode \"ful\""));

        let mut r = sample();
        r.scenario_descriptor.params = serde::Value::Null;
        assert!(r.validate().unwrap_err().contains("content_hash"));
    }

    #[test]
    fn a_dropped_submit_fails_the_drain_gate_by_name() {
        let mut r = sample();
        (r.completed, r.dropped_in_flight) = (6, 1);
        assert_eq!(r.validate(), Ok(()), "a consistent report of a bad run");
        assert!(r.accept().unwrap_err().starts_with("dropped_in_flight = 1"));
    }
}
