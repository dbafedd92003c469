//! The metrics pipeline: latency percentiles, per-tenant SLA accounting,
//! throughput and cache/dispatch summaries.
//!
//! Like the SG2042 HPC characterization in PAPERS.md, the serving simulator
//! reports a full profile — p50/p95/p99 percentiles, not just means — for
//! queueing, service and end-to-end latency, globally and per tenant. All
//! statistics are computed with deterministic, order-stable arithmetic so
//! the emitted report is bit-identical across runs and thread counts.

use crate::cache::CacheStats;
use crate::dispatch::{DispatchKind, DispatchOutcome};
use magma_model::{TaskType, TenantMix};
use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of an ascending-sorted sample vector.
///
/// # Contract
///
/// `q` must lie in `(0, 1]`: the nearest-rank statistic is undefined at
/// `q = 0` (there is no 0th-smallest sample) and extrapolates nothing above
/// the maximum. An out-of-contract quantile is a caller bug — debug builds
/// panic on it; release builds clamp to the nearest valid rank so a stray
/// quantile degrades instead of crashing a serving fleet. Returns 0.0 for
/// an empty vector.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(q > 0.0 && q <= 1.0, "percentile quantile must lie in (0, 1], got {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary statistics of one latency population, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_sec: f64,
    /// Median (nearest rank).
    pub p50_sec: f64,
    /// 95th percentile (nearest rank).
    pub p95_sec: f64,
    /// 99th percentile (nearest rank).
    pub p99_sec: f64,
    /// Maximum.
    pub max_sec: f64,
}

impl LatencyStats {
    /// Computes the summary of `samples` (not required to be sorted).
    pub(crate) fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        let mean_sec = if count == 0 { 0.0 } else { samples.iter().sum::<f64>() / count as f64 };
        LatencyStats {
            count,
            mean_sec,
            p50_sec: percentile(&samples, 0.50),
            p95_sec: percentile(&samples, 0.95),
            p99_sec: percentile(&samples, 0.99),
            max_sec: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// Per-tenant latency and SLA accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Tenant task category.
    pub task: TaskType,
    /// Jobs completed for this tenant.
    pub jobs: usize,
    /// End-to-end (arrival → completion) latency profile.
    pub latency: LatencyStats,
    /// The SLA bound applied **to this tenant**, in seconds: the uniform
    /// baseline scaled by the tenant's contracted multiplier.
    pub sla_sec: f64,
    /// The tenant's SLA contract multiplier (1.0 when uncontracted, i.e.
    /// the uniform `ServeKnobs::sla_x` bound applies unscaled).
    pub sla_multiplier: f64,
    /// Jobs whose end-to-end latency exceeded the bound.
    pub sla_violations: usize,
    /// `sla_violations / jobs` (0 when no jobs).
    pub sla_violation_rate: f64,
}

/// Cache summary in the emitted report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheReport {
    /// Lookup hits (exact-key and nearest-key combined).
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// The subset of `hits` served by the nearest-key probe
    /// (`ServeKnobs::cache_epsilon`).
    pub near_hits: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Live entries at the end of the run.
    pub entries: usize,
}

impl CacheReport {
    /// The reported block of a cache's (or a sum of caches') counters.
    pub fn new(stats: CacheStats, entries: usize) -> Self {
        CacheReport {
            hits: stats.hits,
            misses: stats.misses,
            near_hits: stats.near_hits,
            evictions: stats.evictions,
            hit_rate: stats.hit_rate(),
            entries,
        }
    }
}

/// Mapping-quality and budget summary over all dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DispatchSummary {
    /// Total dispatch groups.
    pub dispatches: usize,
    /// Cache-miss (cold-search) dispatches.
    pub cold: usize,
    /// Cache-hit (adapt-then-refine) dispatches.
    pub hits: usize,
    /// Search samples spent by cold dispatches.
    pub cold_samples: u64,
    /// Search samples spent by hit dispatches.
    pub hit_samples: u64,
    /// Mean best-mapping throughput of cold dispatches, GFLOP/s.
    pub cold_gflops_mean: f64,
    /// Mean best-mapping throughput of hit dispatches, GFLOP/s.
    pub hit_gflops_mean: f64,
    /// `hit_gflops_mean / cold_gflops_mean` (0 when either side is empty) —
    /// the ≥ 0.9 acceptance metric.
    pub hit_cold_throughput_ratio: f64,
    /// Mean hit samples / mean cold samples (0 when either side is empty) —
    /// the ≤ 0.1 acceptance metric.
    pub hit_sample_fraction: f64,
}

/// A [`DispatchSummary`] taken one dispatch at a time: what a running
/// simulation keeps of a finished group instead of its mapping and
/// schedule. Sums run in the order the dispatches are added.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DispatchTally {
    cold: usize,
    hits: usize,
    cold_samples: u64,
    hit_samples: u64,
    cold_gflops: f64,
    hit_gflops: f64,
}

impl DispatchTally {
    /// Folds in one dispatch's kind, samples and best fitness.
    pub(crate) fn add(&mut self, outcome: &DispatchOutcome) {
        match outcome.kind {
            DispatchKind::ColdSearch => {
                self.cold += 1;
                self.cold_samples += outcome.samples as u64;
                self.cold_gflops += outcome.best_fitness;
            }
            DispatchKind::CacheHit => {
                self.hits += 1;
                self.hit_samples += outcome.samples as u64;
                self.hit_gflops += outcome.best_fitness;
            }
        }
    }

    /// The summary of every dispatch added so far.
    pub(crate) fn summary(self) -> DispatchSummary {
        let mut s = DispatchSummary {
            dispatches: self.cold + self.hits,
            cold: self.cold,
            hits: self.hits,
            cold_samples: self.cold_samples,
            hit_samples: self.hit_samples,
            cold_gflops_mean: 0.0,
            hit_gflops_mean: 0.0,
            hit_cold_throughput_ratio: 0.0,
            hit_sample_fraction: 0.0,
        };
        if s.cold > 0 {
            s.cold_gflops_mean = self.cold_gflops / s.cold as f64;
        }
        if s.hits > 0 {
            s.hit_gflops_mean = self.hit_gflops / s.hits as f64;
        }
        if s.cold > 0 && s.hits > 0 && s.cold_gflops_mean > 0.0 {
            s.hit_cold_throughput_ratio = s.hit_gflops_mean / s.cold_gflops_mean;
            let cold_mean = s.cold_samples as f64 / s.cold as f64;
            let hit_mean = s.hit_samples as f64 / s.hits as f64;
            if cold_mean > 0.0 {
                s.hit_sample_fraction = hit_mean / cold_mean;
            }
        }
        s
    }
}

/// The full metrics block of one simulated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// Jobs completed.
    pub jobs: usize,
    /// Virtual-clock span of the run, from the clock origin (t = 0, just
    /// before the first arrival) to the last completion, in seconds.
    pub duration_sec: f64,
    /// Jobs per virtual second.
    pub jobs_per_sec: f64,
    /// Useful work per virtual second, GFLOP/s.
    pub throughput_gflops: f64,
    /// Queueing (arrival → dispatch) latency profile.
    pub queueing: LatencyStats,
    /// Service (dispatch → completion, incl. mapper overhead) profile.
    pub service: LatencyStats,
    /// End-to-end (arrival → completion) latency profile.
    pub end_to_end: LatencyStats,
    /// Per-tenant breakdown, in tenant-mix order.
    pub tenants: Vec<TenantReport>,
    /// Mapping-cache counters.
    pub cache: CacheReport,
    /// Dispatch/budget/quality summary.
    pub dispatch: DispatchSummary,
}

/// One completed job's bookkeeping, as the simulator records it.
pub(crate) struct JobRecord {
    pub(crate) tenant: usize,
    pub(crate) arrival_sec: f64,
    pub(crate) dispatched_sec: f64,
    pub(crate) completed_sec: f64,
    pub(crate) flops: u64,
}

impl ServeMetrics {
    /// Folds a run's job records into the metrics block beside its
    /// dispatch summary. `cache` is the (summed-over-shards) cache block;
    /// `sla_sec` the uniform per-job bound each tenant's contract scales.
    pub(crate) fn from_records(
        records: &[JobRecord],
        dispatch: DispatchSummary,
        cache: CacheReport,
        mix: &TenantMix,
        sla_sec: f64,
    ) -> Self {
        let duration_sec = records.iter().map(|r| r.completed_sec).fold(0.0f64, f64::max);
        let total_flops: u64 = records.iter().map(|r| r.flops).sum();
        let (jobs_per_sec, throughput_gflops) = if duration_sec > 0.0 {
            (records.len() as f64 / duration_sec, total_flops as f64 / duration_sec / 1e9)
        } else {
            (0.0, 0.0)
        };

        let queueing = LatencyStats::from_samples(
            records.iter().map(|r| r.dispatched_sec - r.arrival_sec).collect(),
        );
        let service = LatencyStats::from_samples(
            records.iter().map(|r| r.completed_sec - r.dispatched_sec).collect(),
        );
        let end_to_end = LatencyStats::from_samples(
            records.iter().map(|r| r.completed_sec - r.arrival_sec).collect(),
        );

        // One pass over the records, in record order: a fleet ladder holds
        // a thousand tenants, and a filter per tenant visited every record
        // once for each of them.
        let mut latencies_by_tenant = vec![Vec::new(); mix.tenants().len()];
        for r in records {
            if let Some(latencies) = latencies_by_tenant.get_mut(r.tenant) {
                latencies.push(r.completed_sec - r.arrival_sec);
            }
        }
        let tenants = mix
            .tenants()
            .iter()
            .zip(latencies_by_tenant)
            .map(|(tenant, latencies)| {
                let jobs = latencies.len();
                // Per-tenant SLA contract: the baseline bound scaled by the
                // tenant's multiplier (uniform bound without a contract).
                let tenant_sla_sec = tenant.effective_sla_sec(sla_sec);
                let sla_violations = latencies.iter().filter(|&&l| l > tenant_sla_sec).count();
                TenantReport {
                    tenant: tenant.name().to_string(),
                    task: tenant.task(),
                    jobs,
                    latency: LatencyStats::from_samples(latencies),
                    sla_sec: tenant_sla_sec,
                    sla_multiplier: tenant.sla_multiplier().unwrap_or(1.0),
                    sla_violations,
                    sla_violation_rate: if jobs == 0 {
                        0.0
                    } else {
                        sla_violations as f64 / jobs as f64
                    },
                }
            })
            .collect();

        ServeMetrics {
            jobs: records.len(),
            duration_sec,
            jobs_per_sec,
            throughput_gflops,
            queueing,
            service,
            end_to_end,
            tenants,
            cache,
            dispatch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_contract_boundaries() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // The closed upper boundary is in contract and returns the maximum.
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Any in-contract quantile, however tiny, resolves to rank 1 — the
        // open lower boundary never reaches a "0th smallest" sample.
        assert_eq!(percentile(&v, 1e-12), 1.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn percentile_rejects_a_zero_quantile() {
        let _ = percentile(&[1.0, 2.0], 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn percentile_rejects_a_quantile_above_one() {
        let _ = percentile(&[1.0, 2.0], 1.5);
    }

    /// What the contract promises release builds: an out-of-contract
    /// quantile clamps to the nearest valid rank instead of panicking.
    #[test]
    #[cfg(not(debug_assertions))]
    fn percentile_clamps_an_out_of_contract_quantile() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, -0.5), 1.0);
        assert_eq!(percentile(&v, 1.5), 3.0);
    }

    #[test]
    fn latency_stats_are_ordered() {
        let stats = LatencyStats::from_samples((0..250).map(|i| (i % 97) as f64).collect());
        assert_eq!(stats.count, 250);
        assert!(stats.p50_sec <= stats.p95_sec);
        assert!(stats.p95_sec <= stats.p99_sec);
        assert!(stats.p99_sec <= stats.max_sec);
        assert!(stats.mean_sec > 0.0);
    }

    #[test]
    fn empty_latency_stats_are_zero() {
        let stats = LatencyStats::from_samples(Vec::new());
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean_sec, 0.0);
        assert_eq!(stats.max_sec, 0.0);
    }

    /// Every tenant's report is the filter-per-tenant fold it used to be —
    /// built in one pass over the records: interleaved tenants, a tenant with
    /// no jobs, its own SLA contract.
    #[test]
    fn tenant_reports_are_the_per_tenant_fold_of_the_records() {
        let mix = TenantMix::synthetic(5, 3).with_sla_multipliers(&[1.0, 0.5, 2.0, 1.0, 1.0]);
        let records: Vec<JobRecord> = (0..200usize)
            .map(|i| JobRecord {
                tenant: (i * 7 + i / 3) % 4, // tenant 4 never completes a job
                arrival_sec: i as f64 * 0.01,
                dispatched_sec: i as f64 * 0.01 + 0.002,
                completed_sec: i as f64 * 0.01 + 0.002 + ((i * 37) % 11) as f64 * 0.003,
                flops: 1_000,
            })
            .collect();
        let cache = CacheReport::new(CacheStats::default(), 0);
        let metrics = ServeMetrics::from_records(
            &records,
            DispatchTally::default().summary(),
            cache,
            &mix,
            0.02,
        );
        assert_eq!(metrics.tenants.len(), 5);
        for (i, (report, tenant)) in metrics.tenants.iter().zip(mix.tenants()).enumerate() {
            let latencies: Vec<f64> = records
                .iter()
                .filter(|r| r.tenant == i)
                .map(|r| r.completed_sec - r.arrival_sec)
                .collect();
            let sla_sec = tenant.effective_sla_sec(0.02);
            assert_eq!(report.jobs, latencies.len(), "tenant {i}");
            assert_eq!(report.sla_sec, sla_sec, "tenant {i}");
            assert_eq!(
                report.sla_violations,
                latencies.iter().filter(|&&l| l > sla_sec).count(),
                "tenant {i}"
            );
            assert_eq!(report.latency, LatencyStats::from_samples(latencies), "tenant {i}");
        }
        assert_eq!(metrics.tenants[4].jobs, 0);
        assert_eq!(metrics.tenants.iter().map(|t| t.jobs).sum::<usize>(), records.len());
    }
}
