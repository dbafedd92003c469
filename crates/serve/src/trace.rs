//! Seeded arrival-trace synthesis: Poisson, bursty/diurnal and
//! tenant-mix-drift traffic over a [`TenantMix`].
//!
//! A trace is the input of the serving simulator: a time-ordered stream of
//! [`Arrival`]s, each one job from one tenant. A `TraceStream` draws them
//! one at a time, so a simulator holds the arrivals still waiting to be
//! served rather than the whole trace; [`generate_trace`] collects the same
//! stream into a vector. Inter-arrival gaps are drawn from an exponential
//! distribution (inverse-CDF over the seeded RNG — no distribution crate
//! needed), optionally modulated by the scenario; tenant selection is
//! weighted, optionally drifting over the trace. Job content comes from
//! each tenant's deterministic [`TenantJobStream`], so the same
//! `(mix, params)` pair always produces bit-identical traces — and a
//! single-tenant mix produces *periodic* job windows, the repeated-tenant
//! pattern the mapping cache exploits.

use magma_model::{JobId, PreparedWeights, TaskType, TenantJobStream, TenantMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The traffic scenario shaping a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Scenario {
    /// Stationary Poisson arrivals with fixed tenant weights.
    #[default]
    Poisson,
    /// Diurnal-style bursts: arrival blocks alternate between a high-rate
    /// and a low-rate phase (mean rate preserved), stressing the batcher's
    /// deadline path during troughs and its size path during peaks.
    Bursty,
    /// Tenant-mix drift: traffic shifts linearly from vision-heavy to
    /// language-heavy across the trace, invalidating cached mappings as the
    /// dominant tenant changes.
    Drift,
}

impl Scenario {
    /// All scenarios, in presentation order.
    #[cfg(test)]
    pub(crate) const ALL: [Scenario; 3] = [Scenario::Poisson, Scenario::Bursty, Scenario::Drift];

    /// Inter-arrival gap multiplier for arrival `index` of `total`. Bursty
    /// traffic alternates 0.4× / 1.6× in blocks of [`BURST_BLOCK`] arrivals
    /// (mean 1.0× preserved); other scenarios are unmodulated.
    fn gap_factor(self, index: usize, _total: usize) -> f64 {
        match self {
            Scenario::Bursty => {
                if (index / BURST_BLOCK).is_multiple_of(2) {
                    0.4
                } else {
                    1.6
                }
            }
            _ => 1.0,
        }
    }

    /// Refills `weights` with the effective tenant weights at trace progress
    /// `p` in `[0, 1]`: drift scales vision tenants by `1 + 2(1-p)` and
    /// language tenants by `1 + 2p`, so the trace starts vision-heavy (3:1)
    /// and ends language-heavy (1:3); other scenarios use the base weights.
    fn refill_tenant_weights(self, mix: &TenantMix, p: f64, weights: &mut Vec<f64>) {
        weights.clear();
        weights.extend(mix.tenants().iter().map(|t| {
            let factor = match (self, t.task()) {
                (Scenario::Drift, TaskType::Vision) => 1.0 + 2.0 * (1.0 - p),
                (Scenario::Drift, TaskType::Language) => 1.0 + 2.0 * p,
                _ => 1.0,
            };
            t.weight() * factor
        }));
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Arrivals per bursty high/low phase block.
pub(crate) const BURST_BLOCK: usize = 20;

/// Parameters of one synthesized trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParams {
    /// The traffic scenario.
    pub scenario: Scenario,
    /// Number of arrivals to synthesize.
    pub requests: usize,
    /// Mean inter-arrival gap in virtual seconds.
    pub mean_interarrival_sec: f64,
    /// Mini-batch size of every job.
    pub mini_batch: usize,
    /// RNG seed (gaps + tenant selection).
    pub seed: u64,
}

/// One request: a job from a tenant arriving at a virtual-clock instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Virtual arrival time in seconds.
    pub time_sec: f64,
    /// Index of the emitting tenant in the mix.
    pub tenant: usize,
    /// The job to be mapped and executed. Job ids are re-assigned per
    /// dispatch group; here they number the arrivals of the trace.
    pub job: magma_model::Job,
}

/// Synthesizes the full arrival trace for `mix` under `params`: the
/// trace's stream of arrivals, collected.
///
/// # Panics
///
/// Panics if `requests == 0`, `mini_batch == 0` or the mean inter-arrival
/// gap is not finite and positive.
pub fn generate_trace(params: &TraceParams, mix: &TenantMix) -> Vec<Arrival> {
    TraceStream::new(params, mix).collect()
}

/// The arrivals of one trace, drawn one at a time in time order. The stream
/// holds its RNG, the clock, the tenants' job streams it has opened and one
/// weight vector — nothing that grows with the arrivals already drawn.
#[derive(Debug)]
pub(crate) struct TraceStream<'m> {
    mix: &'m TenantMix,
    params: TraceParams,
    rng: StdRng,
    /// A tenant's stream opens at its first arrival: a fleet's long tail
    /// never costs a stream it does not draw from.
    streams: Vec<Option<TenantJobStream>>,
    /// Index of the next arrival.
    next: usize,
    /// Time of the last arrival drawn.
    now: f64,
    weights: TenantWeights,
}

/// How a stream draws its tenants. Fleet-scale traces pair millions of
/// requests with thousands of tenants, so the weights are never rebuilt
/// into a fresh vector per arrival: stationary scenarios validate and sum
/// them once, and Drift — the only scenario whose weights move — refills
/// one buffer and draws with [`TenantMix::pick`]. A prepared draw is what
/// `TenantMix::pick` does per call, so either way the trace is
/// bit-identical to a per-arrival weight vector.
#[derive(Debug)]
enum TenantWeights {
    Stationary(PreparedWeights),
    Drift(Vec<f64>),
}

impl<'m> TraceStream<'m> {
    /// Opens the trace of `mix` under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `requests == 0`, `mini_batch == 0` or the mean inter-arrival
    /// gap is not finite and positive.
    pub(crate) fn new(params: &TraceParams, mix: &'m TenantMix) -> Self {
        assert!(params.requests > 0, "a trace needs at least one arrival");
        assert!(
            params.mean_interarrival_sec.is_finite() && params.mean_interarrival_sec > 0.0,
            "mean inter-arrival gap must be finite and positive"
        );
        let mut weights = Vec::with_capacity(mix.len());
        let weights = match params.scenario {
            Scenario::Drift => TenantWeights::Drift(weights),
            stationary => {
                stationary.refill_tenant_weights(mix, 0.0, &mut weights);
                TenantWeights::Stationary(mix.prepare_weights(weights))
            }
        };
        TraceStream {
            mix,
            params: params.clone(),
            rng: StdRng::seed_from_u64(params.seed),
            streams: vec![None; mix.len()],
            next: 0,
            now: 0.0,
            weights,
        }
    }
}

impl Iterator for TraceStream<'_> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let (i, p, mix) = (self.next, &self.params, self.mix);
        if i == p.requests {
            return None;
        }
        self.next += 1;
        // Exponential gap via inverse CDF; 1 - u is in (0, 1] so ln is finite.
        let u: f64 = self.rng.gen();
        let gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * p.mean_interarrival_sec;
        self.now += gap * p.scenario.gap_factor(i, p.requests);
        let tenant = match &mut self.weights {
            TenantWeights::Stationary(prepared) => prepared.pick(self.rng.gen()),
            TenantWeights::Drift(weights) => {
                let progress = i as f64 / p.requests.saturating_sub(1).max(1) as f64;
                p.scenario.refill_tenant_weights(mix, progress, weights);
                mix.pick(weights, self.rng.gen())
            }
        };
        let job = self.streams[tenant]
            .get_or_insert_with(|| mix.tenants()[tenant].job_stream(p.mini_batch))
            .next_job(JobId(i));
        Some(Arrival { time_sec: self.now, tenant, job })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.params.requests - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(scenario: Scenario, seed: u64) -> TraceParams {
        TraceParams { scenario, requests: 120, mean_interarrival_sec: 1e-3, mini_batch: 4, seed }
    }

    #[test]
    fn trace_is_deterministic_and_time_ordered() {
        let mix = TenantMix::standard();
        let a = generate_trace(&params(Scenario::Poisson, 7), &mix);
        let b = generate_trace(&params(Scenario::Poisson, 7), &mix);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
        assert!(a.windows(2).all(|w| w[0].time_sec <= w[1].time_sec));
        assert!(a.iter().all(|x| x.time_sec.is_finite() && x.time_sec > 0.0));
    }

    #[test]
    fn different_seeds_differ() {
        let mix = TenantMix::standard();
        let a = generate_trace(&params(Scenario::Poisson, 1), &mix);
        let b = generate_trace(&params(Scenario::Poisson, 2), &mix);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_gap_is_roughly_honored() {
        let mix = TenantMix::standard();
        let p = TraceParams {
            scenario: Scenario::Poisson,
            requests: 2_000,
            mean_interarrival_sec: 1e-3,
            mini_batch: 4,
            seed: 3,
        };
        let trace = generate_trace(&p, &mix);
        let mean = trace.last().unwrap().time_sec / 2_000.0;
        assert!((0.8e-3..1.25e-3).contains(&mean), "observed mean gap {mean}");
    }

    #[test]
    fn bursty_trace_alternates_fast_and_slow_blocks() {
        let mix = TenantMix::standard();
        let trace = generate_trace(&params(Scenario::Bursty, 5), &mix);
        let span = |lo: usize, hi: usize| trace[hi].time_sec - trace[lo].time_sec;
        // High-rate block (0..20) must be denser than the low-rate block
        // (20..40) — with 4x rate separation this holds at any seed that
        // isn't adversarial; the fixed seed keeps it deterministic.
        assert!(span(0, 19) < span(20, 39));
    }

    #[test]
    fn drift_trace_shifts_from_vision_to_language() {
        let mix = TenantMix::standard();
        let p = TraceParams {
            scenario: Scenario::Drift,
            requests: 600,
            mean_interarrival_sec: 1e-3,
            mini_batch: 4,
            seed: 11,
        };
        let trace = generate_trace(&p, &mix);
        let count = |range: std::ops::Range<usize>, task: TaskType| {
            trace[range].iter().filter(|a| a.job.task() == task).count()
        };
        // First third is vision-heavy, last third language-heavy.
        assert!(count(0..200, TaskType::Vision) > count(0..200, TaskType::Language));
        assert!(count(400..600, TaskType::Language) > count(400..600, TaskType::Vision));
    }

    #[test]
    fn single_tenant_trace_is_periodic_in_job_content() {
        let mix =
            TenantMix::single("recom", TaskType::Recommendation, vec![magma_model::zoo::ncf()]);
        let period = mix.tenants()[0].job_stream(4).period();
        let p = TraceParams {
            scenario: Scenario::Poisson,
            requests: 3 * period,
            mean_interarrival_sec: 1e-3,
            mini_batch: 4,
            seed: 0,
        };
        let trace = generate_trace(&p, &mix);
        for i in 0..period {
            assert_eq!(trace[i].job.layer(), trace[i + period].job.layer());
        }
    }

    #[test]
    fn a_drifting_fleet_trace_draws_what_a_weight_vector_per_arrival_draws() {
        let mix = TenantMix::synthetic(1000, 0);
        for (scenario, requests) in
            [(Scenario::Drift, 2_000), (Scenario::Poisson, 500), (Scenario::Bursty, 500)]
        {
            let p = TraceParams {
                scenario,
                requests,
                mean_interarrival_sec: 1e-3,
                mini_batch: 4,
                seed: 13,
            };
            let oracle = oracle::generate_trace_per_arrival(&p, &mix);
            let stream = TraceStream::new(&p, &mix);
            assert_eq!(stream.len(), requests);
            for (i, (drawn, expected)) in stream.zip(&oracle).enumerate() {
                assert_eq!(&drawn, expected, "{scenario} arrival {i}");
            }
            assert_eq!(generate_trace(&p, &mix), oracle, "{scenario}");
        }
    }

    #[test]
    fn a_stream_reports_the_arrivals_it_has_left() {
        let mix = TenantMix::standard();
        let mut stream = TraceStream::new(&params(Scenario::Bursty, 2), &mix);
        assert_eq!(stream.size_hint(), (120, Some(120)));
        stream.by_ref().take(119).for_each(drop);
        assert_eq!(stream.size_hint(), (1, Some(1)));
        assert!(stream.next().is_some());
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.next().is_none());
    }

    #[test]
    fn scenario_labels_are_distinct() {
        let mut labels: Vec<String> = Scenario::ALL.iter().map(|s| s.to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }
}

/// The trace as it was drawn before it streamed: one loop over the
/// arrivals, with a fresh weight vector per arrival handed to
/// [`TenantMix::pick`] — the per-arrival path the stream's one buffer and
/// prepared weights must draw exactly as.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Effective tenant weights at trace progress `p`, collected afresh.
    fn tenant_weights(scenario: Scenario, mix: &TenantMix, p: f64) -> Vec<f64> {
        mix.tenants()
            .iter()
            .map(|t| {
                let factor = match (scenario, t.task()) {
                    (Scenario::Drift, TaskType::Vision) => 1.0 + 2.0 * (1.0 - p),
                    (Scenario::Drift, TaskType::Language) => 1.0 + 2.0 * p,
                    _ => 1.0,
                };
                t.weight() * factor
            })
            .collect()
    }

    pub(super) fn generate_trace_per_arrival(
        params: &TraceParams,
        mix: &TenantMix,
    ) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut streams: Vec<Option<TenantJobStream>> = vec![None; mix.len()];
        let mut arrivals = Vec::new();
        let mut now = 0.0f64;
        let denom = params.requests.saturating_sub(1).max(1) as f64;
        for i in 0..params.requests {
            let u: f64 = rng.gen();
            let gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * params.mean_interarrival_sec;
            now += gap * params.scenario.gap_factor(i, params.requests);
            let weights = tenant_weights(params.scenario, mix, i as f64 / denom);
            let tenant = mix.pick(&weights, rng.gen());
            let job = streams[tenant]
                .get_or_insert_with(|| mix.tenants()[tenant].job_stream(params.mini_batch))
                .next_job(JobId(i));
            arrivals.push(Arrival { time_sec: now, tenant, job });
        }
        arrivals
    }
}
