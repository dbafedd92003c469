//! The single-queue simulator's behavioural suite: one mapper, one
//! accelerator, one search at a time.
//!
//! There is no simulator here, only its tests — the machine is
//! [`FleetConfig::single_queue`](crate::fleet::FleetConfig::single_queue),
//! [`fleet_simulate`](crate::fleet::fleet_simulate) on the degenerate fleet
//! (one shard, the Uniform policy, one live session, one scheduler step per
//! search, no shared tier and no preemption). Everything is virtual-time:
//! searching costs `overhead_sec_per_sample` per evaluated sample (so cache
//! hits buy latency, not just samples), and the group then occupies the
//! accelerator for its schedule's makespan. The mapper and the accelerator
//! are separate resources — a group is cut when the batcher is ready and the
//! *mapper* is free, and execution starts at `max(search end, accelerator
//! free)`, so group *g+1*'s search hides behind group *g*'s execution.

mod tests {
    use crate::fleet::{fleet_simulate as simulate, FleetConfig, FleetResult};
    use crate::trace::Scenario;
    use magma_model::{TaskType, TenantMix};
    use magma_platform::settings::{FleetPolicy, ServeKnobs};
    use magma_platform::Setting;

    fn tiny_knobs(seed: u64) -> ServeKnobs {
        ServeKnobs {
            requests: 48,
            group_target: 8,
            cold_budget: 40,
            refine_budget: 4,
            cache_capacity: 16,
            cache_epsilon: 0.0,
            seed,
            ..ServeKnobs::full()
        }
    }

    fn tiny_config(scenario: Scenario, seed: u64) -> FleetConfig {
        FleetConfig::single_queue(&tiny_knobs(seed), Setting::S2.into(), scenario)
    }

    #[test]
    fn every_arrival_completes_exactly_once() {
        let result = simulate(&tiny_config(Scenario::Poisson, 0), &TenantMix::standard());
        let m = &result.metrics;
        assert_eq!(m.jobs, 48);
        assert_eq!(m.tenants.iter().map(|t| t.jobs).sum::<usize>(), 48);
        assert_eq!(m.dispatch.cold + m.dispatch.hits, m.dispatch.dispatches);
        assert!(m.duration_sec > 0.0);
        assert!(m.jobs_per_sec > 0.0);
        assert!(m.throughput_gflops > 0.0);
    }

    #[test]
    fn latency_decomposition_is_consistent() {
        let result = simulate(&tiny_config(Scenario::Bursty, 1), &TenantMix::standard());
        let m = &result.metrics;
        // Percentile ordering within each profile.
        for stats in [&m.queueing, &m.service, &m.end_to_end] {
            assert!(stats.p50_sec <= stats.p95_sec);
            assert!(stats.p95_sec <= stats.p99_sec);
            assert!(stats.p99_sec <= stats.max_sec);
            assert!(stats.mean_sec >= 0.0);
        }
        // End-to-end mean = queueing mean + service mean (same population).
        let sum = m.queueing.mean_sec + m.service.mean_sec;
        assert!((m.end_to_end.mean_sec - sum).abs() < 1e-9 * sum.max(1.0));
    }

    #[test]
    fn simulation_is_deterministic() {
        let mix = TenantMix::standard();
        let a = simulate(&tiny_config(Scenario::Drift, 2), &mix);
        let b = simulate(&tiny_config(Scenario::Drift, 2), &mix);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_tenant_traffic_hits_the_cache() {
        let mix =
            TenantMix::single("recom", TaskType::Recommendation, vec![magma_model::zoo::ncf()]);
        let mut config = tiny_config(Scenario::Poisson, 3);
        config.requests = 64;
        let result = simulate(&config, &mix);
        let d = &result.metrics.dispatch;
        assert!(d.hits > 0, "periodic single-tenant windows must recur: {d:?}");
        assert!(result.metrics.cache.hit_rate > 0.0);
        // The acceptance criterion at miniature scale: hits reach ≥ 90% of
        // cold throughput on ≤ 10% of the cold sample budget.
        assert!(
            d.hit_cold_throughput_ratio >= 0.9,
            "hit/cold ratio {} too low",
            d.hit_cold_throughput_ratio
        );
        assert!(d.hit_sample_fraction <= 0.101, "fraction {}", d.hit_sample_fraction);
    }

    #[test]
    fn higher_load_increases_queueing() {
        let mix = TenantMix::standard();
        let mut relaxed = tiny_config(Scenario::Poisson, 4);
        relaxed.offered_load = 0.2;
        let mut loaded = tiny_config(Scenario::Poisson, 4);
        loaded.offered_load = 3.0;
        let a = simulate(&relaxed, &mix);
        let b = simulate(&loaded, &mix);
        // A group is cut as soon as the mapper is free, so overload queues
        // at the accelerator: the wait shows up between dispatch and
        // completion. Search and execution cost the same at any load, so
        // the service latency grows only by that wait.
        let (relaxed, loaded) = (a.metrics.service.mean_sec, b.metrics.service.mean_sec);
        assert!(loaded > relaxed, "overload must queue: {loaded} vs {relaxed}");
    }

    #[test]
    fn sla_bound_scales_with_tolerance() {
        let mix = TenantMix::standard();
        let mut tight = tiny_config(Scenario::Poisson, 5);
        tight.sla_x = 0.01;
        let mut loose = tiny_config(Scenario::Poisson, 5);
        loose.sla_x = 100.0;
        let t = simulate(&tight, &mix);
        let l = simulate(&loose, &mix);
        let violations =
            |r: &FleetResult| r.metrics.tenants.iter().map(|t| t.sla_violations).sum::<usize>();
        assert!(violations(&t) > 0, "a near-zero SLA must violate");
        assert_eq!(violations(&l), 0, "a huge SLA must not violate");
        assert!(t.sla_sec < l.sla_sec);
    }

    #[test]
    fn from_knobs_mirrors_the_knob_family() {
        let knobs = ServeKnobs::smoke();
        let config = FleetConfig::single_queue(&knobs, Setting::S2.into(), Scenario::Bursty);
        // The degenerate core: one shard, one search at a time, round-robin,
        // no shared tier, no value preemption.
        let core = &config.core;
        assert_eq!(core.shards(), 1);
        assert_eq!(core.scheduler.policy, FleetPolicy::Uniform);
        assert_eq!(core.scheduler.max_live, 1);
        assert_eq!(core.shared_cache_capacity, 0);
        assert_eq!(core.scheduler.preempt_margin, 0.0);
        assert_eq!(config.requests, knobs.requests);
        assert_eq!(config.offered_load, knobs.offered_load);
        assert_eq!(config.group_target, knobs.group_target);
        assert_eq!(core.dispatch.cold_budget, knobs.cold_budget);
        assert_eq!(core.dispatch.refine_budget, knobs.refine_budget);
        assert_eq!(config.scenario, Scenario::Bursty);
        assert_eq!(core.dispatch.cache_epsilon, knobs.cache_epsilon);
    }

    #[test]
    fn per_tenant_sla_contracts_scale_the_bound() {
        let mix = TenantMix::standard().with_sla_multipliers(&[0.001, 1.0, 1000.0]);
        let result = simulate(&tiny_config(Scenario::Poisson, 5), &mix);
        let tenants = &result.metrics.tenants;
        assert_eq!(tenants[0].sla_multiplier, 0.001);
        assert_eq!(tenants[2].sla_multiplier, 1000.0);
        assert!(tenants[0].sla_sec < tenants[1].sla_sec);
        assert!(tenants[1].sla_sec < tenants[2].sla_sec);
        // A near-zero contract must violate on every job; a huge one never.
        assert_eq!(tenants[0].sla_violations, tenants[0].jobs);
        assert!(tenants[0].jobs > 0);
        assert_eq!(tenants[2].sla_violations, 0);
        // The uncontracted baseline equals the uniform bound.
        assert_eq!(tenants[1].sla_sec, result.sla_sec);
    }

    #[test]
    fn nearest_key_probe_unlocks_mix_traffic_hits() {
        // Mixed-tenant windows essentially never repeat a quantized
        // signature multiset; with the probe enabled, similar windows hit.
        let mix = TenantMix::standard();
        let mut config = tiny_config(Scenario::Poisson, 2);
        config.requests = 64;
        let exact = simulate(&config, &mix);
        config.core.dispatch = config.core.dispatch.with_cache_epsilon(3.0);
        let near = simulate(&config, &mix);
        assert_eq!(exact.metrics.cache.near_hits, 0);
        assert!(
            near.metrics.cache.near_hits > 0,
            "a generous epsilon must convert some mix misses into near hits: {:?}",
            near.metrics.cache
        );
        assert!(near.metrics.cache.hit_rate > exact.metrics.cache.hit_rate);
    }
}
