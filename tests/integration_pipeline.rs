//! End-to-end pipeline tests: workload → cost model → platform → M3E →
//! schedule, crossing every crate in the workspace.

mod common;

use common::problem;
use magma::MapperBuilder;
use magma_m3e::{M3e, Mapping, MappingProblem, Objective};
use magma_model::{TaskType, WorkloadSpec};
use magma_optim::{Magma, Optimizer};
use magma_platform::{settings, Setting};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The full pipeline produces a physically sensible schedule on every
/// accelerator setting of Table III.
#[test]
fn full_pipeline_runs_on_every_setting() {
    for setting in Setting::ALL {
        let m3e = problem(setting, TaskType::Mix, None, 24, 1);
        let num_accels = m3e.num_accels();

        let mut rng = StdRng::seed_from_u64(9);
        let mapping = Mapping::random(&mut rng, 24, num_accels);
        let schedule = m3e.schedule(&mapping);

        assert_eq!(schedule.segments().len(), 24, "{setting}");
        assert!(schedule.makespan_sec() > 0.0, "{setting}");
        assert!(schedule.throughput_gflops() > 0.0, "{setting}");
        // The aggregate BW draw never exceeds the system budget.
        let budget = m3e.platform().system_bw_gbps();
        for slice in schedule.bw_trace() {
            assert!(slice.alloc_gbps.iter().sum::<f64>() <= budget * (1.0 + 1e-9), "{setting}");
        }
    }
}

/// Throughput can never exceed the platform's peak compute.
#[test]
fn throughput_bounded_by_platform_peak() {
    for setting in [Setting::S1, Setting::S2, Setting::S4] {
        let m3e = problem(setting, TaskType::Mix, None, 40, 3);
        let peak = m3e.platform().peak_gflops();
        let mut rng = StdRng::seed_from_u64(0);
        let report = Magma::default().search(&m3e, 300, &mut rng);
        assert!(
            report.best_fitness <= peak,
            "{setting}: {} GFLOP/s exceeds peak {}",
            report.best_fitness,
            peak
        );
    }
}

/// The same seed end-to-end gives bit-identical results (reproducibility).
#[test]
fn end_to_end_determinism() {
    let run = || {
        MapperBuilder::new()
            .setting(Setting::S2)
            .task(TaskType::Mix)
            .group_size(20)
            .budget(300)
            .seed(123)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_fitness, b.best_fitness);
    assert_eq!(a.best_mapping, b.best_mapping);
    assert_eq!(a.makespan_sec, b.makespan_sec);
}

/// Raising the system bandwidth never reduces the achievable throughput of
/// the same mapping, and a bigger accelerator never lowers MAGMA's result.
#[test]
fn monotonicity_in_resources() {
    // The helper regenerates the same group for the same (task, n, seed), so
    // every instance below maps an identical workload.
    let small_bw = problem(Setting::S2, TaskType::Mix, Some(1.0), 30, 5);
    let large_bw = problem(Setting::S2, TaskType::Mix, Some(16.0), 30, 5);
    let mut rng = StdRng::seed_from_u64(4);
    let mapping = Mapping::random(&mut rng, 30, 4);
    assert!(large_bw.evaluate(&mapping) >= small_bw.evaluate(&mapping));

    // Compute monotonicity under search (S3 has 8 big cores vs S1's 4 small).
    let mut rng = StdRng::seed_from_u64(4);
    let s1 = Magma::default().search(
        &problem(Setting::S1, TaskType::Mix, Some(256.0), 30, 5),
        400,
        &mut rng,
    );
    let mut rng = StdRng::seed_from_u64(4);
    let s3 = Magma::default().search(
        &problem(Setting::S3, TaskType::Mix, Some(256.0), 30, 5),
        400,
        &mut rng,
    );
    assert!(s3.best_fitness >= s1.best_fitness);
}

/// The objective plumbing works for all four objectives.
#[test]
fn alternative_objectives_are_usable() {
    let group = WorkloadSpec::single_group(TaskType::Vision, 16, 2);
    for objective in [
        Objective::Throughput,
        Objective::Latency,
        Objective::Energy,
        Objective::EnergyDelayProduct,
    ] {
        let m3e = M3e::new(settings::build(Setting::S1), group.clone(), objective);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = Magma::default().search(&m3e, 200, &mut rng);
        assert!(outcome.best_fitness.is_finite(), "{objective}");
    }
}

/// Flexible platforms flow through the whole pipeline.
#[test]
fn flexible_platform_pipeline() {
    let group = WorkloadSpec::single_group(TaskType::Mix, 20, 6);
    let m3e = M3e::new(settings::build_flexible(Setting::S1, 16.0), group, Objective::Throughput);
    let mut rng = StdRng::seed_from_u64(0);
    let outcome = Magma::default().search(&m3e, 200, &mut rng);
    assert!(outcome.best_fitness > 0.0);
}
