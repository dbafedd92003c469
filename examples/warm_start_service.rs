//! Warm-start in a long-running mapping service (Section V-C, Table V).
//!
//! A deployed mapper sees a stream of job groups from the same task mix. The
//! warm-start engine remembers the best mapping per task category *together
//! with the job signatures it was optimized for*, and seeds the next search
//! by giving each incoming job the gene block of the most similar stored job
//! (profile-matched adaptation) — recovering most of the benefit of a full
//! search within a single optimization epoch even when the new group lists
//! its jobs in a different order.
//!
//! Run with: `cargo run --release --example warm_start_service`

use magma::MapperBuilder;
use magma_m3e::{StoredSolution, WarmStartEngine};
use magma_model::TaskType;
use magma_optim::{Magma, Optimizer};
use magma_platform::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let setting = Setting::S2;
    let task = TaskType::Language;
    let group_size = 30;
    let epoch = group_size; // one epoch = one population worth of samples

    let mut engine = WarmStartEngine::new();

    // --- Group 0: full optimization, store the result with its signatures. ---
    let first_builder = MapperBuilder::new()
        .setting(setting)
        .task(task)
        .group_size(group_size)
        .budget(60 * epoch)
        .seed(11);
    let first_problem = first_builder.build_problem();
    let first = first_builder.run_on(&first_problem);
    engine.record(
        task,
        StoredSolution::new(first.best_mapping.clone(), Some(first_problem.signatures().to_vec())),
    );
    println!("group 0 (cold, 60 epochs): {:.1} GFLOP/s", first.throughput_gflops);

    // --- Groups 1..4: new jobs of the same task arrive; warm-start. ---
    for inst in 1..=4u64 {
        let builder = MapperBuilder::new()
            .setting(setting)
            .task(task)
            .group_size(group_size)
            .seed(100 + inst);
        let problem = builder.build_problem();

        let mut rng = StdRng::seed_from_u64(100 + inst);
        let seeded = engine
            .seed_population(
                &mut rng,
                task,
                problem.signatures(),
                problem.platform().num_sub_accels(),
                epoch,
            )
            .expect("knowledge recorded for this task");

        // Evaluate the transferred solution before any optimization ...
        let transfer_only = problem.evaluate(&seeded[0]);
        // ... and after a single warm-started epoch.
        let mut rng = StdRng::seed_from_u64(100 + inst);
        let one_epoch =
            Magma::with_warm_start(seeded.clone()).search(&problem, epoch, &mut rng).best_fitness;
        // Reference: a full cold optimization on this group.
        let full = builder.clone().budget(60 * epoch).seed(100 + inst).run_on(&problem);

        println!(
            "group {inst}: transfer-only {:>6.1} | warm +1 epoch {:>6.1} | full {:>6.1} GFLOP/s  ({:.0}% of full after 1 epoch)",
            transfer_only,
            one_epoch,
            full.throughput_gflops,
            100.0 * one_epoch / full.throughput_gflops
        );
    }
}
