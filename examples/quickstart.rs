//! Quickstart: map a mixed multi-tenant workload onto the small
//! heterogeneous accelerator (S2) with MAGMA and print what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use magma::{Algorithm, MapperBuilder};
use magma_model::TaskType;
use magma_platform::Setting;

fn main() {
    // 1. Describe the job: a Mix-task group of 40 jobs (vision + language +
    //    recommendation layers, mini-batched), the S2 accelerator from the
    //    paper's Table III, and a 16 GB/s system-bandwidth budget.
    let report = MapperBuilder::new()
        .setting(Setting::S2)
        .system_bw_gbps(16.0)
        .task(TaskType::Mix)
        .group_size(40)
        .algorithm(Algorithm::Magma)
        .budget(2_000)
        .seed(42)
        .run();

    // 2. Inspect the result.
    println!("algorithm        : {}", report.algorithm);
    println!("throughput       : {:.1} GFLOP/s", report.throughput_gflops);
    println!("makespan         : {:.3} ms", report.makespan_sec * 1e3);
    println!("samples evaluated: {}", report.history.num_samples());
    println!("samples to reach 90% of best: {:?}", report.history.samples_to_reach(0.9));

    // 3. Show the schedule the bandwidth allocator produced (Fig. 4b style).
    println!("\nPer-core utilization:");
    for core in 0..report.schedule.num_accels() {
        println!("  core {core}: {:>5.1}% busy", report.schedule.accel_utilization(core) * 100.0);
    }
    println!("peak system BW draw: {:.1} GB/s (budget 16.0)", report.schedule.peak_bw_gbps());

    println!("\nGantt chart (each row is a sub-accelerator):");
    print!("{}", report.schedule.render_gantt(100));
}
