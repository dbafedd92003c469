//! Data-center scenario: a large heterogeneous accelerator (S4) serving a
//! mixed vision + language + recommendation tenant population.
//!
//! This mirrors the paper's headline experiment (Fig. 9c/d): the manual
//! mappers (Herald-like, AI-MT-like) are compared against MAGMA on the same
//! problem instance, and the throughput is reported normalized to MAGMA.
//!
//! Run with: `cargo run --release --example datacenter_mix`

use magma::{Algorithm, MapperBuilder};
use magma_model::TaskType;
use magma_platform::Setting;

fn main() {
    let group_size = 60;
    let budget = 3_000;

    // One shared problem instance so every mapper sees the same jobs.
    let builder = MapperBuilder::new()
        .setting(Setting::S4)
        .system_bw_gbps(256.0)
        .task(TaskType::Mix)
        .group_size(group_size)
        .budget(budget)
        .seed(7);
    let problem = builder.build_problem();

    println!(
        "platform: {}  |  group: {} Mix jobs  |  budget: {} samples\n",
        problem.platform(),
        group_size,
        budget
    );

    let algorithms = [
        Algorithm::HeraldLike,
        Algorithm::AiMtLike,
        Algorithm::StdGa,
        Algorithm::A2c,
        Algorithm::Ppo2,
        Algorithm::Magma,
    ];

    let mut results: Vec<(String, f64)> = Vec::new();
    for algo in algorithms {
        let report = builder.clone().algorithm(algo).run_on(&problem);
        results.push((report.algorithm.clone(), report.throughput_gflops));
    }

    let magma_gflops = results.last().map(|(_, g)| *g).unwrap_or(1.0);
    println!("{:<14} {:>12} {:>12}", "mapper", "GFLOP/s", "vs MAGMA");
    for (name, gflops) in &results {
        println!("{:<14} {:>12.1} {:>11.2}x", name, gflops, gflops / magma_gflops);
    }

    println!(
        "\nMAGMA improves over the best manual mapper by {:.2}x",
        magma_gflops / results.iter().take(2).map(|(_, g)| *g).fold(f64::MIN_POSITIVE, f64::max)
    );
}
