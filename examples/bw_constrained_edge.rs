//! Bandwidth-constrained edge scenario: sweep the system bandwidth of the
//! small heterogeneous accelerator (S2) from 1 GB/s to 16 GB/s and watch how
//! much a good mapping matters as bandwidth gets scarce (the paper's Fig. 12a
//! observation: MAGMA's advantage grows as BW shrinks).
//!
//! Run with: `cargo run --release --example bw_constrained_edge`

use magma::{Algorithm, MapperBuilder};
use magma_model::TaskType;
use magma_platform::Setting;

fn main() {
    let group_size = 40;
    let budget = 1_500;
    let bandwidths = [1.0, 4.0, 8.0, 16.0];

    println!("S2 (small heterogeneous), Mix task, {group_size} jobs, {budget} samples\n");
    println!(
        "{:>10} {:>16} {:>16} {:>14}",
        "BW (GB/s)", "Herald (GFLOP/s)", "MAGMA (GFLOP/s)", "MAGMA gain"
    );

    for bw in bandwidths {
        let builder = MapperBuilder::new()
            .setting(Setting::S2)
            .system_bw_gbps(bw)
            .task(TaskType::Mix)
            .group_size(group_size)
            .budget(budget)
            .seed(3);
        let problem = builder.build_problem();

        let herald = builder.clone().algorithm(Algorithm::HeraldLike).run_on(&problem);
        let magma = builder.algorithm(Algorithm::Magma).run_on(&problem);

        println!(
            "{:>10.0} {:>16.1} {:>16.1} {:>13.2}x",
            bw,
            herald.throughput_gflops,
            magma.throughput_gflops,
            magma.throughput_gflops / herald.throughput_gflops
        );
    }

    println!("\nThe scarcer the bandwidth, the more the optimized mapping pays off.");
}
