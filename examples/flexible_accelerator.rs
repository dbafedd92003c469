//! Flexible accelerators (Section VI-F, Fig. 14): FPGA/CGRA-style cores whose
//! PE-array *shape* can be reconfigured per layer, compared against the fixed
//! arrays of the same PE budget.
//!
//! Run with: `cargo run --release --example flexible_accelerator`

use magma::experiments::{self, Scale};
use magma_model::TaskType;
use magma_platform::Setting;

fn main() {
    let scale = Scale { group_size: 30, budget: 1_200, seed: 5, full: false };

    println!("MAGMA on fixed vs flexible PE arrays (same PE count, same budget)\n");
    println!(
        "{:<22} {:>8} {:>14} {:>14} {:>10}",
        "configuration", "BW", "fixed GFLOP/s", "flex GFLOP/s", "gain"
    );

    for (setting, task, bw) in [
        (Setting::S1, TaskType::Vision, 1.0),
        (Setting::S1, TaskType::Vision, 16.0),
        (Setting::S1, TaskType::Mix, 1.0),
        (Setting::S1, TaskType::Mix, 16.0),
    ] {
        let row = experiments::flexible_vs_fixed(&scale.case((setting, task, bw)));
        println!(
            "{:<22} {:>8.0} {:>14.1} {:>14.1} {:>9.2}x",
            format!("{setting} {task}"),
            bw,
            row.fixed_gflops,
            row.flexible_gflops,
            row.flexible_gflops / row.fixed_gflops
        );
    }

    // Show why: the flexible arrays cut the average per-job no-stall latency
    // (better PE utilization) at the cost of a higher bandwidth appetite.
    let row = experiments::flexible_vs_fixed(&scale.case((Setting::S1, TaskType::Mix, 16.0)));
    println!(
        "\navg per-job no-stall latency: fixed {:.0} cycles vs flexible {:.0} cycles",
        row.fixed_avg_latency, row.flexible_avg_latency
    );
    println!(
        "avg per-job required BW     : fixed {:.2} GB/s  vs flexible {:.2} GB/s",
        row.fixed_avg_bw, row.flexible_avg_bw
    );
}
