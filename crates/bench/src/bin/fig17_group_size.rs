//! Fig. 17 — group-size sweep: MAGMA throughput on (Mix, S2, BW=16) for group
//! sizes from 4 to 1000, normalized by the largest group.
//!
//! Regenerates the data behind Fig. 17. Knobs: `MAGMA_BUDGET` (samples per
//! optimizer run, default 1000), `MAGMA_SEED`, and `MAGMA_THREADS`
//! (evaluation worker threads, default: all cores — changes wall-clock only,
//! never results); the group sizes themselves
//! are the swept variable, so `MAGMA_GROUP_SIZE` is ignored. Set
//! `MAGMA_FULL_SCALE=1` for the paper's 10 K-sample budget.

use magma::experiments::group_size_sweep;
use magma::prelude::*;
use magma_bench::{banner, dump_json, Scale};

fn main() {
    let scale = Scale::from_env();
    banner("Fig. 17 — group-size sweep (Mix, S2, BW=16)", &scale);

    let full = magma_bench::full_scale();
    let sizes: Vec<usize> = if full {
        vec![4, 10, 20, 40, 50, 100, 200, 500, 1000]
    } else {
        vec![4, 10, 20, 40, 60, 100]
    };

    let rows =
        group_size_sweep(Setting::S2, TaskType::Mix, Some(16.0), &sizes, scale.budget, scale.seed);

    let reference = rows.last().map(|(_, g)| *g).unwrap_or(1.0);
    println!("\n{:>12} {:>14} {:>12}", "group size", "GFLOP/s", "normalized");
    for (gs, gflops) in &rows {
        println!("{:>12} {:>14.1} {:>12.2}", gs, gflops, gflops / reference);
    }
    dump_json("fig17_group_size", &rows);
}
