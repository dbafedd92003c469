//! Regenerates **Table V** — the warm-start study: optimize one group, then
//! warm-start on fresh groups of the same task and measure the normalized
//! throughput after 0, 1, 30 and 100 epochs of further optimization.
//!
//! Knobs: `MAGMA_GROUP_SIZE` (jobs per group, default 30; paper 100),
//! `MAGMA_BUDGET` (unused here — the study derives its budget from the group
//! size: 100 epochs of one population each), `MAGMA_SEED`, `MAGMA_THREADS`
//! (evaluation worker threads, default: all cores — changes wall-clock only,
//! never results), `MAGMA_FULL_SCALE=1` (paper scale, 4 warm-started
//! instances). The stored solution carries its job signatures, so the
//! transfer is profile-matched (Section V-C).

use magma::experiments::warm_start_study;
use magma::prelude::*;
use magma_bench::{banner, dump_json, Scale};

fn main() {
    let scale = Scale::from_env();
    banner("Table V — warm-start of MAGMA (Mix, S4, BW=1 GB/s, profile-matched)", &scale);

    let full = magma_bench::full_scale();
    let instances = if full { 4 } else { 2 };

    let rows = warm_start_study(
        Setting::S4,
        TaskType::Mix,
        Some(1.0),
        scale.group_size,
        instances,
        scale.seed,
    );

    println!(
        "\n{:<24} {:>8} {:>10} {:>10} {:>11} {:>12}",
        "instance", "Raw", "Trf-0-ep", "Trf-1-ep", "Trf-30-ep", "Trf-100-ep"
    );
    for r in &rows {
        println!(
            "{:<24} {:>8.2} {:>10.2} {:>10.2} {:>11.2} {:>12.2}",
            r.instance,
            r.raw,
            r.transfer_0_epoch,
            r.transfer_1_epoch,
            r.transfer_30_epoch,
            r.transfer_100_epoch
        );
    }

    let warm: Vec<&_> = rows.iter().skip(1).collect();
    if !warm.is_empty() {
        let avg = |f: fn(&magma::experiments::WarmStartRow) -> f64| {
            warm.iter().map(|r| f(r)).sum::<f64>() / warm.len() as f64
        };
        println!(
            "\naverage over warm-started instances (profile-matched): Raw {:.2}, Trf-0-ep {:.2}, Trf-1-ep {:.2}, Trf-30-ep {:.2}",
            avg(|r| r.raw),
            avg(|r| r.transfer_0_epoch),
            avg(|r| r.transfer_1_epoch),
            avg(|r| r.transfer_30_epoch)
        );
    }
    dump_json("tab05_warm_start", &rows);
}
