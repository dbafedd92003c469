//! The paper's evaluation section: regenerates the selected rows of
//! `magma::experiments::ARTEFACTS` (Figs. 7–17, Table V), printing each
//! artefact's paper-style table and writing its raw data under
//! `target/experiment-results/`.
//!
//! `paper --list` names the artefacts, `paper fig08 tab05` runs two, `paper
//! all` runs the twelve. `--full` runs at the paper's scale (group size 100,
//! 10 K samples; minutes per artefact) instead of the reduced default (30 /
//! 1 000); `--group-size N`, `--budget N` and `--seed N` override one value
//! each. `MAGMA_THREADS` sizes the evaluation pool — it changes wall-clock
//! only, never results.

use magma::experiments::ARTEFACTS;
use magma_bench::{banner, dump_json, parse_paper_args};

fn main() {
    let cli = parse_paper_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    if cli.list {
        for artefact in &ARTEFACTS {
            println!("{:<6} {}", artefact.name, artefact.title);
        }
    }
    for artefact in cli.artefacts {
        banner(artefact.title, &cli.scale);
        for output in artefact.run(&cli.scale) {
            println!("\n{}", output.table);
            dump_json(&output.stem, &output.rows);
        }
    }
}
