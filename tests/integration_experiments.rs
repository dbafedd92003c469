//! Reduced-scale runs of the experiment harness: every figure/table
//! reproduction function executes end-to-end and reproduces the paper's
//! qualitative trends, and the artefact table regenerates, byte for byte,
//! what the one-binary-per-figure code wrote.

use magma::experiments::{self, Case, Scale, ARTEFACTS};
use magma::{Algorithm, MapperBuilder};
use magma_model::TaskType;
use magma_platform::Setting;
use std::collections::BTreeMap;

/// `case` with `group_size` jobs, `budget` samples and `seed`.
fn case(case: Case, group_size: usize, budget: usize, seed: u64) -> MapperBuilder {
    Scale { group_size, budget, seed, full: false }.case(case)
}

/// `tests/data/paper_parent.json` maps each result file's stem to the
/// FNV-1a-64 of the bytes the parent commit's twelve `fig*` / `tab05`
/// binaries wrote for it at group size 8, budget 50, seed 0 — written by
/// those binaries, not by the table. Every row of [`ARTEFACTS`]
/// at that scale must reproduce its files to the byte, and between them the
/// rows must cover all fifteen: an artefact cannot be dropped from the table
/// or bent by the case-as-builder signatures.
#[test]
fn the_artefact_table_regenerates_the_files_the_parent_binaries_wrote() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/paper_parent.json");
    let recorded: BTreeMap<String, String> =
        serde_json::from_str(&std::fs::read_to_string(path).expect("the fixture reads"))
            .expect("the fixture parses");
    assert_eq!(recorded.len(), 15);

    let scale = Scale { group_size: 8, budget: 50, ..Scale::REDUCED };
    let mut written = BTreeMap::new();
    for artefact in &ARTEFACTS {
        for output in artefact.run(&scale) {
            assert!(!output.table.is_empty(), "{} prints nothing", output.stem);
            let json = serde_json::to_string_pretty(&output.rows).expect("rows serialize");
            let hash = magma_serve::descriptor::fnv1a64(json.as_bytes());
            written.insert(output.stem, format!("{hash:016x}"));
        }
    }
    assert_eq!(written, recorded);
}

/// Fig. 7: vision jobs are compute-heavy / bandwidth-light, recommendation
/// jobs the opposite; HB is faster but hungrier than LB on language.
#[test]
fn fig7_trends() {
    let (rows, averages) = experiments::fig7_job_analysis(4);
    assert_eq!(rows.len(), 9);
    let vision = &averages[0];
    let lang = &averages[1];
    let recom = &averages[2];
    assert!(vision.hb_latency_cycles > recom.hb_latency_cycles);
    assert!(recom.hb_bw_gbps > vision.hb_bw_gbps);
    assert!(lang.hb_latency_cycles < vision.hb_latency_cycles);
    for r in &rows {
        assert!(r.hb_latency_cycles < r.lb_latency_cycles * 1.5, "{}", r.model);
    }
}

/// Fig. 8: on the small homogeneous accelerator every mapper lands in the
/// same ballpark and MAGMA is the reference (normalized 1.0).
#[test]
fn fig8_homogeneous_comparison_runs() {
    let scores = experiments::compare_mappers(
        &case((Setting::S1, TaskType::Vision, 16.0), 16, 200, 0),
        Algorithm::TABLE_IV,
    );
    assert_eq!(scores.len(), 10);
    let magma = scores.iter().find(|s| s.method == "MAGMA").unwrap();
    assert!((magma.normalized - 1.0).abs() < 1e-9);
    // MAGMA is never (meaningfully) beaten on its own reference instance.
    for s in &scores {
        assert!(s.normalized <= 1.2, "{} at {}", s.method, s.normalized);
    }
}

/// Fig. 9 (reduced): on a heterogeneous accelerator the AI-MT-like mapper
/// falls far behind MAGMA, Herald-like stays closer.
#[test]
fn fig9_heterogeneous_gap() {
    let scores = experiments::compare_mappers(
        &case((Setting::S2, TaskType::Mix, 16.0), 32, 600, 1),
        Algorithm::TABLE_IV,
    );
    let get = |name: &str| scores.iter().find(|s| s.method == name).unwrap().normalized;
    assert!(get("AI-MT-like") < get("MAGMA"));
    assert!(get("AI-MT-like") < get("Herald-like"));
}

/// Fig. 12 (reduced): MAGMA's advantage over the manual mapper does not
/// shrink when bandwidth becomes scarce.
#[test]
fn fig12_bw_sweep_trend() {
    let rows =
        experiments::bw_sweep(&case((Setting::S2, TaskType::Mix, 16.0), 24, 400, 2), &[1.0, 16.0]);
    assert_eq!(rows.len(), 2);
    let herald_at =
        |i: usize| rows[i].1.iter().find(|s| s.method == "Herald-like").unwrap().normalized;
    // Herald-like relative performance at 1 GB/s is no better than at 16 GB/s.
    assert!(herald_at(0) <= herald_at(1) * 1.1);
}

/// Fig. 13 (reduced): with ample bandwidth the homogeneous S3 wins; the
/// job analysis shows S4 requiring less bandwidth than S3.
#[test]
fn fig13_combination_trends() {
    let rows = [Setting::S3, Setting::S4, Setting::S5]
        .map(|s| experiments::combination_row(&case((s, TaskType::Mix, 64.0), 24, 400, 3)));
    let s3 = rows.iter().find(|r| r.setting == "S3").unwrap();
    let s4 = rows.iter().find(|r| r.setting == "S4").unwrap();
    let s5 = rows.iter().find(|r| r.setting == "S5").unwrap();
    // S4 (heterogeneous) needs less average BW than S3. Its LB core also
    // *lowers* the per-(job, core) average no-stall latency: the HB
    // weight-stationary mapping is poorly utilized on the channel-light
    // early conv layers that dominate the mean, while LB's row-stationary
    // mapping handles them well (the same asymmetry Fig. 7 shows per task).
    assert!(s4.avg_required_bw_gbps < s3.avg_required_bw_gbps);
    assert!(s4.avg_no_stall_cycles < s3.avg_no_stall_cycles);
    // BigLittle has the smallest BW appetite of the three.
    assert!(s5.avg_required_bw_gbps < s3.avg_required_bw_gbps);
}

/// Fig. 14 (reduced): flexible arrays do not lose to fixed arrays.
#[test]
fn fig14_flexible_not_worse() {
    let row =
        experiments::flexible_vs_fixed(&case((Setting::S1, TaskType::Vision, 16.0), 16, 200, 0));
    assert!(row.flexible_gflops >= row.fixed_gflops * 0.9);
}

/// Fig. 15 (reduced): MAGMA's schedule finishes no later than Herald-like's
/// on a bandwidth-starved heterogeneous instance.
#[test]
fn fig15_schedule_comparison() {
    let cmp =
        experiments::schedule_comparison(&case((Setting::S5, TaskType::Mix, 1.0), 24, 600, 0));
    assert!(cmp.magma_finish_sec <= cmp.herald_finish_sec * 1.02);
    assert!(cmp.magma_gantt.lines().count() >= 8);
}

/// Fig. 16 (reduced): adding the crossover operators never hurts the final
/// best found at the same budget.
#[test]
fn fig16_ablation_runs() {
    let curves = experiments::operator_ablation(
        &case((Setting::S2, TaskType::Vision, 16.0), 24, 400, 0),
        10,
    );
    assert_eq!(curves.len(), 3);
    let final_of = |i: usize| curves[i].points.last().unwrap().1;
    assert!(final_of(2) >= final_of(0) * 0.95);
}

/// Fig. 17 (reduced): throughput is not drastically affected by group size,
/// but tiny groups lose.
#[test]
fn fig17_group_size_sweep() {
    let rows = experiments::group_size_sweep(
        &case((Setting::S2, TaskType::Mix, 16.0), 30, 500, 0),
        &[4, 20, 40],
    );
    assert_eq!(rows.len(), 3);
    let tiny = rows[0].1;
    let large = rows[2].1;
    assert!(large >= tiny * 0.8, "tiny {tiny}, large {large}");
}

/// Section IV-F: the search-space size for the paper's example is ~1e81.
#[test]
fn search_space_size_matches_paper() {
    let log = experiments::search_space_log10(60, 4);
    assert!((log - 81.0).abs() < 1.5);
}

/// Table V (reduced): the profile-matched warm start carries the paper's
/// transfer claim on *both* regimes — the transferred solution (Trf-0-ep)
/// beats a full random epoch on the compute-bound vision instance as well as
/// the bandwidth-bound language instance, before any further search.
#[test]
fn table5_warm_start_reduced() {
    // Compute-bound regime: vision jobs at ample bandwidth (this is exactly
    // where index-wrapped adaptation used to lose to a random epoch).
    let vision =
        experiments::warm_start_study(&case((Setting::S2, TaskType::Vision, 16.0), 16, 0, 0), 1);
    assert_eq!(vision.len(), 2);
    let warm = &vision[1];
    assert!(
        warm.transfer_0_epoch >= warm.raw,
        "vision: Trf-0-ep {} below the random epoch {}",
        warm.transfer_0_epoch,
        warm.raw
    );
    assert!(warm.transfer_1_epoch >= warm.transfer_0_epoch * 0.99);
    assert!(warm.transfer_30_epoch <= 1.05);
    assert_eq!(warm.transfer_100_epoch, 1.0);

    // Bandwidth-bound regime: language jobs, where the BW allocator dominates.
    let lang =
        experiments::warm_start_study(&case((Setting::S2, TaskType::Language, 16.0), 16, 0, 0), 1);
    let warm = &lang[1];
    assert!(
        warm.transfer_0_epoch >= warm.raw,
        "language: Trf-0-ep {} below the random epoch {}",
        warm.transfer_0_epoch,
        warm.raw
    );
    // The transferred mapping still recovers ≥90% of the fully re-optimized
    // throughput before any new search (Table V's Trf-0-ep column).
    assert!(warm.transfer_0_epoch >= 0.9, "Trf-0-ep {} too low", warm.transfer_0_epoch);
    assert!(warm.transfer_1_epoch >= warm.transfer_0_epoch * 0.99);
    assert_eq!(warm.transfer_100_epoch, 1.0);
}
