//! The paper's evaluation section as data.
//!
//! [`ARTEFACTS`] holds one row per figure or table of the evaluation
//! (Figs. 7–17 and Table V): its name, its title, the paper's fixed cases
//! for it and one [`Artefact::run`] that regenerates it at a [`Scale`] —
//! reduced by default, so a run finishes in seconds on a laptop, or the
//! paper's (group size 100, 10 K samples). The `paper` binary of
//! `magma-bench` is a loop over the rows, and
//! `tests/integration_experiments.rs` walks the same rows against the
//! recorded hashes of every file they write.
//!
//! A case is a [`MapperBuilder`] — setting, bandwidth, task, group size,
//! budget and seed ([`Scale::case`]). Every function below builds its
//! problem with [`MapperBuilder::build_problem`] and searches it with
//! [`MapperBuilder::run_on`], so workloads and searches are seeded in one
//! place.
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Fig. 7 | [`fig7_job_analysis`] |
//! | Fig. 8 / Fig. 9 | [`compare_mappers`] |
//! | Fig. 10 | `exploration_study` |
//! | Fig. 11 / Fig. 16 | `convergence_curves`, [`operator_ablation`] |
//! | Fig. 12 | [`bw_sweep`] |
//! | Fig. 13 | [`combination_row`] |
//! | Fig. 14 | [`flexible_vs_fixed`] |
//! | Fig. 15 | [`schedule_comparison`] |
//! | Fig. 17 | [`group_size_sweep`] |
//! | Table V | [`warm_start_study`] |
//!
//! # Parallelism
//!
//! Every experiment drives its optimizers through the batch-evaluation
//! oracle in [`magma_optim::parallel`], so population fitness evaluation —
//! the dominant cost of every figure — fans out over `MAGMA_THREADS` worker
//! threads (default: all available cores). The knob only changes wall-clock
//! time: results are bit-identical at every thread count, which
//! `tests/integration_parallel.rs` asserts per optimizer. What the pool
//! costs and buys is measured by the wall-clock benchmark (`benchmark/`,
//! ladder rows `optim.pool.dispatch_us` and `optim.pool.speedup_2t`).

use crate::builder::{Algorithm, MapperBuilder};
use magma_cost::{CostModel, DataflowStyle, SubAccelConfig};
use magma_m3e::{M3e, StoredSolution, WarmStartEngine};
use magma_model::zoo;
use magma_model::TaskType::{self, Language, Mix, Recommendation, Vision};
use magma_optim::{Magma, OperatorSet};
use magma_platform::Setting::{self, S1, S2, S3, S4, S5};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

// ---------------------------------------------------------------------------
// The artefact table
// ---------------------------------------------------------------------------

/// One of the paper's fixed problem instances: accelerator setting, task
/// category and system bandwidth in GB/s.
pub type Case = (Setting, TaskType, f64);

/// The scale the artefacts run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of jobs per group.
    pub group_size: usize,
    /// Sampling budget per optimizer run.
    pub budget: usize,
    /// Workload / search seed.
    pub seed: u64,
    /// Paper scale: Fig. 17 sweeps the paper's nine group sizes instead of
    /// six and Table V warm-starts four instances instead of two.
    pub full: bool,
}

impl Scale {
    /// The default: every artefact finishes in seconds on a laptop.
    pub const REDUCED: Scale = Scale { group_size: 30, budget: 1_000, seed: 0, full: false };
    /// The paper's: group size 100, 10 K samples.
    pub const FULL: Scale = Scale { group_size: 100, budget: 10_000, seed: 0, full: true };

    /// `case` at this scale, as the builder the experiment functions take.
    pub fn case(&self, (setting, task, bw_gbps): Case) -> MapperBuilder {
        MapperBuilder::new()
            .setting(setting)
            .task(task)
            .system_bw_gbps(bw_gbps)
            .group_size(self.group_size)
            .budget(self.budget)
            .seed(self.seed)
    }
}

/// One result file of an artefact with the table printed beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// File stem of the raw data (`fig11_convergence_S2_Vision`).
    pub stem: String,
    /// The paper-style table.
    pub table: String,
    /// The raw data behind the table.
    pub rows: Value,
}

impl Output {
    fn new(stem: impl Into<String>, table: String, rows: &impl Serialize) -> Self {
        Output { stem: stem.into(), table, rows: rows.to_value() }
    }
}

/// One figure or table of the paper's evaluation section.
#[derive(Debug)]
pub struct Artefact {
    /// What `paper` selects it by (`fig08`, `tab05`).
    pub name: &'static str,
    /// The banner line: the artefact and what it shows.
    pub title: &'static str,
    /// The paper's fixed problem instances for it.
    pub cases: &'static [Case],
    run: fn(&[Case], &Scale) -> Vec<Output>,
}

impl Artefact {
    /// Regenerates the artefact: its [`Artefact::cases`] at `scale`.
    pub fn run(&self, scale: &Scale) -> Vec<Output> {
        (self.run)(self.cases, scale)
    }
}

/// The two instances whose searches Figs. 11 and 16 plot sample by sample.
const CURVE_CASES: &[Case] = &[(S2, Vision, 16.0), (S3, Mix, 16.0)];

/// The paper's evaluation section, in its order.
pub static ARTEFACTS: [Artefact; 12] = [
    Artefact {
        name: "fig07",
        title: "Fig. 7 — job analysis (HB vs LB dataflow styles)",
        cases: &[],
        run: fig07,
    },
    Artefact {
        name: "fig08",
        title: "Fig. 8 — homogeneous small accelerator (S1, BW=16 GB/s)",
        cases: &[
            (S1, Vision, 16.0),
            (S1, Language, 16.0),
            (S1, Recommendation, 16.0),
            (S1, Mix, 16.0),
        ],
        run: fig08,
    },
    Artefact {
        name: "fig09",
        title: "Fig. 9 — heterogeneous accelerators (S2 BW=16, S4 BW=256)",
        cases: &[(S2, Vision, 16.0), (S2, Mix, 16.0), (S4, Vision, 256.0), (S4, Mix, 256.0)],
        run: fig09,
    },
    Artefact {
        name: "fig10",
        title: "Fig. 10 — explored map space and reached performance (Mix, S2, BW=16)",
        cases: &[(S2, Mix, 16.0)],
        run: fig10,
    },
    Artefact {
        name: "fig11",
        title: "Fig. 11 — convergence curves",
        cases: CURVE_CASES,
        run: fig11,
    },
    Artefact {
        name: "fig12",
        title: "Fig. 12 — BW sweep (Mix task)",
        // Each swept over its accelerator class's range (`Setting::bw_sweep_gbps`),
        // which ends at the bandwidth named here.
        cases: &[(S2, Mix, 16.0), (S4, Mix, 256.0)],
        run: fig12,
    },
    Artefact {
        name: "fig13",
        title: "Fig. 13 — S3 vs S4 vs S5 under different bandwidths (Mix task)",
        cases: &[
            (S3, Mix, 1.0),
            (S4, Mix, 1.0),
            (S5, Mix, 1.0),
            (S3, Mix, 64.0),
            (S4, Mix, 64.0),
            (S5, Mix, 64.0),
        ],
        run: fig13,
    },
    Artefact {
        name: "fig14",
        title: "Fig. 14 — fixed vs flexible PE arrays",
        cases: &[
            (S1, Vision, 1.0),
            (S1, Vision, 16.0),
            (S1, Mix, 1.0),
            (S1, Mix, 16.0),
            (S3, Vision, 1.0),
            (S3, Vision, 256.0),
            (S3, Mix, 1.0),
            (S3, Mix, 256.0),
        ],
        run: fig14,
    },
    Artefact {
        name: "fig15",
        title: "Fig. 15 — schedule visualization (Mix, S5, BW=1 GB/s)",
        cases: &[(S5, Mix, 1.0)],
        run: fig15,
    },
    Artefact {
        name: "fig16",
        title: "Fig. 16 — genetic-operator ablation",
        cases: CURVE_CASES,
        run: fig16,
    },
    Artefact {
        name: "fig17",
        title: "Fig. 17 — group-size sweep (Mix, S2, BW=16)",
        cases: &[(S2, Mix, 16.0)],
        run: fig17,
    },
    Artefact {
        name: "tab05",
        title: "Table V — warm-start of MAGMA (Mix, S4, BW=1 GB/s, profile-matched)",
        cases: &[(S4, Mix, 1.0)],
        run: tab05,
    },
];

// ---------------------------------------------------------------------------
// Common result types
// ---------------------------------------------------------------------------

/// Throughput achieved by one mapping method on one problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodScore {
    /// The mapper's name (Table IV label).
    pub method: String,
    /// Achieved group throughput in GFLOP/s.
    pub gflops: f64,
    /// Throughput normalized by MAGMA's result on the same problem.
    pub normalized: f64,
}

/// Normalizes a list of raw scores by the entry named `"MAGMA"` (or the
/// maximum if MAGMA is absent), mirroring how every figure in the paper is
/// normalized.
pub(crate) fn normalize_by_magma(raw: Vec<(String, f64)>) -> Vec<MethodScore> {
    let reference = raw
        .iter()
        .find(|(n, _)| n == "MAGMA")
        .map(|(_, v)| *v)
        .unwrap_or_else(|| raw.iter().map(|(_, v)| *v).fold(f64::MIN_POSITIVE, f64::max));
    raw.into_iter()
        .map(|(method, gflops)| MethodScore {
            method,
            gflops,
            normalized: if reference > 0.0 { gflops / reference } else { 0.0 },
        })
        .collect()
}

/// A normalized-throughput table in the layout of the paper's bar charts
/// (one row per mapper).
pub(crate) fn score_table(label: &str, scores: &[MethodScore]) -> String {
    let mut lines = vec![
        format!("[{label}]"),
        format!("{:<22} {:>14} {:>12}", "mapper", "GFLOP/s", "norm (MAGMA=1)"),
    ];
    lines.extend(
        scores
            .iter()
            .map(|s| format!("{:<22} {:>14.2} {:>12.3}", s.method, s.gflops, s.normalized)),
    );
    lines.join("\n")
}

// ---------------------------------------------------------------------------
// Fig. 7 — per-model latency / bandwidth characteristics
// ---------------------------------------------------------------------------

/// One row of the Fig. 7(a) table: a model profiled on the HB and LB
/// dataflow styles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAnalysisRow {
    /// Model name.
    pub model: String,
    /// Task category of the model.
    pub task: TaskType,
    /// Average per-job no-stall latency on the HB core (cycles).
    pub hb_latency_cycles: f64,
    /// Average per-job no-stall latency on the LB core (cycles).
    pub lb_latency_cycles: f64,
    /// Average per-job required bandwidth on the HB core (GB/s).
    pub hb_bw_gbps: f64,
    /// Average per-job required bandwidth on the LB core (GB/s).
    pub lb_bw_gbps: f64,
}

/// Reproduces Fig. 7: the average per-job no-stall latency and required
/// bandwidth of three representative models per task, on a 64×64 HB core and
/// a 64×64 LB core, plus per-task averages.
///
/// Returns `(per_model_rows, per_task_averages)`.
pub fn fig7_job_analysis(batch: usize) -> (Vec<JobAnalysisRow>, Vec<JobAnalysisRow>) {
    let model_list = zoo::fig7_models();
    let cost = CostModel::default();
    let hb = SubAccelConfig::new("hb", 64, 64, DataflowStyle::HighBandwidth, 291 * 1024);
    let lb = SubAccelConfig::new("lb", 64, 64, DataflowStyle::LowBandwidth, 218 * 1024);

    let mut rows = Vec::new();
    for m in &model_list {
        let mut hb_lat = 0.0;
        let mut lb_lat = 0.0;
        let mut hb_bw = 0.0;
        let mut lb_bw = 0.0;
        let mut count = 0.0;
        for layer in m.accelerator_layers() {
            let eh = cost.estimate(layer, batch, &hb);
            let el = cost.estimate(layer, batch, &lb);
            hb_lat += eh.no_stall_cycles as f64;
            lb_lat += el.no_stall_cycles as f64;
            hb_bw += eh.required_bw_gbps;
            lb_bw += el.required_bw_gbps;
            count += 1.0;
        }
        rows.push(JobAnalysisRow {
            model: m.name().to_string(),
            task: m.task(),
            hb_latency_cycles: hb_lat / count,
            lb_latency_cycles: lb_lat / count,
            hb_bw_gbps: hb_bw / count,
            lb_bw_gbps: lb_bw / count,
        });
    }

    let mut averages = Vec::new();
    for task in TaskType::PURE {
        let task_rows: Vec<&JobAnalysisRow> = rows.iter().filter(|r| r.task == task).collect();
        let n = task_rows.len() as f64;
        averages.push(JobAnalysisRow {
            model: format!("{task} (avg)"),
            task,
            hb_latency_cycles: task_rows.iter().map(|r| r.hb_latency_cycles).sum::<f64>() / n,
            lb_latency_cycles: task_rows.iter().map(|r| r.lb_latency_cycles).sum::<f64>() / n,
            hb_bw_gbps: task_rows.iter().map(|r| r.hb_bw_gbps).sum::<f64>() / n,
            lb_bw_gbps: task_rows.iter().map(|r| r.lb_bw_gbps).sum::<f64>() / n,
        });
    }
    (rows, averages)
}

/// The analysis is closed-form (no search), so the scale has no effect; the
/// per-job mini-batch is fixed at 4 as in the paper.
fn fig07(_: &[Case], _: &Scale) -> Vec<Output> {
    let (rows, averages) = fig7_job_analysis(4);
    let mut lines = vec![format!(
        "{:<16} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "model", "task", "HB lat (cyc)", "LB lat (cyc)", "HB BW (GB/s)", "LB BW (GB/s)"
    )];
    lines.extend(rows.iter().chain(&averages).map(|r| {
        format!(
            "{:<16} {:>8} {:>14.2e} {:>14.2e} {:>12.2e} {:>12.2e}",
            r.model,
            r.task.short_name(),
            r.hb_latency_cycles,
            r.lb_latency_cycles,
            r.hb_bw_gbps,
            r.lb_bw_gbps
        )
    }));
    vec![Output::new("fig07_job_analysis", lines.join("\n"), &(rows, averages))]
}

// ---------------------------------------------------------------------------
// Fig. 8 / Fig. 9 — mapper comparison on one accelerator setting
// ---------------------------------------------------------------------------

/// Runs every mapper of `roster` on one problem instance and returns their
/// throughputs, normalized by MAGMA — Figs. 8 and 9 with
/// [`Algorithm::TABLE_IV`], one bandwidth of Fig. 12 with `FIG12_MAPPERS`.
pub fn compare_mappers(case: &MapperBuilder, roster: &[Algorithm]) -> Vec<MethodScore> {
    let problem = case.build_problem();
    normalize_by_magma(raw_scores(case, &problem, roster).collect())
}

/// `(mapper name, GFLOP/s)` of the case's search under each of `roster`.
fn raw_scores<'a>(
    case: &'a MapperBuilder,
    problem: &'a M3e,
    roster: &'a [Algorithm],
) -> impl Iterator<Item = (String, f64)> + 'a {
    roster.iter().map(move |&algorithm| {
        let report = case.clone().algorithm(algorithm).run_on(problem);
        (report.algorithm, report.best_fitness)
    })
}

fn fig08(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let mut tables = Vec::new();
    let all: Vec<(TaskType, Vec<MethodScore>)> = cases
        .iter()
        .map(|&(setting, task, bw)| {
            let scores = compare_mappers(&scale.case((setting, task, bw)), Algorithm::TABLE_IV);
            tables.push(score_table(&format!("{setting} / {task}"), &scores));
            (task, scores)
        })
        .collect();
    vec![Output::new("fig08_homogeneous", tables.join("\n\n"), &all)]
}

fn fig09(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let mut tables = Vec::new();
    let all: Vec<(String, TaskType, f64, Vec<MethodScore>)> = cases
        .iter()
        .map(|&(setting, task, bw)| {
            let scores = compare_mappers(&scale.case((setting, task, bw)), Algorithm::TABLE_IV);
            tables.push(score_table(&format!("{setting} / {task} / BW={bw}"), &scores));
            (setting.to_string(), task, bw, scores)
        })
        .collect();
    vec![Output::new("fig09_heterogeneous", tables.join("\n\n"), &all)]
}

// ---------------------------------------------------------------------------
// Fig. 10 — exploration study with an exhaustive-sampling reference
// ---------------------------------------------------------------------------

/// The mappers of the Fig. 10(c) table, in Table IV order.
pub(crate) const FIG10_MAPPERS: [Algorithm; 5] =
    [Algorithm::Pso, Algorithm::CmaEs, Algorithm::StdGa, Algorithm::Ppo2, Algorithm::Magma];

/// Reproduces the Fig. 10(c) table: the throughput reached by
/// [`FIG10_MAPPERS`] at the case's budget, plus a random-sampling reference
/// given `reference_budget` samples (the paper's "exhaustively sampled"
/// column used ~1 M).
pub(crate) fn exploration_study(case: &MapperBuilder, reference_budget: usize) -> Vec<MethodScore> {
    let problem = case.build_problem();
    let reference =
        case.clone().algorithm(Algorithm::Random).budget(reference_budget).run_on(&problem);
    let mut raw = vec![("Exhaustively Sampled".to_string(), reference.best_fitness)];
    raw.extend(raw_scores(case, &problem, &FIG10_MAPPERS));
    normalize_by_magma(raw)
}

fn fig10(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let (setting, task, bw) = cases[0];
    // The paper's reference uses ~1M random samples; scale it to 10x the
    // per-method budget here.
    let reference_budget = scale.budget * 10;
    let scores = exploration_study(&scale.case(cases[0]), reference_budget);
    let label = format!("{task} / {setting} / BW={bw} (reference budget {reference_budget})");
    vec![Output::new("fig10_exploration", score_table(&label, &scores), &scores)]
}

// ---------------------------------------------------------------------------
// Fig. 11 / Fig. 16 — convergence curves and operator ablation
// ---------------------------------------------------------------------------

/// A downsampled best-so-far convergence curve for one method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCurve {
    /// The mapper's name.
    pub method: String,
    /// (samples evaluated, best GFLOP/s so far) points.
    pub points: Vec<(usize, f64)>,
}

/// Reproduces Fig. 11: convergence curves of every Table IV mapper on one
/// problem instance, downsampled to `points` entries each.
pub(crate) fn convergence_curves(case: &MapperBuilder, points: usize) -> Vec<ConvergenceCurve> {
    let problem = case.build_problem();
    let curve = |&algorithm: &Algorithm| {
        let report = case.clone().algorithm(algorithm).run_on(&problem);
        ConvergenceCurve {
            method: report.algorithm,
            points: report.history.downsampled_curve(points),
        }
    };
    Algorithm::TABLE_IV.iter().map(curve).collect()
}

/// Reproduces Fig. 16: MAGMA's convergence with three operator sets —
/// mutation only, mutation + Crossover-gen, and all four operators.
pub fn operator_ablation(case: &MapperBuilder, points: usize) -> Vec<ConvergenceCurve> {
    let problem = case.build_problem();
    [OperatorSet::mutation_only(), OperatorSet::mutation_and_gen(), OperatorSet::all()]
        .into_iter()
        .map(|ops| ConvergenceCurve {
            method: ops.label(),
            points: case
                .run_with(&Magma::with_operators(ops), &problem)
                .history
                .downsampled_curve(points),
        })
        .collect()
}

/// One compact table and one file per case: a row per curve, its best
/// GFLOP/s at 10 checkpoints.
fn curve_outputs(
    cases: &[Case],
    scale: &Scale,
    stem: &str,
    corner: &str,
    width: usize,
    curves_of: fn(&MapperBuilder, usize) -> Vec<ConvergenceCurve>,
) -> Vec<Output> {
    let output =
        |&(setting, task, bw): &Case| {
            let curves = curves_of(&scale.case((setting, task, bw)), 10);
            let row = |head: &str, cells: String| format!("{head:<width$}{cells}");
            let samples = &curves.last().expect("every figure plots a curve").points;
            let mut lines = vec![
                format!("[{setting} / {task} / BW={bw}]"),
                row(corner, samples.iter().map(|(n, _)| format!("{n:>9}")).collect()),
            ];
            lines.extend(curves.iter().map(|c| {
                row(&c.method, c.points.iter().map(|(_, v)| format!("{v:>9.1}")).collect())
            }));
            Output::new(format!("{stem}_{setting}_{task}"), lines.join("\n"), &curves)
        };
    cases.iter().map(output).collect()
}

fn fig11(cases: &[Case], scale: &Scale) -> Vec<Output> {
    curve_outputs(cases, scale, "fig11_convergence", "mapper \\ samples", 22, convergence_curves)
}

fn fig16(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let corner = "operator set \\ samples";
    curve_outputs(cases, scale, "fig16_operator_ablation", corner, 30, operator_ablation)
}

// ---------------------------------------------------------------------------
// Fig. 12 — bandwidth sweep
// ---------------------------------------------------------------------------

/// The mappers Fig. 12 sweeps, in Table IV order.
pub(crate) const FIG12_MAPPERS: [Algorithm; 4] =
    [Algorithm::HeraldLike, Algorithm::A2c, Algorithm::Ppo2, Algorithm::Magma];

/// Reproduces Fig. 12: `FIG12_MAPPERS` on the case across a sweep of
/// system bandwidths. Returns one entry per bandwidth with the per-method
/// scores normalized by MAGMA at that bandwidth.
pub fn bw_sweep(case: &MapperBuilder, bandwidths_gbps: &[f64]) -> Vec<(f64, Vec<MethodScore>)> {
    bandwidths_gbps
        .iter()
        .map(|&bw| (bw, compare_mappers(&case.clone().system_bw_gbps(bw), &FIG12_MAPPERS)))
        .collect()
}

fn fig12(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let output = |&(setting, task, bw): &Case| {
        let rows = bw_sweep(&scale.case((setting, task, bw)), &setting.bw_sweep_gbps());
        let tables: Vec<String> = rows
            .iter()
            .map(|(bw, scores)| score_table(&format!("{setting} / {task} / BW={bw}"), scores))
            .collect();
        Output::new(format!("fig12_bw_sweep_{setting}"), tables.join("\n\n"), &rows)
    };
    cases.iter().map(output).collect()
}

// ---------------------------------------------------------------------------
// Fig. 13 — sub-accelerator combinations (S3 vs S4 vs S5)
// ---------------------------------------------------------------------------

/// One row of the Fig. 13 study: job-analysis statistics and MAGMA
/// throughput for one setting at one bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationRow {
    /// Accelerator setting.
    pub setting: String,
    /// System bandwidth used (GB/s).
    pub bw_gbps: f64,
    /// Average per-job no-stall latency across jobs and cores (cycles).
    pub avg_no_stall_cycles: f64,
    /// Average per-job required bandwidth across jobs and cores (GB/s).
    pub avg_required_bw_gbps: f64,
    /// Throughput reached by MAGMA (GFLOP/s).
    pub magma_gflops: f64,
}

/// One point of Fig. 13, which compares S3 (homogeneous), S4
/// (heterogeneous) and S5 (BigLittle) under two bandwidths: the case's job
/// analysis and what its search (MAGMA, unless the case says otherwise)
/// reaches on it.
pub fn combination_row(case: &MapperBuilder) -> CombinationRow {
    let problem = case.build_problem();
    CombinationRow {
        setting: problem.platform().name().to_string(),
        bw_gbps: problem.platform().system_bw_gbps(),
        avg_no_stall_cycles: problem.table().avg_no_stall_cycles(),
        avg_required_bw_gbps: problem.table().avg_required_bw_gbps(),
        magma_gflops: case.run_on(&problem).best_fitness,
    }
}

fn fig13(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let rows: Vec<CombinationRow> =
        cases.iter().map(|&case| combination_row(&scale.case(case))).collect();
    let mut lines = vec![format!(
        "{:<8} {:>10} {:>18} {:>18} {:>16}",
        "setting", "BW (GB/s)", "avg lat (cycles)", "avg req BW (GB/s)", "MAGMA GFLOP/s"
    )];
    lines.extend(rows.iter().map(|r| {
        format!(
            "{:<8} {:>10.0} {:>18.2e} {:>18.2} {:>16.1}",
            r.setting, r.bw_gbps, r.avg_no_stall_cycles, r.avg_required_bw_gbps, r.magma_gflops
        )
    }));
    // Normalized view per bandwidth (the paper normalizes by S5).
    for per_bw in rows.chunk_by(|a, b| a.bw_gbps == b.bw_gbps) {
        if let Some(s5) = per_bw.iter().find(|r| r.setting == "S5") {
            lines.push(format!("\nBW={} GB/s (normalized by S5):", s5.bw_gbps));
            lines.extend(
                per_bw
                    .iter()
                    .map(|r| format!("  {:<4} {:.2}", r.setting, r.magma_gflops / s5.magma_gflops)),
            );
        }
    }
    vec![Output::new("fig13_subaccel_combos", lines.join("\n"), &rows)]
}

// ---------------------------------------------------------------------------
// Fig. 14 — fixed vs flexible PE arrays
// ---------------------------------------------------------------------------

/// One row of the Fig. 14 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexibleRow {
    /// Accelerator setting the flexible variant is derived from.
    pub setting: String,
    /// Task category.
    pub task: TaskType,
    /// System bandwidth (GB/s).
    pub bw_gbps: f64,
    /// MAGMA throughput with fixed PE arrays (GFLOP/s).
    pub fixed_gflops: f64,
    /// MAGMA throughput with flexible PE arrays (GFLOP/s).
    pub flexible_gflops: f64,
    /// Average per-job no-stall latency, fixed arrays (cycles).
    pub fixed_avg_latency: f64,
    /// Average per-job no-stall latency, flexible arrays (cycles).
    pub flexible_avg_latency: f64,
    /// Average per-job required BW, fixed arrays (GB/s).
    pub fixed_avg_bw: f64,
    /// Average per-job required BW, flexible arrays (GB/s).
    pub flexible_avg_bw: f64,
}

/// Reproduces Fig. 14: the case's search on its platform as built (fixed PE
/// arrays) and on the flexible-array variant of the same platform
/// (Section VI-F).
pub fn flexible_vs_fixed(case: &MapperBuilder) -> FlexibleRow {
    let fixed = case.build_problem();
    let flex_case = case.clone().platform(fixed.platform().clone().into_flexible());
    let flex = flex_case.build_problem();
    FlexibleRow {
        setting: fixed.platform().name().to_string(),
        task: case.task,
        bw_gbps: fixed.platform().system_bw_gbps(),
        fixed_gflops: case.run_on(&fixed).best_fitness,
        flexible_gflops: flex_case.run_on(&flex).best_fitness,
        fixed_avg_latency: fixed.table().avg_no_stall_cycles(),
        flexible_avg_latency: flex.table().avg_no_stall_cycles(),
        fixed_avg_bw: fixed.table().avg_required_bw_gbps(),
        flexible_avg_bw: flex.table().avg_required_bw_gbps(),
    }
}

fn fig14(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let rows: Vec<FlexibleRow> =
        cases.iter().map(|&case| flexible_vs_fixed(&scale.case(case))).collect();
    let mut lines = vec![format!(
        "{:<10} {:>8} {:>6} {:>14} {:>14} {:>8} {:>16} {:>16}",
        "setting",
        "task",
        "BW",
        "fixed GFLOP/s",
        "flex GFLOP/s",
        "ratio",
        "fixed lat (cyc)",
        "flex lat (cyc)"
    )];
    lines.extend(rows.iter().map(|r| {
        format!(
            "{:<10} {:>8} {:>6.0} {:>14.1} {:>14.1} {:>8.2} {:>16.2e} {:>16.2e}",
            r.setting,
            r.task.short_name(),
            r.bw_gbps,
            r.fixed_gflops,
            r.flexible_gflops,
            r.flexible_gflops / r.fixed_gflops,
            r.fixed_avg_latency,
            r.flexible_avg_latency
        )
    }));
    vec![Output::new("fig14_flexible", lines.join("\n"), &rows)]
}

// ---------------------------------------------------------------------------
// Fig. 15 — schedule visualization
// ---------------------------------------------------------------------------

/// The schedules found by Herald-like and MAGMA on the same problem, with
/// their text Gantt charts (Fig. 15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleComparison {
    /// Herald-like finish time in seconds.
    pub herald_finish_sec: f64,
    /// MAGMA finish time in seconds.
    pub magma_finish_sec: f64,
    /// Herald-like throughput (GFLOP/s).
    pub herald_gflops: f64,
    /// MAGMA throughput (GFLOP/s).
    pub magma_gflops: f64,
    /// Text Gantt chart of the Herald-like schedule.
    pub herald_gantt: String,
    /// Text Gantt chart of the MAGMA schedule.
    pub magma_gantt: String,
}

/// Reproduces Fig. 15: the sub-accelerator and bandwidth allocation found by
/// Herald-like (one shot) versus the case's search on the same instance.
pub fn schedule_comparison(case: &MapperBuilder) -> ScheduleComparison {
    let problem = case.build_problem();
    let herald = case.clone().algorithm(Algorithm::HeraldLike).budget(1).run_on(&problem).schedule;
    let magma = case.run_on(&problem).schedule;
    ScheduleComparison {
        herald_finish_sec: herald.makespan_sec(),
        magma_finish_sec: magma.makespan_sec(),
        herald_gflops: herald.throughput_gflops(),
        magma_gflops: magma.throughput_gflops(),
        herald_gantt: herald.render_gantt(100),
        magma_gantt: magma.render_gantt(100),
    }
}

fn fig15(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let cmp = schedule_comparison(&scale.case(cases[0]));
    let table = format!(
        "--- Herald-like schedule (finish {:.3} ms, {:.1} GFLOP/s) ---\n{}\n\
         --- MAGMA schedule (finish {:.3} ms, {:.1} GFLOP/s) ---\n{}\n\
         MAGMA finishes the group {:.2}x faster than the Herald-like mapping.",
        cmp.herald_finish_sec * 1e3,
        cmp.herald_gflops,
        cmp.herald_gantt,
        cmp.magma_finish_sec * 1e3,
        cmp.magma_gflops,
        cmp.magma_gantt,
        cmp.herald_finish_sec / cmp.magma_finish_sec
    );
    vec![Output::new("fig15_schedule_visual", table, &cmp)]
}

// ---------------------------------------------------------------------------
// Fig. 17 — group-size sweep
// ---------------------------------------------------------------------------

/// Reproduces Fig. 17: the throughput the case's search reaches at each of
/// `group_sizes` (which replace the case's own). Returns
/// `(group_size, gflops)` pairs.
pub fn group_size_sweep(case: &MapperBuilder, group_sizes: &[usize]) -> Vec<(usize, f64)> {
    group_sizes.iter().map(|&gs| (gs, case.clone().group_size(gs).run().best_fitness)).collect()
}

/// The group sizes are the swept variable, so the scale's own is ignored.
fn fig17(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let sizes: &[usize] = if scale.full {
        &[4, 10, 20, 40, 50, 100, 200, 500, 1000]
    } else {
        &[4, 10, 20, 40, 60, 100]
    };
    let rows = group_size_sweep(&scale.case(cases[0]), sizes);
    let reference = rows.last().map_or(1.0, |(_, g)| *g);
    let mut lines = vec![format!("{:>12} {:>14} {:>12}", "group size", "GFLOP/s", "normalized")];
    lines.extend(
        rows.iter().map(|(gs, g)| format!("{:>12} {:>14.1} {:>12.2}", gs, g, g / reference)),
    );
    vec![Output::new("fig17_group_size", lines.join("\n"), &rows)]
}

// ---------------------------------------------------------------------------
// Table V — warm start
// ---------------------------------------------------------------------------

/// Warm-start performance on one problem instance, normalized by the full
/// optimization (Trf-100-ep ≡ 1.0), as in Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartRow {
    /// Instance label (Insts0 is the originally optimized group).
    pub instance: String,
    /// Best random individual with no optimization (the "Raw" row).
    pub raw: f64,
    /// Warm-started solution before any optimization (Trf-0-ep).
    pub transfer_0_epoch: f64,
    /// Warm start followed by one epoch of MAGMA (Trf-1-ep).
    pub transfer_1_epoch: f64,
    /// Warm start followed by 30 epochs (Trf-30-ep).
    pub transfer_30_epoch: f64,
    /// Full optimization from the warm start (Trf-100-ep, the normalizer).
    pub transfer_100_epoch: f64,
}

/// Reproduces Table V(a): optimize the case's group (`Insts0`), then
/// warm-start on `num_instances` fresh groups of the same task and measure
/// the normalized throughput after 0, 1, 30 and 100 epochs (an epoch is one
/// population worth of samples, i.e. the group size; the case's own budget
/// is unused).
///
/// The solution is stored with the signatures of the jobs it was found for,
/// so it transfers by profile matching — the adaptation that carries the
/// paper's claim. Stored without them it would index-wrap, the baseline that
/// loses to a random epoch on compute-bound groups.
pub fn warm_start_study(case: &MapperBuilder, num_instances: usize) -> Vec<WarmStartRow> {
    let (task, epoch) = (case.task, case.group_size.max(16));
    let case = case.clone().algorithm(Algorithm::Magma).budget(100 * epoch);
    // Best fitness of one epoch of uniformly random mappings (the "Raw"
    // baseline).
    let raw = |case: &MapperBuilder, problem: &M3e| {
        case.clone().algorithm(Algorithm::Random).budget(epoch).run_on(problem).best_fitness
    };
    let mut engine = WarmStartEngine::new();

    // --- Insts0: plain optimization, store the best mapping with the job
    // signatures it was optimized for. ---
    let base_problem = case.build_problem();
    let base = case.run_on(&base_problem);
    let base_raw = raw(&case, &base_problem) / base.best_fitness;
    engine.record(
        task,
        StoredSolution::new(base.best_mapping, Some(base_problem.signatures().to_vec())),
    );

    let mut rows = vec![WarmStartRow {
        instance: "Insts0 (optimized)".to_string(),
        raw: base_raw,
        transfer_0_epoch: 1.0,
        transfer_1_epoch: 1.0,
        transfer_30_epoch: 1.0,
        transfer_100_epoch: 1.0,
    }];

    // --- Fresh instances of the same task: warm-start and refine. ---
    for inst in 1..=num_instances {
        let inst_seed = case.seed + inst as u64 * 101;
        let case = case.clone().seed(inst_seed);
        let problem = case.build_problem();
        let mut rng = StdRng::seed_from_u64(inst_seed);

        let num_accels = problem.platform().num_sub_accels();
        let seeded_pop = engine
            .seed_population(&mut rng, task, problem.signatures(), num_accels, epoch)
            .expect("knowledge was recorded for this task");
        let transfer_0 = problem.evaluate(&seeded_pop[0]);

        let warm = case.clone().initial_population(seeded_pop);
        let run_epochs =
            |epochs: usize| warm.clone().budget(epochs * epoch).run_on(&problem).best_fitness;

        let full = run_epochs(100);
        rows.push(WarmStartRow {
            instance: format!("Insts{inst} (warm-start)"),
            raw: raw(&case, &problem) / full,
            transfer_0_epoch: transfer_0 / full,
            transfer_1_epoch: run_epochs(1) / full,
            transfer_30_epoch: run_epochs(30) / full,
            transfer_100_epoch: 1.0,
        });
    }
    rows
}

fn tab05(cases: &[Case], scale: &Scale) -> Vec<Output> {
    let rows = warm_start_study(&scale.case(cases[0]), if scale.full { 4 } else { 2 });
    let mut lines = vec![format!(
        "{:<24} {:>8} {:>10} {:>10} {:>11} {:>12}",
        "instance", "Raw", "Trf-0-ep", "Trf-1-ep", "Trf-30-ep", "Trf-100-ep"
    )];
    lines.extend(rows.iter().map(|r| {
        format!(
            "{:<24} {:>8.2} {:>10.2} {:>10.2} {:>11.2} {:>12.2}",
            r.instance,
            r.raw,
            r.transfer_0_epoch,
            r.transfer_1_epoch,
            r.transfer_30_epoch,
            r.transfer_100_epoch
        )
    }));
    let warm = &rows[1..];
    let avg = |f: fn(&WarmStartRow) -> f64| warm.iter().map(f).sum::<f64>() / warm.len() as f64;
    lines.push(format!(
        "\naverage over warm-started instances (profile-matched): Raw {:.2}, Trf-0-ep {:.2}, \
         Trf-1-ep {:.2}, Trf-30-ep {:.2}",
        avg(|r| r.raw),
        avg(|r| r.transfer_0_epoch),
        avg(|r| r.transfer_1_epoch),
        avg(|r| r.transfer_30_epoch)
    ));
    vec![Output::new("tab05_warm_start", lines.join("\n"), &rows)]
}

// ---------------------------------------------------------------------------
// Search-space size (Section IV-F)
// ---------------------------------------------------------------------------

/// Log10 of the mapping search-space size for a group size and core count
/// (Section IV-F; 60 jobs on 4 cores ≈ 1e81).
pub fn search_space_log10(group_size: usize, num_accels: usize) -> f64 {
    magma_m3e::encoding::search_space_log10(group_size, num_accels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `case` at the unit tests' scale: 16 jobs, 150 samples, seed 0.
    fn small(case: Case) -> MapperBuilder {
        Scale { group_size: 16, budget: 150, ..Scale::REDUCED }.case(case)
    }

    #[test]
    fn the_table_lists_the_twelve_artefacts_once_each_in_paper_order() {
        let names: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            [
                "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                "fig16", "fig17", "tab05"
            ]
        );
        // Only the closed-form Fig. 7 has no problem instance to search.
        assert!(ARTEFACTS.iter().all(|a| a.cases.is_empty() == (a.name == "fig07")));
    }

    #[test]
    fn fig7_has_expected_shape_and_trends() {
        let (rows, averages) = fig7_job_analysis(4);
        assert_eq!(rows.len(), 9);
        assert_eq!(averages.len(), 3);
        // HB is faster but hungrier than LB on language models (Fig. 7a).
        let gpt2 = rows.iter().find(|r| r.model == "GPT2").unwrap();
        assert!(gpt2.hb_latency_cycles < gpt2.lb_latency_cycles);
        assert!(gpt2.hb_bw_gbps > gpt2.lb_bw_gbps);
        // Vision has the highest latency, recommendation the highest BW need.
        let vis = &averages[0];
        let rec = &averages[2];
        assert!(vis.hb_latency_cycles > rec.hb_latency_cycles);
        assert!(rec.hb_bw_gbps > vis.hb_bw_gbps);
    }

    #[test]
    fn comparison_contains_all_ten_mappers_and_magma_is_reference() {
        let scores = compare_mappers(&small((S2, Mix, 16.0)), Algorithm::TABLE_IV);
        assert_eq!(scores.len(), 10);
        let magma = scores.iter().find(|s| s.method == "MAGMA").unwrap();
        assert!((magma.normalized - 1.0).abs() < 1e-9);
        assert!(scores.iter().all(|s| s.gflops > 0.0));
    }

    #[test]
    fn bw_sweep_produces_one_row_per_bandwidth() {
        let rows = bw_sweep(&small((S2, Mix, 16.0)), &[1.0, 16.0]);
        assert_eq!(rows.len(), 2);
        for (_, scores) in &rows {
            assert_eq!(scores.len(), 4);
        }
    }

    #[test]
    fn operator_ablation_has_three_levels() {
        let curves = operator_ablation(&small((S2, Vision, 16.0)), 10);
        assert_eq!(curves.len(), 3);
        assert_eq!(curves[0].method, "Mut");
        assert_eq!(curves[2].method, "Mut+Crs-gen+Crs-rg+Crs-accel");
        for c in &curves {
            assert!(!c.points.is_empty());
        }
    }

    #[test]
    fn group_size_sweep_returns_requested_sizes() {
        let rows = group_size_sweep(&small((S2, Mix, 16.0)), &[8, 16]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 8);
        assert!(rows.iter().all(|(_, g)| *g > 0.0));
    }

    #[test]
    fn flexible_beats_or_matches_fixed() {
        let row = flexible_vs_fixed(&small((S1, Mix, 16.0)));
        assert_eq!((row.setting.as_str(), row.task, row.bw_gbps), ("S1", Mix, 16.0));
        assert!(row.flexible_gflops >= row.fixed_gflops * 0.9);
        assert!(row.flexible_avg_latency <= row.fixed_avg_latency * 1.05);
    }

    #[test]
    fn schedule_comparison_includes_ganff_charts() {
        let cmp = schedule_comparison(&small((S2, Mix, 1.0)));
        assert!(cmp.herald_finish_sec > 0.0);
        assert!(cmp.magma_finish_sec > 0.0);
        assert!(cmp.herald_gantt.contains("accel"));
        assert!(cmp.magma_gantt.contains("GFLOP/s"));
        // MAGMA should not lose to the one-shot heuristic on its own problem.
        assert!(cmp.magma_gflops >= cmp.herald_gflops * 0.95);
    }

    #[test]
    fn search_space_matches_paper() {
        assert!((search_space_log10(60, 4) - 81.0).abs() < 1.5);
    }

    #[test]
    fn warm_start_rows_have_expected_shape() {
        let rows = warm_start_study(&small((S2, Language, 16.0)).group_size(8), 1);
        assert_eq!(rows.len(), 2);
        // Trf-100-ep is the normalizer on every row.
        assert!(rows.iter().all(|r| r.transfer_100_epoch == 1.0));
        assert!(rows[1].transfer_0_epoch > 0.0);
    }

    #[test]
    fn normalize_by_magma_uses_magma_as_reference() {
        let scores = normalize_by_magma(vec![("A".to_string(), 5.0), ("MAGMA".to_string(), 10.0)]);
        assert_eq!(scores[0].normalized, 0.5);
        assert_eq!(scores[1].normalized, 1.0);
    }

    #[test]
    fn score_table_has_a_label_a_header_and_a_row_per_mapper() {
        let table = score_table(
            "test",
            &[MethodScore { method: "MAGMA".into(), gflops: 10.0, normalized: 1.0 }],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "[test]");
        assert!(lines[2].starts_with("MAGMA") && lines[2].ends_with("1.000"));
    }
}
