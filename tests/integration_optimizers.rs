//! Cross-crate optimizer tests on the real M3E problem (not the toy problem
//! used in unit tests): every mapper must produce valid mappings, respect the
//! budget and reproduce the paper's qualitative ordering on small instances.

mod common;

use common::{paper_scale_platforms, problem};
use magma::Algorithm;
use magma_m3e::{M3e, Mapping, Objective, StoredSolution};
use magma_model::{TaskType, WorkloadSpec};
use magma_optim::{AiMtLike, HeraldLike, Magma, OperatorSet, Optimizer, SearchOutcome};
use magma_platform::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Every mapper in Table IV runs on the real problem and returns a positive
/// throughput within the sampling budget.
#[test]
fn every_mapper_runs_on_the_real_problem() {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 16, 0);
    for mapper in Algorithm::TABLE_IV.iter().map(|a| a.build()) {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = mapper.search(&p, 64, &mut rng);
        assert!(outcome.best_fitness > 0.0, "{} found nothing", mapper.name());
        assert!(outcome.history.num_samples() <= 64, "{} exceeded the budget", mapper.name());
        assert_eq!(outcome.best_mapping.num_jobs(), 16, "{}", mapper.name());
    }
}

/// MAGMA beats the standard GA at the same budget on a heterogeneous,
/// bandwidth-constrained instance (the paper's central sample-efficiency
/// claim, Fig. 9 / Fig. 16).
#[test]
fn magma_beats_stdga_on_heterogeneous_instance() {
    let p = problem(Setting::S2, TaskType::Mix, Some(1.0), 40, 3);
    let budget = 1_200;
    let magma = Magma::default().search(&p, budget, &mut StdRng::seed_from_u64(0));
    let stdga = magma_optim::stdga::StdGa.search(&p, budget, &mut StdRng::seed_from_u64(0));
    assert!(
        magma.best_fitness >= stdga.best_fitness,
        "MAGMA {} < stdGA {}",
        magma.best_fitness,
        stdga.best_fitness
    );
}

/// MAGMA beats both manual mappers on the heterogeneous Mix instance
/// (Fig. 9b: geomean 2.3x over Herald-like, 39x over AI-MT-like).
#[test]
fn magma_beats_manual_mappers_on_heterogeneous_mix() {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 40, 1);
    let magma = Magma::default().search(&p, 1_500, &mut StdRng::seed_from_u64(2));
    let herald = HeraldLike::new().search(&p, 1, &mut StdRng::seed_from_u64(2));
    let aimt = AiMtLike::new().search(&p, 1, &mut StdRng::seed_from_u64(2));
    assert!(magma.best_fitness > herald.best_fitness);
    assert!(magma.best_fitness > aimt.best_fitness);
    // And the heterogeneity-blind AI-MT-like trails Herald-like.
    assert!(herald.best_fitness > aimt.best_fitness);
}

/// The full-operator MAGMA is at least as sample-efficient as the
/// mutation-only ablation at a modest budget (Fig. 16).
#[test]
fn operator_ablation_ordering_holds_on_real_problem() {
    let p = problem(Setting::S2, TaskType::Vision, Some(16.0), 30, 4);
    let budget = 600;
    let full =
        Magma::with_operators(OperatorSet::all()).search(&p, budget, &mut StdRng::seed_from_u64(5));
    let mut_only = Magma::with_operators(OperatorSet::mutation_only()).search(
        &p,
        budget,
        &mut StdRng::seed_from_u64(5),
    );
    assert!(full.best_fitness >= mut_only.best_fitness * 0.98);
}

/// Warm start transfers knowledge across groups of the same task type
/// (Table V): both adaptations beat the average random mapping — the
/// profile-matched one of a solution stored with its signatures, and the
/// index-wrapped one of a solution stored without.
#[test]
fn warm_start_transfers_across_groups() {
    let task = TaskType::Recommendation;
    let p0 = problem(Setting::S2, task, Some(16.0), 24, 10);
    let base = Magma::default().search(&p0, 800, &mut StdRng::seed_from_u64(0));
    let profiled = StoredSolution::new(base.best_mapping.clone(), Some(p0.signatures().to_vec()));
    let bare = StoredSolution::new(base.best_mapping, None);

    // A fresh group of the same task.
    let p1 = problem(Setting::S2, task, Some(16.0), 24, 77);
    let wrapped = p1.evaluate(&bare.adapt_to(p1.signatures(), 4));
    let matched = p1.evaluate(&profiled.adapt_to(p1.signatures(), 4));

    // Average random mapping as the "Raw" reference.
    let mut rng = StdRng::seed_from_u64(1);
    let raw: f64 =
        (0..20).map(|_| p1.evaluate(&Mapping::random(&mut rng, 24, 4))).sum::<f64>() / 20.0;
    assert!(wrapped > raw, "index-wrapped {wrapped} should beat the random average {raw}");
    assert!(matched > raw, "profile-matched {matched} should beat the random average {raw}");
}

/// The search history is consistent: monotone best curve whose final value
/// matches the reported best fitness.
#[test]
fn history_is_consistent_for_all_mappers() {
    let p = problem(Setting::S1, TaskType::Vision, Some(16.0), 12, 2);
    for mapper in Algorithm::TABLE_IV.iter().map(|a| a.build()) {
        let mut rng = StdRng::seed_from_u64(3);
        let o = mapper.search(&p, 40, &mut rng);
        let curve = o.history.best_curve();
        assert!(curve.windows(2).all(|w| w[1] >= w[0]), "{}", mapper.name());
        assert_eq!(*curve.last().unwrap(), o.best_fitness, "{}", mapper.name());
    }
}

/// What one paper-scale search found, down to the bit.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SearchGolden {
    platform: String,
    seed: u64,
    best_fitness_bits: u64,
    /// FNV-1a over the bits of every sample's fitness, in evaluation order.
    samples_hash: u64,
    accel_sel: Vec<usize>,
    priority_bits: Vec<u64>,
}

impl SearchGolden {
    fn of(platform: &str, seed: u64, outcome: &SearchOutcome) -> Self {
        let sample_bytes: Vec<u8> =
            outcome.history.samples().iter().flat_map(|f| f.to_bits().to_le_bytes()).collect();
        SearchGolden {
            platform: platform.to_string(),
            seed,
            best_fitness_bits: outcome.best_fitness.to_bits(),
            samples_hash: magma_serve::descriptor::fnv1a64(&sample_bytes),
            accel_sel: outcome.best_mapping.accel_sel().to_vec(),
            priority_bits: outcome.best_mapping.priority().iter().map(|p| p.to_bits()).collect(),
        }
    }
}

fn data_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data").join(name)
}

/// A 2 000-sample MAGMA search on a 100-job Mix group, on each paper-scale
/// platform, for group-and-search seeds 3 and 11.
fn search_goldens() -> Vec<SearchGolden> {
    let mut goldens = Vec::new();
    for (name, platform) in paper_scale_platforms() {
        for seed in [3, 11] {
            let group = WorkloadSpec::single_group(TaskType::Mix, 100, seed);
            let p = M3e::new(platform.clone(), group, Objective::Throughput);
            let outcome = Magma::default().search(&p, 2_000, &mut StdRng::seed_from_u64(seed));
            goldens.push(SearchGolden::of(name, seed, &outcome));
        }
    }
    goldens
}

/// A 400-sample search by every mapper of [`Algorithm::ALL`] on one 16-job
/// Mix group (S2 at 16 GB/s, seed 5), under the mapper's Table IV name: eight
/// to twenty-five generations past every baseline's initial population.
fn baseline_goldens() -> Vec<(String, SearchGolden)> {
    let p = problem(Setting::S2, TaskType::Mix, Some(16.0), 16, 5);
    Algorithm::ALL
        .iter()
        .map(|algorithm| {
            let mapper = algorithm.build();
            let outcome = mapper.search(&p, 400, &mut StdRng::seed_from_u64(5));
            (mapper.name().to_string(), SearchGolden::of("s2", 5, &outcome))
        })
        .collect()
}

/// `tests/data/search_parent.json` was written by the code *before* the
/// decode sorted inside a core, Algorithm 1 ran two fused passes and a
/// generation recycled its individuals. Today's kernel and GA must replay it:
/// the same fitness for every one of 2 000 samples, in the same order, and the
/// same best mapping — on 4, 8 and 64 cores.
#[test]
fn searches_recorded_before_the_kernel_rewrite_replay_bit_for_bit() {
    let recorded: Vec<SearchGolden> =
        serde_json::from_str(&std::fs::read_to_string(data_file("search_parent.json")).unwrap())
            .unwrap();
    assert_eq!(recorded.len(), 6);
    for (found, recorded) in search_goldens().iter().zip(&recorded) {
        assert_eq!(found, recorded, "{} seed {}", recorded.platform, recorded.seed);
    }
}

/// `tests/data/baselines_parent.json` was written by the code *before* the
/// Table IV baselines became rules over one generation adapter, one GA engine
/// and one actor-critic pair with constant hyper-parameters. Every mapper must
/// replay it: the same fitness for every one of 400 samples, in the same
/// order, and the same best mapping.
#[test]
fn every_table_iv_search_replays_the_parent_bit_for_bit() {
    let recorded: Vec<(String, SearchGolden)> =
        serde_json::from_str(&std::fs::read_to_string(data_file("baselines_parent.json")).unwrap())
            .unwrap();
    assert_eq!(recorded.len(), Algorithm::ALL.len());
    for (found, recorded) in baseline_goldens().iter().zip(&recorded) {
        assert_eq!(found, recorded, "{}", recorded.0);
    }
}
