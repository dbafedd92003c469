//! Warm start (Section V-C, Table V).
//!
//! When the current group of jobs resembles a previously solved group, the
//! previous best mapping is adapted and used to initialize the optimizer
//! instead of a random population. The paper shows this recovers most of the
//! benefit of a full search within one epoch (Table V).
//!
//! The mechanism is a [`StoredSolution`]: a solved mapping plus, optionally,
//! the [`JobSignature`]s of the jobs it was solved for.
//! [`StoredSolution::adapt_to`] carries it onto a new group and
//! [`StoredSolution::seed_population`] builds a search's initial population
//! around the result. How it adapts follows from what was stored:
//!
//! * **with signatures** — each new job inherits the genes of the stored job
//!   with the nearest signature, found by a greedy one-to-one assignment
//!   ([`match_signatures`]). This is what carries Table V's claim that
//!   stored solutions transfer to *similar* jobs: a conv inherits a conv's
//!   core affinity regardless of where either sits in its group.
//! * **without** — job `i` inherits the genes of stored job
//!   `i % stored_len` (index wrapping). Cheap, but it assumes the new group
//!   lists similar jobs in the same order, which fails whenever request
//!   interleaving reshuffles the layers; it is the baseline the matched
//!   transfer is measured against.
//!
//! Where the solutions live is the caller's choice: the serving layer keys
//! them by quantized signatures (`magma-serve`'s `MappingCache`), and
//! [`WarmStartEngine`] — the paper's one-per-task-category store — is a map.
//! Both serialize, so a long-running mapping service can persist its
//! knowledge across restarts.
//!
//! # The match takes its pairs lazily
//!
//! The greedy is defined by one order: every `(distance, new i, stored j)`
//! triple ascending, lexicographically. A round walks it and takes each pair
//! whose new job is unassigned and whose stored job the round has not used
//! yet; rounds repeat while new jobs remain. The first implementation did
//! exactly that — built all `g · g′` triples and sorted them (28 µs of a
//! cached 30-job group's ≈ 136 µs in the engine, 722 µs at the paper's
//! g = 100) — and it survives as the `#[cfg(test)] mod oracle` below, which
//! `the_lazy_match_assigns_what_the_sort_assigns` holds [`match_signatures`]
//! to, whole assignment for whole assignment. The lazy walk never builds the
//! order, and what makes that exact is:
//!
//! * **The order is total.** [`JobSignature::distance`] is a sum of absolute
//!   differences and non-negative penalties over finite log coordinates:
//!   finite, never NaN, never `-0.0`. So `<` on the distances is a total
//!   order and the indices break every tie; there is no pair the walk could
//!   place differently from a sort. (The sort's old comparator fell back to
//!   `Equal` on NaN — inconsistent, and a comparator `sort_by` may panic on
//!   since Rust 1.81; no such fallback exists any more.)
//! * **Taking the smallest eligible pair is the walk.** Within a round a pair
//!   only ever *stops* being eligible (its new job is assigned or its stored
//!   job used), never starts, so the next pair a walk of the sorted list
//!   takes is the smallest pair eligible at that moment.
//! * **A row's minimum is kept, not re-found.** The smallest eligible pair is
//!   the smallest over the unassigned new jobs of each one's nearest unused
//!   stored job — ties to the smaller stored index, which is the order's own
//!   tie-break within a row, and across rows to the smaller new index. After
//!   a pair `(i, j)` is taken, a row's candidate is still its minimum unless
//!   it *was* `j`: the unused set only shrank, and its candidate is still in
//!   it. So only those rows are rescanned.
//!
//! A round takes `min(unassigned, g′)` pairs, each for one comparison per
//! unassigned row plus the rescans; the `g · g′` distances are computed once
//! and reused by every round.

use crate::encoding::Mapping;
use magma_model::{JobSignature, TaskType};
use rand::Rng;
use serde::{DeError, Deserialize, Serialize};
use std::collections::HashMap;

/// One remembered solution: the best mapping found for a group, plus the
/// signatures of the jobs it was found for (when they were recorded).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoredSolution {
    mapping: Mapping,
    signatures: Option<Vec<JobSignature>>,
}

/// The serialized shape of a [`StoredSolution`], before the check of
/// [`StoredSolution::new`].
#[derive(Deserialize)]
struct StoredSolutionFields {
    mapping: Mapping,
    signatures: Option<Vec<JobSignature>>,
}

// A persisted solution is outside input: one signature per job, or a load
// error.
impl Deserialize for StoredSolution {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let StoredSolutionFields { mapping, signatures } = StoredSolutionFields::from_value(v)?;
        if signatures.as_ref().is_some_and(|sigs| sigs.len() != mapping.num_jobs()) {
            return Err(DeError::custom("one signature per job of the mapping"));
        }
        Ok(StoredSolution { mapping, signatures })
    }
}

impl StoredSolution {
    /// Creates a stored solution from a solved mapping and (optionally) the
    /// signatures of the jobs it was solved for. With signatures it adapts
    /// by profile matching, without them by index wrapping
    /// ([`StoredSolution::adapt_to`]).
    ///
    /// # Panics
    ///
    /// Panics if signatures are given and `signatures.len() != mapping.num_jobs()`.
    pub fn new(mapping: Mapping, signatures: Option<Vec<JobSignature>>) -> Self {
        if let Some(sigs) = &signatures {
            assert_eq!(sigs.len(), mapping.num_jobs(), "one signature per job of the mapping");
        }
        StoredSolution { mapping, signatures }
    }

    /// The stored best mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The signatures of the jobs the mapping was optimized for, if they were
    /// recorded. Without signatures only index-wrapped adaptation is
    /// possible.
    pub fn signatures(&self) -> Option<&[JobSignature]> {
        self.signatures.as_deref()
    }

    /// Adapts this stored solution to a new group of
    /// `new_signatures.len()` jobs on `num_accels` cores: profile-matched
    /// ([`match_signatures`] + [`Mapping::gather`]) when signatures were
    /// recorded (and are consistent), index-wrapped otherwise — new job `i`
    /// takes the genes of stored job `i % stored_len`, and accelerator genes
    /// are re-mapped modulo the new core count either way.
    ///
    /// # Panics
    ///
    /// Panics if `new_signatures` is empty or `num_accels == 0` — a mapping
    /// cannot cover zero jobs or zero cores.
    pub fn adapt_to(&self, new_signatures: &[JobSignature], num_accels: usize) -> Mapping {
        match self.signatures() {
            Some(stored_sigs) if stored_sigs.len() == self.mapping.num_jobs() => {
                let assignment = match_signatures(new_signatures, stored_sigs);
                self.mapping.gather(&assignment, num_accels)
            }
            _ => {
                let n = self.mapping.num_jobs();
                let sources: Vec<usize> = (0..new_signatures.len()).map(|i| i % n).collect();
                self.mapping.gather(&sources, num_accels)
            }
        }
    }

    /// Builds an initial population of `size` individuals around the adapted
    /// solution ([`StoredSolution::adapt_to`] plus jittered copies) — the
    /// budgeted adapt-then-refine entry point: hand the result to a
    /// budget-limited search (e.g. `Magma::with_warm_start`) to spend a
    /// small refinement budget on top of the transferred solution.
    pub fn seed_population<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        new_signatures: &[JobSignature],
        num_accels: usize,
        size: usize,
    ) -> Vec<Mapping> {
        let base = self.adapt_to(new_signatures, num_accels);
        jittered_population(rng, base, num_accels, size)
    }
}

/// Greedily assigns each new job a stored job with a similar profile.
///
/// Returns `assignment` with `assignment[i] = j` meaning new job `i` inherits
/// the genes of stored job `j`. The assignment is built in rounds: a round
/// takes pairs `(new i, stored j)` in ascending `(distance, i, j)` order
/// ([`JobSignature::distance`]; a total order, see the module docs) and uses
/// each stored job at most once, which preserves the stored solution's
/// diversity — two distinct new convs inherit two distinct stored gene blocks
/// rather than both collapsing onto the single best match. When the new group
/// is larger than the stored one, further rounds re-open all stored jobs for
/// the still-unassigned remainder.
///
/// The pairs are taken lazily (each unassigned new job keeps its nearest
/// unused stored job; the smallest of those is the next pair), never sorted;
/// the module docs argue why that assigns what sorting all of them did.
///
/// For a permutation of the stored group this recovers the permutation
/// wherever signatures are distinct (every exact match has distance zero),
/// and a verbatim repeat of the stored group maps to the identity even with
/// duplicate signatures (ties go to the smaller stored index). That repeat
/// is told apart up front and answered without a distance: at step `i` of
/// the first round every stored job before `i` is used, and `(0, i, i)` is
/// the smallest pair left.
///
/// # Panics
///
/// Panics if `stored` is empty.
pub fn match_signatures(new: &[JobSignature], stored: &[JobSignature]) -> Vec<usize> {
    assert!(!stored.is_empty(), "cannot match against an empty stored group");
    if new == stored {
        return (0..new.len()).collect();
    }
    let width = stored.len();
    let mut distances = Vec::with_capacity(new.len() * width);
    for n in new {
        distances.extend(stored.iter().map(|s| n.distance(s)));
    }
    let row = |i: usize| &distances[i * width..(i + 1) * width];
    let mut assignment = vec![usize::MAX; new.len()];
    // The unassigned new jobs, ascending, each with its round's candidate.
    let mut open: Vec<Candidate> =
        (0..new.len()).map(|i| Candidate { distance: 0.0, i, j: 0 }).collect();
    let mut used = vec![false; width];
    while !open.is_empty() {
        used.fill(false);
        for c in &mut open {
            c.nearest(row(c.i), &used);
        }
        let picks = open.len().min(width);
        for pick in 1..=picks {
            // The smallest candidate; a strict `<` keeps the smaller new index.
            let mut k = 0;
            for (m, c) in open.iter().enumerate().skip(1) {
                if c.distance < open[k].distance {
                    k = m;
                }
            }
            let Candidate { i, j, .. } = open.remove(k);
            assignment[i] = j;
            used[j] = true;
            if pick < picks {
                for c in open.iter_mut().filter(|c| c.j == j) {
                    c.nearest(row(c.i), &used);
                }
            }
        }
    }
    assignment
}

/// New job `i`'s nearest stored job `j` among those its round has not used.
struct Candidate {
    distance: f64,
    i: usize,
    j: usize,
}

impl Candidate {
    /// Rescans `row` (new job `i`'s distances) for its smallest unused entry;
    /// a strict `<` keeps the smaller stored index. Some entry is unused.
    fn nearest(&mut self, row: &[f64], used: &[bool]) {
        let mut best: Option<(f64, usize)> = None;
        for (j, (&d, &u)) in row.iter().zip(used).enumerate() {
            if !u && best.is_none_or(|(b, _)| d < b) {
                best = Some((d, j));
            }
        }
        (self.distance, self.j) = best.expect("a round rescans only while a stored job is unused");
    }
}

/// The paper's warm-start engine: the best known solution per task category,
/// and new searches seeded from it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmStartEngine {
    solutions: HashMap<TaskType, StoredSolution>,
}

impl WarmStartEngine {
    /// Creates an empty engine (no previous knowledge).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the best solution found for a task category, replacing any
    /// previous one.
    pub fn record(&mut self, task: TaskType, solution: StoredSolution) {
        self.solutions.insert(task, solution);
    }

    /// The stored solution for a task category, if any.
    pub fn stored(&self, task: TaskType) -> Option<&StoredSolution> {
        self.solutions.get(&task)
    }

    /// The initial population for a search on a new group of `task`
    /// ([`StoredSolution::seed_population`] on the stored solution), or
    /// `None` when nothing is stored for the category — the caller then
    /// falls back to random initialization.
    pub fn seed_population<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        task: TaskType,
        new_signatures: &[JobSignature],
        num_accels: usize,
        size: usize,
    ) -> Option<Vec<Mapping>> {
        Some(self.stored(task)?.seed_population(rng, new_signatures, num_accels, size))
    }
}

/// The transferred base individual plus jittered copies: ~10% of the genes of
/// each copy are re-randomized so the population has diversity around the
/// transferred solution.
fn jittered_population<R: Rng + ?Sized>(
    rng: &mut R,
    base: Mapping,
    num_accels: usize,
    size: usize,
) -> Vec<Mapping> {
    let mut pop = Vec::with_capacity(size);
    pop.push(base.clone());
    while pop.len() < size {
        let mut child = base.clone();
        let n = child.num_jobs();
        let flips = (n / 10).max(1);
        for _ in 0..flips {
            let i = rng.gen_range(0..n);
            child.accel_sel_mut()[i] = rng.gen_range(0..num_accels);
            let j = rng.gen_range(0..n);
            child.priority_mut()[j] = rng.gen_range(0.0..1.0);
        }
        pop.push(child);
    }
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_model::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mapping(n: usize, m: usize, seed: u64) -> Mapping {
        let mut rng = StdRng::seed_from_u64(seed);
        Mapping::random(&mut rng, n, m)
    }

    /// The signatures of a fresh `n`-job group of `task`.
    fn signatures(task: TaskType, n: usize) -> Vec<JobSignature> {
        WorkloadSpec::single_group(task, n, 9).signatures()
    }

    /// The index-wrapped adaptation, written out.
    pub(super) fn wrapped(stored: &Mapping, num_jobs: usize, num_accels: usize) -> Mapping {
        let sources: Vec<usize> = (0..num_jobs).map(|i| i % stored.num_jobs()).collect();
        stored.gather(&sources, num_accels)
    }

    #[test]
    fn empty_engine_has_no_knowledge() {
        let e = WarmStartEngine::new();
        assert!(TaskType::ALL.into_iter().all(|task| e.stored(task).is_none()));
    }

    #[test]
    fn a_solution_stored_without_signatures_adapts_by_index_wrapping() {
        for (stored_n, new_n, stored_accels, new_accels) in
            [(10, 10, 4, 4), (7, 25, 4, 6), (12, 5, 8, 3)]
        {
            let best = mapping(stored_n, stored_accels, 1);
            let adapted = StoredSolution::new(best.clone(), None)
                .adapt_to(&signatures(TaskType::Mix, new_n), new_accels);
            assert_eq!(adapted, wrapped(&best, new_n, new_accels), "{stored_n} -> {new_n}");
        }
    }

    #[test]
    fn record_and_adapt_same_shape() {
        let mut e = WarmStartEngine::new();
        let best = mapping(20, 4, 1);
        e.record(TaskType::Mix, StoredSolution::new(best.clone(), None));
        let adapted = e.stored(TaskType::Mix).unwrap().adapt_to(&signatures(TaskType::Mix, 20), 4);
        assert_eq!(adapted, best);
    }

    #[test]
    fn adapt_to_larger_group_wraps_genes() {
        let stored = StoredSolution::new(mapping(10, 4, 2), None);
        let adapted = stored.adapt_to(&signatures(TaskType::Language, 25), 4);
        assert_eq!(adapted.num_jobs(), 25);
        assert_eq!(adapted.accel_sel()[13], stored.mapping().accel_sel()[3]);
    }

    #[test]
    fn adapt_to_fewer_accels_stays_in_range() {
        let stored = StoredSolution::new(mapping(10, 8, 3), None);
        let adapted = stored.adapt_to(&signatures(TaskType::Vision, 10), 4);
        assert!(adapted.accel_sel().iter().all(|&a| a < 4));
    }

    #[test]
    fn seed_population_has_requested_size_and_contains_base() {
        let task = TaskType::Recommendation;
        let mut e = WarmStartEngine::new();
        e.record(task, StoredSolution::new(mapping(30, 4, 4), None));
        let sigs = signatures(task, 30);
        let mut rng = StdRng::seed_from_u64(5);
        let pop = e.seed_population(&mut rng, task, &sigs, 4, 16).unwrap();
        assert_eq!(pop.len(), 16);
        let base = e.stored(task).unwrap().adapt_to(&sigs, 4);
        assert_eq!(pop[0], base);
        // Jittered copies differ from the base but keep valid genes.
        assert!(pop[1..].iter().any(|m| m != &base));
        for m in &pop {
            assert!(m.accel_sel().iter().all(|&a| a < 4));
        }
    }

    #[test]
    fn seed_population_none_without_knowledge() {
        let e = WarmStartEngine::new();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(e.seed_population(&mut rng, TaskType::Mix, &[], 2, 4).is_none());
    }

    #[test]
    fn recording_overwrites_previous_entry() {
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Mix, StoredSolution::new(mapping(10, 2, 7), None));
        let second = StoredSolution::new(mapping(10, 2, 8), None);
        e.record(TaskType::Mix, second.clone());
        assert_eq!(e.stored(TaskType::Mix), Some(&second));
        assert!(e.stored(TaskType::Vision).is_none());
    }

    #[test]
    fn stored_solution_adapt_to_matches_engine_adaptation() {
        let group = WorkloadSpec::single_group(TaskType::Vision, 12, 3);
        let sol = StoredSolution::new(mapping(12, 4, 5), Some(group.signatures()));
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Vision, sol.clone());
        let fresh = signatures(TaskType::Vision, 12);
        // The engine's population is the stored solution's, draw for draw.
        assert_eq!(
            e.seed_population(&mut StdRng::seed_from_u64(1), TaskType::Vision, &fresh, 4, 8),
            Some(sol.seed_population(&mut StdRng::seed_from_u64(1), &fresh, 4, 8))
        );
    }

    #[test]
    fn stored_solution_seed_population_contains_adapted_base() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 10, 1);
        let sol = StoredSolution::new(mapping(10, 4, 2), Some(group.signatures()));
        let mut rng = StdRng::seed_from_u64(3);
        let pop = sol.seed_population(&mut rng, &group.signatures(), 4, 12);
        assert_eq!(pop.len(), 12);
        assert_eq!(pop[0], sol.adapt_to(&group.signatures(), 4));
        assert!(pop.iter().all(|m| m.accel_sel().iter().all(|&a| a < 4)));
    }

    #[test]
    #[should_panic(expected = "one signature per job")]
    fn stored_solution_rejects_mismatched_signatures() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 9, 1);
        let _ = StoredSolution::new(mapping(10, 4, 2), Some(group.signatures()));
    }
}

/// Signature-matching behaviour: permuted job orders, subset/superset groups
/// and cross-instance transfer (the scenarios behind Table V).
#[cfg(test)]
mod matching_tests {
    use super::tests::wrapped;
    use super::*;
    use crate::{M3e, Objective};
    use magma_model::{Group, Job, JobId, LayerShape, WorkloadSpec};
    use magma_platform::{settings, Setting};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn group(task: TaskType, n: usize, seed: u64) -> Group {
        WorkloadSpec::single_group(task, n, seed)
    }

    /// `n` vision conv jobs with pairwise-distinct signatures (growing
    /// channel counts), so matching assertions can be exact. Real workload
    /// groups may contain duplicate layers, which makes any two jobs with
    /// identical signatures interchangeable.
    fn distinct_signatures(n: usize) -> Vec<JobSignature> {
        (0..n)
            .map(|i| {
                Job::new(
                    JobId(i),
                    "synthetic",
                    i,
                    LayerShape::Conv2d {
                        k: 8 * (i + 1),
                        c: 16,
                        y: 14,
                        x: 14,
                        r: 3,
                        s: 3,
                        stride: 1,
                    },
                    4,
                    TaskType::Vision,
                )
                .signature()
            })
            .collect()
    }

    /// A random mapping of `stored`, remembered with its signatures.
    fn solution_for(stored: &Group, num_accels: usize, seed: u64) -> StoredSolution {
        let mut rng = StdRng::seed_from_u64(seed);
        let best = Mapping::random(&mut rng, stored.len(), num_accels);
        StoredSolution::new(best, Some(stored.signatures()))
    }

    #[test]
    fn permuted_job_order_recovers_the_permutation() {
        let sigs = distinct_signatures(24);
        let mut rng = StdRng::seed_from_u64(1);
        let best = Mapping::random(&mut rng, 24, 4);
        let stored = StoredSolution::new(best.clone(), Some(sigs.clone()));

        // Present the same jobs in reversed order: each job must get exactly
        // the gene block its twin had in the stored solution.
        let reversed: Vec<_> = sigs.iter().rev().copied().collect();
        let adapted = stored.adapt_to(&reversed, 4);
        for i in 0..24 {
            let twin = 23 - i;
            assert_eq!(adapted.accel_sel()[i], best.accel_sel()[twin], "job {i}");
            assert_eq!(adapted.priority()[i], best.priority()[twin], "job {i}");
        }
    }

    #[test]
    fn identical_group_is_a_fixed_point() {
        let stored = group(TaskType::Vision, 16, 3);
        let solution = solution_for(&stored, 4, 2);
        assert_eq!(&solution.adapt_to(&stored.signatures(), 4), solution.mapping());
    }

    #[test]
    fn subset_group_reuses_each_stored_job_at_most_once() {
        let sigs = distinct_signatures(30);
        // New group: jobs 5..15 of the stored group.
        let subset: Vec<_> = sigs[5..15].to_vec();
        let assignment = match_signatures(&subset, &sigs);
        assert_eq!(assignment, (5..15).collect::<Vec<_>>());
    }

    #[test]
    fn superset_group_wraps_onto_stored_jobs() {
        let sigs = distinct_signatures(8);
        // New group: the stored jobs twice over.
        let superset: Vec<_> = sigs.iter().chain(sigs.iter()).copied().collect();
        let assignment = match_signatures(&superset, &sigs);
        assert_eq!(assignment.len(), 16);
        // Every stored job is used exactly twice (one-to-one per round).
        let mut counts = vec![0usize; 8];
        for &j in &assignment {
            counts[j] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2), "{counts:?}");
        // And each new job found its exact twin.
        assert_eq!(&assignment[..8], &(0..8).collect::<Vec<_>>()[..]);
        assert_eq!(&assignment[8..], &(0..8).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn cross_instance_transfer_matches_by_profile_not_position() {
        // Two instances of the same task with different seeds reshuffle the
        // model interleaving; profile matching must still send every job to a
        // same-class stored job.
        let stored = group(TaskType::Mix, 24, 0);
        let fresh = group(TaskType::Mix, 24, 77);
        let sigs = stored.signatures();
        let assignment = match_signatures(&fresh.signatures(), &sigs);
        let mut same_class = 0;
        for (i, &j) in assignment.iter().enumerate() {
            if fresh.signatures()[i].class() == sigs[j].class() {
                same_class += 1;
            }
        }
        // The class histogram of two Mix instances is not identical, so a few
        // jobs may cross classes, but the vast majority must not.
        assert!(same_class >= 20, "only {same_class}/24 matched within class");
    }

    #[test]
    fn adapt_matched_falls_back_to_index_wrap_without_stored_signatures() {
        let mut rng = StdRng::seed_from_u64(9);
        let best = Mapping::random(&mut rng, 10, 4);
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Mix, StoredSolution::new(best.clone(), None));
        let fresh = group(TaskType::Mix, 14, 5);
        let pop = e.seed_population(&mut rng, TaskType::Mix, &fresh.signatures(), 4, 6).unwrap();
        assert_eq!(pop[0], wrapped(&best, 14, 4));
    }

    #[test]
    fn mismatched_stored_signatures_fall_back_to_index_wrap() {
        // The constructor and the deserializer both refuse a solution
        // without one signature per job; should one exist anyway (built here
        // by same-module access), adapting it degrades to index wrapping
        // rather than panic or mis-gather.
        let mut rng = StdRng::seed_from_u64(11);
        let best = Mapping::random(&mut rng, 10, 4);
        let skewed =
            StoredSolution { mapping: best.clone(), signatures: Some(distinct_signatures(14)) };
        let fresh = group(TaskType::Vision, 12, 5);
        assert_eq!(skewed.adapt_to(&fresh.signatures(), 4), wrapped(&best, 12, 4));
    }

    #[test]
    fn solution_history_persists_signatures_through_serde() {
        // record → serialize → deserialize → adapt must behave identically.
        let stored = group(TaskType::Vision, 12, 4);
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Vision, solution_for(&stored, 4, 7));
        let fresh = group(TaskType::Vision, 12, 99);

        let json = serde_json::to_string(&e).expect("engine serializes");
        let revived: WarmStartEngine = serde_json::from_str(&json).expect("engine deserializes");

        let sol = revived.stored(TaskType::Vision).unwrap();
        assert_eq!(Some(sol), e.stored(TaskType::Vision));
        assert!(revived.stored(TaskType::Language).is_none());
        assert_eq!(
            sol.adapt_to(&fresh.signatures(), 4),
            e.stored(TaskType::Vision).unwrap().adapt_to(&fresh.signatures(), 4)
        );
    }

    #[test]
    fn deserialization_rejects_a_solution_without_one_signature_per_job() {
        let mapping = |n| Mapping::random(&mut StdRng::seed_from_u64(1), n, 4);
        let sol = StoredSolution::new(mapping(3), Some(distinct_signatures(3)));
        let json = serde_json::to_string(&sol).unwrap();
        assert_eq!(serde_json::from_str::<StoredSolution>(&json).unwrap(), sol);
        // The same signatures beside a two-job mapping.
        let short = serde_json::to_string(&mapping(2)).unwrap();
        let bent = json.replace(&serde_json::to_string(sol.mapping()).unwrap(), &short);
        assert_ne!(bent, json);
        let err = serde_json::from_str::<StoredSolution>(&bent).unwrap_err().to_string();
        assert!(err.contains("one signature per job"), "{err}");
    }

    // Adapted genes always stay in range, whatever the stored/new group
    // sizes and core counts.
    proptest! {
        #[test]
        fn adapted_genes_always_in_range(
            stored_n in 1usize..40,
            new_n in 1usize..40,
            stored_accels in 1usize..8,
            new_accels in 1usize..8,
            seed in 0u64..20,
            profiled_sel in 0usize..2,
        ) {
            let task = TaskType::Mix;
            let stored_group = group(task, stored_n, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let best = Mapping::random(&mut rng, stored_n, stored_accels);
            let signatures = (profiled_sel == 1).then(|| stored_group.signatures());
            let fresh = group(task, new_n, seed + 1);
            let adapted =
                StoredSolution::new(best, signatures).adapt_to(&fresh.signatures(), new_accels);
            prop_assert_eq!(adapted.num_jobs(), new_n);
            prop_assert_eq!(adapted.num_accels(), new_accels);
            prop_assert!(adapted.accel_sel().iter().all(|&a| a < new_accels));
            prop_assert!(adapted.priority().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        // The lazy walk against the sort it replaced, whole assignment for
        // whole assignment: groups of 1–100 jobs drawn from a workload (one
        // platform profile attached or none) or from a pool of a few layers
        // (ties at distance 0, duplicate signatures), with fewer, as many or
        // more new jobs than stored ones — and, one case in four, a verbatim
        // repeat of a pooled group, which the match answers without a
        // distance.
        #[test]
        fn the_lazy_match_assigns_what_the_sort_assigns(
            stored_n in 1usize..101,
            new_n in 1usize..101,
            seed in 0u64..u64::MAX,
            source in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (stored, new) = match source {
                0 => (
                    group(TaskType::ALL[rng.gen_range(0..TaskType::ALL.len())], stored_n, seed)
                        .signatures(),
                    group(TaskType::Mix, new_n, seed ^ 1).signatures(),
                ),
                1 => {
                    let platform = settings::build(Setting::S2);
                    let profiled = |n, seed| {
                        let group = group(TaskType::Mix, n, seed);
                        M3e::new(platform.clone(), group, Objective::Throughput).signatures().to_vec()
                    };
                    (profiled(stored_n, seed), profiled(new_n, seed ^ 1))
                }
                2 => {
                    let pool = distinct_signatures(rng.gen_range(1..5));
                    let mut draw = |n| -> Vec<_> {
                        (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
                    };
                    (draw(stored_n), draw(new_n))
                }
                _ => {
                    // A verbatim repeat, duplicates included: the sort is
                    // what holds the identity the match answers it with.
                    let pool = distinct_signatures(rng.gen_range(1..5));
                    let stored: Vec<_> =
                        (0..stored_n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                    (stored.clone(), stored)
                }
            };
            prop_assert_eq!(match_signatures(&new, &stored), oracle::match_by_sorting_pairs(&new, &stored));
        }
    }

    #[test]
    fn a_verbatim_repeat_adapts_to_the_identity_and_seeds_the_stored_mapping() {
        // Mix groups repeat layers, so signatures tie at distance 0; the
        // smaller stored index wins each tie and every job finds itself.
        let sigs = group(TaskType::Mix, 30, 4).signatures();
        assert!((1..sigs.len()).any(|i| sigs[..i].contains(&sigs[i])), "a duplicate signature");
        assert_eq!(match_signatures(&sigs, &sigs), (0..30).collect::<Vec<_>>());
        let solution = StoredSolution::new(
            Mapping::random(&mut StdRng::seed_from_u64(8), 30, 4),
            Some(sigs.clone()),
        );
        let seeds = solution.seed_population(&mut StdRng::seed_from_u64(2), &sigs, 4, 16);
        assert_eq!(&seeds[0], solution.mapping());
    }
}

/// The match as it was first written — every `(distance, i, j)` triple built
/// and sorted, then walked once per round — kept as the executable spec the
/// tests hold [`match_signatures`] to.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn match_by_sorting_pairs(
        new: &[JobSignature],
        stored: &[JobSignature],
    ) -> Vec<usize> {
        let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(new.len() * stored.len());
        for (i, n) in new.iter().enumerate() {
            for (j, s) in stored.iter().enumerate() {
                pairs.push((n.distance(s), i, j));
            }
        }
        pairs.sort_by(|a, b| a.partial_cmp(b).expect("distances are never NaN"));
        let mut assignment = vec![usize::MAX; new.len()];
        let mut remaining = new.len();
        while remaining > 0 {
            let mut stored_used = vec![false; stored.len()];
            for &(_, i, j) in &pairs {
                if assignment[i] == usize::MAX && !stored_used[j] {
                    assignment[i] = j;
                    stored_used[j] = true;
                    remaining -= 1;
                }
            }
        }
        assignment
    }
}
