//! The warm-start engine (Section V-C, Table V).
//!
//! When the current group of jobs belongs to the same task category as a
//! previously solved group, the previous best mapping is adapted and used to
//! initialize the optimizer instead of a random population. The paper shows
//! this recovers most of the benefit of a full search within one epoch
//! (Table V).
//!
//! Adaptation comes in two flavours ([`WarmStartMode`]):
//!
//! * **Index wrapping** ([`WarmStartEngine::adapt`]) — job `i` of the new
//!   group inherits the genes of stored job `i % stored_len`. Cheap, but it
//!   assumes the new group lists similar jobs in the same order, which fails
//!   whenever request interleaving reshuffles the layers.
//! * **Profile matching** ([`WarmStartEngine::adapt_matched`], the default) —
//!   each new job inherits the genes of the stored job with the nearest
//!   [`JobSignature`], found by a greedy one-to-one assignment
//!   ([`match_signatures`]). This is what actually carries Table V's claim
//!   that stored solutions transfer to *similar* jobs: a conv inherits a
//!   conv's core affinity regardless of where either sits in its group.
//!
//! The engine keeps its knowledge in a [`SolutionHistory`]: one
//! [`StoredSolution`] (mapping + optional signatures) per task category,
//! serializable so a long-running mapping service can persist it across
//! restarts.

use crate::encoding::Mapping;
use magma_model::{JobSignature, TaskType};
use rand::Rng;
use serde::{DeError, Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// How a stored solution is adapted to a new group (Section V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum WarmStartMode {
    /// Job `i` inherits the genes of stored job `i % stored_len`.
    IndexWrap,
    /// Each job inherits the genes of the stored job with the nearest
    /// [`JobSignature`] (greedy one-to-one assignment).
    #[default]
    ProfileMatched,
}

impl fmt::Display for WarmStartMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmStartMode::IndexWrap => f.write_str("index-wrap"),
            WarmStartMode::ProfileMatched => f.write_str("profile-matched"),
        }
    }
}

/// One remembered solution: the best mapping found for a group, plus the
/// signatures of the jobs it was found for (when recorded via
/// [`SolutionHistory::record_profiled`]).
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
    /// signatures of the jobs it was solved for. This is the entry point for
    /// callers that manage their own storage — e.g. the signature-keyed
    /// mapping cache of `magma-serve`, whose entries are not per-task.
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

    /// Adapts this stored solution to a new group: profile-matched
    /// ([`match_signatures`] + [`Mapping::gather`]) when signatures were
    /// recorded (and are consistent), index-wrapped otherwise. This is the
    /// per-solution core of [`WarmStartEngine::adapt_matched`], exposed so
    /// non-task-keyed stores (the serving-layer mapping cache) can adapt a
    /// hit directly.
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
    /// budget-limited search (e.g. `Magma::refine`) to spend a small
    /// refinement budget on top of the transferred solution.
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

/// Per-task-category storage of solved mappings and their job signatures —
/// the knowledge base behind warm start (Section V-C).
///
/// By default the history is unbounded (at most one entry per
/// [`TaskType`]). A long-running mapping service that keys its own storage
/// more finely can bound it with [`SolutionHistory::with_capacity`], which
/// evicts the least-recently *used* entry — used meaning recorded or
/// explicitly [`touch`](SolutionHistory::touch)ed — once the capacity is
/// exceeded.
///
/// `Deserialize` is implemented by hand so that histories persisted
/// *before* the capacity/recency fields existed still load: a missing
/// `recency` is rebuilt from the entry keys (in [`TaskType`] order) and a
/// missing `capacity` means unbounded.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SolutionHistory {
    entries: HashMap<TaskType, StoredSolution>,
    /// Recency order, least recently used first. Always lists exactly the
    /// keys of `entries`.
    recency: crate::lru::LruOrder<TaskType>,
    /// `None` means unbounded.
    capacity: Option<usize>,
}

impl serde::Deserialize for SolutionHistory {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_map().is_none() {
            return Err(serde::DeError::mismatch("object", v));
        }
        let entries: HashMap<TaskType, StoredSolution> =
            serde::Deserialize::from_value(v.get("entries"))
                .map_err(|e| serde::DeError::custom(format!("field entries: {e}")))?;
        // Both fields were added after the first persisted format; tolerate
        // their absence (the vendored derive cannot express defaults).
        let recency = match v.get("recency") {
            serde::Value::Null => {
                let mut tasks: Vec<TaskType> = entries.keys().copied().collect();
                tasks.sort_unstable();
                tasks.into_iter().collect()
            }
            other => serde::Deserialize::from_value(other)
                .map_err(|e| serde::DeError::custom(format!("field recency: {e}")))?,
        };
        let capacity: Option<usize> = serde::Deserialize::from_value(v.get("capacity"))
            .map_err(|e| serde::DeError::custom(format!("field capacity: {e}")))?;
        Ok(SolutionHistory { entries, recency, capacity })
    }
}

impl SolutionHistory {
    /// Creates an empty, unbounded history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty history bounded to `capacity` entries with LRU-style
    /// eviction: recording beyond the capacity evicts the least-recently
    /// recorded-or-touched entry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a history that can hold nothing cannot
    /// honor `record`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a solution history must hold at least one entry");
        SolutionHistory { capacity: Some(capacity), ..Self::default() }
    }

    /// The configured capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Inserts or replaces the entry for `task`, marks it most recently used
    /// and evicts the least recently used entry if the capacity is exceeded.
    fn insert_entry(&mut self, task: TaskType, solution: StoredSolution) {
        self.entries.insert(task, solution);
        self.recency.bump(&task);
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let lru = self.recency.pop_lru().expect("recency tracks every entry");
                self.entries.remove(&lru);
            }
        }
    }

    /// Stores the best mapping for a task category without job signatures,
    /// replacing any previous entry. Adaptation falls back to index wrapping
    /// for entries recorded this way.
    pub fn record(&mut self, task: TaskType, best: Mapping) {
        self.insert_entry(task, StoredSolution { mapping: best, signatures: None });
    }

    /// Stores the best mapping for a task category together with the
    /// signatures of the jobs it was optimized for, replacing any previous
    /// entry. This enables profile-matched adaptation.
    ///
    /// # Panics
    ///
    /// Panics if `signatures.len() != best.num_jobs()`.
    pub fn record_profiled(
        &mut self,
        task: TaskType,
        best: Mapping,
        signatures: Vec<JobSignature>,
    ) {
        assert_eq!(
            signatures.len(),
            best.num_jobs(),
            "one signature per job of the stored mapping"
        );
        self.insert_entry(task, StoredSolution { mapping: best, signatures: Some(signatures) });
    }

    /// The stored solution for a task category, if any. Does not affect the
    /// eviction order (`&self`); callers that want a read to protect an
    /// entry pair it with [`SolutionHistory::touch`].
    pub fn get(&self, task: TaskType) -> Option<&StoredSolution> {
        self.entries.get(&task)
    }

    /// Marks the entry for `task` most recently used, returning whether the
    /// entry exists.
    pub fn touch(&mut self, task: TaskType) -> bool {
        if self.entries.contains_key(&task) {
            self.recency.bump(&task);
            true
        } else {
            false
        }
    }

    /// Number of task categories with stored knowledge.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no knowledge is stored at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Greedily assigns each new job a stored job with a similar profile.
///
/// Returns `assignment` with `assignment[i] = j` meaning new job `i` inherits
/// the genes of stored job `j`. The assignment is built in rounds: within a
/// round every pair `(new, stored)` is considered in ascending
/// [`JobSignature::distance`] order (ties broken by the indices, so the
/// result is deterministic) and each stored job is used at most once, which
/// preserves the stored solution's diversity — two distinct new convs inherit
/// two distinct stored gene blocks rather than both collapsing onto the
/// single best match. When the new group is larger than the stored one,
/// further rounds re-open all stored jobs for the still-unassigned remainder.
///
/// For a permutation of the stored group with distinct signatures this
/// recovers the permutation exactly (every exact match has distance zero).
///
/// # Panics
///
/// Panics if `stored` is empty.
pub fn match_signatures(new: &[JobSignature], stored: &[JobSignature]) -> Vec<usize> {
    assert!(!stored.is_empty(), "cannot match against an empty stored group");
    let mut assignment = vec![usize::MAX; new.len()];
    // Distances never change between rounds, so the full pair list is built
    // and sorted once; each round just skips already-assigned new jobs.
    // Distances are finite (see JobSignature::distance), so the order is
    // total in practice; ties fall back to index order.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(new.len() * stored.len());
    for (i, n) in new.iter().enumerate() {
        for (j, s) in stored.iter().enumerate() {
            pairs.push((n.distance(s), i, j));
        }
    }
    pairs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut remaining = new.len();
    while remaining > 0 {
        let mut stored_used = vec![false; stored.len()];
        for &(_, i, j) in pairs.iter() {
            if assignment[i] == usize::MAX && !stored_used[j] {
                assignment[i] = j;
                stored_used[j] = true;
                remaining -= 1;
            }
        }
    }
    assignment
}

/// Stores the best known mapping per task category and seeds new searches
/// from it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmStartEngine {
    history: SolutionHistory,
}

impl WarmStartEngine {
    /// Creates an empty engine (no previous knowledge).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the best mapping found for a task category, replacing any
    /// previous entry. Entries recorded without signatures only support
    /// index-wrapped adaptation; prefer [`WarmStartEngine::record_profiled`].
    pub fn record(&mut self, task: TaskType, best: Mapping) {
        self.history.record(task, best);
    }

    /// Records the best mapping together with the signatures of the jobs it
    /// was optimized for, enabling profile-matched adaptation.
    ///
    /// # Panics
    ///
    /// Panics if `signatures.len() != best.num_jobs()`.
    pub fn record_profiled(
        &mut self,
        task: TaskType,
        best: Mapping,
        signatures: Vec<JobSignature>,
    ) {
        self.history.record_profiled(task, best, signatures);
    }

    /// Whether previous knowledge exists for this task category.
    pub fn has_knowledge(&self, task: TaskType) -> bool {
        self.history.get(task).is_some()
    }

    /// The stored mapping for a task category, if any.
    pub fn stored(&self, task: TaskType) -> Option<&Mapping> {
        self.history.get(task).map(StoredSolution::mapping)
    }

    /// The full stored solution (mapping + signatures) for a task category.
    pub fn stored_solution(&self, task: TaskType) -> Option<&StoredSolution> {
        self.history.get(task)
    }

    /// The engine's knowledge base.
    pub fn history(&self) -> &SolutionHistory {
        &self.history
    }

    /// Index-wrapped adaptation ([`WarmStartMode::IndexWrap`]): adapts the
    /// stored solution of `task` to a new problem of `num_jobs` jobs on
    /// `num_accels` cores by wrapping the stored genomes around (or
    /// truncating them) and re-mapping accelerator genes modulo the new core
    /// count. Returns `None` when no knowledge exists.
    ///
    /// This is the fallback when job signatures are unavailable; with
    /// signatures, [`WarmStartEngine::adapt_matched`] transfers far better
    /// across reshuffled groups.
    ///
    /// # Panics
    ///
    /// Panics if knowledge exists for `task` but `num_jobs == 0` or
    /// `num_accels == 0` — a mapping cannot cover zero jobs or zero cores
    /// (`None` strictly means "no stored knowledge").
    pub fn adapt(&self, task: TaskType, num_jobs: usize, num_accels: usize) -> Option<Mapping> {
        let stored = self.stored(task)?;
        let sources: Vec<usize> = (0..num_jobs).map(|i| i % stored.num_jobs()).collect();
        Some(stored.gather(&sources, num_accels))
    }

    /// Profile-matched adaptation ([`WarmStartMode::ProfileMatched`]): each
    /// new job (described by its signature) inherits the gene block of the
    /// stored job with the nearest signature, via [`match_signatures`].
    ///
    /// Returns `None` when no knowledge exists for the task category. Falls
    /// back to index wrapping when the stored entry carries no signatures
    /// (it was recorded with [`WarmStartEngine::record`]) — or when it
    /// carries the wrong number of them, which cannot happen via
    /// [`WarmStartEngine::record_profiled`] but can arrive through
    /// deserialization of a corrupted or version-skewed [`SolutionHistory`].
    ///
    /// # Panics
    ///
    /// Panics if knowledge exists for `task` but `new_signatures` is empty or
    /// `num_accels == 0` — a mapping cannot cover zero jobs or zero cores
    /// (`None` strictly means "no stored knowledge").
    pub fn adapt_matched(
        &self,
        task: TaskType,
        new_signatures: &[JobSignature],
        num_accels: usize,
    ) -> Option<Mapping> {
        let solution = self.history.get(task)?;
        Some(solution.adapt_to(new_signatures, num_accels))
    }

    /// Builds an initial population of `size` individuals for a new search
    /// using index-wrapped adaptation: the adapted previous solution plus
    /// jittered copies of it. Returns `None` when no knowledge exists for the
    /// task category, in which case the caller should fall back to random
    /// initialization.
    pub fn seed_population<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        task: TaskType,
        num_jobs: usize,
        num_accels: usize,
        size: usize,
    ) -> Option<Vec<Mapping>> {
        let base = self.adapt(task, num_jobs, num_accels)?;
        Some(jittered_population(rng, base, num_accels, size))
    }

    /// As [`WarmStartEngine::seed_population`] but with profile-matched
    /// adaptation: the base individual is built by [`WarmStartEngine::adapt_matched`]
    /// against the new group's signatures.
    pub fn seed_population_matched<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        task: TaskType,
        new_signatures: &[JobSignature],
        num_accels: usize,
        size: usize,
    ) -> Option<Vec<Mapping>> {
        let base = self.adapt_matched(task, new_signatures, num_accels)?;
        Some(jittered_population(rng, base, num_accels, size))
    }

    /// Number of task categories with stored knowledge.
    pub fn num_entries(&self) -> usize {
        self.history.len()
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mapping(n: usize, m: usize, seed: u64) -> Mapping {
        let mut rng = StdRng::seed_from_u64(seed);
        Mapping::random(&mut rng, n, m)
    }

    #[test]
    fn empty_engine_has_no_knowledge() {
        let e = WarmStartEngine::new();
        assert!(!e.has_knowledge(TaskType::Vision));
        assert!(e.adapt(TaskType::Vision, 10, 2).is_none());
        assert!(e.adapt_matched(TaskType::Vision, &[], 2).is_none());
        assert_eq!(e.num_entries(), 0);
        assert!(e.history().is_empty());
    }

    #[test]
    fn record_and_adapt_same_shape() {
        let mut e = WarmStartEngine::new();
        let best = mapping(20, 4, 1);
        e.record(TaskType::Mix, best.clone());
        assert!(e.has_knowledge(TaskType::Mix));
        let adapted = e.adapt(TaskType::Mix, 20, 4).unwrap();
        assert_eq!(adapted, best);
    }

    #[test]
    fn adapt_to_larger_group_wraps_genes() {
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Language, mapping(10, 4, 2));
        let adapted = e.adapt(TaskType::Language, 25, 4).unwrap();
        assert_eq!(adapted.num_jobs(), 25);
        let stored = e.stored(TaskType::Language).unwrap();
        assert_eq!(adapted.accel_sel()[13], stored.accel_sel()[3]);
    }

    #[test]
    fn adapt_to_fewer_accels_stays_in_range() {
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Vision, mapping(10, 8, 3));
        let adapted = e.adapt(TaskType::Vision, 10, 4).unwrap();
        assert!(adapted.accel_sel().iter().all(|&a| a < 4));
    }

    #[test]
    fn seed_population_has_requested_size_and_contains_base() {
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Recommendation, mapping(30, 4, 4));
        let mut rng = StdRng::seed_from_u64(5);
        let pop = e.seed_population(&mut rng, TaskType::Recommendation, 30, 4, 16).unwrap();
        assert_eq!(pop.len(), 16);
        let base = e.adapt(TaskType::Recommendation, 30, 4).unwrap();
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
        assert!(e.seed_population(&mut rng, TaskType::Mix, 10, 2, 4).is_none());
        assert!(e.seed_population_matched(&mut rng, TaskType::Mix, &[], 2, 4).is_none());
    }

    #[test]
    fn recording_overwrites_previous_entry() {
        let mut e = WarmStartEngine::new();
        e.record(TaskType::Mix, mapping(10, 2, 7));
        let second = mapping(10, 2, 8);
        e.record(TaskType::Mix, second.clone());
        assert_eq!(e.stored(TaskType::Mix), Some(&second));
        assert_eq!(e.num_entries(), 1);
    }

    #[test]
    fn mode_labels_are_distinct() {
        assert_eq!(WarmStartMode::default(), WarmStartMode::ProfileMatched);
        assert_ne!(WarmStartMode::IndexWrap.to_string(), WarmStartMode::ProfileMatched.to_string());
    }

    #[test]
    fn unbounded_history_never_evicts() {
        let mut h = SolutionHistory::new();
        assert_eq!(h.capacity(), None);
        for (i, task) in TaskType::ALL.into_iter().enumerate() {
            h.record(task, mapping(4, 2, i as u64));
        }
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn bounded_history_evicts_least_recently_recorded() {
        let mut h = SolutionHistory::with_capacity(2);
        assert_eq!(h.capacity(), Some(2));
        h.record(TaskType::Vision, mapping(4, 2, 0));
        h.record(TaskType::Language, mapping(4, 2, 1));
        h.record(TaskType::Recommendation, mapping(4, 2, 2));
        assert_eq!(h.len(), 2);
        assert!(h.get(TaskType::Vision).is_none(), "oldest entry must be evicted");
        assert!(h.get(TaskType::Language).is_some());
        assert!(h.get(TaskType::Recommendation).is_some());
    }

    #[test]
    fn touch_protects_an_entry_from_eviction() {
        let mut h = SolutionHistory::with_capacity(2);
        h.record(TaskType::Vision, mapping(4, 2, 0));
        h.record_profiled(
            TaskType::Language,
            mapping(4, 2, 1),
            WorkloadSpec::single_group(TaskType::Language, 4, 0).signatures(),
        );
        // Vision is LRU; touching it flips the eviction victim to Language.
        assert!(h.touch(TaskType::Vision));
        assert!(!h.touch(TaskType::Mix), "touch reports missing entries");
        h.record(TaskType::Recommendation, mapping(4, 2, 2));
        assert!(h.get(TaskType::Vision).is_some());
        assert!(h.get(TaskType::Language).is_none());
    }

    #[test]
    fn re_recording_a_task_bumps_it_without_growing() {
        let mut h = SolutionHistory::with_capacity(2);
        h.record(TaskType::Vision, mapping(4, 2, 0));
        h.record(TaskType::Language, mapping(4, 2, 1));
        // Re-record Vision: it becomes most recent, len stays 2.
        h.record(TaskType::Vision, mapping(4, 2, 3));
        assert_eq!(h.len(), 2);
        h.record(TaskType::Mix, mapping(4, 2, 4));
        assert!(h.get(TaskType::Language).is_none(), "Language was LRU after the re-record");
        assert!(h.get(TaskType::Vision).is_some());
    }

    #[test]
    fn bounded_history_round_trips_through_serde() {
        let mut h = SolutionHistory::with_capacity(3);
        h.record(TaskType::Vision, mapping(4, 2, 0));
        h.record(TaskType::Language, mapping(4, 2, 1));
        let json = serde_json::to_string(&h).expect("history serializes");
        let mut back: SolutionHistory = serde_json::from_str(&json).expect("history deserializes");
        assert_eq!(back.capacity(), Some(3));
        assert_eq!(back.len(), 2);
        // The revived history keeps evicting in the same order.
        back.record(TaskType::Recommendation, mapping(4, 2, 2));
        back.record(TaskType::Mix, mapping(4, 2, 3));
        assert!(back.get(TaskType::Vision).is_none());
        assert_eq!(back.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = SolutionHistory::with_capacity(0);
    }

    /// Drops every occurrence of the named keys from a serde value tree —
    /// used to reconstruct the pre-capacity persisted format.
    fn strip_keys(v: &serde::Value, keys: &[&str]) -> serde::Value {
        match v {
            serde::Value::Map(entries) => serde::Value::Map(
                entries
                    .iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .map(|(k, val)| (k.clone(), strip_keys(val, keys)))
                    .collect(),
            ),
            serde::Value::Seq(items) => {
                serde::Value::Seq(items.iter().map(|i| strip_keys(i, keys)).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn deserializes_the_pre_capacity_persisted_format() {
        // A WarmStartEngine persisted before PR 4 has no recency/capacity
        // fields on its SolutionHistory and no core_class on its signatures.
        // Such state must still load (README advertises serde persistence).
        let group = WorkloadSpec::single_group(TaskType::Vision, 10, 2);
        let mut engine = WarmStartEngine::new();
        engine.record_profiled(TaskType::Vision, mapping(10, 4, 1), group.signatures());
        let old_value = strip_keys(
            &serde::Serialize::to_value(&engine),
            &["recency", "capacity", "core_class"],
        );
        let old_json = serde_json::to_string(&old_value).unwrap();
        assert!(!old_json.contains("recency") && !old_json.contains("core_class"));

        let revived: WarmStartEngine = serde_json::from_str(&old_json).unwrap();
        assert_eq!(revived.history().capacity(), None, "missing capacity means unbounded");
        assert_eq!(revived.num_entries(), 1);
        let fresh = WorkloadSpec::single_group(TaskType::Vision, 10, 9);
        assert_eq!(
            revived.adapt_matched(TaskType::Vision, &fresh.signatures(), 4),
            engine.adapt_matched(TaskType::Vision, &fresh.signatures(), 4)
        );
        // The rebuilt recency order keeps working (record + evict).
        let mut revived = revived;
        revived.record(TaskType::Language, mapping(4, 2, 3));
        assert_eq!(revived.num_entries(), 2);
    }

    use magma_model::WorkloadSpec;

    #[test]
    fn stored_solution_adapt_to_matches_engine_adaptation() {
        let group = WorkloadSpec::single_group(TaskType::Vision, 12, 3);
        let best = mapping(12, 4, 5);
        let sol = StoredSolution::new(best.clone(), Some(group.signatures()));
        let mut e = WarmStartEngine::new();
        e.record_profiled(TaskType::Vision, best, group.signatures());
        let fresh = WorkloadSpec::single_group(TaskType::Vision, 12, 9);
        assert_eq!(
            sol.adapt_to(&fresh.signatures(), 4),
            e.adapt_matched(TaskType::Vision, &fresh.signatures(), 4).unwrap()
        );
        // Without signatures the standalone adaptation index-wraps.
        let bare = StoredSolution::new(mapping(5, 4, 6), None);
        let adapted = bare.adapt_to(&fresh.signatures(), 4);
        assert_eq!(adapted.num_jobs(), 12);
        assert_eq!(adapted.accel_sel()[7], bare.mapping().accel_sel()[2]);
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
    use super::*;
    use magma_model::{Group, Job, JobId, LayerShape, WorkloadSpec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// An engine with the signatures of `stored_group` and a random stored
    /// mapping for them.
    fn engine_for(task: TaskType, stored: &Group, num_accels: usize, seed: u64) -> WarmStartEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let best = Mapping::random(&mut rng, stored.len(), num_accels);
        let mut e = WarmStartEngine::new();
        e.record_profiled(task, best, stored.signatures());
        e
    }

    #[test]
    fn permuted_job_order_recovers_the_permutation() {
        let sigs = distinct_signatures(24);
        let mut rng = StdRng::seed_from_u64(1);
        let best = Mapping::random(&mut rng, 24, 4);
        let mut e = WarmStartEngine::new();
        e.record_profiled(TaskType::Vision, best.clone(), sigs.clone());

        // Present the same jobs in reversed order: each job must get exactly
        // the gene block its twin had in the stored solution.
        let reversed: Vec<_> = sigs.iter().rev().copied().collect();
        let adapted = e.adapt_matched(TaskType::Vision, &reversed, 4).unwrap();
        for i in 0..24 {
            let twin = 23 - i;
            assert_eq!(adapted.accel_sel()[i], best.accel_sel()[twin], "job {i}");
            assert_eq!(adapted.priority()[i], best.priority()[twin], "job {i}");
        }
    }

    #[test]
    fn identical_group_is_a_fixed_point() {
        let stored = group(TaskType::Vision, 16, 3);
        let e = engine_for(TaskType::Vision, &stored, 4, 2);
        let adapted = e.adapt_matched(TaskType::Vision, &stored.signatures(), 4).unwrap();
        assert_eq!(&adapted, e.stored(TaskType::Vision).unwrap());
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
        let mut e = WarmStartEngine::new();
        let mut rng = StdRng::seed_from_u64(9);
        let best = Mapping::random(&mut rng, 10, 4);
        e.record(TaskType::Mix, best); // no signatures
        let fresh = group(TaskType::Mix, 14, 5);
        let matched = e.adapt_matched(TaskType::Mix, &fresh.signatures(), 4).unwrap();
        let wrapped = e.adapt(TaskType::Mix, 14, 4).unwrap();
        assert_eq!(matched, wrapped);
    }

    #[test]
    fn mismatched_stored_signatures_fall_back_to_index_wrap() {
        // record_profiled asserts len(signatures) == num_jobs, but a
        // deserialized SolutionHistory can arrive corrupted or
        // version-skewed; adapt_matched must degrade to index wrapping
        // rather than panic or mis-gather.
        let mut rng = StdRng::seed_from_u64(11);
        let best = Mapping::random(&mut rng, 10, 4);
        let mut e = WarmStartEngine::new();
        // Bypass record_profiled's assert the same way a hand-edited JSON
        // would: construct the entry directly (same-module access).
        e.history.entries.insert(
            TaskType::Vision,
            StoredSolution { mapping: best, signatures: Some(distinct_signatures(14)) },
        );
        let fresh = group(TaskType::Vision, 12, 5);
        let matched = e.adapt_matched(TaskType::Vision, &fresh.signatures(), 4).unwrap();
        assert_eq!(matched, e.adapt(TaskType::Vision, 12, 4).unwrap());
    }

    #[test]
    fn solution_history_persists_signatures_through_serde() {
        // record → serialize → deserialize → adapt must behave identically.
        let stored = group(TaskType::Vision, 12, 4);
        let e = engine_for(TaskType::Vision, &stored, 4, 7);
        let fresh = group(TaskType::Vision, 12, 99);

        let json = serde_json::to_string(&e).expect("engine serializes");
        let revived: WarmStartEngine = serde_json::from_str(&json).expect("engine deserializes");

        assert_eq!(revived.num_entries(), 1);
        let sol = revived.stored_solution(TaskType::Vision).unwrap();
        assert_eq!(sol.signatures().unwrap(), &stored.signatures()[..]);
        assert_eq!(
            revived.adapt_matched(TaskType::Vision, &fresh.signatures(), 4),
            e.adapt_matched(TaskType::Vision, &fresh.signatures(), 4)
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
            let profiled = profiled_sel == 1;
            let task = TaskType::Mix;
            let stored_group = group(task, stored_n, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let best = Mapping::random(&mut rng, stored_n, stored_accels);
            let mut e = WarmStartEngine::new();
            if profiled {
                e.record_profiled(task, best, stored_group.signatures());
            } else {
                e.record(task, best);
            }
            let fresh = group(task, new_n, seed + 1);
            let adapted = e.adapt_matched(task, &fresh.signatures(), new_accels).unwrap();
            prop_assert_eq!(adapted.num_jobs(), new_n);
            prop_assert_eq!(adapted.num_accels(), new_accels);
            prop_assert!(adapted.accel_sel().iter().all(|&a| a < new_accels));
            prop_assert!(adapted.priority().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}
