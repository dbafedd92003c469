//! The mapping encoding and decoder (Section IV-A, Fig. 5a).
//!
//! A mapping for a group of `n` jobs on `m` sub-accelerators is encoded as
//! two genomes of length `n`:
//!
//! * the **sub-accelerator selection** genome — gene `i` is the core index
//!   (`0..m`) that job `i` runs on;
//! * the **job prioritization** genome — gene `i` is a priority in `[0, 1)`;
//!   jobs assigned to the same core execute in ascending priority order
//!   (0 is the highest priority).

use magma_model::JobId;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize};

/// An encoded mapping: the individual the optimizers evolve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mapping {
    accel_sel: Vec<usize>,
    priority: Vec<f64>,
    num_accels: usize,
}

/// The serialized shape of a [`Mapping`], before its invariants are checked.
#[derive(Deserialize)]
struct MappingFields {
    accel_sel: Vec<usize>,
    priority: Vec<f64>,
    num_accels: usize,
}

// A mapping read from a file is outside input: it goes through the checks of
// `Mapping::new`, so a bent file is a load error, not an index out of bounds
// on the first hit that gathers from it.
impl Deserialize for Mapping {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let MappingFields { accel_sel, priority, num_accels } = MappingFields::from_value(v)?;
        Mapping::checked(accel_sel, priority, num_accels).map_err(DeError::custom)
    }
}

impl Mapping {
    /// Creates a mapping from explicit genomes.
    ///
    /// # Panics
    ///
    /// Panics if the genomes have different lengths, are empty, if any
    /// accelerator gene is out of range, or if any priority is outside
    /// `[0, 1]`.
    pub fn new(accel_sel: Vec<usize>, priority: Vec<f64>, num_accels: usize) -> Self {
        Mapping::checked(accel_sel, priority, num_accels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Mapping::new`] with the broken invariant as an error.
    fn checked(
        accel_sel: Vec<usize>,
        priority: Vec<f64>,
        num_accels: usize,
    ) -> Result<Self, &'static str> {
        if accel_sel.is_empty() {
            return Err("a mapping must cover at least one job");
        }
        if accel_sel.len() != priority.len() {
            return Err("genome lengths must match");
        }
        if num_accels == 0 {
            return Err("need at least one sub-accelerator");
        }
        if !accel_sel.iter().all(|&a| a < num_accels) {
            return Err("sub-accelerator gene out of range");
        }
        if !priority.iter().all(|p| (0.0..=1.0).contains(p)) {
            return Err("priorities must be in [0, 1]");
        }
        Ok(Mapping { accel_sel, priority, num_accels })
    }

    /// Samples a uniformly random mapping for `num_jobs` jobs on
    /// `num_accels` cores.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, num_jobs: usize, num_accels: usize) -> Self {
        assert!(num_jobs > 0 && num_accels > 0);
        let accel_sel = (0..num_jobs).map(|_| rng.gen_range(0..num_accels)).collect();
        let priority = (0..num_jobs).map(|_| rng.gen_range(0.0..1.0)).collect();
        Mapping { accel_sel, priority, num_accels }
    }

    /// Number of jobs this mapping covers (the group size).
    pub fn num_jobs(&self) -> usize {
        self.accel_sel.len()
    }

    /// Number of sub-accelerators the selection genes index into.
    pub fn num_accels(&self) -> usize {
        self.num_accels
    }

    /// The sub-accelerator selection genome.
    pub fn accel_sel(&self) -> &[usize] {
        &self.accel_sel
    }

    /// The job prioritization genome.
    pub fn priority(&self) -> &[f64] {
        &self.priority
    }

    /// Mutable access to the selection genome (gene values must stay within
    /// `0..num_accels`; the GA operators uphold this).
    pub fn accel_sel_mut(&mut self) -> &mut [usize] {
        &mut self.accel_sel
    }

    /// Mutable access to the priority genome (values must stay in `[0, 1]`).
    pub fn priority_mut(&mut self) -> &mut [f64] {
        &mut self.priority
    }

    /// Decodes the genomes into per-core ordered job queues (Fig. 4a / 5a).
    ///
    /// Ties in priority are broken by job id so decoding is deterministic.
    pub fn decode(&self) -> DecodedMapping {
        let mut order = Vec::new();
        self.execution_order_into(&mut order);
        let mut queues: Vec<Vec<JobId>> = vec![Vec::new(); self.num_accels];
        for (_, job) in order {
            queues[self.accel_sel[job]].push(JobId(job));
        }
        DecodedMapping { queues }
    }

    /// Overwrites `order` with the `(priority, job id)` pairs in ascending
    /// order — the order jobs sharing a core execute in. For the in-range
    /// priorities [`Mapping::new`] accepts this is a total order with no equal
    /// elements, so the unstable sort (which needs no merge buffer) yields the
    /// one possible result. The keys travel with the indices so comparisons
    /// read the slice being sorted, not the genome behind it.
    fn execution_order_into(&self, order: &mut Vec<(f64, usize)>) {
        order.clear();
        order.extend(self.priority.iter().copied().zip(0..));
        order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
    }

    /// Flattens the mapping into a continuous vector in `[0, 1]^(2n)` — the
    /// representation the continuous black-box optimizers (DE, CMA-ES, PSO,
    /// TBPSA) operate on. The first `n` entries encode the accelerator
    /// selection as `accel / num_accels` bucket midpoints; the last `n` are
    /// the priorities.
    pub fn to_vector(&self) -> Vec<f64> {
        let n = self.num_jobs();
        let mut v = Vec::with_capacity(2 * n);
        for &a in &self.accel_sel {
            v.push((a as f64 + 0.5) / self.num_accels as f64);
        }
        for &p in &self.priority {
            v.push(p);
        }
        v
    }

    /// Reconstructs a mapping from a continuous vector (the inverse of
    /// [`Mapping::to_vector`], with values clamped into range and NaN — which
    /// a diverging continuous optimizer can emit — read as 0).
    ///
    /// # Panics
    ///
    /// Panics if the vector length is odd or zero.
    pub fn from_vector(v: &[f64], num_accels: usize) -> Self {
        assert!(!v.is_empty() && v.len().is_multiple_of(2), "vector length must be 2 × num_jobs");
        let n = v.len() / 2;
        let accel_sel = v[..n]
            .iter()
            .map(|&x| {
                let x = unit(x, 1.0 - f64::EPSILON);
                ((x * num_accels as f64) as usize).min(num_accels - 1)
            })
            .collect();
        let priority = v[n..].iter().map(|&x| unit(x, 1.0)).collect();
        Mapping { accel_sel, priority, num_accels }
    }

    /// Builds a new mapping by gene transfer: job `i` of the result takes the
    /// gene block (sub-accelerator selection and priority) of job
    /// `source_jobs[i]` in `self`, with selection genes re-mapped modulo
    /// `num_accels` in case the new platform has fewer cores.
    ///
    /// This is the primitive behind warm-start adaptation (Section V-C):
    /// index-wrapped adaptation passes `i % num_jobs` and profile-matched
    /// adaptation passes the signature-matched assignment. Source indices may
    /// repeat (new group larger than the stored one) or be skipped (smaller).
    ///
    /// # Panics
    ///
    /// Panics if `source_jobs` is empty, any index is out of range, or
    /// `num_accels == 0`.
    pub fn gather(&self, source_jobs: &[usize], num_accels: usize) -> Mapping {
        assert!(!source_jobs.is_empty(), "a mapping must cover at least one job");
        assert!(num_accels > 0, "need at least one sub-accelerator");
        assert!(source_jobs.iter().all(|&j| j < self.num_jobs()), "source job index out of range");
        let accel_sel = source_jobs.iter().map(|&j| self.accel_sel[j] % num_accels).collect();
        let priority = source_jobs.iter().map(|&j| self.priority[j]).collect();
        Mapping { accel_sel, priority, num_accels }
    }

    /// Returns how many jobs are assigned to each sub-accelerator.
    pub fn load_per_accel(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_accels];
        for &a in &self.accel_sel {
            loads[a] += 1;
        }
        loads
    }
}

/// Clamps one coordinate of a continuous vector into `[0, hi]`, reading NaN
/// as 0: `f64::clamp` passes NaN through, and a NaN priority makes the decode
/// comparator a non-total order, on which the standard sorts panic.
fn unit(x: f64, hi: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, hi)
    }
}

/// A decoded mapping: for each sub-accelerator, the ordered queue of jobs it
/// will execute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedMapping {
    queues: Vec<Vec<JobId>>,
}

impl DecodedMapping {
    /// The per-core job queues, indexed by sub-accelerator.
    pub fn queues(&self) -> &[Vec<JobId>] {
        &self.queues
    }

    /// The queue of one sub-accelerator.
    pub fn queue(&self, accel: usize) -> &[JobId] {
        &self.queues[accel]
    }

    /// Number of sub-accelerators.
    pub fn num_accels(&self) -> usize {
        self.queues.len()
    }

    /// Total number of jobs across all queues.
    pub fn num_jobs(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// Per-core job queues in one flat CSR layout — core `a` executes
/// `jobs[starts[a]..starts[a + 1]]` in order — plus the buffers decoding
/// into it needs. Refilling a warm instance allocates nothing, which is what
/// lets the fitness kernel decode every candidate into per-thread scratch.
#[derive(Debug)]
pub(crate) struct FlatQueues {
    starts: Vec<usize>,
    jobs: Vec<JobId>,
    order: Vec<(f64, usize)>,
    cursor: Vec<usize>,
}

impl FlatQueues {
    /// Empty queues over zero cores.
    pub(crate) const fn new() -> Self {
        FlatQueues { starts: Vec::new(), jobs: Vec::new(), order: Vec::new(), cursor: Vec::new() }
    }

    /// Number of sub-accelerators.
    pub(crate) fn num_accels(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The half-open range of [`FlatQueues::jobs`] holding `accel`'s queue.
    pub(crate) fn span(&self, accel: usize) -> (usize, usize) {
        (self.starts[accel], self.starts[accel + 1])
    }

    /// Every queue back to back, in core order.
    pub(crate) fn jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// Decodes `mapping`'s genomes into the queues [`Mapping::decode`]
    /// builds: an index sort by `(priority, job id)`, then a counting
    /// placement by selected core.
    pub(crate) fn decode(&mut self, mapping: &Mapping) {
        let accels = mapping.num_accels;
        mapping.execution_order_into(&mut self.order);
        self.starts.clear();
        self.starts.resize(accels + 1, 0);
        for &a in &mapping.accel_sel {
            self.starts[a + 1] += 1;
        }
        for a in 0..accels {
            self.starts[a + 1] += self.starts[a];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..accels]);
        self.jobs.clear();
        self.jobs.resize(mapping.num_jobs(), JobId(0));
        for &(_, job) in &self.order {
            let slot = &mut self.cursor[mapping.accel_sel[job]];
            self.jobs[*slot] = JobId(job);
            *slot += 1;
        }
    }

    /// Copies already decoded queues.
    pub(crate) fn copy_from(&mut self, decoded: &DecodedMapping) {
        self.starts.clear();
        self.jobs.clear();
        self.starts.push(0);
        for queue in &decoded.queues {
            self.jobs.extend_from_slice(queue);
            self.starts.push(self.jobs.len());
        }
    }
}

/// Log10 of the size of the full mapping search space for `group_size` jobs
/// on `num_accels` cores: `group_size!` orderings (the paper's Section IV-F
/// derivation: `(n!)/(k!)^m × (k!)^m = n!`).
pub fn search_space_log10(group_size: usize, _num_accels: usize) -> f64 {
    // log10(n!) via the log-gamma-free running sum (exact enough for display).
    (1..=group_size).map(|i| (i as f64).log10()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_example_decodes_correctly() {
        // Fig. 5(a): accel_sel = [1,2,2,1,2], priorities = [0.1,0.8,0.4,0.7,0.3]
        // (1-indexed accels in the paper; 0-indexed here).
        let m = Mapping::new(vec![0, 1, 1, 0, 1], vec![0.1, 0.8, 0.4, 0.7, 0.3], 2);
        let d = m.decode();
        let q0: Vec<usize> = d.queue(0).iter().map(|j| j.0).collect();
        let q1: Vec<usize> = d.queue(1).iter().map(|j| j.0).collect();
        assert_eq!(q0, vec![0, 3]); // J1 then J4
        assert_eq!(q1, vec![4, 2, 1]); // J5, J3, J2
    }

    #[test]
    fn decode_is_deterministic_on_ties() {
        let m = Mapping::new(vec![0, 0, 0], vec![0.5, 0.5, 0.5], 1);
        let q: Vec<usize> = m.decode().queue(0).iter().map(|j| j.0).collect();
        assert_eq!(q, vec![0, 1, 2]);
    }

    #[test]
    fn random_mapping_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mapping::random(&mut rng, 50, 4);
        assert_eq!(m.num_jobs(), 50);
        assert!(m.accel_sel().iter().all(|&a| a < 4));
        assert!(m.priority().iter().all(|&p| (0.0..1.0).contains(&p)));
        assert_eq!(m.decode().num_jobs(), 50);
    }

    #[test]
    fn vector_round_trip_preserves_decoding() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Mapping::random(&mut rng, 30, 5);
        let back = Mapping::from_vector(&m.to_vector(), 5);
        assert_eq!(m.accel_sel(), back.accel_sel());
        assert_eq!(m.decode(), back.decode());
    }

    #[test]
    fn load_per_accel_sums_to_jobs() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mapping::random(&mut rng, 40, 3);
        assert_eq!(m.load_per_accel().iter().sum::<usize>(), 40);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn accel_gene_out_of_range_panics() {
        let _ = Mapping::new(vec![0, 3], vec![0.1, 0.2], 2);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_genomes_panic() {
        let _ = Mapping::new(vec![0, 1], vec![0.1], 2);
    }

    #[test]
    fn deserialization_enforces_the_constructor_invariants() {
        let good = r#"{"accel_sel":[0,1],"priority":[0.5,1.0],"num_accels":2}"#;
        assert_eq!(
            serde_json::from_str::<Mapping>(good).unwrap(),
            Mapping::new(vec![0, 1], vec![0.5, 1.0], 2)
        );
        for (bent, why) in [
            (r#"{"accel_sel":[],"priority":[],"num_accels":2}"#, "at least one job"),
            (r#"{"accel_sel":[0,1],"priority":[0.5],"num_accels":2}"#, "lengths must match"),
            (r#"{"accel_sel":[0],"priority":[0.5],"num_accels":0}"#, "at least one sub-accel"),
            (r#"{"accel_sel":[0,2],"priority":[0.5,0.5],"num_accels":2}"#, "out of range"),
            (r#"{"accel_sel":[0],"priority":[1.5],"num_accels":2}"#, "in [0, 1]"),
            (r#"{"accel_sel":[0],"priority":[-0.1],"num_accels":2}"#, "in [0, 1]"),
        ] {
            let err = serde_json::from_str::<Mapping>(bent).expect_err(bent).to_string();
            assert!(err.contains(why), "{bent}: {err}");
        }
    }

    #[test]
    fn gather_transfers_gene_blocks() {
        let m = Mapping::new(vec![0, 1, 1, 0], vec![0.1, 0.8, 0.4, 0.7], 2);
        let g = m.gather(&[3, 3, 0, 1, 2], 2);
        assert_eq!(g.num_jobs(), 5);
        assert_eq!(g.accel_sel(), &[0, 0, 0, 1, 1]);
        assert_eq!(g.priority(), &[0.7, 0.7, 0.1, 0.8, 0.4]);
    }

    #[test]
    fn gather_remaps_accels_modulo_new_core_count() {
        let m = Mapping::new(vec![0, 3, 2, 1], vec![0.1, 0.2, 0.3, 0.4], 4);
        let g = m.gather(&[0, 1, 2, 3], 2);
        assert_eq!(g.accel_sel(), &[0, 1, 0, 1]);
        assert_eq!(g.num_accels(), 2);
    }

    #[test]
    #[should_panic(expected = "source job index out of range")]
    fn gather_rejects_out_of_range_sources() {
        let m = Mapping::new(vec![0, 1], vec![0.1, 0.2], 2);
        let _ = m.gather(&[0, 2], 2);
    }

    #[test]
    fn search_space_matches_paper_magnitude() {
        // Section IV-F: 4 sub-accelerators, group size 60 => 60! ≈ 1e81.
        let log = search_space_log10(60, 4);
        assert!((log - 81.0).abs() < 1.5, "log10(60!) = {log}");
    }

    proptest! {
        #[test]
        fn from_vector_always_valid(v in proptest::collection::vec(-2.0f64..3.0, 2..60)) {
            let v = if v.len() % 2 == 1 { v[..v.len() - 1].to_vec() } else { v };
            if v.is_empty() { return Ok(()); }
            let m = Mapping::from_vector(&v, 4);
            prop_assert!(m.accel_sel().iter().all(|&a| a < 4));
            prop_assert!(m.priority().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn decode_partitions_all_jobs(n in 1usize..80, m in 1usize..8, seed in 0u64..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let map = Mapping::random(&mut rng, n, m);
            let d = map.decode();
            prop_assert_eq!(d.num_jobs(), n);
            // Every job appears exactly once.
            let mut seen = vec![false; n];
            for q in d.queues() {
                for j in q {
                    prop_assert!(!seen[j.0]);
                    seen[j.0] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }

        #[test]
        fn priorities_order_queues(n in 2usize..40, seed in 0u64..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let map = Mapping::random(&mut rng, n, 1);
            let d = map.decode();
            let q = d.queue(0);
            for w in q.windows(2) {
                prop_assert!(map.priority()[w[0].0] <= map.priority()[w[1].0]);
            }
        }
    }
}
