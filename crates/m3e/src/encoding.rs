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
//!
//! # Decoding sorts inside a core
//!
//! Fig. 5(a) reads as "sort all jobs by priority, then deal them to their
//! cores", and the first decoder did exactly that. But a priority only ever
//! orders jobs that *share* a core: a core's queue is the restriction of the
//! global `(priority, job id)` order to the jobs selected onto it, and the
//! restriction of a total order to a subset is that subset in ascending order
//! — however it got sorted. So the decoder (one implementation,
//! `FlatQueues::decode`; [`Mapping::decode`] splits its flat result per core)
//! counts the jobs of each core, places every job's `(priority, job id)` pair
//! into its core's segment, and sorts each segment on its own:
//! `n + Σ k·log k` over segments of about `n / cores` jobs instead of
//! `n·log n` over all of them. Pairs are distinct (job ids are), so "ascending"
//! names one permutation and ties, `±0.0` and equal priorities come out as the
//! global sort had them; the global sort survives as the `#[cfg(test)]`
//! oracle the decode proptest compares against.

use magma_model::JobId;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize};

/// An encoded mapping: the individual the optimizers evolve.
#[derive(Debug, PartialEq, Serialize)]
pub struct Mapping {
    accel_sel: Vec<usize>,
    priority: Vec<f64>,
    num_accels: usize,
}

impl Clone for Mapping {
    fn clone(&self) -> Self {
        Mapping {
            accel_sel: self.accel_sel.clone(),
            priority: self.priority.clone(),
            num_accels: self.num_accels,
        }
    }

    /// Overwrites this mapping in its own genome buffers (the derived
    /// `clone_from` would allocate two fresh ones): a GA breeds each child
    /// into an individual the last generation discarded.
    fn clone_from(&mut self, source: &Self) {
        self.accel_sel.clone_from(&source.accel_sel);
        self.priority.clone_from(&source.priority);
        self.num_accels = source.num_accels;
    }
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
    pub(crate) fn num_accels(&self) -> usize {
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
    /// This is the fitness kernel's decode (one implementation, see the
    /// module docs) run on fresh buffers, with the flat queues split per core.
    pub fn decode(&self) -> DecodedMapping {
        let mut flat = FlatQueues::new();
        flat.decode(self);
        let queues = (0..self.num_accels)
            .map(|accel| {
                let (start, end) = flat.span(accel);
                flat.jobs[start..end].to_vec()
            })
            .collect();
        DecodedMapping { queues }
    }

    /// Flattens the mapping into the continuous vector [`Mapping::from_vector`]
    /// reads, the selections as their buckets' midpoints.
    #[cfg(test)]
    pub(crate) fn to_vector(&self) -> Vec<f64> {
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

    /// Reconstructs a mapping from a continuous vector in `[0, 1]^(2n)` — the
    /// representation the continuous black-box optimizers (DE, CMA-ES, PSO,
    /// TBPSA) operate on. The first `n` entries select the accelerator, `x`
    /// reading as bucket `⌊x · num_accels⌋`; the last `n` are the priorities.
    /// Values are clamped into range, and NaN — which a diverging continuous
    /// optimizer can emit — reads as 0.
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
    pub(crate) fn gather(&self, source_jobs: &[usize], num_accels: usize) -> Mapping {
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
/// as 0: `f64::clamp` passes NaN through, and a NaN gene is outside the range
/// [`Mapping::new`] accepts.
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
    #[cfg(test)]
    pub(crate) fn queues(&self) -> &[Vec<JobId>] {
        &self.queues
    }

    /// Number of sub-accelerators.
    pub(crate) fn num_accels(&self) -> usize {
        self.queues.len()
    }

    /// Total number of jobs across all queues.
    pub fn num_jobs(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// Per-core job queues in one flat CSR layout — core `a` executes
/// `jobs[starts[a]..starts[a + 1]]` in order — plus the buffer decoding into
/// it needs. Refilling a warm instance allocates nothing, which is what lets
/// the fitness kernel decode every candidate into per-thread scratch.
#[derive(Debug)]
pub(crate) struct FlatQueues {
    starts: Vec<usize>,
    jobs: Vec<JobId>,
    /// `(priority key, job id)` of every job, laid out as `jobs` is.
    order: Vec<(u64, usize)>,
}

/// Segments up to this long are ordered by a stable insertion sort on the
/// priority key alone; longer ones (most of a group on one core) by the
/// standard sort on the whole pair. Both yield the one ascending order.
const INSERTION_SORT_MAX: usize = 32;

/// An integer that orders as the priority does under `partial_cmp`: `+ 0.0`
/// folds `-0.0` into `+0.0` (the two compare equal, so they share a key), and
/// the bit pattern of every other non-NaN `f64` maps monotonically onto
/// `u64`. NaN — which only `priority_mut` can write — lands past ±∞ by its
/// sign, so the order stays total and no sort can panic on it.
fn priority_key(priority: f64) -> u64 {
    let bits = (priority + 0.0).to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Orders one core's `(priority key, job id)` pairs ascending. The caller
/// placed them in job-id order, so a stable sort by key alone breaks ties by
/// job id, as comparing whole pairs does.
fn sort_segment(segment: &mut [(u64, usize)]) {
    if segment.len() > INSERTION_SORT_MAX {
        segment.sort_unstable();
        return;
    }
    for i in 1..segment.len() {
        let pair = segment[i];
        let mut hole = i;
        while hole > 0 && segment[hole - 1].0 > pair.0 {
            segment[hole] = segment[hole - 1];
            hole -= 1;
        }
        segment[hole] = pair;
    }
}

impl FlatQueues {
    /// Empty queues over zero cores.
    pub(crate) const fn new() -> Self {
        FlatQueues { starts: Vec::new(), jobs: Vec::new(), order: Vec::new() }
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

    /// Decodes `mapping`'s genomes (Fig. 5a): a counting placement of every
    /// job's `(priority key, job id)` pair into its core's segment, in job-id
    /// order, then an ascending sort inside each segment (see the module
    /// docs for why no order across cores is needed).
    pub(crate) fn decode(&mut self, mapping: &Mapping) {
        let accels = mapping.num_accels;
        // Count core `a` into `starts[a + 2]`: after the running sum
        // `starts[a + 1]` is where core `a`'s segment begins, and once the
        // placement below has advanced it past the core's last job it is
        // where core `a + 1` begins — the CSR offsets, with no cursor copy.
        self.starts.clear();
        self.starts.resize(accels + 2, 0);
        for &accel in &mapping.accel_sel {
            self.starts[accel + 2] += 1;
        }
        for accel in 2..accels + 2 {
            self.starts[accel] += self.starts[accel - 1];
        }
        self.order.clear();
        self.order.resize(mapping.num_jobs(), (0, 0));
        for (job, (&accel, &priority)) in
            mapping.accel_sel.iter().zip(&mapping.priority).enumerate()
        {
            let slot = &mut self.starts[accel + 1];
            self.order[*slot] = (priority_key(priority), job);
            *slot += 1;
        }
        self.starts.pop();
        for accel in 0..accels {
            sort_segment(&mut self.order[self.starts[accel]..self.starts[accel + 1]]);
        }
        self.jobs.clear();
        self.jobs.extend(self.order.iter().map(|&(_, job)| JobId(job)));
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

/// The decode as it was first written — one global sort of every
/// `(priority, job id)` pair, then a walk that appends each job to its core's
/// queue — kept as the executable spec the tests hold [`FlatQueues::decode`]
/// to.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn decode_by_global_sort(mapping: &Mapping) -> DecodedMapping {
        let mut order: Vec<(f64, usize)> = mapping.priority.iter().copied().zip(0..).collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut queues: Vec<Vec<JobId>> = vec![Vec::new(); mapping.num_accels];
        for (_, job) in order {
            queues[mapping.accel_sel[job]].push(JobId(job));
        }
        DecodedMapping { queues }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A mapping of one of four shapes: uniformly random; priorities drawn
    /// from five levels including both zeros and 1.0 (ties everywhere); one
    /// priority for every job; or all jobs on at most two cores (the rest
    /// stay empty, and a segment outgrows the insertion sort).
    pub(crate) fn shaped_mapping(
        rng: &mut StdRng,
        shape: usize,
        jobs: usize,
        accels: usize,
    ) -> Mapping {
        let random = Mapping::random(rng, jobs, accels);
        let levels = [0.0, -0.0, 0.25, 0.5, 1.0];
        match shape {
            0 => random,
            1 => {
                let priority = (0..jobs).map(|_| levels[rng.gen_range(0..levels.len())]).collect();
                Mapping::new(random.accel_sel().to_vec(), priority, accels)
            }
            2 => Mapping::new(random.accel_sel().to_vec(), vec![0.5; jobs], accels),
            _ => {
                let pair = [rng.gen_range(0..accels), rng.gen_range(0..accels)];
                let accel_sel = (0..jobs).map(|_| pair[rng.gen_range(0..2)]).collect();
                Mapping::new(accel_sel, random.priority().to_vec(), accels)
            }
        }
    }

    #[test]
    fn paper_example_decodes_correctly() {
        // Fig. 5(a): accel_sel = [1,2,2,1,2], priorities = [0.1,0.8,0.4,0.7,0.3]
        // (1-indexed accels in the paper; 0-indexed here).
        let m = Mapping::new(vec![0, 1, 1, 0, 1], vec![0.1, 0.8, 0.4, 0.7, 0.3], 2);
        let d = m.decode();
        let q0: Vec<usize> = d.queues()[0].iter().map(|j| j.0).collect();
        let q1: Vec<usize> = d.queues()[1].iter().map(|j| j.0).collect();
        assert_eq!(q0, vec![0, 3]); // J1 then J4
        assert_eq!(q1, vec![4, 2, 1]); // J5, J3, J2
    }

    #[test]
    fn decode_is_deterministic_on_ties() {
        let m = Mapping::new(vec![0, 0, 0], vec![0.5, 0.5, 0.5], 1);
        let q: Vec<usize> = m.decode().queues()[0].iter().map(|j| j.0).collect();
        assert_eq!(q, vec![0, 1, 2]);
    }

    #[test]
    fn signed_zeros_tie_and_break_by_job_id() {
        let m = Mapping::new(vec![0; 4], vec![0.0, -0.0, 0.0, -0.0], 1);
        assert_eq!(m.decode(), oracle::decode_by_global_sort(&m));
        let q: Vec<usize> = m.decode().queues()[0].iter().map(|j| j.0).collect();
        assert_eq!(q, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nan_priorities_decode_to_a_permutation() {
        // `Mapping::new` refuses NaN, `priority_mut` cannot: the decode must
        // still hand every job to its core exactly once, at a segment length
        // on either side of the insertion-sort bound, without panicking.
        for (jobs, accels) in [(100, 4), (300, 2)] {
            let mut rng = StdRng::seed_from_u64(jobs as u64);
            let mut m = Mapping::random(&mut rng, jobs, accels);
            for (i, p) in m.priority_mut().iter_mut().enumerate() {
                match i % 5 {
                    0 => *p = f64::NAN,
                    3 => *p = -f64::NAN,
                    _ => {}
                }
            }
            let d = m.decode();
            for accel in 0..accels {
                let mut queue: Vec<usize> = d.queues()[accel].iter().map(|j| j.0).collect();
                queue.sort_unstable();
                let assigned: Vec<usize> =
                    (0..jobs).filter(|&j| m.accel_sel()[j] == accel).collect();
                assert_eq!(queue, assigned);
            }
        }
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

        // The per-core ordering against the global sort it replaced: the
        // same queues, job for job.
        #[test]
        fn decode_matches_the_global_sort_oracle(
            jobs in 1usize..301,
            accels in 1usize..129,
            shape in 0usize..4,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mapping = shaped_mapping(&mut rng, shape, jobs, accels);
            prop_assert_eq!(mapping.decode(), oracle::decode_by_global_sort(&mapping));
            let mut flat = FlatQueues::new();
            // A warm instance that last held another shape.
            flat.decode(&Mapping::random(&mut rng, 7, 3));
            flat.decode(&mapping);
            let mut copied = FlatQueues::new();
            copied.copy_from(&mapping.decode());
            prop_assert_eq!(flat.jobs(), copied.jobs());
            prop_assert_eq!(&flat.starts, &copied.starts);
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
            let q = &d.queues()[0];
            for w in q.windows(2) {
                prop_assert!(map.priority()[w[0].0] <= map.priority()[w[1].0]);
            }
        }
    }
}
