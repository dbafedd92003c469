//! Per-job layer signatures and the distance metric behind profile-matched
//! warm-start transfer (Section V-C, Table V).
//!
//! Warm start works because new jobs of a task category have *statistically
//! similar* profiles to previously solved jobs — but "similar" must be
//! decided per job, not per position: two groups of the same task generated
//! from different request interleavings put different layers at the same
//! index. A [`JobSignature`] condenses one job into a small,
//! platform-independent profile — layer class, mini-batch, compute (MACs) and
//! data-movement (weight/activation elements) footprint — and
//! [`JobSignature::distance`] compares two such profiles in log scale, so the
//! warm-start engine can assign each new job the genes of the most similar
//! stored job instead of the job at the same wrapped index.
//!
//! A signature **carries its log coordinates**: `ln(1 + x)` of its three
//! magnitudes is computed once, where the signature is built
//! (`JobSignature::of` and deserialization), so a distance is three
//! subtractions on those same `f64`s instead of six logarithms — bit for bit
//! the value the written-out formula gives. The coordinates are derived
//! data: they are never serialized (the persisted form keeps its seven
//! fields) and there is no way to set them apart from the magnitudes.
//! [`DistanceCoords`] is a signature cut down to what a distance reads, for
//! whoever compares one set of signatures with many others.

use crate::{Group, Job, LayerShape, TaskType};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The coarse structural class of a layer, the strongest similarity signal:
/// a convolution should inherit genes from a convolution, never from an
/// embedding-dominated FC, whatever their MAC counts are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LayerClass {
    /// Standard 2-D convolution (spatial + cross-channel reduction).
    Conv,
    /// Depth-wise convolution (spatial only; memory-intensive).
    DepthwiseConv,
    /// Fully-connected / GEMV layer (weight-heavy, no spatial reuse).
    FullyConnected,
    /// Activation-by-activation matrix multiply (attention scores/values).
    Gemm,
    /// Embedding-table lookup (host-side; never appears in accelerator jobs).
    Embedding,
}

impl LayerClass {
    /// Number of layer classes. The match is exhaustive, so that whoever adds
    /// one is sent here.
    const COUNT: usize = match LayerClass::Conv {
        LayerClass::Conv
        | LayerClass::DepthwiseConv
        | LayerClass::FullyConnected
        | LayerClass::Gemm
        | LayerClass::Embedding => 5,
    };
}

impl From<&LayerShape> for LayerClass {
    fn from(layer: &LayerShape) -> Self {
        match layer {
            LayerShape::Conv2d { .. } => LayerClass::Conv,
            LayerShape::DepthwiseConv2d { .. } => LayerClass::DepthwiseConv,
            LayerShape::FullyConnected { .. } => LayerClass::FullyConnected,
            LayerShape::Gemm { .. } => LayerClass::Gemm,
            LayerShape::EmbeddingLookup { .. } => LayerClass::Embedding,
        }
    }
}

impl fmt::Display for LayerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A compact, platform-independent profile of one job: what kind of layer it
/// is, how much it computes and how much data it moves.
///
/// Signatures are the transfer key of the warm-start engine (Table V): a
/// stored solution is adapted to a new group by giving each new job the gene
/// block of the stored job with the nearest signature. All quantities are
/// per *job* (mini-batch included), so the same layer at different batch
/// sizes is close but not identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSignature {
    task: TaskType,
    class: LayerClass,
    batch: usize,
    macs: u64,
    weight_elems: u64,
    activation_elems: u64,
    core_class: u32,
    /// `ln(1 + x)` of `macs`, `weight_elems` and `activation_elems`: a pure
    /// function of those fields, filled by [`JobSignature::new`] only.
    log_coords: [f64; 3],
    /// The sum of `log_coords`, in that order ([`DistanceCoords::size`]).
    log_size: f64,
}

// Hand-written so the carried log coordinates stay out of the persisted
// form: exactly the seven fields (and the order) the derive used to emit.
impl serde::Serialize for JobSignature {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("task".to_string(), self.task.to_value()),
            ("class".to_string(), self.class.to_value()),
            ("batch".to_string(), self.batch.to_value()),
            ("macs".to_string(), self.macs.to_value()),
            ("weight_elems".to_string(), self.weight_elems.to_value()),
            ("activation_elems".to_string(), self.activation_elems.to_value()),
            ("core_class".to_string(), self.core_class.to_value()),
        ])
    }
}

// Hand-written so signatures persisted before `core_class` existed (e.g. in
// a serialized warm-start engine) still load: a missing field means
// "no platform profile attached" (0). The vendored serde derive cannot
// express per-field defaults.
impl serde::Deserialize for JobSignature {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_map().is_none() {
            return Err(serde::DeError::mismatch("object", v));
        }
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            serde::Deserialize::from_value(v.get(name))
                .map_err(|e| serde::DeError::custom(format!("field {name}: {e}")))
        }
        let core_class = match v.get("core_class") {
            serde::Value::Null => 0,
            other => serde::Deserialize::from_value(other)
                .map_err(|e| serde::DeError::custom(format!("field core_class: {e}")))?,
        };
        Ok(JobSignature::new(
            field(v, "task")?,
            field(v, "class")?,
            field(v, "batch")?,
            field(v, "macs")?,
            field(v, "weight_elems")?,
            field(v, "activation_elems")?,
        )
        .with_core_class(core_class))
    }
}

impl JobSignature {
    /// Weight of a layer-class mismatch in the distance metric. Chosen to
    /// dominate any realistic magnitude difference: ~16 nats corresponds to
    /// a ~9-million-fold MAC difference, so a conv prefers even a very
    /// differently sized conv over any FC.
    pub const CLASS_MISMATCH_PENALTY: f64 = 16.0;

    /// Weight of a task-category mismatch in the distance metric (relevant
    /// only inside Mix groups, where one group holds several categories).
    pub const TASK_MISMATCH_PENALTY: f64 = 4.0;

    /// Penalty when two profiled jobs prefer *different* cores (their
    /// fastest-core indices disagree). Applied only when both signatures
    /// carry a core class (see [`JobSignature::with_core_class`]); chosen
    /// well below [`Self::CLASS_MISMATCH_PENALTY`] so platform affinity
    /// refines shape matching but never overrides the layer class.
    pub(crate) const AFFINITY_MISMATCH_PENALTY: f64 = 2.0;

    /// Weight per octave of best-core no-stall latency difference between two
    /// profiled jobs (again only when both carry a core class).
    pub(crate) const LATENCY_CLASS_WEIGHT: f64 = 0.25;

    /// The least distance between two signatures of different layer class or
    /// task: the smaller of the two categorical penalties. A nearest-signature
    /// search may stop at a same-class, same-task candidate under this floor
    /// — nothing mismatched can beat it.
    pub const KIND_MISMATCH_FLOOR: f64 =
        Self::CLASS_MISMATCH_PENALTY.min(Self::TASK_MISMATCH_PENALTY);

    /// Presence flag of the packed core class (bit 31). A `core_class` of 0
    /// means "no platform profile attached".
    const CORE_CLASS_PRESENT: u32 = 0x8000_0000;

    /// The one place a signature is put together, so the carried log
    /// coordinates always belong to the magnitudes beside them.
    fn new(
        task: TaskType,
        class: LayerClass,
        batch: usize,
        macs: u64,
        weight_elems: u64,
        activation_elems: u64,
    ) -> Self {
        let log = |x: u64| (1.0 + x as f64).ln();
        let log_coords = [log(macs), log(weight_elems), log(activation_elems)];
        JobSignature {
            task,
            class,
            batch,
            macs,
            weight_elems,
            activation_elems,
            core_class: 0,
            log_coords,
            log_size: log_coords[0] + log_coords[1] + log_coords[2],
        }
    }

    /// Computes the signature of a job.
    pub(crate) fn of(job: &Job) -> Self {
        JobSignature::new(
            job.task(),
            LayerClass::from(job.layer()),
            job.batch(),
            job.macs(),
            job.weight_elems(),
            job.activation_elems(),
        )
    }

    /// Packs a platform profile — the per-core no-stall latencies of the job
    /// from the job-analysis table — into a core class: the index of the
    /// fastest core (the job's *affinity*, low byte) and the octave-quantized
    /// best-core latency (bits 8..24, in octaves above 1 ns). The result is
    /// never 0, so an attached profile is always distinguishable from an
    /// unprofiled signature.
    ///
    /// What the class adds (`M3e` attaches it to every signature): the
    /// shape-only signature cannot see that two similarly sized jobs prefer
    /// different cores of a heterogeneous platform; the packed class lets
    /// [`JobSignature::distance`] tell them apart (see ROADMAP's "shape-only
    /// metric" residual).
    ///
    /// # Panics
    ///
    /// Panics if `no_stall_seconds` is empty.
    pub fn encode_core_class(no_stall_seconds: &[f64]) -> u32 {
        assert!(!no_stall_seconds.is_empty(), "a platform has at least one core");
        let mut fastest = 0usize;
        for (i, &lat) in no_stall_seconds.iter().enumerate() {
            if lat < no_stall_seconds[fastest] {
                fastest = i;
            }
        }
        let best = no_stall_seconds[fastest];
        let octaves = if best.is_finite() && best > 0.0 {
            (best / 1e-9).max(1.0).ln() / std::f64::consts::LN_2
        } else {
            0.0
        };
        let latency_class = (octaves.round() as i64).clamp(0, 0xFFFF) as u32;
        Self::CORE_CLASS_PRESENT | (latency_class << 8) | (fastest.min(0xFF) as u32)
    }

    /// Returns a copy with the given packed core class attached (0 detaches).
    pub fn with_core_class(mut self, core_class: u32) -> Self {
        self.core_class = core_class;
        self
    }

    /// Whether a platform profile is attached to this signature.
    pub fn has_core_class(&self) -> bool {
        self.core_class & Self::CORE_CLASS_PRESENT != 0
    }

    /// The preferred (fastest) core index of an attached profile.
    #[cfg(test)]
    fn affinity(&self) -> u32 {
        self.coords().affinity()
    }

    /// The octave-quantized best-core latency of an attached profile.
    #[cfg(test)]
    fn latency_class(&self) -> u32 {
        self.coords().latency_class()
    }

    /// The task category of the profiled job.
    pub fn task(&self) -> TaskType {
        self.task
    }

    /// The structural layer class of the profiled job.
    pub fn class(&self) -> LayerClass {
        self.class
    }

    /// The mini-batch size of the profiled job.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Weight elements fetched by the job (bandwidth footprint, reused across
    /// the mini-batch).
    pub fn weight_elems(&self) -> u64 {
        self.weight_elems
    }

    /// The carried log coordinates: `ln(1 + x)` of the MACs,
    /// [`Self::weight_elems`] and the activation elements, in that order
    /// — the axes [`Self::distance`] measures magnitudes along, and what a
    /// log-scale quantizer buckets.
    pub fn log_coords(&self) -> [f64; 3] {
        self.log_coords
    }

    /// Distance between two job profiles; `0.0` iff the profiles are
    /// identical, symmetric, and always finite.
    ///
    /// Magnitudes are compared in log scale (L1 over `ln(1 + x)` of MACs,
    /// weight elements and activation elements — the carried
    /// [`Self::log_coords`], so no logarithm is taken here), so "twice the
    /// MACs" costs the same everywhere on the size spectrum. Every term is
    /// non-negative, so a pair that differs in class or task is never nearer
    /// than [`Self::KIND_MISMATCH_FLOOR`]. Categorical mismatches add
    /// [`Self::CLASS_MISMATCH_PENALTY`] / [`Self::TASK_MISMATCH_PENALTY`] on
    /// top, which keeps matching within a layer class (and, in Mix groups,
    /// within a task) whenever a same-class candidate exists.
    ///
    /// When **both** signatures carry a platform profile (a packed core
    /// class, which every `M3e` signature carries), the distance additionally
    /// sees the platform: `AFFINITY_MISMATCH_PENALTY` when the jobs prefer
    /// different cores, plus `LATENCY_CLASS_WEIGHT` per octave of best-core
    /// latency difference. Unprofiled signatures (a job's own `signature()`)
    /// are compared by shape alone.
    ///
    /// The arithmetic lives in [`DistanceCoords::distance`], so a caller that
    /// keeps signatures as packed [`Self::coords`] computes these very bits.
    pub fn distance(&self, other: &JobSignature) -> f64 {
        self.coords().distance(&other.coords())
    }

    /// Everything [`Self::distance`] reads of this signature.
    pub fn coords(&self) -> DistanceCoords {
        DistanceCoords {
            log: self.log_coords,
            size: self.log_size,
            core_class: self.core_class,
            class: self.class,
            task: self.task,
        }
    }
}

/// One signature as [`JobSignature::distance`] reads it: the three log
/// coordinates with their sum beside them, the packed core class (affinity
/// and latency class), layer class and task — 40 bytes. A store of signatures
/// that are compared often keeps these packed side by side instead of the
/// signatures themselves; like the log coordinates they are derived, never
/// persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceCoords {
    log: [f64; 3],
    size: f64,
    core_class: u32,
    class: LayerClass,
    task: TaskType,
}

impl DistanceCoords {
    /// How far [`Self::size_gap`] is lowered so that rounding can never lift
    /// it above the distance: ten thousand times the ≈ 10⁻¹³ the roundings on
    /// both sides can add up to (see there).
    const SIZE_GAP_SLACK: f64 = 1e-9;

    /// [`JobSignature::distance`] between the signatures `self` and `other`
    /// were taken from.
    #[inline]
    pub fn distance(&self, other: &DistanceCoords) -> f64 {
        let [m, w, a] = self.log;
        let [om, ow, oa] = other.log;
        let mut d = (m - om).abs() + (w - ow).abs() + (a - oa).abs();
        if self.class != other.class {
            d += JobSignature::CLASS_MISMATCH_PENALTY;
        }
        if self.task != other.task {
            d += JobSignature::TASK_MISMATCH_PENALTY;
        }
        if self.core_class & other.core_class & JobSignature::CORE_CLASS_PRESENT != 0 {
            if self.affinity() != other.affinity() {
                d += JobSignature::AFFINITY_MISMATCH_PENALTY;
            }
            d += JobSignature::LATENCY_CLASS_WEIGHT
                * (self.latency_class() as f64 - other.latency_class() as f64).abs();
        }
        d
    }

    /// A lower bound of [`Self::distance`] from the sizes — the sums of the
    /// three log coordinates — alone: `|size − other size|`, less a slack. In
    /// exact arithmetic the gap between two sums is at most the sum of the
    /// gaps, `|Σx − Σy| ≤ Σ|x − y|`, and the distance adds only non-negative
    /// terms to the latter. In `f64` every coordinate is at most
    /// `ln(1 + 2⁶⁴)` < 45, so the five additions and subtractions behind the
    /// left side and the five behind the right each round by less than
    /// 2·10⁻¹⁴: the computed gap exceeds the computed distance by less than
    /// 2·10⁻¹³, and the slack covers that several thousand times over.
    #[inline]
    pub fn size_gap(&self, other: &DistanceCoords) -> f64 {
        (self.size - other.size).abs() - Self::SIZE_GAP_SLACK
    }

    /// [`Self::size_gap`] to whatever lies between `low` and `high` in size:
    /// how far `self`'s size is outside their range, less the slack
    /// (negative inside it). A size in the range is no nearer than the end
    /// `self` is beyond, and a float subtraction never reorders its results.
    #[inline]
    pub fn size_gap_to_range(&self, low: &DistanceCoords, high: &DistanceCoords) -> f64 {
        (low.size - self.size).max(self.size - high.size) - Self::SIZE_GAP_SLACK
    }

    /// Number of distinct [`Self::kind`]s.
    pub const KINDS: usize = LayerClass::COUNT * TaskType::ALL.len();

    /// The signature's `(class, task)` pair as a dense index below
    /// [`Self::KINDS`]: a store that keeps a kind's coordinates side by side
    /// finds them by it.
    pub fn kind(&self) -> usize {
        self.class as usize * TaskType::ALL.len() + self.task as usize
    }

    /// The kinds of `kind`'s layer class: one per task, side by side.
    pub fn kinds_of_class(kind: usize) -> std::ops::Range<usize> {
        let tasks = TaskType::ALL.len();
        kind / tasks * tasks..kind / tasks * tasks + tasks
    }

    /// The sum of the three log coordinates: the job's overall size in nats,
    /// and the order to keep coordinates in for a nearest-first walk —
    /// [`Self::size_gap`] only grows from the nearest size outwards.
    pub fn size(&self) -> f64 {
        self.size
    }

    /// The preferred (fastest) core index of an attached profile.
    fn affinity(&self) -> u32 {
        self.core_class & 0xFF
    }

    /// The octave-quantized best-core latency of an attached profile.
    fn latency_class(&self) -> u32 {
        (self.core_class >> 8) & 0xFFFF
    }
}

impl Job {
    /// The job's [`JobSignature`] (shorthand for `JobSignature::of`).
    pub fn signature(&self) -> JobSignature {
        JobSignature::of(self)
    }
}

impl Group {
    /// Signatures of every job in the group, in job-id order — the profile
    /// the warm-start engine stores next to a solved mapping and matches new
    /// groups against.
    pub fn signatures(&self) -> Vec<JobSignature> {
        self.iter().map(JobSignature::of).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobId, WorkloadSpec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The distance as it was computed before signatures carried their log
    /// coordinates: six logarithms a pair, straight from the magnitudes.
    fn written_out_distance(a: &JobSignature, b: &JobSignature) -> f64 {
        let log_gap = |a: u64, b: u64| ((1.0 + a as f64).ln() - (1.0 + b as f64).ln()).abs();
        let mut d = log_gap(a.macs, b.macs)
            + log_gap(a.weight_elems, b.weight_elems)
            + log_gap(a.activation_elems, b.activation_elems);
        if a.class != b.class {
            d += JobSignature::CLASS_MISMATCH_PENALTY;
        }
        if a.task != b.task {
            d += JobSignature::TASK_MISMATCH_PENALTY;
        }
        if a.has_core_class() && b.has_core_class() {
            if a.affinity() != b.affinity() {
                d += JobSignature::AFFINITY_MISMATCH_PENALTY;
            }
            d += JobSignature::LATENCY_CLASS_WEIGHT
                * (a.latency_class() as f64 - b.latency_class() as f64).abs();
        }
        d
    }

    /// A signature of a random accelerator layer, profiled half of the time.
    fn random_signature(rng: &mut StdRng) -> JobSignature {
        let dim = |rng: &mut StdRng| 1usize << rng.gen_range(0..11);
        let layer = match rng.gen_range(0..4) {
            0 => LayerShape::Conv2d {
                k: dim(rng),
                c: dim(rng),
                y: rng.gen_range(1..225),
                x: rng.gen_range(1..225),
                r: rng.gen_range(1..8),
                s: rng.gen_range(1..8),
                stride: rng.gen_range(1..3),
            },
            1 => LayerShape::DepthwiseConv2d {
                c: dim(rng),
                y: rng.gen_range(1..113),
                x: rng.gen_range(1..113),
                r: 3,
                s: 3,
                stride: rng.gen_range(1..3),
            },
            2 => LayerShape::FullyConnected { out_features: dim(rng), in_features: dim(rng) },
            _ => LayerShape::Gemm { m: dim(rng), n: dim(rng), kdim: dim(rng) },
        };
        let task = TaskType::ALL[rng.gen_range(0..TaskType::ALL.len())];
        let job = Job::new(JobId(0), "m", 0, layer, rng.gen_range(1..9), task);
        let sig = job.signature();
        if rng.gen_range(0..2) == 0 {
            return sig;
        }
        let latencies: Vec<f64> = (0..4).map(|_| rng.gen_range(1e-7..1e-1)).collect();
        sig.with_core_class(JobSignature::encode_core_class(&latencies))
    }

    proptest! {
        #[test]
        fn distance_is_bit_identical_to_the_written_out_formula(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (random_signature(&mut rng), random_signature(&mut rng));
            let expected = written_out_distance(&a, &b).to_bits();
            prop_assert_eq!(a.distance(&b).to_bits(), expected);
            prop_assert_eq!(b.distance(&a).to_bits(), expected);
            prop_assert!(
                (a.class == b.class && a.task == b.task)
                    || a.distance(&b) >= JobSignature::KIND_MISMATCH_FLOOR
            );

            // The coordinates survive everything that hands a signature on:
            // a serde round trip (which never stores them) ...
            let json = serde_json::to_string(&a).unwrap();
            let back: JobSignature = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, a);
            prop_assert_eq!(back.distance(&b).to_bits(), expected);
            // ... and attaching or detaching a platform profile.
            let cc = JobSignature::encode_core_class(&[rng.gen_range(1e-6..1e-2), 1e-3]);
            let (ap, bp) = (a.with_core_class(cc), b.with_core_class(0));
            prop_assert_eq!(ap.distance(&bp).to_bits(), written_out_distance(&ap, &bp).to_bits());
            prop_assert_eq!(ap.log_coords(), a.log_coords());
        }

        // What a store of packed coordinates prunes by: the kind index tells
        // class and task apart, and the size bounds never exceed the
        // distance — least of all between two signatures that differ in one
        // magnitude only, whose distance *is* their size gap up to rounding.
        #[test]
        fn the_size_bounds_never_exceed_the_distance(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (random_signature(&mut rng), random_signature(&mut rng));
            let (ca, cb) = (a.coords(), b.coords());
            prop_assert!(ca.kind() < DistanceCoords::KINDS);
            prop_assert_eq!(ca.kind() == cb.kind(), a.class == b.class && a.task == b.task);
            let class = DistanceCoords::kinds_of_class(ca.kind());
            prop_assert_eq!(class.contains(&cb.kind()), a.class == b.class);
            prop_assert_eq!(ca.distance(&cb).to_bits(), a.distance(&b).to_bits());
            prop_assert!(ca.size_gap(&cb) <= a.distance(&b));

            // `b` with `a`'s weights and activations, profile, class and task.
            let near = JobSignature::new(
                a.task, a.class, a.batch, b.macs, a.weight_elems, a.activation_elems,
            )
            .with_core_class(a.core_class);
            let gap = ca.size_gap(&near.coords());
            prop_assert!(gap <= a.distance(&near), "{gap} > {}", a.distance(&near));
            prop_assert!(a.distance(&near) - gap < 1e-8, "the slack is all the bound gives away");

            // A size between two others is no nearer than the end beyond
            // which the probe lies.
            let c = random_signature(&mut rng).coords();
            let (low, high) = if ca.size() <= cb.size() { (ca, cb) } else { (cb, ca) };
            let outside = c.size_gap_to_range(&low, &high);
            prop_assert!(outside <= c.size_gap(&low) && outside <= c.size_gap(&high));
            prop_assert!(outside <= 0.0 || c.size() < low.size() || c.size() > high.size());
        }
    }

    #[test]
    fn extreme_magnitudes_keep_the_written_out_distance() {
        // Deserialization is the other way a signature comes to be; it takes
        // any u64, including the ends no layer shape reaches.
        let sig = |macs: u64, weights: u64, acts: u64| -> JobSignature {
            serde_json::from_str(&format!(
                "{{\"task\":\"Vision\",\"class\":\"Conv\",\"batch\":1,\"macs\":{macs},\
                 \"weight_elems\":{weights},\"activation_elems\":{acts}}}"
            ))
            .unwrap()
        };
        let ends = [sig(0, 0, 0), sig(u64::MAX, 1, 0), sig(1, u64::MAX, u64::MAX), sig(7, 9, 11)];
        for a in &ends {
            for b in &ends {
                assert_eq!(a.distance(b).to_bits(), written_out_distance(a, b).to_bits());
                assert!(a.coords().size_gap(&b.coords()) <= a.distance(b));
            }
        }
    }

    #[test]
    fn the_serialized_form_has_exactly_the_seven_persisted_fields() {
        let sig = conv_job(0, 64, 4)
            .signature()
            .with_core_class(JobSignature::encode_core_class(&[1e-3, 2e-3]));
        let serde::Value::Map(fields) = serde::Serialize::to_value(&sig) else {
            panic!("a signature serializes as an object");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["task", "class", "batch", "macs", "weight_elems", "activation_elems", "core_class"]
        );
    }

    fn conv_job(id: usize, k: usize, batch: usize) -> Job {
        Job::new(
            JobId(id),
            "m",
            0,
            LayerShape::Conv2d { k, c: 64, y: 28, x: 28, r: 3, s: 3, stride: 1 },
            batch,
            TaskType::Vision,
        )
    }

    fn fc_job(id: usize, out: usize) -> Job {
        Job::new(
            JobId(id),
            "m",
            1,
            LayerShape::FullyConnected { out_features: out, in_features: 1024 },
            4,
            TaskType::Language,
        )
    }

    #[test]
    fn identical_jobs_have_zero_distance() {
        let a = conv_job(0, 128, 4).signature();
        let b = conv_job(1, 128, 4).signature();
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_finite() {
        let a = conv_job(0, 128, 4).signature();
        let b = fc_job(1, 1000).signature();
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b).is_finite());
        assert!(a.distance(&b) > 0.0);
    }

    #[test]
    fn class_mismatch_dominates_size_mismatch() {
        let small_conv = conv_job(0, 8, 4).signature();
        let big_conv = conv_job(1, 512, 4).signature();
        let fc = fc_job(2, 512).signature();
        // A conv is closer to a conv 64x its size than to any FC.
        assert!(small_conv.distance(&big_conv) < small_conv.distance(&fc));
    }

    #[test]
    fn batch_scales_compute_but_not_weights() {
        let b4 = conv_job(0, 64, 4).signature();
        let b8 = conv_job(1, 64, 8).signature();
        assert_eq!(b4.weight_elems(), b8.weight_elems());
        assert_eq!(b8.macs, 2 * b4.macs);
        assert!(b4.distance(&b8) > 0.0);
    }

    #[test]
    fn group_signatures_cover_all_jobs_in_order() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 20, 3);
        let sigs = group.signatures();
        assert_eq!(sigs.len(), 20);
        for (job, sig) in group.iter().zip(&sigs) {
            assert_eq!(job.signature(), *sig);
            assert_eq!(sig.class(), LayerClass::from(job.layer()));
        }
    }

    #[test]
    fn core_class_round_trips_through_packing() {
        let cc = JobSignature::encode_core_class(&[3e-3, 1e-3, 2e-3, 4e-3]);
        let sig = conv_job(0, 64, 4).signature().with_core_class(cc);
        assert!(sig.has_core_class());
        assert_eq!(sig.core_class, cc);
        assert_eq!(sig.affinity(), 1, "core 1 has the lowest latency");
        // 1 ms above the 1 ns reference is ~20 octaves.
        assert_eq!(sig.latency_class(), 20);
        // Detaching restores the unprofiled signature.
        let plain = sig.with_core_class(0);
        assert!(!plain.has_core_class());
        assert_eq!(plain, conv_job(0, 64, 4).signature());
    }

    #[test]
    fn unprofiled_signatures_ignore_the_profile_term() {
        // A/B: the same pair of jobs, with and without attached profiles.
        let a = conv_job(0, 64, 4).signature();
        let b = conv_job(1, 64, 4).signature();
        assert_eq!(a.distance(&b), 0.0);
        // Attaching a profile to only one side must change nothing (the
        // term needs both sides to be profiled).
        let a_profiled = a.with_core_class(JobSignature::encode_core_class(&[1e-3, 2e-3]));
        assert_eq!(a_profiled.distance(&b), 0.0);
    }

    #[test]
    fn profile_term_separates_shape_identical_jobs_with_different_affinity() {
        // Two stored jobs with identical shapes but different core
        // affinities, and a new job that prefers core 1. Shape-only distance
        // ties; the profiled distance must prefer the same-affinity twin.
        let shape = conv_job(0, 64, 4).signature();
        let stored_core0 = shape.with_core_class(JobSignature::encode_core_class(&[1e-3, 2e-3]));
        let stored_core1 = shape.with_core_class(JobSignature::encode_core_class(&[2e-3, 1e-3]));
        let fresh = shape.with_core_class(JobSignature::encode_core_class(&[2e-3, 1e-3]));

        // A/B: without profiles the two stored candidates are indistinguishable.
        assert_eq!(
            fresh.with_core_class(0).distance(&stored_core0.with_core_class(0)),
            fresh.with_core_class(0).distance(&stored_core1.with_core_class(0)),
        );
        // With profiles the same-affinity candidate wins by the penalty gap.
        assert!(fresh.distance(&stored_core1) < fresh.distance(&stored_core0));
        assert_eq!(
            fresh.distance(&stored_core0) - fresh.distance(&stored_core1),
            JobSignature::AFFINITY_MISMATCH_PENALTY
        );
    }

    #[test]
    fn profile_term_stays_below_class_mismatch() {
        // Affinity refines matching but must never override the layer class:
        // a conv with the "wrong" affinity still beats any FC.
        let conv = conv_job(0, 64, 4).signature();
        let other_conv = conv.with_core_class(JobSignature::encode_core_class(&[2e-3, 1e-3]));
        let fc = fc_job(1, 512)
            .signature()
            .with_core_class(JobSignature::encode_core_class(&[1e-3, 2e-3]));
        let fresh = conv.with_core_class(JobSignature::encode_core_class(&[1e-3, 2e-3]));
        assert!(fresh.distance(&other_conv) < fresh.distance(&fc));
    }

    #[test]
    fn signature_serde_round_trips() {
        let sig = conv_job(0, 64, 4)
            .signature()
            .with_core_class(JobSignature::encode_core_class(&[1e-3, 2e-3]));
        let json = serde_json::to_string(&sig).unwrap();
        let back: JobSignature = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn deserializes_pre_core_class_json() {
        // Signatures persisted before the core_class field existed (PR 2's
        // warm-start format) must still load, as unprofiled.
        let sig = conv_job(0, 64, 4).signature();
        let json = serde_json::to_string(&sig).unwrap();
        let old = json.replace(",\"core_class\":0", "").replace("\"core_class\":0,", "");
        assert!(!old.contains("core_class"), "surgery failed: {old}");
        let back: JobSignature = serde_json::from_str(&old).unwrap();
        assert_eq!(back, sig);
        assert!(!back.has_core_class());
    }

    #[test]
    fn layer_class_maps_every_shape() {
        assert_eq!(LayerClass::from(&LayerShape::pointwise(1, 1, 1, 1)), LayerClass::Conv);
        assert_eq!(
            LayerClass::from(&LayerShape::EmbeddingLookup { lookups: 1, dim: 1 }),
            LayerClass::Embedding
        );
        assert_eq!(LayerClass::Conv.to_string(), "Conv");
        assert_eq!(LayerClass::Embedding as usize + 1, LayerClass::COUNT, "kinds index by class");
    }
}
