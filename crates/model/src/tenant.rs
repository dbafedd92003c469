//! Tenants: the co-resident model owners of an online serving system.
//!
//! The paper's premise (Sections I & III) is a *multi-tenant* accelerator:
//! several application owners — a vision service, a language service, a
//! recommendation service — share one multi-core platform, and the host sees
//! an interleaved stream of their inference jobs. The static experiments of
//! the paper pre-form that stream into fixed groups; the online serving
//! simulator (`magma-serve`) instead draws arrivals from a [`TenantMix`],
//! one [`Tenant`] per co-resident service.
//!
//! Each tenant references a slice of the [`zoo`] and emits jobs through
//! a [`TenantJobStream`]: a deterministic round-robin over its models'
//! accelerator layers, exactly mirroring how [`crate::workload`] interleaves
//! queued requests. Determinism matters twice — the serving simulator must be
//! bit-reproducible at a fixed seed, and a periodic per-tenant job stream is
//! what makes repeated-tenant traffic actually *repeat* (the property the
//! signature-keyed mapping cache exploits).
//!
//! A tenant holds its models behind one shared [`Arc`], and a stream holds
//! that `Arc` plus a cursor per model: the tenants of a synthetic fleet point
//! at the zoo's models instead of copying them, and a stream costs a few
//! words, so memory follows the traffic, not the configured tenant count.

use crate::{zoo, Job, JobId, Model, TaskType};
use std::sync::Arc;

/// One co-resident service: a named owner of a set of models, with a traffic
/// weight used when sampling which tenant the next arrival belongs to and an
/// optional per-tenant SLA contract multiplier.
///
/// The models are one shared `Arc<[Model]>`: cloning a tenant, or opening a
/// [`TenantJobStream`] on it, copies a pointer, and the tenants of
/// [`TenantMix::synthetic`] that drew the same zoo model share it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    name: String,
    task: TaskType,
    models: Arc<[Model]>,
    weight: f64,
    sla_multiplier: Option<f64>,
}

impl Tenant {
    /// Creates a tenant owning `models`, with relative traffic `weight` and
    /// no per-tenant SLA contract (the serving layer's uniform bound
    /// applies; see [`Tenant::with_sla_multiplier`]).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty, if none of the models has a layer that
    /// runs on the accelerator, or if `weight` is not finite and positive.
    pub fn new(name: impl Into<String>, task: TaskType, models: Vec<Model>, weight: f64) -> Self {
        Tenant::sharing(name, task, models.into(), weight)
    }

    /// [`Tenant::new`] over models another tenant may reference too.
    fn sharing(name: impl Into<String>, task: TaskType, models: Arc<[Model]>, weight: f64) -> Self {
        assert!(!models.is_empty(), "a tenant must own at least one model");
        assert!(
            models.iter().any(|m| m.accelerator_layers().next().is_some()),
            "a tenant's models must contain at least one accelerator layer"
        );
        assert!(weight.is_finite() && weight > 0.0, "tenant weight must be finite and positive");
        Tenant { name: name.into(), task, models, weight, sla_multiplier: None }
    }

    /// Attaches a per-tenant SLA contract: the serving layer's baseline SLA
    /// bound is scaled by `multiplier` for this tenant's jobs (e.g. `0.5`
    /// for a latency-critical tenant on half the uniform bound, `2.0` for a
    /// batch tenant tolerating twice the bound). Tenants without a
    /// multiplier keep the uniform bound.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not finite and positive.
    pub fn with_sla_multiplier(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "an SLA multiplier must be finite and positive"
        );
        self.sla_multiplier = Some(multiplier);
        self
    }

    /// The per-tenant SLA multiplier, if one was contracted.
    pub fn sla_multiplier(&self) -> Option<f64> {
        self.sla_multiplier
    }

    /// The SLA bound this tenant is held to, given the serving layer's
    /// baseline bound: `base_sla_sec` scaled by the contracted multiplier,
    /// or the baseline itself without a contract.
    pub fn effective_sla_sec(&self, base_sla_sec: f64) -> f64 {
        base_sla_sec * self.sla_multiplier.unwrap_or(1.0)
    }

    /// The tenant's human-readable name (appears in per-tenant metrics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The application domain of the tenant's traffic.
    pub fn task(&self) -> TaskType {
        self.task
    }

    /// The models this tenant serves requests from.
    pub fn models(&self) -> &[Model] {
        &self.models
    }

    /// The tenant's relative traffic weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// A job stream over this tenant's models at the given mini-batch size.
    pub fn job_stream(&self, mini_batch: usize) -> TenantJobStream {
        TenantJobStream::new(self, mini_batch)
    }
}

/// The set of tenants sharing the platform, with weighted traffic sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    tenants: Vec<Tenant>,
}

impl TenantMix {
    /// Creates a mix from an explicit tenant list.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: Vec<Tenant>) -> Self {
        assert!(!tenants.is_empty(), "a tenant mix must contain at least one tenant");
        TenantMix { tenants }
    }

    /// The standard data-center mix: one equally weighted tenant per pure
    /// task category (vision, language, recommendation), each owning the
    /// zoo's full model set for its category — the serving analogue of the
    /// paper's Mix task.
    pub fn standard() -> Self {
        TenantMix::new(vec![
            Tenant::new("vision", TaskType::Vision, zoo::vision_models(), 1.0),
            Tenant::new("language", TaskType::Language, zoo::language_models(), 1.0),
            Tenant::new(
                "recommendation",
                TaskType::Recommendation,
                zoo::recommendation_models(),
                1.0,
            ),
        ])
    }

    /// A single-tenant mix — the repeated-tenant traffic pattern where the
    /// same service's job windows recur and the mapping cache pays off.
    pub fn single(name: impl Into<String>, task: TaskType, models: Vec<Model>) -> Self {
        TenantMix::new(vec![Tenant::new(name, task, models, 1.0)])
    }

    /// A synthetic fleet-scale mix of `n` tenants, deterministic in `seed`
    /// and free of any ambient RNG (a splitmix64 hash assigns models).
    ///
    /// Tenant `k` owns a single model drawn from the full zoo (hashed by
    /// `seed`, so different seeds shuffle ownership), its traffic weight
    /// follows a Zipf-like `1/(1+k)^0.7` tail — a few head tenants dominate,
    /// the long tail trickles, which is what makes signature-keyed caching
    /// and affinity routing meaningful at fleet scale — and a deterministic
    /// fraction carry SLA contracts: every 5th tenant is latency-critical
    /// (multiplier 0.5), every 7th-plus-3 is batch-tolerant (2.0).
    ///
    /// Each of the zoo's 18 models is built once, and every tenant that
    /// draws it references that copy: a mix of any size holds at most 18
    /// models, plus a name and a pointer per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        assert!(n > 0, "a synthetic mix needs at least one tenant");
        let zoo_models: Vec<Arc<[Model]>> = zoo::models_for_task(TaskType::Mix)
            .into_iter()
            .map(|model| Arc::from([model]))
            .collect();
        let tenants = (0..n)
            .map(|k| {
                let models = &zoo_models[(splitmix64(seed ^ k as u64) as usize) % zoo_models.len()];
                let task = models[0].task();
                let weight = 1.0 / (1.0 + k as f64).powf(0.7);
                let tenant = Tenant::sharing(format!("t{k:05}"), task, Arc::clone(models), weight);
                if k % 5 == 0 {
                    tenant.with_sla_multiplier(0.5)
                } else if k % 7 == 3 {
                    tenant.with_sla_multiplier(2.0)
                } else {
                    tenant
                }
            })
            .collect();
        TenantMix::new(tenants)
    }

    /// Attaches per-tenant SLA contracts to an existing mix, in tenant
    /// order: `multipliers[i]` becomes tenant `i`'s SLA multiplier (see
    /// [`Tenant::with_sla_multiplier`]). The idiomatic way to build, e.g., a
    /// standard mix where the vision tenant is latency-critical:
    /// `TenantMix::standard().with_sla_multipliers(&[0.5, 1.0, 2.0])`.
    ///
    /// # Panics
    ///
    /// Panics if `multipliers.len() != self.len()` or any multiplier is not
    /// finite and positive.
    pub fn with_sla_multipliers(mut self, multipliers: &[f64]) -> Self {
        assert_eq!(multipliers.len(), self.tenants.len(), "one SLA multiplier per tenant");
        self.tenants = self
            .tenants
            .into_iter()
            .zip(multipliers)
            .map(|(t, &x)| t.with_sla_multiplier(x))
            .collect();
        self
    }

    /// The tenants in the mix.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the mix is empty (never true for a constructed mix).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Picks a tenant index given per-tenant effective weights and a uniform
    /// draw `u` in `[0, 1)`. Exposed so trace generators can modulate the
    /// weights over time (tenant-mix drift) while keeping selection
    /// deterministic. Drawing many tenants from one weight vector goes
    /// through [`TenantMix::prepare_weights`], which takes the total once;
    /// both draw with the same scan.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()` or if no weight is positive.
    pub fn pick(&self, weights: &[f64], u: f64) -> usize {
        scan(weights, self.total_of(weights), u)
    }

    /// Validates and sums `weights` once, for any number of
    /// [`PreparedWeights::pick`] draws — each picks the tenant
    /// [`TenantMix::pick`] picks for the same `u`.
    ///
    /// # Panics
    ///
    /// As [`TenantMix::pick`].
    pub fn prepare_weights(&self, weights: Vec<f64>) -> PreparedWeights {
        let total = self.total_of(&weights);
        PreparedWeights { weights, total }
    }

    /// The sum of the weights that count, in tenant order.
    fn total_of(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.tenants.len(), "one weight per tenant");
        let total: f64 = weights.iter().copied().filter(|&w| counts(w)).sum();
        assert!(total > 0.0, "at least one tenant weight must be positive");
        total
    }
}

/// Whether a tenant with weight `w` can be drawn at all.
fn counts(w: f64) -> bool {
    w.is_finite() && w > 0.0
}

/// The tenant a uniform draw `u` in `[0, 1)` lands on, given the weights'
/// `total` (of those that count, summed in tenant order).
fn scan(weights: &[f64], total: f64, u: f64) -> usize {
    let mut target = u.clamp(0.0, 1.0) * total;
    for (i, &w) in weights.iter().enumerate() {
        if counts(w) {
            if target < w {
                return i;
            }
            target -= w;
        }
    }
    // Rounding at u ≈ 1.0 lands past the last positive weight.
    weights.iter().rposition(|&w| counts(w)).expect("the total is positive")
}

/// Per-tenant weights with their total already taken
/// (see [`TenantMix::prepare_weights`]).
#[derive(Debug, Clone)]
pub struct PreparedWeights {
    weights: Vec<f64>,
    /// Sum of the weights that count, in tenant order.
    total: f64,
}

impl PreparedWeights {
    /// The tenant a uniform draw `u` in `[0, 1)` lands on.
    pub fn pick(&self, u: f64) -> usize {
        scan(&self.weights, self.total, u)
    }
}

/// A deterministic, endless job stream for one tenant.
///
/// Jobs are produced by round-robining over the tenant's models and walking
/// each model's accelerator layers in order, wrapping around — the exact
/// interleaving of [`crate::workload::build_jobs_from_models`], but
/// incremental, so an online simulator can pull one job per request. The
/// stream is a pure function of the tenant (no RNG): a tenant's k-th job is
/// always the same, which makes repeated-tenant traffic periodic.
///
/// The stream references the tenant's models (the same `Arc`) and keeps one
/// cursor per model into its [`Model::layers`]: each job walks the cursor
/// cyclically past host-side layers to the next accelerator layer, which is
/// the cycle a filtered copy of the accelerator layers would emit. Opening
/// a stream allocates only the cursors.
#[derive(Debug, Clone)]
pub struct TenantJobStream {
    models: Arc<[Model]>,
    /// Per model, the index into its layers the next job is looked for
    /// from, or `None` for a model with no accelerator layer.
    cursors: Vec<Option<usize>>,
    next_model: usize,
    mini_batch: usize,
}

impl TenantJobStream {
    /// Creates the stream at the given mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `mini_batch == 0`.
    pub fn new(tenant: &Tenant, mini_batch: usize) -> Self {
        assert!(mini_batch > 0, "mini-batch must be non-zero");
        let cursors =
            tenant.models.iter().map(|m| m.accelerator_layers().next().map(|_| 0)).collect();
        TenantJobStream { models: Arc::clone(&tenant.models), cursors, next_model: 0, mini_batch }
    }

    /// Produces the next job of the stream with the given id.
    pub fn next_job(&mut self, id: JobId) -> Job {
        loop {
            let m = self.next_model % self.models.len();
            self.next_model += 1;
            let Some(cursor) = &mut self.cursors[m] else {
                continue;
            };
            let model = &self.models[m];
            let layers = model.layers();
            // The model has an accelerator layer, so this stops within a lap.
            while !layers[*cursor].runs_on_accelerator() {
                *cursor = (*cursor + 1) % layers.len();
            }
            let layer_index = *cursor;
            *cursor = (layer_index + 1) % layers.len();
            return Job::new(
                id,
                model.name(),
                layer_index,
                layers[layer_index],
                self.mini_batch,
                model.task(),
            );
        }
    }

    /// The length of the stream's period in emitted jobs: after this many
    /// jobs every model cursor and the round-robin position are back at their
    /// initial state, so the stream repeats exactly.
    pub fn period(&self) -> usize {
        let nonempty: Vec<usize> =
            self.models.iter().map(|m| m.accelerator_layers().count()).filter(|&n| n > 0).collect();
        nonempty.iter().fold(1, |acc, &n| lcm(acc, n)) * nonempty.len().max(1)
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash used for
/// deterministic synthetic-mix assignment without pulling an RNG into the
/// model crate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standard_mix_covers_all_pure_tasks() {
        let mix = TenantMix::standard();
        assert_eq!(mix.len(), 3);
        assert!(!mix.is_empty());
        for (tenant, task) in mix.tenants().iter().zip(TaskType::PURE) {
            assert_eq!(tenant.task(), task);
            assert!(tenant.weight() > 0.0);
            assert!(!tenant.models().is_empty());
        }
    }

    #[test]
    fn single_mix_has_one_tenant() {
        let mix = TenantMix::single("recom", TaskType::Recommendation, vec![zoo::ncf()]);
        assert_eq!(mix.len(), 1);
        assert_eq!(mix.tenants()[0].name(), "recom");
    }

    #[test]
    fn pick_is_weight_proportional_and_total_order_stable() {
        let mix = TenantMix::standard();
        // u in the first third → tenant 0, middle third → 1, last third → 2.
        assert_eq!(mix.pick(&[1.0, 1.0, 1.0], 0.0), 0);
        assert_eq!(mix.pick(&[1.0, 1.0, 1.0], 0.5), 1);
        assert_eq!(mix.pick(&[1.0, 1.0, 1.0], 0.999), 2);
        // Zero weights are skipped entirely.
        assert_eq!(mix.pick(&[0.0, 1.0, 0.0], 0.7), 1);
        // u == 1.0 still lands on the last positive weight.
        assert_eq!(mix.pick(&[1.0, 1.0, 0.0], 1.0), 1);
    }

    /// `TenantMix::pick` as it was written before the total was hoisted.
    fn pick_spelled_out(weights: &[f64], u: f64) -> usize {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        let mut target = u.clamp(0.0, 1.0) * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                if target < w {
                    return i;
                }
                target -= w;
            }
        }
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0).unwrap()
    }

    #[test]
    fn prepared_weights_pick_what_pick_picks() {
        // Fleet-shaped weights with everything `pick` must skip mixed in.
        let mix = TenantMix::synthetic(200, 9);
        let mut weights: Vec<f64> = mix.tenants().iter().map(Tenant::weight).collect();
        for (i, w) in weights.iter_mut().enumerate() {
            match i % 7 {
                1 => *w = 0.0,
                3 => *w = f64::NAN,
                5 => *w = f64::INFINITY,
                6 => *w = -*w,
                _ => {}
            }
        }
        // The last tenant cannot be drawn, so `u → 1` exercises the fallback.
        *weights.last_mut().unwrap() = 0.0;
        let prepared = mix.prepare_weights(weights.clone());
        let edges = [0.0, f64::MIN_POSITIVE, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0, 1.5, -0.5];
        let draws = (0..10_000).map(|k| k as f64 / 10_000.0).chain(edges);
        for u in draws {
            let expect = pick_spelled_out(&weights, u);
            assert_eq!(prepared.pick(u), expect, "u = {u}");
            assert_eq!(mix.pick(&weights, u), expect, "u = {u}");
            assert!(weights[expect].is_finite() && weights[expect] > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant weight")]
    fn pick_rejects_all_zero_weights() {
        let mix = TenantMix::single("v", TaskType::Vision, vec![zoo::shufflenet()]);
        let _ = mix.pick(&[0.0], 0.5);
    }

    #[test]
    fn synthetic_mix_is_deterministic_and_fleet_shaped() {
        let a = TenantMix::synthetic(100, 42);
        assert_eq!(a, TenantMix::synthetic(100, 42));
        assert_ne!(a, TenantMix::synthetic(100, 43), "the seed must shuffle model ownership");
        assert_eq!(a.len(), 100);
        // Zipf head dominates the tail.
        assert!(a.tenants()[0].weight() > a.tenants()[99].weight() * 10.0);
        // The deterministic contract pattern: every 5th tight, 7th+3 loose.
        assert_eq!(a.tenants()[0].sla_multiplier(), Some(0.5));
        assert_eq!(a.tenants()[3].sla_multiplier(), Some(2.0));
        assert_eq!(a.tenants()[1].sla_multiplier(), None);
        // Every tenant emits jobs.
        for t in a.tenants() {
            assert_eq!(t.models().len(), 1);
            assert!(t.weight() > 0.0);
        }
    }

    #[test]
    fn job_stream_matches_workload_interleaving() {
        // The incremental stream must produce exactly the jobs of the batch
        // generator over the same model list.
        let tenant = Tenant::new("v", TaskType::Vision, zoo::vision_models(), 1.0);
        let batch = crate::workload::build_jobs_from_models(tenant.models(), 40, 4);
        let mut stream = tenant.job_stream(4);
        for want in batch {
            let got = stream.next_job(want.id());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn job_stream_is_periodic() {
        let tenant = Tenant::new("r", TaskType::Recommendation, vec![zoo::ncf()], 1.0);
        let period = tenant.job_stream(4).period();
        assert!(period > 0);
        let mut a = tenant.job_stream(4);
        let first: Vec<Job> = (0..period).map(|i| a.next_job(JobId(i))).collect();
        let second: Vec<Job> = (0..period).map(|i| a.next_job(JobId(i))).collect();
        assert_eq!(first, second);
    }

    /// The zoo plus two models built from DLRM's embedding lookups: one
    /// mostly host-side, one wholly (a stream must skip it).
    fn stream_model_pool() -> Vec<Model> {
        let dlrm = zoo::dlrm();
        let (e, fc, gemm) = (dlrm.layers()[0], dlrm.layers()[1], dlrm.layers()[4]);
        assert!(!e.runs_on_accelerator());
        let task = TaskType::Recommendation;
        let mut pool = zoo::models_for_task(TaskType::Mix);
        pool.push(Model::new("HostHeavy", task, vec![e, e, fc, e, e, gemm, e, e]));
        pool.push(Model::new("HostOnly", task, vec![e, e, e]));
        pool
    }

    /// Jobs compared per case when 1–3 periods would be more: every model
    /// of a list still wraps dozens of times.
    const MAX_STREAM_JOBS: usize = 8_192;

    proptest! {
        #[test]
        fn the_shared_model_stream_emits_what_the_filtered_copy_emitted(
            picks in proptest::collection::vec(0usize..20, 1..5),
            mini_batch in 1usize..9,
            periods in 1usize..4,
        ) {
            let pool = stream_model_pool();
            let models: Vec<Model> = picks.iter().map(|&i| pool[i].clone()).collect();
            if models.iter().all(|m| m.accelerator_layers().next().is_none()) {
                return Ok(());
            }
            let tenant = Tenant::new("t", TaskType::Mix, models, 1.0);
            let mut expected = oracle::TenantJobStream::new(&tenant, mini_batch);
            let mut stream = tenant.job_stream(mini_batch);
            prop_assert_eq!(stream.period(), expected.period());
            for i in 0..(periods * expected.period()).min(MAX_STREAM_JOBS) {
                prop_assert_eq!(stream.next_job(JobId(i)), expected.next_job(JobId(i)));
            }
        }
    }

    #[test]
    fn job_stream_mini_batch_is_propagated() {
        let tenant = Tenant::new("l", TaskType::Language, zoo::language_models(), 2.0);
        let mut stream = tenant.job_stream(8);
        for i in 0..10 {
            assert_eq!(stream.next_job(JobId(i)).batch(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn tenant_without_models_panics() {
        let _ = Tenant::new("empty", TaskType::Vision, vec![], 1.0);
    }

    #[test]
    fn sla_multiplier_defaults_to_the_uniform_bound() {
        let t = Tenant::new("v", TaskType::Vision, vec![zoo::shufflenet()], 1.0);
        assert_eq!(t.sla_multiplier(), None);
        assert_eq!(t.effective_sla_sec(3.0), 3.0);
        let tight = t.with_sla_multiplier(0.5);
        assert_eq!(tight.sla_multiplier(), Some(0.5));
        assert_eq!(tight.effective_sla_sec(3.0), 1.5);
    }

    #[test]
    fn mix_threads_sla_multipliers_in_tenant_order() {
        let mix = TenantMix::standard().with_sla_multipliers(&[0.5, 1.0, 2.0]);
        let m: Vec<Option<f64>> = mix.tenants().iter().map(|t| t.sla_multiplier()).collect();
        assert_eq!(m, vec![Some(0.5), Some(1.0), Some(2.0)]);
    }

    #[test]
    #[should_panic(expected = "one SLA multiplier per tenant")]
    fn mismatched_sla_multiplier_count_panics() {
        let _ = TenantMix::standard().with_sla_multipliers(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_sla_multiplier_panics() {
        let t = Tenant::new("v", TaskType::Vision, vec![zoo::shufflenet()], 1.0);
        let _ = t.with_sla_multiplier(0.0);
    }
}

/// The job stream as it was before it shared its tenant's models: a clone of
/// every model and a copy of each accelerator layer, walked by a counter per
/// model. The shared-model stream must emit exactly what this emits.
#[cfg(test)]
mod oracle {
    use super::{lcm, Tenant};
    use crate::{Job, JobId, LayerShape, Model};

    pub(super) struct TenantJobStream {
        models: Vec<Model>,
        layer_lists: Vec<Vec<(usize, LayerShape)>>,
        cursors: Vec<usize>,
        next_model: usize,
        mini_batch: usize,
    }

    impl TenantJobStream {
        pub(super) fn new(tenant: &Tenant, mini_batch: usize) -> Self {
            let layer_lists = tenant
                .models()
                .iter()
                .map(|m| {
                    m.layers()
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.runs_on_accelerator())
                        .map(|(i, l)| (i, *l))
                        .collect()
                })
                .collect();
            TenantJobStream {
                models: tenant.models().to_vec(),
                layer_lists,
                cursors: vec![0; tenant.models().len()],
                next_model: 0,
                mini_batch,
            }
        }

        pub(super) fn next_job(&mut self, id: JobId) -> Job {
            loop {
                let m = self.next_model % self.models.len();
                self.next_model += 1;
                let layers = &self.layer_lists[m];
                if layers.is_empty() {
                    continue;
                }
                let (layer_index, layer) = layers[self.cursors[m] % layers.len()];
                self.cursors[m] += 1;
                return Job::new(
                    id,
                    self.models[m].name(),
                    layer_index,
                    layer,
                    self.mini_batch,
                    self.models[m].task(),
                );
            }
        }

        pub(super) fn period(&self) -> usize {
            let nonempty: Vec<usize> =
                self.layer_lists.iter().map(|l| l.len()).filter(|&n| n > 0).collect();
            nonempty.iter().fold(1, |acc, &n| lcm(acc, n)) * nonempty.len().max(1)
        }
    }
}
