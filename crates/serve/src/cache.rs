//! The signature-keyed mapping cache: a bounded LRU from quantized
//! [`JobSignature`] sets to stored solutions.
//!
//! PR 2 established that solved mappings transfer to *similar* job groups
//! (Table V); this cache turns that property into an online win. A dispatch
//! group is keyed by the **sorted multiset of its quantized job signatures**
//! — layer class, task and log-scale magnitude buckets — so two groups whose
//! jobs are pairwise similar (whatever their order) share a key. A hit hands
//! back a [`StoredSolution`] whose mapping is adapted via profile matching
//! and refined with a small budget; a miss triggers a full MAGMA search
//! whose result is inserted for the next recurrence.
//!
//! The cache is a bounded LRU: lookups and insertions mark an entry most
//! recently used; inserting beyond the capacity evicts the least recently
//! used entry. [`CacheStats`] counts hits, misses, insertions and evictions
//! for the metrics pipeline.
//!
//! The whole cache round-trips through serde ([`MappingCache::save`] /
//! [`MappingCache::load`], behind the `MAGMA_SERVE_CACHE_PATH` knob) so a
//! serve or fleet restart starts warm: entries, LRU order *and* counters
//! survive byte-for-byte.

use magma_m3e::{LruOrder, StoredSolution};
use magma_model::{JobSignature, LayerClass, TaskType};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// One job signature, quantized to log-scale magnitude buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QuantizedSignature {
    /// Task category (exact).
    pub task: TaskType,
    /// Layer class (exact).
    pub class: LayerClass,
    /// `ln(1 + macs) / step`, rounded.
    pub macs_bucket: u32,
    /// `ln(1 + weight_elems) / step`, rounded.
    pub weights_bucket: u32,
    /// `ln(1 + activation_elems) / step`, rounded.
    pub activations_bucket: u32,
}

/// The cache key of a dispatch group: its quantized signatures as a sorted
/// multiset (order-insensitive by construction). Serializes transparently
/// as the signature array.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SignatureKey(Vec<QuantizedSignature>);

impl SignatureKey {
    /// Number of jobs behind the key.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key covers no jobs (never true for a quantized group).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Quantizes a group's signatures into its cache key. `step` is the
/// log-scale bucket width in nats: jobs whose MACs (or weight / activation
/// footprints) differ by less than `e^step` land in the same bucket.
///
/// # Panics
///
/// Panics if `step` is not finite and positive.
pub fn quantize_signatures(sigs: &[JobSignature], step: f64) -> SignatureKey {
    assert!(step.is_finite() && step > 0.0, "quantization step must be finite and positive");
    let bucket = |x: u64| ((1.0 + x as f64).ln() / step).round() as u32;
    let mut quantized: Vec<QuantizedSignature> = sigs
        .iter()
        .map(|s| QuantizedSignature {
            task: s.task(),
            class: s.class(),
            macs_bucket: bucket(s.macs()),
            weights_bucket: bucket(s.weight_elems()),
            activations_bucket: bucket(s.activation_elems()),
        })
        .collect();
    quantized.sort_unstable();
    SignatureKey(quantized)
}

/// Hit/miss/eviction counters of a [`MappingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry (exact-key and nearest-key combined).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// The subset of `hits` served by the nearest-key probe
    /// ([`MappingCache::lookup_near`]) rather than an exact key match.
    pub near_hits: u64,
    /// Insertions (fresh keys and replacements).
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bounded LRU mapping cache. Recency bookkeeping is the shared
/// [`magma_m3e::LruOrder`] (the same machinery bounding
/// [`magma_m3e::SolutionHistory`]).
#[derive(Debug, Clone)]
pub struct MappingCache {
    capacity: usize,
    entries: HashMap<SignatureKey, StoredSolution>,
    /// Recency order; always lists exactly the keys of `entries`.
    recency: LruOrder<SignatureKey>,
    stats: CacheStats,
}

impl MappingCache {
    /// Creates an empty cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a mapping cache must hold at least one entry");
        MappingCache {
            capacity,
            entries: HashMap::new(),
            recency: LruOrder::new(),
            stats: CacheStats::default(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `key` is cached, **without** counting a lookup or touching
    /// recency — the peek behind shared-tier-aware routing.
    pub fn contains_key(&self, key: &SignatureKey) -> bool {
        self.entries.contains_key(key)
    }

    /// The cached keys in recency order, least recently used first.
    pub fn keys_by_recency(&self) -> &[SignatureKey] {
        self.recency.as_slice()
    }

    /// Removes the entry for `key` (counted as an eviction when present).
    pub fn remove(&mut self, key: &SignatureKey) -> Option<StoredSolution> {
        let removed = self.entries.remove(key);
        if removed.is_some() {
            self.recency.remove(key);
            self.stats.evictions += 1;
        }
        removed
    }

    /// Looks `key` up, counting a hit or miss and marking a hit entry most
    /// recently used.
    pub fn lookup(&mut self, key: &SignatureKey) -> Option<&StoredSolution> {
        if self.entries.contains_key(key) {
            self.stats.hits += 1;
            self.recency.bump(key);
            self.entries.get(key)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Looks `key` up with a nearest-key fallback: on an exact-key miss, the
    /// stored entry with the minimum **mean per-job [`JobSignature`]
    /// distance** to `sigs` is served as a *near hit* if that mean is at
    /// most `epsilon` (each of the group's signatures is matched to its
    /// nearest stored signature — a cheap non-bijective proxy for the full
    /// assignment the adaptation itself performs). `epsilon <= 0` disables
    /// the probe, making this exactly [`MappingCache::lookup`].
    ///
    /// Only entries that stored signatures for the *same group size* are
    /// candidates, so the adapted mapping always covers the group one-job-
    /// to-one-job. The tie-break is explicit: minimum mean distance first,
    /// then the **most recently used** entry among equal distances. Keying
    /// the winner on recency rank (not scan order) means evictions,
    /// re-insertions or a [`MappingCache::load`] of a persisted cache can
    /// never silently change which entry serves a tie. This is what lets
    /// mixed-tenant traffic — whose quantized signature multisets essentially
    /// never repeat exactly — still reuse solved mappings of *similar*
    /// groups.
    pub fn lookup_near(
        &mut self,
        key: &SignatureKey,
        sigs: &[JobSignature],
        epsilon: f64,
    ) -> Option<&StoredSolution> {
        if epsilon <= 0.0 || self.entries.contains_key(key) {
            return self.lookup(key);
        }
        // Best candidate as (mean distance, recency rank). The recency slice
        // is LRU-first, so a *higher* rank is *more* recently used.
        let mut best: Option<(f64, usize)> = None;
        for (rank, stored_key) in self.recency.as_slice().iter().enumerate() {
            let stored = &self.entries[stored_key];
            let Some(stored_sigs) = stored.signatures() else { continue };
            if stored_sigs.len() != sigs.len() {
                continue;
            }
            let total: f64 = sigs
                .iter()
                .map(|s| stored_sigs.iter().map(|t| s.distance(t)).fold(f64::INFINITY, f64::min))
                .sum();
            let mean = total / sigs.len().max(1) as f64;
            if mean <= epsilon && best.is_none_or(|(bd, br)| mean < bd || (mean == bd && rank > br))
            {
                best = Some((mean, rank));
            }
        }
        match best {
            Some((_, rank)) => {
                let near_key = self.recency.as_slice()[rank].clone();
                self.stats.hits += 1;
                self.stats.near_hits += 1;
                self.recency.bump(&near_key);
                self.entries.get(&near_key)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) the entry for `key`, marks it most recently
    /// used and evicts the least recently used entry when over capacity.
    /// Returns the evicted key, so whoever routes by key (the
    /// [`ShardRouter`](crate::router::ShardRouter)'s affinity pins) can
    /// forget it too.
    pub fn insert(&mut self, key: SignatureKey, solution: StoredSolution) -> Option<SignatureKey> {
        self.stats.insertions += 1;
        self.entries.insert(key.clone(), solution);
        self.recency.bump(&key);
        // One insert grows a cache that was within bounds by at most one.
        if self.entries.len() <= self.capacity {
            return None;
        }
        let lru = self.recency.pop_lru().expect("recency tracks every entry");
        self.entries.remove(&lru);
        self.stats.evictions += 1;
        Some(lru)
    }

    /// Re-bounds the cache to `capacity`, evicting least recently used
    /// entries (counted in the stats) until it fits. Used when a persisted
    /// cache is installed under a configuration with a smaller capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn rebound(&mut self, capacity: usize) {
        assert!(capacity > 0, "a mapping cache must hold at least one entry");
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            let lru = self.recency.pop_lru().expect("recency tracks every entry");
            self.entries.remove(&lru);
            self.stats.evictions += 1;
        }
    }

    /// Writes the cache as pretty-printed JSON to `path` (the format behind
    /// `MAGMA_SERVE_CACHE_PATH`). Entries are emitted least recently used
    /// first, so LRU order — and with it every future eviction and near-hit
    /// tie-break — survives the round trip exactly, as do the counters.
    ///
    /// Crash-safe: the bytes go to `<path>.tmp`, are synced, and only then
    /// renamed over `path`, so a kill mid-save leaves the previous file (or
    /// none) in place — never a truncated one. [`MappingCache::load`] never
    /// reads the `.tmp`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut file = File::create(&tmp)?;
        file.write_all((json + "\n").as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename itself is durable once the directory entry is.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()
    }

    /// Loads a cache previously written by [`MappingCache::save`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

// Hand-written because `SignatureKey` serializes as an array, which the
// generic map impls cannot use as a JSON object key: entries are emitted as
// a sequence of `[key, solution]` pairs in LRU→MRU order, which is exactly
// the information needed to rebuild both the hash map and the recency order.
impl Serialize for MappingCache {
    fn to_value(&self) -> Value {
        let entries: Vec<Value> = self
            .recency
            .as_slice()
            .iter()
            .map(|k| Value::Seq(vec![k.to_value(), self.entries[k].to_value()]))
            .collect();
        Value::Map(vec![
            ("capacity".to_string(), self.capacity.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            ("entries".to_string(), Value::Seq(entries)),
        ])
    }
}

impl Deserialize for MappingCache {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_map().is_none() {
            return Err(DeError::mismatch("object", v));
        }
        let capacity = usize::from_value(v.get("capacity"))
            .map_err(|e| DeError::custom(format!("field capacity: {e}")))?;
        if capacity == 0 {
            return Err(DeError::custom(
                "field capacity: a mapping cache holds at least one entry",
            ));
        }
        // Tolerate a missing stats block (counters restart at zero).
        let stats = match v.get("stats") {
            Value::Null => CacheStats::default(),
            other => CacheStats::from_value(other)
                .map_err(|e| DeError::custom(format!("field stats: {e}")))?,
        };
        let pairs = Vec::<(SignatureKey, StoredSolution)>::from_value(v.get("entries"))
            .map_err(|e| DeError::custom(format!("field entries: {e}")))?;
        if pairs.len() > capacity {
            return Err(DeError::custom(format!(
                "field entries: {} entries exceed the declared capacity {capacity}",
                pairs.len()
            )));
        }
        let mut cache =
            MappingCache { capacity, entries: HashMap::new(), recency: LruOrder::new(), stats };
        // Pairs are stored LRU-first; bumping in order reproduces the
        // recency order exactly.
        for (key, solution) in pairs {
            cache.entries.insert(key.clone(), solution);
            cache.recency.bump(&key);
        }
        Ok(cache)
    }
}

/// The fleet-wide shared cache tier sitting *behind* the per-shard
/// [`MappingCache`]s (`FleetKnobs::shared_cache_capacity`).
///
/// A shard that misses its own cache falls through to this tier, so a
/// mapping solved on shard 2 warms a recurrence routed to shard 0 —
/// previously only the router's sticky affinity kept warm state reachable.
/// Inserts publish to both tiers. On top of the shared LRU sits a
/// **per-tenant quota** (`shared_tenant_quota`): each publishing
/// tenant may hold at most that many shared entries, so one chatty tenant
/// cannot monopolise the fleet tier; its own least recently used entry is
/// evicted first.
///
/// The tier lives on the fleet simulator's single-threaded event loop, so
/// determinism across `MAGMA_THREADS` is inherited, not re-proved.
#[derive(Debug, Clone)]
pub struct SharedCache {
    cache: MappingCache,
    tenant_quota: usize,
    /// Publishing tenant of each live entry (quota bookkeeping).
    owners: HashMap<SignatureKey, usize>,
}

impl SharedCache {
    /// Creates an empty shared tier bounded to `capacity` entries, with at
    /// most `tenant_quota` entries per publishing tenant (0 = no quota).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, tenant_quota: usize) -> Self {
        SharedCache { cache: MappingCache::new(capacity), tenant_quota, owners: HashMap::new() }
    }

    /// The capacity bound of the shared LRU.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// The per-tenant entry quota (0 = unlimited).
    pub fn tenant_quota(&self) -> usize {
        self.tenant_quota
    }

    /// Number of shared entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The tier's own hit/miss/eviction counters (disjoint from the
    /// per-shard counters: a shard miss that the tier serves counts as a
    /// shard miss *and* a shared hit).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of live entries published by `tenant`.
    pub fn tenant_entries(&self, tenant: usize) -> usize {
        self.owners.values().filter(|&&t| t == tenant).count()
    }

    /// Whether `key` is in the tier, without counting a lookup — the cheap
    /// peek behind shared-tier-aware placement ([`crate::ShardRouter`]).
    pub fn contains(&self, key: &SignatureKey) -> bool {
        self.cache.contains_key(key)
    }

    /// The shard-miss fallthrough: exactly [`MappingCache::lookup_near`]
    /// over the shared LRU (same epsilon semantics and tie-break).
    pub fn lookup_near(
        &mut self,
        key: &SignatureKey,
        sigs: &[JobSignature],
        epsilon: f64,
    ) -> Option<&StoredSolution> {
        self.cache.lookup_near(key, sigs, epsilon)
    }

    /// Publishes a solved mapping to the shared tier on behalf of `tenant`,
    /// then enforces the tenant quota (evicting the tenant's own LRU
    /// entries) and the global capacity.
    pub fn publish(&mut self, key: SignatureKey, solution: StoredSolution, tenant: usize) {
        // Keep the owner map aligned with the live set: capacity eviction
        // inside `insert` is the only way an entry leaves it unseen.
        if let Some(evicted) = self.cache.insert(key.clone(), solution) {
            self.owners.remove(&evicted);
        }
        self.owners.insert(key.clone(), tenant);
        if self.tenant_quota > 0 {
            while self.tenant_entries(tenant) > self.tenant_quota {
                let victim = self
                    .cache
                    .keys_by_recency()
                    .iter()
                    .find(|k| self.owners.get(*k) == Some(&tenant) && **k != key)
                    .cloned()
                    .expect("over-quota tenant owns an older entry");
                self.cache.remove(&victim);
                self.owners.remove(&victim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_m3e::Mapping;
    use magma_model::{TaskType, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(task: TaskType, n: usize, seed: u64) -> SignatureKey {
        quantize_signatures(&WorkloadSpec::single_group(task, n, seed).signatures(), 1.0)
    }

    fn solution(n: usize, seed: u64) -> StoredSolution {
        let mut rng = StdRng::seed_from_u64(seed);
        StoredSolution::new(Mapping::random(&mut rng, n, 4), None)
    }

    #[test]
    fn key_is_order_insensitive_and_seed_sensitive() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 16, 3);
        let sigs = group.signatures();
        let reversed: Vec<_> = sigs.iter().rev().copied().collect();
        assert_eq!(quantize_signatures(&sigs, 1.0), quantize_signatures(&reversed, 1.0));
        // Different workloads (almost surely) produce different keys.
        assert_ne!(key(TaskType::Vision, 16, 0), key(TaskType::Language, 16, 0));
    }

    #[test]
    fn coarser_steps_merge_nearby_magnitudes() {
        let group = WorkloadSpec::single_group(TaskType::Mix, 12, 1);
        let sigs = group.signatures();
        let fine = quantize_signatures(&sigs, 1e-6);
        let coarse = quantize_signatures(&sigs, 50.0);
        assert_eq!(fine.len(), 12);
        assert_eq!(coarse.len(), 12);
        // At an absurdly coarse step every magnitude bucket collapses, so
        // the key degenerates to (task, class) pairs.
        assert!(coarse.0.iter().all(|q| q.macs_bucket <= 1));
        // At a fine step distinct layers keep distinct buckets.
        let mut fine_buckets: Vec<u32> = fine.0.iter().map(|q| q.macs_bucket).collect();
        fine_buckets.dedup();
        assert!(fine_buckets.len() > 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = MappingCache::new(2);
        let (a, b, c) =
            (key(TaskType::Vision, 8, 0), key(TaskType::Language, 8, 0), key(TaskType::Mix, 8, 0));
        cache.insert(a.clone(), solution(8, 0));
        cache.insert(b.clone(), solution(8, 1));
        // Touch `a` so `b` becomes LRU.
        assert!(cache.lookup(&a).is_some());
        cache.insert(c.clone(), solution(8, 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&b).is_none(), "b was LRU and must be evicted");
        assert!(cache.lookup(&a).is_some());
        assert!(cache.lookup(&c).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn replacement_does_not_grow_or_evict() {
        let mut cache = MappingCache::new(2);
        let a = key(TaskType::Vision, 8, 0);
        cache.insert(a.clone(), solution(8, 0));
        cache.insert(a.clone(), solution(8, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn hit_rate_tracks_counters() {
        let mut cache = MappingCache::new(4);
        let a = key(TaskType::Vision, 8, 0);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(cache.lookup(&a).is_none());
        cache.insert(a.clone(), solution(8, 0));
        assert!(cache.lookup(&a).is_some());
        assert_eq!(cache.stats().hit_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MappingCache::new(0);
    }

    fn profiled_solution(task: TaskType, n: usize, seed: u64) -> (SignatureKey, StoredSolution) {
        let sigs = WorkloadSpec::single_group(task, n, seed).signatures();
        let mut rng = StdRng::seed_from_u64(seed);
        let key = quantize_signatures(&sigs, 1.0);
        (key, StoredSolution::new(Mapping::random(&mut rng, n, 4), Some(sigs)))
    }

    #[test]
    fn lookup_near_exact_hit_does_not_count_as_near() {
        let mut cache = MappingCache::new(4);
        let (key, solution) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key.clone(), solution);
        let sigs = WorkloadSpec::single_group(TaskType::Vision, 8, 0).signatures();
        assert!(cache.lookup_near(&key, &sigs, 100.0).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.near_hits, stats.misses), (1, 0, 0));
    }

    #[test]
    fn lookup_near_serves_a_similar_group_within_epsilon() {
        let mut cache = MappingCache::new(4);
        let (key_a, solution_a) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key_a, solution_a);
        // A different window of the same tenant: near-identical per-job
        // profiles, but (almost surely) a different quantized key.
        let sigs_b = WorkloadSpec::single_group(TaskType::Vision, 8, 5).signatures();
        let key_b = quantize_signatures(&sigs_b, 1.0);
        let hit = cache.lookup_near(&key_b, &sigs_b, 1e6);
        assert!(hit.is_some(), "a huge epsilon must accept any same-size entry");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.near_hits), (1, 1));
    }

    #[test]
    fn lookup_near_epsilon_zero_is_exact_only() {
        let mut cache = MappingCache::new(4);
        let (key_a, solution_a) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key_a, solution_a);
        let sigs_b = WorkloadSpec::single_group(TaskType::Vision, 8, 5).signatures();
        let key_b = quantize_signatures(&sigs_b, 1.0);
        if key_b
            == quantize_signatures(
                &WorkloadSpec::single_group(TaskType::Vision, 8, 0).signatures(),
                1.0,
            )
        {
            return; // seeds collided on one key; nothing to probe
        }
        assert!(cache.lookup_near(&key_b, &sigs_b, 0.0).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().near_hits, 0);
    }

    #[test]
    fn lookup_near_never_crosses_group_sizes() {
        let mut cache = MappingCache::new(4);
        let (key_a, solution_a) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key_a, solution_a);
        let sigs_b = WorkloadSpec::single_group(TaskType::Vision, 12, 0).signatures();
        let key_b = quantize_signatures(&sigs_b, 1.0);
        assert!(cache.lookup_near(&key_b, &sigs_b, 1e9).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lookup_near_breaks_distance_ties_toward_the_most_recent_entry() {
        // Two entries under different keys but with *identical* stored
        // signatures, so any probe sees them at exactly equal distance.
        let sigs = WorkloadSpec::single_group(TaskType::Vision, 8, 0).signatures();
        let key_a = quantize_signatures(&sigs, 1.0);
        let key_b = key(TaskType::Language, 8, 0);
        let sol_a = solution(8, 10);
        let sol_b = solution(8, 11);
        let mapping_a = sol_a.mapping().clone();
        let mapping_b = sol_b.mapping().clone();
        let probe_key = key(TaskType::Mix, 8, 0);
        assert!(probe_key != key_a && probe_key != key_b, "the probe key must be an exact miss");

        let mut cache = MappingCache::new(4);
        cache.insert(key_a.clone(), StoredSolution::new(mapping_a.clone(), Some(sigs.clone())));
        cache.insert(key_b, StoredSolution::new(mapping_b.clone(), Some(sigs.clone())));
        // B is most recent: the tie must go to B.
        let hit = cache.lookup_near(&probe_key, &sigs, 1e6).expect("both entries are in range");
        assert_eq!(hit.mapping(), &mapping_b);
        // Touch A; the same tie must now go to A — recency, not scan or
        // insertion order, decides.
        assert!(cache.lookup(&key_a).is_some());
        let hit = cache.lookup_near(&probe_key, &sigs, 1e6).expect("still in range");
        assert_eq!(hit.mapping(), &mapping_a);
    }

    #[test]
    fn serde_round_trip_preserves_entries_lru_order_and_stats() {
        let mut cache = MappingCache::new(4);
        let (key_v, sol_v) = profiled_solution(TaskType::Vision, 8, 0);
        let (key_l, sol_l) = profiled_solution(TaskType::Language, 8, 1);
        let (key_m, sol_m) = profiled_solution(TaskType::Mix, 8, 2);
        cache.insert(key_v.clone(), sol_v);
        cache.insert(key_l, sol_l);
        cache.insert(key_m, sol_m);
        // Accrue non-trivial stats and a non-insertion recency order.
        assert!(cache.lookup(&key_v).is_some());
        assert!(cache.lookup(&key(TaskType::Vision, 8, 99)).is_none());

        let json = serde_json::to_string_pretty(&cache).unwrap();
        let back: MappingCache = serde_json::from_str(&json).unwrap();
        assert_eq!(back.capacity(), cache.capacity());
        assert_eq!(back.stats(), cache.stats());
        assert_eq!(back.keys_by_recency(), cache.keys_by_recency());
        for k in cache.keys_by_recency() {
            assert_eq!(back.entries[k].mapping(), cache.entries[k].mapping());
        }
        // Byte-equal re-serialization: nothing was lost or reordered.
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let mut cache = MappingCache::new(4);
        let (key_v, sol_v) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key_v.clone(), sol_v);
        assert!(cache.lookup(&key_v).is_some());
        let path =
            std::env::temp_dir().join(format!("magma_cache_roundtrip_{}.json", std::process::id()));
        cache.save(&path).expect("temp dir is writable");
        let back = MappingCache::load(&path).expect("just written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.stats(), cache.stats());
        assert_eq!(back.keys_by_recency(), cache.keys_by_recency());
    }

    #[test]
    fn load_rejects_entries_beyond_capacity() {
        let mut cache = MappingCache::new(2);
        let (key_v, sol_v) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key_v, sol_v);
        let json =
            serde_json::to_string(&cache).unwrap().replace("\"capacity\":2", "\"capacity\":0");
        assert!(serde_json::from_str::<MappingCache>(&json).is_err());
    }

    #[test]
    fn rebound_evicts_down_to_the_new_capacity() {
        let mut cache = MappingCache::new(4);
        let (a, b, c) =
            (key(TaskType::Vision, 8, 0), key(TaskType::Language, 8, 0), key(TaskType::Mix, 8, 0));
        cache.insert(a.clone(), solution(8, 0));
        cache.insert(b, solution(8, 1));
        cache.insert(c.clone(), solution(8, 2));
        assert!(cache.lookup(&a).is_some()); // a becomes MRU
        cache.rebound(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.contains_key(&a) && cache.contains_key(&c), "the MRU entries survive");
    }

    #[test]
    fn shared_tier_serves_a_shard_miss_and_enforces_the_tenant_quota() {
        let mut shared = SharedCache::new(8, 2);
        let (key_v, sol_v) = profiled_solution(TaskType::Vision, 8, 0);
        shared.publish(key_v.clone(), sol_v, 3);
        // The peek is stat-free; the fallthrough lookup counts a hit.
        assert!(shared.contains(&key_v));
        assert_eq!(shared.stats().hits + shared.stats().misses, 0);
        let sigs = WorkloadSpec::single_group(TaskType::Vision, 8, 0).signatures();
        assert!(shared.lookup_near(&key_v, &sigs, 0.0).is_some());
        assert_eq!(shared.stats().hits, 1);

        // A tenant over quota evicts its *own* LRU entry; other tenants are
        // untouched.
        let (key_l, sol_l) = profiled_solution(TaskType::Language, 8, 1);
        let (key_m, sol_m) = profiled_solution(TaskType::Mix, 8, 2);
        let (key_r, sol_r) = profiled_solution(TaskType::Recommendation, 8, 3);
        shared.publish(key_l.clone(), sol_l, 3);
        shared.publish(key_m.clone(), sol_m, 7);
        shared.publish(key_r.clone(), sol_r, 3);
        assert_eq!(shared.tenant_entries(3), 2);
        assert_eq!(shared.tenant_entries(7), 1);
        assert!(!shared.contains(&key_v), "tenant 3's LRU entry was evicted by its quota");
        assert!(shared.contains(&key_m), "tenant 7 is under quota");
        assert!(shared.contains(&key_l) && shared.contains(&key_r));
    }

    #[test]
    fn lookup_near_prefers_the_closest_entry() {
        let mut cache = MappingCache::new(4);
        // Same-size entries of two different task categories; a vision query
        // must pick the vision entry (class/task penalties dominate).
        let (key_v, sol_v) = profiled_solution(TaskType::Vision, 8, 0);
        let (key_l, sol_l) = profiled_solution(TaskType::Language, 8, 0);
        let vision_mapping = sol_v.mapping().clone();
        cache.insert(key_v, sol_v);
        cache.insert(key_l, sol_l);
        let sigs = WorkloadSpec::single_group(TaskType::Vision, 8, 9).signatures();
        let key = quantize_signatures(&sigs, 1.0);
        let hit = cache.lookup_near(&key, &sigs, 1e6).expect("huge epsilon always hits");
        assert_eq!(hit.mapping(), &vision_mapping);
    }
}
