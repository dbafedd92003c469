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
//! **Layout.** The entries live in one vector in recency order, least
//! recently used first — the order *is* the LRU bookkeeping, and it is what
//! the nearest-key probe ([`MappingCache::lookup_near`]) walks, back to
//! front, without hashing a key per entry. At these capacities (tens to a
//! few hundred entries) an exact lookup is a scan over the keys, which
//! costs less than hashing one 30-signature key. An entry is three
//! pointers and an inline run table: its key, its solution and one piece of
//! derived data, built when the group is published (or loaded) and **never
//! persisted** — the stored signatures as packed rows of what a distance
//! reads ([`DistanceCoords`], 40 bytes a job), a `(class, task)` kind's rows
//! side by side and in order of size, so the probe compares a job with the
//! stored jobs of its own kind, nearest in size first, and knows from the
//! two ends of a run what a job is at least away from all of it. The run
//! table (`starts`) sits in the entry itself, so the probe reaches the rows
//! through one pointer.
//!
//! A published group has **one** key, **one** rows buffer and **one**
//! solution, whoever holds it: a [`SignatureKey`] clone shares its
//! signatures, and a completion builds the entry once and hands clones of it
//! to the shard's cache and to the fleet tier. The plan, the router's
//! affinity pin, the shard's entry, the tier's entry and the tier's quota
//! book hold one key; both entries hold one rows buffer and one solution —
//! which is also how the tier knows what the probing shard has just
//! refused. A published 30-job group so costs ≈ 5 KB however many hold it
//! (`tests/integration_alloc.rs` bounds a full daemon's caches).
//!
//! The whole cache round-trips through serde ([`MappingCache::save`] /
//! [`MappingCache::load`], behind the `MAGMA_SERVE_CACHE_PATH` knob) so a
//! serve or fleet restart starts warm: entries, LRU order *and* counters
//! survive byte-for-byte.

use magma_m3e::StoredSolution;
use magma_model::{DistanceCoords, JobSignature, LayerClass, TaskType};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// One job signature, quantized to log-scale magnitude buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct QuantizedSignature {
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
/// as the signature array. A clone shares the signatures (see the module
/// docs); equality and hashing are those of the array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignatureKey(Arc<[QuantizedSignature]>);

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

#[cfg(test)]
impl SignatureKey {
    /// Whether `self` and `other` are one allocation, not merely equal.
    pub(crate) fn is(&self, other: &SignatureKey) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Serialize for SignatureKey {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for SignatureKey {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<QuantizedSignature>::from_value(v).map(|sigs| SignatureKey(sigs.into()))
    }
}

/// Quantizes a group's signatures into its cache key. `step` is the
/// log-scale bucket width in nats: jobs whose MACs (or weight / activation
/// footprints) differ by less than `e^step` land in the same bucket. The
/// logarithms are the ones the signatures carry
/// ([`JobSignature::log_coords`]); none is taken here.
///
/// # Panics
///
/// Panics if `step` is not finite and positive.
pub fn quantize_signatures(sigs: &[JobSignature], step: f64) -> SignatureKey {
    assert!(step.is_finite() && step > 0.0, "quantization step must be finite and positive");
    let bucket = |log: f64| (log / step).round() as u32;
    let mut quantized: Arc<[QuantizedSignature]> = sigs
        .iter()
        .map(|s| {
            let [macs, weights, activations] = s.log_coords();
            QuantizedSignature {
                task: s.task(),
                class: s.class(),
                macs_bucket: bucket(macs),
                weights_bucket: bucket(weights),
                activations_bucket: bucket(activations),
            }
        })
        .collect();
    Arc::get_mut(&mut quantized).expect("a fresh key is unshared").sort_unstable();
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
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How far above a bound a sum must be before the probe abandons an entry,
/// where the two are not computed the same way. Against `ε·g`: the exact
/// acceptance test is `total / g <= ε` in floating point, and `ε·g` itself is
/// rounded, so a total a few ulps above it can still divide back to `ε`.
/// Against the running total plus what the jobs still to come at least add:
/// that is summed in another order than the total will be, a few ulps of a
/// few dozen additions apart. A relative slack of `1e-9` — millions of times
/// either error — keeps every entry an exact comparison would keep.
const PRUNE_SLACK: f64 = 1e-9;

#[cfg(test)]
thread_local! {
    /// Signature-pair distances the near-hit probe evaluated on this thread
    /// — the work the abandon rule and the sorted rows exist to avoid.
    static DISTANCE_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`DistanceCoords::distance`], counted under test.
#[inline]
fn distance(a: &DistanceCoords, b: &DistanceCoords) -> f64 {
    #[cfg(test)]
    DISTANCE_EVALS.with(|n| n.set(n.get() + 1));
    a.distance(b)
}

/// An entry's stored signatures as the probe reads them — the derived, never
/// persisted part of a cache entry: one [`DistanceCoords`] per stored job,
/// packed by [`DistanceCoords::kind`] (so a layer class's kinds lie side by
/// side) and, inside a kind, in ascending order of size. A clone shares the
/// rows and copies the run table.
#[derive(Debug, Clone)]
struct PackedRows {
    rows: Arc<[DistanceCoords]>,
    /// Kind `k`'s rows are `rows[starts[k]..starts[k + 1]]`.
    starts: [u32; DistanceCoords::KINDS + 1],
}

impl PackedRows {
    fn of(stored: &[JobSignature]) -> Self {
        let mut rows: Arc<[DistanceCoords]> = stored.iter().map(JobSignature::coords).collect();
        Arc::get_mut(&mut rows)
            .expect("fresh rows are unshared")
            .sort_unstable_by(|a, b| a.kind().cmp(&b.kind()).then(a.size().total_cmp(&b.size())));
        let mut starts = [0; DistanceCoords::KINDS + 1];
        for row in rows.iter() {
            starts[row.kind() + 1] += 1;
        }
        for k in 0..DistanceCoords::KINDS {
            starts[k + 1] += starts[k];
        }
        PackedRows { rows, starts }
    }

    /// The rows of kinds `kinds.start..kinds.end`.
    fn runs(&self, kinds: Range<usize>) -> &[DistanceCoords] {
        &self.rows[self.starts[kinds.start] as usize..self.starts[kinds.end] as usize]
    }

    /// What `p` is at least away from every row, read off the two ends of
    /// `run`, its kind's rows: a size outside their range is at least that
    /// far outside from each of them ([`DistanceCoords::size_gap`]), and a
    /// row of any other kind is at least the mismatch floor away.
    fn at_least(run: &[DistanceCoords], p: &DistanceCoords) -> f64 {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return JobSignature::KIND_MISMATCH_FLOOR;
        };
        p.size_gap_to_range(first, last).clamp(0.0, JobSignature::KIND_MISMATCH_FLOOR)
    }

    /// The distance from `p` to the nearest row of `run`, its kind's rows
    /// (infinite without one). The rows are walked outwards from where `p`'s
    /// size would sort — the first either way unconditionally, so that the
    /// two evaluations overlap — and each way the walk stops at the first
    /// row whose size gap alone reaches the running nearest: the gap bounds
    /// the row's distance from below and only grows from there on, so no
    /// later row can lower the minimum — and `min` is exact in any order.
    fn nearest_in(run: &[DistanceCoords], p: &DistanceCoords) -> f64 {
        /// `nearest`, lowered by the rows before the first whose size gap
        /// reaches it.
        fn walk<'a>(
            rows: impl Iterator<Item = &'a DistanceCoords>,
            p: &DistanceCoords,
            mut nearest: f64,
        ) -> f64 {
            for row in rows {
                if p.size_gap(row) >= nearest {
                    break;
                }
                nearest = nearest.min(distance(p, row));
            }
            nearest
        }
        let (below, above) = run.split_at(run.partition_point(|row| row.size() < p.size()));
        let (mut below, mut above) = (below.iter().rev(), above.iter());
        let mut nearest = f64::INFINITY;
        for row in above.next().into_iter().chain(below.next()) {
            nearest = nearest.min(distance(p, row));
        }
        walk(below, p, walk(above, p, nearest))
    }

    /// `nearest.min(`the distance from `p` to the nearest row of another
    /// kind`)`: first the other kinds of `p`'s layer class, a task penalty
    /// away, then — only if the nearest so far is no better than a class
    /// penalty — the other classes.
    fn nearest_of_other_kinds(&self, p: &DistanceCoords, nearest: f64) -> f64 {
        let kind = p.kind();
        let class = DistanceCoords::kinds_of_class(kind);
        let near = [self.runs(class.start..kind), self.runs(kind + 1..class.end)];
        let far = [self.runs(0..class.start), self.runs(class.end..DistanceCoords::KINDS)];
        let mut nearest = nearest;
        for (rows, floor) in [
            (near, JobSignature::TASK_MISMATCH_PENALTY),
            (far, JobSignature::CLASS_MISMATCH_PENALTY),
        ] {
            if nearest <= floor {
                break;
            }
            for row in rows.into_iter().flatten() {
                if p.size_gap(row).max(floor) < nearest {
                    nearest = nearest.min(distance(p, row));
                }
            }
        }
        nearest
    }

    /// Σ over `probe` of the distance to the nearest stored signature,
    /// summed in probe order — or `None` if that sum exceeds `limit`, found
    /// out as early as can be. Every term is non-negative, so the running
    /// sum only grows: once above `limit`, so is the total. And it is known
    /// ahead what the jobs still to come will at least add
    /// ([`Self::at_least`]): once the running sum and that together are
    /// clear of `limit` — by [`PRUNE_SLACK`], since what is still owed is
    /// summed in another order than the total will be — the total is too.
    fn total_within(&self, probe: &[JobSignature], limit: f64) -> Option<f64> {
        let clear = limit * (1.0 + PRUNE_SLACK);
        let run_of = |p: &DistanceCoords| self.runs(p.kind()..p.kind() + 1);
        let mut owed: f64 =
            probe.iter().map(|sig| sig.coords()).map(|p| Self::at_least(run_of(&p), &p)).sum();
        let mut total = 0.0;
        for sig in probe {
            if total + owed > clear {
                return None;
            }
            let p = sig.coords();
            let run = run_of(&p);
            owed -= Self::at_least(run, &p);
            let mut nearest = Self::nearest_in(run, &p);
            // A same-kind match under the floor is the nearest overall: any
            // signature of another kind is at least the floor away. Without
            // one the other kinds are looked at too — unless the floor alone
            // already carries the sum past the limit.
            if nearest >= JobSignature::KIND_MISMATCH_FLOOR {
                if total + JobSignature::KIND_MISMATCH_FLOOR > limit {
                    return None;
                }
                nearest = self.nearest_of_other_kinds(&p, nearest);
            }
            total += nearest;
            if total > limit {
                return None;
            }
        }
        Some(total)
    }
}

/// One cache entry. See the module docs for the layout: a clone is the
/// same entry, held by one more cache.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    key: SignatureKey,
    solution: Arc<StoredSolution>,
    /// `None` for an entry stored without signatures.
    rows: Option<PackedRows>,
}

impl Slot {
    /// The entry for `solution` under `key`, its packed rows built.
    pub(crate) fn new(key: SignatureKey, solution: Arc<StoredSolution>) -> Self {
        let rows = solution.signatures().map(PackedRows::of);
        Slot { key, solution, rows }
    }
}

/// The entries of a cache that has just refused a probe, as the tier behind
/// it looks them up: their solutions' addresses, sorted, so each tier entry
/// is one binary search away from knowing whether it *is* one of them — the
/// same shared solution, not merely the same key.
struct Refused(Vec<*const StoredSolution>);

impl Refused {
    fn of(slots: &[Slot]) -> Self {
        let mut solutions: Vec<_> = slots.iter().map(|slot| Arc::as_ptr(&slot.solution)).collect();
        solutions.sort_unstable();
        Refused(solutions)
    }

    fn holds(&self, slot: &Slot) -> bool {
        self.0.binary_search(&Arc::as_ptr(&slot.solution)).is_ok()
    }
}

/// The bounded LRU mapping cache.
#[derive(Debug, Clone)]
pub struct MappingCache {
    capacity: usize,
    /// The entries in recency order, least recently used first; keys are
    /// unique.
    slots: Vec<Slot>,
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
        MappingCache { capacity, slots: Vec::new(), stats: CacheStats::default() }
    }

    /// The capacity bound.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The running counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Where `key`'s entry sits in the recency order, most recent first
    /// (where a recurring key is likeliest to be).
    fn position(&self, key: &SignatureKey) -> Option<usize> {
        self.slots.iter().rposition(|slot| slot.key == *key)
    }

    /// Whether `key` is cached, **without** counting a lookup or touching
    /// recency — the peek behind shared-tier-aware routing.
    pub(crate) fn contains_key(&self, key: &SignatureKey) -> bool {
        self.position(key).is_some()
    }

    /// The cached keys in recency order, least recently used first.
    pub(crate) fn keys_by_recency(&self) -> impl DoubleEndedIterator<Item = &SignatureKey> + '_ {
        self.slots.iter().map(|slot| &slot.key)
    }

    /// Removes the entry for `key` (counted as an eviction when present).
    pub(crate) fn remove(&mut self, key: &SignatureKey) -> Option<Arc<StoredSolution>> {
        let pos = self.position(key)?;
        self.stats.evictions += 1;
        Some(self.slots.remove(pos).solution)
    }

    /// Looks `key` up, counting a hit or miss and marking a hit entry most
    /// recently used.
    pub fn lookup(&mut self, key: &SignatureKey) -> Option<&StoredSolution> {
        let found = self.position(key);
        self.serve(found)
    }

    /// Counts the lookup whose outcome is `found` and hands out the entry,
    /// now the most recently used.
    fn serve(&mut self, found: Option<usize>) -> Option<&StoredSolution> {
        let Some(pos) = found else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.slots[pos..].rotate_left(1);
        self.slots.last().map(|slot| &*slot.solution)
    }

    /// Looks `key` up with a nearest-key fallback: on an exact-key miss, the
    /// stored entry with the minimum **mean per-job [`JobSignature`]
    /// distance** to `sigs` is served as a *near hit* if that mean is at
    /// most `epsilon` (each of the group's signatures is matched to its
    /// nearest stored signature — a cheap non-bijective proxy for the full
    /// assignment the adaptation itself performs). `epsilon <= 0` disables
    /// the probe, making this exactly [`MappingCache::lookup`].
    ///
    /// Only entries that stored signatures for the *same group size* `g` are
    /// candidates, so the adapted mapping always covers the group one-job-
    /// to-one-job. The tie-break is explicit: minimum mean distance first,
    /// then the **most recently used** entry among equal distances — recency,
    /// not insertion order, so evictions, re-insertions or a
    /// [`MappingCache::load`] of a persisted cache can never silently change
    /// which entry serves a tie. This is what lets mixed-tenant traffic —
    /// whose quantized signature multisets essentially never repeat exactly
    /// — still reuse solved mappings of *similar* groups.
    ///
    /// # How the scan stays cheap without changing the winner
    ///
    /// The probe is exact — it serves the entry an exhaustive
    /// every-entry × `g²` scan would serve (kept as the test oracle) — but
    /// does a fraction of the work:
    ///
    /// * **Order.** Entries are walked most recently used first, and an
    ///   entry replaces the incumbent only on a strictly smaller mean. The
    ///   first entry to reach the minimum is therefore the most recent one
    ///   that does: the recency tie-break, with no rank to compare.
    /// * **Two abandon bounds.** An entry's total is the sum, in job order,
    ///   of each probe job's nearest stored distance. Distances are
    ///   non-negative, so the running sum never shrinks and an entry is
    ///   dropped the moment the sum exceeds (1) `ε·g` — its mean is then
    ///   above `ε` — or (2) the incumbent's total: all candidates divide by
    ///   the same `g`, division by one positive number is monotone, so a
    ///   larger total cannot give a smaller mean, and at an equal mean the
    ///   more recent incumbent wins anyway. Both bounds only *prune*
    ///   (bound 1 with a slack, so rounding in `ε·g` never drops an
    ///   acceptable entry); whether a surviving entry is accepted and
    ///   whether it replaces the incumbent is decided on its mean, as in
    ///   the exhaustive scan.
    /// * **What is still owed.** Before an entry's first distance is taken,
    ///   each probe job is given a floor from the two ends of its kind's
    ///   rows (how far its size lies outside their range, or the mismatch
    ///   floor without such rows). The entry is dropped as soon as the
    ///   running sum plus the floors of the jobs still to come clears the
    ///   bound — with the same slack, since the floors are summed in another
    ///   order than the total — which is before the first job for a group
    ///   the entry plainly does not resemble.
    /// * **Partition and order.** A probe job is compared with the stored
    ///   jobs of its own `(class, task)` first (the packed rows built at
    ///   insert), outwards from the nearest in size and only while a row's
    ///   size gap — a lower bound of its distance — is under the nearest
    ///   found. A match under [`JobSignature::KIND_MISMATCH_FLOOR`] is final,
    ///   since jobs of any other kind are at least that far away; otherwise
    ///   the other tasks of its layer class are scanned, and the other
    ///   classes only if nothing nearer than a class penalty turned up —
    ///   unless the floor alone already carries the sum past a bound.
    ///
    /// The exhaustive every-entry scan is kept as the test oracle: every
    /// pick, counter and entry total must match it to the bit.
    pub fn lookup_near(
        &mut self,
        key: &SignatureKey,
        sigs: &[JobSignature],
        epsilon: f64,
    ) -> Option<&StoredSolution> {
        self.lookup_near_after(key, sigs, epsilon, &[])
    }

    /// [`MappingCache::lookup_near`] for the tier behind a cache that has
    /// just refused the same probe: an entry that *is* one of `refused` —
    /// the same shared solution, not merely the same key — was over
    /// `epsilon` there and is over it here, so the nearest-key probe does
    /// not walk it again.
    fn lookup_near_after(
        &mut self,
        key: &SignatureKey,
        sigs: &[JobSignature],
        epsilon: f64,
        refused: &[Slot],
    ) -> Option<&StoredSolution> {
        let mut found = self.position(key);
        if found.is_none() && epsilon > 0.0 {
            found = self.nearest(sigs, epsilon, &Refused::of(refused));
            self.stats.near_hits += u64::from(found.is_some());
        }
        self.serve(found)
    }

    /// The position of the entry [`MappingCache::lookup_near`] serves as a
    /// near hit, if any is within `epsilon`.
    fn nearest(&self, probe: &[JobSignature], epsilon: f64, refused: &Refused) -> Option<usize> {
        let jobs = probe.len().max(1) as f64;
        let cutoff = epsilon * jobs * (1.0 + PRUNE_SLACK);
        // The incumbent as (position, total).
        let mut best: Option<(usize, f64)> = None;
        for (pos, slot) in self.slots.iter().enumerate().rev() {
            let Some(rows) = slot.rows.as_ref().filter(|r| r.rows.len() == probe.len()) else {
                continue;
            };
            if refused.holds(slot) {
                continue;
            }
            let limit = best.map_or(cutoff, |(_, best_total)| cutoff.min(best_total));
            let Some(total) = rows.total_within(probe, limit) else { continue };
            let mean = total / jobs;
            if mean <= epsilon && best.is_none_or(|(_, best_total)| mean < best_total / jobs) {
                best = Some((pos, total));
            }
        }
        best.map(|(pos, _)| pos)
    }

    /// Puts `slot` in as the most recently used entry, replacing its key's
    /// previous entry if there is one — whose key it keeps: the allocation
    /// the key's other holders (an affinity pin) may still share.
    fn place(&mut self, mut slot: Slot) {
        if let Some(pos) = self.position(&slot.key) {
            slot.key = self.slots.remove(pos).key;
        }
        self.slots.push(slot);
    }

    /// Inserts (or replaces) the entry for `key`, marks it most recently
    /// used and evicts the least recently used entry when over capacity.
    /// Returns the evicted key, so whoever routes by key (the
    /// [`ShardRouter`](crate::router::ShardRouter)'s affinity pins) can
    /// forget it too.
    pub fn insert(
        &mut self,
        key: SignatureKey,
        solution: impl Into<Arc<StoredSolution>>,
    ) -> Option<SignatureKey> {
        self.insert_slot(Slot::new(key, solution.into()))
    }

    /// [`MappingCache::insert`] of a built entry: a completion that hands
    /// clones of one entry to a shard's cache and to the fleet tier stores
    /// its key, rows and solution once.
    pub(crate) fn insert_slot(&mut self, slot: Slot) -> Option<SignatureKey> {
        self.stats.insertions += 1;
        self.place(slot);
        // One insert grows a cache that was within bounds by at most one.
        if self.slots.len() <= self.capacity {
            return None;
        }
        self.stats.evictions += 1;
        Some(self.slots.remove(0).key)
    }

    /// Re-bounds the cache to `capacity`, evicting least recently used
    /// entries (counted in the stats) until it fits. Used when a persisted
    /// cache is installed under a configuration with a smaller capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn rebound(&mut self, capacity: usize) {
        assert!(capacity > 0, "a mapping cache must hold at least one entry");
        self.capacity = capacity;
        let excess = self.slots.len().saturating_sub(capacity);
        self.slots.drain(..excess);
        self.stats.evictions += excess as u64;
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

    /// Loads a cache previously written by [`MappingCache::save`]. A file
    /// that parses but is inconsistent — a mapping that breaks its own
    /// invariants, signatures or a key that do not cover the mapping's jobs —
    /// is an error like any other unreadable file: it must not reach a hit.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

// Hand-written because `SignatureKey` serializes as an array, which the
// generic map impls cannot use as a JSON object key: entries are emitted as
// a sequence of `[key, solution]` pairs in LRU→MRU order — the slots as they
// stand, minus the derived index.
impl Serialize for MappingCache {
    fn to_value(&self) -> Value {
        let entries: Vec<Value> = self
            .slots
            .iter()
            .map(|slot| Value::Seq(vec![slot.key.to_value(), slot.solution.to_value()]))
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
        let mut cache = MappingCache { capacity, slots: Vec::with_capacity(pairs.len()), stats };
        // Pairs are stored LRU-first; placing them in order reproduces the
        // recency order exactly.
        for (i, (key, solution)) in pairs.into_iter().enumerate() {
            let jobs = solution.mapping().num_jobs();
            if key.len() != jobs {
                return Err(DeError::custom(format!(
                    "field entries: entry {i} keys {} jobs but maps {jobs}",
                    key.len()
                )));
            }
            cache.place(Slot::new(key, Arc::new(solution)));
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
pub(crate) struct SharedCache {
    cache: MappingCache,
    tenant_quota: usize,
    /// Publishing tenant of each live entry (quota bookkeeping).
    owners: HashMap<SignatureKey, usize>,
    /// Live entries per publishing tenant: `owners`, counted by value.
    held: HashMap<usize, usize>,
}

impl SharedCache {
    /// Creates an empty shared tier bounded to `capacity` entries, with at
    /// most `tenant_quota` entries per publishing tenant (0 = no quota).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize, tenant_quota: usize) -> Self {
        SharedCache {
            cache: MappingCache::new(capacity),
            tenant_quota,
            owners: HashMap::new(),
            held: HashMap::new(),
        }
    }

    /// Number of shared entries.
    pub(crate) fn len(&self) -> usize {
        self.cache.len()
    }

    /// The tier's own hit/miss/eviction counters (disjoint from the
    /// per-shard counters: a shard miss that the tier serves counts as a
    /// shard miss *and* a shared hit).
    pub(crate) fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of live entries published by `tenant`.
    pub(crate) fn tenant_entries(&self, tenant: usize) -> usize {
        self.held.get(&tenant).copied().unwrap_or(0)
    }

    /// Records `tenant` as the owner of `key`'s entry, in place of whoever
    /// published the key before.
    fn own(&mut self, key: SignatureKey, tenant: usize) {
        self.disown(&key);
        self.owners.insert(key, tenant);
        *self.held.entry(tenant).or_insert(0) += 1;
    }

    /// Forgets the owner of an entry that left the tier.
    fn disown(&mut self, key: &SignatureKey) {
        let Some(tenant) = self.owners.remove(key) else { return };
        let held = self.held.get_mut(&tenant).expect("an owner is counted");
        *held -= 1;
        if *held == 0 {
            self.held.remove(&tenant);
        }
    }

    /// How many of the tier's entries are entries of `cache` too: one
    /// solution, published to both.
    #[cfg(test)]
    pub(crate) fn shared_with(&self, cache: &MappingCache) -> usize {
        let theirs = Refused::of(&cache.slots);
        self.cache.slots.iter().filter(|slot| theirs.holds(slot)).count()
    }

    /// Whether the tier and `cache` hold `key`'s entry as one: the tier's
    /// entry, the tier's quota book and `cache`'s entry hold the very key
    /// `key` is, and the two entries one rows buffer and one solution.
    #[cfg(test)]
    pub(crate) fn holds_as_one(&self, cache: &MappingCache, key: &SignatureKey) -> bool {
        let entry = |slots: &[Slot]| slots.iter().find(|slot| slot.key == *key).cloned();
        let (Some(ours), Some(theirs)) = (entry(&self.cache.slots), entry(&cache.slots)) else {
            return false;
        };
        let booked = self.owners.get_key_value(key).is_some_and(|(booked, _)| booked.is(key));
        let one_rows = match (&ours.rows, &theirs.rows) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.rows, &b.rows),
            _ => false,
        };
        booked
            && ours.key.is(key)
            && theirs.key.is(key)
            && one_rows
            && Arc::ptr_eq(&ours.solution, &theirs.solution)
    }

    /// Whether `key` is in the tier, without counting a lookup — the cheap
    /// peek behind shared-tier-aware placement ([`crate::ShardRouter`]).
    pub(crate) fn contains(&self, key: &SignatureKey) -> bool {
        self.cache.contains_key(key)
    }

    /// The shard-miss fallthrough: [`MappingCache::lookup_near`] over the
    /// shared LRU (same epsilon semantics and tie-break) for the shard whose
    /// own cache, `refused`, has just failed the same lookup. The entries the
    /// tier shares with that cache — one solution published to both — were
    /// over `epsilon` there and are not walked again; the entry served is
    /// the one a walk of the whole tier would serve.
    pub(crate) fn lookup_near(
        &mut self,
        key: &SignatureKey,
        sigs: &[JobSignature],
        epsilon: f64,
        refused: &MappingCache,
    ) -> Option<&StoredSolution> {
        self.cache.lookup_near_after(key, sigs, epsilon, &refused.slots)
    }

    /// [`SharedCache::publish_slot`] of a fresh entry.
    #[cfg(test)]
    pub(crate) fn publish(
        &mut self,
        key: SignatureKey,
        solution: impl Into<Arc<StoredSolution>>,
        tenant: usize,
    ) {
        self.publish_slot(Slot::new(key, solution.into()), tenant);
    }

    /// Publishes a built entry — a clone of the one the publishing shard's
    /// cache takes — to the shared tier on behalf of `tenant`, then enforces
    /// the tenant quota (evicting the tenant's own LRU entries) and the
    /// global capacity.
    pub(crate) fn publish_slot(&mut self, slot: Slot, tenant: usize) {
        // Keep the owner map aligned with the live set: capacity eviction
        // inside `insert` is the only way an entry leaves it unseen.
        if let Some(evicted) = self.cache.insert_slot(slot) {
            self.disown(&evicted);
        }
        // The key as the tier holds it: a replaced entry's, if there was one.
        let key = self.cache.slots.last().expect("just inserted").key.clone();
        self.own(key.clone(), tenant);
        if self.tenant_quota > 0 {
            while self.tenant_entries(tenant) > self.tenant_quota {
                let victim = self
                    .cache
                    .keys_by_recency()
                    .find(|k| self.owners.get(*k) == Some(&tenant) && **k != key)
                    .cloned()
                    .expect("over-quota tenant owns an older entry");
                self.cache.remove(&victim);
                self.disown(&victim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_m3e::Mapping;
    use magma_model::{TaskType, WorkloadSpec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl MappingCache {
        /// The near-hit probe as it was before it learned to abandon: every
        /// entry, every pair of signatures, the winner keyed on
        /// `(mean, recency rank)`. The oracle [`MappingCache::lookup_near`]
        /// must agree with on every pick, counter and recency order.
        fn lookup_near_exhaustive(
            &mut self,
            key: &SignatureKey,
            sigs: &[JobSignature],
            epsilon: f64,
        ) -> Option<&StoredSolution> {
            if epsilon <= 0.0 || self.contains_key(key) {
                return self.lookup(key);
            }
            // Best candidate as (mean distance, recency rank). The slots are
            // LRU-first, so a *higher* rank is *more* recently used.
            let mut best: Option<(f64, usize)> = None;
            for (rank, slot) in self.slots.iter().enumerate() {
                let Some(stored_sigs) = slot.solution.signatures() else { continue };
                if stored_sigs.len() != sigs.len() {
                    continue;
                }
                let total: f64 = sigs
                    .iter()
                    .map(|s| {
                        stored_sigs.iter().map(|t| s.distance(t)).fold(f64::INFINITY, f64::min)
                    })
                    .sum();
                let mean = total / sigs.len().max(1) as f64;
                if mean <= epsilon
                    && best.is_none_or(|(bd, br)| mean < bd || (mean == bd && rank > br))
                {
                    best = Some((mean, rank));
                }
            }
            if best.is_some() {
                self.stats.near_hits += 1;
            }
            self.serve(best.map(|(_, rank)| rank))
        }
    }

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
    fn a_key_serializes_as_its_signature_array_and_reads_back_equal() {
        use magma_model::{Job, JobId, LayerShape};
        let fc = LayerShape::FullyConnected { out_features: 256, in_features: 64 };
        let jobs = [
            Job::new(JobId(0), "m", 0, fc, 4, TaskType::Recommendation),
            Job::new(JobId(1), "m", 1, LayerShape::pointwise(32, 64, 14, 14), 1, TaskType::Vision),
        ];
        let sigs: Vec<JobSignature> = jobs.iter().map(Job::signature).collect();
        let key = quantize_signatures(&sigs, 1.0);
        // The bytes a key held in a vector serialized to.
        let before = concat!(
            r#"[{"task":"Vision","class":"Conv","macs_bucket":13,"weights_bucket":8,"#,
            r#""activations_bucket":10},{"task":"Recommendation","class":"FullyConnected","#,
            r#""macs_bucket":11,"weights_bucket":10,"activations_bucket":7}]"#,
        );
        assert_eq!(serde_json::to_string(&key).unwrap(), before);
        let back: SignatureKey = serde_json::from_str(before).unwrap();
        assert_eq!(back, key);
        assert!(!back.is(&key), "read back into an allocation of its own");
        // Hashed as the vector was: a hash map's buckets do not move.
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(hasher.hash_one(&key), hasher.hash_one(key.0.to_vec()));
        assert!(serde_json::from_str::<SignatureKey>(r#"{"task":"Vision"}"#).is_err());
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
        assert!(back.keys_by_recency().eq(cache.keys_by_recency()));
        for (a, b) in back.slots.iter().zip(&cache.slots) {
            assert_eq!(a.solution, b.solution);
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
        assert!(back.keys_by_recency().eq(cache.keys_by_recency()));
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
        assert!(shared.lookup_near(&key_v, &sigs, 0.0, &MappingCache::new(1)).is_some());
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

    #[test]
    fn load_rejects_a_key_that_does_not_cover_the_mapping() {
        let mut cache = MappingCache::new(2);
        let (key, _) = profiled_solution(TaskType::Vision, 8, 0);
        cache.insert(key, solution(8, 0));
        let json = serde_json::to_string(&cache).unwrap();
        assert!(serde_json::from_str::<MappingCache>(&json).is_ok());
        // The same key in front of a seven-job mapping.
        let bent = json.replace(
            &serde_json::to_string(&solution(8, 0)).unwrap(),
            &serde_json::to_string(&solution(7, 0)).unwrap(),
        );
        assert_ne!(bent, json);
        let err = serde_json::from_str::<MappingCache>(&bent).unwrap_err().to_string();
        assert!(err.contains("keys 8 jobs but maps 7"), "{err}");
    }

    #[test]
    fn kind_index_groups_every_position_by_class_and_task() {
        let sigs = WorkloadSpec::single_group(TaskType::Mix, 40, 1).signatures();
        let packed = PackedRows::of(&sigs);
        assert_eq!(packed.rows.len(), sigs.len());
        assert_eq!(*packed.starts.last().unwrap() as usize, sigs.len(), "every job is in a run");
        for kind in 0..DistanceCoords::KINDS {
            // A kind's run holds exactly the kind's signatures, leading
            // coordinate ascending.
            let mut of_kind: Vec<DistanceCoords> = sigs
                .iter()
                .filter(|s| s.coords().kind() == kind)
                .map(JobSignature::coords)
                .collect();
            of_kind.sort_by(|a, b| a.size().total_cmp(&b.size()));
            let run = packed.runs(kind..kind + 1);
            assert_eq!(run.len(), of_kind.len());
            assert!(run.windows(2).all(|w| w[0].size() <= w[1].size()));
            let leading = |rows: &[DistanceCoords]| -> Vec<f64> {
                rows.iter().map(DistanceCoords::size).collect()
            };
            assert_eq!(leading(run), leading(&of_kind));
        }
        let kinds =
            (0..DistanceCoords::KINDS).filter(|&k| !packed.runs(k..k + 1).is_empty()).count();
        assert!(kinds > 1, "a Mix group spans several kinds");
    }

    /// 30-job groups the way the benchmark's `rpc_mix` draws them — every job
    /// a random accelerator layer of a random zoo model at a mini-batch from
    /// {1, 2, 4, 8} — profiled on S2 the way a shard profiles what it serves.
    fn zoo_groups(seed: u64) -> impl FnMut() -> Vec<JobSignature> {
        use magma_m3e::{M3e, Objective};
        use magma_model::{zoo, Group, Job, JobId};
        use magma_platform::{settings, Setting};
        let layers: Vec<_> = zoo::models_for_task(TaskType::Mix)
            .iter()
            .flat_map(|m| {
                let layer = |(i, l): (usize, &_)| (m.name().to_string(), m.task(), i, *l);
                m.layers().iter().enumerate().map(layer).collect::<Vec<_>>()
            })
            .filter(|(_, _, _, l)| l.runs_on_accelerator())
            .collect();
        let platform = settings::build(Setting::S2);
        let mut rng = StdRng::seed_from_u64(seed);
        move || {
            let jobs = (0..30)
                .map(|k| {
                    let (model, task, index, layer) =
                        layers[rng.gen_range(0..layers.len())].clone();
                    let batch = 1usize << rng.gen_range(0..4u32);
                    Job::new(JobId(k), model, index, layer, batch, task)
                })
                .collect();
            M3e::new(platform.clone(), Group::new(jobs), Objective::Throughput)
                .signatures()
                .to_vec()
        }
    }

    fn evals_of<T>(probe: impl FnOnce() -> T) -> (T, u64) {
        let before = DISTANCE_EVALS.with(std::cell::Cell::get);
        let out = probe();
        (out, DISTANCE_EVALS.with(std::cell::Cell::get) - before)
    }

    #[test]
    fn a_probe_of_unrelated_groups_abandons_most_of_the_pairwise_work() {
        // 64 stored 30-job groups and a 30-job stranger: the exhaustive scan
        // evaluates 64 · 30² = 57 600 distances, the walk through a kind
        // index this probe replaced gathered 11 636 on these groups, the
        // packed rows 474. Pinned as a count under a quarter of the first and
        // half of the second, so losing the abandon bounds, the kind
        // partition or the row order shows here and not first in the
        // benchmark.
        const ENTRIES: usize = 64;
        const JOBS: usize = 30;
        const GATHERED: u64 = 11_636;
        // Every job an independent draw from a long Mix workload.
        let pool = WorkloadSpec::new(TaskType::Mix, 2000).build_jobs();
        let mut rng = StdRng::seed_from_u64(17);
        let mut group = || -> Vec<JobSignature> {
            (0..JOBS).map(|_| pool[rng.gen_range(0..pool.len())].signature()).collect()
        };
        let mut cache = MappingCache::new(ENTRIES);
        for seed in 0..ENTRIES as u64 {
            let sigs = group();
            cache.insert(
                quantize_signatures(&sigs, 1.0),
                StoredSolution::new(solution(JOBS, seed).mapping().clone(), Some(sigs)),
            );
        }
        assert_eq!(cache.len(), ENTRIES, "every group has its own key");
        let probe = group();
        let probe_key = quantize_signatures(&probe, 1.0);
        let mut oracle = cache.clone();
        let (served, evals) = evals_of(|| cache.lookup_near(&probe_key, &probe, 1.0).cloned());
        assert_eq!(served, oracle.lookup_near_exhaustive(&probe_key, &probe, 1.0).cloned());
        assert!(evals > 0, "the probe did look");
        assert!(
            evals < (ENTRIES * JOBS * JOBS / 4) as u64 && evals * 2 <= GATHERED,
            "{evals} distance evaluations for one probe of {ENTRIES} entries ({GATHERED} gathered)"
        );
    }

    #[test]
    fn a_miss_at_full_caches_evaluates_under_half_the_distances_it_used_to() {
        // The daemon at saturation: a shard cache of 58 entries behind which
        // the fleet tier holds 232, the shard's 58 among them (every fourth
        // publish was this shard's). A never-seen group misses both. Walked
        // through a kind index, both passes in full, that was ≈ 56 K
        // signature pairs a miss on the benchmark's groups — 70 758 on
        // these, drawn the same way, where the packed rows evaluate 8 195.
        // Pinned as a count (counts repeat exactly; the timing is the
        // ladder's `serve.cache.lookup_near_us`).
        const PUBLISHED: usize = 232;
        const GATHERED: u64 = 70_758;
        let mut group = zoo_groups(23);
        let mut shard = MappingCache::new(64);
        let mut tier = SharedCache::new(256, 0);
        for i in 0..PUBLISHED {
            let sigs = group();
            let key = quantize_signatures(&sigs, 1.0);
            let stored = Arc::new(StoredSolution::new(
                solution(sigs.len(), i as u64).mapping().clone(),
                Some(sigs),
            ));
            if i % 4 == 0 {
                shard.insert(key.clone(), Arc::clone(&stored));
            }
            tier.publish(key, stored, 0);
        }
        assert_eq!((shard.len(), tier.len()), (PUBLISHED / 4, PUBLISHED));

        let probe = group();
        let key = quantize_signatures(&probe, 1.0);
        let (_, evals) = evals_of(|| {
            assert!(shard.lookup_near(&key, &probe, 1.0).is_none(), "a stranger misses the shard");
            assert!(tier.lookup_near(&key, &probe, 1.0, &shard).is_none(), "and the tier");
        });
        assert!(evals * 2 <= GATHERED, "{evals} distance evaluations a miss, {GATHERED} before");
        // What the identity skip is worth on its own: the tier pass without
        // it walks the shard's 58 entries a second time (8 195 against
        // 6 125 evaluations), to the same miss.
        let mut unskipped = tier.clone();
        let nobody = MappingCache::new(1);
        let (_, skipping) = evals_of(|| tier.lookup_near(&key, &probe, 1.0, &shard).is_none());
        let (_, whole) = evals_of(|| unskipped.lookup_near(&key, &probe, 1.0, &nobody).is_none());
        assert!(skipping < whole, "{skipping} with the skip, {whole} without");
        assert_eq!(tier.stats(), unskipped.stats());
        // And it misses none of them: the pass costs what a walk of the tier
        // without the shard's entries costs.
        let mut unshared = tier.clone();
        for shared in shard.keys_by_recency() {
            unshared.cache.remove(shared);
        }
        let (_, rest) = evals_of(|| unshared.lookup_near(&key, &probe, 1.0, &nobody).is_none());
        assert_eq!(skipping, rest, "evaluations with the skip and without the shared entries");
    }

    /// A pool signature set. Half of the time a window of a task's workload —
    /// one time in three with its tail swapped for another task's, so that a
    /// probe finds some of its kinds in an entry and misses others —
    /// profiled (a core class per job) half of the time: small pools of
    /// tasks, sizes and seeds, so sets recur exactly and nearly. Otherwise
    /// random layers of three shapes and two tasks, close in size and each
    /// with a profile of its own, so that runs are long and the nearest row
    /// is rarely the nearest in size.
    fn pool_signatures(rng: &mut StdRng) -> Vec<JobSignature> {
        use magma_model::{Job, JobId, LayerShape};
        fn window(rng: &mut StdRng, jobs: usize) -> Vec<JobSignature> {
            let task = TaskType::ALL[rng.gen_range(0..TaskType::ALL.len())];
            WorkloadSpec::single_group(task, jobs, rng.gen_range(0..6)).signatures()
        }
        let profile = |rng: &mut StdRng, sig: JobSignature| {
            let latencies = [rng.gen_range(1e-6..1e-2), rng.gen_range(1e-6..1e-2)];
            sig.with_core_class(JobSignature::encode_core_class(&latencies))
        };
        let jobs = [1, 2, 3, 5, 8, 21][rng.gen_range(0..6)];
        if rng.gen_range(0..2) == 0 {
            return (0..jobs)
                .map(|_| {
                    let layer = match rng.gen_range(0..3) {
                        0 => LayerShape::pointwise(
                            32 << rng.gen_range(0..3),
                            32 << rng.gen_range(0..3),
                            rng.gen_range(7..29),
                            rng.gen_range(7..29),
                        ),
                        1 => LayerShape::FullyConnected {
                            out_features: rng.gen_range(256..2048),
                            in_features: rng.gen_range(256..2048),
                        },
                        _ => LayerShape::Gemm {
                            m: rng.gen_range(16..128),
                            n: rng.gen_range(16..128),
                            kdim: 64,
                        },
                    };
                    let task = [TaskType::Vision, TaskType::Language][rng.gen_range(0..2)];
                    let batch = 1 << rng.gen_range(0..3);
                    profile(rng, Job::new(JobId(0), "m", 0, layer, batch, task).signature())
                })
                .collect();
        }
        let mut sigs = window(rng, jobs);
        if rng.gen_range(0..3) == 0 {
            let tail = rng.gen_range(0..jobs);
            sigs.truncate(tail);
            sigs.extend(window(rng, jobs).drain(tail..));
        }
        if rng.gen_range(0..2) == 0 {
            for sig in &mut sigs {
                *sig = profile(rng, *sig);
            }
        }
        sigs
    }

    /// Both caches took the same calls so far: same entries in the same
    /// recency order, same counters.
    fn assert_same_state(fast: &MappingCache, oracle: &MappingCache) -> Result<(), TestCaseError> {
        prop_assert_eq!(fast.stats(), oracle.stats());
        prop_assert!(fast.keys_by_recency().eq(oracle.keys_by_recency()));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The exactness proof of the near-hit probe: on random caches —
        // mixed group sizes, entries without signatures, entries that hold
        // some of a probe's kinds and lack others, one signature set under
        // several keys (exact distance ties, which go to the more recent
        // entry), recency shuffled by lookups, epsilon from "off" to
        // "accepts everything" — the probe and the exhaustive oracle serve
        // the same entry and leave the same counters and recency order, also
        // across a save/load round trip.
        #[test]
        fn lookup_near_matches_the_exhaustive_oracle(seed in 0u64..u64::MAX) {
            const EPSILONS: [f64; 9] = [0.0, 1e-3, 0.3, 1.0, 3.0, 8.0, 40.0, 1e9, f64::INFINITY];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = MappingCache::new(rng.gen_range(1..13));
            let mut oracle = fast.clone();
            let mut keys: Vec<SignatureKey> = Vec::new();
            for op in 0..60u64 {
                if op == 40 {
                    // A restart in the middle: the derived per-entry index is
                    // rebuilt from the persisted form alone.
                    let json = serde_json::to_string_pretty(&fast).unwrap();
                    prop_assert_eq!(&json, &serde_json::to_string_pretty(&oracle).unwrap());
                    fast = serde_json::from_str(&json).unwrap();
                }
                let sigs = pool_signatures(&mut rng);
                // The step decides whether a recurring set recurs under its
                // old key (an exact hit) or under a new one (a tie).
                let key = quantize_signatures(&sigs, [0.05, 1.0][rng.gen_range(0..2)]);
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let mapping = Mapping::random(&mut rng, sigs.len(), 4);
                        let stored = (rng.gen_range(0..5) > 0).then_some(sigs);
                        let solution = StoredSolution::new(mapping, stored);
                        keys.push(key.clone());
                        prop_assert_eq!(
                            fast.insert(key.clone(), solution.clone()),
                            oracle.insert(key, solution)
                        );
                    }
                    4 if !keys.is_empty() => {
                        let key = &keys[rng.gen_range(0..keys.len())];
                        prop_assert_eq!(fast.lookup(key), oracle.lookup(key));
                    }
                    _ => {
                        let epsilon = EPSILONS[rng.gen_range(0..EPSILONS.len())];
                        // Entry by entry, not only the pick: the walk's total
                        // is the exhaustive one to the bit, and is withheld
                        // exactly when it is over the limit.
                        for slot in &fast.slots {
                            let (Some(rows), Some(stored)) =
                                (&slot.rows, slot.solution.signatures()) else { continue };
                            if stored.len() != sigs.len() {
                                continue;
                            }
                            let total: f64 = sigs
                                .iter()
                                .map(|s| stored.iter().map(|t| s.distance(t)).fold(f64::INFINITY, f64::min))
                                .sum();
                            let walked = rows.total_within(&sigs, f64::INFINITY);
                            prop_assert_eq!(walked.map(f64::to_bits), Some(total.to_bits()));
                            let limit = epsilon * sigs.len() as f64;
                            let within = rows.total_within(&sigs, limit);
                            prop_assert_eq!(within.map(f64::to_bits), walked.filter(|&t| t <= limit).map(f64::to_bits));
                        }
                        let served = fast.lookup_near(&key, &sigs, epsilon).cloned();
                        let expected = oracle.lookup_near_exhaustive(&key, &sigs, epsilon).cloned();
                        prop_assert_eq!(served, expected);
                    }
                }
                assert_same_state(&fast, &oracle)?;
            }
        }
    }
}
