//! The fleet router: places admitted dispatch groups on platform shards.
//!
//! A fleet is N independent platform shards, each with its own mapper,
//! accelerator and mapping cache. The router's job is to pick the shard a
//! freshly cut group searches and executes on, balancing two forces:
//!
//! * **Signature affinity** — a group whose quantized signature key was seen
//!   before should return to the shard that served it, because that shard's
//!   cache holds the adapted solution (a hit elsewhere is a guaranteed cold
//!   search). Affinity is sticky: the first placement of a key pins it, and
//!   the pin lasts as long as the warm state it points at — when the pinned
//!   shard's cache evicts the key, [`ShardRouter::forget`] drops the pin, so
//!   the map is bounded by the caches it mirrors rather than by how many
//!   distinct keys the fleet has ever seen. A pin holds a clone of the
//!   group's [`SignatureKey`], which shares its signatures with the plan and
//!   with the cache entries the completion publishes: a pin costs a pointer
//!   and a shard index, not a copy of the key.
//! * **Load** — unseen keys go to the least-loaded *admissible* shard (the
//!   caller restricts admissibility to shards with scheduler room), with the
//!   lowest index winning ties, so placement is a pure function of the
//!   router state and the load snapshot.
//!
//! The affinity map is only ever written on a placement decision and read
//! back deterministically, so fleet runs are bit-identical across repeats
//! and `MAGMA_THREADS` settings — the property
//! `tests/integration_fleet.rs` locks down (with proptest invariants over
//! arbitrary placement sequences).

use crate::cache::SignatureKey;
use std::collections::HashMap;

/// Placement counters of one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Groups placed in total.
    pub placed: u64,
    /// Placements that followed a sticky affinity entry.
    pub affinity_hits: u64,
    /// Placements routed purely by load because the fleet's shared cache
    /// tier already held the group's exact key (see
    /// [`ShardRouter::place_balanced`]).
    pub shared_balanced: u64,
}

/// The shard placement engine. See the module docs for the policy.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    affinity: HashMap<SignatureKey, usize>,
    per_shard: Vec<u64>,
    stats: RouterStats,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        ShardRouter {
            shards,
            affinity: HashMap::new(),
            per_shard: vec![0; shards],
            stats: RouterStats::default(),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Placement counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Groups placed on each shard so far.
    pub fn per_shard(&self) -> &[u64] {
        &self.per_shard
    }

    /// Keys currently pinned to a shard.
    pub fn pinned(&self) -> usize {
        self.affinity.len()
    }

    /// The pinned key equal to `key` — the allocation the pin holds.
    #[cfg(test)]
    pub(crate) fn pinned_key(&self, key: &SignatureKey) -> Option<&SignatureKey> {
        self.affinity.get_key_value(key).map(|(pinned, _)| pinned)
    }

    /// Drops `key`'s pin if it points at `shard` — called when that shard
    /// no longer holds the key's mapping (its cache evicted it, or the
    /// session that would have stored it was dropped), so returning there
    /// buys nothing. A key re-pinned elsewhere in the meantime keeps its pin.
    pub fn forget(&mut self, key: &SignatureKey, shard: usize) {
        if self.affinity.get(key) == Some(&shard) {
            self.affinity.remove(key);
        }
    }

    /// Places a group with signature `key` given the current per-shard
    /// `load` (any monotone congestion measure; the fleet uses live session
    /// counts plus mapper backlog) and an admissibility mask (shards with
    /// scheduler room). Returns the chosen shard index.
    ///
    /// Affinity wins when the pinned shard is admissible; otherwise the
    /// least-loaded admissible shard, lowest index on ties. The first
    /// placement of a key (re-)pins its affinity, so a key displaced by a
    /// full shard sticks to its new home afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the shard count or no shard
    /// is admissible (the fleet loop only cuts a group once one is).
    pub fn place(&mut self, key: &SignatureKey, load: &[f64], admissible: &[bool]) -> usize {
        assert_eq!(load.len(), self.shards, "one load entry per shard");
        assert_eq!(admissible.len(), self.shards, "one admissibility flag per shard");
        let chosen = match self.affinity.get(key) {
            Some(&s) if admissible[s] => {
                self.stats.affinity_hits += 1;
                s
            }
            _ => {
                let s = least_loaded(load, admissible).expect("at least one admissible shard");
                self.affinity.insert(key.clone(), s);
                s
            }
        };
        self.stats.placed += 1;
        self.per_shard[chosen] += 1;
        chosen
    }

    /// Places a group purely by load, ignoring (and not re-pinning) any
    /// affinity entry. The fleet loop calls this when its shared cache tier
    /// holds the group's exact key: every shard then serves the group warm
    /// through the tier fallthrough, so cache affinity buys nothing and the
    /// least-loaded admissible shard (lowest index on ties) is strictly
    /// better. Counted as [`RouterStats::shared_balanced`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ShardRouter::place`].
    pub fn place_balanced(&mut self, load: &[f64], admissible: &[bool]) -> usize {
        assert_eq!(load.len(), self.shards, "one load entry per shard");
        assert_eq!(admissible.len(), self.shards, "one admissibility flag per shard");
        let chosen = least_loaded(load, admissible).expect("at least one admissible shard");
        self.stats.shared_balanced += 1;
        self.stats.placed += 1;
        self.per_shard[chosen] += 1;
        chosen
    }
}

/// The admissible shard with the smallest load; lowest index wins ties
/// (strict `<` while scanning left to right).
fn least_loaded(load: &[f64], admissible: &[bool]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, (&l, &ok)) in load.iter().zip(admissible).enumerate() {
        if !ok {
            continue;
        }
        match best {
            Some((_, bl)) if l >= bl => {}
            _ => best = Some((i, l)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::quantize_signatures;
    use magma_model::{Job, JobId, LayerShape, TaskType};

    fn key(tag: usize) -> SignatureKey {
        let job = Job::new(
            JobId(0),
            "m",
            0,
            LayerShape::FullyConnected { out_features: 64 << tag, in_features: 64 },
            4,
            TaskType::Recommendation,
        );
        quantize_signatures(&[job.signature()], 1.0)
    }

    #[test]
    fn unseen_keys_go_least_loaded_with_lowest_index_ties() {
        let mut r = ShardRouter::new(3);
        let all = [true, true, true];
        assert_eq!(r.place(&key(0), &[2.0, 1.0, 1.0], &all), 1, "tie broken low");
        assert_eq!(r.place(&key(1), &[0.0, 5.0, 0.0], &all), 0);
        assert_eq!(r.stats().placed, 2);
        assert_eq!(r.stats().affinity_hits, 0);
    }

    #[test]
    fn repeated_keys_stick_to_their_first_shard() {
        let mut r = ShardRouter::new(4);
        let all = [true; 4];
        let first = r.place(&key(7), &[3.0, 0.0, 0.0, 0.0], &all);
        assert_eq!(first, 1);
        // Even when another shard is now emptier, affinity wins.
        assert_eq!(r.place(&key(7), &[0.0, 9.0, 0.0, 0.0], &all), 1);
        assert_eq!(r.stats().affinity_hits, 1);
    }

    #[test]
    fn inadmissible_affinity_shard_re_pins_the_key() {
        let mut r = ShardRouter::new(2);
        assert_eq!(r.place(&key(3), &[0.0, 1.0], &[true, true]), 0);
        // Shard 0 is full: the key moves to shard 1 and re-pins there.
        assert_eq!(r.place(&key(3), &[0.0, 1.0], &[false, true]), 1);
        assert_eq!(r.place(&key(3), &[0.0, 9.0], &[true, true]), 1, "re-pinned");
    }

    #[test]
    fn shared_keys_balance_by_load_without_touching_affinity() {
        let mut r = ShardRouter::new(3);
        let all = [true, true, true];
        // The key pins to shard 0 on first sight ...
        assert_eq!(r.place(&key(2), &[0.0, 1.0, 1.0], &all), 0);
        // ... but while the shared tier holds it, load wins over affinity.
        assert_eq!(r.place_balanced(&[5.0, 0.5, 1.0], &all), 1);
        assert_eq!(r.stats().shared_balanced, 1);
        // The balanced placement did not re-pin: affinity still says 0.
        assert_eq!(r.place(&key(2), &[9.0, 0.0, 0.0], &all), 0);
        assert_eq!(r.stats().affinity_hits, 1);
        assert_eq!(r.stats().placed, 3);
    }

    #[test]
    fn forgetting_unpins_only_the_shard_that_lost_the_key() {
        let mut r = ShardRouter::new(2);
        let all = [true, true];
        assert_eq!(r.place(&key(1), &[0.0, 1.0], &all), 0);
        r.forget(&key(1), 1);
        assert_eq!(r.pinned(), 1, "shard 1 never held the pin");
        r.forget(&key(1), 0);
        assert_eq!(r.pinned(), 0);
        // Unpinned, the key is placed by load again (and re-pins there).
        assert_eq!(r.place(&key(1), &[5.0, 1.0], &all), 1);
        assert_eq!(r.stats().affinity_hits, 0);
    }

    #[test]
    #[should_panic(expected = "at least one admissible shard")]
    fn no_admissible_shard_panics() {
        let mut r = ShardRouter::new(2);
        r.place(&key(0), &[0.0, 0.0], &[false, false]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0);
    }
}
