//! The service's two caches — bound statements by their text, plans by
//! their shape — as two instances of one sharded, FIFO-evicting,
//! counter-instrumented map.

use crate::fingerprint::QueryShape;
use dpnext::hypergraph::{FxBuildHasher, FxHashMap};
use dpnext::Optimized;
use dpnext_obs::{Counter, Registry};
use dpnext_sql::BoundQuery;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash};
use std::iter;
use std::sync::{Arc, Mutex};

/// Number of independently locked shards (power of two). Lookups on
/// different shards never contend; a single hot key contends only on
/// its own shard's mutex, held for one map probe.
const SHARDS: usize = 16;

/// A key's shard is the top bits of its hash: a multiply-xor hash mixes
/// upward, so these are its best-mixed bits, and the low bits the shard's
/// own bucket map reads stay free to vary across the keys of one shard.
const SHARD_SHIFT: u32 = u64::BITS - SHARDS.trailing_zeros();

/// The longest statement, in bytes, the [`FrontMap`] remembers. A longer
/// one is served like any other; it is parsed and bound every time it
/// arrives. Together with the entry budget this bounds what the map keeps
/// resident: at most `16 · ⌈cache_capacity / 16⌉` entries (1,024 at the
/// default), each one text of at most this length plus the query it binds
/// to, which has at most [`MAX_RELATIONS`](dpnext::hypergraph::MAX_RELATIONS)
/// table occurrences. Measured on the TPC-H catalog, 64 occurrences of its
/// widest table bind to 68 KiB (bound query and shape), so the worst case
/// at the default capacity is 1,024 × (8 + 68) KiB = 76 MiB; the
/// statements the benchmark's corpus sends (2–8 tables, 120–440 bytes)
/// hold 2.4–8.2 KiB each, 8 MiB for a full map of the largest.
pub const FRONT_TEXT_MAX: usize = 8 << 10;

/// The full cache key: the query's canonical shape plus the statistics
/// epoch it was optimized under. It hashes as two words, the epoch and the
/// hash the shape stored when it was built, whatever the query's size.
///
/// Bumping the epoch (see
/// [`OptimizerService::bump_stats_epoch`](crate::OptimizerService::bump_stats_epoch))
/// changes every subsequent key, so stale plans are simply never looked
/// up again; they age out of the FIFO shards instead of being eagerly
/// cleared — a future incremental-repair layer can walk superseded
/// epochs and patch plans in place rather than re-optimizing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Statistics epoch the entry belongs to.
    pub epoch: u64,
    /// Canonical query shape (see [`crate::fingerprint_query`]).
    pub shape: QueryShape,
}

/// Point-in-time cache counters, all monotone except `entries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that found nothing (the caller then does the work and
    /// inserts).
    pub misses: u64,
    /// Entries dropped to keep the cache within capacity.
    pub evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: u64,
}

struct Shard<K, V> {
    /// Entries by the hash of their key.
    buckets: FxHashMap<u64, Bucket<K, V>>,
    /// Insertion order for FIFO eviction, each key with its hash.
    order: VecDeque<(u64, K)>,
}

/// The entries of one shard whose keys share one hash. The first is held
/// inline, so an insert allocates nothing beyond the map's own growth.
struct Bucket<K, V> {
    first: (K, V),
    /// Entries whose keys collide with `first`'s: empty, and so never
    /// allocated, unless two keys share a hash.
    rest: Vec<(K, V)>,
}

impl<K, V> Bucket<K, V> {
    fn entries(&self) -> impl Iterator<Item = &(K, V)> {
        iter::once(&self.first).chain(&self.rest)
    }
}

impl<K: Eq, V> Shard<K, V> {
    /// Insert under `key` (whose hash is `hash`); whether the key is new.
    fn insert(&mut self, hash: u64, key: K, value: V) -> bool {
        let bucket = match self.buckets.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket {
                    first: (key, value),
                    rest: Vec::new(),
                });
                return true;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        match iter::once(&mut bucket.first)
            .chain(&mut bucket.rest)
            .find(|(k, _)| *k == key)
        {
            Some(entry) => {
                entry.1 = value;
                false
            }
            None => {
                bucket.rest.push((key, value));
                true
            }
        }
    }

    /// Drop the entry of `key` (whose hash is `hash`), which is resident.
    fn remove(&mut self, hash: u64, key: &K) {
        let Entry::Occupied(mut slot) = self.buckets.entry(hash) else {
            unreachable!("order tracks buckets");
        };
        let bucket = slot.get_mut();
        if bucket.first.0 == *key {
            match bucket.rest.pop() {
                Some(next) => bucket.first = next,
                None => drop(slot.remove()),
            }
        } else {
            let at = bucket.rest.iter().position(|(k, _)| k == key);
            bucket.rest.swap_remove(at.expect("order tracks buckets"));
        }
    }
}

/// A sharded map with FIFO eviction and hit / miss / eviction counters.
/// The service holds two: the [`PlanCache`] and the [`FrontMap`].
///
/// `capacity` is the total entry budget, split evenly across the 16
/// shards with each share rounded up, so the map holds up to
/// `16 · ⌈capacity / 16⌉` entries (16 for a capacity of 1); `0` disables
/// it entirely (every lookup misses without counting, every insert is
/// dropped). Keys are compared exactly, so a lookup can never return the
/// value of a different key than the one asked.
///
/// A probe hashes its key once: the top bits of that hash pick the shard,
/// and inside the shard the whole hash finds the bucket of entries whose
/// keys share it, which the probe then compares key by key. So a lookup
/// or insert reads a long key once to hash it and once per key it is
/// compared with, and a key that stores its own hash (a [`CacheKey`]'s
/// shape does) is not read in full to be hashed at all.
///
/// Keys are hashed with the in-tree Fx hasher, which is not
/// HashDoS-resistant — and the [`FrontMap`]'s keys are text from outside
/// the program. What a sender of colliding keys can buy is bounded by the
/// eviction rule, not by the hasher: a shard never holds more than
/// `⌈capacity / 16⌉` entries (64 at the default capacity), so no bucket
/// does either, and a probe compares against at most that many keys
/// however they were chosen.
pub struct ShardedFifo<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_cap: usize,
    hasher: FxBuildHasher,
    // Registry-backed counter cells (PR 10): the same cells back
    // `CacheStats` and — once `register_metrics` has run — the service's
    // metrics registry, so the two can never disagree.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// Optimized results by [`CacheKey`]: shape plus statistics epoch.
pub type PlanCache = ShardedFifo<CacheKey, Arc<Optimized>>;

/// Bound statements and their shapes by the exact bytes of their text —
/// no trimming, no case folding: two texts share an entry only if they are
/// byte-equal (differently spelled texts of one query still meet in the
/// [`PlanCache`], at their shape). Only texts that parsed and bound are
/// ever entered, and none longer than [`FRONT_TEXT_MAX`].
pub type FrontMap = ShardedFifo<Arc<str>, (Arc<BoundQuery>, QueryShape)>;

impl PlanCache {
    /// Expose this cache's counter cells in `registry` (under
    /// `dpnext_cache_*`). The registry snapshot and [`CacheStats`] read
    /// the same cells afterwards.
    pub fn register_metrics(&self, registry: &Registry) {
        self.register_counters(
            registry,
            [
                (
                    "dpnext_cache_hits_total",
                    "Plan-cache lookups served from the cache.",
                ),
                (
                    "dpnext_cache_misses_total",
                    "Plan-cache lookups that found nothing.",
                ),
                (
                    "dpnext_cache_evictions_total",
                    "Plan-cache entries dropped to stay within capacity.",
                ),
            ],
        );
    }
}

impl FrontMap {
    /// Expose this map's counter cells in `registry` (under
    /// `dpnext_front_*`).
    pub fn register_metrics(&self, registry: &Registry) {
        self.register_counters(
            registry,
            [
                (
                    "dpnext_front_hits_total",
                    "SQL statements served their bound query by exact text, unparsed.",
                ),
                (
                    "dpnext_front_misses_total",
                    "SQL statements not in the front map, sent to the parser and binder.",
                ),
                (
                    "dpnext_front_evictions_total",
                    "Front-map entries dropped to stay within capacity.",
                ),
            ],
        );
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedFifo<K, V> {
    /// A map holding at most `⌈capacity / 16⌉` entries in each of its 16
    /// shards — up to `16 · ⌈capacity / 16⌉` in total, which is `capacity`
    /// only when that is a multiple of 16 (0 disables it).
    pub fn new(capacity: usize) -> Self {
        let shards = if capacity == 0 {
            Vec::new()
        } else {
            (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        buckets: FxHashMap::default(),
                        order: VecDeque::new(),
                    })
                })
                .collect()
        };
        ShardedFifo {
            shards,
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hasher: FxBuildHasher::default(),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// Register the hit, miss and eviction cells under the given
    /// `(name, help)` pairs, in that order.
    fn register_counters(&self, registry: &Registry, names: [(&'static str, &'static str); 3]) {
        for ((name, help), cell) in
            names
                .into_iter()
                .zip([&self.hits, &self.misses, &self.evictions])
        {
            registry.register_counter(name, help, &[], cell.clone());
        }
    }

    /// Whether caching is enabled (a non-zero capacity was configured).
    pub fn enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard<K, V>> {
        &self.shards[(hash >> SHARD_SHIFT) as usize]
    }

    /// Look `key` up, counting a hit or a miss. Returns `None` without
    /// counting when the map is disabled. The key may be any borrowed form
    /// of `K` — a `&str` probes an `Arc<str>`-keyed map without allocating.
    pub fn lookup<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.enabled() {
            return None;
        }
        let hash = self.hasher.hash_one(key);
        let shard = self.shard(hash).lock().unwrap();
        let found = shard
            .buckets
            .get(&hash)
            .and_then(|bucket| bucket.entries().find(|(k, _)| k.borrow() == key))
            .map(|(_, v)| v.clone());
        drop(shard);
        if found.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        found
    }

    /// Insert `value` under `key`, evicting oldest-first if the shard is
    /// over budget. Re-inserting an existing key replaces the value
    /// without growing the FIFO. No-op when the map is disabled.
    pub fn insert(&self, key: K, value: V) {
        if !self.enabled() {
            return;
        }
        let hash = self.hasher.hash_one(&key);
        let mut shard = self.shard(hash).lock().unwrap();
        if shard.insert(hash, key.clone(), value) {
            shard.order.push_back((hash, key));
        }
        let mut evicted = 0;
        while shard.order.len() > self.per_shard_cap {
            let (hash, oldest) = shard.order.pop_front().expect("over budget");
            shard.remove(hash, &oldest);
            evicted += 1;
        }
        drop(shard);
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    /// Current counters (entries is a point-in-time sum over shards).
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap().order.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint_query;
    use dpnext_core::{optimize, Algorithm};
    use dpnext_workload::{generate_query, GenConfig};

    fn entry(seed: u64) -> (CacheKey, Arc<Optimized>) {
        let q = generate_query(&GenConfig::paper(3), seed);
        let key = CacheKey {
            epoch: 0,
            shape: fingerprint_query(&q),
        };
        (key, Arc::new(optimize(&q, Algorithm::EaPrune)))
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PlanCache::new(64);
        let (key, val) = entry(1);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), val.clone());
        let hit = cache.lookup(&key).expect("inserted");
        assert!(Arc::ptr_eq(&hit, &val));
        let stats = cache.stats();
        assert_eq!((1, 1, 1), (stats.hits, stats.misses, stats.entries));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let cache = PlanCache::new(1); // one entry per shard
        let mut keys = Vec::new();
        for seed in 0..40 {
            let (key, val) = entry(seed);
            cache.insert(key.clone(), val);
            keys.push(key);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "40 inserts into 16 slots must evict");
        assert!(stats.entries <= SHARDS as u64);
    }

    thread_local! {
        static HASH_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A key that counts, per thread, how often it is hashed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Counted(u32);

    impl Hash for Counted {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            HASH_CALLS.with(|calls| calls.set(calls.get() + 1));
            self.0.hash(state);
        }
    }

    /// Hash calls `probe` makes.
    fn hash_calls(probe: impl FnOnce()) -> usize {
        let before = HASH_CALLS.with(|calls| calls.get());
        probe();
        HASH_CALLS.with(|calls| calls.get()) - before
    }

    #[test]
    fn a_probe_hashes_its_key_once() {
        let map = ShardedFifo::new(16); // one entry per shard: inserts evict
        for i in 0..40 {
            let key = Counted(i);
            assert_eq!(1, hash_calls(|| assert!(map.lookup(&key).is_none())));
            assert_eq!(1, hash_calls(|| map.insert(key.clone(), i)));
            assert_eq!(1, hash_calls(|| assert_eq!(Some(i), map.lookup(&key))));
            assert_eq!(1, hash_calls(|| map.insert(key.clone(), i + 1)));
        }
        assert!(map.stats().evictions > 0);
    }

    /// A key whose hash is the same for every value.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }

    #[test]
    fn colliding_keys_stay_exact_and_within_the_shard_cap() {
        let map = ShardedFifo::new(4 * SHARDS); // four entries per shard
        let cap = 4;
        for i in 0..20u32 {
            map.insert(Colliding(i), i);
            // Re-inserting a resident key replaces its value and keeps its
            // place in the FIFO.
            if let Some(prev) = i.checked_sub(1) {
                map.insert(Colliding(prev), 1000 + prev);
            }
            let stats = map.stats();
            let inserted = u64::from(i) + 1;
            assert_eq!(stats.entries, inserted.min(cap));
            assert_eq!(stats.evictions, inserted - stats.entries);
            // Oldest first: exactly the last `cap` keys inserted are resident.
            for j in 0..=i {
                let value = if j == i { j } else { 1000 + j };
                let expected = (u64::from(i - j) < cap).then_some(value);
                assert_eq!(map.lookup(&Colliding(j)), expected, "key {j} after {i}");
            }
        }
    }

    #[test]
    fn disabled_cache_counts_nothing() {
        let cache = PlanCache::new(0);
        let (key, val) = entry(5);
        cache.insert(key.clone(), val);
        assert!(cache.lookup(&key).is_none());
        assert_eq!(CacheStats::default(), cache.stats());
    }
}
