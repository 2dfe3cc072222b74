//! The canonicalized plan cache: sharded, FIFO-evicting, counter-instrumented.

use crate::fingerprint::QueryShape;
use dpnext::Optimized;
use dpnext_core::{FxBuildHasher, FxHashMap};
use dpnext_obs::{Counter, Registry};
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards (power of two). Lookups on
/// different shards never contend; a single hot shape contends only on
/// its own shard's mutex, held for one map probe.
const SHARDS: usize = 16;

/// The full cache key: the query's canonical shape plus the statistics
/// epoch it was optimized under.
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
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (the caller then optimizes + inserts).
    pub misses: u64,
    /// Entries dropped to keep the cache within capacity.
    pub evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: u64,
}

struct Shard {
    map: FxHashMap<CacheKey, Arc<Optimized>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// A sharded map from [`CacheKey`] to optimized results.
///
/// `capacity` is the total entry budget, split evenly across the 16
/// shards with each share rounded up, so the cache holds up to
/// `16 · ⌈capacity / 16⌉` plans (16 for a capacity of 1); `0` disables
/// the cache entirely (every lookup misses without counting, every
/// insert is dropped). Keys are exact encodings, so the cache can never return a
/// plan for a different query than the one asked.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hasher: FxBuildHasher,
    // Registry-backed counter cells (PR 10): the same cells back
    // `CacheStats` and — once `register_metrics` has run — the service's
    // metrics registry, so the two can never disagree.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl PlanCache {
    /// A cache holding at most `⌈capacity / 16⌉` plans in each of its 16
    /// shards — up to `16 · ⌈capacity / 16⌉` in total, which is `capacity`
    /// only when that is a multiple of 16 (0 disables caching).
    pub fn new(capacity: usize) -> PlanCache {
        let shards = if capacity == 0 {
            Vec::new()
        } else {
            (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: FxHashMap::default(),
                        order: VecDeque::new(),
                    })
                })
                .collect()
        };
        PlanCache {
            shards,
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hasher: FxBuildHasher::default(),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// Expose this cache's counter cells in `registry` (under
    /// `dpnext_cache_*`). The registry snapshot and [`CacheStats`] read
    /// the same cells afterwards.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "dpnext_cache_hits_total",
            "Plan-cache lookups served from the cache.",
            &[],
            self.hits.clone(),
        );
        registry.register_counter(
            "dpnext_cache_misses_total",
            "Plan-cache lookups that found nothing.",
            &[],
            self.misses.clone(),
        );
        registry.register_counter(
            "dpnext_cache_evictions_total",
            "Plan-cache entries dropped to stay within capacity.",
            &[],
            self.evictions.clone(),
        );
    }

    /// Whether caching is enabled (a non-zero capacity was configured).
    pub fn enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Look `key` up, counting a hit or a miss. Returns `None` without
    /// counting when the cache is disabled.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<Optimized>> {
        if !self.enabled() {
            return None;
        }
        let shard = self.shard(key).lock().unwrap();
        match shard.map.get(key) {
            Some(v) => {
                let v = v.clone();
                drop(shard);
                self.hits.inc();
                Some(v)
            }
            None => {
                drop(shard);
                self.misses.inc();
                None
            }
        }
    }

    /// Insert `value` under `key`, evicting oldest-first if the shard is
    /// over budget. Re-inserting an existing key replaces the value
    /// without growing the FIFO. No-op when the cache is disabled.
    pub fn insert(&self, key: CacheKey, value: Arc<Optimized>) {
        if !self.enabled() {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        if shard.map.insert(key.clone(), value).is_none() {
            shard.order.push_back(key);
        }
        let mut evicted = 0;
        while shard.map.len() > self.per_shard_cap {
            let oldest = shard.order.pop_front().expect("order tracks map");
            shard.map.remove(&oldest);
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
            .map(|s| s.lock().unwrap().map.len() as u64)
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

    #[test]
    fn disabled_cache_counts_nothing() {
        let cache = PlanCache::new(0);
        let (key, val) = entry(5);
        cache.insert(key.clone(), val);
        assert!(cache.lookup(&key).is_none());
        assert_eq!(CacheStats::default(), cache.stats());
    }
}
