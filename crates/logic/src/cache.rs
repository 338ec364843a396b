//! Bounded memo caches for repeat-heavy derived structures.
//!
//! `genmask(Φ)`, the prime-implicate closure, and `Inset[Φ]` are pure
//! functions of their inputs, and real update workloads call them again
//! and again on the same states — every `insert` recomputes the genmask
//! of its parameter, every `normalize` re-closes states that interleave
//! with queries. A [`MemoCache`] keys each result on the whole canonical
//! input (a [`crate::ClauseSet`], a formula), compared exactly, so
//! staleness is impossible by construction: a changed state is a
//! different key. Invalidation therefore exists for *memory*, not for
//! correctness — caches are bounded ([`MemoCache::new`]'s capacity) and
//! flushed wholesale when full, and state-mutating operators
//! (`assert`/`combine`) report through [`note_state_change`], which
//! drives the same bounded eviction. The metamorphic tests
//! (`tests/cache_metamorphic.rs`) pin the soundness claim: interleaved
//! updates with caching on answer exactly like a cache-cleared run.
//!
//! Hit/miss/eviction counts are kept per cache (visible through
//! [`all_stats`] — the shell's `:cache` command) and mirrored into
//! `pwdb-metrics` counters `<name>.hits` / `<name>.misses`.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use pwdb_metrics::{counter, Counter};

/// A point-in-time view of one cache, for the shell's `:cache` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// The cache's dotted name (`"blu.cache.genmask"`).
    pub name: &'static str,
    /// Live entries.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Wholesale flushes (capacity evictions plus explicit clears).
    pub invalidations: u64,
}

/// Erased control surface so heterogeneous caches share one registry.
pub trait CacheControl: Sync + Send {
    /// Current statistics.
    fn stats(&self) -> CacheStats;
    /// Drops every entry (counted as an invalidation).
    fn clear(&self);
    /// Flushes if the entry count exceeds the capacity bound.
    fn enforce_cap(&self);
}

fn registry() -> &'static Mutex<Vec<&'static dyn CacheControl>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static dyn CacheControl>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a cache for [`all_stats`]/[`clear_all`]. Called once per
/// cache by [`MemoCache::register`].
pub fn register(cache: &'static dyn CacheControl) {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(cache);
}

/// Statistics for every registered cache, in registration order.
pub fn all_stats() -> Vec<CacheStats> {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|c| c.stats())
        .collect()
}

/// Clears every registered cache (used between differential runs and by
/// the shell's `:cache clear`).
pub fn clear_all() {
    for c in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.clear();
    }
}

/// The explicit invalidation hook: state-mutating operators
/// (`assert`/`combine`) call this after producing a new state. Keys are
/// pure, so nothing can go stale — the hook bounds memory by enforcing
/// each cache's capacity, and counts mutations for observability.
pub fn note_state_change() {
    counter!("logic.cache.state_mutations").inc();
    for c in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.enforce_cap();
    }
}

/// A bounded, thread-safe memo table with hit/miss accounting.
pub struct MemoCache<K, V> {
    name: &'static str,
    cap: usize,
    map: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    hits_counter: &'static Counter,
    misses_counter: &'static Counter,
}

impl<K: Eq + Hash, V: Clone> MemoCache<K, V> {
    /// A cache holding at most `cap` entries; when an insert would exceed
    /// the bound the whole table is flushed (wholesale eviction keeps the
    /// hot path to one lock and no bookkeeping).
    pub fn new(name: &'static str, cap: usize) -> Self {
        let counter =
            |suffix: &str| pwdb_metrics::counter(Box::leak(format!("{name}.{suffix}").into()));
        MemoCache {
            name,
            cap: cap.max(1),
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            hits_counter: counter("hits"),
            misses_counter: counter("misses"),
        }
    }

    /// Registers `self` (typically a `OnceLock` static) with the global
    /// registry and returns it, for one-line cache setup.
    pub fn register(&'static self) -> &'static Self
    where
        K: Send,
        V: Send,
    {
        register(self);
        self
    }

    /// The memoized value of `f` at `key`.
    pub fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> V {
        {
            let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.hits_counter.inc();
                return v.clone();
            }
        }
        // Compute outside the lock: closures may be expensive (and may
        // consult other caches). Racing computations insert-last-wins.
        let v = f();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.misses_counter.inc();
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.cap {
            map.clear();
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(key, v.clone());
        v
    }
}

impl<K: Eq + Hash + Send, V: Clone + Send> CacheControl for MemoCache<K, V> {
    fn stats(&self) -> CacheStats {
        CacheStats {
            name: self.name,
            entries: self.map.lock().unwrap_or_else(|e| e.into_inner()).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    fn enforce_cap(&self) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() > self.cap {
            map.clear();
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cache() -> &'static MemoCache<u64, u64> {
        static CACHE: OnceLock<MemoCache<u64, u64>> = OnceLock::new();
        CACHE.get_or_init(|| MemoCache::new("logic.cache.test", 4))
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = test_cache();
        let mut calls = 0;
        let a = cache.get_or_insert_with(1, || {
            calls += 1;
            10
        });
        let b = cache.get_or_insert_with(1, || {
            calls += 1;
            10
        });
        assert_eq!((a, b, calls), (10, 10, 1));
        let s = cache.stats();
        assert!(s.hits >= 1 && s.misses >= 1);
    }

    #[test]
    fn capacity_flushes_wholesale() {
        let cache: MemoCache<u64, u64> = MemoCache::new("logic.cache.cap_test", 2);
        for k in 0..5 {
            cache.get_or_insert_with(k, || k);
        }
        assert!(cache.stats().entries <= 2);
        assert!(cache.stats().invalidations >= 1);
    }
}
