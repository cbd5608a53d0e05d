//! Fingerprint-keyed memoization of [`normalized_adjacency`] results.
//!
//! Normalizing an adjacency matrix is pure: the same topology always
//! yields the same `Â`, bit for bit. Inference traffic hits the same
//! topologies over and over (every episode step of every attempt of every
//! infer job re-encodes the current topology), so the propagation matrix
//! is normalized once per topology fingerprint and shared from then on —
//! the same way `ScenarioCache` memoizes NBF outcomes per
//! `(fingerprint, scenario)`. Mutating a topology changes its
//! fingerprint, so stale entries are never *served*; they are dropped
//! wholesale when the next insert would exceed the byte budget.
//!
//! The budget is in bytes, not entries: training visits thousands of
//! one-off topologies, and an entry count sized for small graphs holds
//! tens of megabytes of `Â` at ORION scale.
//!
//! Hit/miss counters are registered on the process-wide telemetry
//! registry as `nptsn_infer_adjacency_cache_{hits,misses}_total`, so
//! `/metrics` shows whether the cache is engaging in production.
//!
//! [`normalized_adjacency`]: crate::normalized_adjacency

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nptsn_obs::metrics::Counter;

use crate::gcn::normalized_adjacency_data;

/// A byte-bounded, thread-safe cache of normalized-adjacency buffers
/// keyed by a 128-bit topology fingerprint.
///
/// # Examples
///
/// ```
/// use nptsn_nn::AdjacencyCache;
///
/// let cache = AdjacencyCache::new(1024); // bytes; a 2 x 2 `Â` takes 16
/// let a = cache.get_or_insert(7, &[0.0, 1.0, 1.0, 0.0], 2);
/// let b = cache.get_or_insert(7, &[0.0, 1.0, 1.0, 0.0], 2);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
pub struct AdjacencyCache {
    entries: Mutex<Entries>,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The cached buffers and the bytes of `f32` data they hold.
#[derive(Default)]
struct Entries {
    map: HashMap<u128, Arc<[f32]>>,
    bytes: usize,
}

impl AdjacencyCache {
    /// Creates a cache holding at most `budget_bytes` of adjacency data.
    /// An insert that would exceed the budget first clears the whole map
    /// (fingerprints do not revisit old values, so eviction order is
    /// irrelevant and a clear keeps the lock cheap); a single matrix
    /// larger than the budget is returned uncached.
    pub fn new(budget_bytes: usize) -> AdjacencyCache {
        AdjacencyCache {
            entries: Mutex::new(Entries::default()),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the cached `Â` for `key`, normalizing `adjacency`
    /// (`n x n`, as accepted by
    /// [`normalized_adjacency`](crate::normalized_adjacency)) on the
    /// first sighting. The caller must guarantee that `key` uniquely
    /// identifies the adjacency contents.
    ///
    /// # Panics
    ///
    /// Panics when `adjacency.len() != n * n` on a miss.
    pub fn get_or_insert(&self, key: u128, adjacency: &[f32], n: usize) -> Arc<[f32]> {
        let counters = telemetry_counters();
        if let Some(hit) = self.lock().map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters.hits.inc();
            return Arc::clone(hit);
        }
        // Normalize outside the lock: misses are the expensive path and
        // concurrent misses on the same key just race to insert equal bits.
        assert_eq!(adjacency.len(), n * n, "adjacency must be n x n");
        let value: Arc<[f32]> = normalized_adjacency_data(adjacency, n).into();
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters.misses.inc();
        let size = std::mem::size_of_val(&*value);
        if size > self.budget_bytes {
            return value;
        }
        let mut entries = self.lock();
        if let Some(raced) = entries.map.get(&key) {
            return Arc::clone(raced);
        }
        if entries.bytes + size > self.budget_bytes {
            entries.map.clear();
            entries.bytes = 0;
        }
        entries.bytes += size;
        entries.map.insert(key, Arc::clone(&value));
        value
    }

    /// Number of cached topologies.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime cache hits of this instance.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses of this instance.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

fn telemetry_counters() -> &'static CacheCounters {
    static COUNTERS: OnceLock<CacheCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = &nptsn_obs::telemetry().registry;
        CacheCounters {
            hits: registry.counter(
                "nptsn_infer_adjacency_cache_hits_total",
                "Normalized-adjacency cache hits across all caches",
            ),
            misses: registry.counter(
                "nptsn_infer_adjacency_cache_misses_total",
                "Normalized-adjacency cache misses across all caches",
            ),
        }
    })
}

/// Byte budget of the process-wide [`adjacency_cache`]: about 490 ORION
/// topologies (46 nodes, 8.3 KiB each).
const ADJACENCY_CACHE_BYTES: usize = 4 << 20;

/// The process-wide adjacency cache shared by every inference path.
pub fn adjacency_cache() -> &'static AdjacencyCache {
    static GLOBAL: OnceLock<AdjacencyCache> = OnceLock::new();
    GLOBAL.get_or_init(|| AdjacencyCache::new(ADJACENCY_CACHE_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalized_adjacency;

    #[test]
    fn caches_by_key_and_matches_uncached_bits() {
        let cache = AdjacencyCache::new(1024);
        let adj = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let cached = cache.get_or_insert(42, &adj, 3);
        assert_eq!(&cached[..], normalized_adjacency(&adj, 3).to_vec().as_slice());
        // Second lookup never re-normalizes: feeding garbage under the
        // same key must return the original buffer.
        let again = cache.get_or_insert(42, &[9.0; 9], 3);
        assert!(Arc::ptr_eq(&cached, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn clears_at_budget_instead_of_growing() {
        // Room for two 2 x 2 matrices (16 bytes each).
        let cache = AdjacencyCache::new(32);
        for key in 0..5u128 {
            cache.get_or_insert(key, &[0.0; 4], 2);
            assert!(cache.len() <= 2, "len {} after key {key}", cache.len());
        }
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 5);
    }

    #[test]
    fn distinct_orion_topologies_never_exceed_the_byte_budget() {
        let n = 46;
        let budget = 100_000; // room for 11 of the 8464-byte matrices
        let cache = AdjacencyCache::new(budget);
        for key in 0..200u128 {
            let mut adj = vec![0.0f32; n * n];
            let (i, j) = ((key as usize) % n, (key as usize * 7 + 1) % n);
            adj[i * n + j] = 1.0;
            adj[j * n + i] = 1.0;
            cache.get_or_insert(key, &adj, n);
            let bytes = cache.lock().bytes;
            assert!(bytes <= budget, "{bytes} bytes after key {key}");
            assert_eq!(bytes, cache.len() * n * n * 4);
        }
        assert_eq!(cache.misses(), 200);
    }

    #[test]
    fn matrix_above_the_budget_is_served_uncached() {
        let cache = AdjacencyCache::new(15);
        let adj = [0.0, 1.0, 1.0, 0.0];
        let a = cache.get_or_insert(1, &adj, 2);
        assert_eq!(&a[..], normalized_adjacency(&adj, 2).to_vec().as_slice());
        assert!(cache.is_empty());
        assert_eq!(cache.lock().bytes, 0);
    }
}
