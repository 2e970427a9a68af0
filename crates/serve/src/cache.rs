//! Bounded hop-stack cache with LRU eviction.
//!
//! Hop features are the expensive, circuit-only half of a QoR query
//! (`X^(k) = Â X^(k-1)`); recipe scoring on top of them is cheap. The
//! cache keys a fully assembled hop stack by
//! `(structural_hash(aig), num_hops)` and holds at most `capacity_bytes`
//! of matrix payload:
//!
//! * **Hit** — the stored stack is returned (cheap `Arc` clone) and the
//!   entry becomes most-recently-used.
//! * **Miss** — the caller computes the stack *outside* the cache lock and
//!   offers it back with [`HopCache::insert`].
//! * **Pressure** — least-recently-used entries are evicted until the new
//!   entry fits. An entry larger than the whole budget is never stored:
//!   the request still succeeds, permanently degraded to
//!   recompute-on-miss. The cache can refuse memory; it can never grow
//!   unboundedly.
//!
//! The recency counter is a plain `u64` bumped per access — deterministic,
//! no clocks: eviction depends on the order of accesses, never on their
//! timing.

use hoga_tensor::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Cache observability counters (monotonic since server start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored stack.
    pub hits: u64,
    /// Lookups that found nothing (caller recomputes).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused because the entry exceeds the whole budget.
    pub rejected: u64,
    /// Current resident payload bytes.
    pub bytes: u64,
    /// Current resident entries.
    pub entries: u64,
}

struct Entry {
    stack: Arc<Matrix>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    map: HashMap<(u64, usize), Entry>,
    bytes: usize,
    evictions: u64,
    rejected: u64,
}

/// The bounded LRU cache. Cheap to share: clone the surrounding `Arc`.
pub struct HopCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn matrix_bytes(m: &Matrix) -> usize {
    m.rows().saturating_mul(m.cols()).saturating_mul(std::mem::size_of::<f32>())
}

impl HopCache {
    /// A cache bounded to `capacity_bytes` of matrix payload. A capacity of
    /// zero is legal: every lookup misses and every insert is refused.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { map: HashMap::new(), bytes: 0, evictions: 0, rejected: 0 }),
            capacity_bytes,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up the hop stack for `(structural_hash, num_hops)`.
    pub fn get(&self, structural_hash: u64, num_hops: usize) -> Option<Arc<Matrix>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get_mut(&(structural_hash, num_hops)) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.stack))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Offers a freshly computed stack. Evicts LRU entries until it fits;
    /// refuses (without error — the caller already has the stack) if the
    /// stack alone exceeds the budget.
    pub fn insert(&self, structural_hash: u64, num_hops: usize, stack: Arc<Matrix>) {
        let bytes = matrix_bytes(&stack);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if bytes > self.capacity_bytes {
            inner.rejected += 1;
            return;
        }
        if let Some(old) = inner.map.remove(&(structural_hash, num_hops)) {
            inner.bytes = inner.bytes.saturating_sub(old.bytes);
        }
        while inner.bytes + bytes > self.capacity_bytes {
            // Scan-min eviction: the map is small (bounded by budget /
            // typical stack size), so O(n) beats the bookkeeping of an
            // intrusive list.
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(evicted.bytes);
                inner.evictions += 1;
            }
        }
        inner.bytes += bytes;
        inner.map.insert((structural_hash, num_hops), Entry { stack, bytes, last_used: tick });
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            rejected: inner.rejected,
            bytes: inner.bytes as u64,
            entries: inner.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_of(rows: usize, cols: usize, fill: f32) -> Arc<Matrix> {
        Arc::new(Matrix::full(rows, cols, fill))
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let cache = HopCache::new(1 << 20);
        assert!(cache.get(42, 3).is_none());
        cache.insert(42, 3, stack_of(4, 4, 1.0));
        let hit = cache.get(42, 3).expect("resident");
        assert_eq!(hit.as_slice()[0], 1.0);
        // Different hop count is a different key.
        assert!(cache.get(42, 4).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn lru_eviction_under_pressure() {
        // Budget fits exactly two 4x4 f32 stacks (64 bytes each).
        let cache = HopCache::new(128);
        cache.insert(1, 0, stack_of(4, 4, 1.0));
        cache.insert(2, 0, stack_of(4, 4, 2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1, 0).is_some());
        cache.insert(3, 0, stack_of(4, 4, 3.0));
        assert!(cache.get(1, 0).is_some(), "recently used survives");
        assert!(cache.get(2, 0).is_none(), "LRU entry evicted");
        assert!(cache.get(3, 0).is_some(), "new entry resident");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 128);
    }

    #[test]
    fn oversized_entry_is_refused_not_stored() {
        let cache = HopCache::new(100);
        cache.insert(7, 2, stack_of(100, 100, 0.5)); // 40 KB > 100 B
        assert!(cache.get(7, 2).is_none());
        let s = cache.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!((s.bytes, s.entries), (0, 0));
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = HopCache::new(1024);
        cache.insert(9, 1, stack_of(4, 4, 1.0));
        cache.insert(9, 1, stack_of(8, 4, 2.0));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 8 * 4 * 4);
        assert_eq!(cache.get(9, 1).expect("resident").rows(), 8);
    }

    #[test]
    fn zero_capacity_degrades_to_recompute_on_miss() {
        let cache = HopCache::new(0);
        cache.insert(1, 1, stack_of(1, 1, 1.0));
        assert!(cache.get(1, 1).is_none());
        assert_eq!(cache.stats().rejected, 1);
    }
}
