//! Content-addressed LRU artifact store.
//!
//! A single-owner (per-shard, per-grid) store mapping [`ArtifactKey`]s
//! to arbitrary artifacts, with optional entry-count capacity and
//! least-recently-used eviction. Every interaction is counted in
//! [`StoreStats`], which travels through experiment artifacts
//! (`GridResult`) and service reports so cache behaviour is a
//! first-class measured quantity, not a side effect.
//!
//! Recency is tracked with a monotonic tick per entry plus an ordered
//! tick→key index, giving `O(log n)` touch/evict without unsafe
//! pointer juggling — the store guards compiles that are milliseconds
//! each, so logarithmic bookkeeping is far below the noise floor.

use crate::key::ArtifactKey;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Telemetry counters for one store (or the merge of several shards').
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts inserted.
    pub insertions: u64,
    /// Artifacts evicted to respect the capacity bound.
    pub evictions: u64,
    /// Live entries at the time the stats were read.
    pub entries: u64,
}

impl StoreStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise sum, for merging per-shard stats into one report.
    #[must_use]
    pub fn merged(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

struct Entry<V> {
    value: V,
    tick: u64,
}

/// A content-addressed store with LRU eviction; see the module docs.
pub struct ArtifactStore<V> {
    entries: HashMap<ArtifactKey, Entry<V>>,
    by_recency: BTreeMap<u64, ArtifactKey>,
    next_tick: u64,
    capacity: Option<usize>,
    stats: StoreStats,
}

impl<V> ArtifactStore<V> {
    /// A store holding at most `capacity` entries (`None` = unbounded —
    /// the right setting for batch grids, which own their request set
    /// and want every artifact reusable until the grid completes).
    pub fn new(capacity: Option<usize>) -> Self {
        ArtifactStore {
            entries: HashMap::new(),
            by_recency: BTreeMap::new(),
            next_tick: 0,
            capacity,
            stats: StoreStats::default(),
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no artifacts are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counted lookup: a hit refreshes the entry's recency, a miss is
    /// recorded. This is the serve-path accessor.
    pub fn get(&mut self, key: &ArtifactKey) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// [`get`](Self::get), counted the same way, for an artifact that
    /// carries state of its own (the compile service's per-template
    /// instance memo).
    pub fn get_mut(&mut self, key: &ArtifactKey) -> Option<&mut V> {
        let next_tick = self.next_tick;
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.stats.hits += 1;
                self.by_recency.remove(&entry.tick);
                entry.tick = next_tick;
                self.by_recency.insert(next_tick, *key);
                self.next_tick += 1;
                Some(&mut entry.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Uncounted, recency-neutral read — for result assembly after the
    /// measured phase, where another `get` would double-count.
    pub fn peek(&self, key: &ArtifactKey) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Inserts (or replaces) an artifact, evicting least-recently-used
    /// entries while over capacity.
    pub fn insert(&mut self, key: ArtifactKey, value: V) {
        if let Some(old) = self.entries.remove(&key) {
            self.by_recency.remove(&old.tick);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.entries.insert(key, Entry { value, tick });
        self.by_recency.insert(tick, key);
        self.stats.insertions += 1;
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap.max(1) {
                let (&oldest_tick, &oldest_key) = self
                    .by_recency
                    .iter()
                    .next()
                    .expect("over-capacity store is non-empty");
                self.by_recency.remove(&oldest_tick);
                self.entries.remove(&oldest_key);
                self.stats.evictions += 1;
            }
        }
    }

    /// The counters, with [`StoreStats::entries`] refreshed to the live
    /// count.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.entries.len() as u64,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn key(i: u64) -> ArtifactKey {
        KeyBuilder::new().field("i", &i).finish()
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut s: ArtifactStore<u32> = ArtifactStore::new(None);
        assert!(s.get(&key(1)).is_none());
        s.insert(key(1), 10);
        assert_eq!(s.get(&key(1)), Some(&10));
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn get_mut_counts_and_refreshes_like_get() {
        let mut s: ArtifactStore<u32> = ArtifactStore::new(Some(2));
        assert!(s.get_mut(&key(1)).is_none());
        s.insert(key(1), 1);
        s.insert(key(2), 2);
        *s.get_mut(&key(1)).expect("live entry") += 10;
        // The write landed, and key(1) is now the most recently used.
        s.insert(key(3), 3);
        assert_eq!(s.peek(&key(1)), Some(&11));
        assert!(s.peek(&key(2)).is_none(), "LRU entry evicted");
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut s: ArtifactStore<u32> = ArtifactStore::new(Some(2));
        s.insert(key(1), 1);
        s.insert(key(2), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(s.get(&key(1)).is_some());
        s.insert(key(3), 3);
        assert_eq!(s.len(), 2);
        assert!(s.peek(&key(1)).is_some(), "recently used survives");
        assert!(s.peek(&key(2)).is_none(), "LRU entry evicted");
        assert!(s.peek(&key(3)).is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut s: ArtifactStore<u64> = ArtifactStore::new(Some(8));
        for i in 0..1000 {
            s.insert(key(i), i);
            assert!(s.len() <= 8);
        }
        let stats = s.stats();
        assert_eq!(stats.insertions, 1000);
        assert_eq!(stats.evictions, 1000 - 8);
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let mut s: ArtifactStore<u32> = ArtifactStore::new(Some(4));
        s.insert(key(1), 1);
        s.insert(key(1), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek(&key(1)), Some(&2));
        assert_eq!(s.stats().evictions, 0);
    }

    #[test]
    fn peek_leaves_stats_and_recency_alone() {
        let mut s: ArtifactStore<u32> = ArtifactStore::new(Some(2));
        s.insert(key(1), 1);
        s.insert(key(2), 2);
        assert!(s.peek(&key(1)).is_some());
        // peek did not refresh key(1): it is still the LRU victim.
        s.insert(key(3), 3);
        assert!(s.peek(&key(1)).is_none());
        let stats = s.stats();
        assert_eq!(stats.hits + stats.misses, 0);
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let mut s: ArtifactStore<u64> = ArtifactStore::new(None);
        for i in 0..512 {
            s.insert(key(i), i);
        }
        assert_eq!(s.len(), 512);
        assert_eq!(s.stats().evictions, 0);
    }

    #[test]
    fn merged_stats_sum_elementwise() {
        let a = StoreStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            entries: 6,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.hits, 2);
        assert!((a.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
