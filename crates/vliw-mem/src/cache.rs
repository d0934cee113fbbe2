//! A generic set-associative cache with LRU replacement.
//!
//! Used for the unified L1, the per-cluster banks of the MultiVLIW
//! baseline, and the banks of the word-interleaved cache. The cache only
//! tracks tags and timing-relevant metadata — the simulation never needs
//! data values.

use serde::{Deserialize, Serialize};

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Line<S> {
    tag: u64,
    last_use: u64,
    state: S,
}

/// A set-associative, LRU-replaced cache of tags with per-line state `S`.
///
/// `S` carries protocol state: `()` for plain caches, an MSI enum for the
/// MultiVLIW banks.
///
/// ```
/// use vliw_mem::SetAssocCache;
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(8 * 1024, 32, 2);
/// assert!(c.lookup(0x1000, 1).is_none());
/// c.insert(0x1000, (), 1);
/// assert!(c.lookup(0x1000, 2).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<S> {
    sets: Vec<Vec<Line<S>>>,
    block_bytes: u64,
    associativity: usize,
    tick: u64,
}

impl<S: Copy> SetAssocCache<S> {
    /// Creates a cache of `size_bytes` with `block_bytes` lines and the
    /// given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole number of sets
    /// or any parameter is zero.
    pub fn new(size_bytes: usize, block_bytes: usize, associativity: usize) -> Self {
        assert!(size_bytes > 0 && block_bytes > 0 && associativity > 0);
        assert_eq!(
            size_bytes % (block_bytes * associativity),
            0,
            "cache geometry must divide into whole sets"
        );
        let n_sets = size_bytes / (block_bytes * associativity);
        SetAssocCache {
            sets: vec![Vec::with_capacity(associativity); n_sets],
            block_bytes: block_bytes as u64,
            associativity,
            tick: 0,
        }
    }

    /// Block-aligns an address.
    pub fn block_base(&self, addr: u64) -> u64 {
        addr / self.block_bytes * self.block_bytes
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.block_bytes) % self.sets.len() as u64) as usize
    }

    /// Probes for `addr`; on a hit refreshes LRU and returns the line
    /// state. Accesses at the same `cycle` fall back to insertion order
    /// via a monotonic tick.
    pub fn lookup(&mut self, addr: u64, cycle: u64) -> Option<S> {
        self.tick += 1;
        let tag = self.block_base(addr);
        let set = self.set_index(addr);
        for line in &mut self.sets[set] {
            if line.tag == tag {
                line.last_use = line.last_use.max(cycle);
                return Some(line.state);
            }
        }
        None
    }

    /// Probes without touching LRU (snooping).
    pub fn peek(&self, addr: u64) -> Option<S> {
        let tag = self.block_base(addr);
        let set = self.set_index(addr);
        self.sets[set]
            .iter()
            .find(|l| l.tag == tag)
            .map(|l| l.state)
    }

    /// Updates the state of a resident line; returns `false` if absent.
    pub fn set_state(&mut self, addr: u64, state: S) -> bool {
        let tag = self.block_base(addr);
        let set = self.set_index(addr);
        for line in &mut self.sets[set] {
            if line.tag == tag {
                line.state = state;
                return true;
            }
        }
        false
    }

    /// Inserts `addr` with `state`, evicting the LRU line if the set is
    /// full. Returns the evicted `(block_base, state)`, if any. Inserting
    /// an already-resident block refreshes its state and LRU instead.
    pub fn insert(&mut self, addr: u64, state: S, cycle: u64) -> Option<(u64, S)> {
        let tag = self.block_base(addr);
        let set = self.set_index(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            line.state = state;
            line.last_use = cycle;
            return None;
        }
        if self.sets[set].len() < self.associativity {
            self.sets[set].push(Line {
                tag,
                last_use: cycle,
                state,
            });
            return None;
        }
        let victim = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
            .expect("set is full, so non-empty");
        let old = self.sets[set][victim];
        self.sets[set][victim] = Line {
            tag,
            last_use: cycle,
            state,
        };
        Some((old.tag, old.state))
    }

    /// Removes `addr`'s block; returns its state if it was resident.
    pub fn invalidate(&mut self, addr: u64) -> Option<S> {
        let tag = self.block_base(addr);
        let set = self.set_index(addr);
        let pos = self.sets[set].iter().position(|l| l.tag == tag)?;
        Some(self.sets[set].swap_remove(pos).state)
    }

    /// Appends the cache's resident state to `out` at boundary `base`.
    ///
    /// Each set writes its length, then its lines in vector order:
    /// eviction picks the first minimum-`last_use` line and `invalidate`
    /// uses `swap_remove`, so the order is part of the observable LRU
    /// state. Each line writes its tag, its state bits, and `last_use`
    /// as its set-local replacement rank
    /// ([`lru_rank_by`](crate::digest::lru_rank_by)) — only the order is
    /// observable, and warm lines that are never touched again would
    /// otherwise slide at every boundary. The monotonic `tick` is
    /// excluded — it is bumped on lookups but never consulted by any
    /// replacement decision.
    pub(crate) fn key_into(&self, out: &mut Vec<u64>, base: u64)
    where
        S: crate::digest::KeyState,
    {
        for set in &self.sets {
            out.push(set.len() as u64);
            for (i, line) in set.iter().enumerate() {
                out.extend([
                    line.tag,
                    crate::digest::lru_rank_by(set, i, base, |l| l.last_use),
                    line.state.key_bits(),
                ]);
            }
        }
    }

    /// Shifts every line's `last_use` forward by `delta` cycles.
    pub(crate) fn advance(&mut self, delta: u64) {
        for set in &mut self.sets {
            for line in set {
                line.last_use += delta;
            }
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1024, 32, 2);
        assert!(c.lookup(100, 0).is_none());
        c.insert(100, (), 0);
        assert!(c.lookup(100, 1).is_some());
        // same block, different offset
        assert!(c.lookup(96, 2).is_some());
        // different block
        assert!(c.lookup(128, 3).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way: 2 sets of 2 with 32B blocks and 128B capacity
        let mut c: SetAssocCache<u8> = SetAssocCache::new(128, 32, 2);
        // all three map to set 0 (stride = 64 bytes = 2 blocks)
        c.insert(0, 1, 0);
        c.insert(64, 2, 1);
        c.lookup(0, 2); // refresh block 0
        let evicted = c.insert(128, 3, 3);
        assert_eq!(evicted, Some((64, 2)));
        assert!(c.peek(0).is_some());
        assert!(c.peek(64).is_none());
        assert!(c.peek(128).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(128, 32, 2);
        c.insert(0, 1, 0);
        assert_eq!(c.insert(0, 9, 5), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(0), Some(9));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(128, 32, 2);
        c.insert(0, 7, 0);
        assert_eq!(c.invalidate(4), Some(7)); // same block as 0
        assert!(c.peek(0).is_none());
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn set_state_updates_resident_only() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(128, 32, 2);
        c.insert(0, 1, 0);
        assert!(c.set_state(0, 2));
        assert_eq!(c.peek(0), Some(2));
        assert!(!c.set_state(512, 2));
    }

    #[test]
    fn lru_order_alone_changes_the_key() {
        let key = |c: &SetAssocCache<()>| {
            let mut out = Vec::new();
            c.key_into(&mut out, 10);
            out
        };
        // Set 0 holds blocks 0 and 64 in the same vector slots in both
        // caches; only their recency order differs.
        let mut a: SetAssocCache<()> = SetAssocCache::new(128, 32, 2);
        a.insert(0, (), 1);
        a.insert(64, (), 2);
        let mut b = a.clone();
        b.lookup(0, 3);
        assert_ne!(key(&a), key(&b));
        // The same order at other absolute stamps is the same state.
        let mut c: SetAssocCache<()> = SetAssocCache::new(128, 32, 2);
        c.insert(0, (), 5);
        c.insert(64, (), 7);
        assert_eq!(key(&a), key(&c));
        // …and the order is observable: the next fill evicts differently.
        assert_eq!(a.insert(128, (), 11), Some((0, ())));
        assert_eq!(b.insert(128, (), 11), Some((64, ())));
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn bad_geometry_rejected() {
        let _: SetAssocCache<()> = SetAssocCache::new(100, 32, 2);
    }
}
