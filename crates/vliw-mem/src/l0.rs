//! The flexible compiler-managed L0 buffer (§3).
//!
//! Each cluster owns a small, fully-associative buffer of *subblocks*. A
//! subblock is an L1 block divided by the number of clusters (32 B / 4 =
//! 8 B). Two mapping functions fill the buffers:
//!
//! * **linear**: one subblock of consecutive bytes goes to the accessing
//!   cluster's buffer;
//! * **interleaved**: the whole L1 block is split at the access's element
//!   granularity (the *interleaving factor*) and dealt round-robin to the
//!   buffers of consecutive clusters, starting at the accessing cluster —
//!   lane *k* holds the elements whose index ≡ *k* (mod N).
//!
//! The buffers are write-through and non-write-allocate; replacement is
//! LRU and replaced subblocks are simply discarded. Entries remember an
//! in-flight `ready_at` cycle so a consumer that arrives before the fill
//! completes stalls for the remainder (this is how "prefetched too late"
//! shows up in epicdec/rasta, §5.2).

use serde::{Deserialize, Serialize};
use vliw_machine::{L0Capacity, PrefetchHint};

/// How one resident entry maps bytes of its L1 block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntryMapping {
    /// Consecutive bytes: subblock `sub_index` of the block.
    Linear {
        /// Which aligned subblock of the L1 block this entry holds.
        sub_index: u8,
    },
    /// Interleaved at `factor`-byte granularity; holds the elements whose
    /// index within the block is ≡ `lane` (mod number of clusters).
    Interleaved {
        /// Interleaving factor in bytes (the element size of the access
        /// that allocated the entry).
        factor: u8,
        /// Which residue class of element indices this entry holds.
        lane: u8,
    },
}

/// One L0 buffer entry (a resident or in-flight subblock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// Base address of the owning L1 block.
    pub block_addr: u64,
    /// Byte-selection function.
    pub mapping: EntryMapping,
    /// LRU timestamp.
    pub last_use: u64,
    /// Cycle at which the fill completes (consumers arriving earlier
    /// stall until then).
    pub ready_at: u64,
    /// Prefetch hint inherited from the allocating instruction; drives the
    /// automatic next/previous-subblock prefetches.
    pub prefetch: PrefetchHint,
    /// Element granularity of the allocating access (for first/last
    /// element detection).
    pub elem_bytes: u8,
}

/// Result of probing a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L0LookupResult {
    /// All bytes of the access are present; value usable at `ready_at`.
    Hit {
        /// When the (possibly in-flight) subblock's data is available.
        ready_at: u64,
    },
    /// Some byte is absent — forward to L1.
    Miss,
}

/// An automatic prefetch the buffer requests after a hit (the hardware
/// reaction to the `POSITIVE`/`NEGATIVE` hints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchAction {
    /// First byte of the subblock to fetch.
    pub target_addr: u64,
    /// Mapping for the incoming data (same shape as the trigger entry).
    pub mapping: EntryMapping,
    /// Prefetch hint to install on the new entry (propagates the walk).
    pub prefetch: PrefetchHint,
    /// Element granularity to install on the new entry.
    pub elem_bytes: u8,
}

/// One cluster's flexible L0 buffer.
#[derive(Debug, Clone)]
pub struct L0Buffer {
    entries: Vec<Entry>,
    capacity: L0Capacity,
    subblock_bytes: u64,
    block_bytes: u64,
    n_clusters: usize,
}

impl L0Buffer {
    /// Creates an empty buffer.
    pub fn new(
        capacity: L0Capacity,
        subblock_bytes: u64,
        block_bytes: u64,
        n_clusters: usize,
    ) -> Self {
        L0Buffer {
            entries: Vec::new(),
            capacity,
            subblock_bytes,
            block_bytes,
            n_clusters,
        }
    }

    /// Number of resident (or in-flight) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The resident entries (test/diagnostic view).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    fn block_base(&self, addr: u64) -> u64 {
        addr / self.block_bytes * self.block_bytes
    }

    /// `true` if `entry` contains every byte of `[addr, addr + size)`.
    fn contains(&self, entry: &Entry, addr: u64, size: u64) -> bool {
        let base = self.block_base(addr);
        if base != entry.block_addr {
            return false;
        }
        let off = addr - base;
        let last = off + size - 1;
        if last >= self.block_bytes {
            return false; // access straddles blocks; treat as L0 miss
        }
        match entry.mapping {
            EntryMapping::Linear { sub_index } => {
                let lo = sub_index as u64 * self.subblock_bytes;
                let hi = lo + self.subblock_bytes;
                off >= lo && last < hi
            }
            EntryMapping::Interleaved { factor, lane } => {
                let f = factor as u64;
                let first_elem = off / f;
                let last_elem = last / f;
                first_elem == last_elem && (first_elem % self.n_clusters as u64) == lane as u64
            }
        }
    }

    /// Probes for `[addr, addr+size)` on behalf of an instruction carrying
    /// prefetch hint `hint`; a hit refreshes LRU and may request an
    /// automatic prefetch. The hint comes from the *instruction* (hints
    /// are instruction attributes, §3.2), not from the resident entry.
    pub fn probe(
        &mut self,
        addr: u64,
        size: u64,
        cycle: u64,
        hint: PrefetchHint,
    ) -> (L0LookupResult, Option<PrefetchAction>) {
        let base = self.block_base(addr);
        let off = addr - base;
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if self.contains(e, addr, size) {
                best = Some(match best {
                    Some(j) if self.entries[j].last_use >= e.last_use => j,
                    _ => i,
                });
            }
        }
        let Some(i) = best else {
            return (L0LookupResult::Miss, None);
        };
        let ready_at = self.entries[i].ready_at;
        let entry = self.entries[i];
        self.entries[i].last_use = cycle;
        let action = self.prefetch_action(&entry, off, hint);
        (
            L0LookupResult::Hit {
                ready_at: ready_at.max(cycle),
            },
            action,
        )
    }

    /// Computes the automatic prefetch triggered by an instruction with
    /// hint `hint` touching byte `off` (block-relative) of `entry`.
    fn prefetch_action(
        &self,
        entry: &Entry,
        off: u64,
        hint: PrefetchHint,
    ) -> Option<PrefetchAction> {
        if hint == PrefetchHint::None {
            return None;
        }
        let e = entry.elem_bytes as u64;
        let elem_idx = off / e;
        match entry.mapping {
            EntryMapping::Linear { sub_index } => {
                let sub_lo = sub_index as u64 * self.subblock_bytes;
                let first_elem = sub_lo / e;
                let last_elem = (sub_lo + self.subblock_bytes) / e - 1;
                let sub_abs = entry.block_addr + sub_lo;
                match hint {
                    PrefetchHint::Positive if elem_idx == last_elem => Some(PrefetchAction {
                        target_addr: sub_abs + self.subblock_bytes,
                        mapping: EntryMapping::Linear { sub_index: 0 }, // recomputed on fill
                        prefetch: hint,
                        elem_bytes: entry.elem_bytes,
                    }),
                    PrefetchHint::Negative if elem_idx == first_elem && sub_abs > 0 => {
                        Some(PrefetchAction {
                            target_addr: sub_abs.saturating_sub(self.subblock_bytes),
                            mapping: EntryMapping::Linear { sub_index: 0 },
                            prefetch: hint,
                            elem_bytes: entry.elem_bytes,
                        })
                    }
                    _ => None,
                }
            }
            EntryMapping::Interleaved { factor, lane } => {
                let f = factor as u64;
                let elems_per_block = self.block_bytes / f;
                let lanes = self.n_clusters as u64;
                // elements of this lane: lane, lane+N, ...; the last one is
                // the largest index < elems_per_block congruent to lane.
                let last_of_lane = if elems_per_block == 0 {
                    0
                } else {
                    let full = (elems_per_block - 1) / lanes * lanes + lane as u64;
                    if full >= elems_per_block {
                        full - lanes
                    } else {
                        full
                    }
                };
                match hint {
                    PrefetchHint::Positive if elem_idx == last_of_lane => Some(PrefetchAction {
                        target_addr: entry.block_addr + self.block_bytes,
                        mapping: EntryMapping::Interleaved { factor, lane },
                        prefetch: hint,
                        elem_bytes: entry.elem_bytes,
                    }),
                    PrefetchHint::Negative
                        if elem_idx == lane as u64 && entry.block_addr >= self.block_bytes =>
                    {
                        Some(PrefetchAction {
                            target_addr: entry.block_addr - self.block_bytes,
                            mapping: EntryMapping::Interleaved { factor, lane },
                            prefetch: hint,
                            elem_bytes: entry.elem_bytes,
                        })
                    }
                    _ => None,
                }
            }
        }
    }

    /// `true` if an entry already covers byte `addr` with the same mapping
    /// shape (prefetch dedup).
    pub fn covers(&self, addr: u64) -> bool {
        self.entries.iter().any(|e| self.contains(e, addr, 1))
    }

    /// Inserts a fill. Evicts LRU when full (the discarded subblock needs
    /// no writeback: the buffers are write-through). Re-filling an
    /// existing `(block, mapping)` pair refreshes it instead.
    pub fn insert(&mut self, mut entry: Entry) {
        entry.block_addr = self.block_base(entry.block_addr);
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.block_addr == entry.block_addr && e.mapping == entry.mapping)
        {
            existing.last_use = entry.last_use;
            existing.ready_at = existing.ready_at.min(entry.ready_at);
            existing.prefetch = entry.prefetch;
            return;
        }
        if self.capacity.is_full(self.entries.len()) {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("full buffer is non-empty");
            self.entries.swap_remove(victim);
        }
        self.entries.push(entry);
    }

    /// Store coherence inside one buffer (§4.1, intra-cluster): the most
    /// recently used copy of the data is updated; any *other* copy
    /// (mapped with a different function) is invalidated, so the buffer
    /// needs no extra write ports. Returns `(updated, invalidated)`.
    pub fn store_update(&mut self, addr: u64, size: u64, cycle: u64) -> (bool, usize) {
        let mut holders: Vec<usize> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if self.contains(e, addr, size) {
                holders.push(i);
            }
        }
        let Some(&keep) = holders.iter().max_by_key(|&&i| self.entries[i].last_use) else {
            return (false, 0);
        };
        self.entries[keep].last_use = cycle;
        let mut removed = 0;
        for &i in holders.iter().rev() {
            if i != keep {
                self.entries.swap_remove(i);
                removed += 1;
            }
        }
        (true, removed)
    }

    /// Invalidates every copy of `[addr, addr+size)` (PSR replica stores).
    /// Returns how many entries were dropped.
    pub fn invalidate_addr(&mut self, addr: u64, size: u64) -> usize {
        let before = self.entries.len();
        let this = &*self;
        let keep: Vec<bool> = this
            .entries
            .iter()
            .map(|e| !this.contains(e, addr, size))
            .collect();
        let mut it = keep.iter();
        self.entries.retain(|_| *it.next().unwrap());
        before - self.entries.len()
    }

    /// `invalidate_buffer`: discards everything (constant latency — no
    /// writebacks, the buffer is write-through).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// Appends the buffer's state to `out` at boundary `base`.
    ///
    /// The entry count comes first, then the entries in vector order:
    /// probes break `last_use` ties toward the earlier index and
    /// eviction/`swap_remove` reorder the vector, so the order is part of
    /// the observable LRU state.
    /// `last_use` enters as its replacement rank and `ready_at` as its
    /// live offset ([`lru_rank_by`](crate::digest::lru_rank_by) /
    /// [`live_ready`](crate::digest::live_ready)): a landed fill's
    /// `ready_at` only ever meets `max(cycle)` / `min(new)` against
    /// future cycles, so its exact value is dead state.
    pub(crate) fn key_into(&self, out: &mut Vec<u64>, base: u64) {
        out.push(self.entries.len() as u64);
        for (i, e) in self.entries.iter().enumerate() {
            let (m0, m1, m2) = match e.mapping {
                EntryMapping::Linear { sub_index } => (0, sub_index as u64, 0),
                EntryMapping::Interleaved { factor, lane } => (1, factor as u64, lane as u64),
            };
            let hint = match e.prefetch {
                PrefetchHint::None => 0u64,
                PrefetchHint::Positive => 1,
                PrefetchHint::Negative => 2,
            };
            out.extend([
                e.block_addr,
                m0 | (m1 << 8) | (m2 << 24),
                crate::digest::lru_rank_by(&self.entries, i, base, |x| x.last_use),
                crate::digest::live_ready(e.ready_at, base),
                hint | ((e.elem_bytes as u64) << 8),
            ]);
        }
    }

    /// Shifts every entry's timestamps forward by `delta` cycles.
    pub(crate) fn advance(&mut self, delta: u64) {
        for e in &mut self.entries {
            e.last_use += delta;
            e.ready_at += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: u64 = 8; // subblock bytes
    const BB: u64 = 32; // block bytes
    const N: usize = 4;

    fn buf(cap: usize) -> L0Buffer {
        L0Buffer::new(L0Capacity::Bounded(cap), SB, BB, N)
    }

    fn linear_entry(block: u64, sub: u8, cycle: u64) -> Entry {
        Entry {
            block_addr: block,
            mapping: EntryMapping::Linear { sub_index: sub },
            last_use: cycle,
            ready_at: cycle,
            prefetch: PrefetchHint::None,
            elem_bytes: 2,
        }
    }

    fn inter_entry(block: u64, factor: u8, lane: u8, cycle: u64) -> Entry {
        Entry {
            block_addr: block,
            mapping: EntryMapping::Interleaved { factor, lane },
            last_use: cycle,
            ready_at: cycle,
            prefetch: PrefetchHint::None,
            elem_bytes: factor,
        }
    }

    #[test]
    fn linear_entry_covers_its_subblock_only() {
        let mut b = buf(8);
        b.insert(linear_entry(0x100, 1, 0)); // bytes 8..16 of block 0x100
        assert!(matches!(
            b.probe(0x108, 2, 1, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert!(matches!(
            b.probe(0x10E, 2, 2, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert_eq!(
            b.probe(0x100, 2, 3, PrefetchHint::None).0,
            L0LookupResult::Miss
        ); // sub 0
        assert_eq!(
            b.probe(0x110, 2, 4, PrefetchHint::None).0,
            L0LookupResult::Miss
        ); // sub 2
           // access crossing out of the subblock misses
        assert_eq!(
            b.probe(0x10F, 2, 5, PrefetchHint::None).0,
            L0LookupResult::Miss
        );
    }

    #[test]
    fn interleaved_entry_covers_its_lane() {
        let mut b = buf(8);
        // 2-byte factor, lane 0 of block 0: elements 0,4,8,12 -> bytes
        // 0-1, 8-9, 16-17, 24-25
        b.insert(inter_entry(0, 2, 0, 0));
        assert!(matches!(
            b.probe(0, 2, 1, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert!(matches!(
            b.probe(8, 2, 2, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert!(matches!(
            b.probe(24, 2, 3, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert_eq!(b.probe(2, 2, 4, PrefetchHint::None).0, L0LookupResult::Miss); // element 1: lane 1
        assert_eq!(
            b.probe(16, 4, 5, PrefetchHint::None).0,
            L0LookupResult::Miss
        ); // spans 2 elements
    }

    #[test]
    fn wider_access_than_interleave_factor_misses() {
        // §3.3 4th bullet: data interleaved at 1-byte granularity accessed
        // with a 4-byte load partially lives in other clusters -> miss.
        let mut b = buf(8);
        b.insert(inter_entry(0, 1, 0, 0));
        assert!(matches!(
            b.probe(0, 1, 1, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert_eq!(b.probe(0, 4, 2, PrefetchHint::None).0, L0LookupResult::Miss);
    }

    #[test]
    fn lru_eviction_discards_oldest() {
        let mut b = buf(2);
        b.insert(linear_entry(0x000, 0, 0));
        b.insert(linear_entry(0x020, 0, 1));
        b.probe(0x000, 2, 2, PrefetchHint::None); // refresh first
        b.insert(linear_entry(0x040, 0, 3));
        assert_eq!(b.len(), 2);
        assert!(matches!(
            b.probe(0x000, 2, 4, PrefetchHint::None).0,
            L0LookupResult::Hit { .. }
        ));
        assert_eq!(
            b.probe(0x020, 2, 5, PrefetchHint::None).0,
            L0LookupResult::Miss
        );
    }

    #[test]
    fn unbounded_capacity_never_evicts() {
        let mut b = L0Buffer::new(L0Capacity::Unbounded, SB, BB, N);
        for i in 0..1000 {
            b.insert(linear_entry(i * 32, 0, i));
        }
        assert_eq!(b.len(), 1000);
    }

    #[test]
    fn in_flight_entry_reports_fill_time() {
        let mut b = buf(4);
        let mut e = linear_entry(0x100, 0, 10);
        e.ready_at = 42;
        b.insert(e);
        match b.probe(0x100, 2, 20, PrefetchHint::None).0 {
            L0LookupResult::Hit { ready_at } => assert_eq!(ready_at, 42),
            other => panic!("expected hit, got {other:?}"),
        }
        // after the fill lands, the hit is immediate (cycle itself)
        match b.probe(0x100, 2, 50, PrefetchHint::None).0 {
            L0LookupResult::Hit { ready_at } => assert_eq!(ready_at, 50),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn store_updates_one_copy_invalidates_replicas() {
        // same data resident twice: linear sub 0 and interleaved lane 0
        let mut b = buf(4);
        b.insert(linear_entry(0, 0, 0));
        b.insert(inter_entry(0, 2, 0, 1));
        let (updated, removed) = b.store_update(0, 2, 5);
        assert!(updated);
        assert_eq!(removed, 1);
        assert_eq!(b.len(), 1);
        // the MRU copy (interleaved, inserted later) survives
        assert!(matches!(
            b.entries()[0].mapping,
            EntryMapping::Interleaved { .. }
        ));
    }

    #[test]
    fn store_miss_does_not_allocate() {
        let mut b = buf(4);
        let (updated, removed) = b.store_update(0x500, 4, 0);
        assert!(!updated);
        assert_eq!(removed, 0);
        assert!(b.is_empty());
    }

    #[test]
    fn positive_prefetch_fires_on_last_element_linear() {
        let mut b = buf(4);
        b.insert(linear_entry(0x100, 1, 0)); // bytes 8..16
                                             // elements are 2 bytes: subblock holds elements at offsets 8,10,12,14
        let (_, a) = b.probe(0x108, 2, 1, PrefetchHint::Positive);
        assert!(a.is_none(), "not the last element");
        let (_, a) = b.probe(0x10E, 2, 2, PrefetchHint::Positive);
        let a = a.expect("last element triggers prefetch");
        assert_eq!(a.target_addr, 0x110); // next subblock
                                          // an instruction without the hint never triggers
        let (_, a) = b.probe(0x10E, 2, 3, PrefetchHint::None);
        assert!(a.is_none());
    }

    #[test]
    fn negative_prefetch_fires_on_first_element_linear() {
        let mut b = buf(4);
        b.insert(linear_entry(0x100, 1, 0));
        let (_, a) = b.probe(0x10E, 2, 1, PrefetchHint::Negative);
        assert!(a.is_none());
        let (_, a) = b.probe(0x108, 2, 2, PrefetchHint::Negative);
        let a = a.expect("first element triggers prefetch");
        assert_eq!(a.target_addr, 0x100); // previous subblock
    }

    #[test]
    fn positive_prefetch_interleaved_targets_next_block() {
        let mut b = buf(4);
        b.insert(inter_entry(0x100, 2, 1, 0)); // elements 1,5,9,13
                                               // last element of lane 1 = 13 -> bytes 26..28
        let (_, a) = b.probe(0x100 + 26, 2, 1, PrefetchHint::Positive);
        let a = a.expect("last lane element triggers prefetch");
        assert_eq!(a.target_addr, 0x120);
        assert_eq!(a.mapping, EntryMapping::Interleaved { factor: 2, lane: 1 });
    }

    #[test]
    fn invalidate_all_empties_buffer() {
        let mut b = buf(4);
        b.insert(linear_entry(0, 0, 0));
        b.insert(linear_entry(32, 0, 1));
        b.invalidate_all();
        assert!(b.is_empty());
    }

    #[test]
    fn invalidate_addr_removes_covering_entries() {
        let mut b = buf(4);
        b.insert(linear_entry(0, 0, 0));
        b.insert(linear_entry(0, 1, 1));
        assert_eq!(b.invalidate_addr(0, 2), 1); // only sub 0 covers byte 0
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn refill_refreshes_existing_entry() {
        let mut b = buf(2);
        b.insert(linear_entry(0, 0, 0));
        b.insert(linear_entry(0, 0, 10));
        assert_eq!(b.len(), 1);
        assert_eq!(b.entries()[0].last_use, 10);
    }

    #[test]
    fn covers_checks_any_mapping() {
        let mut b = buf(4);
        b.insert(inter_entry(0, 2, 0, 0));
        assert!(b.covers(0));
        assert!(b.covers(8));
        assert!(!b.covers(2));
    }
}
