//! The word-interleaved distributed cache baseline (§5.3, ref. \[10\]).
//!
//! The L1 is distributed among clusters in a word-interleaved manner:
//! word `w` statically belongs to cluster `w mod N`. The design is much
//! simpler than MultiVLIW (no coherence protocol — every word has exactly
//! one home), but the static mapping makes many accesses remote. Each
//! cluster gets a small *attraction buffer* that caches remotely-mapped
//! words to recover locality; it is hardware-managed, not flexible, and
//! not under compiler control — the paper's proposal replaces exactly this
//! structure with the flexible L0 buffers.

use crate::cache::SetAssocCache;
use crate::interconnect::Interconnect;
use crate::mshr::MshrFile;
use crate::request::{MemReply, MemRequest, ReqKind, ServicedBy};
use crate::stats::MemStats;
use crate::MemoryModel;
use vliw_machine::{ClusterId, MachineConfig, WordInterleavedConfig};

/// One attraction-buffer entry: a remotely-mapped word.
#[derive(Debug, Clone, Copy)]
struct AttractionEntry {
    word_addr: u64,
    last_use: u64,
    ready_at: u64,
}

/// A per-cluster attraction buffer: fully associative, LRU, word
/// granularity.
///
/// The buffer is a *set*: `entries` is kept sorted by `word_addr`, so
/// its layout is a function of its contents alone and two buffers that
/// hold the same words with the same timestamps are the same value,
/// whatever order the words arrived in. The victim is the entry with
/// the least `(last_use, word_addr)`; the word address only breaks
/// `last_use` ties, which the paper's machine never produces (a buffer
/// is stamped only by its own cluster's accesses, one memory unit per
/// cluster) — see DESIGN.md §14.
#[derive(Debug, Clone)]
struct AttractionBuffer {
    entries: Vec<AttractionEntry>,
    capacity: usize,
    word_bytes: u64,
}

impl AttractionBuffer {
    fn new(capacity: usize, word_bytes: u64) -> Self {
        AttractionBuffer {
            entries: Vec::new(),
            capacity,
            word_bytes,
        }
    }

    fn word_base(&self, addr: u64) -> u64 {
        addr / self.word_bytes * self.word_bytes
    }

    /// The position of `addr`'s word: `Ok` where it is resident, `Err`
    /// where it would be inserted.
    fn find(&self, addr: u64) -> Result<usize, usize> {
        let w = self.word_base(addr);
        self.entries.binary_search_by_key(&w, |e| e.word_addr)
    }

    fn probe(&mut self, addr: u64, cycle: u64) -> Option<u64> {
        let i = self.find(addr).ok()?;
        let e = &mut self.entries[i];
        e.last_use = cycle;
        Some(e.ready_at.max(cycle))
    }

    fn insert(&mut self, addr: u64, cycle: u64, ready_at: u64) {
        if let Ok(i) = self.find(addr) {
            let e = &mut self.entries[i];
            e.last_use = cycle;
            e.ready_at = e.ready_at.min(ready_at);
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            // `min_by_key` keeps the first minimum, which in word order
            // is the least `(last_use, word_addr)`.
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.remove(victim);
        }
        let (Ok(at) | Err(at)) = self.find(addr);
        self.entries.insert(
            at,
            AttractionEntry {
                word_addr: self.word_base(addr),
                last_use: cycle,
                ready_at,
            },
        );
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Folds the buffer's entries into `h` at boundary `base`. Entries
    /// stream in storage order, which is word order, so equal sets
    /// digest equal. `last_use` enters as its replacement rank and
    /// `ready_at` as its live offset
    /// ([`lru_rank_by`](crate::digest::lru_rank_by) /
    /// [`live_ready`](crate::digest::live_ready)); the rank's index
    /// tie-break is the word order the victim rule uses.
    fn digest_into(&self, h: &mut crate::digest::Fnv, base: u64) {
        h.write_u64(self.entries.len() as u64);
        for (i, e) in self.entries.iter().enumerate() {
            h.write_u64(e.word_addr);
            h.write_u64(crate::digest::lru_rank_by(&self.entries, i, base, |x| {
                x.last_use
            }));
            h.write_u64(crate::digest::live_ready(e.ready_at, base));
        }
    }

    /// Shifts every entry's timestamps forward by `delta` cycles.
    fn advance(&mut self, delta: u64) {
        for e in &mut self.entries {
            e.last_use += delta;
            e.ready_at += delta;
        }
    }
}

/// The word-interleaved distributed L1 with attraction buffers.
///
/// Bank geometry note: each cluster's 2 KB bank holds its quarter (8 B) of
/// every cached 32 B block; tags are tracked at block granularity, so the
/// tag store is built as `bank_bytes × N` with the full block size —
/// capacity-equivalent to the real banked layout.
#[derive(Debug)]
pub struct WordInterleavedMem {
    cfg: WordInterleavedConfig,
    n_clusters: usize,
    banks: Vec<SetAssocCache<()>>,
    attraction: Vec<AttractionBuffer>,
    ic: Interconnect,
    /// One MSHR file per home module: a request to a line whose L2
    /// refill is still in flight at its home bank merges instead of
    /// paying a second refill.
    mshr: MshrFile,
    stats: MemStats,
}

impl WordInterleavedMem {
    /// Builds the word-interleaved memory for `machine` with the default
    /// parameters and the machine's interconnect. Remote word traffic
    /// rides the interconnect cluster-to-cluster (the cache module is
    /// co-located with its home cluster) and queues on the home tile's
    /// bank port.
    pub fn new(machine: &MachineConfig) -> Self {
        let clusters = machine.clusters;
        let cfg = WordInterleavedConfig::micro2003();
        let net = machine.interconnect;
        WordInterleavedMem {
            cfg,
            n_clusters: clusters,
            banks: (0..clusters)
                .map(|_| {
                    SetAssocCache::new(
                        cfg.bank_bytes * clusters,
                        cfg.block_bytes,
                        cfg.associativity,
                    )
                })
                .collect(),
            attraction: (0..clusters)
                .map(|_| AttractionBuffer::new(cfg.attraction_entries, cfg.word_bytes as u64))
                .collect(),
            ic: Interconnect::new(clusters, net),
            mshr: MshrFile::new(clusters, net.mshr_entries),
            stats: MemStats::for_network(&net),
        }
    }

    /// The statically-assigned home cluster of `addr`.
    pub fn owner_of(&self, addr: u64) -> ClusterId {
        self.cfg.owner_of(addr, self.n_clusters)
    }

    /// Network cost of one trip to `owner`'s home module:
    /// `(overhead, queue_cycles, link_stalls, return_way)`. An
    /// MSHR-merged access still walks the network (reserving mesh link
    /// slots) but attaches to the in-flight refill instead of granting a
    /// bank port, so its queueing is zero by construction; `return_way`
    /// is the one-way hop cost the *reply* pays — the leg that cannot
    /// overlap an in-flight refill.
    fn home_trip(
        &mut self,
        cluster: ClusterId,
        owner: usize,
        cycle: u64,
        merged: bool,
    ) -> (u64, u64, u64, u64) {
        if merged {
            let tr = self
                .ic
                .cluster_traverse_overhead(&mut self.stats, cluster, owner, cycle);
            (tr.overhead(), 0, tr.link_stall_cycles, tr.one_way_cycles)
        } else {
            let r = self
                .ic
                .cluster_overhead(&mut self.stats, cluster, owner, cycle);
            (
                r.overhead(),
                r.queue_cycles,
                r.link_stall_cycles,
                r.hop_cycles / 2,
            )
        }
    }

    /// Entries currently held in `cluster`'s attraction buffer.
    pub fn attraction_len(&self, cluster: ClusterId) -> usize {
        self.attraction[cluster.index()].len()
    }

    /// Bank access for the home cluster:
    /// `(latency_from_bank, hit, in_flight_ready)`.
    ///
    /// A miss fetches the whole L1 block from L2 and distributes each
    /// bank's share to it — allocation is *block-global* (\[10\] interleaves
    /// blocks across the cache modules), so the distributed cache has the
    /// same block capacity as the unified L1, not per-bank-independent
    /// reach.
    ///
    /// `in_flight_ready` is `Some(cycle)` when the line's refill is
    /// still flying and the access MSHR-merged into it: the caller
    /// finishes no earlier than that cycle, but the wait *overlaps* the
    /// network trip instead of stacking on top of it. The MSHR window is
    /// probed at `probe_at` — the cycle the request actually reaches the
    /// home module (issue + static forward hops), not its issue cycle,
    /// so a request that arrives after the refill landed takes the
    /// ordinary port-arbitrated path.
    fn bank_access(
        &mut self,
        owner: usize,
        addr: u64,
        cycle: u64,
        probe_at: u64,
    ) -> (u64, bool, Option<u64>) {
        let block = self.banks[owner].block_base(addr);
        if self.banks[owner].lookup(addr, cycle).is_some() {
            self.stats.l1_hits += 1;
            if let Some(ready) = self.mshr.lookup(owner, block, probe_at) {
                // The home module's refill of this line is still in
                // flight: the access attaches to it instead of issuing
                // (or waiting as if it were) a plain hit.
                self.stats.record_mshr_merge();
                return (self.cfg.local_latency as u64, true, Some(ready));
            }
            (self.cfg.local_latency as u64, true, None)
        } else {
            for bank in &mut self.banks {
                bank.insert(addr, (), cycle);
            }
            self.stats.l1_misses += 1;
            // miss path: bank probe + L2 round trip (same end-to-end cost
            // as the unified hierarchy's L1-miss path). The refill window
            // lives in home-bank time: it opens when the request reaches
            // the module (`probe_at`) and the data lands a bank-local
            // L2 round later.
            let latency = self.cfg.local_latency as u64 + self.cfg.l2_latency as u64;
            self.mshr
                .register(owner, block, probe_at, probe_at + latency);
            (latency, false, None)
        }
    }
}

impl MemoryModel for WordInterleavedMem {
    fn access(&mut self, req: &MemRequest) -> MemReply {
        if matches!(req.kind, ReqKind::Prefetch | ReqKind::StoreReplica) {
            return MemReply::new(req.cycle + 1, ServicedBy::L1);
        }
        self.stats.accesses += 1;
        let me = req.cluster.index();
        let owner = self.owner_of(req.addr).index();
        let is_store = req.kind == ReqKind::Store;

        // A remote request's MSHR probe happens when it reaches the home
        // module: issue + the static forward hop cost (local requests
        // are already there).
        let arrival = req.cycle
            + if owner == me {
                0
            } else {
                let ic_cfg = self.ic.config();
                ic_cfg.cluster_hops(me, owner, self.n_clusters) as u64 * ic_cfg.hop_latency as u64
            };

        if owner == me {
            self.stats.local_accesses += 1;
            let (lat, hit, inflight) = self.bank_access(owner, req.addr, req.cycle, arrival);
            return MemReply::new(
                (req.cycle + lat).max(inflight.unwrap_or(0)),
                if hit { ServicedBy::L1 } else { ServicedBy::L2 },
            )
            .merged(inflight.is_some());
        }

        // Remotely-mapped word: the bus to the remote bank and back.
        let bus_round = self.cfg.remote_latency as u64 - self.cfg.local_latency as u64;
        if is_store {
            // write-through to the home bank over the bus; any cached
            // attraction copies elsewhere are invalidated by the snoop,
            // the local one is updated in place.
            self.stats.remote_accesses += 1;
            let (lat, _, inflight) = self.bank_access(owner, req.addr, req.cycle, arrival);
            for (i, ab) in self.attraction.iter_mut().enumerate() {
                if i != me && ab.invalidate(req.addr) {
                    self.stats.invalidations += 1;
                }
            }
            self.attraction[me].probe(req.addr, req.cycle); // refresh if present
            let merged = inflight.is_some();
            let (overhead, queue, links, return_way) =
                self.home_trip(req.cluster, owner, req.cycle, merged);
            // the wait for an in-flight refill overlaps the *forward*
            // trip only: the reply still pays its bus share + hops back
            let merged_done = inflight
                .map(|r| r + bus_round / 2 + return_way)
                .unwrap_or(0);
            let done = (req.cycle + lat + bus_round + overhead).max(merged_done);
            return MemReply::new(done, ServicedBy::Remote)
                .with_queue(queue)
                .with_link_stalls(links)
                .merged(merged);
        }

        // Remote load: attraction buffer first.
        if let Some(ready) = self.attraction[me].probe(req.addr, req.cycle) {
            self.stats.l0_hits += 1;
            return MemReply::new(
                ready.max(req.cycle) + self.cfg.attraction_latency as u64,
                ServicedBy::L0,
            );
        }
        self.stats.l0_misses += 1;
        self.stats.remote_accesses += 1;
        let (bank_lat, hit, inflight) = self.bank_access(owner, req.addr, req.cycle, arrival);
        let merged = inflight.is_some();
        let (overhead, queue, links, return_way) =
            self.home_trip(req.cluster, owner, req.cycle, merged);
        // the wait for an in-flight refill overlaps the *forward* trip
        // only: the reply still pays its bus share + hops back
        let merged_done = inflight
            .map(|r| r + bus_round / 2 + return_way)
            .unwrap_or(0);
        let ready = (req.cycle + bank_lat + bus_round + overhead).max(merged_done);
        self.attraction[me].insert(req.addr, req.cycle, ready);
        MemReply::new(
            ready,
            if hit {
                ServicedBy::Remote
            } else {
                ServicedBy::L2
            },
        )
        .with_queue(queue)
        .with_link_stalls(links)
        .merged(merged)
    }

    fn retire(&mut self, cycle: u64) {
        self.mshr.retire(cycle);
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn network_load(&self) -> Option<vliw_machine::NetLoad> {
        (!self.ic.is_flat()).then(|| self.ic.network_load())
    }

    fn state_digest(&self, base_cycle: u64) -> u64 {
        let mut h = crate::digest::Fnv::new();
        for bank in &self.banks {
            bank.digest_into(&mut h, base_cycle);
        }
        for ab in &self.attraction {
            ab.digest_into(&mut h, base_cycle);
        }
        self.ic.digest_into(&mut h, base_cycle);
        self.mshr.digest_into(&mut h, base_cycle);
        h.finish()
    }

    fn advance_clock(&mut self, delta: u64) {
        for bank in &mut self.banks {
            bank.advance(delta);
        }
        for ab in &mut self.attraction {
            ab.advance(delta);
        }
        self.ic.advance(delta);
        self.mshr.advance(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::MemHints;

    fn mem() -> WordInterleavedMem {
        WordInterleavedMem::new(&MachineConfig::micro2003())
    }

    fn load(c: usize, addr: u64, cycle: u64) -> MemRequest {
        MemRequest::load(ClusterId::new(c), addr, 4, MemHints::no_access(), cycle)
    }

    fn store(c: usize, addr: u64, cycle: u64) -> MemRequest {
        MemRequest::store(ClusterId::new(c), addr, 4, MemHints::no_access(), cycle)
    }

    #[test]
    fn ownership_is_static() {
        let m = mem();
        assert_eq!(m.owner_of(0).index(), 0);
        assert_eq!(m.owner_of(4).index(), 1);
        assert_eq!(m.owner_of(8).index(), 2);
        assert_eq!(m.owner_of(12).index(), 3);
        assert_eq!(m.owner_of(16).index(), 0);
    }

    #[test]
    fn local_access_is_fast_after_warmup() {
        let mut m = mem();
        m.access(&load(0, 0x100, 0)); // 0x100/4 = 64, 64%4 = 0: local, cold
        let r = m.access(&load(0, 0x100, 20));
        assert_eq!(r.ready_at - 20, 2);
        assert_eq!(m.stats().local_accesses, 2);
    }

    #[test]
    fn remote_access_pays_bus_round_trip() {
        let mut m = mem();
        // 0x104 is owned by cluster 1; access from cluster 0
        m.access(&load(1, 0x104, 0)); // warm the home bank
        let r = m.access(&load(0, 0x104, 10));
        assert_eq!(r.ready_at - 10, 6); // 2 bank + 4 bus
        assert_eq!(r.serviced_by, ServicedBy::Remote);
    }

    #[test]
    fn attraction_buffer_recovers_remote_locality() {
        let mut m = mem();
        m.access(&load(1, 0x104, 0));
        m.access(&load(0, 0x104, 10)); // remote; allocates attraction copy
        let r = m.access(&load(0, 0x104, 50));
        assert_eq!(r.ready_at - 50, 1);
        assert_eq!(r.serviced_by, ServicedBy::L0);
        assert_eq!(m.stats().l0_hits, 1);
    }

    #[test]
    fn attraction_buffer_is_lru_bounded() {
        let mut m = mem();
        // touch 9 distinct remote words (capacity 8): the first one evicts
        for i in 0..9u64 {
            // addresses owned by cluster 1: word index ≡ 1 mod 4
            let addr = 4 + i * 16;
            m.access(&load(0, addr, i * 10));
        }
        assert_eq!(m.attraction_len(ClusterId::new(0)), 8);
        let r = m.access(&load(0, 4, 1000));
        assert_ne!(r.serviced_by, ServicedBy::L0, "evicted word must re-fetch");
    }

    #[test]
    fn remote_store_invalidates_other_attraction_copies() {
        let mut m = mem();
        m.access(&load(1, 0x104, 0));
        m.access(&load(0, 0x104, 10)); // cluster 0 attracts the word
        m.access(&load(2, 0x104, 20)); // cluster 2 attracts the word
                                       // cluster 3 stores it: clusters 0 and 2 lose their copies
        m.access(&store(3, 0x104, 30));
        assert_eq!(m.stats().invalidations, 2);
        let r = m.access(&load(0, 0x104, 40));
        assert_ne!(r.serviced_by, ServicedBy::L0);
    }

    #[test]
    fn attraction_buffer_digest_is_insertion_order_free() {
        // Three words owned by cluster 1, in three different L1 blocks
        // (one line per L1 set, so the banks' digests are order-free
        // too). Cluster 0 attracts them in opposite orders, then touches
        // them in one order, so both buffers end with equal timestamps.
        let words = [0x104u64, 0x124, 0x144];
        let build = |order: [u64; 3]| {
            let mut m = mem();
            for (i, &w) in order.iter().enumerate() {
                m.access(&load(0, w, i as u64 * 10));
            }
            for (i, &w) in words.iter().enumerate() {
                let r = m.access(&load(0, w, 100 + i as u64 * 10));
                assert_eq!(r.serviced_by, ServicedBy::L0);
            }
            m
        };
        let a = build(words);
        let b = build([words[2], words[1], words[0]]);
        assert_eq!(a.state_digest(1000), b.state_digest(1000));
    }

    #[test]
    fn attraction_buffer_ties_evict_the_same_word_in_any_order() {
        // [V(1), Y(5), X(5)] and [Y(5), V(1), X(5)]: the same words with
        // the same `last_use`, built in different orders. Evicting V and
        // then one of the tied X/Y must pick the same word in both.
        let (v, x, y, z, w) = (0x10, 0x20, 0x30, 0x40, 0x50);
        let mut a = AttractionBuffer::new(3, 4);
        a.insert(v, 1, 1);
        a.insert(y, 5, 5);
        a.insert(x, 5, 5);
        let mut b = AttractionBuffer::new(3, 4);
        b.insert(y, 0, 0);
        b.insert(v, 1, 1);
        b.probe(y, 5);
        b.insert(x, 5, 5);
        for ab in [&mut a, &mut b] {
            ab.insert(z, 6, 6); // evicts V, the least recent
            ab.insert(w, 7, 7); // X and Y tie at 5: the lower word goes
        }
        let words = |ab: &AttractionBuffer| ab.entries.iter().map(|e| e.word_addr).collect();
        let (wa, wb): (Vec<u64>, Vec<u64>) = (words(&a), words(&b));
        assert_eq!(wa, wb);
        assert_eq!(wa, vec![y, z, w]);
        let digest = |ab: &AttractionBuffer| {
            let mut h = crate::digest::Fnv::new();
            ab.digest_into(&mut h, 7);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn unit_stride_walk_is_three_quarters_remote() {
        let mut m = mem();
        let mut remote = 0;
        for i in 0..64u64 {
            let r = m.access(&load(0, i * 4, i * 10));
            if m.owner_of(i * 4).index() != 0 {
                remote += 1;
            }
            let _ = r;
        }
        assert_eq!(remote, 48, "3 of 4 words are remote for a unit stride");
    }
}
