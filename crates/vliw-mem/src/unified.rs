//! The unified-L1 memory systems: the baseline without L0 buffers and the
//! paper's proposal with them.

use crate::cache::SetAssocCache;
use crate::interconnect::{Interconnect, Route};
use crate::l0::{Entry, EntryMapping, L0Buffer, L0LookupResult, PrefetchAction};
use crate::mshr::MshrFile;
use crate::request::{MemReply, MemRequest, ReqKind, ServicedBy};
use crate::stats::MemStats;
use crate::wheel::SlotWheel;
use crate::MemoryModel;
use vliw_machine::{AccessHint, ClusterId, MachineConfig, MappingHint, PrefetchHint};

/// Outcome of one trip through the shared unified-L1 path.
#[derive(Debug, Clone, Copy)]
struct L1Access {
    /// Latency from the request cycle until the value is back at the
    /// cluster.
    lat: u64,
    /// `true` when L1 had the line (including in-flight MSHR merges).
    hit: bool,
    /// Cycles queued behind the bank's ports.
    queue: u64,
    /// Cycles stalled at saturated mesh links.
    link_stalls: u64,
    /// `true` when the access merged into an in-flight refill.
    merged: bool,
}

/// The shared unified-L1 timing stack: the tag store, the cluster ↔ bank
/// interconnect and the bank MSHRs, owned together because every access
/// walks all three in order.
///
/// With MSHRs disabled (`mshr_entries == 0`, the default) the path is
/// bit-exact with the pre-MSHR simulator: route (hops + port queue),
/// probe, L2 on miss, hops back. With MSHRs enabled, a request to a line
/// whose refill is still in flight attaches to the existing MSHR — it
/// pays the traversal but **no port grant and no second refill** — and
/// completes when the in-flight data returns.
#[derive(Debug)]
struct L1Stack {
    l1: SetAssocCache<()>,
    ic: Interconnect,
    mshr: MshrFile,
}

impl L1Stack {
    fn new(cfg: &MachineConfig) -> Self {
        L1Stack {
            l1: SetAssocCache::new(cfg.l1.size_bytes, cfg.l1.block_bytes, cfg.l1.associativity),
            ic: Interconnect::new(cfg.clusters, cfg.interconnect),
            mshr: MshrFile::for_config(&cfg.interconnect),
        }
    }

    /// Routes to the bank owning `addr`, probes the unified L1
    /// (allocating on miss) and returns the end-to-end timing split.
    ///
    /// One path serves both the MSHR-off and MSHR-on configurations:
    /// with `mshr_entries == 0` the merge probe never fires and the
    /// traverse + port-grant + LRU-at-`start` sequence reproduces the
    /// pre-MSHR route() path cycle-for-cycle (pinned by the seed-exact
    /// tests and the untouched contended goldens).
    fn access(
        &mut self,
        stats: &mut MemStats,
        cfg: &MachineConfig,
        cluster: ClusterId,
        addr: u64,
        cycle: u64,
    ) -> L1Access {
        let flat = self.ic.is_flat();
        let tr = self.ic.traverse(cluster, addr, cycle);
        let block = self.l1.block_base(addr);
        let l1_lat = cfg.l1.latency as u64;
        // peek, not lookup: the LRU refresh happens at the port-grant
        // cycle below, exactly where the pre-MSHR path put it.
        let resident = self.l1.peek(addr).is_some();
        if resident {
            if let Some(ready) = self.mshr.lookup(tr.bank, block, tr.arrival) {
                // Secondary miss: the line's refill is still in flight.
                // Attach to its MSHR — no port grant, no second refill —
                // and complete when the primary's data lands.
                if !flat {
                    stats.record_traverse(&tr);
                }
                stats.record_mshr_merge();
                self.l1.lookup(addr, tr.arrival); // LRU refresh
                let done = (tr.arrival + l1_lat).max(ready);
                return L1Access {
                    lat: (done - cycle) + tr.one_way_cycles,
                    hit: true,
                    queue: 0,
                    link_stalls: tr.link_stall_cycles,
                    merged: true,
                };
            }
        }
        let start = if flat {
            tr.arrival
        } else {
            let start = self.ic.grant_port(tr.bank, tr.arrival);
            stats.record_route(&Route {
                bank_start: start,
                queue_cycles: start - tr.arrival,
                hop_cycles: 2 * tr.one_way_cycles,
                link_stall_cycles: tr.link_stall_cycles,
            });
            start
        };
        let (service, hit) = if resident {
            self.l1.lookup(addr, start); // LRU refresh
            (l1_lat, true)
        } else {
            self.l1.insert(addr, (), start);
            let service = l1_lat + cfg.l2_latency as u64;
            // The refill's data reaches the bank when its service ends;
            // secondaries issued inside [cycle, data_ready) merge.
            self.mshr.register(tr.bank, block, cycle, start + service);
            (service, false)
        };
        L1Access {
            lat: (start - cycle) + service + tr.one_way_cycles,
            hit,
            queue: start - tr.arrival,
            link_stalls: tr.link_stall_cycles,
            merged: false,
        }
    }

    /// Folds the stack's timing-relevant state (L1 tags, interconnect
    /// occupancies, MSHR flight windows) into `h` relative to `base`.
    fn digest_into(&self, h: &mut crate::digest::Fnv, base: u64) {
        self.l1.digest_into(h, base);
        self.ic.digest_into(h, base);
        self.mshr.digest_into(h, base);
    }

    /// Shifts every clock-bearing timestamp forward by `delta` cycles.
    fn advance(&mut self, delta: u64) {
        self.l1.advance(delta);
        self.ic.advance(delta);
        self.mshr.advance(delta);
    }
}

/// Per-cluster bus to the unified L1: one request slot per cycle; a busy
/// slot delays the request (the contention §5.2 blames for the jpegdec
/// memory-pressure loop).
///
/// Reservations are per-cycle (not a monotonic frontier) because the
/// simulator replays overlapped loop iterations one at a time: requests
/// arrive out of global cycle order, and an earlier-cycled request must
/// not be penalized by a later-cycled one that was merely *processed*
/// first.
///
/// Each bus keeps its reservations in an occupancy [`SlotWheel`] at
/// capacity 1: stale slots retire as the clock passes them, no prune
/// sweeps.
#[derive(Debug, Clone)]
struct ClusterBuses {
    reserved: Vec<SlotWheel>,
}

/// How far behind the newest bus grant a reservation is kept alive.
const BUS_HORIZON: u64 = 512;

impl ClusterBuses {
    fn new(n: usize) -> Self {
        ClusterBuses {
            reserved: vec![SlotWheel::new(BUS_HORIZON); n],
        }
    }

    /// Acquires the bus of `cluster` at the first free cycle ≥ `cycle`;
    /// returns the actual start cycle.
    fn acquire(&mut self, cluster: ClusterId, cycle: u64) -> u64 {
        self.reserved[cluster.index()].reserve(cycle, 1)
    }

    /// Folds every cluster's bus reservations into `h` relative to `base`.
    fn digest_into(&self, h: &mut crate::digest::Fnv, base: u64) {
        for bus in &self.reserved {
            bus.digest_into(h, base);
        }
    }

    /// Shifts every bus reservation forward by `delta` cycles.
    fn advance(&mut self, delta: u64) {
        for bus in &mut self.reserved {
            bus.advance(delta);
        }
    }
}

// ---------------------------------------------------------------------
// Baseline: unified L1, no L0 buffers
// ---------------------------------------------------------------------

/// The baseline clustered VLIW memory system: every access pays the
/// centralized L1 latency (Figure 5's normalization baseline).
#[derive(Debug)]
pub struct UnifiedL1 {
    cfg: MachineConfig,
    stack: L1Stack,
    buses: ClusterBuses,
    stats: MemStats,
}

impl UnifiedL1 {
    /// Creates the baseline memory system for `cfg` (any L0 configuration
    /// in `cfg` is ignored).
    pub fn new(cfg: &MachineConfig) -> Self {
        UnifiedL1 {
            cfg: cfg.clone(),
            stack: L1Stack::new(cfg),
            buses: ClusterBuses::new(cfg.clusters),
            stats: MemStats::for_network(&cfg.interconnect),
        }
    }
}

impl MemoryModel for UnifiedL1 {
    fn access(&mut self, req: &MemRequest) -> MemReply {
        match req.kind {
            ReqKind::Prefetch | ReqKind::StoreReplica => {
                // No L0 buffers: prefetches/replicas degenerate to no-ops.
                return MemReply::new(req.cycle + 1, ServicedBy::L1);
            }
            ReqKind::Load | ReqKind::Store => {}
        }
        self.stats.accesses += 1;
        let start = self.buses.acquire(req.cluster, req.cycle);
        let a = self
            .stack
            .access(&mut self.stats, &self.cfg, req.cluster, req.addr, start);
        if a.hit {
            self.stats.l1_hits += 1;
        } else {
            self.stats.l1_misses += 1;
        }
        MemReply::new(
            start + a.lat,
            if a.hit {
                ServicedBy::L1
            } else {
                ServicedBy::L2
            },
        )
        .with_queue(a.queue)
        .with_link_stalls(a.link_stalls)
        .merged(a.merged)
    }

    fn retire(&mut self, cycle: u64) {
        self.stack.mshr.retire(cycle);
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn network_load(&self) -> Option<vliw_machine::NetLoad> {
        (!self.stack.ic.is_flat()).then(|| self.stack.ic.network_load())
    }

    fn state_digest(&self, base_cycle: u64) -> u64 {
        let mut h = crate::digest::Fnv::new();
        self.buses.digest_into(&mut h, base_cycle);
        self.stack.digest_into(&mut h, base_cycle);
        h.finish()
    }

    fn advance_clock(&mut self, delta: u64) {
        self.buses.advance(delta);
        self.stack.advance(delta);
    }
}

// ---------------------------------------------------------------------
// The proposal: unified L1 + flexible compiler-managed L0 buffers
// ---------------------------------------------------------------------

/// The paper's memory system: a flexible, compiler-managed L0 buffer per
/// cluster in front of the unified L1 (§3).
#[derive(Debug)]
pub struct UnifiedWithL0 {
    cfg: MachineConfig,
    l0: Vec<L0Buffer>,
    stack: L1Stack,
    buses: ClusterBuses,
    stats: MemStats,
}

impl UnifiedWithL0 {
    /// Creates the L0-buffer memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no L0 configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let l0cfg = cfg.l0.expect("UnifiedWithL0 requires an L0 configuration");
        let sb = cfg.subblock_bytes() as u64;
        let bb = cfg.l1.block_bytes as u64;
        UnifiedWithL0 {
            cfg: cfg.clone(),
            l0: (0..cfg.clusters)
                .map(|_| L0Buffer::new(l0cfg.entries, sb, bb, cfg.clusters))
                .collect(),
            stack: L1Stack::new(cfg),
            buses: ClusterBuses::new(cfg.clusters),
            stats: MemStats::for_network(&cfg.interconnect),
        }
    }

    /// Direct read access to one cluster's buffer (tests/diagnostics).
    pub fn buffer(&self, cluster: ClusterId) -> &L0Buffer {
        &self.l0[cluster.index()]
    }

    fn block_base(&self, addr: u64) -> u64 {
        let bb = self.cfg.l1.block_bytes as u64;
        addr / bb * bb
    }

    /// Fills subblock(s) for a load/prefetch miss according to the mapping
    /// hint. Returns the cycle the data is available and the refill's
    /// interconnect accounting.
    fn fill(
        &mut self,
        cluster: ClusterId,
        addr: u64,
        size: u8,
        mapping: MappingHint,
        prefetch: PrefetchHint,
        cycle: u64,
    ) -> (u64, L1Access) {
        let start = self.buses.acquire(cluster, cycle);
        let a = self
            .stack
            .access(&mut self.stats, &self.cfg, cluster, addr, start);
        let l1_lat = a.lat;
        if a.hit {
            self.stats.l1_hits += 1;
        } else {
            self.stats.l1_misses += 1;
        }
        let sb = self.cfg.subblock_bytes() as u64;
        let block = self.block_base(addr);
        match mapping {
            MappingHint::Linear => {
                let ready = start + l1_lat;
                let sub_index = ((addr - block) / sb) as u8;
                self.l0[cluster.index()].insert(Entry {
                    block_addr: block,
                    mapping: EntryMapping::Linear { sub_index },
                    last_use: cycle,
                    ready_at: ready,
                    prefetch,
                    elem_bytes: size,
                });
                self.stats.linear_subblocks += 1;
                (ready, a)
            }
            MappingHint::Interleaved => {
                // Whole block fetched, shuffled (+1 cycle), and dealt to
                // consecutive clusters starting at the accessor.
                let penalty = self
                    .cfg
                    .l0
                    .map(|l| l.interleave_penalty as u64)
                    .unwrap_or(0);
                let ready = start + l1_lat + penalty;
                let f = size.max(1);
                let lane0 = (((addr - block) / f as u64) % self.cfg.clusters as u64) as u8;
                for j in 0..self.cfg.clusters {
                    let c = cluster.offset(j, self.cfg.clusters);
                    let lane = ((lane0 as usize + j) % self.cfg.clusters) as u8;
                    self.l0[c.index()].insert(Entry {
                        block_addr: block,
                        mapping: EntryMapping::Interleaved { factor: f, lane },
                        last_use: cycle,
                        ready_at: ready,
                        // only the accessor's lane propagates the prefetch
                        // hint: one trigger refetches the whole next block
                        prefetch: if j == 0 { prefetch } else { PrefetchHint::None },
                        elem_bytes: f,
                    });
                    self.stats.interleaved_subblocks += 1;
                }
                (ready, a)
            }
        }
    }

    /// Services an automatic (hint-triggered) prefetch action. The
    /// configured prefetch distance fetches that many consecutive
    /// subblocks (linear) or blocks (interleaved) in the walk direction —
    /// distance 1 is the paper's hint semantics, distance 2 the §5.2
    /// ablation that recovers the small-II stalls of epicdec/rasta.
    fn run_prefetch_action(&mut self, cluster: ClusterId, action: PrefetchAction, cycle: u64) {
        let distance = self
            .cfg
            .l0
            .map(|l| l.prefetch_distance as u64)
            .unwrap_or(1)
            .max(1);
        let (step, mapping) = match action.mapping {
            EntryMapping::Linear { .. } => (self.cfg.subblock_bytes() as u64, MappingHint::Linear),
            EntryMapping::Interleaved { .. } => {
                (self.cfg.l1.block_bytes as u64, MappingHint::Interleaved)
            }
        };
        let negative = action.prefetch == PrefetchHint::Negative;
        // For interleaved refills the trigger cluster must receive the
        // *same lane* it holds for the current block (anchoring lane 0
        // here would rotate the lane↔cluster alignment and make every
        // sibling miss on the next block). Probing the address of the
        // lane's first element achieves that: the fill derives
        // lane0 = lane from it.
        let lane_offset = match action.mapping {
            EntryMapping::Interleaved { factor, lane } => lane as u64 * factor as u64,
            EntryMapping::Linear { .. } => 0,
        };
        for d in 0..distance {
            let delta = step * d;
            let base = if negative {
                match action.target_addr.checked_sub(delta) {
                    Some(t) => t,
                    None => break,
                }
            } else {
                action.target_addr + delta
            };
            let target = base + lane_offset;
            if self.l0[cluster.index()].covers(target) {
                continue; // already resident or in flight
            }
            self.stats.hint_prefetches += 1;
            let _ = self.fill(
                cluster,
                target,
                action.elem_bytes,
                mapping,
                action.prefetch,
                cycle,
            );
        }
    }
}

impl MemoryModel for UnifiedWithL0 {
    fn access(&mut self, req: &MemRequest) -> MemReply {
        let l0lat = self.cfg.l0.map(|l| l.latency as u64).unwrap_or(1);
        match req.kind {
            ReqKind::Load => {
                self.stats.accesses += 1;
                match req.hints.access {
                    AccessHint::NoAccess => {
                        let start = self.buses.acquire(req.cluster, req.cycle);
                        let a = self.stack.access(
                            &mut self.stats,
                            &self.cfg,
                            req.cluster,
                            req.addr,
                            start,
                        );
                        if a.hit {
                            self.stats.l1_hits += 1;
                        } else {
                            self.stats.l1_misses += 1;
                        }
                        MemReply::new(
                            start + a.lat,
                            if a.hit {
                                ServicedBy::L1
                            } else {
                                ServicedBy::L2
                            },
                        )
                        .with_queue(a.queue)
                        .with_link_stalls(a.link_stalls)
                        .merged(a.merged)
                    }
                    AccessHint::SeqAccess | AccessHint::ParAccess => {
                        let (result, action) = self.l0[req.cluster.index()].probe(
                            req.addr,
                            req.size as u64,
                            req.cycle,
                            req.hints.prefetch,
                        );
                        if let Some(action) = action {
                            self.run_prefetch_action(req.cluster, action, req.cycle);
                        }
                        match result {
                            L0LookupResult::Hit { ready_at } => {
                                self.stats.l0_hits += 1;
                                if req.hints.access == AccessHint::ParAccess {
                                    // the parallel L1 probe still occupies
                                    // the bus — and, on a banked network,
                                    // a bank port — even though its reply
                                    // is discarded; it reaches the bank
                                    // only once the bus slot is granted
                                    let start = self.buses.acquire(req.cluster, req.cycle);
                                    let _ = self.stack.ic.memory_overhead(
                                        &mut self.stats,
                                        req.cluster,
                                        req.addr,
                                        start,
                                    );
                                }
                                MemReply::new(ready_at.max(req.cycle) + l0lat, ServicedBy::L0)
                            }
                            L0LookupResult::Miss => {
                                self.stats.l0_misses += 1;
                                // SEQ probes L0 first (one extra cycle),
                                // PAR already has the L1 request going.
                                let fwd_cycle = match req.hints.access {
                                    AccessHint::SeqAccess => req.cycle + l0lat,
                                    _ => req.cycle,
                                };
                                let (ready, a) = self.fill(
                                    req.cluster,
                                    req.addr,
                                    req.size,
                                    req.hints.mapping,
                                    req.hints.prefetch,
                                    fwd_cycle,
                                );
                                MemReply::new(ready, ServicedBy::L1)
                                    .with_queue(a.queue)
                                    .with_link_stalls(a.link_stalls)
                                    .merged(a.merged)
                            }
                        }
                    }
                }
            }
            ReqKind::Store => {
                self.stats.accesses += 1;
                // Write-through: L1 is updated in parallel; the local L0
                // copy is updated only when the store is marked to access
                // the buffers. Remote buffers are never touched (§3.3).
                let start = self.buses.acquire(req.cluster, req.cycle);
                let a = self
                    .stack
                    .access(&mut self.stats, &self.cfg, req.cluster, req.addr, start);
                if a.hit {
                    self.stats.l1_hits += 1;
                } else {
                    self.stats.l1_misses += 1;
                }
                if req.hints.access == AccessHint::ParAccess {
                    let (_, invalidated) = self.l0[req.cluster.index()].store_update(
                        req.addr,
                        req.size as u64,
                        req.cycle,
                    );
                    self.stats.invalidations += invalidated as u64;
                }
                MemReply::new(start + 1, ServicedBy::L1)
            }
            ReqKind::Prefetch => {
                // Explicit prefetch: linear map into the issuing cluster.
                if self.l0[req.cluster.index()].covers(req.addr) {
                    return MemReply::new(req.cycle + 1, ServicedBy::L0);
                }
                self.stats.explicit_prefetches += 1;
                let (ready, a) = self.fill(
                    req.cluster,
                    req.addr,
                    req.size,
                    MappingHint::Linear,
                    PrefetchHint::None,
                    req.cycle,
                );
                MemReply::new(ready, ServicedBy::L1)
                    .with_queue(a.queue)
                    .with_link_stalls(a.link_stalls)
                    .merged(a.merged)
            }
            ReqKind::StoreReplica => {
                let n = self.l0[req.cluster.index()].invalidate_addr(req.addr, req.size as u64);
                self.stats.invalidations += n as u64;
                MemReply::new(req.cycle + 1, ServicedBy::L0)
            }
        }
    }

    fn invalidate_buffers(&mut self, cluster: ClusterId, _cycle: u64) {
        self.l0[cluster.index()].invalidate_all();
        self.stats.buffer_flushes += 1;
    }

    fn retire(&mut self, cycle: u64) {
        self.stack.mshr.retire(cycle);
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn network_load(&self) -> Option<vliw_machine::NetLoad> {
        (!self.stack.ic.is_flat()).then(|| self.stack.ic.network_load())
    }

    fn state_digest(&self, base_cycle: u64) -> u64 {
        let mut h = crate::digest::Fnv::new();
        for buffer in &self.l0 {
            buffer.digest_into(&mut h, base_cycle);
        }
        self.buses.digest_into(&mut h, base_cycle);
        self.stack.digest_into(&mut h, base_cycle);
        h.finish()
    }

    fn advance_clock(&mut self, delta: u64) {
        for buffer in &mut self.l0 {
            buffer.advance(delta);
        }
        self.buses.advance(delta);
        self.stack.advance(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::{L0Capacity, MemHints};

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    fn par_linear() -> MemHints {
        MemHints::new(AccessHint::ParAccess).with_mapping(MappingHint::Linear)
    }

    fn seq_linear() -> MemHints {
        MemHints::new(AccessHint::SeqAccess).with_mapping(MappingHint::Linear)
    }

    #[test]
    fn baseline_pays_l1_latency() {
        let cfg = cfg();
        let mut m = UnifiedL1::new(&cfg);
        let r = m.access(&MemRequest::load(
            ClusterId::new(0),
            0x40,
            4,
            MemHints::no_access(),
            0,
        ));
        // cold: L1 miss -> L2
        assert_eq!(r.ready_at, (cfg.l1.latency + cfg.l2_latency) as u64);
        let r2 = m.access(&MemRequest::load(
            ClusterId::new(0),
            0x44,
            4,
            MemHints::no_access(),
            100,
        ));
        assert_eq!(r2.ready_at - 100, cfg.l1.latency as u64);
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().l1_misses, 1);
    }

    #[test]
    fn l0_hit_costs_one_cycle() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        m.access(&MemRequest::load(
            ClusterId::new(1),
            0x100,
            2,
            par_linear(),
            0,
        ));
        let r = m.access(&MemRequest::load(
            ClusterId::new(1),
            0x102,
            2,
            par_linear(),
            50,
        ));
        assert_eq!(r.ready_at - 50, 1);
        assert_eq!(r.serviced_by, ServicedBy::L0);
        assert_eq!(m.stats().l0_hits, 1);
        assert_eq!(m.stats().l0_misses, 1);
    }

    #[test]
    fn seq_miss_pays_probe_plus_l1() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        // warm L1 with an unrelated NO_ACCESS load of the same block
        m.access(&MemRequest::load(
            ClusterId::new(0),
            0x200,
            2,
            MemHints::no_access(),
            0,
        ));
        let r = m.access(&MemRequest::load(
            ClusterId::new(0),
            0x200,
            2,
            seq_linear(),
            100,
        ));
        // probe (1) + L1 hit (6)
        assert_eq!(r.ready_at - 100, 1 + cfg.l1.latency as u64);
    }

    #[test]
    fn par_miss_pays_l1_only() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        m.access(&MemRequest::load(
            ClusterId::new(0),
            0x200,
            2,
            MemHints::no_access(),
            0,
        ));
        let r = m.access(&MemRequest::load(
            ClusterId::new(0),
            0x200,
            2,
            par_linear(),
            100,
        ));
        assert_eq!(r.ready_at - 100, cfg.l1.latency as u64);
    }

    #[test]
    fn interleaved_fill_populates_all_clusters() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        let hints = MemHints::new(AccessHint::ParAccess).with_mapping(MappingHint::Interleaved);
        // 2-byte load at block base from cluster 2
        let r = m.access(&MemRequest::load(ClusterId::new(2), 0x400, 2, hints, 0));
        // +1 interleave (shuffle) penalty over the L1 path
        assert_eq!(r.ready_at, (cfg.l1.latency + cfg.l2_latency + 1) as u64);
        for c in 0..4 {
            assert_eq!(m.buffer(ClusterId::new(c)).len(), 1, "cluster {c}");
        }
        // cluster 2 holds lane 0 (elements 0,4,...): hit on element 4
        let r = m.access(&MemRequest::load(ClusterId::new(2), 0x408, 2, hints, 100));
        assert_eq!(r.serviced_by, ServicedBy::L0);
        // cluster 3 holds lane 1 (elements 1,5,...)
        let r = m.access(&MemRequest::load(ClusterId::new(3), 0x402, 2, hints, 101));
        assert_eq!(r.serviced_by, ServicedBy::L0);
        // cluster 0 would miss on lane-1 data
        let r = m.access(&MemRequest::load(ClusterId::new(0), 0x402, 2, hints, 102));
        assert_eq!(r.serviced_by, ServicedBy::L1);
        assert_eq!(m.stats().interleaved_subblocks, 4 + 4);
    }

    #[test]
    fn store_never_allocates() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        m.access(&MemRequest::store(
            ClusterId::new(0),
            0x100,
            4,
            par_linear(),
            0,
        ));
        assert!(m.buffer(ClusterId::new(0)).is_empty());
    }

    #[test]
    fn store_updates_local_copy_only() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        // clusters 0 and 1 both cache the same subblock linearly
        m.access(&MemRequest::load(
            ClusterId::new(0),
            0x100,
            2,
            par_linear(),
            0,
        ));
        m.access(&MemRequest::load(
            ClusterId::new(1),
            0x100,
            2,
            par_linear(),
            1,
        ));
        // cluster 0 stores with PAR access: its copy is updated; cluster
        // 1's copy is now stale (the compiler is responsible for this!)
        m.access(&MemRequest::store(
            ClusterId::new(0),
            0x100,
            2,
            par_linear(),
            10,
        ));
        assert_eq!(m.buffer(ClusterId::new(0)).len(), 1);
        assert_eq!(m.buffer(ClusterId::new(1)).len(), 1);
    }

    #[test]
    fn store_replica_invalidates_locally() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        m.access(&MemRequest::load(
            ClusterId::new(1),
            0x100,
            2,
            par_linear(),
            0,
        ));
        assert_eq!(m.buffer(ClusterId::new(1)).len(), 1);
        let mut req = MemRequest::store(ClusterId::new(1), 0x100, 2, MemHints::no_access(), 5);
        req.kind = ReqKind::StoreReplica;
        m.access(&req);
        assert!(m.buffer(ClusterId::new(1)).is_empty());
        assert_eq!(m.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_buffers_flushes_cluster() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        m.access(&MemRequest::load(
            ClusterId::new(0),
            0x100,
            2,
            par_linear(),
            0,
        ));
        m.invalidate_buffers(ClusterId::new(0), 10);
        assert!(m.buffer(ClusterId::new(0)).is_empty());
        assert_eq!(m.stats().buffer_flushes, 1);
    }

    #[test]
    fn positive_prefetch_hides_next_subblock_latency() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        let hints = par_linear().with_prefetch(PrefetchHint::Positive);
        // walk a 2-byte stream: elements at 0x100,0x102,...
        m.access(&MemRequest::load(ClusterId::new(0), 0x100, 2, hints, 0));
        m.access(&MemRequest::load(ClusterId::new(0), 0x102, 2, hints, 10));
        m.access(&MemRequest::load(ClusterId::new(0), 0x104, 2, hints, 20));
        // touching the last element (0x106) triggers the prefetch of
        // 0x108..0x110
        m.access(&MemRequest::load(ClusterId::new(0), 0x106, 2, hints, 30));
        assert_eq!(m.stats().hint_prefetches, 1);
        // long after: next subblock hits
        let r = m.access(&MemRequest::load(ClusterId::new(0), 0x108, 2, hints, 100));
        assert_eq!(r.serviced_by, ServicedBy::L0);
        assert_eq!(r.ready_at - 100, 1);
    }

    #[test]
    fn late_prefetch_still_stalls_consumer() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        let hints = par_linear().with_prefetch(PrefetchHint::Positive);
        m.access(&MemRequest::load(ClusterId::new(0), 0x100, 2, hints, 0));
        // trigger prefetch at cycle 10 (fill lands ~10+6)
        m.access(&MemRequest::load(ClusterId::new(0), 0x106, 2, hints, 10));
        // consume the next subblock immediately: must wait for the fill
        let r = m.access(&MemRequest::load(ClusterId::new(0), 0x108, 2, hints, 12));
        assert_eq!(r.serviced_by, ServicedBy::L0);
        assert!(r.ready_at > 13, "in-flight subblock stalls its consumer");
    }

    #[test]
    fn prefetch_distance_two_fetches_two_subblocks() {
        let cfg = cfg().with_prefetch_distance(2);
        let mut m = UnifiedWithL0::new(&cfg);
        let hints = par_linear().with_prefetch(PrefetchHint::Positive);
        m.access(&MemRequest::load(ClusterId::new(0), 0x100, 2, hints, 0));
        m.access(&MemRequest::load(ClusterId::new(0), 0x106, 2, hints, 10));
        assert_eq!(m.stats().hint_prefetches, 2);
        assert!(m.buffer(ClusterId::new(0)).covers(0x108));
        assert!(m.buffer(ClusterId::new(0)).covers(0x110));
    }

    #[test]
    fn small_buffers_thrash_under_wide_working_set() {
        // 2-entry buffers walking 3 interleaved streams: the LRU churn
        // keeps evicting live subblocks (the jpegdec 4-entry effect).
        let cfg = cfg().with_l0_entries(L0Capacity::Bounded(2));
        let mut m = UnifiedWithL0::new(&cfg);
        let h = par_linear();
        let c = ClusterId::new(0);
        let bases = [0x1000u64, 0x2000, 0x3000];
        let mut misses_in_steady_state = 0;
        for i in 0..32u64 {
            for (s, &b) in bases.iter().enumerate() {
                let before = m.stats().l0_misses;
                m.access(&MemRequest::load(c, b + i * 2, 2, h, i * 10 + s as u64));
                if i > 4 && m.stats().l0_misses > before {
                    misses_in_steady_state += 1;
                }
            }
        }
        assert!(
            misses_in_steady_state > 20,
            "3 streams must thrash 2 entries"
        );
    }

    #[test]
    fn explicit_prefetch_maps_linear_and_dedups() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        m.access(&MemRequest::prefetch(ClusterId::new(0), 0x100, 4, 0));
        assert_eq!(m.stats().explicit_prefetches, 1);
        m.access(&MemRequest::prefetch(ClusterId::new(0), 0x102, 4, 1));
        assert_eq!(m.stats().explicit_prefetches, 1, "second prefetch deduped");
        let r = m.access(&MemRequest::load(
            ClusterId::new(0),
            0x100,
            4,
            seq_linear(),
            50,
        ));
        assert_eq!(r.serviced_by, ServicedBy::L0);
    }

    #[test]
    fn bus_contention_serializes_same_cluster_requests() {
        let cfg = cfg();
        let mut m = UnifiedWithL0::new(&cfg);
        let h = MemHints::no_access();
        let c = ClusterId::new(0);
        let r1 = m.access(&MemRequest::load(c, 0x100, 4, h, 0));
        let r2 = m.access(&MemRequest::load(c, 0x2000, 4, h, 0));
        assert_eq!(
            r2.ready_at,
            r1.ready_at
                .max(1 + (cfg.l1.latency + cfg.l2_latency) as u64)
        );
        // different cluster: no contention
        let r3 = m.access(&MemRequest::load(ClusterId::new(1), 0x3000, 4, h, 0));
        assert_eq!(r3.ready_at, (cfg.l1.latency + cfg.l2_latency) as u64);
    }
}
