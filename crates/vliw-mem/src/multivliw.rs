//! The MultiVLIW baseline (§5.3, ref. \[23\]): the L1 data cache is
//! distributed among clusters and kept coherent with a snoop-based MSI
//! protocol.
//!
//! Any cluster may cache any line, so data migrates/replicates dynamically
//! to its consumers — the paper notes this maximizes local accesses at the
//! cost of a coherence protocol that is expensive for the embedded domain.
//!
//! Latency model (see DESIGN.md §5): local bank hit 2 cycles,
//! cache-to-cache transfer 6 cycles, L2 miss 10 cycles.

use crate::cache::SetAssocCache;
use crate::interconnect::Interconnect;
use crate::mshr::MshrFile;
use crate::request::{MemReply, MemRequest, ReqKind, ServicedBy};
use crate::stats::MemStats;
use crate::MemoryModel;
use vliw_machine::{MachineConfig, MultiVliwConfig};

/// MSI protocol states (Invalid = not resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msi {
    Modified,
    Shared,
}

impl crate::digest::DigestState for Msi {
    fn digest_bits(&self) -> u64 {
        match self {
            Msi::Modified => 1,
            Msi::Shared => 2,
        }
    }
}

/// The MultiVLIW distributed, snoop-coherent L1.
#[derive(Debug)]
pub struct MultiVliwMem {
    cfg: MultiVliwConfig,
    banks: Vec<SetAssocCache<Msi>>,
    ic: Interconnect,
    /// One MSHR file per cluster bank: a snooped request to a line whose
    /// refill is still in flight at its holder merges there instead of
    /// paying a full snoop round (the MSI transitions still happen).
    mshr: MshrFile,
    stats: MemStats,
}

impl MultiVliwMem {
    /// Builds the MultiVLIW memory for a machine with `machine.clusters`
    /// clusters using the default latency parameters and the machine's
    /// interconnect. Snoop traffic between clusters rides the
    /// interconnect cluster-to-cluster (the L1 bank is co-located with its
    /// cluster) and queues on the target tile's bank port.
    pub fn new(machine: &MachineConfig) -> Self {
        let clusters = machine.clusters;
        let cfg = MultiVliwConfig::micro2003();
        let net = machine.interconnect;
        MultiVliwMem {
            cfg,
            banks: (0..clusters)
                .map(|_| SetAssocCache::new(cfg.bank_bytes, cfg.block_bytes, cfg.associativity))
                .collect(),
            ic: Interconnect::new(clusters, net),
            mshr: MshrFile::new(clusters, net.mshr_entries),
            stats: MemStats::for_network(&net),
        }
    }

    /// Indices of remote banks holding `addr`.
    fn holders(&self, me: usize, addr: u64) -> Vec<usize> {
        (0..self.banks.len())
            .filter(|&i| i != me && self.banks[i].peek(addr).is_some())
            .collect()
    }
}

impl MemoryModel for MultiVliwMem {
    fn access(&mut self, req: &MemRequest) -> MemReply {
        // L0-specific request kinds degenerate: MultiVLIW has no
        // compiler-managed buffers.
        if matches!(req.kind, ReqKind::Prefetch | ReqKind::StoreReplica) {
            return MemReply::new(req.cycle + 1, ServicedBy::L1);
        }
        self.stats.accesses += 1;
        let me = req.cluster.index();
        let is_store = req.kind == ReqKind::Store;
        let local = self.banks[me].lookup(req.addr, req.cycle);
        let mut queue = 0;
        let mut link = 0;
        let mut merged = false;

        let (latency, serviced) = match (local, is_store) {
            (Some(_), false) => {
                // load: any local state suffices
                self.stats.local_accesses += 1;
                self.stats.l1_hits += 1;
                (self.cfg.local_latency as u64, ServicedBy::L1)
            }
            (Some(Msi::Modified), true) => {
                self.stats.local_accesses += 1;
                self.stats.l1_hits += 1;
                (self.cfg.local_latency as u64, ServicedBy::L1)
            }
            (Some(Msi::Shared), true) => {
                // upgrade: invalidate other sharers over the snoop bus;
                // the farthest sharer bounds the acknowledgement time
                let holders = self.holders(me, req.addr);
                let mut overhead = 0;
                for h in &holders {
                    self.banks[*h].invalidate(req.addr);
                    self.stats.invalidations += 1;
                    let r = self
                        .ic
                        .cluster_overhead(&mut self.stats, req.cluster, *h, req.cycle);
                    overhead = overhead.max(r.overhead());
                    queue = queue.max(r.queue_cycles);
                    link = link.max(r.link_stall_cycles);
                }
                self.banks[me].set_state(req.addr, Msi::Modified);
                self.stats.local_accesses += 1;
                self.stats.l1_hits += 1;
                (self.cfg.remote_latency as u64 + overhead, ServicedBy::L1)
            }
            (None, _) => {
                // miss: snoop remote banks, else L2
                let holders = self.holders(me, req.addr);
                let (latency, serviced) = if holders.is_empty() {
                    self.stats.l1_misses += 1;
                    // bank probe + L2 round trip over the network, matching
                    // the unified hierarchy's miss path cost on the flat
                    // configuration
                    let r =
                        self.ic
                            .memory_overhead(&mut self.stats, req.cluster, req.addr, req.cycle);
                    queue = r.queue_cycles;
                    link = r.link_stall_cycles;
                    let latency =
                        self.cfg.local_latency as u64 + self.cfg.l2_latency as u64 + r.overhead();
                    // Track the refill so a snooped request to this line
                    // can merge while the data is still in flight. The
                    // requester and its bank are co-located, so the
                    // completion cycle *is* the data-at-bank cycle the
                    // MshrFile contract asks for (unlike the unified
                    // model, there is no separate return leg to strip).
                    let block = self.banks[me].block_base(req.addr);
                    self.mshr
                        .register(me, block, req.cycle, req.cycle + latency);
                    (latency, ServicedBy::L2)
                } else {
                    self.stats.c2c_transfers += 1;
                    self.stats.remote_accesses += 1;
                    self.stats.l1_hits += 1;
                    let block = self.banks[holders[0]].block_base(req.addr);
                    // The merge window is probed at the snoop's *arrival*
                    // at the holder (issue + static forward hops): a
                    // request that gets there after the refill landed
                    // takes the ordinary port-arbitrated snoop round.
                    let snoop_arrival = req.cycle
                        + self
                            .ic
                            .config()
                            .cluster_hops(me, holders[0], self.banks.len())
                            as u64
                            * self.ic.config().hop_latency as u64;
                    if let Some(ready) = self.mshr.lookup(holders[0], block, snoop_arrival) {
                        // The holder's own refill is still in flight:
                        // attach to its MSHR instead of launching a full
                        // snoop round — the request still walks the
                        // network to the holder (reserving mesh link
                        // slots) but grants no bank port, and the
                        // transfer overlaps the refill's tail. Only the
                        // *data* access merges: for RWITM the other
                        // sharers' invalidations are ordinary snoop
                        // rounds (ports and all), and the farthest
                        // acknowledgement still bounds completion. State
                        // transitions below are identical to the
                        // ordinary c2c path.
                        let tr = self.ic.cluster_traverse_overhead(
                            &mut self.stats,
                            req.cluster,
                            holders[0],
                            req.cycle,
                        );
                        let mut overhead = tr.overhead();
                        link = link.max(tr.link_stall_cycles);
                        if is_store {
                            for h in &holders[1..] {
                                let r = self.ic.cluster_overhead(
                                    &mut self.stats,
                                    req.cluster,
                                    *h,
                                    req.cycle,
                                );
                                overhead = overhead.max(r.overhead());
                                queue = queue.max(r.queue_cycles);
                                link = link.max(r.link_stall_cycles);
                            }
                        }
                        self.stats.record_mshr_merge();
                        merged = true;
                        let base = self.cfg.remote_latency as u64 + overhead;
                        // Only the *forward* trip overlaps the refill's
                        // tail: once the data lands at the holder it
                        // still pays the data-return share of the snoop
                        // round plus the network hops back.
                        let data_return = (self
                            .cfg
                            .remote_latency
                            .saturating_sub(self.cfg.local_latency)
                            as u64)
                            / 2
                            + tr.one_way_cycles;
                        (
                            ((ready + data_return).saturating_sub(req.cycle)).max(base),
                            ServicedBy::Remote,
                        )
                    } else {
                        // the cache-to-cache transfer comes from the first
                        // holder's bank over the network; for RWITM the
                        // other sharers' invalidations cross it too, and
                        // the farthest acknowledgement bounds completion
                        // (same accounting as the S -> M upgrade path)
                        let mut overhead = 0;
                        let snoop_targets = if is_store {
                            &holders[..]
                        } else {
                            &holders[..1]
                        };
                        for h in snoop_targets {
                            let r = self.ic.cluster_overhead(
                                &mut self.stats,
                                req.cluster,
                                *h,
                                req.cycle,
                            );
                            overhead = overhead.max(r.overhead());
                            queue = queue.max(r.queue_cycles);
                            link = link.max(r.link_stall_cycles);
                        }
                        (
                            self.cfg.remote_latency as u64 + overhead,
                            ServicedBy::Remote,
                        )
                    }
                };
                if is_store {
                    // RWITM: everyone else invalidates
                    for h in &holders {
                        self.banks[*h].invalidate(req.addr);
                        self.stats.invalidations += 1;
                    }
                    self.banks[me].insert(req.addr, Msi::Modified, req.cycle);
                } else {
                    // read: holders downgrade to Shared
                    for h in &holders {
                        self.banks[*h].set_state(req.addr, Msi::Shared);
                    }
                    self.banks[me].insert(req.addr, Msi::Shared, req.cycle);
                }
                (latency, serviced)
            }
        };
        MemReply::new(req.cycle + latency, serviced)
            .with_queue(queue)
            .with_link_stalls(link)
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
        self.ic.digest_into(&mut h, base_cycle);
        self.mshr.digest_into(&mut h, base_cycle);
        h.finish()
    }

    fn advance_clock(&mut self, delta: u64) {
        for bank in &mut self.banks {
            bank.advance(delta);
        }
        self.ic.advance(delta);
        self.mshr.advance(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::{ClusterId, MemHints};

    fn mem() -> MultiVliwMem {
        MultiVliwMem::new(&MachineConfig::micro2003())
    }

    fn load(c: usize, addr: u64, cycle: u64) -> MemRequest {
        MemRequest::load(ClusterId::new(c), addr, 4, MemHints::no_access(), cycle)
    }

    fn store(c: usize, addr: u64, cycle: u64) -> MemRequest {
        MemRequest::store(ClusterId::new(c), addr, 4, MemHints::no_access(), cycle)
    }

    #[test]
    fn cold_miss_goes_to_l2_then_local_hits() {
        let mut m = mem();
        let r = m.access(&load(0, 0x100, 0));
        assert_eq!(r.ready_at, 12, "bank probe (2) + L2 (10)");
        assert_eq!(r.serviced_by, ServicedBy::L2);
        let r = m.access(&load(0, 0x104, 20));
        assert_eq!(r.ready_at - 20, 2);
        assert_eq!(r.serviced_by, ServicedBy::L1);
    }

    #[test]
    fn cache_to_cache_transfer_for_remote_copy() {
        let mut m = mem();
        m.access(&load(0, 0x100, 0));
        let r = m.access(&load(1, 0x100, 10));
        assert_eq!(r.ready_at - 10, 6);
        assert_eq!(r.serviced_by, ServicedBy::Remote);
        assert_eq!(m.stats().c2c_transfers, 1);
        // both now hit locally
        assert_eq!(m.access(&load(0, 0x100, 20)).ready_at - 20, 2);
        assert_eq!(m.access(&load(1, 0x100, 30)).ready_at - 30, 2);
    }

    #[test]
    fn store_invalidates_sharers() {
        let mut m = mem();
        m.access(&load(0, 0x100, 0));
        m.access(&load(1, 0x100, 10));
        // cluster 0 upgrades S -> M, invalidating cluster 1
        let r = m.access(&store(0, 0x100, 20));
        assert_eq!(r.ready_at - 20, 6);
        assert_eq!(m.stats().invalidations, 1);
        // cluster 1 must re-fetch (c2c from the M copy)
        let r = m.access(&load(1, 0x100, 30));
        assert_eq!(r.serviced_by, ServicedBy::Remote);
    }

    #[test]
    fn store_miss_with_remote_modified_copy() {
        let mut m = mem();
        m.access(&store(0, 0x100, 0)); // M in cluster 0
        let r = m.access(&store(1, 0x100, 10)); // RWITM
        assert_eq!(r.serviced_by, ServicedBy::Remote);
        assert_eq!(m.stats().invalidations, 1);
        // cluster 0 lost the line
        let r = m.access(&load(0, 0x100, 20));
        assert_eq!(r.serviced_by, ServicedBy::Remote);
    }

    #[test]
    fn modified_store_hit_is_local() {
        let mut m = mem();
        m.access(&store(0, 0x100, 0));
        let r = m.access(&store(0, 0x104, 10));
        assert_eq!(r.ready_at - 10, 2);
    }

    #[test]
    fn ping_pong_sharing_is_expensive() {
        // The MSI cost the paper highlights: two clusters alternately
        // writing the same line never hit locally.
        let mut m = mem();
        m.access(&store(0, 0x100, 0));
        let mut remote = 0;
        for i in 0..10 {
            // alternate 1,0,1,0,... so the writer never already owns it
            let c = ((i + 1) % 2) as usize;
            let r = m.access(&store(c, 0x100, 10 + i));
            if r.serviced_by == ServicedBy::Remote {
                remote += 1;
            }
        }
        assert_eq!(remote, 10);
    }
}
