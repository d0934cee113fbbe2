//! Statistics gathered by the memory models — the raw material for
//! Figures 5, 6 and 7.

use serde::{Deserialize, Serialize};

/// Counters accumulated by a [`MemoryModel`](crate::MemoryModel).
///
/// Not every field is meaningful for every model (e.g. `l0_hits` stays 0
/// for [`UnifiedL1`](crate::UnifiedL1)); unused counters simply stay
/// zero. No longer `Copy` since the per-link/per-bank network load
/// ([`MemStats::net`]) joined the block — clone explicitly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Loads + stores (prefetches not included).
    pub accesses: u64,
    /// Loads that probed an L0/attraction buffer and hit.
    pub l0_hits: u64,
    /// Loads that probed an L0/attraction buffer and missed.
    pub l0_misses: u64,
    /// Accesses serviced by (unified or local) L1 with a hit.
    pub l1_hits: u64,
    /// Accesses that missed in L1 and went to L2 (or a remote bank).
    pub l1_misses: u64,
    /// Subblocks allocated into L0 buffers with linear mapping.
    pub linear_subblocks: u64,
    /// Subblocks allocated into L0 buffers with interleaved mapping.
    pub interleaved_subblocks: u64,
    /// Automatic (hint-triggered) prefetch actions issued.
    pub hint_prefetches: u64,
    /// Explicit prefetch instructions serviced.
    pub explicit_prefetches: u64,
    /// Accesses satisfied by the statically-local bank (distributed
    /// configurations).
    pub local_accesses: u64,
    /// Accesses that had to reach a remote bank.
    pub remote_accesses: u64,
    /// MSI cache-to-cache transfers (MultiVLIW).
    pub c2c_transfers: u64,
    /// MSI invalidations sent (MultiVLIW) / replica invalidations (L0).
    pub invalidations: u64,
    /// `invalidate_buffer` instructions executed.
    pub buffer_flushes: u64,
    /// Requests routed through a non-flat interconnect.
    pub ic_requests: u64,
    /// Cycles requests spent queued behind interconnect bank ports (the
    /// contention signal of the cluster-scaling study; 0 on the paper's
    /// flat network).
    pub ic_queue_cycles: u64,
    /// Cycles requests spent traversing interconnect hops (both ways).
    pub ic_hop_cycles: u64,
    /// Cycles requests spent stalled at saturated mesh links (the
    /// link-contention signal; 0 on every non-mesh topology). `None`
    /// when the run never routed a request through a non-flat
    /// interconnect; [`MemStats::link_stalls`] reads that as 0.
    pub ic_link_stall_cycles: Option<u64>,
    /// Secondary misses merged into an in-flight refill by the bank
    /// MSHRs. `None` when the run's network has no MSHRs
    /// (`mshr_entries` is 0), `Some(0)` when it has MSHRs but nothing
    /// merged; [`MemStats::merges`] reads `None` as 0.
    pub mshr_merges: Option<u64>,
    /// Per-directed-link and per-bank load observed by the run — the
    /// network half of a profiling artifact
    /// ([`Profile`](vliw_machine::Profile)). `None` when the run never
    /// routed: its memory model sits on the flat network or reports no
    /// network load.
    pub net: Option<vliw_machine::NetLoad>,
}

impl MemStats {
    /// L0 hit rate over loads that probed an L0 buffer, in [0, 1].
    /// Returns 1.0 when nothing probed L0 (vacuous hit rate).
    pub fn l0_hit_rate(&self) -> f64 {
        let total = self.l0_hits + self.l0_misses;
        if total == 0 {
            1.0
        } else {
            self.l0_hits as f64 / total as f64
        }
    }

    /// L1 hit rate over accesses that reached L1.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            1.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Fraction of L0-mapped subblocks that used interleaved mapping
    /// (first bar of Figure 6).
    pub fn interleaved_ratio(&self) -> f64 {
        let total = self.linear_subblocks + self.interleaved_subblocks;
        if total == 0 {
            0.0
        } else {
            self.interleaved_subblocks as f64 / total as f64
        }
    }

    /// Fraction of distributed-cache accesses that were local.
    pub fn local_ratio(&self) -> f64 {
        let total = self.local_accesses + self.remote_accesses;
        if total == 0 {
            1.0
        } else {
            self.local_accesses as f64 / total as f64
        }
    }

    /// Merges another stats block into this one (summing all counters).
    pub fn merge(&mut self, other: &MemStats) {
        self.accesses += other.accesses;
        self.l0_hits += other.l0_hits;
        self.l0_misses += other.l0_misses;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.linear_subblocks += other.linear_subblocks;
        self.interleaved_subblocks += other.interleaved_subblocks;
        self.hint_prefetches += other.hint_prefetches;
        self.explicit_prefetches += other.explicit_prefetches;
        self.local_accesses += other.local_accesses;
        self.remote_accesses += other.remote_accesses;
        self.c2c_transfers += other.c2c_transfers;
        self.invalidations += other.invalidations;
        self.buffer_flushes += other.buffer_flushes;
        self.ic_requests += other.ic_requests;
        self.ic_queue_cycles += other.ic_queue_cycles;
        self.ic_hop_cycles += other.ic_hop_cycles;
        if let Some(v) = other.ic_link_stall_cycles {
            *self.ic_link_stall_cycles.get_or_insert(0) += v;
        }
        if let Some(v) = other.mshr_merges {
            *self.mshr_merges.get_or_insert(0) += v;
        }
        if let Some(n) = &other.net {
            self.net
                .get_or_insert_with(vliw_machine::NetLoad::default)
                .merge(n);
        }
    }

    /// The growth of every counter since `earlier` — the per-period
    /// delta the runner's steady-state fast-forward multiplies out.
    /// `earlier` must be a previous snapshot of the same accumulating
    /// block (every counter monotonic, so plain subtraction is exact).
    /// Option counters keep `self`'s materialization: a counter that is
    /// `Some` now but was `None` earlier contributes its full value.
    pub fn delta_since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            accesses: self.accesses - earlier.accesses,
            l0_hits: self.l0_hits - earlier.l0_hits,
            l0_misses: self.l0_misses - earlier.l0_misses,
            l1_hits: self.l1_hits - earlier.l1_hits,
            l1_misses: self.l1_misses - earlier.l1_misses,
            linear_subblocks: self.linear_subblocks - earlier.linear_subblocks,
            interleaved_subblocks: self.interleaved_subblocks - earlier.interleaved_subblocks,
            hint_prefetches: self.hint_prefetches - earlier.hint_prefetches,
            explicit_prefetches: self.explicit_prefetches - earlier.explicit_prefetches,
            local_accesses: self.local_accesses - earlier.local_accesses,
            remote_accesses: self.remote_accesses - earlier.remote_accesses,
            c2c_transfers: self.c2c_transfers - earlier.c2c_transfers,
            invalidations: self.invalidations - earlier.invalidations,
            buffer_flushes: self.buffer_flushes - earlier.buffer_flushes,
            ic_requests: self.ic_requests - earlier.ic_requests,
            ic_queue_cycles: self.ic_queue_cycles - earlier.ic_queue_cycles,
            ic_hop_cycles: self.ic_hop_cycles - earlier.ic_hop_cycles,
            ic_link_stall_cycles: self
                .ic_link_stall_cycles
                .map(|v| v - earlier.ic_link_stall_cycles.unwrap_or(0)),
            mshr_merges: self
                .mshr_merges
                .map(|v| v - earlier.mshr_merges.unwrap_or(0)),
            net: self.net.as_ref().map(|n| {
                n.delta_since(
                    earlier
                        .net
                        .as_ref()
                        .unwrap_or(&vliw_machine::NetLoad::default()),
                )
            }),
        }
    }

    /// Merges `k` copies of `other` into this block in closed form —
    /// exactly `k` repeated [`merge`](MemStats::merge) calls.
    pub fn merge_scaled(&mut self, other: &MemStats, k: u64) {
        if k == 0 {
            return;
        }
        self.accesses += other.accesses * k;
        self.l0_hits += other.l0_hits * k;
        self.l0_misses += other.l0_misses * k;
        self.l1_hits += other.l1_hits * k;
        self.l1_misses += other.l1_misses * k;
        self.linear_subblocks += other.linear_subblocks * k;
        self.interleaved_subblocks += other.interleaved_subblocks * k;
        self.hint_prefetches += other.hint_prefetches * k;
        self.explicit_prefetches += other.explicit_prefetches * k;
        self.local_accesses += other.local_accesses * k;
        self.remote_accesses += other.remote_accesses * k;
        self.c2c_transfers += other.c2c_transfers * k;
        self.invalidations += other.invalidations * k;
        self.buffer_flushes += other.buffer_flushes * k;
        self.ic_requests += other.ic_requests * k;
        self.ic_queue_cycles += other.ic_queue_cycles * k;
        self.ic_hop_cycles += other.ic_hop_cycles * k;
        if let Some(v) = other.ic_link_stall_cycles {
            *self.ic_link_stall_cycles.get_or_insert(0) += v * k;
        }
        if let Some(v) = other.mshr_merges {
            *self.mshr_merges.get_or_insert(0) += v * k;
        }
        if let Some(n) = &other.net {
            self.net
                .get_or_insert_with(vliw_machine::NetLoad::default)
                .merge_scaled(n, k);
        }
    }

    /// Link-stall cycles, with a run that never routed (`None`) read
    /// as 0.
    pub fn link_stalls(&self) -> u64 {
        self.ic_link_stall_cycles.unwrap_or(0)
    }

    /// MSHR merge count, with a network without MSHRs (`None`) read
    /// as 0.
    pub fn merges(&self) -> u64 {
        self.mshr_merges.unwrap_or(0)
    }

    /// Records one MSHR secondary-miss merge.
    pub fn record_mshr_merge(&mut self) {
        *self.mshr_merges.get_or_insert(0) += 1;
    }

    /// Fresh counters for a model running on `net`: the merge counter
    /// starts at `Some(0)` when the network has MSHRs, so "merging was
    /// on but nothing merged" stays distinguishable from a network
    /// without MSHRs (`None`).
    pub fn for_network(net: &vliw_machine::InterconnectConfig) -> Self {
        MemStats {
            mshr_merges: if net.mshr_entries > 0 { Some(0) } else { None },
            ..Default::default()
        }
    }

    /// Mean cycles of interconnect queueing per routed request (0 when
    /// nothing was routed).
    pub fn ic_queue_per_request(&self) -> f64 {
        if self.ic_requests == 0 {
            0.0
        } else {
            self.ic_queue_cycles as f64 / self.ic_requests as f64
        }
    }

    /// Records one interconnect route outcome. Materializes the
    /// link-stall counter even when this route did not stall, so a run
    /// that routed reads `Some(0)` rather than the never-routed
    /// `None`.
    pub fn record_route(&mut self, route: &crate::interconnect::Route) {
        self.ic_requests += 1;
        self.ic_queue_cycles += route.queue_cycles;
        self.ic_hop_cycles += route.hop_cycles;
        *self.ic_link_stall_cycles.get_or_insert(0) += route.link_stall_cycles;
    }

    /// Records the forward half of a route (an MSHR-merged request that
    /// reached the bank but never occupied a port).
    pub fn record_traverse(&mut self, tr: &crate::interconnect::Traverse) {
        self.ic_requests += 1;
        self.ic_hop_cycles += 2 * tr.one_way_cycles;
        *self.ic_link_stall_cycles.get_or_insert(0) += tr.link_stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = MemStats::default();
        assert_eq!(s.l0_hit_rate(), 1.0);
        assert_eq!(s.l1_hit_rate(), 1.0);
        assert_eq!(s.interleaved_ratio(), 0.0);
        assert_eq!(s.local_ratio(), 1.0);
    }

    #[test]
    fn hit_rate_math() {
        let s = MemStats {
            l0_hits: 3,
            l0_misses: 1,
            ..Default::default()
        };
        assert!((s.l0_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = MemStats {
            accesses: 5,
            l0_hits: 2,
            ..Default::default()
        };
        let b = MemStats {
            accesses: 7,
            l0_hits: 1,
            invalidations: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 12);
        assert_eq!(a.l0_hits, 3);
        assert_eq!(a.invalidations, 3);
    }

    #[test]
    fn delta_and_scaled_merge_are_closed_form_merge() {
        let earlier = MemStats {
            accesses: 10,
            l1_hits: 6,
            mshr_merges: Some(1),
            ..Default::default()
        };
        let mut now = earlier.clone();
        let step = MemStats {
            accesses: 4,
            l1_hits: 3,
            ic_queue_cycles: 7,
            mshr_merges: Some(2),
            ..Default::default()
        };
        now.merge(&step);
        let delta = now.delta_since(&earlier);
        assert_eq!(delta, step);

        // k scaled merges == k repeated merges, Option materialization
        // included
        let mut scaled = now.clone();
        scaled.merge_scaled(&delta, 5);
        let mut repeated = now.clone();
        for _ in 0..5 {
            repeated.merge(&delta);
        }
        assert_eq!(scaled, repeated);

        // a counter materialized after the snapshot contributes fully
        let was_none = MemStats::default();
        let mut next = MemStats::default();
        next.record_mshr_merge();
        assert_eq!(next.delta_since(&was_none).mshr_merges, Some(1));
    }
}
