//! The dynamic cluster ↔ bank interconnect: per-bank request queues,
//! port-limited grants, distance-dependent hop latency and — on the mesh
//! topology — per-link occupancy.
//!
//! [`InterconnectConfig`] describes the
//! network shape; this module owns its cycle-by-cycle behaviour. Every
//! memory model routes refill/snoop traffic through one [`Interconnect`]:
//!
//! * [`Interconnect::route`] charges the hop latency towards the bank that
//!   owns the address, queues the request behind that bank's ports, and
//!   returns when the bank starts servicing it (plus how much of that was
//!   pure queueing — the contention-stall signal the scaling study plots).
//! * [`Interconnect::traverse`] / [`Interconnect::grant_port`] split the
//!   same path in two, so MSHR-aware callers can walk the network to the
//!   bank and then decide *not* to occupy a port (a secondary miss that
//!   merges into an in-flight refill).
//! * [`Interconnect::route_to_cluster`] is the distributed-model variant
//!   where the caller already knows the target cluster (MultiVLIW snoop
//!   targets, word-interleaved home modules).
//!
//! Each bank/link/port grant calendar is a [`SlotWheel`] whose stale
//! slots retire as the clock passes them: no sweeps, no per-reservation
//! allocation (DESIGN.md §10).
//!
//! Arbitration is cycle-accurate and deterministic: each bank grants at
//! most `ports_per_bank` requests per cycle, excess requests slide to the
//! next free cycle. On the mesh, each directed link additionally forwards
//! at most `link_capacity` requests per cycle along its XY route — a hop
//! over a saturated link stalls in place, and those cycles are reported
//! separately ([`Route::link_stall_cycles`]) so the simulator can split
//! pipeline stalls into port-contention and link-contention shares.
//! Fairness across clusters comes from the runner, which drains same-cycle
//! requests in a round-robin rotated order (rotating by iteration), so no
//! cluster is structurally first at every arbitration.
//!
//! Under [`Topology::Flat`](vliw_machine::Topology) every method
//! short-circuits to zero extra cycles, which keeps the paper's 4-cluster
//! machine bit-exact with the pre-interconnect simulator.

use crate::wheel::SlotWheel;
use vliw_machine::{BankLoad, ClusterId, InterconnectConfig, LinkLoad, NetLoad, Topology};

/// Outcome of routing one request through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Cycle at which the bank starts servicing the request (issue +
    /// forward hops + link stalls + queueing).
    pub bank_start: u64,
    /// Cycles spent queued behind the bank's ports (the contention
    /// component; 0 on an uncontended network).
    pub queue_cycles: u64,
    /// Cycles spent traversing the network, both directions combined
    /// (excluding stalls).
    pub hop_cycles: u64,
    /// Cycles spent stalled at saturated mesh links on the forward path
    /// (0 on every non-mesh topology).
    pub link_stall_cycles: u64,
}

impl Route {
    /// A free route (the flat network).
    fn free(cycle: u64) -> Self {
        Route {
            bank_start: cycle,
            queue_cycles: 0,
            hop_cycles: 0,
            link_stall_cycles: 0,
        }
    }

    /// Total extra cycles this route adds on top of the bank's own
    /// service latency.
    pub fn overhead(&self) -> u64 {
        self.queue_cycles + self.hop_cycles + self.link_stall_cycles
    }
}

/// The forward half of a route: the request has reached its bank but has
/// not yet been granted a port (see [`Interconnect::traverse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traverse {
    /// The port-pool index the request arrived at. For address-routed
    /// traffic ([`Interconnect::traverse`]) this is a bank index to pass
    /// to [`Interconnect::grant_port`]; for cluster-routed traffic
    /// ([`Interconnect::traverse_to_cluster`]) complete the split with
    /// [`Interconnect::grant_cluster_port`] instead — on the mesh the
    /// value is the target *node*, which must not be fed to the bank
    /// pools.
    pub bank: usize,
    /// Cycle the request reaches the bank (issue + hops + link stalls).
    pub arrival: u64,
    /// One-way traversal cycles (hops × hop latency, excluding stalls).
    pub one_way_cycles: u64,
    /// Cycles stalled at saturated links on the way (mesh only).
    pub link_stall_cycles: u64,
}

impl Traverse {
    fn free(cycle: u64) -> Self {
        Traverse {
            bank: 0,
            arrival: cycle,
            one_way_cycles: 0,
            link_stall_cycles: 0,
        }
    }

    /// Total extra cycles this traversal adds on top of the target's own
    /// service latency — both directions of hops plus the forward link
    /// stalls, but no port queueing (the traversal never granted one).
    pub fn overhead(&self) -> u64 {
        2 * self.one_way_cycles + self.link_stall_cycles
    }
}

/// Cycle-accurate state of the cluster ↔ bank network.
#[derive(Debug, Clone)]
pub struct Interconnect {
    cfg: InterconnectConfig,
    clusters: usize,
    /// Per-bank grant calendar; a cycle is full once it reaches
    /// `ports_per_bank`. Empty on the flat network (nothing is ever
    /// routed), which keeps the flat fast path allocation-free.
    granted: Vec<SlotWheel>,
    /// Side length of the flat link index: the mesh grid's full node
    /// space `rows × cols` (XY routes pass through grid nodes beyond
    /// `clusters - 1` when the grid is not exactly square). 0 off the
    /// mesh.
    link_dim: usize,
    /// Per-directed-link grant calendar (mesh only), indexed flat as
    /// `from * link_dim + to`; a cycle is full once it reaches
    /// `link_capacity`. Wheels allocate lazily per touched link, but
    /// the index itself is a plain array lookup — links sit on the
    /// per-hop fast path, where a hashed map probe measurably dominated
    /// mesh routing.
    links: Vec<Option<SlotWheel>>,
    /// Per-node port pools for cluster-directed mesh traffic: each mesh
    /// node's co-located structure (a MultiVLIW bank, a word-interleaved
    /// home module) arbitrates its own `ports_per_bank` ports, so
    /// physically distant nodes never alias into one pool. Empty off the
    /// mesh (the other topologies keep their bank/tile pools).
    cluster_ports: Vec<SlotWheel>,
    /// Cumulative per-directed-link `(traversals, stall cycles)` — the
    /// profiling counters behind [`Interconnect::network_load`], indexed
    /// like `links`.
    link_load: Vec<(u64, u64)>,
    /// Cumulative per-bank `(granted requests, queue cycles)`.
    bank_load: Vec<(u64, u64)>,
}

impl Interconnect {
    /// Builds the network for a machine with `clusters` clusters.
    pub fn new(clusters: usize, cfg: InterconnectConfig) -> Self {
        let banks = if cfg.is_flat() { 0 } else { cfg.banks };
        let nodes = if cfg.topology == Topology::Mesh {
            clusters
        } else {
            0
        };
        let link_dim = if nodes > 0 {
            let cols = InterconnectConfig::mesh_cols(clusters);
            cols * clusters.div_ceil(cols)
        } else {
            0
        };
        Interconnect {
            cfg,
            clusters,
            granted: (0..banks).map(|_| Self::wheel()).collect(),
            link_dim,
            links: vec![None; link_dim * link_dim],
            cluster_ports: (0..nodes).map(|_| Self::wheel()).collect(),
            link_load: vec![(0, 0); link_dim * link_dim],
            bank_load: vec![(0, 0); banks],
        }
    }

    /// One resource's grant calendar: banks, links and node ports all
    /// keep reservations observable for the full replay window.
    fn wheel() -> SlotWheel {
        SlotWheel::new(crate::REPLAY_HORIZON)
    }

    /// Snapshot of the cumulative per-link / per-bank load this network
    /// has observed — the raw material of a profiling run's
    /// [`Profile`](vliw_machine::Profile). Links are sorted by
    /// `(from, to)` and banks by index, so the snapshot is deterministic;
    /// banks that never granted a request are omitted.
    pub fn network_load(&self) -> NetLoad {
        // Flat `from * link_dim + to` indexing enumerates in ascending
        // `(from, to)` order by construction; untouched links are
        // omitted, matching the lazily-populated map this replaced.
        let links: Vec<LinkLoad> = self
            .link_load
            .iter()
            .enumerate()
            .filter(|(_, &(traversals, _))| traversals > 0)
            .map(|(idx, &(traversals, stall_cycles))| LinkLoad {
                from: (idx / self.link_dim) as u32,
                to: (idx % self.link_dim) as u32,
                traversals,
                stall_cycles,
            })
            .collect();
        let banks = self
            .bank_load
            .iter()
            .enumerate()
            .filter(|(_, &(requests, _))| requests > 0)
            .map(|(bank, &(requests, queue_cycles))| BankLoad {
                bank: bank as u32,
                requests,
                queue_cycles,
            })
            .collect();
        NetLoad { links, banks }
    }

    /// The static configuration this network runs.
    pub fn config(&self) -> &InterconnectConfig {
        &self.cfg
    }

    /// `true` when routing is a guaranteed no-op (ideal network).
    pub fn is_flat(&self) -> bool {
        self.cfg.is_flat()
    }

    /// The bank that services `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        self.cfg.bank_of(addr)
    }

    /// Walks the forward path from `cluster` to the bank owning `addr`
    /// without granting a bank port. On the mesh this reserves link slots
    /// along the XY route; elsewhere it only pays the hop latency.
    pub fn traverse(&mut self, cluster: ClusterId, addr: u64, cycle: u64) -> Traverse {
        if self.is_flat() {
            return Traverse::free(cycle);
        }
        let bank = self.bank_of(addr) % self.granted.len().max(1);
        match self.cfg.topology {
            Topology::Mesh => {
                let host = self.cfg.mesh_bank_host(bank, self.clusters);
                self.traverse_mesh(cluster.index(), host, bank, cycle)
            }
            _ => {
                let one_way = self.cfg.hop_cycles(cluster.index(), bank, self.clusters);
                Traverse {
                    bank,
                    arrival: cycle + one_way,
                    one_way_cycles: one_way,
                    link_stall_cycles: 0,
                }
            }
        }
    }

    /// Grants the first cycle ≥ `arrival` with a free port on `bank`
    /// (an immediate no-op grant on the flat, unbanked network).
    pub fn grant_port(&mut self, bank: usize, arrival: u64) -> u64 {
        if self.granted.is_empty() {
            return arrival; // flat network: no banks, no ports
        }
        let idx = bank % self.granted.len();
        let start = self.granted[idx].reserve(arrival, self.cfg.ports_per_bank as u32);
        let load = &mut self.bank_load[idx];
        load.0 += 1;
        load.1 += start - arrival;
        start
    }

    /// Routes a request from `cluster` to the bank owning `addr`.
    pub fn route(&mut self, cluster: ClusterId, addr: u64, cycle: u64) -> Route {
        if self.is_flat() {
            return Route::free(cycle);
        }
        let tr = self.traverse(cluster, addr, cycle);
        self.finish(tr)
    }

    /// Routes a request from `cluster` to the structure co-located with
    /// `target` cluster (MultiVLIW snoop targets, word-interleaved home
    /// modules). Hop distance is cluster-to-cluster — on the hierarchical
    /// topology two clusters in the same tile are 1 hop apart regardless
    /// of bank indexing; on the mesh the XY route between the two nodes
    /// is walked link by link — and the traffic queues on the *target's*
    /// bank port.
    pub fn route_to_cluster(&mut self, cluster: ClusterId, target: usize, cycle: u64) -> Route {
        if self.is_flat() {
            return Route::free(cycle);
        }
        let tr = self.traverse_to_cluster(cluster, target, cycle);
        let start = self.grant_cluster_port(target, tr.arrival);
        Route {
            bank_start: start,
            queue_cycles: start - tr.arrival,
            hop_cycles: 2 * tr.one_way_cycles,
            link_stall_cycles: tr.link_stall_cycles,
        }
    }

    /// Grants the first free port cycle on the structure co-located with
    /// `target` cluster — the arbitration tail matching
    /// [`Interconnect::traverse_to_cluster`]. On the mesh each node owns
    /// its own port pool (distinct nodes must never alias, which
    /// `grant_port`'s bank indexing would do); elsewhere cluster traffic
    /// arbitrates on the target tile's bank pool, and on the flat
    /// network the grant is an immediate no-op.
    pub fn grant_cluster_port(&mut self, target: usize, arrival: u64) -> u64 {
        if self.is_flat() {
            return arrival;
        }
        if self.cfg.topology == Topology::Mesh {
            let n = self.cluster_ports.len().max(1);
            return self.cluster_ports[target % n].reserve(arrival, self.cfg.ports_per_bank as u32);
        }
        let nbanks = self.granted.len().max(1);
        self.grant_port(self.cfg.group_of_cluster(target) % nbanks, arrival)
    }

    /// The forward half of [`Interconnect::route_to_cluster`]: walks the
    /// network to `target`'s structure without granting a bank port (the
    /// MSHR-merged variant — a merged request reaches the holder but
    /// attaches to its in-flight refill instead of occupying a port).
    pub fn traverse_to_cluster(
        &mut self,
        cluster: ClusterId,
        target: usize,
        cycle: u64,
    ) -> Traverse {
        if self.is_flat() {
            return Traverse::free(cycle);
        }
        let nbanks = self.granted.len().max(1);
        match self.cfg.topology {
            Topology::Mesh => {
                // `bank` names the target node itself: cluster-directed
                // mesh traffic arbitrates on that node's own port pool
                // (see `route_to_cluster`), never an interleaved bank.
                self.traverse_mesh(cluster.index(), target, target, cycle)
            }
            _ => {
                let one_way = self
                    .cfg
                    .cluster_hops(cluster.index(), target, self.clusters)
                    as u64
                    * self.cfg.hop_latency as u64;
                Traverse {
                    bank: self.cfg.group_of_cluster(target) % nbanks,
                    arrival: cycle + one_way,
                    one_way_cycles: one_way,
                    link_stall_cycles: 0,
                }
            }
        }
    }

    /// Shared routing tail: queue behind the arrival bank's ports, pay
    /// the hops back.
    fn finish(&mut self, tr: Traverse) -> Route {
        let start = self.grant_port(tr.bank, tr.arrival);
        Route {
            bank_start: start,
            queue_cycles: start - tr.arrival,
            hop_cycles: 2 * tr.one_way_cycles,
            link_stall_cycles: tr.link_stall_cycles,
        }
    }

    /// Reserves one slot on the directed link at the first free cycle
    /// ≥ `t`; returns the grant cycle (the same arbitration core banks
    /// use, with the link's flit capacity in place of the port count).
    fn reserve_link(&mut self, link: (usize, usize), t: u64) -> u64 {
        let capacity = self.cfg.link_capacity.max(1) as u32;
        let idx = link.0 * self.link_dim + link.1;
        let grant = self.links[idx]
            .get_or_insert_with(Self::wheel)
            .reserve(t, capacity);
        let load = &mut self.link_load[idx];
        load.0 += 1;
        load.1 += grant - t;
        grant
    }

    /// Walks the XY route (X first, then Y — the same path the
    /// test-only `xy_path` enumerates) from mesh node `from` to mesh
    /// node `to`, reserving one slot on every directed link in flight
    /// order without building the path as a list (link state still
    /// allocates lazily on each link's first touch). A same-node route
    /// reserves the single ejection self-link, so a co-located target
    /// still pays the injection hop as in the static model.
    fn traverse_mesh(&mut self, from: usize, to: usize, bank: usize, cycle: u64) -> Traverse {
        let hop = self.cfg.hop_latency as u64;
        let mut t = cycle;
        let mut stalls = 0u64;
        let mut hops = 0u64;
        let mut step = |ic: &mut Self, link: (usize, usize)| {
            let grant = ic.reserve_link(link, t);
            stalls += grant - t;
            t = grant + hop;
            hops += 1;
        };
        if from == to {
            step(self, (from, from));
        } else {
            let cols = InterconnectConfig::mesh_cols(self.clusters);
            let (mut x, mut y) = InterconnectConfig::mesh_pos(from, self.clusters);
            let (tx, ty) = InterconnectConfig::mesh_pos(to, self.clusters);
            let mut node = from;
            while x != tx {
                x = if tx > x { x + 1 } else { x - 1 };
                let next = y * cols + x;
                step(self, (node, next));
                node = next;
            }
            while y != ty {
                y = if ty > y { y + 1 } else { y - 1 };
                let next = y * cols + x;
                step(self, (node, next));
                node = next;
            }
        }
        Traverse {
            bank,
            arrival: t,
            one_way_cycles: hops * hop,
            link_stall_cycles: stalls,
        }
    }

    /// Walks the forward path to `target`'s structure and records it
    /// into `stats` without granting a bank port — the MSHR-merged
    /// sibling of [`Interconnect::cluster_overhead`], so the
    /// "skip recording on the flat network" rule lives in one place.
    pub fn cluster_traverse_overhead(
        &mut self,
        stats: &mut crate::stats::MemStats,
        cluster: ClusterId,
        target: usize,
        cycle: u64,
    ) -> Traverse {
        if self.is_flat() {
            return Traverse::free(cycle);
        }
        let tr = self.traverse_to_cluster(cluster, target, cycle);
        stats.record_traverse(&tr);
        tr
    }

    /// Routes a cluster → cluster transfer and records it into `stats`;
    /// returns the route (all-zero on the flat network). The shared
    /// helper behind the distributed models' remote traffic.
    pub fn cluster_overhead(
        &mut self,
        stats: &mut crate::stats::MemStats,
        cluster: ClusterId,
        target: usize,
        cycle: u64,
    ) -> Route {
        if self.is_flat() {
            return Route::free(cycle);
        }
        let route = self.route_to_cluster(cluster, target, cycle);
        stats.record_route(&route);
        route
    }

    /// Routes a cluster → memory (bank-of-address) request and records it
    /// into `stats`; returns the route (all-zero on the flat network).
    pub fn memory_overhead(
        &mut self,
        stats: &mut crate::stats::MemStats,
        cluster: ClusterId,
        addr: u64,
        cycle: u64,
    ) -> Route {
        if self.is_flat() {
            return Route::free(cycle);
        }
        let route = self.route(cluster, addr, cycle);
        stats.record_route(&route);
        route
    }

    /// Folds the network's arbitration state into `h`, cycles relative
    /// to `base` (DESIGN.md §14). The cumulative `link_load`/`bank_load`
    /// profiling counters are deliberately excluded: they are monotonic
    /// observables, never consulted by arbitration, and the fast-forward
    /// runner batches them by delta instead. A lazily-allocated link
    /// wheel digests differently from a never-touched one even when
    /// both are empty — that can only delay detection (allocation state
    /// stabilizes after warm-up), never corrupt it.
    pub(crate) fn digest_into(&self, h: &mut crate::digest::Fnv, base: u64) {
        for slots in &self.granted {
            slots.digest_into(h, base);
        }
        for (idx, link) in self.links.iter().enumerate() {
            if let Some(slots) = link {
                h.write_u64(idx as u64);
                slots.digest_into(h, base);
            }
        }
        for slots in &self.cluster_ports {
            slots.digest_into(h, base);
        }
    }

    /// Shifts every bank, link and node-port reservation forward by
    /// `delta` cycles — the network's share of a fast-forward batch.
    pub(crate) fn advance(&mut self, delta: u64) {
        for slots in &mut self.granted {
            slots.advance(delta);
        }
        for link in self.links.iter_mut().flatten() {
            link.advance(delta);
        }
        for slots in &mut self.cluster_ports {
            slots.advance(delta);
        }
    }
}

/// The reference XY link sequence `traverse_mesh` walks inline — now the
/// *canonical* enumeration lives in
/// [`InterconnectConfig::mesh_route`] (shared with the scheduler's
/// observed placement-cost model); the tests assert against it.
#[cfg(test)]
fn xy_path(from: usize, to: usize, n_clusters: usize) -> Vec<(usize, usize)> {
    InterconnectConfig::mesh_route(from, to, n_clusters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> ClusterId {
        ClusterId::new(i)
    }

    #[test]
    fn flat_routes_are_free() {
        let mut ic = Interconnect::new(4, InterconnectConfig::flat());
        let r = ic.route(c(3), 0x1234, 100);
        assert_eq!(r.bank_start, 100);
        assert_eq!(r.overhead(), 0);
        let mut stats = crate::stats::MemStats::default();
        assert_eq!(
            ic.memory_overhead(&mut stats, c(3), 0x1234, 100),
            Route::free(100)
        );
        assert_eq!(
            ic.cluster_overhead(&mut stats, c(3), 1, 100),
            Route::free(100)
        );
        assert_eq!(stats.ic_requests, 0, "flat short-circuits are not counted");
    }

    #[test]
    fn crossbar_pays_hops_both_ways() {
        let mut ic = Interconnect::new(4, InterconnectConfig::crossbar(2, 2));
        let r = ic.route(c(0), 0, 10);
        assert_eq!(r.bank_start, 11, "one hop to the bank");
        assert_eq!(r.hop_cycles, 2, "request + reply");
        assert_eq!(r.queue_cycles, 0);
        assert_eq!(r.link_stall_cycles, 0);
    }

    #[test]
    fn port_exhaustion_queues_requests() {
        let mut ic = Interconnect::new(4, InterconnectConfig::crossbar(1, 1));
        let a = ic.route(c(0), 0, 10);
        let b = ic.route(c(1), 0, 10);
        let d = ic.route(c(2), 0, 10);
        assert_eq!(a.queue_cycles, 0);
        assert_eq!(b.queue_cycles, 1, "second same-cycle request waits");
        assert_eq!(d.queue_cycles, 2);
    }

    #[test]
    fn two_ports_absorb_two_requests_per_cycle() {
        let mut ic = Interconnect::new(4, InterconnectConfig::crossbar(1, 2));
        assert_eq!(ic.route(c(0), 0, 10).queue_cycles, 0);
        assert_eq!(ic.route(c(1), 0, 10).queue_cycles, 0);
        assert_eq!(ic.route(c(2), 0, 10).queue_cycles, 1);
    }

    #[test]
    fn different_banks_do_not_contend() {
        let ic_cfg = InterconnectConfig::crossbar(2, 1);
        let mut ic = Interconnect::new(4, ic_cfg);
        let a = ic.route(c(0), 0, 10); // bank 0
        let b = ic.route(c(1), 32, 10); // bank 1 (32-byte interleave)
        assert_eq!(a.queue_cycles, 0);
        assert_eq!(b.queue_cycles, 0);
    }

    #[test]
    fn hierarchical_remote_tile_is_farther() {
        let ic_cfg = InterconnectConfig::hierarchical(4, 4, 4);
        let mut ic = Interconnect::new(16, ic_cfg);
        // cluster 3 shares tile 0 with cluster 0; cluster 9 is in tile 2
        let near = ic.route_to_cluster(c(0), 3, 0);
        let far = ic.route_to_cluster(c(0), 9, 0);
        assert_eq!(near.hop_cycles, 2);
        assert_eq!(far.hop_cycles, 6);
    }

    #[test]
    fn cluster_routing_queues_on_the_target_tile_bank() {
        // 16 clusters, 4 tiles, 4 single-port banks: transfers *to*
        // clusters of the same tile contend, transfers to different
        // tiles do not.
        let mut ic = Interconnect::new(16, InterconnectConfig::hierarchical(4, 1, 4));
        let a = ic.route_to_cluster(c(0), 1, 10); // tile 0
        let b = ic.route_to_cluster(c(2), 3, 10); // tile 0: same bank
        let d = ic.route_to_cluster(c(0), 5, 10); // tile 1: free bank
        assert_eq!(a.queue_cycles, 0);
        assert_eq!(b.queue_cycles, 1);
        assert_eq!(d.queue_cycles, 0);
    }

    #[test]
    fn earlier_cycled_request_is_not_penalized_by_later_processing() {
        // The simulator replays overlapped iterations out of global cycle
        // order: a request *processed* later but *issued* earlier must get
        // the earlier slot if it is free.
        let mut ic = Interconnect::new(4, InterconnectConfig::crossbar(1, 1));
        ic.route(c(0), 0, 50);
        let early = ic.route(c(1), 0, 10);
        assert_eq!(early.queue_cycles, 0, "cycle 11 slot is still free");
    }

    #[test]
    fn deterministic_replay() {
        let cfg = InterconnectConfig::hierarchical(4, 1, 4);
        let run = || {
            let mut ic = Interconnect::new(16, cfg);
            (0..64u64)
                .map(|i| {
                    let r = ic.route(c((i % 16) as usize), i * 8, i / 4);
                    (r.bank_start, r.queue_cycles, r.hop_cycles)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn xy_path_goes_x_first_then_y() {
        // 16 nodes, 4 columns: node 1 = (1,0), node 14 = (2,3).
        let path = xy_path(1, 14, 16);
        assert_eq!(path, vec![(1, 2), (2, 6), (6, 10), (10, 14)]);
        assert_eq!(xy_path(5, 5, 16), vec![(5, 5)], "ejection self-link");
        assert_eq!(xy_path(3, 0, 16).len(), 3, "westbound route");
    }

    #[test]
    fn mesh_route_pays_manhattan_hops() {
        let mut ic = Interconnect::new(16, InterconnectConfig::mesh(4, 4));
        // cluster 0 -> cluster 15: 6 hops each way
        let r = ic.route_to_cluster(c(0), 15, 10);
        assert_eq!(r.hop_cycles, 12);
        assert_eq!(r.link_stall_cycles, 0, "empty network never stalls");
        assert_eq!(r.bank_start, 16, "issue + 6 forward hops");
    }

    #[test]
    fn saturated_link_stalls_the_second_flit() {
        // Two same-cycle routes sharing the first eastbound link on a
        // single-flit mesh: the second stalls one cycle at the link.
        let mut ic = Interconnect::new(16, InterconnectConfig::mesh(4, 4));
        let a = ic.route_to_cluster(c(0), 2, 10); // 0 -> 1 -> 2
        let b = ic.route_to_cluster(c(0), 1, 10); // 0 -> 1 (same first link)
        assert_eq!(a.link_stall_cycles, 0);
        assert_eq!(b.link_stall_cycles, 1, "link (0,1) is full at cycle 10");
        assert_eq!(b.bank_start, 12, "stall + one hop");
        // a wider link absorbs both
        let mut wide = Interconnect::new(16, InterconnectConfig::mesh(4, 4).with_link_capacity(2));
        wide.route_to_cluster(c(0), 2, 10);
        assert_eq!(wide.route_to_cluster(c(0), 1, 10).link_stall_cycles, 0);
    }

    #[test]
    fn disjoint_mesh_links_do_not_contend() {
        let mut ic = Interconnect::new(16, InterconnectConfig::mesh(4, 4));
        let a = ic.route_to_cluster(c(0), 1, 10); // eastbound on row 0
        let b = ic.route_to_cluster(c(4), 5, 10); // eastbound on row 1
        let d = ic.route_to_cluster(c(1), 0, 10); // westbound on row 0
        assert_eq!(a.link_stall_cycles, 0);
        assert_eq!(b.link_stall_cycles, 0, "different row, different link");
        assert_eq!(
            d.link_stall_cycles, 0,
            "opposite direction is a distinct link"
        );
    }

    #[test]
    fn mesh_deterministic_replay() {
        let cfg = InterconnectConfig::mesh(4, 1);
        let run = || {
            let mut ic = Interconnect::new(16, cfg);
            (0..96u64)
                .map(|i| {
                    let r = ic.route(c((i % 16) as usize), i * 8, i / 4);
                    (
                        r.bank_start,
                        r.queue_cycles,
                        r.hop_cycles,
                        r.link_stall_cycles,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traverse_then_grant_matches_route() {
        let cfg = InterconnectConfig::mesh(4, 1);
        let mut via_route = Interconnect::new(16, cfg);
        let mut via_parts = Interconnect::new(16, cfg);
        for i in 0..32u64 {
            let cl = c((i % 16) as usize);
            let r = via_route.route(cl, i * 8, i / 2);
            let tr = via_parts.traverse(cl, i * 8, i / 2);
            let start = via_parts.grant_port(tr.bank, tr.arrival);
            assert_eq!(r.bank_start, start, "request {i}");
            assert_eq!(r.link_stall_cycles, tr.link_stall_cycles, "request {i}");
        }
    }

    #[test]
    fn network_load_snapshots_link_and_bank_pressure() {
        let mut ic = Interconnect::new(16, InterconnectConfig::mesh(4, 1));
        // Two same-cycle routes over the shared (0,1) link, to the same
        // bank: one link stall and one port-queue cycle show up.
        ic.route(c(0), 0, 10);
        ic.route(c(0), 0, 10);
        let net = ic.network_load();
        assert!(!net.is_empty());
        // bank 0's host is node 0 (diagonal stride), so the route from
        // cluster 0 is the single ejection self-link
        assert!(net.link(0, 0).is_some(), "route 0->bank 0 ejects at node 0");
        let total_traversals: u64 = net.links.iter().map(|l| l.traversals).sum();
        let total_stalls: u64 = net.links.iter().map(|l| l.stall_cycles).sum();
        assert!(total_traversals >= 2);
        assert!(total_stalls >= 1, "single-flit link must stall the second");
        let bank0 = net.bank(net.banks[0].bank).unwrap();
        assert_eq!(bank0.requests, 2);
        // On the crossbar (no links to stagger arrivals) the same pair
        // queues at the single port, and the pressure is recorded.
        let mut xbar = Interconnect::new(4, InterconnectConfig::crossbar(1, 1));
        xbar.route(c(0), 0, 10);
        xbar.route(c(1), 0, 10);
        let xnet = xbar.network_load();
        assert_eq!(xnet.bank(0).unwrap().requests, 2);
        assert_eq!(
            xnet.bank(0).unwrap().queue_cycles,
            1,
            "one port, two arrivals"
        );
        assert!(xnet.links.is_empty(), "crossbars have no mesh links");
        // links stay sorted for deterministic artifacts
        assert!(net
            .links
            .windows(2)
            .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
        // the flat network records nothing
        let mut flat = Interconnect::new(4, InterconnectConfig::flat());
        flat.route(c(0), 0, 10);
        assert!(flat.network_load().is_empty());
    }

    #[test]
    fn stale_link_state_retires_without_sweeps() {
        // A reservation far in the past silently vanishes once the clock
        // laps the link's wheel.
        let mut ic = Interconnect::new(16, InterconnectConfig::mesh(4, 4));
        ic.route_to_cluster(c(0), 1, 10);
        assert_eq!(
            ic.route_to_cluster(c(0), 1, 1_000_000).link_stall_cycles,
            0,
            "ancient reservation no longer occupies the link"
        );
    }
}
