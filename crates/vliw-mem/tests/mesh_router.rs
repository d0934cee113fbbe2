//! Cycle-accurate unit tests for the mesh router: XY-routing distance,
//! per-link saturation stalls, and determinism under the round-robin
//! drain rotation the simulator applies on contended networks.

use vliw_machine::{ClusterId, InterconnectConfig};
use vliw_mem::{Interconnect, MemStats};

fn c(i: usize) -> ClusterId {
    ClusterId::new(i)
}

/// A 16-node (4×4) single-flit mesh with one bank per tile row.
fn mesh16() -> Interconnect {
    Interconnect::new(16, InterconnectConfig::mesh(4, 1))
}

#[test]
fn xy_distance_matches_manhattan_everywhere() {
    let cfg = InterconnectConfig::mesh(4, 1);
    for from in 0..16usize {
        for to in 0..16usize {
            let (fx, fy) = InterconnectConfig::mesh_pos(from, 16);
            let (tx, ty) = InterconnectConfig::mesh_pos(to, 16);
            let manhattan = (fx.abs_diff(tx) + fy.abs_diff(ty)).max(1) as u32;
            assert_eq!(cfg.cluster_hops(from, to, 16), manhattan, "{from} -> {to}");
        }
    }
}

#[test]
fn dynamic_route_pays_exactly_the_static_distance_when_uncontended() {
    let cfg = InterconnectConfig::mesh(4, 1);
    for target in 0..16usize {
        // a fresh network per probe: nothing else occupies links or ports
        let mut ic = Interconnect::new(16, cfg);
        let r = ic.route_to_cluster(c(0), target, 100);
        let hops = cfg.cluster_hops(0, target, 16) as u64;
        assert_eq!(r.hop_cycles, 2 * hops, "to {target}");
        assert_eq!(r.link_stall_cycles, 0);
        assert_eq!(r.queue_cycles, 0);
        assert_eq!(r.bank_start, 100 + hops, "forward hops only");
    }
}

#[test]
fn shared_first_link_saturates_cycle_by_cycle() {
    // Three same-cycle flits out of node 0 eastbound: link (0,1) forwards
    // one per cycle, so they stall 0, 1 and 2 cycles respectively.
    let mut ic = mesh16();
    let stalls: Vec<u64> = (0..3)
        .map(|_| ic.route_to_cluster(c(0), 3, 50).link_stall_cycles)
        .collect();
    assert_eq!(stalls, vec![0, 1, 2]);
    // A later flit on the now-drained link pays nothing extra.
    assert_eq!(ic.route_to_cluster(c(0), 3, 60).link_stall_cycles, 0);
}

#[test]
fn downstream_links_inherit_the_upstream_stall() {
    // Two flits 0 -> 2: the second stalls at (0,1), and because it enters
    // (1,2) a cycle later it does NOT stall again there — the pipeline
    // spreads out.
    let mut ic = mesh16();
    let a = ic.route_to_cluster(c(0), 2, 10);
    let b = ic.route_to_cluster(c(0), 2, 10);
    assert_eq!(a.link_stall_cycles, 0);
    assert_eq!(b.link_stall_cycles, 1, "one stall at the first link only");
    assert_eq!(b.bank_start, a.bank_start + 1);
}

#[test]
fn cross_traffic_on_disjoint_links_is_free() {
    let mut ic = mesh16();
    // Fill row 0 eastbound.
    ic.route_to_cluster(c(0), 3, 10);
    // Row 1 eastbound, row 0 westbound and column 0 southbound all use
    // different directed links.
    assert_eq!(ic.route_to_cluster(c(4), 7, 10).link_stall_cycles, 0);
    assert_eq!(ic.route_to_cluster(c(3), 0, 10).link_stall_cycles, 0);
    assert_eq!(ic.route_to_cluster(c(0), 12, 10).link_stall_cycles, 0);
}

#[test]
fn bank_ports_still_arbitrate_after_the_link_walk() {
    // Two requests from adjacent sources converging on the same bank:
    // disjoint links, but the single port serializes them.
    let cfg = InterconnectConfig::mesh(4, 1).with_bank_interleave(32);
    let mut ic = Interconnect::new(16, cfg);
    // bank 0 is hosted at node 0 = (0,0); nodes 1 = (1,0) and 4 = (0,1)
    // are both one hop away on disjoint links.
    assert_eq!(cfg.mesh_bank_host(0, 16), 0);
    let a = ic.route(c(1), 0, 10);
    let b = ic.route(c(4), 0, 10);
    assert_eq!(a.queue_cycles, 0);
    assert_eq!(a.link_stall_cycles + b.link_stall_cycles, 0);
    assert_eq!(b.queue_cycles, 1, "one port, two same-cycle arrivals");
}

#[test]
fn distinct_mesh_nodes_own_distinct_port_pools() {
    // Cluster-directed traffic to two different nodes must not alias
    // into one port pool, even when the node indices collide modulo the
    // bank count (16 clusters, 4 banks: nodes 1 and 5 are both ≡ 1).
    let mut ic = Interconnect::new(16, InterconnectConfig::mesh(4, 1));
    let a = ic.route_to_cluster(c(2), 1, 10); // 1 hop west
    let b = ic.route_to_cluster(c(6), 5, 10); // 1 hop west, row 1
    assert_eq!(a.queue_cycles, 0);
    assert_eq!(b.queue_cycles, 0, "different nodes, different ports");
    // same node, same cycle arrivals: the single port serializes
    let d = ic.route_to_cluster(c(0), 1, 10); // 1 hop east, same node 1
    assert_eq!(d.queue_cycles, 1, "node 1's port is taken this cycle");
}

#[test]
fn deterministic_under_round_robin_rotation() {
    // The runner drains same-slot requests in an order rotated by the
    // iteration index. Replaying the same rotated sequence must produce
    // identical timings, and each rotation must be internally
    // deterministic (the mesh state machine has no hidden entropy).
    let cfg = InterconnectConfig::mesh(4, 1);
    let issue = |rotation: usize| {
        let mut ic = Interconnect::new(16, cfg);
        let mut out = Vec::new();
        for iter in 0..32u64 {
            let slot: Vec<usize> = (0..4)
                .map(|k| (k + rotation + iter as usize) % 16)
                .collect();
            for &src in &slot {
                let r = ic.route(c(src), (src as u64) * 8, iter * 3);
                out.push((r.bank_start, r.queue_cycles, r.link_stall_cycles));
            }
        }
        out
    };
    for rotation in 0..4 {
        assert_eq!(issue(rotation), issue(rotation), "rotation {rotation}");
    }
    // Different rotations are allowed to differ (that is the point of
    // rotating), but totals stay finite and accounted.
    let base: u64 = issue(0).iter().map(|(_, q, l)| q + l).sum();
    let rot: u64 = issue(1).iter().map(|(_, q, l)| q + l).sum();
    assert!(base < 10_000 && rot < 10_000);
}

#[test]
fn route_and_stats_agree_on_link_stalls() {
    let mut ic = mesh16();
    let mut stats = MemStats::default();
    ic.cluster_overhead(&mut stats, c(0), 3, 10);
    ic.cluster_overhead(&mut stats, c(0), 3, 10); // stalls once at (0,1)
    assert_eq!(stats.ic_requests, 2);
    assert_eq!(stats.link_stalls(), 1);
    assert!(stats.ic_hop_cycles > 0);
}
