//! The placement-cost path (DESIGN.md §9).
//!
//! Three scheduler decisions ask how expensive it is to put memory
//! traffic somewhere: the engine's contention-aware cluster ordering
//! ([`bank_affinity`]), the hint layer's interleaved-sibling demotion
//! ([`siblings_near`]) and the profile-guided L0 marking priority
//! ([`stall_weight`]). Each is one free function over the request's
//! optional [`Profile`]:
//!
//! * without a profile the answer is the compile-time model — pure hop
//!   geometry, every op equally cold;
//! * with a profile harvested from a simulation run, routes additionally
//!   pay the per-link stalls and per-bank queueing that run measured.
//!   Where the profile saw nothing the penalties are zero, so a profile
//!   of an uncontended run answers exactly like no profile.
//!
//! Costs are integers in [`Profile::SCALE`]-ths of a hop, so orderings
//! are deterministic and profiles hash/serialize exactly.

use std::collections::HashSet;
use vliw_machine::{ClusterId, InterconnectConfig, MachineConfig, Profile, Topology};

/// The canonical (pre-unroll) loop name a profile is keyed by: the
/// unroll pass tags candidate bodies with `*N`, which must not make a
/// profiled loop look cold on the recompile. (The specialization tag
/// `+spec` is deterministic across passes and therefore kept.)
pub fn base_loop_name(name: &str) -> &str {
    name.split('*').next().unwrap_or(name)
}

/// Estimated cost — in [`Profile::SCALE`]-ths of a hop — of servicing
/// the address `addr` from `cluster`: the static hop distance to the
/// owning bank, plus, under a profile, the bank's observed port
/// queueing and the observed link stalls along the mesh route the
/// refill takes. 0 on the flat network (nothing is routed).
pub fn bank_affinity(
    cfg: &MachineConfig,
    profile: Option<&Profile>,
    cluster: ClusterId,
    addr: u64,
) -> u64 {
    let ic = &cfg.interconnect;
    if ic.is_flat() {
        return 0;
    }
    let bank = ic.bank_of(addr);
    let hops = ic.hops(cluster.index(), bank, cfg.clusters) as u64 * Profile::SCALE;
    let penalty = profile.map_or(0, |p| {
        let mut penalty = p.bank_penalty(bank as u32);
        if ic.topology == Topology::Mesh {
            let host = ic.mesh_bank_host(bank, cfg.clusters);
            penalty += InterconnectConfig::mesh_route(cluster.index(), host, cfg.clusters)
                .into_iter()
                .map(|(a, b)| p.link_penalty(a as u32, b as u32))
                .sum::<u64>();
        }
        penalty
    });
    // Quantize the observed surcharge to whole hops: the static
    // geometry deliberately leaves same-distance clusters *tied* so the
    // engine's balance keys can spread work, and sub-hop stall averages
    // must not shatter those ties — only congestion worth a full hop is
    // allowed to reorder placement.
    hops + penalty / Profile::SCALE * Profile::SCALE
}

/// `true` when dealing interleaved L0 lanes to `clusters` is cheap on
/// the machine's network; a `false` demotes the group to linear mappings
/// (each cluster fills from its near bank instead).
///
/// Pure geometry, with or without a profile. Observed link stalls cannot
/// be attributed to the sibling deals themselves: deal traffic rides the
/// same links as ordinary bank refills, so on a congested machine every
/// pairwise route looks hot and a congestion-adjusted rule demotes
/// *every* group — which measures strictly worse (the bank bottleneck is
/// still there, and the linear fills lose the deal's locality win).
pub fn siblings_near(cfg: &MachineConfig, clusters: &HashSet<ClusterId>) -> bool {
    match cfg.interconnect.topology {
        Topology::Flat | Topology::Crossbar => true,
        Topology::Hierarchical => {
            let tiles: HashSet<usize> = clusters
                .iter()
                .map(|c| cfg.interconnect.group_of_cluster(c.index()))
                .collect();
            tiles.len() <= 1
        }
        Topology::Mesh => {
            // Dealing lanes across the grid costs every block fill one
            // XY route per sibling pair; the group stays interleaved
            // only within a radius derived from the mesh diameter
            // (`near_hop_threshold`).
            let limit = cfg.interconnect.near_hop_threshold(cfg.clusters);
            clusters.iter().all(|a| {
                clusters.iter().all(|b| {
                    a == b
                        || cfg
                            .interconnect
                            .cluster_hops(a.index(), b.index(), cfg.clusters)
                            <= limit
                })
            })
        }
    }
}

/// Observed pipeline-stall weight of the provenance-origin op
/// `origin_op` in the loop named `loop_name` (read through the unroll
/// tag). 0 without a profile: every op is equally cold.
pub fn stall_weight(profile: Option<&Profile>, loop_name: &str, origin_op: u32) -> u64 {
    profile.map_or(0, |p| p.stall_weight(base_loop_name(loop_name), origin_op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::{BankLoad, LinkLoad, LoopProfile};

    fn mesh_cfg(n: usize) -> MachineConfig {
        let mut cfg = MachineConfig::micro2003()
            .with_interconnect(InterconnectConfig::mesh((n / 4).max(1), 1));
        cfg.clusters = n;
        cfg.l1.block_bytes = 8 * n;
        cfg.l1.size_bytes = 2 * 1024 * n;
        cfg
    }

    #[test]
    fn base_loop_name_strips_only_the_unroll_tag() {
        assert_eq!(base_loop_name("pred"), "pred");
        assert_eq!(base_loop_name("pred+spec"), "pred+spec");
        assert_eq!(base_loop_name("pred+spec*4"), "pred+spec");
        assert_eq!(base_loop_name("stream*16"), "stream");
    }

    #[test]
    fn static_cost_is_scaled_hops() {
        let cfg = mesh_cfg(16);
        let ic = &cfg.interconnect;
        for (cluster, addr) in [(0usize, 0u64), (5, 256), (15, 1024)] {
            let hops = ic.hops(cluster, ic.bank_of(addr), 16) as u64;
            assert_eq!(
                bank_affinity(&cfg, None, ClusterId::new(cluster), addr),
                hops * Profile::SCALE
            );
        }
        // flat networks cost nothing and every op is cold
        let flat = MachineConfig::micro2003();
        assert_eq!(bank_affinity(&flat, None, ClusterId::new(0), 0x100), 0);
        assert_eq!(stall_weight(None, "pred", 0), 0);
    }

    #[test]
    fn an_empty_profile_costs_the_static_geometry() {
        let cfg = mesh_cfg(16);
        let profile = Profile::new(16, Topology::Mesh);
        for cluster in 0..16 {
            for addr in [0u64, 128, 256, 4096] {
                assert_eq!(
                    bank_affinity(&cfg, Some(&profile), ClusterId::new(cluster), addr),
                    bank_affinity(&cfg, None, ClusterId::new(cluster), addr),
                    "cluster {cluster} addr {addr}"
                );
            }
        }
    }

    #[test]
    fn a_profile_penalizes_hot_links_and_banks() {
        let cfg = mesh_cfg(16);
        let ic = &cfg.interconnect;
        let addr = 0u64;
        let bank = ic.bank_of(addr);
        let host = ic.mesh_bank_host(bank, 16);

        let mut profile = Profile::new(16, Topology::Mesh);
        profile.net.banks.push(BankLoad {
            bank: bank as u32,
            requests: 10,
            queue_cycles: 20, // 2 cycles/request -> 16 scale units
        });
        // saturate the first link of the route from the far corner
        let far = 15usize;
        let route = InterconnectConfig::mesh_route(far, host, 16);
        profile.net.links.push(LinkLoad {
            from: route[0].0 as u32,
            to: route[0].1 as u32,
            traversals: 4,
            stall_cycles: 8, // 2 cycles/traversal -> 16 scale units
        });
        profile.net.links.sort_by_key(|l| (l.from, l.to));

        let cost = |p: Option<&Profile>, c: usize| bank_affinity(&cfg, p, ClusterId::new(c), addr);
        assert_eq!(
            cost(Some(&profile), far),
            cost(None, far) + 16 + 16,
            "bank queue + hot first link both surcharge"
        );
        // a cluster whose route avoids the hot link pays only the bank
        assert_eq!(cost(Some(&profile), host), cost(None, host) + 16);
    }

    #[test]
    fn stall_weight_reads_through_the_unroll_tag() {
        let mut profile = Profile::new(4, Topology::Flat);
        let mut l = LoopProfile::new("pred+spec");
        l.add(3, 42);
        profile.loops.push(l);
        let p = Some(&profile);
        assert_eq!(stall_weight(p, "pred+spec", 3), 42);
        assert_eq!(stall_weight(p, "pred+spec*4", 3), 42, "unrolled candidate");
        assert_eq!(stall_weight(p, "pred+spec", 0), 0);
        assert_eq!(stall_weight(p, "other", 3), 0);
    }
}
