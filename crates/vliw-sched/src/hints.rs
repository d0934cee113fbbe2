//! Step 4: hint assignment (§4.3).
//!
//! After scheduling, every memory instruction gets its hint bundle:
//!
//! * **access**: loads scheduled with the L0 latency become `SEQ_ACCESS`
//!   when no other memory instruction occupies the same cluster's memory
//!   slot in the next cycle (so an L0 miss can be forwarded to L1 without
//!   bus arbitration), `PAR_ACCESS` otherwise; everything else is
//!   `NO_ACCESS`. Stores become `PAR_ACCESS` when they must update a
//!   local L0 copy (1C sets with L0-latency loads in the same cluster).
//! * **mapping**: `INTERLEAVED_MAP` when the load's unrolled siblings
//!   spread over several clusters (the loop was unrolled by N and the
//!   stride is good); `LINEAR_MAP` otherwise. On a non-flat
//!   interconnect the assignment is additionally *distance-aware*:
//!   interleaved fills deal one lane to every sibling cluster, so when
//!   the siblings span interconnect tiles (or exceed the mesh's
//!   diameter-derived hop radius) the cross-network deals pay long
//!   routes on every block — the mapping falls back to `LINEAR_MAP` and
//!   each cluster fills its L0 buffer from its near bank instead. The
//!   near/far question is answered by [`siblings_near`], which is pure
//!   geometry with or without a profile.
//! * **prefetch**: `POSITIVE`/`NEGATIVE` by stride sign for good strides;
//!   among interleaved siblings only the first in schedule order carries
//!   the hint (one trigger refetches the whole next block — redundant
//!   prefetches are avoided).

use crate::cost::siblings_near;
use crate::schedule::Schedule;
use std::collections::{HashMap, HashSet};
use vliw_ir::{stride, MemDepSets, OpId, StrideClass};
use vliw_machine::{AccessHint, MachineConfig, MappingHint, MemHints, PrefetchHint};

/// Occupancy of memory slots: `(cluster, slot) -> #mem ops`.
fn mem_slot_occupancy(schedule: &Schedule) -> HashMap<(usize, i64), usize> {
    let ii = schedule.ii() as i64;
    let mut occ = HashMap::new();
    for p in &schedule.placements {
        if schedule.loop_.op(p.op).kind.is_mem() {
            *occ.entry((p.cluster.index(), p.t.rem_euclid(ii)))
                .or_insert(0) += 1;
        }
    }
    for r in &schedule.replicas {
        *occ.entry((r.cluster.index(), r.t.rem_euclid(ii)))
            .or_insert(0) += 1;
    }
    occ
}

/// Assigns hints to every memory instruction of `schedule` in place.
pub fn assign_hints(schedule: &mut Schedule, cfg: &MachineConfig) {
    let l0_lat = cfg.l0.map(|l| l.latency).unwrap_or(1);
    let occ = mem_slot_occupancy(schedule);
    let ii = schedule.ii() as i64;
    let n = cfg.clusters;
    let unroll = schedule.loop_.unroll_factor;
    let sets = MemDepSets::build(&schedule.loop_);

    // Sibling groups: unrolled copies of the same original op.
    let mut groups: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for op in schedule.loop_.mem_ops() {
        groups.entry(op.provenance().0).or_default().push(op.id);
    }

    // Which groups are interleaved: unrolled by N, good stride, siblings in
    // >= 2 clusters, all marked to use L0.
    let mut interleaved_groups: HashSet<OpId> = HashSet::new();
    if unroll == n {
        for (origin, members) in &groups {
            if members.len() != n {
                continue;
            }
            let all_l0_loads = members.iter().all(|&m| {
                let o = schedule.loop_.op(m);
                o.is_load() && schedule.placement(m).assumed_latency == l0_lat
            });
            if !all_l0_loads {
                continue;
            }
            let good = members.iter().all(|&m| {
                schedule
                    .loop_
                    .op(m)
                    .kind
                    .mem_access()
                    .map(|a| stride::classify(a, unroll) == StrideClass::Good)
                    .unwrap_or(false)
            });
            if !good {
                continue;
            }
            let clusters: HashSet<_> = members
                .iter()
                .map(|&m| schedule.placement(m).cluster)
                .collect();
            if clusters.len() >= 2 && siblings_near(cfg, &clusters) {
                interleaved_groups.insert(*origin);
            }
        }
    }

    // One member of each interleaved group carries the prefetch hint
    // (redundant prefetches are avoided: a single trigger refetches the
    // whole next block for all four lanes). We pick the sibling that
    // walks *furthest ahead* in the stream (largest offset, then earliest
    // slot): it reaches each block's lane-end first, so the trigger fires
    // before any sibling crosses into the next block.
    let mut prefetch_carrier: HashMap<OpId, OpId> = HashMap::new();
    for origin in &interleaved_groups {
        let first = groups[origin]
            .iter()
            .copied()
            .max_by_key(|&m| {
                let off = schedule
                    .loop_
                    .op(m)
                    .kind
                    .mem_access()
                    .map(|a| a.offset_bytes)
                    .unwrap_or(0);
                (off, std::cmp::Reverse((schedule.placement(m).t, m.0)))
            })
            .expect("group non-empty");
        prefetch_carrier.insert(*origin, first);
    }

    // Clusters that hold L0-latency loads per mixed set (for store hints).
    let mut set_l0_clusters: HashMap<usize, HashSet<usize>> = HashMap::new();
    for p in &schedule.placements {
        let o = schedule.loop_.op(p.op);
        if o.is_load() && p.assumed_latency == l0_lat && o.kind.is_mem() {
            if let Some(si) = sets.set_of(p.op) {
                set_l0_clusters
                    .entry(si)
                    .or_default()
                    .insert(p.cluster.index());
            }
        }
    }

    for i in 0..schedule.placements.len() {
        let p = schedule.placements[i];
        let o = schedule.loop_.op(p.op).clone();
        if !o.kind.is_mem() {
            continue;
        }
        let acc = o.kind.mem_access().copied();
        let hints = if o.is_load() {
            if p.assumed_latency != l0_lat {
                MemHints::no_access()
            } else {
                // SEQ if the next cycle's memory slot in this cluster is
                // free (nobody competes for the cluster <-> L1 bus).
                let next_slot = (p.t + 1).rem_euclid(ii);
                let busy = occ
                    .get(&(p.cluster.index(), next_slot))
                    .copied()
                    .unwrap_or(0)
                    > 0;
                let access = if busy {
                    AccessHint::ParAccess
                } else {
                    AccessHint::SeqAccess
                };
                let (origin, _) = o.provenance();
                let mapping = if interleaved_groups.contains(&origin) {
                    MappingHint::Interleaved
                } else {
                    MappingHint::Linear
                };
                let prefetch = match acc {
                    Some(a) if stride::classify(&a, unroll) == StrideClass::Good => {
                        let carries = match prefetch_carrier.get(&origin) {
                            Some(&carrier) => carrier == p.op,
                            None => true, // linear loads each walk their own stream
                        };
                        if !carries {
                            PrefetchHint::None
                        } else {
                            match a.stride_elems() {
                                Some(s) if s > 0 => PrefetchHint::Positive,
                                Some(s) if s < 0 => PrefetchHint::Negative,
                                _ => PrefetchHint::None,
                            }
                        }
                    }
                    _ => PrefetchHint::None,
                };
                MemHints {
                    access,
                    mapping,
                    prefetch,
                }
            }
        } else {
            // store: PAR when its set has an L0-latency load in this
            // cluster (the write-through must update the local copy)
            let par = sets
                .set_of(p.op)
                .and_then(|si| set_l0_clusters.get(&si))
                .map(|cs| cs.contains(&p.cluster.index()))
                .unwrap_or(false);
            if par {
                MemHints::new(AccessHint::ParAccess)
            } else {
                MemHints::no_access()
            }
        };
        schedule.placements[i].hints = hints;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::CoherencePolicy;
    use crate::engine::{run_with, AssignmentPolicy, MarkPolicy, Mode, ScheduleError};
    use vliw_ir::{LoopBuilder, LoopNest};
    use vliw_machine::{ClusterId, MachineConfig};

    fn run(l: &LoopNest, cfg: &MachineConfig, mode: Mode) -> Result<Schedule, ScheduleError> {
        run_with(l, cfg, mode, AssignmentPolicy::ContentionBlind, None)
    }

    fn l0_mode() -> Mode {
        Mode::L0 {
            mark: MarkPolicy::Selective,
            policy: CoherencePolicy::Auto,
        }
    }

    #[test]
    fn l0_loads_get_access_and_prefetch_hints() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let cfg = MachineConfig::micro2003();
        let mut s = run(&l, &cfg, l0_mode()).unwrap();
        assign_hints(&mut s, &cfg);
        let load = l.ops.iter().find(|o| o.is_load()).unwrap();
        let h = s.placement(load.id).hints;
        assert!(h.access.uses_l0());
        assert_eq!(h.prefetch, PrefetchHint::Positive, "ascending walk");
        assert_eq!(h.mapping, MappingHint::Linear, "not unrolled");
    }

    #[test]
    fn non_candidate_loads_bypass_l0() {
        let l = LoopBuilder::new("irr")
            .trip_count(64)
            .irregular(4, 1 << 16)
            .build();
        let cfg = MachineConfig::micro2003();
        let mut s = run(&l, &cfg, l0_mode()).unwrap();
        assign_hints(&mut s, &cfg);
        let irr_load = l
            .ops
            .iter()
            .find(|o| o.is_load() && !o.kind.mem_access().unwrap().stride.is_strided())
            .unwrap();
        assert_eq!(s.placement(irr_load.id).hints.access, AccessHint::NoAccess);
    }

    #[test]
    fn unrolled_good_strides_get_interleaved_mapping() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let u = vliw_ir::unroll(&l, 4);
        let cfg = MachineConfig::micro2003();
        let mut s = run(&u, &cfg, l0_mode()).unwrap();
        assign_hints(&mut s, &cfg);
        let loads: Vec<_> = u.ops.iter().filter(|o| o.is_load()).collect();
        assert_eq!(loads.len(), 4);
        let interleaved = loads
            .iter()
            .filter(|o| s.placement(o.id).hints.mapping == MappingHint::Interleaved)
            .count();
        assert_eq!(interleaved, 4, "all copies mapped interleaved");
        // exactly one sibling carries the prefetch hint
        let carriers = loads
            .iter()
            .filter(|o| s.placement(o.id).hints.prefetch != PrefetchHint::None)
            .count();
        assert_eq!(carriers, 1, "redundant prefetches avoided");
    }

    #[test]
    fn cross_tile_siblings_fall_back_to_linear_mapping() {
        use vliw_machine::InterconnectConfig;

        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let u = vliw_ir::unroll(&l, 4);

        // Flat network: the unrolled good-stride group interleaves.
        let flat = MachineConfig::micro2003();
        let mut s = run(&u, &flat, l0_mode()).unwrap();
        assign_hints(&mut s, &flat);
        let interleaved = |s: &crate::schedule::Schedule, l: &vliw_ir::LoopNest| {
            l.ops
                .iter()
                .filter(|o| o.is_load())
                .filter(|o| s.placement(o.id).hints.mapping == MappingHint::Interleaved)
                .count()
        };
        assert_eq!(interleaved(&s, &u), 4);

        // Hierarchical network with 2-cluster tiles: the 4 siblings span
        // two tiles, so the distance-aware assignment prefers near-bank
        // linear fills.
        let tiled = flat.with_interconnect(InterconnectConfig::hierarchical(2, 1, 2));
        let mut s = run(&u, &tiled, l0_mode()).unwrap();
        assign_hints(&mut s, &tiled);
        assert_eq!(interleaved(&s, &u), 0, "cross-tile deals are demoted");
        // the loads still use the L0 buffers, just with linear mapping
        let l0_loads = u
            .ops
            .iter()
            .filter(|o| o.is_load())
            .filter(|o| s.placement(o.id).hints.access.uses_l0())
            .count();
        assert_eq!(l0_loads, 4);
    }

    #[test]
    fn distant_mesh_siblings_fall_back_to_linear_mapping() {
        use vliw_machine::InterconnectConfig;

        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let u = vliw_ir::unroll(&l, 4);
        let interleaved = |s: &crate::schedule::Schedule, l: &vliw_ir::LoopNest| {
            l.ops
                .iter()
                .filter(|o| o.is_load())
                .filter(|o| s.placement(o.id).hints.mapping == MappingHint::Interleaved)
                .count()
        };

        // On a 4-cluster machine the mesh grid is 2x2: every pair of
        // clusters is within 2 hops, so the interleaved deal survives.
        let near = MachineConfig::micro2003().with_interconnect(InterconnectConfig::mesh(1, 4));
        let mut s = run(&u, &near, l0_mode()).unwrap();
        assign_hints(&mut s, &near);
        assert_eq!(interleaved(&s, &u), 4, "2x2 mesh stays near");

        // Force the 4 siblings far apart: 16 clusters, unroll 4 spreads
        // them along a row/column of the 4x4 grid, but the pairwise check
        // only demotes when some pair exceeds the diameter-derived
        // radius (3 hops on a 4x4 grid) — verified through
        // the predicate directly to keep the test placement-independent.
        let wide = {
            let mut cfg =
                MachineConfig::micro2003().with_interconnect(InterconnectConfig::mesh(4, 1));
            cfg.clusters = 16;
            cfg.l1.block_bytes = 128;
            cfg.l1.size_bytes = 32 * 1024;
            cfg
        };
        let corners: HashSet<ClusterId> = [0usize, 3, 12, 15]
            .iter()
            .map(|&i| ClusterId::new(i))
            .collect();
        assert!(
            !siblings_near(&wide, &corners),
            "grid corners are 6 hops apart"
        );
        let row: HashSet<ClusterId> = [0usize, 1, 4, 5]
            .iter()
            .map(|&i| ClusterId::new(i))
            .collect();
        assert!(siblings_near(&wide, &row), "a 2x2 quad is near");
    }

    #[test]
    fn store_in_mixed_set_updates_local_copy() {
        let l = LoopBuilder::new("slp")
            .trip_count(64)
            .store_load_pair(4)
            .build();
        let cfg = MachineConfig::micro2003();
        let mut s = run(&l, &cfg, l0_mode()).unwrap();
        assign_hints(&mut s, &cfg);
        let store = l.ops.iter().find(|o| o.is_store()).unwrap();
        let any_l0_load = s
            .placements
            .iter()
            .any(|p| l.op(p.op).is_load() && p.assumed_latency == 1);
        if any_l0_load {
            assert_eq!(
                s.placement(store.id).hints.access,
                AccessHint::ParAccess,
                "store must keep the local L0 copy coherent"
            );
        }
    }

    #[test]
    fn seq_access_requires_free_next_slot() {
        // memory-saturated loop: every mem slot busy, so no load can take
        // SEQ_ACCESS (paper §3.2 constraint)
        let l = LoopBuilder::new("fir8").trip_count(64).fir(8, 2).build();
        let cfg = MachineConfig::micro2003();
        let mut s = run(&l, &cfg, l0_mode()).unwrap();
        assign_hints(&mut s, &cfg);
        let ii = s.ii() as i64;
        let occ = mem_slot_occupancy(&s);
        for p in &s.placements {
            let o = s.loop_.op(p.op);
            if o.is_load() && p.hints.access == AccessHint::SeqAccess {
                let next = (p.t + 1).rem_euclid(ii);
                assert_eq!(
                    occ.get(&(p.cluster.index(), next)).copied().unwrap_or(0),
                    0,
                    "SEQ_ACCESS load at t={} with busy next slot",
                    p.t
                );
            }
        }
    }
}
