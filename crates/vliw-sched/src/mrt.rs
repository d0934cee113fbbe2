//! The modulo reservation table (MRT).
//!
//! A modulo schedule reuses the same resources every II cycles, so
//! resource bookkeeping folds the flat schedule time `t` to slot
//! `t mod II`. The MRT tracks, per slot: one entry per functional unit per
//! cluster, and the shared inter-cluster bus slots.

use vliw_machine::{ClusterId, FuKind, MachineConfig};

/// Reservation table for one candidate II.
#[derive(Debug, Clone)]
pub struct ModuloReservationTable {
    ii: u32,

    /// `fu[slot · clusters + cluster][kind]` = used units of that kind.
    fu: Vec<[usize; 3]>,
    clusters: usize,
    fu_limit: [usize; 3],
    /// `used[cluster]` = reserved units of every kind over all slots
    /// (the sum of `fu[..][cluster]`, kept by reserve and release).
    used: Vec<usize>,
    /// `bus[slot]` = used buses.
    bus: Vec<usize>,
    bus_limit: usize,
}

fn kind_index(kind: FuKind) -> usize {
    match kind {
        FuKind::Int => 0,
        FuKind::Mem => 1,
        FuKind::Fp => 2,
    }
}

impl ModuloReservationTable {
    /// Creates an empty table for the given machine and II.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn new(cfg: &MachineConfig, ii: u32) -> Self {
        assert!(ii > 0, "II must be positive");
        ModuloReservationTable {
            ii,

            fu: vec![[0; 3]; ii as usize * cfg.clusters],
            clusters: cfg.clusters,
            fu_limit: [cfg.fus.int, cfg.fus.mem, cfg.fus.fp],
            used: vec![0; cfg.clusters],
            bus: vec![0; ii as usize],
            bus_limit: cfg.buses.count,
        }
    }

    /// The table's initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    fn slot(&self, t: i64) -> usize {
        (t.rem_euclid(self.ii as i64)) as usize
    }

    /// The FU counters of `cluster` at flat time `t`.
    fn units(&self, cluster: ClusterId, t: i64) -> &[usize; 3] {
        &self.fu[self.slot(t) * self.clusters + cluster.index()]
    }

    fn units_mut(&mut self, cluster: ClusterId, t: i64) -> &mut [usize; 3] {
        let i = self.slot(t) * self.clusters + cluster.index();
        &mut self.fu[i]
    }

    /// `true` if a unit of `kind` is free in `cluster` at flat time `t`.
    pub fn fu_free(&self, cluster: ClusterId, kind: FuKind, t: i64) -> bool {
        self.units(cluster, t)[kind_index(kind)] < self.fu_limit[kind_index(kind)]
    }

    /// Reserves a unit of `kind` in `cluster` at flat time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already full — callers must check
    /// [`fu_free`](Self::fu_free) first.
    pub fn reserve_fu(&mut self, cluster: ClusterId, kind: FuKind, t: i64) {
        assert!(self.fu_free(cluster, kind, t), "FU slot oversubscribed");
        self.units_mut(cluster, t)[kind_index(kind)] += 1;
        self.used[cluster.index()] += 1;
    }

    /// Releases a previously reserved unit (used when an op is ejected).
    pub fn release_fu(&mut self, cluster: ClusterId, kind: FuKind, t: i64) {
        let c = &mut self.units_mut(cluster, t)[kind_index(kind)];
        assert!(*c > 0, "releasing an empty FU slot");
        *c -= 1;
        self.used[cluster.index()] -= 1;
    }

    /// `true` if an inter-cluster bus is free at flat time `t`.
    pub fn bus_free(&self, t: i64) -> bool {
        self.bus[self.slot(t)] < self.bus_limit
    }

    /// Reserves a bus at flat time `t`.
    ///
    /// # Panics
    ///
    /// Panics if all buses are busy in that slot.
    pub fn reserve_bus(&mut self, t: i64) {
        assert!(self.bus_free(t), "bus slot oversubscribed");
        let s = self.slot(t);
        self.bus[s] += 1;
    }

    /// The earliest flat time in `[lo, hi]` with a free bus. One II of
    /// candidates is enough: slots repeat modulo II.
    pub fn find_bus_slot(&self, lo: i64, hi: i64) -> Option<i64> {
        if lo > hi {
            return None;
        }
        let span = (hi - lo).min(self.ii as i64 - 1);
        (lo..=lo + span).find(|&t| self.bus_free(t))
    }

    /// Releases a bus reservation.
    pub fn release_bus(&mut self, t: i64) {
        let s = self.slot(t);
        assert!(self.bus[s] > 0, "releasing an empty bus slot");
        self.bus[s] -= 1;
    }

    /// Reserved functional-unit slots of every kind (int, memory, FP)
    /// in `cluster` across all II slots (for workload-balance
    /// heuristics). O(1): reserve and release keep a per-cluster count.
    pub fn used_in_cluster(&self, cluster: ClusterId) -> usize {
        self.used[cluster.index()]
    }

    /// `true` if a *memory* unit is in use in `cluster` at flat time `t`
    /// (the SEQ_ACCESS legality test of §3.2: the miss request needs the
    /// cluster↔L1 bus free in the next cycle).
    pub fn mem_busy(&self, cluster: ClusterId, t: i64) -> bool {
        self.units(cluster, t)[kind_index(FuKind::Mem)] > 0
    }

    /// Total free memory slots in `cluster` over one II (for the explicit
    /// prefetch insertion of step 5).
    pub fn free_mem_slots(&self, cluster: ClusterId) -> usize {
        (0..self.ii as i64)
            .filter(|&t| self.fu_free(cluster, FuKind::Mem, t))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    #[test]
    fn slots_fold_modulo_ii() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 4);
        let c = ClusterId::new(0);
        mrt.reserve_fu(c, FuKind::Int, 2);
        assert!(!mrt.fu_free(c, FuKind::Int, 2));
        assert!(!mrt.fu_free(c, FuKind::Int, 6)); // 6 mod 4 == 2
        assert!(mrt.fu_free(c, FuKind::Int, 3));
        // another cluster is unaffected
        assert!(mrt.fu_free(ClusterId::new(1), FuKind::Int, 2));
    }

    #[test]
    fn one_mem_unit_per_cluster() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 2);
        let c = ClusterId::new(1);
        assert!(mrt.fu_free(c, FuKind::Mem, 0));
        mrt.reserve_fu(c, FuKind::Mem, 0);
        assert!(!mrt.fu_free(c, FuKind::Mem, 0));
        assert!(mrt.fu_free(c, FuKind::Mem, 1));
    }

    #[test]
    fn four_buses_per_slot() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 1);
        for _ in 0..4 {
            assert!(mrt.bus_free(0));
            mrt.reserve_bus(0);
        }
        assert!(!mrt.bus_free(0));
        mrt.release_bus(0);
        assert!(mrt.bus_free(0));
    }

    #[test]
    fn bus_slot_search_is_earliest_and_bounded_by_one_ii() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 3);
        for _ in 0..4 {
            mrt.reserve_bus(1);
        }
        assert_eq!(mrt.find_bus_slot(1, 10), Some(2), "slot 1 is full");
        assert_eq!(mrt.find_bus_slot(4, 4), None, "4 folds onto full slot 1");
        assert_eq!(mrt.find_bus_slot(5, 4), None, "empty window");
        for t in [0, 2] {
            for _ in 0..4 {
                mrt.reserve_bus(t);
            }
        }
        assert_eq!(mrt.find_bus_slot(0, 100), None, "every slot is full");
    }

    #[test]
    fn negative_times_fold_correctly() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 4);
        let c = ClusterId::new(0);
        mrt.reserve_fu(c, FuKind::Fp, -1); // ≡ slot 3
        assert!(!mrt.fu_free(c, FuKind::Fp, 3));
    }

    #[test]
    fn mem_busy_tracks_memory_unit() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 4);
        let c = ClusterId::new(2);
        assert!(!mrt.mem_busy(c, 1));
        mrt.reserve_fu(c, FuKind::Mem, 1);
        assert!(mrt.mem_busy(c, 1));
        assert!(!mrt.mem_busy(c, 2));
    }

    #[test]
    fn free_mem_slots_counts_remaining() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 4);
        let c = ClusterId::new(0);
        assert_eq!(mrt.free_mem_slots(c), 4);
        mrt.reserve_fu(c, FuKind::Mem, 0);
        mrt.reserve_fu(c, FuKind::Mem, 2);
        assert_eq!(mrt.free_mem_slots(c), 2);
    }

    #[test]
    fn used_in_cluster_matches_a_full_recount() {
        // Random interleavings of reserve and release on a 4-cluster
        // machine: the O(1) counter must equal a recount of every slot.
        let c = cfg();
        let kinds = [FuKind::Int, FuKind::Mem, FuKind::Fp];
        vliw_testutil::cases(64, |case, rng| {
            let ii = rng.range(1, 9) as u32;
            let mut mrt = ModuloReservationTable::new(&c, ii);
            let mut held: Vec<(ClusterId, FuKind, i64)> = Vec::new();
            for _ in 0..rng.range_usize(1, 200) {
                if !held.is_empty() && rng.range(0, 3) == 0 {
                    let (cl, k, t) = held.swap_remove(rng.range_usize(0, held.len()));
                    mrt.release_fu(cl, k, t);
                } else {
                    let cl = ClusterId::new(rng.range_usize(0, c.clusters));
                    let k = rng.pick(&kinds);
                    let t = rng.range(0, 64) as i64 - 32;
                    if mrt.fu_free(cl, k, t) {
                        mrt.reserve_fu(cl, k, t);
                        held.push((cl, k, t));
                    }
                }
                for cl in ClusterId::all(c.clusters) {
                    let recount: usize = (0..ii as i64)
                        .map(|t| mrt.units(cl, t).iter().sum::<usize>())
                        .sum();
                    assert_eq!(mrt.used_in_cluster(cl), recount, "case {case}, {cl:?}");
                }
            }
        });
    }

    #[test]
    fn release_restores_capacity() {
        let mut mrt = ModuloReservationTable::new(&cfg(), 2);
        let c = ClusterId::new(3);
        mrt.reserve_fu(c, FuKind::Int, 0);
        mrt.release_fu(c, FuKind::Int, 0);
        assert!(mrt.fu_free(c, FuKind::Int, 0));
    }
}
