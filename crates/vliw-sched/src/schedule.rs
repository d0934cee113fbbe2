//! Scheduler output: the modulo schedule consumed by the simulator.

use serde::{Deserialize, Serialize};
use vliw_ir::{LoopNest, OpId};
use vliw_machine::{ClusterId, MemHints};

/// Placement of one operation in the modulo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The operation.
    pub op: OpId,
    /// Cluster it executes in.
    pub cluster: ClusterId,
    /// Flat start time (0 ≤ t < stage_count·II); instance `i` of the op
    /// issues at `i·II + t`.
    pub t: i64,
    /// Latency the scheduler assumed for this op (for memory ops: the L0
    /// or the L1 latency; §4.3 footnote 1).
    pub assumed_latency: u32,
    /// Hints attached to the instruction (meaningful for loads/stores).
    pub hints: MemHints,
    /// Cycles until the earliest scheduled consumer needs the value
    /// (`None` for ops whose value is never consumed — they can never
    /// stall the pipeline).
    pub use_distance: Option<u32>,
}

/// An explicit software prefetch inserted by step 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchSlot {
    /// The load this prefetch covers (the prefetch reuses its address
    /// stream, `lookahead` iterations ahead).
    pub for_op: OpId,
    /// Cluster (same as the covered load — prefetches fill the local
    /// buffer).
    pub cluster: ClusterId,
    /// Flat issue time within the kernel.
    pub t: i64,
    /// How many iterations ahead the prefetch runs.
    pub lookahead: u32,
}

/// A non-primary PSR store instance (§4.1): invalidates its local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaSlot {
    /// The primary store this replica mirrors.
    pub for_op: OpId,
    /// Cluster the replica executes in.
    pub cluster: ClusterId,
    /// Flat issue time.
    pub t: i64,
}

/// An inter-cluster register copy inserted by the cluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopySlot {
    /// Producer whose value is moved.
    pub from_op: OpId,
    /// Destination cluster.
    pub to_cluster: ClusterId,
    /// Flat issue time (arrives `bus_latency` later).
    pub t: i64,
}

/// How a schedule's achieved II relates to the provable minimum — set by
/// the [`SchedulerBackend`](crate::backend::SchedulerBackend) that
/// produced the schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum IiProof {
    /// No optimality claim: the II came from a heuristic placement order
    /// (SMS above the MII).
    #[default]
    Heuristic,
    /// The achieved II is provably minimal under the backend's latency
    /// model: it equals the MII, or every smaller II was refuted by an
    /// exhaustive search.
    Optimal,
    /// The exact search exhausted its node budget before settling the
    /// proof — the II is an upper bound on the backend's optimum.
    Truncated,
}

/// A complete modulo schedule for one loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schedule {
    /// The (possibly unrolled/specialized) loop this schedule executes.
    pub loop_: LoopNest,
    /// Initiation interval.
    ii: u32,
    /// Number of overlapped stages.
    stage_count: u32,
    /// `max(ResMII, RecMII)` under the optimistic latency assignment the
    /// backend searched from — the floor no legal II can beat. `1` (the
    /// trivial bound) until a backend records the real value.
    pub mii: u32,
    /// Whether [`ii`](Self::ii) is provably minimal (see [`IiProof`]).
    pub ii_proof: IiProof,
    /// Placements indexed by op (same order as `loop_.ops`).
    pub placements: Vec<Placement>,
    /// Inter-cluster copies.
    pub copies: Vec<CopySlot>,
    /// Explicit prefetches (step 5).
    pub prefetches: Vec<PrefetchSlot>,
    /// PSR replica stores.
    pub replicas: Vec<ReplicaSlot>,
    /// Whether the L0 buffers are flushed when the loop exits (inter-loop
    /// coherence, §4.1).
    pub flush_on_exit: bool,
    /// Peak register pressure estimate per cluster.
    pub max_live: Vec<u32>,
}

impl Schedule {
    /// Creates a schedule; computes the stage count from placements.
    pub fn new(
        loop_: LoopNest,
        ii: u32,
        placements: Vec<Placement>,
        copies: Vec<CopySlot>,
    ) -> Self {
        let horizon = placements
            .iter()
            .map(|p| p.t + p.assumed_latency as i64)
            .chain(copies.iter().map(|c| c.t + 2))
            .max()
            .unwrap_or(0)
            .max(1);
        let stage_count = (horizon as u64).div_ceil(ii as u64).max(1) as u32;
        Schedule {
            loop_,
            ii,
            stage_count,
            mii: 1,
            ii_proof: IiProof::default(),
            placements,
            copies,
            prefetches: Vec::new(),
            replicas: Vec::new(),
            flush_on_exit: false,
            max_live: Vec::new(),
        }
    }

    /// The initiation interval: cycles between consecutive iterations.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The stage count: how many iterations overlap in the kernel.
    pub fn stage_count(&self) -> u32 {
        self.stage_count
    }

    /// Placement of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not part of this schedule.
    pub fn placement(&self, op: OpId) -> &Placement {
        &self.placements[op.index()]
    }

    /// Cycles one visit of the loop takes without stalls:
    /// `(trip − 1)·II + SC·II` (kernel plus prologue/epilogue drain).
    pub fn compute_cycles_per_visit(&self) -> u64 {
        let trip = self.loop_.trip_count.max(1);
        (trip - 1) * self.ii as u64 + (self.stage_count as u64) * self.ii as u64
    }

    /// Number of memory ops scheduled with the L0 latency (diagnostics).
    pub fn l0_scheduled_loads(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| self.loop_.op(p.op).is_load() && p.hints.access.uses_l0())
            .count()
    }

    /// Validates schedule legality — the single entry point both
    /// backends debug-assert on every emitted schedule and the `verify`
    /// pass hard-checks under
    /// [`VerifyLevel::Full`](crate::passes::VerifyLevel::Full):
    ///
    /// * `placement-count` / `unknown-op` — every op placed exactly once;
    /// * `fu-capacity` — per-(slot, cluster, kind) FU occupancy (with
    ///   prefetches and PSR replicas on the memory units) vs the MRT caps;
    /// * `bus-capacity` — inter-cluster copies per slot vs the bus count;
    /// * `copy-route` — every copy names a known producer and a real,
    ///   *different* cluster;
    /// * `dep-issue-cycle` — every dependence edge's issue-cycle
    ///   inequality under the II, routed through its copy for
    ///   cross-cluster register edges;
    /// * `ii-vs-mii` — the achieved II never beats the recorded floor.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, tagged with its name and
    /// naming the loop and offending op.
    pub fn validate(&self, cfg: &vliw_machine::MachineConfig) -> Result<(), String> {
        use std::collections::HashMap;
        let name = &self.loop_.name;
        if self.placements.len() != self.loop_.ops.len() {
            return Err(format!(
                "placement-count: loop '{name}': {} placements for {} ops",
                self.placements.len(),
                self.loop_.ops.len()
            ));
        }
        // FU capacity per slot.
        let mut fu_use: HashMap<(usize, usize, u8), usize> = HashMap::new();
        for p in &self.placements {
            if p.op.index() >= self.loop_.ops.len() {
                return Err(format!(
                    "unknown-op: loop '{name}': placement for op {}",
                    p.op
                ));
            }
            let op = self.loop_.op(p.op);
            if let Some(kind) = op.kind.fu_kind() {
                let slot = p.t.rem_euclid(self.ii as i64) as usize;
                let k = match kind {
                    vliw_machine::FuKind::Int => 0u8,
                    vliw_machine::FuKind::Mem => 1,
                    vliw_machine::FuKind::Fp => 2,
                };
                *fu_use.entry((slot, p.cluster.index(), k)).or_insert(0) += 1;
            }
        }
        for p in &self.prefetches {
            let slot = p.t.rem_euclid(self.ii as i64) as usize;
            *fu_use.entry((slot, p.cluster.index(), 1)).or_insert(0) += 1;
        }
        for r in &self.replicas {
            let slot = r.t.rem_euclid(self.ii as i64) as usize;
            *fu_use.entry((slot, r.cluster.index(), 1)).or_insert(0) += 1;
        }
        // Sorted so the *same* violation surfaces first on every run —
        // these strings reach serialized service telemetry.
        let mut sorted_fu: Vec<_> = fu_use.into_iter().collect();
        sorted_fu.sort_unstable();
        for ((slot, cluster, kind), used) in sorted_fu {
            let cap = match kind {
                0 => cfg.fus.int,
                1 => cfg.fus.mem,
                _ => cfg.fus.fp,
            };
            if used > cap {
                return Err(format!(
                    "fu-capacity: loop '{name}': slot {slot} cluster {cluster} FU kind {kind}: {used} > {cap}"
                ));
            }
        }
        // Bus capacity.
        let mut bus_use: HashMap<usize, usize> = HashMap::new();
        for c in &self.copies {
            let slot = c.t.rem_euclid(self.ii as i64) as usize;
            *bus_use.entry(slot).or_insert(0) += 1;
        }
        let mut sorted_bus: Vec<_> = bus_use.into_iter().collect();
        sorted_bus.sort_unstable();
        for (slot, used) in sorted_bus {
            if used > cfg.buses.count {
                return Err(format!(
                    "bus-capacity: loop '{name}': bus slot {slot}: {used} > {}",
                    cfg.buses.count
                ));
            }
        }
        // Copy routing: a known producer, a real cluster, and never the
        // producer's own (a same-cluster copy would burn a bus slot for
        // a value already local).
        for c in &self.copies {
            if c.from_op.index() >= self.loop_.ops.len() {
                return Err(format!(
                    "copy-route: loop '{name}': copy from unknown op {}",
                    c.from_op
                ));
            }
            if c.to_cluster.index() >= cfg.clusters {
                return Err(format!(
                    "copy-route: loop '{name}' op {}: copy targets nonexistent cluster {}",
                    c.from_op,
                    c.to_cluster.index()
                ));
            }
            if self.placements[c.from_op.index()].cluster == c.to_cluster {
                return Err(format!(
                    "copy-route: loop '{name}' op {}: copy targets the producer's own cluster {}",
                    c.from_op,
                    c.to_cluster.index()
                ));
            }
        }
        // Dependence issue-cycle inequalities under the II. Mirrors the
        // engine's placement window: memory edges carry one ordering
        // cycle; register/reduction edges the producer's assumed
        // latency; cross-cluster register edges route through a copy
        // (producer-ready before the copy, copy arrived before the use).
        let ii = self.ii as i64;
        let bus_lat = cfg.buses.latency as i64;
        for e in &self.loop_.edges {
            if e.src == e.dst {
                continue; // self recurrence: holds whenever lat <= ii*dist
            }
            let src = self.placement(e.src);
            let dst = self.placement(e.dst);
            let use_t = dst.t + ii * e.distance as i64;
            if e.kind.is_mem() || src.cluster == dst.cluster {
                let elat = if e.kind.is_mem() {
                    1
                } else {
                    src.assumed_latency as i64
                };
                if use_t < src.t + elat {
                    return Err(format!(
                        "dep-issue-cycle: loop '{name}' op {} -> op {}: consumer reads at \
                         {use_t} (t {} + II*{}) before the producer's result at {}",
                        e.src,
                        e.dst,
                        dst.t,
                        e.distance,
                        src.t + elat
                    ));
                }
            } else {
                let Some(copy) = self
                    .copies
                    .iter()
                    .find(|c| c.from_op == e.src && c.to_cluster == dst.cluster)
                else {
                    return Err(format!(
                        "copy-route: loop '{name}' op {} -> op {}: cross-cluster register \
                         edge has no copy into cluster {}",
                        e.src,
                        e.dst,
                        dst.cluster.index()
                    ));
                };
                if copy.t < src.t + src.assumed_latency as i64 {
                    return Err(format!(
                        "dep-issue-cycle: loop '{name}' op {}: copy issues at {} before \
                         the producer's result at {}",
                        e.src,
                        copy.t,
                        src.t + src.assumed_latency as i64
                    ));
                }
                if use_t < copy.t + bus_lat {
                    return Err(format!(
                        "dep-issue-cycle: loop '{name}' op {} -> op {}: consumer reads at \
                         {use_t} before the copy arrives at {}",
                        e.src,
                        e.dst,
                        copy.t + bus_lat
                    ));
                }
            }
        }
        // The achieved II can never beat the recorded floor.
        if self.ii < self.mii {
            return Err(format!(
                "ii-vs-mii: loop '{name}': II {} below MII {}",
                self.ii, self.mii
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arch, CompileRequest};
    use vliw_ir::LoopBuilder;
    use vliw_machine::MachineConfig;

    fn sample() -> (Schedule, MachineConfig) {
        let cfg = MachineConfig::micro2003();
        let l = LoopBuilder::new("sample").trip_count(64).fir(4, 2).build();
        (
            CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap(),
            cfg,
        )
    }

    #[test]
    fn schedules_are_normalized_to_start_at_zero() {
        let (s, _) = sample();
        let min_t = s.placements.iter().map(|p| p.t).min().unwrap();
        assert!(min_t >= 0, "flat times must be normalized, got {min_t}");
        assert!(
            s.placements.iter().any(|p| p.t < s.ii() as i64),
            "stage 0 non-empty"
        );
    }

    #[test]
    fn compute_cycles_match_modulo_arithmetic() {
        let (s, _) = sample();
        let expect =
            (s.loop_.trip_count - 1) * s.ii() as u64 + s.stage_count() as u64 * s.ii() as u64;
        assert_eq!(s.compute_cycles_per_visit(), expect);
    }

    #[test]
    fn validate_catches_oversubscribed_fu() {
        let (mut s, cfg) = sample();
        // clone a memory placement onto an occupied slot of the same
        // cluster: must fail validation
        let mem_p = *s
            .placements
            .iter()
            .find(|p| s.loop_.op(p.op).kind.is_mem())
            .expect("has memory ops");
        for q in s.placements.iter_mut() {
            if q.op != mem_p.op && s.loop_.ops[q.op.index()].kind.is_mem() {
                q.cluster = mem_p.cluster;
                q.t = mem_p.t;
                break;
            }
        }
        assert!(s.validate(&cfg).is_err());
    }

    #[test]
    fn validate_catches_bus_oversubscription() {
        let (mut s, cfg) = sample();
        for i in 0..(cfg.buses.count + 1) {
            s.copies.push(CopySlot {
                from_op: s.placements[0].op,
                to_cluster: vliw_machine::ClusterId::new(i % cfg.clusters),
                t: 0,
            });
        }
        assert!(s.validate(&cfg).is_err());
    }

    #[test]
    fn l0_scheduled_loads_counts_hinted_loads() {
        let (s, _) = sample();
        let by_hand = s
            .placements
            .iter()
            .filter(|p| s.loop_.op(p.op).is_load() && p.hints.access.uses_l0())
            .count();
        assert_eq!(s.l0_scheduled_loads(), by_hand);
    }
}
