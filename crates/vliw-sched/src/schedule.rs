//! Scheduler output: the modulo schedule consumed by the simulator.

use crate::engine::ScheduleError;
use crate::Arch;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use vliw_ir::{LoopNest, OpId};
use vliw_machine::{ClusterId, InterconnectConfig, MachineConfig, MemHints};

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
/// the [backend](crate::backend::BackendKind) that produced the schedule.
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

/// A complete modulo schedule for one loop, together with the target it
/// was compiled for.
///
/// Each load carries the latency the compiler assumed and each op a
/// cluster and an access hint, so a schedule only has meaning on its own
/// target: the [`Arch`] and the full [`MachineConfig`] the compile
/// driver was given. Both are recorded here and cannot be changed, so the
/// simulator reads them instead of trusting its caller. The only ways to
/// obtain a schedule are [`CompileRequest::compile`](crate::CompileRequest::compile)
/// (and its variants) and
/// [`CompileRequest::instantiate`](crate::CompileRequest::instantiate);
/// [`Schedule::on_network`] is the one checked re-target.
#[derive(Debug, Clone, Serialize)]
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
    /// Architecture the schedule was compiled for.
    arch: Arch,
    /// The full machine the schedule was compiled for (the caller's
    /// machine, with its L0 buffers even where the scheduler saw a view
    /// without them).
    machine: MachineConfig,
}

impl Schedule {
    /// Creates a schedule; computes the stage count from placements. The
    /// target is a placeholder until the compile driver stamps the real
    /// one ([`Schedule::set_target`]).
    pub(crate) fn new(
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
            arch: Arch::Baseline,
            machine: MachineConfig::micro2003(),
        }
    }

    /// Records the target the compile driver compiled for.
    pub(crate) fn set_target(&mut self, arch: Arch, machine: &MachineConfig) {
        self.arch = arch;
        self.machine = machine.clone();
    }

    /// The architecture this schedule was compiled for.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The machine this schedule was compiled for.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The machine view this schedule was built (and is validated)
    /// against: its full machine for the L0 target,
    /// [`MachineConfig::without_l0`] for everything else.
    pub(crate) fn scheduling_view(&self) -> Cow<'_, MachineConfig> {
        if self.arch.uses_l0() {
            Cow::Borrowed(&self.machine)
        } else {
            Cow::Owned(self.machine.without_l0())
        }
    }

    /// The same schedule on the same machine with its cluster ↔ bank
    /// network replaced by `network`.
    ///
    /// The network is the one part of the machine a schedule's legality
    /// does not depend on (placement reads it only as a cost), so this is
    /// the one re-target that needs no recompile; any other change of
    /// machine means compiling again.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::BadConfig`] when the machine with `network` fails
    /// [`MachineConfig::validate`].
    pub fn on_network(&self, network: InterconnectConfig) -> Result<Schedule, ScheduleError> {
        let machine = self.machine.with_interconnect(network);
        machine.validate().map_err(|e| {
            ScheduleError::BadConfig(format!(
                "schedule for '{}' cannot move onto network {network}: {e}",
                self.loop_.name
            ))
        })?;
        Ok(Schedule {
            machine,
            ..self.clone()
        })
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
        self.compute_cycles_at(self.loop_.trip_count)
    }

    /// [`compute_cycles_per_visit`](Self::compute_cycles_per_visit) at
    /// `trip_count` iterations per visit instead of the loop's own.
    pub(crate) fn compute_cycles_at(&self, trip_count: u64) -> u64 {
        let trip = trip_count.max(1);
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
    /// * `cluster-range` — every placement, prefetch and PSR replica
    ///   executes in a cluster the machine has;
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
    pub fn validate(&self, cfg: &MachineConfig) -> Result<(), String> {
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
            check_cluster(name, "op", p.op, p.cluster, cfg)?;
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
            check_cluster(name, "prefetch for op", p.for_op, p.cluster, cfg)?;
            let slot = p.t.rem_euclid(self.ii as i64) as usize;
            *fu_use.entry((slot, p.cluster.index(), 1)).or_insert(0) += 1;
        }
        for r in &self.replicas {
            check_cluster(name, "replica of op", r.for_op, r.cluster, cfg)?;
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

/// The `cluster-range` invariant for one slot of the schedule.
fn check_cluster(
    name: &str,
    what: &str,
    op: OpId,
    cluster: ClusterId,
    cfg: &MachineConfig,
) -> Result<(), String> {
    if cluster.index() < cfg.clusters {
        return Ok(());
    }
    Err(format!(
        "cluster-range: loop '{name}' {what} {op}: cluster {} on a {}-cluster machine",
        cluster.index(),
        cfg.clusters
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileRequest;
    use vliw_ir::LoopBuilder;

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
    fn validate_catches_prefetches_and_replicas_in_missing_clusters() {
        // (Placements are covered by vliw-verify's negative suite.)
        let (s, cfg) = sample();
        let missing = ClusterId::new(cfg.clusters);
        let op = s.placements[0].op;
        let mut with_prefetch = s.clone();
        with_prefetch.prefetches.push(PrefetchSlot {
            for_op: op,
            cluster: missing,
            t: 0,
            lookahead: 1,
        });
        let mut with_replica = s.clone();
        with_replica.replicas.push(ReplicaSlot {
            for_op: op,
            cluster: missing,
            t: 0,
        });
        for bad in [with_prefetch, with_replica] {
            let err = bad.validate(&cfg).unwrap_err();
            assert!(err.starts_with("cluster-range:"), "{err}");
        }
    }

    #[test]
    fn the_driver_stamps_the_callers_machine() {
        let (s, cfg) = sample();
        assert_eq!(s.arch(), Arch::L0);
        assert_eq!(s.machine(), &cfg);
        let l = LoopBuilder::new("sample").trip_count(64).fir(4, 2).build();
        let base = CompileRequest::new(Arch::Baseline)
            .compile(&l, &cfg)
            .unwrap();
        assert_eq!(base.arch(), Arch::Baseline);
        // The full machine, not the scheduling view without L0.
        assert_eq!(base.machine(), &cfg);
    }

    #[test]
    fn on_network_swaps_only_the_network() {
        let (s, cfg) = sample();
        let mesh = InterconnectConfig::mesh(1, 1);
        let moved = s.on_network(mesh).unwrap();
        assert_eq!(moved.machine(), &cfg.with_interconnect(mesh));
        assert_eq!(moved.arch(), s.arch());
        assert_eq!(moved.placements, s.placements);
        let mut bad = mesh;
        bad.banks = 0;
        let err = s.on_network(bad).unwrap_err();
        assert!(matches!(err, ScheduleError::BadConfig(_)), "{err}");
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
