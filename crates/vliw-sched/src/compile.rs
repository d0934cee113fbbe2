//! End-to-end compilation for the four target architectures.
//!
//! Every compile runs the fixed sequence of §4.3:
//!
//! 1. code specialization (drop always-false conservative dependences),
//! 2. unroll-factor selection (1 vs. N, by statically-estimated compute
//!    time — the same heuristic for every architecture so comparisons are
//!    not biased by unrolling, §5.1),
//! 3. cluster assignment + modulo scheduling
//!    (`BackendKind::schedule`: the SMS heuristic by default, or the
//!    exact search),
//! 4. hint assignment (L0 target only),
//! 5. explicit prefetch insertion for "other"-stride L0 loads,
//!    plus the inter-loop flush (`invalidate_buffer` on exit).
//!
//! It is reached through a [`CompileRequest`]: one builder that owns
//! every compilation knob (architecture, backend, marking, coherence,
//! specialization, unrolling) and is the only compile entry point. This
//! module holds the request and the per-step helpers; the straight-line
//! driver that sequences them is in [`crate::passes`].

use crate::backend::BackendKind;
use crate::coherence::CoherencePolicy;
use crate::engine::{AssignmentPolicy, Mode, ScheduleError};
use crate::hints::assign_hints;
use crate::mrt::ModuloReservationTable;
use crate::passes::VerifyLevel;
use crate::schedule::{PrefetchSlot, Schedule};
use serde::{Deserialize, Serialize};
use vliw_ir::{specialize, stride, LoopNest, StrideClass};
use vliw_machine::{FuKind, MachineConfig, Profile, WordInterleavedConfig};

pub use crate::engine::MarkPolicy;

/// Options for the L0-aware driver (ablation knobs of §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct L0Options {
    /// Candidate marking policy (selective vs. all-candidates).
    pub mark: MarkPolicy,
    /// Coherence policy for mixed memory-dependent sets.
    pub policy: CoherencePolicy,
    /// Run code specialization before scheduling (§4.1).
    pub specialize: bool,
}

impl Default for L0Options {
    fn default() -> Self {
        L0Options {
            mark: MarkPolicy::Selective,
            policy: CoherencePolicy::Auto,
            specialize: true,
        }
    }
}

/// Step 1's unroll-factor selection policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnrollPolicy {
    /// §4.3 step 1: schedule both flat and unrolled-by-N, keep the one
    /// with the cheaper statically-estimated compute time (the default).
    #[default]
    Auto,
    /// Always keep the loop flat (isolates the backend axis from the
    /// unrolling heuristic).
    Never,
}

/// A fully-resolved compilation request: architecture, scheduler backend
/// and every driver knob. Serializable, so experiment artifacts can record
/// exactly how each cell was compiled.
///
/// ```
/// use vliw_ir::LoopBuilder;
/// use vliw_machine::MachineConfig;
/// use vliw_sched::{Arch, BackendKind, CompileRequest};
///
/// let l = LoopBuilder::new("ew").trip_count(256).elementwise(2).build();
/// let cfg = MachineConfig::micro2003();
/// let sms = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
/// let exact = CompileRequest::new(Arch::L0)
///     .backend(BackendKind::Exact)
///     .compile(&l, &cfg)
///     .unwrap();
/// // The exact backend can only improve on the heuristic.
/// assert!(exact.ii() <= sms.ii());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompileRequest {
    /// Target architecture.
    pub arch: crate::Arch,
    /// Scheduler backend.
    pub backend: BackendKind,
    /// L0 driver options (only the L0 architecture reads them).
    pub opts: L0Options,
    /// Unroll-factor selection policy.
    pub unroll: UnrollPolicy,
    /// Cluster-assignment policy: distance-blind (the paper, default) or
    /// contention-aware (placement prefers clusters near each memory
    /// op's home bank on a non-flat interconnect).
    pub assignment: AssignmentPolicy,
    /// Profile harvested from a prior simulation run. When present, the
    /// [`cost`](crate::cost) functions weigh routes by its measured link
    /// stalls and bank queueing, and [`MarkPolicy::ProfileGuided`] reads
    /// its per-op stall attribution. `None` (the default) keeps
    /// compilation bit-exact with the static pipeline.
    pub profile: Option<Profile>,
    /// Static verification level the driver's `verify` pass runs under.
    pub verify: VerifyLevel,
}

impl CompileRequest {
    /// A request for `arch` with every knob at its default (SMS backend,
    /// selective marking, auto coherence, specialization on, auto unroll,
    /// distance-blind assignment, no profile).
    pub fn new(arch: crate::Arch) -> Self {
        CompileRequest {
            arch,
            backend: BackendKind::default(),
            opts: L0Options::default(),
            unroll: UnrollPolicy::default(),
            assignment: AssignmentPolicy::default(),
            profile: None,
            verify: VerifyLevel::default(),
        }
    }

    /// Selects the scheduler backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the cluster-assignment policy.
    #[must_use]
    pub fn assignment(mut self, assignment: AssignmentPolicy) -> Self {
        self.assignment = assignment;
        self
    }

    /// Sets the candidate-marking policy.
    #[must_use]
    pub fn mark(mut self, mark: MarkPolicy) -> Self {
        self.opts.mark = mark;
        self
    }

    /// Sets the coherence policy for mixed memory-dependent sets.
    #[must_use]
    pub fn coherence(mut self, policy: CoherencePolicy) -> Self {
        self.opts.policy = policy;
        self
    }

    /// Enables or disables code specialization (§4.1).
    #[must_use]
    pub fn specialize(mut self, on: bool) -> Self {
        self.opts.specialize = on;
        self
    }

    /// Sets the unroll-factor selection policy.
    #[must_use]
    pub fn unroll(mut self, unroll: UnrollPolicy) -> Self {
        self.unroll = unroll;
        self
    }

    /// Replaces the whole L0 option block.
    #[must_use]
    pub fn opts(mut self, opts: L0Options) -> Self {
        self.opts = opts;
        self
    }

    /// Attaches (or clears) the profile the [`cost`](crate::cost)
    /// functions read.
    #[must_use]
    pub fn profile(mut self, profile: Option<Profile>) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the static verification level the driver runs under.
    #[must_use]
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// The full profile-guided recompilation setup in one call: attach
    /// `profile`, mark hot-stalling refs first
    /// ([`MarkPolicy::ProfileGuided`]) and let placement read the
    /// observed costs ([`AssignmentPolicy::ContentionAware`] — a no-op
    /// on the flat network, where nothing is routed).
    #[must_use]
    pub fn profile_guided(self, profile: Profile) -> Self {
        self.profile(Some(profile))
            .mark(MarkPolicy::ProfileGuided)
            .assignment(AssignmentPolicy::ContentionAware)
    }

    /// Rejects a profile harvested on a different machine shape.
    ///
    /// A profile is only meaningful for the machine that produced it:
    /// node ids in its link loads and bank indices in its port loads
    /// would silently alias on a different grid.
    pub(crate) fn check_profile(&self, cfg: &MachineConfig) -> Result<(), ScheduleError> {
        if let Some(p) = &self.profile {
            if p.clusters != cfg.clusters || p.topology != cfg.interconnect.topology {
                return Err(ScheduleError::BadConfig(format!(
                    "profile was harvested on a {}-cluster {} machine but the target is a \
                     {}-cluster {} machine",
                    p.clusters, p.topology, cfg.clusters, cfg.interconnect.topology
                )));
            }
        }
        Ok(())
    }

    /// Lowers this request against one loop: specialization plus the
    /// per-architecture dispatch (machine view, scheduling mode, whether
    /// the L0 finishing tail runs). Shared by [`CompileRequest::compile`]
    /// and the symbolic template path, so both resolve a request
    /// identically.
    pub(crate) fn lower(
        &self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
    ) -> Result<Lowered, ScheduleError> {
        use crate::Arch;
        match self.arch {
            Arch::Baseline => {
                let cfg = cfg.without_l0();
                let mode = Mode::Base {
                    load_latency: cfg.l1.latency,
                };
                Ok(Lowered {
                    loop_: specialize(loop_),
                    cfg,
                    mode,
                    l0_tail: false,
                })
            }
            Arch::L0 => {
                if cfg.l0.is_none() {
                    return Err(ScheduleError::BadConfig(
                        "the L0 target needs an L0 configuration".into(),
                    ));
                }
                let lowered = if self.opts.specialize {
                    specialize(loop_)
                } else {
                    loop_.clone()
                };
                Ok(Lowered {
                    loop_: lowered,
                    cfg: cfg.clone(),
                    mode: Mode::L0 {
                        mark: self.opts.mark,
                        policy: self.opts.policy,
                    },
                    l0_tail: true,
                })
            }
            Arch::MultiVliw => Ok(Lowered {
                loop_: specialize(loop_),
                cfg: cfg.without_l0(),
                mode: Mode::Base {
                    load_latency: vliw_machine::MultiVliwConfig::micro2003().local_latency,
                },
                l0_tail: false,
            }),
            Arch::Interleaved1 | Arch::Interleaved2 => {
                let wi = WordInterleavedConfig::micro2003();
                Ok(Lowered {
                    loop_: specialize(loop_),
                    cfg: cfg.without_l0(),
                    mode: Mode::WordInterleaved {
                        owner_aware: self.arch == Arch::Interleaved2,
                        local_latency: wi.local_latency,
                        remote_latency: wi.remote_latency,
                        word_bytes: wi.word_bytes as u64,
                    },
                    l0_tail: false,
                })
            }
        }
    }

    /// Compiles one loop — the single arch×backend dispatch point (see
    /// [`crate::passes`] for the steps it runs).
    ///
    /// Architectures without L0 buffers are compiled against
    /// `cfg.without_l0()`, so callers always pass the full machine
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns the backend's error when the loop cannot be scheduled,
    /// wrapped as [`ScheduleError::InPass`] naming the failing stage.
    pub fn compile(
        &self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
    ) -> Result<Schedule, ScheduleError> {
        self.compile_with_stats(loop_, cfg).map(|(s, _)| s)
    }

    /// [`CompileRequest::compile`] for loops that are schedulable by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics when the loop cannot be scheduled — the benchmark suite's
    /// loops all are, so a failure is a harness bug. The message names the
    /// loop and the backend (via [`ScheduleError`]).
    pub fn compile_or_panic(&self, loop_: &LoopNest, cfg: &MachineConfig) -> Schedule {
        // `NoFeasibleIi` already names the loop and backend; `BadConfig`
        // does not, so the panic names the loop for both.
        self.compile(loop_, cfg)
            .unwrap_or_else(|e| panic!("{} ('{}'): {e}", self.arch.label(), loop_.name))
    }
}

/// The arch-resolved front half of one compilation, produced by
/// [`CompileRequest::lower`]: the specialized loop body, the machine
/// view the backend schedules against, the scheduling mode, and whether
/// the L0 finishing tail (steps 4–5) runs after scheduling.
pub(crate) struct Lowered {
    /// Loop body after (optional) specialization, before unrolling.
    pub(crate) loop_: LoopNest,
    /// Machine view the backend sees (`without_l0` for non-L0 arches).
    pub(crate) cfg: MachineConfig,
    /// Scheduling mode handed to the backend.
    pub(crate) mode: Mode,
    /// Run [`finish_l0`] on the winning schedule.
    pub(crate) l0_tail: bool,
}

/// Statically-estimated compute cost per *original* iteration — the
/// quantity step 1 minimizes when choosing the unroll factor — at
/// `trip_count` iterations per visit of `schedule`'s own loop.
fn cost_per_iteration(schedule: &Schedule, trip_count: u64, unroll_factor: u64) -> f64 {
    let orig_iters = (trip_count * unroll_factor).max(1);
    schedule.compute_cycles_at(trip_count) as f64 / orig_iters as f64
}

/// Step 1's eligibility gate: unrolling is considered at all only under
/// [`UnrollPolicy::Auto`], on a multi-cluster machine, for loops with at
/// least N iterations. Shared with symbolic instantiation so both paths
/// gate on the identical predicate.
pub(crate) fn unroll_eligible(policy: UnrollPolicy, n: usize, trip_count: u64) -> bool {
    policy != UnrollPolicy::Never && n > 1 && trip_count >= n as u64
}

/// Step 1's tie-break between the two candidate schedules: the unrolled
/// version wins only when *strictly* cheaper per original iteration.
/// `flat_trip` and `unrolled_trip` are the candidates' trip counts: their
/// own loops' on the direct path, the request's patched bounds on
/// symbolic instantiation, which decides before cloning either. Shared
/// by both paths so they run the identical floating-point comparison.
pub(crate) fn unrolled_wins(
    flat: &Schedule,
    flat_trip: u64,
    unrolled: &Schedule,
    unrolled_trip: u64,
    n: usize,
) -> bool {
    cost_per_iteration(unrolled, unrolled_trip, n as u64) < cost_per_iteration(flat, flat_trip, 1)
}

/// Steps 4–5 of §4.3 (L0 target only): hint assignment, explicit
/// prefetch insertion and the inter-loop flush. Everything here is
/// trip-count independent, which is what lets the symbolic path run it
/// once per template instead of once per instantiation.
pub(crate) fn finish_l0(schedule: &mut Schedule, cfg: &MachineConfig) {
    assign_hints(schedule, cfg);
    insert_explicit_prefetches(schedule, cfg);
    schedule.flush_on_exit = true; // inter-loop coherence (§4.1)
}

/// Step 5: adds an explicit software prefetch for every L0-latency load
/// whose stride is *not* good (e.g. column walks) — the mapping/prefetch
/// hints cannot keep those in L0 on their own. Prefetches are added only
/// while free memory slots remain in the load's cluster, map linearly, and
/// run far enough ahead to cover the L1 latency.
fn insert_explicit_prefetches(schedule: &mut Schedule, cfg: &MachineConfig) {
    let Some(l0cfg) = cfg.l0 else { return };
    let l0_lat = l0cfg.latency;
    let ii = schedule.ii();
    // Rebuild MRT occupancy for memory units.
    let mut mrt = ModuloReservationTable::new(cfg, ii);
    for p in &schedule.placements {
        let op = schedule.loop_.op(p.op);
        if let Some(kind) = op.kind.fu_kind() {
            if mrt.fu_free(p.cluster, kind, p.t) {
                mrt.reserve_fu(p.cluster, kind, p.t);
            }
        }
    }
    for r in &schedule.replicas {
        if mrt.fu_free(r.cluster, FuKind::Mem, r.t) {
            mrt.reserve_fu(r.cluster, FuKind::Mem, r.t);
        }
    }

    // Loads needing explicit prefetch. Column-style walks have poor L1
    // locality, so the lookahead covers a worst-case L1 miss (request +
    // L2 + fill), not just an L1 hit.
    let lookahead = (cfg.l1.latency + cfg.l2_latency + l0_lat)
        .div_ceil(ii)
        .max(1);
    let mut additions: Vec<PrefetchSlot> = Vec::new();
    for p in &schedule.placements {
        let op = schedule.loop_.op(p.op);
        if !op.is_load() || p.assumed_latency != l0_lat {
            continue;
        }
        let Some(acc) = op.kind.mem_access() else {
            continue;
        };
        if stride::classify(acc, schedule.loop_.unroll_factor) != StrideClass::Other {
            continue;
        }
        // find a free memory slot in the same cluster
        let slot = (0..ii as i64).find(|&t| mrt.fu_free(p.cluster, FuKind::Mem, t));
        if let Some(t) = slot {
            mrt.reserve_fu(p.cluster, FuKind::Mem, t);
            additions.push(PrefetchSlot {
                for_op: p.op,
                cluster: p.cluster,
                t,
                lookahead,
            });
        }
        // per the paper: if no slot is free, the load keeps the L0 latency
        // and the processor eats the stalls
    }
    schedule.prefetches = additions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;
    use vliw_machine::{AccessHint, L0Capacity};

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    fn l0() -> CompileRequest {
        CompileRequest::new(crate::Arch::L0)
    }

    #[test]
    fn elementwise_prefers_unrolling() {
        // two mem ops over four mem units: unrolling amortizes control
        // overhead and fills the clusters
        let l = LoopBuilder::new("ew")
            .trip_count(1024)
            .elementwise(2)
            .build();
        let s = l0().compile(&l, &cfg()).unwrap();
        assert_eq!(s.loop_.unroll_factor, 4, "unrolled by N");
    }

    #[test]
    fn recurrence_loop_stays_flat() {
        // the carried store->load chain serializes: unrolling multiplies
        // the II by U, so the flat version is never worse
        let l = LoopBuilder::new("slp")
            .trip_count(1024)
            .store_load_pair(4)
            .build();
        let s = l0().compile(&l, &cfg()).unwrap();
        assert_eq!(s.loop_.unroll_factor, 1);
    }

    #[test]
    fn column_walk_gets_explicit_prefetch() {
        // int overhead raises the II without consuming memory slots, so
        // step 5 always finds room for the prefetch
        let l = LoopBuilder::new("col")
            .trip_count(256)
            .column_walk(4, 1024)
            .int_overhead(6)
            .build();
        let s = l0().compile(&l, &cfg()).unwrap();
        let l0_col_loads = s
            .placements
            .iter()
            .filter(|p| {
                s.loop_.op(p.op).is_load()
                    && p.assumed_latency == 1
                    && s.loop_
                        .op(p.op)
                        .kind
                        .mem_access()
                        .map(|a| stride::classify(a, s.loop_.unroll_factor) == StrideClass::Other)
                        .unwrap_or(false)
            })
            .count();
        if l0_col_loads > 0 {
            assert!(
                !s.prefetches.is_empty(),
                "other-stride L0 loads need explicit prefetches"
            );
            for pf in &s.prefetches {
                assert!(pf.lookahead >= 1);
            }
        }
    }

    #[test]
    fn flush_on_exit_only_for_l0() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        assert!(l0().compile(&l, &cfg()).unwrap().flush_on_exit);
        let base = CompileRequest::new(crate::Arch::Baseline);
        assert!(!base.compile(&l, &cfg().without_l0()).unwrap().flush_on_exit);
    }

    #[test]
    fn specialization_enables_l0_for_conservative_loops() {
        use vliw_ir::MemAccess;
        let mut b = LoopBuilder::new("cons").trip_count(128);
        let a = b.array("a", 1024);
        let c = b.array("c", 1024);
        let (_, v) = b.load(MemAccess::unit(a, 4, 0));
        let (_, r) = b.alu(vliw_ir::OpKind::IntAlu, &[v]);
        b.store(MemAccess::unit(c, 4, 0), r);
        b.conservative_alias_all();
        let l = b.build();

        let with_spec = l0().compile(&l, &cfg()).unwrap();
        let without_spec = l0().specialize(false).compile(&l, &cfg()).unwrap();
        // specialization must not hurt; typically it enables more L0 loads
        let l0_with = with_spec
            .placements
            .iter()
            .filter(|p| with_spec.loop_.op(p.op).is_load() && p.hints.access.uses_l0())
            .count();
        let l0_without = without_spec
            .placements
            .iter()
            .filter(|p| without_spec.loop_.op(p.op).is_load() && p.hints.access.uses_l0())
            .count();
        assert!(l0_with >= l0_without);
    }

    #[test]
    fn all_candidates_marks_more_loads_than_selective_on_tiny_buffers() {
        // 10 loads, 2-entry buffers: selective marks <= 8, all marks 10
        let l = LoopBuilder::new("fir10").trip_count(256).fir(10, 2).build();
        let tiny = cfg().with_l0_entries(L0Capacity::Bounded(2));
        let sel = l0().compile(&l, &tiny).unwrap();
        let all = l0()
            .mark(MarkPolicy::AllCandidates)
            .compile(&l, &tiny)
            .unwrap();
        let count = |s: &Schedule| {
            s.placements
                .iter()
                .filter(|p| s.loop_.op(p.op).is_load() && p.hints.access != AccessHint::NoAccess)
                .count()
        };
        assert!(count(&all) >= count(&sel));
        assert!(count(&all) >= 10);
    }

    #[test]
    fn interleaved_heuristics_both_schedule() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(4)
            .build();
        let c = cfg().without_l0();
        for arch in [crate::Arch::Interleaved1, crate::Arch::Interleaved2] {
            let s = CompileRequest::new(arch).compile(&l, &c).unwrap();
            assert!(s.ii() >= 1, "{arch}");
        }
    }

    #[test]
    fn multivliw_uses_local_latency() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(4)
            .build();
        let s = CompileRequest::new(crate::Arch::MultiVliw)
            .compile(&l, &cfg().without_l0())
            .unwrap();
        let load = s.loop_.ops.iter().find(|o| o.is_load()).unwrap();
        assert_eq!(s.placement(load.id).assumed_latency, 2);
    }

    #[test]
    fn l0_target_requires_l0_config() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let err = l0().compile(&l, &cfg().without_l0()).unwrap_err();
        assert!(matches!(err.root(), ScheduleError::BadConfig(_)));
        assert_eq!(err.pass_name(), Some("lower"), "failure names its pass");
    }
}
