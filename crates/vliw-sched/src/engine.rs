//! The cluster-assignment + modulo-scheduling engine.
//!
//! One engine drives all four target architectures; what varies is the
//! *latency assignment* for memory operations and the *cluster ordering*
//! heuristic:
//!
//! * BASE (unified L1, no L0): loads get the L1 latency; clusters are
//!   ordered to minimize register-to-register communications and maximize
//!   workload balance \[22\].
//! * L0 buffers: the paper's algorithm (Figure 4) — slack-based selective
//!   assignment of the L0 latency, `num_free_L0_entries` bookkeeping,
//!   recommended clusters for unrolled siblings, and the NL0/1C/PSR
//!   coherence solutions for memory-dependent sets.
//! * MultiVLIW: loads get the local-bank latency (data migrates under the
//!   MSI protocol).
//! * Word-interleaved: heuristic 1 assumes the remote latency everywhere
//!   (placement-blind); heuristic 2 assigns statically-owned accesses to
//!   their home cluster with the local latency.

use crate::coherence::{self, CoherencePolicy, CoherenceSolution};
use crate::cost;
use crate::mii;
use crate::mrt::ModuloReservationTable;
use crate::schedule::{CopySlot, Placement, ReplicaSlot, Schedule};
use crate::sms::sms_order;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashMap;
use vliw_ir::{stride, DataDepGraph, DepKind, LoopNest, MemDepSets, OpId};
use vliw_machine::{ClusterId, MachineConfig, MemHints, Profile};

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No feasible II was found up to the search cap.
    NoFeasibleIi {
        /// Name of the loop that could not be scheduled.
        loop_name: String,
        /// Label of the backend that gave up (e.g. `"sms"`, `"exact"`).
        backend: String,
        /// The largest II attempted.
        max_ii_tried: u32,
    },
    /// The machine configuration is invalid for this scheduler.
    BadConfig(String),
    /// A failure attributed to a named compile pass (attached by the
    /// [`crate::passes`] driver so shard-side failures stay attributable
    /// through the compile service).
    InPass {
        /// Name of the pass that failed.
        pass: String,
        /// The underlying failure.
        error: Box<ScheduleError>,
    },
}

impl ScheduleError {
    /// Rebrands the error with the label of the backend that surfaced it
    /// (backends that wrap other backends re-attribute failures to
    /// themselves).
    #[must_use]
    pub fn with_backend(mut self, label: &str) -> Self {
        match &mut self {
            ScheduleError::NoFeasibleIi { backend, .. } => *backend = label.to_string(),
            ScheduleError::InPass { error, .. } => **error = error.clone().with_backend(label),
            ScheduleError::BadConfig(_) => {}
        }
        self
    }

    /// Wraps the error with the name of the failing pass. Already-wrapped
    /// errors keep their original (innermost) pass attribution.
    #[must_use]
    pub fn in_pass(self, pass: &str) -> Self {
        match self {
            e @ ScheduleError::InPass { .. } => e,
            e => ScheduleError::InPass {
                pass: pass.to_string(),
                error: Box::new(e),
            },
        }
    }

    /// The failing pass, when this error carries pass attribution.
    pub fn pass_name(&self) -> Option<&str> {
        match self {
            ScheduleError::InPass { pass, .. } => Some(pass),
            _ => None,
        }
    }

    /// The underlying error with any pass attribution stripped.
    pub fn root(&self) -> &ScheduleError {
        match self {
            ScheduleError::InPass { error, .. } => error.root(),
            e => e,
        }
    }
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoFeasibleIi {
                loop_name,
                backend,
                max_ii_tried,
            } => {
                write!(
                    f,
                    "no feasible II for loop '{loop_name}' via the {backend} backend \
                     (tried up to {max_ii_tried})"
                )
            }
            ScheduleError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            ScheduleError::InPass { pass, error } => write!(f, "in pass '{pass}': {error}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// How aggressively memory candidates are marked to use the buffers
/// (§5.2 in-text ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarkPolicy {
    /// The paper's policy: only the most critical candidates, bounded by
    /// the total number of L0 entries.
    #[default]
    Selective,
    /// Mark *every* candidate (overflows small buffers; +6% exec time on
    /// 4-entry buffers in the paper).
    AllCandidates,
    /// Profile-guided selective marking: candidates whose provenance
    /// origin *stalled in the profiling run* get L0 slots first (hottest
    /// first), the cold remainder keeps the paper's slack order, and the
    /// entry budget bounds the total exactly as under
    /// [`MarkPolicy::Selective`]. Without a profile on the request this
    /// degenerates to `Selective` (every op is equally cold).
    ProfileGuided,
}

/// How cluster assignment weighs the machine's interconnect (the
/// "contention-aware placement" knob of the mesh/NoC study).
///
/// The hint layer has been distance-aware since the interconnect landed
/// (cross-tile interleaved deals are demoted); this policy feeds the same
/// distance signal into *placement itself*: with
/// [`AssignmentPolicy::ContentionAware`], the cluster-ordering heuristic
/// of step ➎ additionally prefers clusters close (in estimated network
/// hops) to the bank that owns each memory op's stream, so refills pay
/// fewer hops and saturate fewer links. The default is the paper's
/// distance-blind ordering, bit-exact with the pre-mesh scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AssignmentPolicy {
    /// The paper's ordering: communication neighbours + balance only.
    #[default]
    ContentionBlind,
    /// Additionally sort candidate clusters by estimated hop distance to
    /// each memory op's home bank (no-op on the flat network).
    ContentionAware,
}

/// Scheduling mode: which architecture the engine targets.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Unified L1 without L0 buffers (or any fixed-latency target).
    Base {
        /// Latency assumed for loads.
        load_latency: u32,
    },
    /// The paper's L0-buffer architecture.
    L0 {
        /// Candidate marking policy.
        mark: MarkPolicy,
        /// Coherence policy for mixed memory-dependent sets.
        policy: CoherencePolicy,
    },
    /// Word-interleaved distributed cache.
    WordInterleaved {
        /// `true` = heuristic 2 (owner-aware), `false` = heuristic 1.
        owner_aware: bool,
        /// Latency of a local/attraction access.
        local_latency: u32,
        /// Latency of a remote access.
        remote_latency: u32,
        /// Interleaving granularity in bytes.
        word_bytes: u64,
    },
}

/// Internal draft placement (shared with the exact backend).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draft {
    pub(crate) cluster: ClusterId,
    pub(crate) t: i64,
    pub(crate) lat: u32,
}

/// The engine's mutable state for one `try_schedule` attempt.
struct Attempt<'a> {
    loop_: &'a LoopNest,
    cfg: &'a MachineConfig,
    ddg: &'a DataDepGraph,
    sets: &'a MemDepSets,
    mode: Mode,
    assignment: AssignmentPolicy,
    profile: Option<&'a Profile>,
    ii: u32,
    mrt: ModuloReservationTable,
    placed: Vec<Option<Draft>>,
    copies: Vec<CopySlot>,
    copy_index: HashMap<(OpId, ClusterId), i64>,
    replicas: Vec<ReplicaSlot>,
    free_l0: FreeEntries,
    l0_assigned: Vec<bool>,
    recommended: Vec<Option<ClusterId>>,
    set_solutions: HashMap<usize, CoherenceSolution>,
    static_slack: Vec<i64>,
}

pub(crate) const MAX_II: u32 = 512;

impl<'a> Attempt<'a> {
    fn l1_lat(&self) -> u32 {
        self.cfg.l1.latency
    }

    fn l0_lat(&self) -> u32 {
        self.cfg.l0.map(|l| l.latency).unwrap_or(1)
    }

    /// Optimistic latency function for ordering/slack (step ➋ assumption:
    /// all candidates at the L0 latency).
    fn optimistic_latency(&self, op: OpId) -> u32 {
        optimistic_latency(self.loop_, self.cfg, self.mode, op)
    }

    /// See [`entry_cost`].
    fn entry_cost(&self, op: OpId) -> i64 {
        entry_cost(self.loop_, self.cfg, self.ii, op)
    }

    /// The latency `op` would be scheduled with in `cluster` right now
    /// (the per-cluster latency computation of step ➏).
    fn latency_for(&self, op: OpId, cluster: ClusterId) -> u32 {
        let o = self.loop_.op(op);
        match &o.kind {
            vliw_ir::OpKind::Load(acc) => match self.mode {
                Mode::Base { load_latency } => load_latency,
                Mode::L0 { mark, .. } => {
                    if !self.l0_assigned[op.index()] {
                        return self.l1_lat();
                    }
                    // coherence constraint for mixed sets
                    if let Some(si) = self.sets.set_of(op) {
                        if let Some(sol) = self.set_solutions.get(&si) {
                            if !sol.allows_l0(cluster) {
                                return self.l1_lat();
                            }
                        }
                    }
                    let capacity_ok = match mark {
                        MarkPolicy::Selective | MarkPolicy::ProfileGuided => {
                            self.free_l0.fits(cluster, self.entry_cost(op))
                        }
                        MarkPolicy::AllCandidates => true,
                    };
                    if capacity_ok && stride::is_candidate(acc) {
                        self.l0_lat()
                    } else {
                        self.l1_lat()
                    }
                }
                Mode::WordInterleaved {
                    owner_aware,
                    local_latency,
                    remote_latency,
                    word_bytes,
                } => {
                    if owner_aware {
                        match preferred_owner(self.loop_, op, word_bytes, self.cfg.clusters) {
                            Some(home) if home == cluster => local_latency,
                            Some(_) => remote_latency,
                            // rotating/irregular ownership: mostly remote
                            None => remote_latency,
                        }
                    } else {
                        remote_latency
                    }
                }
            },
            vliw_ir::OpKind::Store(_) => 1,
            _ => o.default_latency(),
        }
    }

    /// Latency contributed by edge `e` given the producer's draft.
    fn edge_latency(&self, e: &vliw_ir::DepEdge) -> u32 {
        match e.kind {
            DepKind::Mem { .. } => 1,
            DepKind::Reg | DepKind::Reduction => {
                self.placed[e.src.index()].map(|d| d.lat).unwrap_or(1)
            }
        }
    }

    /// Tries to place `op` in `cluster`; returns `true` on success (all
    /// reservations made).
    fn try_place(&mut self, op: OpId, cluster: ClusterId) -> bool {
        let o = self.loop_.op(op);
        let lat = self.latency_for(op, cluster);
        let bus_lat = self.cfg.buses.latency as i64;
        let ii = self.ii as i64;

        // Window from scheduled predecessors/successors. `lo`/`hi` stay
        // None while unconstrained (negative times are legal; the schedule
        // is normalized at the end).
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        // (producer, needed-by) pairs requiring a new copy into `cluster`
        let mut pred_copies: Vec<(OpId, i64)> = Vec::new();

        for e in self.ddg.pred_edges(op) {
            if e.src == op {
                continue; // self recurrence: holds whenever lat <= ii*dist
            }
            let Some(src) = self.placed[e.src.index()] else {
                continue;
            };
            let elat = self.edge_latency(e) as i64;
            let mut avail = src.t + elat - ii * e.distance as i64;
            let needs_copy = src.cluster != cluster && !e.kind.is_mem();
            if needs_copy {
                if let Some(&copy_t) = self.copy_index.get(&(e.src, cluster)) {
                    avail = copy_t + bus_lat - ii * e.distance as i64;
                } else {
                    // earliest the copy could go
                    let earliest = src.t + src.lat as i64;
                    match self.mrt.find_bus_slot(earliest, earliest + ii - 1) {
                        Some(copy_t) => {
                            avail = copy_t + bus_lat - ii * e.distance as i64;
                            pred_copies.push((e.src, copy_t));
                        }
                        None => return false,
                    }
                }
            }
            lo = Some(lo.map_or(avail, |x| x.max(avail)));
        }

        // succ constraints: copies to scheduled consumers in other clusters
        let mut succ_copy_needed: Vec<(OpId, i64)> = Vec::new(); // (consumer, deadline)
        for e in self.ddg.succ_edges(op) {
            if e.dst == op {
                continue;
            }
            let Some(dst) = self.placed[e.dst.index()] else {
                continue;
            };
            let elat = if e.kind.is_mem() { 1 } else { lat as i64 };
            let needs_copy = dst.cluster != cluster && !e.kind.is_mem();
            let bound = if needs_copy {
                // op.t + lat <= copy_t  and  copy_t + bus <= dst.t + ii*dist
                let deadline = dst.t + ii * e.distance as i64 - bus_lat;
                succ_copy_needed.push((e.dst, deadline));
                deadline - lat as i64
            } else {
                dst.t + ii * e.distance as i64 - elat
            };
            hi = Some(hi.map_or(bound, |x: i64| x.min(bound)));
        }

        // Slot search: SMS places succ-driven nodes as late as allowed,
        // everything else as early as possible. One II of candidates is
        // enough — resource slots repeat modulo II.
        let fu_kind = o.kind.fu_kind();
        let candidates: Vec<i64> = match (lo, hi) {
            (Some(lo), Some(hi)) => {
                if lo > hi {
                    return false;
                }
                let span = (hi - lo).min(ii - 1);
                (0..=span).map(|d| lo + d).collect()
            }
            (Some(lo), None) => (0..ii).map(|d| lo + d).collect(),
            (None, Some(hi)) => (0..ii).map(|d| hi - d).collect(),
            (None, None) => (0..ii).collect(),
        };
        // Negative flat times are allowed (the whole schedule is
        // normalized afterwards); resource slots fold modulo II either way.
        let mut chosen: Option<i64> = None;
        for t in candidates {
            let fu_ok = match fu_kind {
                Some(k) => self.mrt.fu_free(cluster, k, t),
                None => true,
            };
            if fu_ok {
                chosen = Some(t);
                break;
            }
        }
        let Some(t) = chosen else { return false };

        // Reserve: FU, pred copies, succ copies, PSR replicas.
        if let Some(k) = fu_kind {
            self.mrt.reserve_fu(cluster, k, t);
        }
        let mut reserved_buses: Vec<i64> = Vec::new();
        let mut ok = true;
        for &(src, copy_t) in &pred_copies {
            if self.mrt.bus_free(copy_t) {
                self.mrt.reserve_bus(copy_t);
                reserved_buses.push(copy_t);
                self.copies.push(CopySlot {
                    from_op: src,
                    to_cluster: cluster,
                    t: copy_t,
                });
                self.copy_index.insert((src, cluster), copy_t);
            } else {
                ok = false;
                break;
            }
        }
        let mut new_copies = 0;
        if ok {
            for &(dst, deadline) in &succ_copy_needed {
                let dst_cluster = self.placed[dst.index()].expect("scheduled").cluster;
                if self.copy_index.contains_key(&(op, dst_cluster)) {
                    continue;
                }
                match self.mrt.find_bus_slot(t + lat as i64, deadline) {
                    Some(copy_t) => {
                        self.mrt.reserve_bus(copy_t);
                        reserved_buses.push(copy_t);
                        self.copies.push(CopySlot {
                            from_op: op,
                            to_cluster: dst_cluster,
                            t: copy_t,
                        });
                        self.copy_index.insert((op, dst_cluster), copy_t);
                        new_copies += 1;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        // PSR replica stores: one instance per other cluster.
        let mut replica_drafts: Vec<ReplicaSlot> = Vec::new();
        if ok && o.is_store() {
            if let Some(si) = self.sets.set_of(op) {
                if matches!(self.set_solutions.get(&si), Some(CoherenceSolution::Psr)) {
                    'clusters: for c in ClusterId::all(self.cfg.clusters) {
                        if c == cluster {
                            continue;
                        }
                        for dt in 0..ii {
                            let rt = t + dt;
                            if self.mrt.fu_free(c, vliw_machine::FuKind::Mem, rt) {
                                self.mrt.reserve_fu(c, vliw_machine::FuKind::Mem, rt);
                                replica_drafts.push(ReplicaSlot {
                                    for_op: op,
                                    cluster: c,
                                    t: rt,
                                });
                                continue 'clusters;
                            }
                        }
                        ok = false;
                        break;
                    }
                }
            }
        }

        if !ok {
            // roll back
            if let Some(k) = fu_kind {
                self.mrt.release_fu(cluster, k, t);
            }
            for bt in reserved_buses {
                self.mrt.release_bus(bt);
            }
            for _ in 0..new_copies {
                let c = self.copies.pop().expect("pushed above");
                self.copy_index.remove(&(c.from_op, c.to_cluster));
            }
            for &(src, _) in &pred_copies {
                if let Some(ct) = self.copy_index.remove(&(src, cluster)) {
                    self.copies
                        .retain(|c| !(c.from_op == src && c.to_cluster == cluster && c.t == ct));
                }
            }
            for r in replica_drafts {
                self.mrt
                    .release_fu(r.cluster, vliw_machine::FuKind::Mem, r.t);
            }
            return false;
        }

        self.replicas.extend(replica_drafts);
        self.placed[op.index()] = Some(Draft { cluster, t, lat });
        true
    }

    /// Step ➎+➏: the ordered list of clusters to try for `op`.
    fn cluster_order(&self, op: OpId) -> Vec<ClusterId> {
        let o = self.loop_.op(op);
        let n = self.cfg.clusters;
        // 1C pinning: L0-latency loads and stores of a pinned set must go
        // to the pinned cluster.
        if o.kind.is_mem() {
            if let Some(si) = self.sets.set_of(op) {
                if let Some(sol) = self.set_solutions.get(&si) {
                    if let Some(pinned) = sol.pinned() {
                        let pin_applies = o.is_store()
                            || (self.l0_assigned.get(op.index()).copied().unwrap_or(false));
                        if pin_applies && !matches!(sol, CoherenceSolution::Psr) {
                            // loads may still fall back to other clusters
                            // with the L1 latency
                            let mut order = vec![pinned];
                            if o.is_load() {
                                order.extend(ClusterId::all(n).filter(|&c| c != pinned));
                            }
                            return order;
                        }
                    }
                }
            }
        }

        // Per-cluster placed-neighbor counts in one pass over the edges
        // (the sort key below reads them per cluster; recounting per key
        // evaluation made this sort the compile-time hot spot at high
        // cluster counts).
        let mut neighbors = vec![0usize; n];
        for e in self.ddg.pred_edges(op) {
            if let Some(d) = self.placed[e.src.index()] {
                if !e.kind.is_mem() {
                    neighbors[d.cluster.index()] += 1;
                }
            }
        }
        for e in self.ddg.succ_edges(op) {
            if let Some(d) = self.placed[e.dst.index()] {
                if !e.kind.is_mem() {
                    neighbors[d.cluster.index()] += 1;
                }
            }
        }

        let mut order: Vec<ClusterId> = ClusterId::all(n).collect();
        let is_mem = o.kind.is_mem();
        // Cached: each cluster's key is computed exactly once. The key
        // ends in `c.index()`, so keys are unique and the (stable) sort
        // yields the same order as evaluating keys per comparison.
        order.sort_by_cached_key(|&c| {
            let rec = match self.recommended[op.index()] {
                Some(r) if r == c => 0,
                Some(_) => 1,
                None => 1,
            };
            // Contention-aware placement: estimated network hops from this
            // cluster to the bank owning the op's stream (0 for non-memory
            // ops, under the blind policy, and on the flat network).
            let dist = if is_mem { self.bank_distance(op, c) } else { 0 };
            let l0_avail = if is_mem && matches!(self.mode, Mode::L0 { .. }) {
                let lat = self.latency_for(op, c);
                if lat == self.l0_lat() && o.is_load() {
                    0
                } else {
                    1
                }
            } else {
                0
            };
            let owner = match self.mode {
                Mode::WordInterleaved {
                    owner_aware: true,
                    word_bytes,
                    ..
                } if is_mem => match preferred_owner(self.loop_, op, word_bytes, n) {
                    Some(home) if home == c => 0,
                    _ => 1,
                },
                _ => 0,
            };
            (
                rec,
                l0_avail,
                owner,
                dist,
                usize::MAX - neighbors[c.index()],
                self.mrt.used_in_cluster(c),
                c.index(),
            )
        });
        order
    }

    /// Estimated placement cost of servicing `op`'s address stream from
    /// `cluster` — [`cost::bank_affinity`] (static hop distance, plus
    /// the observed congestion under a profile). The probe address is
    /// the op's first-iteration address: strided streams stay
    /// bank-affine at the block granularity the sweeps interleave on, so
    /// iteration 0 is a sound proxy. 0 under the distance-blind policy,
    /// so the sort key degenerates to the paper's ordering.
    fn bank_distance(&self, op: OpId, cluster: ClusterId) -> u64 {
        if self.assignment != AssignmentPolicy::ContentionAware {
            return 0;
        }
        let Some(acc) = self.loop_.op(op).kind.mem_access() else {
            return 0;
        };
        let arr = self.loop_.array(acc.array);
        let addr = (arr.base_addr as i64 + acc.offset_bytes).max(0) as u64;
        cost::bank_affinity(self.cfg, self.profile, cluster, addr)
    }

    /// Step ➑: after placing `op`, push recommended clusters to its
    /// unrolled siblings and pin the coherence cluster for its set.
    fn mark_related(&mut self, op: OpId) {
        let o = self.loop_.op(op);
        let Some(draft) = self.placed[op.index()] else {
            return;
        };
        if !o.kind.is_mem() {
            return;
        }
        let n = self.cfg.clusters;
        // §4.3 step ➑: "if load a[i] has been scheduled in cluster 2 with
        // the L0 latency, the recommended cluster of load a[i+1] is
        // cluster 3, and so on". Any unplaced good-stride access of the
        // same array/stride/granularity whose offset differs by d elements
        // is recommended d clusters over — this is what makes interleaved
        // lanes land where their consumers execute (unrolled copies of one
        // instruction *and* distinct offsets like FIR taps).
        if let Some(acc) = o.kind.mem_access() {
            let cls = stride::classify(acc, self.loop_.unroll_factor);
            if cls == stride::StrideClass::Good
                && self.loop_.unroll_factor == n
                && draft.lat == self.l0_lat()
            {
                for other in &self.loop_.ops {
                    if other.id == op || !other.kind.is_mem() {
                        continue;
                    }
                    let Some(oacc) = other.kind.mem_access() else {
                        continue;
                    };
                    if oacc.array != acc.array
                        || oacc.stride != acc.stride
                        || oacc.elem_bytes != acc.elem_bytes
                    {
                        continue;
                    }
                    if self.placed[other.id.index()].is_some()
                        || self.recommended[other.id.index()].is_some()
                    {
                        continue;
                    }
                    let delta_bytes = oacc.offset_bytes - acc.offset_bytes;
                    if delta_bytes % acc.elem_bytes as i64 != 0 {
                        continue;
                    }
                    let delta = (delta_bytes / acc.elem_bytes as i64).rem_euclid(n as i64) as usize;
                    self.recommended[other.id.index()] = Some(draft.cluster.offset(delta, n));
                }
            }
        }
        // pin the set's cluster when an L0-latency load lands (1C)
        if o.is_load() && draft.lat == self.l0_lat() {
            if let Some(si) = self.sets.set_of(op) {
                if let Some(sol) = self.set_solutions.get_mut(&si) {
                    sol.pin(draft.cluster);
                }
            }
        }
        // a store placed first also pins 1C
        if o.is_store() {
            if let Some(si) = self.sets.set_of(op) {
                if let Some(sol) = self.set_solutions.get_mut(&si) {
                    sol.pin(draft.cluster);
                }
            }
        }
    }

    /// Steps ➋/➓: (re)assign the L0 latency to the unscheduled
    /// candidates by the shared marking rule ([`mark_l0`]), spending
    /// the entries still free.
    fn reassign_latencies(&mut self, mark: MarkPolicy) {
        let marks = mark_l0(
            self.loop_,
            self.cfg,
            self.ii,
            mark,
            self.profile,
            &self.static_slack,
            self.free_l0.total(),
            |op| self.placed[op.index()].is_none(),
        );
        for (op, marked) in marks {
            self.l0_assigned[op.index()] = marked;
        }
    }

    /// Register-pressure estimate: values live per cluster per kernel slot.
    fn max_live(&self) -> Vec<u32> {
        max_live(
            self.loop_,
            self.ddg,
            self.cfg,
            self.ii,
            &self.placed,
            &self.copy_index,
        )
    }
}

/// Register-pressure estimate over a draft placement: peak values live per
/// cluster per kernel slot (shared with the exact backend).
pub(crate) fn max_live(
    loop_: &LoopNest,
    ddg: &DataDepGraph,
    cfg: &MachineConfig,
    ii: u32,
    placed: &[Option<Draft>],
    copy_index: &HashMap<(OpId, ClusterId), i64>,
) -> Vec<u32> {
    let ii_u = ii;
    let ii = ii as i64;
    let mut live = vec![vec![0u32; ii_u as usize]; cfg.clusters];
    let mut bump = |cluster: ClusterId, from: i64, to: i64| {
        if to <= from {
            return;
        }
        let span = ((to - from).min(ii)) as usize;
        for k in 0..span {
            let slot = (from + k as i64).rem_euclid(ii) as usize;
            live[cluster.index()][slot] += 1;
        }
        // lifetimes longer than II overlap themselves: every slot
        // gains floor((to-from)/II) extra live copies
        let extra = ((to - from) / ii) as u32;
        if extra > 0 {
            for slot in live[cluster.index()].iter_mut() {
                *slot += extra;
            }
        }
    };
    for (i, d) in placed.iter().enumerate() {
        let Some(d) = d else { continue };
        let op = &loop_.ops[i];
        if op.writes.is_none() {
            continue;
        }
        let mut last_use = d.t + d.lat as i64;
        for e in ddg.succ_edges(op.id) {
            if e.kind.is_mem() {
                continue;
            }
            if let Some(dd) = placed[e.dst.index()] {
                let use_t = dd.t + ii * e.distance as i64;
                last_use = last_use.max(use_t);
            }
        }
        if let Some(&copy_t) = copy_index
            .iter()
            .filter(|((src, _), _)| *src == op.id)
            .map(|(_, t)| t)
            .max()
        {
            last_use = last_use.max(copy_t);
        }
        bump(d.cluster, d.t, last_use);
    }
    live.into_iter()
        .map(|slots| slots.into_iter().max().unwrap_or(0))
        .collect()
}

/// Optimistic per-op latency: what the engine assumes for MII computation
/// and node ordering before any placement decision is made (step ➋: every
/// L0 candidate at the L0 latency; owner-aware word-interleaved loads at
/// the local latency).
pub(crate) fn optimistic_latency(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    mode: Mode,
    op: OpId,
) -> u32 {
    let o = loop_.op(op);
    match &o.kind {
        vliw_ir::OpKind::Load(acc) => match mode {
            Mode::Base { load_latency } => load_latency,
            Mode::L0 { .. } => {
                if stride::is_candidate(acc) {
                    cfg.l0.map(|l| l.latency).unwrap_or(1)
                } else {
                    cfg.l1.latency
                }
            }
            Mode::WordInterleaved {
                owner_aware,
                local_latency,
                remote_latency,
                ..
            } => {
                if owner_aware {
                    local_latency
                } else {
                    remote_latency
                }
            }
        },
        vliw_ir::OpKind::Store(_) => 1,
        _ => o.default_latency(),
    }
}

/// L0 entries a load effectively occupies: good strides keep one
/// live subblock (the hint prefetch transiently adds one — the paper
/// does *not* account for it, which is exactly the jpegdec 4-entry
/// anomaly we preserve); "other" strides touch a new subblock every
/// iteration and keep `lookahead` explicit prefetches in flight.
pub fn entry_cost(loop_: &LoopNest, cfg: &MachineConfig, ii: u32, op: OpId) -> i64 {
    let Some(acc) = loop_.op(op).kind.mem_access() else {
        return 1;
    };
    match stride::classify(acc, loop_.unroll_factor) {
        stride::StrideClass::Other => {
            // current subblock + one being filled + `lookahead`
            // outstanding explicit prefetches (the prefetch lookahead
            // covers a worst-case L1 miss; keep in sync with step 5)
            let l0_lat = cfg.l0.map(|l| l.latency).unwrap_or(1);
            let lookahead = (cfg.l1.latency + cfg.l2_latency + l0_lat).div_ceil(ii.max(1)) as i64;
            2 + lookahead.max(1)
        }
        _ => 1,
    }
}

/// The L0 entries still free in each cluster's buffer — step ➊'s
/// `num_free_L0_entries`, kept by both schedulers. Derived from
/// [`L0Capacity::entries`](vliw_machine::L0Capacity::entries): `None`
/// for unbounded buffers, where every candidate fits at any cluster
/// count.
#[derive(Debug, Clone)]
pub(crate) struct FreeEntries(Option<Vec<i64>>);

impl FreeEntries {
    /// Empty buffers in every cluster of `cfg` (zero entries without L0).
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let per_cluster = cfg.l0.map_or(Some(0), |l0| l0.entries.entries());
        FreeEntries(per_cluster.map(|e| vec![e as i64; cfg.clusters]))
    }

    /// `true` when `cost` more entries fit in `cluster`'s buffer.
    pub(crate) fn fits(&self, cluster: ClusterId, cost: i64) -> bool {
        self.0.as_ref().is_none_or(|f| f[cluster.index()] >= cost)
    }

    /// Occupies `cost` entries of `cluster`'s buffer (a negative `cost`
    /// frees them again).
    pub(crate) fn take(&mut self, cluster: ClusterId, cost: i64) {
        if let Some(f) = &mut self.0 {
            f[cluster.index()] -= cost;
        }
    }

    /// The free entries summed over all clusters — the budget the
    /// marking rule spends; `None` when unbounded.
    pub(crate) fn total(&self) -> Option<i64> {
        self.0.as_ref().map(|f| f.iter().sum())
    }
}

/// Steps ➋/➓ of §4.3, the one L0-marking rule of both schedulers: the
/// L0 latency goes to the most critical candidates, up to the free
/// entries.
///
/// The candidates are the L0-candidate loads (good or "other" stride)
/// that are `eligible`. They are ordered by profile heat, hottest first
/// ([`cost::stall_weight`], read only under [`MarkPolicy::ProfileGuided`]),
/// then by static `slack` (indexed by op), then by op id, and each is
/// admitted while its [`entry_cost`] fits in what is left of `budget`
/// (`None`: every candidate fits). [`MarkPolicy::AllCandidates`] admits
/// every candidate. Returns each candidate with its verdict.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mark_l0(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    ii: u32,
    mark: MarkPolicy,
    profile: Option<&Profile>,
    slack: &[i64],
    budget: Option<i64>,
    eligible: impl Fn(OpId) -> bool,
) -> Vec<(OpId, bool)> {
    let mut candidates: Vec<OpId> = loop_
        .ops
        .iter()
        .filter(|o| {
            o.is_load() && eligible(o.id) && o.kind.mem_access().is_some_and(stride::is_candidate)
        })
        .map(|o| o.id)
        .collect();
    let heat = |op: OpId| match mark {
        MarkPolicy::ProfileGuided => {
            cost::stall_weight(profile, &loop_.name, loop_.op(op).provenance().0 .0)
        }
        MarkPolicy::Selective | MarkPolicy::AllCandidates => 0,
    };
    candidates.sort_by_key(|&op| (Reverse(heat(op)), slack[op.index()], op.0));
    let mut remaining = match mark {
        MarkPolicy::AllCandidates => None,
        MarkPolicy::Selective | MarkPolicy::ProfileGuided => budget,
    };
    candidates
        .into_iter()
        .map(|op| {
            let cost = entry_cost(loop_, cfg, ii, op);
            let fits = remaining.is_none_or(|r| r >= cost);
            if let (true, Some(r)) = (fits, remaining.as_mut()) {
                *r -= cost;
            }
            (op, fits)
        })
        .collect()
}

/// The statically-preferred home cluster of a word-interleaved access:
/// `Some(c)` when the stride is a multiple of `word_bytes × clusters`
/// (the access always touches words owned by one cluster).
pub(crate) fn preferred_owner(
    loop_: &LoopNest,
    op: OpId,
    word_bytes: u64,
    clusters: usize,
) -> Option<ClusterId> {
    let acc = loop_.op(op).kind.mem_access()?;
    match acc.stride {
        vliw_ir::StridePattern::Affine { stride_bytes } => {
            let rotation = (word_bytes as i64) * clusters as i64;
            if stride_bytes % rotation == 0 {
                let arr = loop_.array(acc.array);
                let addr = (arr.base_addr as i64 + acc.offset_bytes).max(0) as u64;
                Some(ClusterId::new(
                    ((addr / word_bytes) % clusters as u64) as usize,
                ))
            } else {
                None
            }
        }
        vliw_ir::StridePattern::Irregular { .. } => None,
    }
}

/// Runs the engine: II search loop over `try_schedule` (§4.3 step 3)
/// under a cluster-assignment policy and an optional profile
/// ([`AssignmentPolicy::ContentionBlind`] without a profile is the
/// paper's scheduler bit-exactly; a profile closes the profile-guided
/// loop through the [`cost`] functions).
pub(crate) fn run_with(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    mode: Mode,
    assignment: AssignmentPolicy,
    profile: Option<&Profile>,
) -> Result<Schedule, ScheduleError> {
    cfg.validate().map_err(ScheduleError::BadConfig)?;
    let ddg = DataDepGraph::build(loop_);
    let sets = MemDepSets::build(loop_);

    // optimistic latency for MII / ordering
    let opt_lat = |op: OpId| optimistic_latency(loop_, cfg, mode, op);
    let mii0 = mii::mii(loop_, &ddg, cfg, opt_lat);

    let mut ii = mii0;
    while ii <= MAX_II {
        if let Some(mut schedule) =
            try_schedule(loop_, cfg, &ddg, &sets, mode, assignment, profile, ii)
        {
            schedule.mii = mii0;
            // Hitting the MII is the one II a heuristic *can* prove
            // minimal: nothing legal is below it.
            schedule.ii_proof = if ii == mii0 {
                crate::schedule::IiProof::Optimal
            } else {
                crate::schedule::IiProof::Heuristic
            };
            return Ok(schedule);
        }
        ii += 1;
    }
    Err(ScheduleError::NoFeasibleIi {
        loop_name: loop_.name.clone(),
        backend: "sms".to_string(),
        max_ii_tried: MAX_II,
    })
}

/// One II attempt (the `try_schedule` function of Figure 4).
#[allow(clippy::too_many_arguments)]
fn try_schedule(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    ddg: &DataDepGraph,
    sets: &MemDepSets,
    mode: Mode,
    assignment: AssignmentPolicy,
    profile: Option<&Profile>,
    ii: u32,
) -> Option<Schedule> {
    let mut a = Attempt {
        loop_,
        cfg,
        ddg,
        sets,
        mode,
        assignment,
        profile,
        ii,
        mrt: ModuloReservationTable::new(cfg, ii),
        placed: vec![None; loop_.ops.len()],
        copies: Vec::new(),
        copy_index: HashMap::new(),
        replicas: Vec::new(),
        // ➊ num_free_L0_entries
        free_l0: FreeEntries::new(cfg),
        l0_assigned: vec![false; loop_.ops.len()],
        recommended: vec![None; loop_.ops.len()], // ➌
        set_solutions: HashMap::new(),
        static_slack: vec![0; loop_.ops.len()],
    };

    // slack under this II with optimistic latencies (precomputed so the
    // closure does not hold a borrow of the attempt state)
    let opt_lats: Vec<u32> = (0..loop_.ops.len())
        .map(|i| a.optimistic_latency(OpId(i as u32)))
        .collect();
    let opt = |op: OpId| opt_lats[op.index()];
    let timing = ddg.asap_alap(ii, opt)?;
    for i in 0..loop_.ops.len() {
        a.static_slack[i] = timing.slack(OpId(i as u32));
    }

    // ➋ initial latency assignment: N·NE most critical candidates
    if let Mode::L0 { mark, .. } = mode {
        a.reassign_latencies(mark);
    }

    // step 2 ordering
    let order = sms_order(ddg, ii, opt);

    for op in order {
        let o = loop_.op(op);
        // ➍ coherence treatment for mixed sets
        if let Mode::L0 { policy, .. } = mode {
            if o.kind.is_mem() {
                if let Some(si) = sets.set_of(op) {
                    if sets.set_mixes_loads_and_stores(si, loop_)
                        && !a.set_solutions.contains_key(&si)
                    {
                        let has_l0_load = sets.sets()[si]
                            .iter()
                            .any(|&m| loop_.op(m).is_load() && a.l0_assigned[m.index()]);
                        let free_total =
                            a.free_l0.total().map_or(usize::MAX, |t| t.max(0) as usize);
                        let sol = coherence::decide(policy, has_l0_load, free_total);
                        if matches!(sol, CoherenceSolution::Nl0) {
                            for &m in &sets.sets()[si] {
                                a.l0_assigned[m.index()] = false;
                            }
                        }
                        a.set_solutions.insert(si, sol);
                    }
                }
            }
        }

        // ➎➏➐ try clusters in order
        let clusters = a.cluster_order(op);
        let mut placed = false;
        for c in clusters {
            if a.try_place(op, c) {
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }

        // ➑ mark related instructions
        a.mark_related(op);

        // ➒ consume the entries this load occupies
        if let Mode::L0 { .. } = mode {
            let d = a.placed[op.index()].expect("just placed");
            if o.is_load() && d.lat == a.l0_lat() {
                a.free_l0.take(d.cluster, a.entry_cost(op));
            }
        }

        // ➓ reassign latencies from remaining entries + new slack
        if let Mode::L0 { mark, .. } = mode {
            a.reassign_latencies(mark);
        }
    }

    // register pressure check
    let max_live = a.max_live();
    if max_live.iter().any(|&m| m as usize > cfg.regs_per_cluster) {
        return None;
    }

    Some(finish_schedule(
        loop_,
        cfg,
        ddg,
        ii,
        a.placed,
        a.copies,
        a.copy_index,
        a.replicas,
        max_live,
    ))
}

/// Turns a complete draft placement into a [`Schedule`]: normalizes flat
/// times to start at 0, computes per-load `use_distance`, and attaches the
/// register-pressure estimate. Shared by the SMS engine and the exact
/// backend so both produce structurally identical schedules.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_schedule(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    ddg: &DataDepGraph,
    ii: u32,
    mut placed: Vec<Option<Draft>>,
    mut copies: Vec<CopySlot>,
    mut copy_index: HashMap<(OpId, ClusterId), i64>,
    mut replicas: Vec<ReplicaSlot>,
    max_live: Vec<u32>,
) -> Schedule {
    // Normalize: shift the flat schedule so the earliest op starts at 0
    // (slot assignments are modulo II, so a uniform shift by a multiple of
    // II preserves every reservation; shifting by the exact min also works
    // because reservations are only ever *read* modulo II from here on).
    let min_t = placed
        .iter()
        .flatten()
        .map(|d| d.t)
        .chain(copies.iter().map(|c| c.t))
        .min()
        .unwrap_or(0);
    if min_t != 0 {
        // keep slot alignment: shift by a multiple of II covering min_t
        let ii_i = ii as i64;
        let shift = (-min_t).div_euclid(ii_i) * ii_i + if (-min_t) % ii_i != 0 { ii_i } else { 0 };
        for d in placed.iter_mut().flatten() {
            d.t += shift;
        }
        for c in copies.iter_mut() {
            c.t += shift;
        }
        for r in replicas.iter_mut() {
            r.t += shift;
        }
        let keys: Vec<_> = copy_index.keys().copied().collect();
        for k in keys {
            *copy_index.get_mut(&k).expect("key exists") += shift;
        }
    }

    // Build the schedule.
    let mut placements = Vec::with_capacity(loop_.ops.len());
    for (i, d) in placed.iter().enumerate() {
        let d = d.expect("all ops placed");
        placements.push(Placement {
            op: OpId(i as u32),
            cluster: d.cluster,
            t: d.t,
            assumed_latency: d.lat,
            hints: MemHints::no_access(),
            use_distance: None,
        });
    }
    // use_distance: earliest scheduled need of each value
    let ii_i = ii as i64;
    for i in 0..loop_.ops.len() {
        let op = OpId(i as u32);
        if !loop_.op(op).is_load() {
            continue;
        }
        let t_op = placements[i].t;
        let mut dist: Option<i64> = None;
        for e in ddg.succ_edges(op) {
            if e.kind.is_mem() || e.dst == op {
                continue;
            }
            let dd = &placements[e.dst.index()];
            let d = if dd.cluster == placements[i].cluster {
                dd.t + ii_i * e.distance as i64 - t_op
            } else {
                match copy_index.get(&(op, dd.cluster)) {
                    Some(&copy_t) => copy_t - t_op,
                    None => dd.t + ii_i * e.distance as i64 - t_op,
                }
            };
            dist = Some(dist.map_or(d, |x: i64| x.min(d)));
        }
        placements[i].use_distance = dist.map(|d| d.max(0) as u32);
    }

    let mut schedule = Schedule::new(loop_.clone(), ii, placements, copies);
    schedule.replicas = replicas;
    schedule.max_live = max_live;
    debug_assert_eq!(schedule.validate(cfg), Ok(()));
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    fn run(l: &LoopNest, c: &MachineConfig, mode: Mode) -> Result<Schedule, ScheduleError> {
        run_with(l, c, mode, AssignmentPolicy::ContentionBlind, None)
    }

    #[test]
    fn base_schedules_elementwise() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let s = run(&l, &cfg().without_l0(), Mode::Base { load_latency: 6 }).unwrap();
        assert!(s.ii() >= 1);
        s.validate(&cfg()).unwrap();
        // every op placed
        assert_eq!(s.placements.len(), l.ops.len());
    }

    #[test]
    fn l0_mode_uses_short_latency_for_candidates() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let c = cfg();
        let s = run(
            &l,
            &c,
            Mode::L0 {
                mark: MarkPolicy::Selective,
                policy: CoherencePolicy::Auto,
            },
        )
        .unwrap();
        let load = l.ops.iter().find(|o| o.is_load()).unwrap();
        assert_eq!(s.placement(load.id).assumed_latency, 1);
    }

    #[test]
    fn fir_respects_mem_capacity() {
        // 9 mem ops / 4 mem units -> II >= 3
        let l = LoopBuilder::new("fir8").trip_count(64).fir(8, 2).build();
        let s = run(&l, &cfg().without_l0(), Mode::Base { load_latency: 6 }).unwrap();
        assert!(s.ii() >= 3, "II {} must respect mem pressure", s.ii());
        s.validate(&cfg()).unwrap();
    }

    #[test]
    fn cross_cluster_values_get_copies() {
        // enough int ops that one cluster cannot hold everything
        let l = LoopBuilder::new("wide")
            .trip_count(64)
            .fir(6, 4)
            .int_overhead(8)
            .build();
        let s = run(&l, &cfg().without_l0(), Mode::Base { load_latency: 6 }).unwrap();
        let used: std::collections::HashSet<_> = s.placements.iter().map(|p| p.cluster).collect();
        assert!(used.len() > 1, "workload must spread across clusters");
        s.validate(&cfg()).unwrap();
    }

    #[test]
    fn use_distance_reflects_consumer_gap() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let c = cfg();
        let s = run(
            &l,
            &c,
            Mode::L0 {
                mark: MarkPolicy::Selective,
                policy: CoherencePolicy::Auto,
            },
        )
        .unwrap();
        let load = l.ops.iter().find(|o| o.is_load()).unwrap();
        let p = s.placement(load.id);
        let d = p.use_distance.expect("load feeds the add");
        assert!(
            d >= p.assumed_latency,
            "consumer scheduled after assumed latency"
        );
    }

    #[test]
    fn mixed_set_gets_one_cluster_solution() {
        let l = LoopBuilder::new("slp")
            .trip_count(64)
            .store_load_pair(4)
            .build();
        let c = cfg();
        let s = run(
            &l,
            &c,
            Mode::L0 {
                mark: MarkPolicy::Selective,
                policy: CoherencePolicy::Auto,
            },
        )
        .unwrap();
        // the store and any L0-latency loads of the aliasing set share a
        // cluster
        let store_p = s.placements.iter().find(|p| l.op(p.op).is_store()).unwrap();
        for p in &s.placements {
            if l.op(p.op).is_load() && p.assumed_latency == 1 {
                assert_eq!(
                    p.cluster, store_p.cluster,
                    "1C: L0-latency load must share the store's cluster"
                );
            }
        }
    }

    #[test]
    fn force_psr_creates_replicas() {
        let l = LoopBuilder::new("slp")
            .trip_count(64)
            .store_load_pair(4)
            .build();
        let c = cfg();
        let s = run(
            &l,
            &c,
            Mode::L0 {
                mark: MarkPolicy::Selective,
                policy: CoherencePolicy::ForcePsr,
            },
        )
        .unwrap();
        // one store in the mixed set -> 3 replicas (4 clusters)
        assert_eq!(s.replicas.len(), 3);
        let stores: std::collections::HashSet<_> = s.replicas.iter().map(|r| r.cluster).collect();
        assert_eq!(stores.len(), 3, "replicas in distinct clusters");
        s.validate(&cfg()).unwrap();
    }

    #[test]
    fn word_interleaved_owner_aware_prefers_home() {
        // stride 16 bytes = word_bytes * clusters: static owner exists
        let mut b = LoopBuilder::new("wi").trip_count(64);
        let arr = b.array("a", 4096);
        let acc = vliw_ir::MemAccess {
            array: arr,
            offset_bytes: 4, // word 1 -> cluster 1
            elem_bytes: 4,
            stride: vliw_ir::StridePattern::Affine { stride_bytes: 16 },
        };
        let (_, v) = b.load(acc);
        let (_, r) = b.alu(vliw_ir::OpKind::IntAlu, &[v]);
        let out = b.array("out", 4096);
        b.store(vliw_ir::MemAccess::unit(out, 4, 0), r);
        let l = b.build();
        let s = run(
            &l,
            &cfg().without_l0(),
            Mode::WordInterleaved {
                owner_aware: true,
                local_latency: 2,
                remote_latency: 6,
                word_bytes: 4,
            },
        )
        .unwrap();
        let load = l.ops.iter().find(|o| o.is_load()).unwrap();
        let p = s.placement(load.id);
        assert_eq!(p.cluster.index(), 1, "owner-aware heuristic homes the load");
        assert_eq!(p.assumed_latency, 2);
    }

    #[test]
    fn unrolled_good_strides_spread_over_clusters() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let u = vliw_ir::unroll(&l, 4);
        let c = cfg();
        let s = run(
            &u,
            &c,
            Mode::L0 {
                mark: MarkPolicy::Selective,
                policy: CoherencePolicy::Auto,
            },
        )
        .unwrap();
        // the four copies of the load should land in four distinct clusters
        let load_clusters: std::collections::HashSet<_> = s
            .placements
            .iter()
            .filter(|p| u.op(p.op).is_load())
            .map(|p| p.cluster)
            .collect();
        assert_eq!(load_clusters.len(), 4, "interleaved siblings spread out");
    }

    #[test]
    fn recurrence_bound_respected() {
        let l = LoopBuilder::new("slp")
            .trip_count(64)
            .store_load_pair(4)
            .build();
        let s = run(&l, &cfg().without_l0(), Mode::Base { load_latency: 6 }).unwrap();
        // carried chain: ld(6) -> alu(1) -> st , st -> ld dist 1 (mem,1)
        assert!(s.ii() >= 8, "II {} must cover the recurrence", s.ii());
    }
}
