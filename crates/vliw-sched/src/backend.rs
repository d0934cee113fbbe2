//! The two scheduler backends: step 3 (cluster assignment + modulo
//! scheduling) of every compile runs one of them, chosen by the
//! request's [`BackendKind`] and dispatched by `BackendKind::schedule`:
//!
//! * [`BackendKind::Sms`] — the paper's SMS-style heuristic
//!   (`engine::run_with`). The default.
//! * [`BackendKind::Exact`] — a branch-and-bound search over
//!   `(cluster, cycle)` placements under modulo-resource (MRT) and
//!   dependence-distance constraints. It starts at the MII and proves
//!   each II infeasible before trying the next, so the II it returns is
//!   minimal under its latency model (see below) — an offline stand-in
//!   for the SMT-solver formulation of "Optimal Software Pipelining
//!   using an SMT-Solver" (PAPERS.md), reporting the per-loop optimality
//!   gap of SMS.
//!
//! Either way the result records the MII it searched from in
//! [`Schedule::mii`] and its optimality claim in [`Schedule::ii_proof`].
//!
//! # The exact backend's model
//!
//! The search is exhaustive over op placements, with three documented
//! approximations (DESIGN.md §7 discusses each):
//!
//! * **Static latencies.** Memory latencies are fixed before the search:
//!   L0 candidates are marked once, by the same rule SMS applies at step
//!   ➋ (`engine::mark_l0` over the whole entry budget; the search
//!   additionally debits a per-cluster entry budget so no cluster's
//!   buffer is oversubscribed), and memory-dependent sets that mix
//!   loads and stores are conservatively given the NL0 treatment —
//!   every member bypasses the buffers, which is coherence-safe without
//!   1C pinning or PSR replication.
//! * **Greedy bus copies.** Inter-cluster copies are placed at the
//!   earliest free bus slot in their legal window; a branch whose copy
//!   finds no slot is pruned. With the paper's four buses per cycle the
//!   bus is essentially never the binding resource.
//! * **Bounded horizon.** Start cycles are searched inside the
//!   dependence window `[ASAP, ALAP + 2·II]` — the usual horizon
//!   discipline of ILP schedulers.
//!
//! Within that model every infeasibility verdict is a real refutation.
//! The search always schedules with SMS first and uses its result as the
//! incumbent, so by construction `MII ≤ exact II ≤ SMS II` — it can only
//! improve on the heuristic, never regress it.

use crate::engine::{self, AssignmentPolicy, FreeEntries, Mode, ScheduleError};
use crate::mrt::ModuloReservationTable;
use crate::schedule::{CopySlot, IiProof, Schedule};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use vliw_ir::{DataDepGraph, LoopNest, MemDepSets, OpId};
use vliw_machine::{ClusterId, MachineConfig, Profile};

/// The exact search's per-II budget in *placement attempts* (each one
/// O(edges) of work): large enough to settle the synthetic Mediabench
/// suite's L0 loops, small enough that a pathological loop degrades to
/// [`IiProof::Truncated`] instead of hanging the sweep.
pub const DEFAULT_NODE_BUDGET: u64 = 200_000;

/// Serializable backend selector — the experiment-grid axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The paper's SMS-style heuristic (the default).
    #[default]
    Sms,
    /// The exact branch-and-bound search, with [`DEFAULT_NODE_BUDGET`].
    Exact,
}

impl BackendKind {
    /// Every backend, SMS first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sms, BackendKind::Exact];

    /// The backend's display label (error messages, experiment columns,
    /// serialized artifacts).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sms => "sms",
            BackendKind::Exact => "exact",
        }
    }

    /// Schedules one (specialized, possibly unrolled) loop for `cfg`
    /// under the architecture-specific `mode`, the cluster-assignment
    /// policy and an optional profile
    /// ([`AssignmentPolicy::ContentionBlind`] without a profile
    /// reproduces the paper's distance-blind ordering bit-exactly; a
    /// profile closes the profile-guided loop through the
    /// [`cost`](crate::cost) functions).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when no feasible II exists up to the
    /// search cap or the machine configuration is invalid.
    pub(crate) fn schedule(
        self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
        mode: Mode,
        assignment: AssignmentPolicy,
        profile: Option<&Profile>,
    ) -> Result<Schedule, ScheduleError> {
        match self {
            BackendKind::Sms => engine::run_with(loop_, cfg, mode, assignment, profile),
            BackendKind::Exact => {
                exact_schedule(loop_, cfg, mode, assignment, profile, DEFAULT_NODE_BUDGET)
            }
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The exact backend: finds the smallest II feasible under its latency
/// model, proving per-II infeasibility on the way up from the MII (see
/// the module docs for the model's scope). `node_budget` caps the
/// placement attempts per candidate II; an II whose proof exceeds it is
/// skipped unproven and the result is marked [`IiProof::Truncated`].
pub(crate) fn exact_schedule(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    mode: Mode,
    assignment: AssignmentPolicy,
    profile: Option<&Profile>,
    node_budget: u64,
) -> Result<Schedule, ScheduleError> {
    // SMS provides the incumbent: an upper bound and a fallback, so
    // the exact backend can only improve on the heuristic. The
    // assignment policy and profile bias the incumbent (and the
    // static L0 marking below); the DFS itself already enumerates
    // every (cluster, cycle) placement, so its verdicts are
    // policy-independent.
    let sms = engine::run_with(loop_, cfg, mode, assignment, profile)
        .map_err(|e| e.with_backend(BackendKind::Exact.label()))?;
    if sms.ii() <= sms.mii {
        return Ok(sms); // already proved optimal by hitting the MII
    }

    let ddg = DataDepGraph::build(loop_);
    // Ops in mixed load/store sets get the NL0 treatment (II-independent,
    // so computed once for the whole II sweep).
    let banned = mixed_set_members(loop_);
    let mut proved_all_below = true;
    for ii in sms.mii..sms.ii() {
        match Search::run(loop_, cfg, &ddg, &banned, mode, profile, ii, node_budget) {
            Outcome::Found(schedule) => {
                let mut schedule = *schedule;
                schedule.mii = sms.mii;
                schedule.ii_proof = if proved_all_below {
                    IiProof::Optimal
                } else {
                    IiProof::Truncated
                };
                debug_assert_eq!(
                    schedule.validate(cfg),
                    Ok(()),
                    "exact backend emitted an illegal schedule for '{}'",
                    schedule.loop_.name
                );
                return Ok(schedule);
            }
            Outcome::Infeasible => {}
            Outcome::Budget => proved_all_below = false,
        }
    }

    // No II below the heuristic's is feasible (or provable): the SMS
    // schedule stands, now with a settled proof status.
    let mut sms = sms;
    sms.ii_proof = if proved_all_below {
        IiProof::Optimal
    } else {
        IiProof::Truncated
    };
    Ok(sms)
}

/// Per-op latency in the exact model: `base` everywhere except in the
/// op's statically-owned home cluster (word-interleaved heuristic 2).
#[derive(Debug, Clone, Copy)]
struct LatSpec {
    base: u32,
    home: Option<(ClusterId, u32)>,
}

impl LatSpec {
    fn fixed(base: u32) -> Self {
        LatSpec { base, home: None }
    }

    fn in_cluster(&self, cluster: ClusterId) -> u32 {
        match self.home {
            Some((h, lat)) if h == cluster => lat,
            _ => self.base,
        }
    }

    /// The smallest latency any cluster offers (window computation).
    fn best(&self) -> u32 {
        self.home
            .map(|(_, l)| l.min(self.base))
            .unwrap_or(self.base)
    }
}

/// Membership in a memory-dependent set that mixes loads and stores —
/// those ops get the coherence-safe NL0 treatment in the exact model.
fn mixed_set_members(loop_: &LoopNest) -> Vec<bool> {
    let sets = MemDepSets::build(loop_);
    let mut banned = vec![false; loop_.ops.len()];
    for (si, members) in sets.sets().iter().enumerate() {
        if sets.set_mixes_loads_and_stores(si, loop_) {
            for &m in members {
                banned[m.index()] = true;
            }
        }
    }
    banned
}

/// Fixes the exact model's per-op latencies before the search (see the
/// module docs: static L0 marking, NL0 for mixed sets, per-home-cluster
/// word-interleaved latencies). Also returns each op's L0 entry cost
/// (nonzero exactly for the loads assumed at the L0 latency), which the
/// search debits against the per-cluster entry budget.
fn lat_model(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    ddg: &DataDepGraph,
    banned: &[bool],
    mode: Mode,
    profile: Option<&Profile>,
    ii: u32,
) -> (Vec<LatSpec>, Vec<i64>) {
    let n = loop_.ops.len();
    let mut lats = Vec::with_capacity(n);
    let mut l0_assigned = vec![false; n];
    if let Mode::L0 { mark, .. } = mode {
        // Step ➋ applied once, with SMS's optimistic latencies and the
        // full entry budget; mixed-set members are NL0.
        let opt = |op: OpId| engine::optimistic_latency(loop_, cfg, mode, op);
        let slack: Vec<i64> = match ddg.asap_alap(ii, opt) {
            Some(timing) => (0..n).map(|i| timing.slack(OpId(i as u32))).collect(),
            None => vec![0; n],
        };
        let budget = FreeEntries::new(cfg).total();
        let eligible = |op: OpId| !banned[op.index()];
        let marks = engine::mark_l0(loop_, cfg, ii, mark, profile, &slack, budget, eligible);
        for (op, marked) in marks {
            l0_assigned[op.index()] = marked;
        }
    }
    for op in &loop_.ops {
        let spec = match &op.kind {
            vliw_ir::OpKind::Load(_) => match mode {
                Mode::Base { load_latency } => LatSpec::fixed(load_latency),
                Mode::L0 { .. } => {
                    if l0_assigned[op.id.index()] {
                        LatSpec::fixed(cfg.l0.map(|l| l.latency).unwrap_or(1))
                    } else {
                        LatSpec::fixed(cfg.l1.latency)
                    }
                }
                Mode::WordInterleaved {
                    owner_aware,
                    local_latency,
                    remote_latency,
                    word_bytes,
                } => {
                    if owner_aware {
                        let home = engine::preferred_owner(loop_, op.id, word_bytes, cfg.clusters)
                            .map(|h| (h, local_latency));
                        LatSpec {
                            base: remote_latency,
                            home,
                        }
                    } else {
                        LatSpec::fixed(remote_latency)
                    }
                }
            },
            vliw_ir::OpKind::Store(_) => LatSpec::fixed(1),
            _ => LatSpec::fixed(op.default_latency()),
        };
        lats.push(spec);
    }
    let costs: Vec<i64> = (0..n)
        .map(|i| {
            if l0_assigned[i] {
                engine::entry_cost(loop_, cfg, ii, OpId(i as u32))
            } else {
                0
            }
        })
        .collect();
    (lats, costs)
}

/// Result of one per-II search.
enum Outcome {
    /// A feasible schedule exists at this II.
    Found(Box<Schedule>),
    /// The search space was exhausted: this II is infeasible under the
    /// exact model.
    Infeasible,
    /// The node budget ran out before the proof settled.
    Budget,
}

/// Inner DFS status (separates "subtree exhausted" from "out of budget").
enum Step {
    Found,
    Exhausted,
    Budget,
}

/// What `try_place` reserved, for backtracking.
struct Undo {
    op: OpId,
    fu: Option<(ClusterId, vliw_machine::FuKind, i64)>,
    bus_ts: Vec<i64>,
    new_copies: usize,
}

/// One branch-and-bound attempt at a fixed II.
struct Search<'a> {
    loop_: &'a LoopNest,
    cfg: &'a MachineConfig,
    ddg: &'a DataDepGraph,
    ii: u32,
    lats: Vec<LatSpec>,
    order: Vec<OpId>,
    win_lo: Vec<i64>,
    win_hi: Vec<i64>,
    mrt: ModuloReservationTable,
    placed: Vec<Option<engine::Draft>>,
    cluster_pop: Vec<u32>,
    copies: Vec<CopySlot>,
    copy_index: HashMap<(OpId, ClusterId), i64>,
    /// Per-op L0 entry cost (0 for ops not assumed at the L0 latency).
    l0_cost: Vec<i64>,
    /// Remaining L0 entries per cluster (SMS's `free_l0` bound).
    free_l0: FreeEntries,
    nodes: u64,
    budget: u64,
    /// `false` when home clusters make clusters distinguishable a priori
    /// (disables the empty-cluster symmetry pruning).
    symmetric: bool,
}

impl<'a> Search<'a> {
    #[allow(clippy::too_many_arguments)]
    fn run(
        loop_: &'a LoopNest,
        cfg: &'a MachineConfig,
        ddg: &'a DataDepGraph,
        banned: &[bool],
        mode: Mode,
        profile: Option<&Profile>,
        ii: u32,
        budget: u64,
    ) -> Outcome {
        let n = loop_.ops.len();
        let (lats, l0_cost) = lat_model(loop_, cfg, ddg, banned, mode, profile, ii);

        // Self recurrences under the model's *best* latency: a sound
        // refutation needs only the most optimistic assignment to fail.
        let ii_i = ii as i64;
        for e in ddg.edges() {
            if e.src == e.dst && !e.kind.is_mem() {
                let lat = lats[e.src.index()].best() as i64;
                if lat > ii_i * e.distance as i64 {
                    return Outcome::Infeasible;
                }
            }
        }

        // Dependence windows under the best-case latencies (ASAP is a true
        // lower bound; ALAP is extended by two extra stages of resource
        // slack — the horizon discipline documented in the module docs).
        let best = |op: OpId| lats[op.index()].best();
        let Some(timing) = ddg.asap_alap(ii, best) else {
            return Outcome::Infeasible; // a recurrence cannot fit this II
        };
        let win_lo: Vec<i64> = (0..n).map(|i| timing.asap[i]).collect();
        let win_hi: Vec<i64> = (0..n).map(|i| timing.alap[i] + 2 * ii_i).collect();

        // Static fail-first order: tightest dependence window first.
        let mut order: Vec<OpId> = (0..n).map(|i| OpId(i as u32)).collect();
        order.sort_by_key(|&op| (win_hi[op.index()] - win_lo[op.index()], op.0));

        let symmetric = !lats.iter().any(|l| l.home.is_some());
        let mut search = Search {
            loop_,
            cfg,
            ddg,
            ii,
            lats,
            order,
            win_lo,
            win_hi,
            mrt: ModuloReservationTable::new(cfg, ii),
            placed: vec![None; n],
            cluster_pop: vec![0; cfg.clusters],
            copies: Vec::new(),
            copy_index: HashMap::new(),
            l0_cost,
            free_l0: FreeEntries::new(cfg),
            nodes: 0,
            budget,
            symmetric,
        };
        match search.dfs(0) {
            Step::Found => {
                let max_live =
                    engine::max_live(loop_, ddg, cfg, ii, &search.placed, &search.copy_index);
                Outcome::Found(Box::new(engine::finish_schedule(
                    loop_,
                    cfg,
                    ddg,
                    ii,
                    search.placed,
                    search.copies,
                    search.copy_index,
                    Vec::new(),
                    max_live,
                )))
            }
            Step::Exhausted => Outcome::Infeasible,
            Step::Budget => Outcome::Budget,
        }
    }

    fn dfs(&mut self, k: usize) -> Step {
        if k == self.order.len() {
            // Global register-pressure check at the leaf (same bound SMS
            // enforces); a violation just exhausts this branch.
            let live = engine::max_live(
                self.loop_,
                self.ddg,
                self.cfg,
                self.ii,
                &self.placed,
                &self.copy_index,
            );
            if live.iter().any(|&m| m as usize > self.cfg.regs_per_cluster) {
                return Step::Exhausted;
            }
            return Step::Found;
        }
        let op = self.order[k];
        let Some((lo, hi)) = self.bounds(op) else {
            return Step::Exhausted;
        };
        for t in lo..=hi {
            let mut tried_fresh_cluster = false;
            for c in ClusterId::all(self.cfg.clusters) {
                // Empty clusters are interchangeable (unless home clusters
                // break the symmetry): trying one refutes them all.
                if self.symmetric && self.cluster_pop[c.index()] == 0 {
                    if tried_fresh_cluster {
                        continue;
                    }
                    tried_fresh_cluster = true;
                }
                // The budget counts *placement attempts* (the unit of real
                // work — each is O(edges)), so wide windows cannot blow
                // past it between checks.
                self.nodes += 1;
                if self.nodes > self.budget {
                    return Step::Budget;
                }
                let Some(undo) = self.try_place(op, c, t) else {
                    continue;
                };
                match self.dfs(k + 1) {
                    Step::Found => return Step::Found,
                    Step::Budget => {
                        self.undo(undo);
                        return Step::Budget;
                    }
                    Step::Exhausted => self.undo(undo),
                }
            }
        }
        Step::Exhausted
    }

    /// The op's start-cycle bounds given every already-placed neighbour
    /// (cluster-independent part; `try_place` enforces the rest).
    fn bounds(&self, op: OpId) -> Option<(i64, i64)> {
        let ii = self.ii as i64;
        let mut lo = self.win_lo[op.index()];
        let mut hi = self.win_hi[op.index()];
        for e in self.ddg.pred_edges(op) {
            if e.src == op {
                continue;
            }
            if let Some(src) = self.placed[e.src.index()] {
                let elat = if e.kind.is_mem() { 1 } else { src.lat as i64 };
                lo = lo.max(src.t + elat - ii * e.distance as i64);
            }
        }
        let own_best = self.lats[op.index()].best() as i64;
        for e in self.ddg.succ_edges(op) {
            if e.dst == op {
                continue;
            }
            if let Some(dst) = self.placed[e.dst.index()] {
                let elat = if e.kind.is_mem() { 1 } else { own_best };
                hi = hi.min(dst.t + ii * e.distance as i64 - elat);
            }
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// Attempts to place `op` at exactly `(cluster, t)`, reserving its
    /// functional unit and any inter-cluster copies. Returns the undo
    /// token on success.
    fn try_place(&mut self, op: OpId, cluster: ClusterId, t: i64) -> Option<Undo> {
        let o = self.loop_.op(op);
        let ii = self.ii as i64;
        let bus_lat = self.cfg.buses.latency as i64;
        let lat = self.lats[op.index()].in_cluster(cluster) as i64;

        let fu_kind = o.kind.fu_kind();
        if let Some(kind) = fu_kind {
            if !self.mrt.fu_free(cluster, kind, t) {
                return None;
            }
        }

        // Per-cluster L0 capacity: an L0-assumed load must fit in its
        // cluster's remaining entry budget (mirrors SMS's `free_l0`).
        let l0_cost = self.l0_cost[op.index()];
        if l0_cost > 0 && !self.free_l0.fits(cluster, l0_cost) {
            return None;
        }

        // Copies needed for this placement: (producer, destination, bus
        // window). One physical copy serves every consumer of a value in
        // a cluster, so duplicate wants *merge* — the window tightens to
        // the latest `earliest` and the earliest `deadline`.
        let mut wanted: Vec<(OpId, ClusterId, i64, i64)> = Vec::new();
        let want = |wanted: &mut Vec<(OpId, ClusterId, i64, i64)>,
                    src: OpId,
                    to: ClusterId,
                    earliest: i64,
                    deadline: i64| {
            if let Some(w) = wanted.iter_mut().find(|w| w.0 == src && w.1 == to) {
                w.2 = w.2.max(earliest);
                w.3 = w.3.min(deadline);
            } else {
                wanted.push((src, to, earliest, deadline));
            }
        };
        for e in self.ddg.pred_edges(op) {
            if e.src == op {
                continue;
            }
            let Some(src) = self.placed[e.src.index()] else {
                continue;
            };
            let dist = ii * e.distance as i64;
            if e.kind.is_mem() {
                if t + dist < src.t + 1 {
                    return None;
                }
                continue;
            }
            if src.cluster == cluster {
                if t + dist < src.t + src.lat as i64 {
                    return None;
                }
            } else if let Some(&copy_t) = self.copy_index.get(&(e.src, cluster)) {
                if t + dist < copy_t + bus_lat {
                    return None;
                }
            } else {
                want(
                    &mut wanted,
                    e.src,
                    cluster,
                    src.t + src.lat as i64,
                    t + dist - bus_lat,
                );
            }
        }
        for e in self.ddg.succ_edges(op) {
            if e.dst == op {
                continue;
            }
            let Some(dst) = self.placed[e.dst.index()] else {
                continue;
            };
            let dist = ii * e.distance as i64;
            if e.kind.is_mem() {
                if dst.t + dist < t + 1 {
                    return None;
                }
                continue;
            }
            if dst.cluster == cluster {
                if dst.t + dist < t + lat {
                    return None;
                }
            } else {
                want(
                    &mut wanted,
                    op,
                    dst.cluster,
                    t + lat,
                    dst.t + dist - bus_lat,
                );
            }
        }

        // Reserve: FU first, then the copies (greedy earliest bus slot).
        if let Some(kind) = fu_kind {
            self.mrt.reserve_fu(cluster, kind, t);
        }
        let mut undo = Undo {
            op,
            fu: fu_kind.map(|k| (cluster, k, t)),
            bus_ts: Vec::new(),
            new_copies: 0,
        };
        for (src, to_cluster, earliest, deadline) in wanted {
            match self.mrt.find_bus_slot(earliest, deadline) {
                Some(copy_t) => {
                    self.mrt.reserve_bus(copy_t);
                    undo.bus_ts.push(copy_t);
                    self.copies.push(CopySlot {
                        from_op: src,
                        to_cluster,
                        t: copy_t,
                    });
                    self.copy_index.insert((src, to_cluster), copy_t);
                    undo.new_copies += 1;
                }
                None => {
                    self.undo(undo);
                    return None;
                }
            }
        }

        self.placed[op.index()] = Some(engine::Draft {
            cluster,
            t,
            lat: lat as u32,
        });
        self.cluster_pop[cluster.index()] += 1;
        self.free_l0.take(cluster, l0_cost);
        Some(undo)
    }

    /// Rolls back one `try_place` (also used for the failure path, where
    /// the draft was not yet committed).
    fn undo(&mut self, undo: Undo) {
        if let Some(d) = self.placed[undo.op.index()].take() {
            self.cluster_pop[d.cluster.index()] -= 1;
            self.free_l0.take(d.cluster, -self.l0_cost[undo.op.index()]);
        }
        for _ in 0..undo.new_copies {
            let c = self.copies.pop().expect("copy pushed by try_place");
            self.copy_index.remove(&(c.from_op, c.to_cluster));
        }
        for bt in undo.bus_ts {
            self.mrt.release_bus(bt);
        }
        if let Some((c, k, t)) = undo.fu {
            self.mrt.release_fu(c, k, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::CoherencePolicy;
    use crate::engine::MarkPolicy;
    use vliw_ir::LoopBuilder;

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    fn l0_mode() -> Mode {
        Mode::L0 {
            mark: MarkPolicy::Selective,
            policy: CoherencePolicy::Auto,
        }
    }

    fn schedule(kind: BackendKind, l: &LoopNest, c: &MachineConfig, mode: Mode) -> Schedule {
        kind.schedule(l, c, mode, AssignmentPolicy::default(), None)
            .unwrap()
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        let labels: Vec<&str> = BackendKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["sms", "exact"]);
    }

    #[test]
    fn backend_kind_round_trips_through_serde() {
        for kind in BackendKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            let back: BackendKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn exact_equals_sms_when_sms_hits_the_mii() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let c = cfg();
        let sms = schedule(BackendKind::Sms, &l, &c, l0_mode());
        assert_eq!(sms.ii(), sms.mii, "precondition: SMS achieves the MII");
        let exact = schedule(BackendKind::Exact, &l, &c, l0_mode());
        assert_eq!(exact.ii(), sms.ii());
        assert_eq!(exact.ii_proof, IiProof::Optimal);
    }

    #[test]
    fn exact_ii_bounded_by_mii_and_sms_on_a_tight_loop() {
        // 9 memory ops over 4 memory units plus a carried recurrence:
        // plenty of room for the heuristic to be off the floor.
        let l = LoopBuilder::new("fir8")
            .trip_count(64)
            .fir(8, 2)
            .int_overhead(3)
            .build();
        let c = cfg();
        let sms = schedule(BackendKind::Sms, &l, &c, l0_mode());
        let exact = schedule(BackendKind::Exact, &l, &c, l0_mode());
        assert!(exact.ii() >= exact.mii, "II below the MII is impossible");
        assert!(
            exact.ii() <= sms.ii(),
            "exact {} must not regress SMS {}",
            exact.ii(),
            sms.ii()
        );
        exact.validate(&c).unwrap();
    }

    #[test]
    fn exact_schedules_are_valid_on_every_mode() {
        let l = LoopBuilder::new("slp")
            .trip_count(64)
            .store_load_pair(4)
            .build();
        let c = cfg();
        let wi = vliw_machine::WordInterleavedConfig::micro2003();
        let modes = [
            Mode::Base { load_latency: 6 },
            l0_mode(),
            Mode::WordInterleaved {
                owner_aware: true,
                local_latency: wi.local_latency,
                remote_latency: wi.remote_latency,
                word_bytes: wi.word_bytes as u64,
            },
        ];
        for mode in modes {
            let base_cfg = if matches!(mode, Mode::L0 { .. }) {
                c.clone()
            } else {
                c.without_l0()
            };
            let s = schedule(BackendKind::Exact, &l, &base_cfg, mode);
            s.validate(&base_cfg).unwrap();
            assert!(s.ii() >= s.mii);
        }
    }

    #[test]
    fn truncated_budget_still_returns_a_schedule() {
        let l = LoopBuilder::new("fir8")
            .trip_count(64)
            .fir(8, 2)
            .int_overhead(3)
            .build();
        let c = cfg();
        let sms = schedule(BackendKind::Sms, &l, &c, l0_mode());
        let s = exact_schedule(&l, &c, l0_mode(), AssignmentPolicy::default(), None, 1).unwrap();
        assert!(s.ii() <= sms.ii(), "fallback never regresses SMS");
        if s.ii() > s.mii {
            assert_eq!(s.ii_proof, IiProof::Truncated);
        }
    }

    #[test]
    fn no_feasible_ii_error_names_loop_and_backend() {
        let e = ScheduleError::NoFeasibleIi {
            loop_name: "tight".into(),
            backend: "exact".into(),
            max_ii_tried: 512,
        };
        let msg = e.to_string();
        assert!(msg.contains("'tight'"), "{msg}");
        assert!(msg.contains("exact"), "{msg}");
        assert!(msg.contains("512"), "{msg}");
    }
}
