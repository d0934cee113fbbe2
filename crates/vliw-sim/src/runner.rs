//! The execution loop: one drain loop plus a steady-state fast-forward.
//!
//! Arbitration state lives on occupancy wheels inside the memory models,
//! which retire stale reservations as the clock passes them, so the loop
//! does no per-cycle sweeps. Its only periodic work is
//! [`MemoryModel::retire`], fired whenever the drain clock reaches a
//! `next_retire` cycle: one comparison per issue slot, a retire roughly
//! every [`REPLAY_HORIZON`] cycles.
//!
//! On top of the replay, the runner detects *periodic steady state*
//! (DESIGN.md §14): when the model's translation-invariant
//! [`state_digest`](MemoryModel::state_digest) recurs at loop
//! boundaries with matching per-period result deltas, the remaining
//! whole periods are accounted in closed form — counters multiplied in,
//! the model's clock advanced by [`advance_clock`](MemoryModel::advance_clock)
//! — and replay resumes for the residue. The batching is bit-exact;
//! [`simulate_replay`] keeps it off, and the equivalence suites pin
//! fast-forward-on against it.

use crate::result::{OpStall, SimResult};
use std::ops::Range;
use vliw_ir::{AddressStream, OpId};
use vliw_machine::{ClusterId, MachineConfig, NetLoad};
use vliw_mem::{MemRequest, MemStats, MemoryModel, ReqKind, REPLAY_HORIZON};
use vliw_sched::Schedule;

/// One per-iteration memory event, precomputed from the schedule.
#[derive(Debug, Clone)]
struct Event {
    /// Flat issue time within the schedule.
    t: i64,
    cluster: ClusterId,
    kind: ReqKind,
    size: u8,
    hints: vliw_machine::MemHints,
    stream: AddressStream,
    /// Iterations of lookahead for the address (explicit prefetches).
    lookahead: u64,
    /// Cycles until the earliest consumer needs the value (`None`: the
    /// value is never consumed in the schedule — no stall possible).
    use_distance: Option<u32>,
    /// Op identity (per-op stall attribution in [`SimResult::op_stalls`]).
    op: OpId,
}

/// Builds the per-iteration event list, sorted by issue time, plus the
/// index range of each issue slot (maximal run of equal `t`). The slot
/// grouping used to be re-derived by scanning for `events[hi].t == t` on
/// every iteration of every visit; it is a pure function of the schedule,
/// so it is computed exactly once here.
fn build_events(schedule: &Schedule) -> (Vec<Event>, Vec<Range<usize>>) {
    let loop_ = &schedule.loop_;
    let mut events = Vec::new();
    for p in &schedule.placements {
        let op = loop_.op(p.op);
        let Some(acc) = op.kind.mem_access() else {
            continue;
        };
        let kind = if op.is_load() {
            ReqKind::Load
        } else if op.is_store() {
            ReqKind::Store
        } else {
            continue; // Prefetch IR ops are represented via PrefetchSlots
        };
        events.push(Event {
            t: p.t,
            cluster: p.cluster,
            kind,
            size: acc.elem_bytes,
            hints: p.hints,
            stream: AddressStream::new(loop_, p.op),
            lookahead: 0,
            use_distance: if op.is_load() { p.use_distance } else { None },
            op: p.op,
        });
    }
    for pf in &schedule.prefetches {
        let acc = loop_
            .op(pf.for_op)
            .kind
            .mem_access()
            .expect("prefetch covers a memory op");
        events.push(Event {
            t: pf.t,
            cluster: pf.cluster,
            kind: ReqKind::Prefetch,
            size: acc.elem_bytes,
            hints: vliw_machine::MemHints::no_access(),
            stream: AddressStream::new(loop_, pf.for_op),
            lookahead: pf.lookahead as u64,
            use_distance: None,
            op: pf.for_op,
        });
    }
    for r in &schedule.replicas {
        let acc = loop_
            .op(r.for_op)
            .kind
            .mem_access()
            .expect("replica of a store");
        events.push(Event {
            t: r.t,
            cluster: r.cluster,
            kind: ReqKind::StoreReplica,
            size: acc.elem_bytes,
            hints: vliw_machine::MemHints::no_access(),
            stream: AddressStream::new(loop_, r.for_op),
            lookahead: 0,
            use_distance: None,
            op: r.for_op,
        });
    }
    events.sort_by_key(|e| e.t);
    let mut slots = Vec::new();
    let mut lo = 0;
    while lo < events.len() {
        let mut hi = lo + 1;
        while hi < events.len() && events[hi].t == events[lo].t {
            hi += 1;
        }
        slots.push(lo..hi);
        lo = hi;
    }
    (events, slots)
}

// ---------------------------------------------------------------------
// Steady-state fast-forward (DESIGN.md §14)
// ---------------------------------------------------------------------

/// How many iteration boundaries the iteration-level detector digests
/// before giving up on a visit. Bounds the per-iteration digest cost to
/// a warm-up prefix; visit-level detection has no such cap (there are
/// few visits and one digest per visit is cheap).
const ITER_WINDOW: u64 = 80;

/// Everything recorded at one loop boundary: the model's
/// translation-invariant digest plus cumulative *logical* result
/// counters (model counters merged with anything already batched in
/// closed form, so deltas stay correct across an earlier fast-forward).
struct Snapshot {
    digest: u64,
    slip: u64,
    contention: u64,
    link: u64,
    stats: MemStats,
    net: NetLoad,
    op_stalls: Vec<OpStall>,
}

/// The per-period growth of every result counter — the quantity a batch
/// multiplies by the number of skipped periods.
struct PeriodDelta {
    slip: u64,
    contention: u64,
    link: u64,
    stats: MemStats,
    net: NetLoad,
    op_stalls: Vec<OpStall>,
}

/// The per-op stall growth between two cumulative snapshots (`now` and
/// `earlier` both sorted by op; entries only ever grow).
fn op_stall_delta(now: &[OpStall], earlier: &[OpStall]) -> Vec<OpStall> {
    let mut out = Vec::new();
    let mut j = 0;
    for s in now {
        while j < earlier.len() && earlier[j].op < s.op {
            j += 1;
        }
        let (prev_stall, prev_net) = if j < earlier.len() && earlier[j].op == s.op {
            (earlier[j].stall_cycles, earlier[j].network_cycles)
        } else {
            (0, 0)
        };
        if s.stall_cycles > prev_stall {
            out.push(OpStall {
                op: s.op,
                stall_cycles: s.stall_cycles - prev_stall,
                network_cycles: s.network_cycles - prev_net,
            });
        }
    }
    out
}

/// `true` when the boundary-to-boundary deltas ending at `a` and at `c`
/// are identical (indices into `h`, both ≥ 1).
fn delta_eq(h: &[Snapshot], a: usize, c: usize) -> bool {
    let (na, ea) = (&h[a], &h[a - 1]);
    let (nc, ec) = (&h[c], &h[c - 1]);
    na.slip - ea.slip == nc.slip - ec.slip
        && na.contention - ea.contention == nc.contention - ec.contention
        && na.link - ea.link == nc.link - ec.link
        && na.stats.delta_since(&ea.stats) == nc.stats.delta_since(&ec.stats)
        && na.net.delta_since(&ea.net) == nc.net.delta_since(&ec.net)
        && op_stall_delta(&na.op_stalls, &ea.op_stalls)
            == op_stall_delta(&nc.op_stalls, &ec.op_stalls)
}

/// Ring of boundary snapshots plus the detection rule: fire at boundary
/// `b` for the smallest legal period `p` (a multiple of `stride`) with
/// `b >= 2p`, `digest[b] == digest[b-p]`, and every delta of the last
/// period matching the period before it. The digest match alone already
/// implies an identical continuation (the digest covers every piece of
/// timing-relevant state); the delta-sequence check guards against hash
/// collisions and simultaneously validates the exact deltas the batch
/// will multiply.
struct Detector {
    history: Vec<Snapshot>,
    stride: u64,
    limit: usize,
    done: bool,
    fired: bool,
}

impl Detector {
    fn new(stride: u64, limit: usize) -> Self {
        Detector {
            history: Vec::new(),
            stride,
            limit,
            done: false,
            fired: false,
        }
    }

    /// `true` while the detector still wants boundary snapshots.
    fn active(&self) -> bool {
        !self.done
    }

    /// Records a boundary; returns `Some(period)` when periodicity is
    /// established at this boundary.
    fn record(&mut self, snap: Snapshot) -> Option<u64> {
        if self.done {
            return None;
        }
        self.history.push(snap);
        let b = self.history.len() - 1;
        let mut p = self.stride as usize;
        while 2 * p <= b {
            if self.matches(b, p) {
                self.fired = true;
                return Some(p as u64);
            }
            p += self.stride as usize;
        }
        if self.history.len() > self.limit {
            self.done = true;
        }
        None
    }

    fn matches(&self, b: usize, p: usize) -> bool {
        let h = &self.history;
        h[b].digest == h[b - p].digest && (0..p).all(|j| delta_eq(h, b - j, b - p - j))
    }

    /// The deltas of the just-confirmed period (the last `p` boundaries).
    fn period_delta(&self, p: u64) -> PeriodDelta {
        let b = self.history.len() - 1;
        let now = &self.history[b];
        let then = &self.history[b - p as usize];
        PeriodDelta {
            slip: now.slip - then.slip,
            contention: now.contention - then.contention,
            link: now.link - then.link,
            stats: now.stats.delta_since(&then.stats),
            net: now.net.delta_since(&then.net),
            op_stalls: op_stall_delta(&now.op_stalls, &then.op_stalls),
        }
    }
}

/// Captures a boundary: the model's digest relative to `base` plus the
/// logical cumulative counters (model counters + closed-form extras).
fn take_snapshot(
    model: &dyn MemoryModel,
    base: u64,
    slip: u64,
    result: &SimResult,
    stats_extra: &MemStats,
    net_extra: &NetLoad,
) -> Snapshot {
    let mut stats = model.stats().clone();
    stats.merge(stats_extra);
    let mut net = model.network_load().unwrap_or_default();
    net.merge(net_extra);
    Snapshot {
        digest: model.state_digest(base),
        slip,
        contention: result.contention_stall_cycles,
        link: result.link_stall_cycles,
        stats,
        net,
        op_stalls: result.op_stalls.clone(),
    }
}

/// Applies `k` whole periods in closed form: result counters gain
/// `k ×` the period deltas, and the model's clock-bearing state advances
/// by `k ×` the period's wall length (`period_compute + slip growth`).
#[allow(clippy::too_many_arguments)]
fn apply_periods(
    result: &mut SimResult,
    slip: &mut u64,
    stats_extra: &mut MemStats,
    net_extra: &mut NetLoad,
    model: &mut dyn MemoryModel,
    d: &PeriodDelta,
    k: u64,
    period_compute: u64,
) {
    *slip += k * d.slip;
    result.contention_stall_cycles += k * d.contention;
    result.link_stall_cycles += k * d.link;
    for s in &d.op_stalls {
        result.add_op_stall(s.op, s.stall_cycles * k, s.network_cycles * k);
    }
    stats_extra.merge_scaled(&d.stats, k);
    net_extra.merge_scaled(&d.net, k);
    model.advance_clock(k * (period_compute + d.slip));
}

/// The iteration-level period alignment: any legal iteration period must
/// be a multiple of every address stream's period and (off the flat
/// network) every slot's rotation length. `None` disables iteration-level
/// detection — an irregular stream never repeats, and an alignment too
/// large for the warm-up window can never confirm two periods.
fn iteration_stride(events: &[Event], slots: &[Range<usize>], flat: bool) -> Option<u64> {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        a
    }
    fn lcm(a: u64, b: u64) -> Option<u64> {
        let g = gcd(a, b);
        (a / g).checked_mul(b)
    }
    let mut l = 1u64;
    for e in events {
        l = lcm(l, e.stream.period()?)?;
    }
    if !flat {
        for s in slots {
            l = lcm(l, s.len() as u64)?;
        }
    }
    (2 * l <= ITER_WINDOW).then_some(l)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Simulates `schedule` against `model` with the steady-state
/// fast-forward enabled.
///
/// Each iteration's events form a pending-request queue drained one issue
/// slot at a time. On a contended (non-flat) network the service order
/// within a slot rotates round-robin with the iteration index, so no
/// cluster is structurally first at every bank arbitration; on the flat
/// network the order is fixed and the loop is bit-exact with the original
/// fixed-delay runner. Model housekeeping ([`MemoryModel::retire`]) runs
/// roughly every [`REPLAY_HORIZON`] cycles; retirement is
/// timing-invisible, so the cadence does not affect results.
///
/// The fast-forward only takes effect when the model opts in via
/// [`MemoryModel::supports_fast_forward`], and never changes the
/// [`SimResult`] — only how much of it is replayed vs batched
/// ([`SimResult::ffwd`]).
///
/// Returns the compute/stall split — with stalls attributed per op and
/// the interconnect-queueing share split out — and the memory statistics
/// the model accumulated *during this run* (the model should be fresh).
pub fn simulate(
    schedule: &Schedule,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
) -> SimResult {
    run(schedule, cfg, model, true)
}

/// [`simulate`] with the steady-state fast-forward **off**: every
/// iteration is replayed. This is the oracle the fast-forward is checked
/// against — any suite comparing the two pins the batching's
/// bit-exactness.
pub fn simulate_replay(
    schedule: &Schedule,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
) -> SimResult {
    run(schedule, cfg, model, false)
}

pub(crate) fn run(
    schedule: &Schedule,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
    ffwd: bool,
) -> SimResult {
    let (events, slots) = build_events(schedule);
    let loop_ = &schedule.loop_;
    let ii = schedule.ii() as u64;
    let trip = loop_.trip_count.max(1);
    let visits = loop_.visits;
    let visit_compute =
        schedule.compute_cycles_per_visit() + if schedule.flush_on_exit { 1 } else { 0 };
    let flat = cfg.interconnect.is_flat();

    let mut result = SimResult::default();
    let mut slip: u64 = 0; // accumulated stall
    let mut clock_base: u64 = 0; // start cycle of the current visit

    // Counters accounted in closed form by fast-forward batches. The
    // model's own counters never see batched periods, so these are kept
    // aside and merged into the final `mem_stats` at the end.
    let mut stats_extra = MemStats::default();
    let mut net_extra = NetLoad::default();

    let ffwd_on = ffwd && model.supports_fast_forward();
    // Iteration-level periods must align with address-stream wrap and
    // slot rotation; visit-level periods need no alignment (every visit
    // restarts the iteration count, so streams and rotation reset).
    let iter_stride = if ffwd_on {
        iteration_stride(&events, &slots, flat)
    } else {
        None
    };
    let mut iter_armed = iter_stride.is_some();
    let mut visit_detect = (ffwd_on && visits >= 3).then(|| Detector::new(1, visits as usize + 1));
    if let Some(det) = visit_detect.as_mut() {
        det.record(take_snapshot(
            model,
            clock_base + slip,
            slip,
            &result,
            &stats_extra,
            &net_extra,
        ));
    }

    // Model housekeeping: the drain cycle at which the next retire is
    // due, so the hot loop pays one comparison per slot.
    let mut next_retire = REPLAY_HORIZON;

    let mut visit: u64 = 0;
    while visit < visits {
        let mut iter_detect = match iter_stride {
            Some(stride) if iter_armed && trip > 2 * stride => {
                let mut det = Detector::new(stride, ITER_WINDOW as usize);
                det.record(take_snapshot(
                    model,
                    clock_base + slip,
                    slip,
                    &result,
                    &stats_extra,
                    &net_extra,
                ));
                Some(det)
            }
            _ => None,
        };
        let mut i: u64 = 0;
        while i < trip {
            let iter_base = clock_base + i * ii;
            // Drain the iteration's pending events one issue slot at a
            // time (precomputed maximal runs of equal `t`).
            for range in &slots {
                let slot = &events[range.clone()];
                let slot_clock = (iter_base as i64 + slot[0].t) as u64 + slip;
                if slot_clock >= next_retire {
                    model.retire(slot_clock);
                    next_retire = slot_clock + REPLAY_HORIZON;
                }
                let rotation = if flat {
                    0
                } else {
                    (i % slot.len() as u64) as usize
                };
                for k in 0..slot.len() {
                    let e = &slot[(k + rotation) % slot.len()];
                    let issue = (iter_base as i64 + e.t) as u64 + slip;
                    let iter = match e.kind {
                        ReqKind::Prefetch => i + e.lookahead,
                        _ => i,
                    };
                    let addr = e.stream.address(iter);
                    let req = MemRequest {
                        cluster: e.cluster,
                        addr,
                        size: e.size,
                        kind: e.kind,
                        hints: e.hints,
                        cycle: issue,
                    };
                    let reply = model.access(&req);
                    if e.kind == ReqKind::Load {
                        if let Some(allowed) = e.use_distance {
                            let deadline = issue + allowed as u64;
                            if reply.ready_at > deadline {
                                let stall = reply.ready_at - deadline;
                                slip += stall;
                                // Attribute the stall to port queueing
                                // first, then link saturation, so the two
                                // shares never double-count one cycle.
                                let port = stall.min(reply.queue_cycles);
                                let link = (stall - port).min(reply.link_stalls);
                                result.add_op_stall(e.op, stall, port + link);
                                result.contention_stall_cycles += port;
                                result.link_stall_cycles += link;
                            }
                        }
                    }
                }
            }
            result.ffwd.iters_replayed += 1;
            i += 1;
            if let Some(det) = iter_detect.as_mut() {
                if det.active() {
                    let snap = take_snapshot(
                        model,
                        clock_base + i * ii + slip,
                        slip,
                        &result,
                        &stats_extra,
                        &net_extra,
                    );
                    if let Some(p) = det.record(snap) {
                        let k = (trip - i) / p;
                        if k > 0 {
                            let d = det.period_delta(p);
                            apply_periods(
                                &mut result,
                                &mut slip,
                                &mut stats_extra,
                                &mut net_extra,
                                model,
                                &d,
                                k,
                                p * ii,
                            );
                            i += k * p;
                            result.ffwd.iters_batched += k * p;
                        }
                        // The residue is shorter than a period; nothing
                        // further can fire inside this visit.
                        det.done = true;
                    }
                }
            }
        }
        if schedule.flush_on_exit {
            for c in ClusterId::all(cfg.clusters) {
                model.invalidate_buffers(c, clock_base + visit_compute + slip);
            }
        }
        result.compute_cycles += visit_compute;
        clock_base += visit_compute;
        visit += 1;
        if let Some(det) = iter_detect {
            // A visit that exhausted its warm-up window without finding a
            // period will not find one next visit either (the request
            // structure repeats per visit) — stop paying the digests.
            // Cross-visit periodicity is the visit detector's job.
            if det.done && !det.fired {
                iter_armed = false;
            }
        }
        if let Some(det) = visit_detect.as_mut() {
            if det.active() {
                let snap = take_snapshot(
                    model,
                    clock_base + slip,
                    slip,
                    &result,
                    &stats_extra,
                    &net_extra,
                );
                if let Some(p) = det.record(snap) {
                    let k = (visits - visit) / p;
                    if k > 0 {
                        let d = det.period_delta(p);
                        apply_periods(
                            &mut result,
                            &mut slip,
                            &mut stats_extra,
                            &mut net_extra,
                            model,
                            &d,
                            k,
                            p * visit_compute,
                        );
                        result.compute_cycles += k * p * visit_compute;
                        clock_base += k * p * visit_compute;
                        visit += k * p;
                        result.ffwd.iters_batched += k * p * trip;
                    }
                    det.done = true;
                }
            }
        }
    }

    result.stall_cycles = slip;
    result.mem_stats = model.stats().clone();
    result.mem_stats.merge(&stats_extra);
    // Attach the network's per-link / per-bank observation (None on the
    // flat network) — the counters a profiling run feeds back into
    // placement — including any batched share.
    result.mem_stats.net = model.network_load().map(|mut n| {
        n.merge(&net_extra);
        n
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{simulate_arch, MemoryModelKind};
    use vliw_ir::LoopBuilder;
    use vliw_machine::L0Capacity;
    use vliw_sched::{Arch, CompileRequest};

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    fn compile(l: &vliw_ir::LoopNest, c: &MachineConfig, arch: Arch) -> Schedule {
        CompileRequest::new(arch)
            .compile(l, c)
            .expect("schedulable")
    }

    #[test]
    fn recurrence_loop_l0_beats_baseline() {
        // The headline win: the load latency sits on the II-bounding
        // memory recurrence (store feeds next iteration's load).
        let l = LoopBuilder::new("slp")
            .trip_count(512)
            .visits(2)
            .store_load_pair(4)
            .build();
        let base = compile(&l, &cfg(), Arch::Baseline);
        let with = compile(&l, &cfg(), Arch::L0);
        let rb = simulate_arch(&base, &cfg(), Arch::Baseline);
        let rl = simulate_arch(&with, &cfg(), Arch::L0);
        assert!(
            rl.total_cycles() < rb.total_cycles(),
            "L0 {} !< base {}",
            rl.total_cycles(),
            rb.total_cycles()
        );
    }

    #[test]
    fn l0_hit_rate_is_high_for_streams() {
        let l = LoopBuilder::new("ew")
            .trip_count(1024)
            .elementwise(2)
            .build();
        let s = compile(&l, &cfg(), Arch::L0);
        let r = simulate_arch(&s, &cfg(), Arch::L0);
        assert!(
            r.mem_stats.l0_hit_rate() > 0.9,
            "hit rate {:.3} too low",
            r.mem_stats.l0_hit_rate()
        );
    }

    #[test]
    fn compute_cycles_match_schedule_arithmetic() {
        let l = LoopBuilder::new("ew")
            .trip_count(100)
            .visits(3)
            .elementwise(4)
            .build();
        let s = compile(&l, &cfg(), Arch::Baseline);
        let r = simulate_arch(&s, &cfg(), Arch::Baseline);
        assert_eq!(r.compute_cycles, 3 * s.compute_cycles_per_visit());
    }

    #[test]
    fn unbounded_buffers_never_thrash() {
        let l = LoopBuilder::new("fir6").trip_count(512).fir(6, 2).build();
        let c = cfg().with_l0_entries(L0Capacity::Unbounded);
        let s = compile(&l, &c, Arch::L0);
        let r = simulate_arch(&s, &c, Arch::L0);
        assert!(r.mem_stats.l0_hit_rate() > 0.9);
    }

    #[test]
    fn small_buffers_stall_more_than_big_ones() {
        // several concurrent streams: 2 entries thrash, 8 don't
        let l = LoopBuilder::new("fir6").trip_count(512).fir(6, 2).build();
        let small_cfg = cfg().with_l0_entries(L0Capacity::Bounded(2));
        let big_cfg = cfg().with_l0_entries(L0Capacity::Bounded(8));
        let s_small = compile(&l, &small_cfg, Arch::L0);
        let s_big = compile(&l, &big_cfg, Arch::L0);
        let r_small = simulate_arch(&s_small, &small_cfg, Arch::L0);
        let r_big = simulate_arch(&s_big, &big_cfg, Arch::L0);
        assert!(
            r_big.total_cycles() <= r_small.total_cycles(),
            "8-entry {} should beat 2-entry {}",
            r_big.total_cycles(),
            r_small.total_cycles()
        );
    }

    #[test]
    fn irregular_loads_stall_on_l1_misses() {
        let l = LoopBuilder::new("irr")
            .trip_count(1024)
            .irregular(4, 1 << 20)
            .build();
        let s = compile(&l, &cfg(), Arch::L0);
        let r = simulate_arch(&s, &cfg(), Arch::L0);
        assert!(r.stall_cycles > 0, "huge random table must miss in 8KB L1");
        assert!(r.mem_stats.l1_hit_rate() < 0.9);
    }

    #[test]
    fn multivliw_runs_and_mostly_hits_locally() {
        let l = LoopBuilder::new("ew")
            .trip_count(512)
            .elementwise(4)
            .build();
        let s = compile(&l, &cfg(), Arch::MultiVliw);
        let r = simulate_arch(&s, &cfg(), Arch::MultiVliw);
        assert!(r.total_cycles() > 0);
        assert!(r.mem_stats.accesses > 0);
    }

    #[test]
    fn word_interleaved_attraction_buffers_catch_reuse() {
        let l = LoopBuilder::new("ew")
            .trip_count(512)
            .elementwise(4)
            .build();
        let s1 = compile(&l, &cfg(), Arch::Interleaved1);
        let r1 = simulate_arch(&s1, &cfg(), Arch::Interleaved1);
        assert!(r1.total_cycles() > 0);
        let s2 = compile(&l, &cfg(), Arch::Interleaved2);
        let r2 = simulate_arch(&s2, &cfg(), Arch::Interleaved2);
        assert!(r2.total_cycles() > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let l = LoopBuilder::new("irr")
            .trip_count(256)
            .irregular(4, 65536)
            .build();
        let s = compile(&l, &cfg(), Arch::L0);
        let a = simulate_arch(&s, &cfg(), Arch::L0);
        let b = simulate_arch(&s, &cfg(), Arch::L0);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_runs_for_every_arch() {
        // Companion guard for the experiment engine: parallel grid
        // execution is only safe because every (schedule, arch) pair
        // simulates identically no matter when or where it runs.
        let l = LoopBuilder::new("irr")
            .trip_count(256)
            .irregular(4, 65536)
            .build();
        for arch in Arch::ALL {
            let s = compile(&l, &cfg(), arch);
            let a = simulate_arch(&s, &cfg(), arch);
            let b = simulate_arch(&s, &cfg(), arch);
            assert_eq!(a, b, "{arch}");
        }
    }

    #[test]
    fn flush_on_exit_costs_one_cycle_per_visit() {
        let l = LoopBuilder::new("ew")
            .trip_count(64)
            .visits(4)
            .elementwise(2)
            .build();
        let s = compile(&l, &cfg(), Arch::L0);
        let r = simulate_arch(&s, &cfg(), Arch::L0);
        assert_eq!(
            r.compute_cycles,
            4 * (s.compute_cycles_per_visit() + 1),
            "one invalidate word per visit"
        );
        assert_eq!(r.mem_stats.buffer_flushes, 16, "4 visits x 4 clusters");
    }

    #[test]
    fn store_load_pair_remains_correct_under_1c() {
        // The 1C coherence solution means the L0-latency loads and the
        // store share a cluster, so the local buffer copy is updated by
        // the PAR store and never goes stale. We can't check values (the
        // simulator is timing-only) but the schedule must respect the
        // constraint and simulation must complete.
        let l = LoopBuilder::new("slp")
            .trip_count(256)
            .store_load_pair(4)
            .build();
        let s = compile(&l, &cfg(), Arch::L0);
        let r = simulate_arch(&s, &cfg(), Arch::L0);
        assert!(r.total_cycles() > 0);
    }

    // -- steady-state fast-forward ------------------------------------

    /// Runs (ffwd on, ffwd off) and returns both results plus the
    /// schedule's dynamic iteration count — in *post-unroll* iterations,
    /// the unit the runner (and its ffwd telemetry) counts in.
    fn ffwd_pair(
        l: &vliw_ir::LoopNest,
        c: &MachineConfig,
        arch: Arch,
    ) -> (SimResult, SimResult, u64, u64) {
        let s = compile(l, c, arch);
        let kind = MemoryModelKind::for_arch(arch);
        let on = simulate(&s, c, kind.build(c).as_mut());
        let off = simulate_replay(&s, c, kind.build(c).as_mut());
        let trip = s.loop_.trip_count.max(1);
        (on, off, trip, s.loop_.visits)
    }

    #[test]
    fn visit_level_fast_forward_fires_and_is_bit_exact() {
        // 24 visits: enough to confirm even a multi-visit steady period
        // (the word-interleaved model settles into a 7-visit orbit of
        // attraction-buffer vector orders, and confirmation needs two
        // full periods).
        let l = LoopBuilder::new("ew")
            .trip_count(64)
            .visits(24)
            .elementwise(2)
            .build();
        for arch in Arch::ALL {
            let (on, off, trip, visits) = ffwd_pair(&l, &cfg(), arch);
            assert_eq!(on, off, "{arch}: batched result must equal replay");
            assert_eq!(off.ffwd.iters_batched, 0, "{arch}: knob off means replay");
            assert_eq!(off.ffwd.iters_replayed, trip * visits);
            assert!(
                on.ffwd.iters_batched > 0,
                "{arch}: steady visits must batch"
            );
            assert_eq!(
                on.ffwd.iters_replayed + on.ffwd.iters_batched,
                trip * visits,
                "{arch}: every iteration accounted exactly once"
            );
        }
    }

    #[test]
    fn iteration_level_fast_forward_fires_inside_one_visit() {
        // A loop whose stream wraps a small array every 16 iterations:
        // the only case where state can recur *within* a visit.
        let mut b = LoopBuilder::new("wrap").trip_count(200);
        let t = b.array("t", 64);
        let acc = vliw_ir::MemAccess {
            array: t,
            offset_bytes: 0,
            elem_bytes: 4,
            stride: vliw_ir::StridePattern::Affine { stride_bytes: 4 },
        };
        let (_, v) = b.load(acc);
        b.alu(vliw_ir::OpKind::IntAlu, &[v]);
        let l = b.build();
        for arch in Arch::ALL {
            let (on, off, trip, visits) = ffwd_pair(&l, &cfg(), arch);
            assert_eq!(on, off, "{arch}");
            assert!(
                on.ffwd.iters_batched > 0,
                "{arch}: a 16-iteration wrap inside trip 200 must batch"
            );
            assert_eq!(
                on.ffwd.iters_replayed + on.ffwd.iters_batched,
                trip * visits
            );
        }
    }

    #[test]
    fn irregular_streams_disable_iteration_level_but_not_visits() {
        let l = LoopBuilder::new("irr")
            .trip_count(96)
            .visits(8)
            .irregular(4, 65536)
            .build();
        for arch in [Arch::Baseline, Arch::L0] {
            let (on, off, trip, _) = ffwd_pair(&l, &cfg(), arch);
            assert_eq!(on, off, "{arch}");
            // irregular addresses repeat *per visit* (the iteration
            // counter resets), so visit-level batching is still legal
            // and may fire; iteration-level never can.
            assert_eq!(
                on.ffwd.iters_batched % trip,
                0,
                "{arch}: only whole visits may batch for irregular streams"
            );
        }
    }
}
