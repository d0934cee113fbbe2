//! Full schedule legality: the structural core plus the L0-specific
//! invariants.
//!
//! [`Schedule::validate`] is the single structural entry point — it
//! owns placement counts, FU/bus capacity against the modulo
//! reservation table, copy routing, the dependence issue-cycle
//! inequalities under the II, and II ≥ MII. This module re-runs it
//! against the request's *scheduling view* of the machine and then
//! layers on the invariants that need the [`CompileRequest`] (marking
//! and coherence policy) or the hint semantics of §4.3:
//!
//! * `l0-budget` — per cluster, the L0 entries consumed by loads
//!   scheduled at the buffer latency fit the configured entry count
//!   (only under `Selective`/`ProfileGuided` marking with a bounded
//!   buffer — `AllCandidates` overflows by design, that is the point
//!   of the ablation).
//! * `hint-l0-latency` — access hints agree with assumed latencies: a
//!   load at the L0 latency probes the buffer (`SEQ`/`PAR`), any other
//!   load carries the empty hint bundle.
//! * `hint-seq-slot` — a `SEQ_ACCESS` load has a free memory slot in
//!   its cluster in the next kernel cycle (the miss-forwarding bus
//!   guarantee).
//! * `hint-store-par` — a store is `PAR_ACCESS` iff its memory
//!   dependence set keeps an L0-latency load in the store's cluster
//!   (the write-through must update the local copy — and only then).
//! * `prefetch-route` — explicit prefetches cover a load, issue in the
//!   load's own cluster, and look at least one iteration ahead.
//! * `replica-policy` / `replica-route` / `replica-cluster` — PSR
//!   store replicas exist only under `ForcePsr`, mirror a store, and
//!   never execute in the primary's own cluster.
//! * `hint-arch` — architectures without L0 buffers carry no hints, no
//!   prefetches, no replicas, and no exit flush.
//!
//! Before any of these, `target` checks the pairing itself: the
//! request's arch and the machine the caller checks against must be the
//! schedule's own target ([`Schedule::arch`], [`Schedule::machine`]).
//! A mismatch is reported, and the remaining checks still run against
//! the caller's claim without panicking (an out-of-range cluster is
//! `cluster-range`, and the L0 checks that index clusters are skipped).

use crate::Violation;
use std::collections::{HashMap, HashSet};
use vliw_ir::MemDepSets;
use vliw_machine::{AccessHint, L0Capacity, MachineConfig, MemHints};
use vliw_sched::engine::entry_cost;
use vliw_sched::{CoherencePolicy, CompileRequest, MarkPolicy, Schedule};

/// Structural-tag table: maps [`Schedule::validate`]'s message prefix to
/// the stable invariant tag. Anything unrecognized degrades to
/// `schedule-legality`.
const VALIDATE_TAGS: [&str; 8] = [
    "placement-count",
    "unknown-op",
    "cluster-range",
    "fu-capacity",
    "bus-capacity",
    "copy-route",
    "dep-issue-cycle",
    "ii-vs-mii",
];

/// Memory-slot occupancy `(cluster, kernel slot) -> #mem instructions`,
/// mirroring the occupancy step 4's hint assignment computed: loop-body
/// loads/stores plus PSR replicas (explicit prefetches issue after hint
/// assignment and do not participate).
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

/// Checks every schedule-level invariant for `schedule`, compiled by
/// `request` against `cfg` (pass the *full* machine configuration; the
/// scheduling view is derived the same way the drivers derive it). A
/// `request.arch` or `cfg` that is not the schedule's own target is a
/// `target` violation; the function never panics on one.
#[must_use]
pub fn check_schedule(
    request: &CompileRequest,
    schedule: &Schedule,
    cfg: &MachineConfig,
) -> Vec<Violation> {
    let scfg = if request.arch.uses_l0() {
        cfg.clone()
    } else {
        cfg.without_l0()
    };
    let name = schedule.loop_.name.clone();
    let mut out = Vec::new();

    if request.arch != schedule.arch() || cfg != schedule.machine() {
        out.push(Violation::new(
            "target",
            &name,
            format!(
                "schedule was compiled for {} on the machine\n{}\nbut is checked as {} on the machine\n{}",
                schedule.arch(),
                schedule.machine(),
                request.arch,
                cfg
            ),
        ));
    }

    if let Err(msg) = schedule.validate(&scfg) {
        let tag = VALIDATE_TAGS
            .iter()
            .find(|t| msg.starts_with(&format!("{t}:")))
            .copied()
            .unwrap_or("schedule-legality");
        out.push(Violation::new(tag, &name, msg));
    }

    if request.arch.uses_l0() {
        check_l0(request, schedule, &scfg, &mut out);
    } else {
        check_no_l0_artifacts(schedule, &mut out);
    }

    out
}

/// The L0 target's hint/budget/coherence invariants.
fn check_l0(
    request: &CompileRequest,
    schedule: &Schedule,
    scfg: &MachineConfig,
    out: &mut Vec<Violation>,
) {
    let Some(l0) = scfg.l0 else {
        return; // validate already rejected the placements if they assumed one
    };
    let name = schedule.loop_.name.clone();
    let l0_lat = l0.latency;
    // When the L0 and L1 latencies coincide, "scheduled at the buffer
    // latency" is not observable from the placement alone — the
    // latency-keyed checks are undecidable and skipped.
    let lat_distinguishes = l0_lat != scfg.l1.latency;
    let n_ops = schedule.loop_.ops.len();
    if schedule.placements.len() != n_ops
        || schedule
            .placements
            .iter()
            .any(|p| p.op.index() >= n_ops || p.cluster.index() >= scfg.clusters)
    {
        return; // placement-count / unknown-op / cluster-range already
                // reported; nothing below is indexable
    }

    // l0-budget: per cluster, Σ entry_cost over L0-latency loads fits.
    if lat_distinguishes {
        if let (L0Capacity::Bounded(entries), MarkPolicy::Selective | MarkPolicy::ProfileGuided) =
            (l0.entries, request.opts.mark)
        {
            let mut used = vec![0i64; scfg.clusters];
            for p in &schedule.placements {
                let o = schedule.loop_.op(p.op);
                if o.is_load() && p.assumed_latency == l0_lat {
                    used[p.cluster.index()] +=
                        entry_cost(&schedule.loop_, scfg, schedule.ii(), p.op);
                }
            }
            for (c, &u) in used.iter().enumerate() {
                if u > entries as i64 {
                    out.push(Violation::new(
                        "l0-budget",
                        &name,
                        format!(
                            "cluster {c}: L0-latency loads occupy {u} entries, buffer has {entries}"
                        ),
                    ));
                }
            }
        }
    }

    let sets = MemDepSets::build(&schedule.loop_);
    let occ = mem_slot_occupancy(schedule);
    let ii = schedule.ii() as i64;

    // Clusters holding an L0-latency load, per mixed set (store rule).
    let mut set_l0_clusters: HashMap<usize, HashSet<usize>> = HashMap::new();
    for p in &schedule.placements {
        let o = schedule.loop_.op(p.op);
        if o.is_load() && p.assumed_latency == l0_lat {
            if let Some(si) = sets.set_of(p.op) {
                set_l0_clusters
                    .entry(si)
                    .or_default()
                    .insert(p.cluster.index());
            }
        }
    }

    for p in &schedule.placements {
        let o = schedule.loop_.op(p.op);
        if o.is_load() && lat_distinguishes {
            if p.assumed_latency == l0_lat {
                if !p.hints.access.uses_l0() {
                    out.push(Violation::for_op(
                        "hint-l0-latency",
                        &name,
                        p.op,
                        format!(
                            "load scheduled at the L0 latency ({l0_lat}) carries {}",
                            p.hints.access
                        ),
                    ));
                } else if p.hints.access == AccessHint::SeqAccess {
                    let next = (p.t + 1).rem_euclid(ii);
                    let busy = occ.get(&(p.cluster.index(), next)).copied().unwrap_or(0);
                    if busy > 0 {
                        out.push(Violation::for_op(
                            "hint-seq-slot",
                            &name,
                            p.op,
                            format!(
                                "SEQ_ACCESS load in cluster {} but kernel slot {next} holds {busy} memory instruction(s)",
                                p.cluster.index()
                            ),
                        ));
                    }
                }
            } else if p.hints != MemHints::no_access() {
                out.push(Violation::for_op(
                    "hint-l0-latency",
                    &name,
                    p.op,
                    format!(
                        "load scheduled at latency {} (not the L0 latency {l0_lat}) carries hints",
                        p.assumed_latency
                    ),
                ));
            }
        }
        if o.is_store() && lat_distinguishes {
            let local_l0_load = sets
                .set_of(p.op)
                .and_then(|si| set_l0_clusters.get(&si))
                .map(|cs| cs.contains(&p.cluster.index()))
                .unwrap_or(false);
            let par = p.hints.access == AccessHint::ParAccess;
            if par != local_l0_load {
                out.push(Violation::for_op(
                    "hint-store-par",
                    &name,
                    p.op,
                    format!(
                        "store is {} but its dependence set {} an L0-latency load in cluster {}",
                        p.hints.access,
                        if local_l0_load { "keeps" } else { "has no" },
                        p.cluster.index()
                    ),
                ));
            }
        }
    }

    for pf in &schedule.prefetches {
        if pf.for_op.index() >= n_ops || !schedule.loop_.op(pf.for_op).is_load() {
            out.push(Violation::new(
                "prefetch-route",
                &name,
                format!(
                    "prefetch covers {} which is not a load of this loop",
                    pf.for_op
                ),
            ));
            continue;
        }
        let covered = schedule.placement(pf.for_op);
        if pf.cluster != covered.cluster {
            out.push(Violation::for_op(
                "prefetch-route",
                &name,
                pf.for_op,
                format!(
                    "prefetch issues in cluster {} but the covered load runs in cluster {}",
                    pf.cluster.index(),
                    covered.cluster.index()
                ),
            ));
        }
        if pf.lookahead < 1 {
            out.push(Violation::for_op(
                "prefetch-route",
                &name,
                pf.for_op,
                "prefetch lookahead must be at least one iteration".into(),
            ));
        }
    }

    if !schedule.replicas.is_empty() && request.opts.policy != CoherencePolicy::ForcePsr {
        out.push(Violation::new(
            "replica-policy",
            &name,
            format!(
                "{} PSR store replica(s) under coherence policy {:?} (only ForcePsr emits replicas)",
                schedule.replicas.len(),
                request.opts.policy
            ),
        ));
    }
    for r in &schedule.replicas {
        if r.for_op.index() >= n_ops || !schedule.loop_.op(r.for_op).is_store() {
            out.push(Violation::new(
                "replica-route",
                &name,
                format!(
                    "replica mirrors {} which is not a store of this loop",
                    r.for_op
                ),
            ));
            continue;
        }
        let primary = schedule.placement(r.for_op);
        if r.cluster == primary.cluster {
            out.push(Violation::for_op(
                "replica-cluster",
                &name,
                r.for_op,
                format!(
                    "replica executes in the primary store's own cluster {}",
                    primary.cluster.index()
                ),
            ));
        }
    }
}

/// A non-L0 target must not carry any L0 apparatus.
fn check_no_l0_artifacts(schedule: &Schedule, out: &mut Vec<Violation>) {
    let name = schedule.loop_.name.clone();
    let n_ops = schedule.loop_.ops.len();
    for p in &schedule.placements {
        if p.op.index() >= n_ops {
            continue; // unknown-op already reported
        }
        if schedule.loop_.op(p.op).kind.is_mem() && p.hints != MemHints::no_access() {
            out.push(Violation::for_op(
                "hint-arch",
                &name,
                p.op,
                format!("non-L0 target carries hint {}", p.hints.access),
            ));
        }
    }
    if !schedule.prefetches.is_empty() {
        out.push(Violation::new(
            "hint-arch",
            &name,
            format!(
                "non-L0 target carries {} explicit prefetch(es)",
                schedule.prefetches.len()
            ),
        ));
    }
    if !schedule.replicas.is_empty() {
        out.push(Violation::new(
            "hint-arch",
            &name,
            format!(
                "non-L0 target carries {} PSR replica(s)",
                schedule.replicas.len()
            ),
        ));
    }
    if schedule.flush_on_exit {
        out.push(Violation::new(
            "hint-arch",
            &name,
            "non-L0 target requests an exit flush".into(),
        ));
    }
}
