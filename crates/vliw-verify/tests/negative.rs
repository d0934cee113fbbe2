//! Mutation-style negative tests: hand-corrupt known-good schedules in
//! distinct ways and assert each corruption is rejected with a
//! diagnostic naming the violated invariant (and, where attributable,
//! the loop and op).
//!
//! Every test starts from a schedule the compiler itself emitted (so it
//! passes `check_schedule` clean — asserted in `known_good_is_clean`)
//! and applies exactly one corruption.

use vliw_ir::{LoopBuilder, LoopNest, OpId};
use vliw_machine::{AccessHint, ClusterId, L0Capacity, L0Config, MachineConfig, MemHints};
use vliw_sched::{
    Arch, CoherencePolicy, CompileRequest, L0Options, PrefetchSlot, ReplicaSlot, Schedule,
    VerifyLevel,
};
use vliw_verify::{check_schedule, Violation};

fn cfg() -> MachineConfig {
    MachineConfig::micro2003()
}

fn fir() -> LoopNest {
    LoopBuilder::new("fir").trip_count(256).fir(8, 4).build()
}

fn compile(req: &CompileRequest, l: &LoopNest, cfg: &MachineConfig) -> Schedule {
    req.compile(l, cfg).expect("known-good loop schedules")
}

fn tags(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.invariant).collect()
}

/// Asserts the corruption was rejected with `tag`, naming the loop (the
/// scheduled loop may carry an `*N` unroll suffix).
fn assert_rejected(vs: &[Violation], tag: &str, loop_name: &str) {
    let hit = vs.iter().find(|v| v.invariant == tag);
    let hit = hit.unwrap_or_else(|| panic!("expected a {tag} violation, got {:?}", tags(vs)));
    assert!(
        hit.loop_name.starts_with(loop_name),
        "diagnostic names the loop: {} vs {loop_name}",
        hit.loop_name
    );
}

#[test]
fn known_good_is_clean() {
    for arch in Arch::ALL {
        let req = CompileRequest::new(arch).verify(VerifyLevel::Full);
        let s = compile(&req, &fir(), &cfg());
        assert_eq!(
            check_schedule(&req, &s, &cfg()),
            Vec::new(),
            "{}",
            arch.label()
        );
    }
}

#[test]
fn missing_placement_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    s.placements.pop();
    assert_rejected(&check_schedule(&req, &s, &cfg()), "placement-count", "fir");
}

#[test]
fn placement_of_unknown_op_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    let bogus = OpId(s.loop_.ops.len() as u32);
    s.placements[0].op = bogus;
    assert_rejected(&check_schedule(&req, &s, &cfg()), "unknown-op", "fir");
}

#[test]
fn placement_in_a_missing_cluster_is_rejected() {
    // Cluster 4 of the 4-cluster machine does not exist. Every op is
    // moved in turn, so the L0 checks that index clusters see one too.
    for arch in [Arch::Baseline, Arch::L0] {
        let req = CompileRequest::new(arch);
        let s = compile(&req, &fir(), &cfg());
        for i in 0..s.placements.len() {
            let mut moved = s.clone();
            moved.placements[i].cluster = ClusterId::new(cfg().clusters);
            assert!(moved
                .validate(&cfg())
                .unwrap_err()
                .starts_with("cluster-range:"));
            assert_rejected(
                &check_schedule(&req, &moved, &cfg()),
                "cluster-range",
                "fir",
            );
        }
    }
}

#[test]
fn fu_oversubscription_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    // Pile a second memory op onto the first one's (cluster, slot): one
    // Mem unit per cluster, so the slot overflows.
    let mems: Vec<usize> = (0..s.placements.len())
        .filter(|&i| s.loop_.op(s.placements[i].op).kind.is_mem())
        .collect();
    assert!(mems.len() >= 2);
    let (a, b) = (mems[0], mems[1]);
    s.placements[b].cluster = s.placements[a].cluster;
    s.placements[b].t = s.placements[a].t;
    assert_rejected(&check_schedule(&req, &s, &cfg()), "fu-capacity", "fir");
}

#[test]
fn bus_oversubscription_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    let producer = s.placements[0];
    let elsewhere = ClusterId::new((producer.cluster.index() + 1) % cfg().clusters);
    for _ in 0..cfg().buses.count + 1 {
        s.copies.push(vliw_sched::schedule::CopySlot {
            from_op: producer.op,
            to_cluster: elsewhere,
            t: producer.t + producer.assumed_latency as i64,
        });
    }
    assert_rejected(&check_schedule(&req, &s, &cfg()), "bus-capacity", "fir");
}

#[test]
fn copy_into_producers_own_cluster_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    let producer = s.placements[0];
    s.copies.push(vliw_sched::schedule::CopySlot {
        from_op: producer.op,
        to_cluster: producer.cluster,
        t: producer.t + producer.assumed_latency as i64,
    });
    assert_rejected(&check_schedule(&req, &s, &cfg()), "copy-route", "fir");
}

#[test]
fn dependence_violation_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    // Yank a consumer far earlier in whole-II steps: its reservation
    // slot is unchanged (so no capacity noise), but every incoming
    // dependence inequality breaks.
    let e = *s
        .loop_
        .edges
        .iter()
        .find(|e| e.src != e.dst && e.distance == 0)
        .expect("fir has intra-iteration edges");
    let ii = s.ii() as i64;
    s.placements[e.dst.index()].t -= 16 * ii;
    let vs = check_schedule(&req, &s, &cfg());
    assert_rejected(&vs, "dep-issue-cycle", "fir");
}

#[test]
fn ii_below_mii_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    s.mii = s.ii() + 1;
    assert_rejected(&check_schedule(&req, &s, &cfg()), "ii-vs-mii", "fir");
}

#[test]
fn l0_budget_overflow_is_rejected() {
    // A 1-entry buffer: forcing every load to the L0 latency puts >= 2
    // entries in some cluster (8 loads, 4 clusters).
    let mut machine = cfg();
    machine.l0 = Some(L0Config::micro2003(L0Capacity::Bounded(1)));
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &machine);
    let l0_lat = machine.l0.unwrap().latency;
    for p in &mut s.placements {
        if s.loop_.ops[p.op.index()].is_load() {
            p.assumed_latency = l0_lat;
        }
    }
    assert_rejected(&check_schedule(&req, &s, &machine), "l0-budget", "fir");
}

#[test]
fn l0_hint_on_baseline_arch_is_rejected() {
    let req = CompileRequest::new(Arch::Baseline);
    let mut s = compile(&req, &fir(), &cfg());
    let mem = (0..s.placements.len())
        .find(|&i| s.loop_.op(s.placements[i].op).kind.is_mem())
        .expect("fir has memory ops");
    s.placements[mem].hints = MemHints::new(AccessHint::ParAccess);
    let vs = check_schedule(&req, &s, &cfg());
    assert_rejected(&vs, "hint-arch", "fir");
    assert_eq!(
        vs.iter().find(|v| v.invariant == "hint-arch").unwrap().op,
        Some(s.placements[mem].op),
        "diagnostic names the op"
    );
}

#[test]
fn hint_without_l0_latency_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let machine = cfg();
    let mut s = compile(&req, &fir(), &machine);
    let l0_lat = machine.l0.unwrap().latency;
    let i = (0..s.placements.len())
        .find(|&i| {
            s.loop_.ops[s.placements[i].op.index()].is_load()
                && s.placements[i].assumed_latency == l0_lat
        })
        .expect("fir keeps L0-latency loads");
    // The load keeps its SEQ/PAR hint but claims the L1 latency.
    s.placements[i].assumed_latency = machine.l1.latency;
    assert_rejected(
        &check_schedule(&req, &s, &machine),
        "hint-l0-latency",
        "fir",
    );
}

#[test]
fn busy_slot_behind_seq_access_is_rejected() {
    // Find a schedule with a SEQ load anywhere in the suite, then
    // occupy its next memory slot with a fabricated replica.
    let req = CompileRequest::new(Arch::L0);
    let machine = cfg();
    let l0_lat = machine.l0.unwrap().latency;
    for spec in vliw_workloads::mediabench_suite() {
        for l in &spec.loops {
            let mut s = compile(&req, l, &machine);
            let seq = s.placements.iter().find(|p| {
                s.loop_.op(p.op).is_load()
                    && p.assumed_latency == l0_lat
                    && p.hints.access == AccessHint::SeqAccess
            });
            let Some(seq) = seq.copied() else { continue };
            let store = s
                .placements
                .iter()
                .find(|p| s.loop_.op(p.op).is_store())
                .copied();
            let Some(store) = store else { continue };
            s.replicas.push(ReplicaSlot {
                for_op: store.op,
                cluster: seq.cluster,
                t: seq.t + 1,
            });
            let vs = check_schedule(&req, &s, &machine);
            assert_rejected(&vs, "hint-seq-slot", &s.loop_.name);
            return;
        }
    }
    panic!("no SEQ_ACCESS load found anywhere in the suite");
}

#[test]
fn replicas_outside_force_psr_are_rejected() {
    let req = CompileRequest::new(Arch::L0); // policy: Auto
    let mut s = compile(&req, &fir(), &cfg());
    let store = s
        .placements
        .iter()
        .find(|p| s.loop_.op(p.op).is_store())
        .copied()
        .expect("fir has a store");
    let elsewhere = ClusterId::new((store.cluster.index() + 1) % cfg().clusters);
    s.replicas.push(ReplicaSlot {
        for_op: store.op,
        cluster: elsewhere,
        t: store.t,
    });
    assert_rejected(&check_schedule(&req, &s, &cfg()), "replica-policy", "fir");
}

#[test]
fn replica_in_primary_cluster_is_rejected() {
    let opts = L0Options {
        policy: CoherencePolicy::ForcePsr,
        ..L0Options::default()
    };
    let req = CompileRequest::new(Arch::L0).opts(opts);
    let l = LoopBuilder::new("slp")
        .trip_count(256)
        .store_load_pair(4)
        .build();
    let mut s = compile(&req, &l, &cfg());
    let store = s
        .placements
        .iter()
        .find(|p| s.loop_.op(p.op).is_store())
        .copied()
        .expect("loop has a store");
    s.replicas.push(ReplicaSlot {
        for_op: store.op,
        cluster: store.cluster,
        t: store.t,
    });
    let vs = check_schedule(&req, &s, &cfg());
    assert_rejected(&vs, "replica-cluster", "slp");
    assert_eq!(
        vs.iter()
            .find(|v| v.invariant == "replica-cluster")
            .unwrap()
            .op,
        Some(store.op)
    );
}

#[test]
fn prefetch_in_wrong_cluster_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    let load = s
        .placements
        .iter()
        .find(|p| s.loop_.op(p.op).is_load())
        .copied()
        .expect("fir has loads");
    let elsewhere = ClusterId::new((load.cluster.index() + 1) % cfg().clusters);
    s.prefetches.push(PrefetchSlot {
        for_op: load.op,
        cluster: elsewhere,
        t: load.t,
        lookahead: 1,
    });
    assert_rejected(&check_schedule(&req, &s, &cfg()), "prefetch-route", "fir");
}

#[test]
fn zero_lookahead_prefetch_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    let load = s
        .placements
        .iter()
        .find(|p| s.loop_.op(p.op).is_load())
        .copied()
        .expect("fir has loads");
    s.prefetches.push(PrefetchSlot {
        for_op: load.op,
        cluster: load.cluster,
        t: load.t,
        lookahead: 0,
    });
    assert_rejected(&check_schedule(&req, &s, &cfg()), "prefetch-route", "fir");
}

#[test]
fn flipped_store_hint_is_rejected() {
    let req = CompileRequest::new(Arch::L0);
    let mut s = compile(&req, &fir(), &cfg());
    let i = (0..s.placements.len())
        .find(|&i| s.loop_.op(s.placements[i].op).is_store())
        .expect("fir has a store");
    let flipped = match s.placements[i].hints.access {
        AccessHint::ParAccess => AccessHint::NoAccess,
        _ => AccessHint::ParAccess,
    };
    s.placements[i].hints = MemHints::new(flipped);
    assert_rejected(&check_schedule(&req, &s, &cfg()), "hint-store-par", "fir");
}
