//! A schedule paired with a target it was not compiled for.
//!
//! Every schedule records the arch and the machine it was compiled for.
//! `check_schedule` reports a pairing with any other target as `target`,
//! `Schedule::validate` reports a placement in a cluster the machine
//! lacks as `cluster-range`, and neither panics. The inputs are the 104
//! (suite loop × {Baseline, L0}) schedules.

use vliw_machine::{ClusterId, MachineConfig};
use vliw_sched::{Arch, CompileRequest, Schedule};
use vliw_verify::{check_schedule, Violation};
use vliw_workloads::mediabench_suite;

/// An 8-cluster machine with 64-byte L1 blocks (8 bytes per cluster).
fn eight_clusters() -> MachineConfig {
    let mut cfg = MachineConfig::micro2003();
    cfg.clusters = 8;
    cfg.l1.block_bytes = 64;
    cfg.validate().expect("8-cluster machine");
    cfg
}

/// Every suite loop compiled for Baseline and for L0 on `cfg`.
fn suite_schedules(cfg: &MachineConfig) -> Vec<(CompileRequest, Schedule)> {
    let mut out = Vec::new();
    for spec in mediabench_suite() {
        for l in &spec.loops {
            for arch in [Arch::Baseline, Arch::L0] {
                let req = CompileRequest::new(arch);
                let s = req.compile_or_panic(l, cfg);
                out.push((req, s));
            }
        }
    }
    assert_eq!(out.len(), 104);
    out
}

fn tags(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.invariant).collect()
}

/// Whether any placement, prefetch or replica of `s` runs in a cluster
/// at or above `clusters`.
fn uses_cluster_beyond(s: &Schedule, clusters: usize) -> bool {
    let beyond = |c: ClusterId| c.index() >= clusters;
    s.placements.iter().any(|p| beyond(p.cluster))
        || s.prefetches.iter().any(|p| beyond(p.cluster))
        || s.replicas.iter().any(|r| beyond(r.cluster))
}

#[test]
fn eight_cluster_schedules_on_the_four_cluster_machine_are_rejected() {
    let small = MachineConfig::micro2003();
    let mut out_of_range = 0;
    for (req, s) in suite_schedules(&eight_clusters()) {
        let at = format!("{} / {}", s.loop_.name, req.arch);
        // `validate` checks structure only: a schedule that happens to
        // use clusters 0..4 alone (the recurrence-bound loops do) is
        // structurally legal on 4 clusters; any other is `cluster-range`.
        if uses_cluster_beyond(&s, small.clusters) {
            out_of_range += 1;
            let err = s.validate(&small).expect_err(&at);
            assert!(err.starts_with("cluster-range:"), "{at}: {err}");
        } else {
            assert_eq!(s.validate(&small), Ok(()), "{at}");
        }
        // `check_schedule` also checks the pairing: all 104 are `target`.
        let vs = check_schedule(&req, &s, &small);
        let target = vs
            .iter()
            .find(|v| v.invariant == "target")
            .unwrap_or_else(|| panic!("{at}: no target violation in {:?}", tags(&vs)));
        assert!(
            target.detail.contains("8 clusters") && target.detail.contains("4 clusters"),
            "{at}: the detail names both machines: {}",
            target.detail
        );
    }
    assert!(
        out_of_range > 52,
        "most 8-cluster schedules use clusters 4..8, got {out_of_range} of 104"
    );
}

#[test]
fn an_l0_schedule_checked_without_l0_is_rejected() {
    let cfg = MachineConfig::micro2003();
    let bare = cfg.without_l0();
    for (req, s) in suite_schedules(&cfg) {
        let vs = check_schedule(&req, &s, &bare);
        assert!(
            tags(&vs).contains(&"target"),
            "{} / {}: {:?}",
            s.loop_.name,
            req.arch,
            tags(&vs)
        );
    }
}

#[test]
fn every_schedule_is_clean_on_its_own_target_only() {
    let cfg = MachineConfig::micro2003();
    for (req, s) in suite_schedules(&cfg) {
        assert_eq!(check_schedule(&req, &s, s.machine()), Vec::new());
        // The right machine under another arch's claim is still wrong.
        let other = CompileRequest::new(if req.arch == Arch::L0 {
            Arch::Baseline
        } else {
            Arch::L0
        });
        assert!(tags(&check_schedule(&other, &s, &cfg)).contains(&"target"));
    }
}
