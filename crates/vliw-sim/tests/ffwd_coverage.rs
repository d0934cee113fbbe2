//! Fast-forward fire coverage on the MediaBench-style suite: every
//! target of the `paper_suite` grid (the five architectures on the
//! paper's machine, plus L0 buffers of 2, 4, 16 and unbounded entries)
//! must batch all but at most one of the 52 suite loops.
//!
//! The equivalence suites cannot see a detector that stopped firing: a
//! run that replays everything is still bit-exact. This test turns such
//! a regression (for example a digest that hashes an order the model
//! never observes, so equal states never digest equal) into a failure
//! that names the loops and their [`FfwdReason`]s, instead of a silent
//! slowdown.

use vliw_machine::{L0Capacity, MachineConfig};
use vliw_sched::{Arch, CompileRequest};
use vliw_sim::{simulate, simulate_replay, FfwdReason};
use vliw_workloads::mediabench_suite;

/// The `paper_suite` targets: `(label, machine, arch)`.
fn targets() -> Vec<(String, MachineConfig, Arch)> {
    let base = MachineConfig::micro2003();
    let mut out: Vec<_> = Arch::ALL
        .iter()
        .map(|&arch| (arch.to_string(), base.clone(), arch))
        .collect();
    for cap in [
        L0Capacity::Bounded(2),
        L0Capacity::Bounded(4),
        L0Capacity::Bounded(16),
        L0Capacity::Unbounded,
    ] {
        out.push((format!("L0/{cap:?}"), base.with_l0_entries(cap), Arch::L0));
    }
    out
}

#[test]
fn every_suite_target_batches_all_but_one_loop() {
    let loops: Vec<_> = mediabench_suite()
        .into_iter()
        .flat_map(|spec| spec.loops)
        .collect();
    assert_eq!(loops.len(), 52);
    let targets = targets();
    assert_eq!(targets.len(), 9);
    for (label, cfg, arch) in &targets {
        let mut misses = Vec::new();
        let mut unwind = None;
        for l in &loops {
            let s = CompileRequest::new(*arch).compile_or_panic(l, cfg);
            let r = simulate(&s);
            assert_eq!(
                r.ffwd.iters_batched > 0,
                r.ffwd.reason == FfwdReason::Fired,
                "{label}/{}: the reason must say whether the run batched",
                l.name
            );
            if r.ffwd.reason != FfwdReason::Fired {
                misses.push((l.name.clone(), r.ffwd.reason));
            }
            if l.name == "gsm-unwind" {
                unwind = Some(r.ffwd.reason);
            }
        }
        assert!(
            misses.len() <= 1,
            "{label}: fast-forward did not fire on {} of {} loops: {misses:?}",
            misses.len(),
            loops.len()
        );
        // Three visits, each too short for two iteration periods: the
        // visit detector confirms its period only at the last boundary,
        // with no visit left to batch.
        assert_eq!(
            unwind,
            Some(FfwdReason::WindowExhausted),
            "{label}/gsm-unwind"
        );
    }
}

#[test]
fn replay_reports_fast_forward_off() {
    let cfg = MachineConfig::micro2003();
    let l = &mediabench_suite()[0].loops[0];
    for arch in Arch::ALL {
        let s = CompileRequest::new(arch).compile_or_panic(l, &cfg);
        let r = simulate_replay(&s);
        assert_eq!(r.ffwd.reason, FfwdReason::Off, "{arch}");
    }
}
