//! Fast-forward fire coverage and work on the MediaBench-style suite:
//! every target of the `paper_suite` grid (the five architectures on
//! the paper's machine, plus L0 buffers of 2, 4, 16 and unbounded
//! entries) must batch every one of the 52 suite loops, replay exactly
//! the pinned number of iterations, and still equal the full replay.
//!
//! The equivalence suites cannot see a detector that stopped firing or
//! fires later: a run that replays everything is still bit-exact. This
//! test turns such a regression (for example a key that encodes an
//! order the model never observes, so equal states never key equal, or
//! a detector that waits for an extra period) into a failure that names
//! the loops, their [`FfwdReason`]s and the targets whose replayed work
//! moved, instead of a silent slowdown.

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

/// Summed `iters_replayed` over the 52 suite loops, per target: a
/// deterministic work counter. A change that makes the fast-forward fire
/// later raises one of these and fails by name; lowering one is a gain
/// to re-pin. Raising one on purpose means re-pinning it with a note in
/// CHANGES.md, like a golden.
const REPLAYED_PIN: [(&str, u64); 9] = [
    ("baseline", 3640),
    ("L0 buffers", 3624),
    ("MultiVLIW", 3534),
    ("Interleaved 1", 3716),
    ("Interleaved 2", 3716),
    ("L0/Bounded(2)", 3624),
    ("L0/Bounded(4)", 3624),
    ("L0/Bounded(16)", 3624),
    ("L0/Unbounded", 3632),
];

#[test]
fn every_suite_target_batches_every_loop_with_pinned_replay_work() {
    let loops: Vec<_> = mediabench_suite()
        .into_iter()
        .flat_map(|spec| spec.loops)
        .collect();
    assert_eq!(loops.len(), 52);
    let targets = targets();
    assert_eq!(targets.len(), REPLAYED_PIN.len());
    let mut replayed = Vec::new();
    for (label, cfg, arch) in &targets {
        let mut misses = Vec::new();
        let mut sum = 0;
        for l in &loops {
            let s = CompileRequest::new(*arch).compile_or_panic(l, cfg);
            let r = simulate(&s);
            assert_eq!(
                r,
                simulate_replay(&s),
                "{label}/{}: fast-forward diverged from the full replay",
                l.name
            );
            assert_eq!(
                r.ffwd.iters_batched > 0,
                r.ffwd.reason == FfwdReason::Fired,
                "{label}/{}: the reason must say whether the run batched",
                l.name
            );
            if r.ffwd.reason != FfwdReason::Fired {
                misses.push((l.name.clone(), r.ffwd.reason));
            }
            sum += r.ffwd.iters_replayed;
        }
        assert!(
            misses.is_empty(),
            "{label}: fast-forward did not fire on {} of {} loops: {misses:?}",
            misses.len(),
            loops.len()
        );
        replayed.push((label.clone(), sum));
    }
    let pinned: Vec<_> = REPLAYED_PIN
        .iter()
        .map(|&(label, n)| (label.to_string(), n))
        .collect();
    assert_eq!(
        replayed, pinned,
        "summed iters_replayed per target moved (left: now, right: pinned)"
    );
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
