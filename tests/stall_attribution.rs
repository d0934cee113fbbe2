//! Property tests for the stall-attribution accounting across every
//! interconnect topology (vliw-testutil PRNG, same reproduce-from-index
//! discipline as `property_based.rs`).
//!
//! For random loop nests and every topology the decomposition must hold:
//! per-op stall attribution sums exactly to `stall_cycles`, the
//! contention + link shares never exceed it (they are disjoint by
//! construction), and — because the schedule fixes the compute cycles —
//! the end-to-end cycle delta against the *uncontended* run of the same
//! schedule equals the stall-cycle delta, i.e. every extra cycle a
//! contended network costs is accounted as a stall.

use clustered_vliw_l0::ir::{LoopBuilder, LoopNest, MemAccess, OpKind, StridePattern};
use clustered_vliw_l0::machine::{InterconnectConfig, MachineConfig};
use clustered_vliw_l0::sched::{Arch, CompileRequest};
use clustered_vliw_l0::sim::{simulate, SimResult};
use vliw_testutil::Rng;

const CASES: u64 = 24;

/// A random but well-formed loop (a trimmed copy of the generator in
/// `property_based.rs`: streams + arithmetic + optional aliasing).
fn random_loop(case: u64) -> LoopNest {
    let mut rng = Rng::new(0xA77A + case);
    let streams = rng.range_usize(1, 4);
    let work = rng.range_usize(0, 5);
    let elem: u8 = rng.pick(&[2u8, 4]);
    let stride_elems: i64 = rng.pick(&[-1i64, 0, 1, 3]);
    let visits = rng.range(1, 4);
    let trip = rng.range(16, 96);

    let mut b = LoopBuilder::new("attr").trip_count(trip).visits(visits);
    let out = b.array("out", trip * elem as u64 + 64);
    let mut val = None;
    for s in 0..streams {
        let arr = b.array(format!("in{s}"), (trip + 8) * elem as u64 + 64);
        let acc = MemAccess {
            array: arr,
            offset_bytes: 4,
            elem_bytes: elem,
            stride: StridePattern::Affine {
                stride_bytes: stride_elems * elem as i64,
            },
        };
        let (_, v) = b.load(acc);
        val = Some(match val {
            None => v,
            Some(a) => b.alu(OpKind::IntAlu, &[a, v]).1,
        });
    }
    let mut v = val.expect("streams >= 1");
    for _ in 0..work {
        v = b.alu(OpKind::IntAlu, &[v]).1;
    }
    b.store(MemAccess::unit(out, elem, 0), v);
    b.build()
}

/// Every topology the machine model supports, contended variants with
/// and without MSHRs.
fn topologies() -> Vec<(&'static str, InterconnectConfig)> {
    vec![
        ("flat", InterconnectConfig::flat()),
        ("crossbar", InterconnectConfig::crossbar(1, 1)),
        ("hier", InterconnectConfig::hierarchical(1, 1, 2)),
        ("mesh", InterconnectConfig::mesh(1, 1)),
        ("mesh+mshr", InterconnectConfig::mesh(1, 1).with_mshr(4)),
    ]
}

fn check(name: &str, case: u64, r: &SimResult) {
    let attributed: u64 = r.op_stalls.iter().map(|s| s.stall_cycles).sum();
    assert_eq!(
        attributed, r.stall_cycles,
        "case {case} {name}: per-op attribution must sum to the stalls"
    );
    assert!(
        r.contention_stall_cycles + r.link_stall_cycles <= r.stall_cycles,
        "case {case} {name}: contention ({}) + link ({}) exceed stalls ({})",
        r.contention_stall_cycles,
        r.link_stall_cycles,
        r.stall_cycles
    );
    assert_eq!(
        r.total_cycles(),
        r.compute_cycles + r.stall_cycles,
        "case {case} {name}"
    );
}

#[test]
fn attribution_is_complete_and_disjoint_on_every_topology() {
    for case in 0..CASES {
        let l = random_loop(case);
        for (name, ic) in topologies() {
            let cfg = MachineConfig::micro2003().with_interconnect(ic);
            let s = CompileRequest::new(Arch::L0)
                .compile(&l, &cfg)
                .unwrap_or_else(|e| panic!("case {case} {name}: {e}"));
            let r = simulate(&s);
            check(name, case, &r);
            if cfg.interconnect.is_flat() {
                assert_eq!(r.contention_stall_cycles, 0, "case {case}");
                assert_eq!(r.link_stall_cycles, 0, "case {case}");
                assert_eq!(r.mshr_merged(), 0, "case {case}");
            }
            // determinism: the attribution replays bit-for-bit
            assert_eq!(r, simulate(&s), "case {case} {name}");
        }
    }
}

#[test]
fn network_cycle_delta_equals_the_stall_delta() {
    // Simulate the *same schedule* against the contended network and the
    // uncontended (flat) one: compute cycles are schedule-determined, so
    // the total-cycle delta is exactly the stall delta — all network
    // overhead lands in the stall accounting, none leaks into compute.
    // `on_network` is the one re-target a schedule allows: the network
    // is the only part of the machine its legality does not depend on.
    for case in 0..CASES {
        let l = random_loop(case);
        for (name, ic) in topologies() {
            let cfg = MachineConfig::micro2003().with_interconnect(ic);
            let s = CompileRequest::new(Arch::L0)
                .compile(&l, &cfg)
                .unwrap_or_else(|e| panic!("case {case} {name}: {e}"));
            let contended = simulate(&s);
            let flat = s
                .on_network(InterconnectConfig::flat())
                .unwrap_or_else(|e| panic!("case {case} {name}: {e}"));
            assert_eq!(flat.machine(), &MachineConfig::micro2003());
            let uncontended = simulate(&flat);
            assert_eq!(
                contended.compute_cycles, uncontended.compute_cycles,
                "case {case} {name}: compute is schedule-determined"
            );
            assert_eq!(
                contended.total_cycles() as i64 - uncontended.total_cycles() as i64,
                contended.stall_cycles as i64 - uncontended.stall_cycles as i64,
                "case {case} {name}: every network cycle is a stall cycle"
            );
        }
    }
}

#[test]
fn every_arch_attributes_consistently_on_the_mesh() {
    let ic = InterconnectConfig::mesh(1, 1).with_mshr(2);
    let cfg = MachineConfig::micro2003().with_interconnect(ic);
    for case in 0..CASES / 4 {
        let l = random_loop(case);
        for arch in [
            Arch::Baseline,
            Arch::L0,
            Arch::MultiVliw,
            Arch::Interleaved2,
        ] {
            let s = CompileRequest::new(arch)
                .compile(&l, &cfg)
                .unwrap_or_else(|e| panic!("case {case} {arch}: {e}"));
            let r = simulate(&s);
            check("mesh", case, &r);
        }
    }
}
