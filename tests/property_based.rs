//! Cross-crate property tests: randomly generated loops must always
//! produce valid schedules on every architecture, and simulation must be
//! deterministic and total.
//!
//! The loop generator is driven by `vliw-testutil`'s deterministic PRNG
//! instead of proptest (which is unavailable offline): the same 48 cases
//! run on every machine, so failures reproduce from the printed case
//! index.

use clustered_vliw_l0::ir::{LoopBuilder, LoopNest, MemAccess, OpKind, StridePattern};
use clustered_vliw_l0::machine::{L0Capacity, MachineConfig};
use clustered_vliw_l0::sched::{Arch, BackendKind, CompileRequest};
use clustered_vliw_l0::sim::simulate;
use vliw_testutil::Rng;

const CASES: u64 = 48;

/// A random but well-formed loop: a handful of streams with assorted
/// strides/element sizes, arithmetic in between, and optionally an
/// aliasing in-place update.
fn random_loop(case: u64) -> LoopNest {
    let mut rng = Rng::new(case);
    let streams = rng.range_usize(1, 4);
    let work = rng.range_usize(0, 6);
    let elem: u8 = rng.pick(&[1u8, 2, 4]);
    let stride_elems: i64 = rng.pick(&[-1i64, 0, 1, 3]);
    let visits = rng.range(1, 6);
    let trip = rng.range(16, 128);
    let aliasing = rng.flip();

    let mut b = LoopBuilder::new("prop").trip_count(trip).visits(visits);
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
    if aliasing {
        let (ld, prev) = b.load(MemAccess::unit(out, elem, -(elem as i64)));
        let (_, w) = b.alu(OpKind::IntAlu, &[prev]);
        let st = b.store(MemAccess::unit(out, elem, 8), w);
        b.dep_mem(st, ld, 1, false);
    }
    b.build()
}

#[test]
fn random_loops_always_schedule_validly() {
    let cfg = MachineConfig::micro2003();
    for case in 0..CASES {
        let l = random_loop(case);
        let base = CompileRequest::new(Arch::Baseline)
            .compile(&l, &cfg)
            .unwrap_or_else(|e| panic!("case {case}: baseline: {e}"));
        base.validate(&cfg)
            .unwrap_or_else(|e| panic!("case {case}: baseline valid: {e}"));
        let l0 = CompileRequest::new(Arch::L0)
            .compile(&l, &cfg)
            .unwrap_or_else(|e| panic!("case {case}: L0: {e}"));
        l0.validate(&cfg)
            .unwrap_or_else(|e| panic!("case {case}: L0 valid: {e}"));
        // the L0 latency can only relax dependence constraints
        assert!(
            l0.ii() <= base.ii() + 1,
            "case {case}: {} > {} + 1",
            l0.ii(),
            base.ii()
        );
    }
}

#[test]
fn random_loops_simulate_deterministically() {
    let cfg = MachineConfig::micro2003();
    for case in 0..CASES {
        let l = random_loop(case);
        let s = CompileRequest::new(Arch::L0)
            .compile(&l, &cfg)
            .expect("schedulable");
        let a = simulate(&s);
        let b = simulate(&s);
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn stalls_never_make_compute_negative_and_totals_add_up() {
    let cfg = MachineConfig::micro2003();
    for case in 0..CASES {
        let l = random_loop(case);
        let base = CompileRequest::new(Arch::Baseline)
            .compile(&l, &cfg)
            .expect("schedulable");
        let r = simulate(&base);
        assert_eq!(
            r.total_cycles(),
            r.compute_cycles + r.stall_cycles,
            "case {case}"
        );
        assert!(
            r.compute_cycles >= l.visits * base.compute_cycles_per_visit(),
            "case {case}"
        );
    }
}

/// A flat machine with `clusters` clusters and the L1 scaled per
/// cluster, as the fuzz corpus's `random_machine` scales it (4 clusters
/// is the paper's machine).
fn machine(clusters: usize) -> MachineConfig {
    let mut cfg = MachineConfig::micro2003();
    cfg.clusters = clusters;
    cfg.l1.block_bytes = 8 * clusters;
    cfg.l1.size_bytes = 2048 * clusters;
    cfg
}

#[test]
fn capacity_sweep_is_safe_for_any_loop() {
    for clusters in [4, 8, 16] {
        for case in 0..CASES / 4 {
            let l = random_loop(case);
            for entries in [
                L0Capacity::Bounded(2),
                L0Capacity::Bounded(8),
                L0Capacity::Unbounded,
            ] {
                let cfg = machine(clusters).with_l0_entries(entries);
                let s = CompileRequest::new(Arch::L0)
                    .compile(&l, &cfg)
                    .expect("schedulable");
                let r = simulate(&s);
                let at = format!("{clusters} clusters, case {case}, {entries}");
                assert!(r.total_cycles() > 0, "{at}");
                let rate = r.mem_stats.l0_hit_rate();
                assert!((0.0..=1.0).contains(&rate), "{at}: {rate}");
            }
            // An unbounded buffer is one no candidate can overflow, at
            // any cluster count: it must mark exactly what a buffer too
            // large to fill marks. The two targets differ (by their L0
            // size), so every field but the target is compared.
            for backend in BackendKind::ALL {
                let compile = |entries| {
                    let cfg = machine(clusters).with_l0_entries(entries);
                    CompileRequest::new(Arch::L0)
                        .backend(backend)
                        .compile(&l, &cfg)
                        .expect("schedulable")
                };
                let u = compile(L0Capacity::Unbounded);
                let b = compile(L0Capacity::Bounded(1 << 20));
                assert!(
                    u.loop_ == b.loop_
                        && (u.ii(), u.stage_count(), u.mii, u.ii_proof)
                            == (b.ii(), b.stage_count(), b.mii, b.ii_proof)
                        && u.placements == b.placements
                        && u.copies == b.copies
                        && u.prefetches == b.prefetches
                        && u.replicas == b.replicas
                        && (u.flush_on_exit, &u.max_live) == (b.flush_on_exit, &b.max_live),
                    "{clusters} clusters, case {case}, {backend}: unbounded differs from 2^20 entries"
                );
            }
        }
    }
}
