//! End-to-end integration tests spanning every crate: IR → scheduler →
//! memory hierarchy → simulator.

use clustered_vliw_l0::ir::{LoopBuilder, LoopNest};
use clustered_vliw_l0::machine::{L0Capacity, MachineConfig};
use clustered_vliw_l0::sched::{Arch, CompileRequest, Schedule};
use clustered_vliw_l0::sim::simulate_arch;
use clustered_vliw_l0::workloads::kernels;

fn cfg() -> MachineConfig {
    MachineConfig::micro2003()
}

fn compile(l: &LoopNest, c: &MachineConfig, arch: Arch) -> Schedule {
    CompileRequest::new(arch)
        .compile(l, c)
        .expect("schedulable")
}

#[test]
fn recurrence_loop_gains_from_l0_latency() {
    let l = kernels::adpcm_predictor("pred", 64, 20);
    let base = compile(&l, &cfg(), Arch::Baseline);
    let l0 = compile(&l, &cfg(), Arch::L0);
    assert!(
        l0.ii() + 3 <= base.ii(),
        "the L0 latency must shorten the memory recurrence: {} vs {}",
        l0.ii(),
        base.ii()
    );
    let rb = simulate_arch(&base, &cfg(), Arch::Baseline);
    let rl = simulate_arch(&l0, &cfg(), Arch::L0);
    assert!(
        (rl.total_cycles() as f64) < 0.75 * rb.total_cycles() as f64,
        "expected a large win: {} vs {}",
        rl.total_cycles(),
        rb.total_cycles()
    );
}

#[test]
fn every_architecture_compiles_and_runs_every_kernel_shape() {
    let loops = [
        kernels::media_stream("stream", 2, 4, 2, 64, 2, false),
        kernels::adpcm_predictor("pred", 32, 2),
        kernels::row_filter("fir", 4, 32, 2),
        kernels::column_pass("col", 288, 16, 32, 2),
        kernels::table_lookup("tbl", 2, 4096, 32, 2),
        kernels::reversed_stream("rev", 32, 2),
    ];
    let c = cfg();
    for l in &loops {
        for arch in Arch::ALL {
            let s = compile(l, &c, arch);
            assert!(
                simulate_arch(&s, &c, arch).total_cycles() > 0,
                "{}/{arch}",
                l.name
            );
        }
    }
}

#[test]
fn bigger_buffers_never_lose_on_multi_stream_loops() {
    let l = kernels::media_stream("streams", 3, 4, 2, 128, 4, false);
    let totals: Vec<u64> = [2usize, 4, 8, 16]
        .iter()
        .map(|&e| {
            let c = cfg().with_l0_entries(L0Capacity::Bounded(e));
            let s = compile(&l, &c, Arch::L0);
            simulate_arch(&s, &c, Arch::L0).total_cycles()
        })
        .collect();
    assert!(
        totals[3] <= totals[0],
        "16-entry {} must not lose to 2-entry {}",
        totals[3],
        totals[0]
    );
}

#[test]
fn unbounded_matches_or_beats_sixteen_entries() {
    let l = kernels::row_filter("fir6", 6, 96, 4);
    let c16 = cfg().with_l0_entries(L0Capacity::Bounded(16));
    let cu = cfg().with_l0_entries(L0Capacity::Unbounded);
    let s16 = compile(&l, &c16, Arch::L0);
    let su = compile(&l, &cu, Arch::L0);
    let r16 = simulate_arch(&s16, &c16, Arch::L0);
    let ru = simulate_arch(&su, &cu, Arch::L0);
    assert!(ru.total_cycles() <= r16.total_cycles() + r16.total_cycles() / 50);
}

#[test]
fn simulation_is_deterministic_across_all_architectures() {
    let l = kernels::table_lookup("tbl", 3, 1 << 16, 64, 3);
    let c = cfg();
    for arch in Arch::ALL {
        let s = compile(&l, &c, arch);
        assert_eq!(
            simulate_arch(&s, &c, arch),
            simulate_arch(&s, &c, arch),
            "{arch}"
        );
    }
}

#[test]
fn schedules_respect_machine_resources_end_to_end() {
    let c = cfg();
    for l in [
        kernels::media_stream("a", 4, 8, 2, 64, 1, false),
        kernels::row_filter("b", 10, 64, 1),
        kernels::stream_pressure("c", 9, 32, 1),
    ] {
        let s = compile(&l, &c, Arch::L0);
        s.validate(&c).unwrap_or_else(|e| panic!("{}: {e}", l.name));
        let b = compile(&l, &c, Arch::Baseline);
        b.validate(&c).unwrap_or_else(|e| panic!("{}: {e}", l.name));
    }
}

#[test]
fn prefetch_distance_two_helps_small_ii_streams() {
    let l = LoopBuilder::new("tiny-ii")
        .trip_count(256)
        .visits(8)
        .elementwise(2)
        .build();
    let d1 = cfg();
    let d2 = cfg().with_prefetch_distance(2);
    let s1 = compile(&l, &d1, Arch::L0);
    let s2 = compile(&l, &d2, Arch::L0);
    let r1 = simulate_arch(&s1, &d1, Arch::L0);
    let r2 = simulate_arch(&s2, &d2, Arch::L0);
    assert!(
        r2.stall_cycles < r1.stall_cycles,
        "distance 2 must reduce prefetch-too-late stalls: {} vs {}",
        r2.stall_cycles,
        r1.stall_cycles
    );
}

#[test]
fn flush_on_exit_isolates_visits() {
    // With flushes, every visit cold-starts: stats must show one flush per
    // cluster per visit.
    let l = LoopBuilder::new("flush")
        .trip_count(64)
        .visits(5)
        .elementwise(2)
        .build();
    let c = cfg();
    let s = compile(&l, &c, Arch::L0);
    assert!(s.flush_on_exit);
    let r = simulate_arch(&s, &c, Arch::L0);
    assert_eq!(r.mem_stats.buffer_flushes, 5 * 4);
}
