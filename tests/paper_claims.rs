//! Integration tests for the paper's headline qualitative claims, run on
//! a subset of the synthetic Mediabench suite (the full sweep lives in
//! the `vliw-bench` binaries).

use clustered_vliw_l0::machine::{AccessHint, L0Capacity, MachineConfig};
use clustered_vliw_l0::sched::{CompileRequest, L0Options};
use clustered_vliw_l0::workloads::mediabench_suite;
use vliw_bench::{baseline_run, run_benchmark, Arch};

fn pick<'a>(
    suite: &'a [clustered_vliw_l0::workloads::BenchmarkSpec],
    name: &str,
) -> &'a clustered_vliw_l0::workloads::BenchmarkSpec {
    suite
        .iter()
        .find(|s| s.name == name)
        .expect("benchmark exists")
}

#[test]
fn g721_wins_big_with_eight_entry_buffers() {
    let suite = mediabench_suite();
    let spec = pick(&suite, "g721dec");
    let cfg = MachineConfig::micro2003();
    let base = baseline_run(spec, &cfg);
    let l0 = run_benchmark(
        spec,
        &cfg,
        Arch::L0,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    let norm = l0.total() as f64 / base.total() as f64;
    assert!(
        norm < 0.85,
        "g721dec normalized {norm:.3} must show a clear win"
    );
}

#[test]
fn jpegdec_does_not_benefit() {
    // §5.2: jpegdec is the benchmark where L0 buffers do not pay off.
    let suite = mediabench_suite();
    let spec = pick(&suite, "jpegdec");
    let cfg = MachineConfig::micro2003();
    let base = baseline_run(spec, &cfg);
    let l0 = run_benchmark(
        spec,
        &cfg,
        Arch::L0,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    let norm = l0.total() as f64 / base.total() as f64;
    assert!(
        norm > 0.95,
        "jpegdec normalized {norm:.3} should be ~1.0 or worse"
    );
}

#[test]
fn eight_entries_beat_two_entries() {
    // Figure 5 + in-text: 2-entry buffers give a smaller improvement.
    let suite = mediabench_suite();
    let spec = pick(&suite, "gsmdec");
    let big = MachineConfig::micro2003().with_l0_entries(L0Capacity::Bounded(8));
    let small = MachineConfig::micro2003().with_l0_entries(L0Capacity::Bounded(2));
    let base = baseline_run(spec, &big);
    let r8 = run_benchmark(
        spec,
        &big,
        Arch::L0,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    let r2 = run_benchmark(
        spec,
        &small,
        Arch::L0,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    assert!(
        r8.total() <= r2.total(),
        "8 entries ({}) must not lose to 2 ({})",
        r8.total(),
        r2.total()
    );
}

#[test]
fn multivliw_is_close_to_l0_and_interleaved_is_behind() {
    // Figure 7's ordering on a representative benchmark.
    let suite = mediabench_suite();
    let spec = pick(&suite, "g721enc");
    let cfg = MachineConfig::micro2003();
    let base = baseline_run(spec, &cfg);
    let l0 = run_benchmark(
        spec,
        &cfg,
        Arch::L0,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    let mv = run_benchmark(
        spec,
        &cfg,
        Arch::MultiVliw,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    let i1 = run_benchmark(
        spec,
        &cfg,
        Arch::Interleaved1,
        L0Options::default(),
        base.loops.total_cycles(),
    );
    let n_l0 = l0.total() as f64 / base.total() as f64;
    let n_mv = mv.total() as f64 / base.total() as f64;
    let n_i1 = i1.total() as f64 / base.total() as f64;
    assert!(
        (n_l0 - n_mv).abs() < 0.15,
        "L0 {n_l0:.3} close to MultiVLIW {n_mv:.3}"
    );
    assert!(
        n_l0 < n_i1,
        "L0 {n_l0:.3} beats word-interleaved h1 {n_i1:.3}"
    );
}

#[test]
fn table1_stride_shape_holds() {
    for spec in mediabench_suite() {
        let t = spec.table1_stats();
        match spec.name.as_str() {
            "g721dec" | "g721enc" => assert!(t.good_pct > 95.0, "{}: {t:?}", spec.name),
            "mpeg2dec" => assert!(t.other_pct > 30.0, "{}: {t:?}", spec.name),
            "jpegdec" | "jpegenc" | "pegwitdec" | "pegwitenc" => {
                assert!(t.strided_pct < 75.0, "{}: {t:?}", spec.name)
            }
            _ => assert!(t.strided_pct > 80.0, "{}: {t:?}", spec.name),
        }
    }
}

#[test]
fn hints_are_legal_across_the_suite() {
    // SEQ_ACCESS legality (§3.2): no other memory op in the next slot of
    // the same cluster; NO_ACCESS loads carry no prefetch hints.
    let cfg = MachineConfig::micro2003();
    for spec in mediabench_suite().iter().take(4) {
        for loop_ in &spec.loops {
            let s = CompileRequest::new(Arch::L0).compile_or_panic(loop_, &cfg);
            let ii = s.ii() as i64;
            let mem_slots: std::collections::HashSet<(usize, i64)> = s
                .placements
                .iter()
                .filter(|p| s.loop_.op(p.op).kind.is_mem())
                .map(|p| (p.cluster.index(), p.t.rem_euclid(ii)))
                .collect();
            for p in &s.placements {
                let op = s.loop_.op(p.op);
                if op.is_load() && p.hints.access == AccessHint::SeqAccess {
                    let next = (p.t + 1).rem_euclid(ii);
                    assert!(
                        !mem_slots.contains(&(p.cluster.index(), next)),
                        "{}/{}: SEQ load with busy next slot",
                        spec.name,
                        loop_.name
                    );
                }
            }
        }
    }
}
