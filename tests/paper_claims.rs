//! Integration tests for the paper's headline qualitative claims, run on
//! a subset of the synthetic Mediabench suite (the full sweep lives in
//! the `vliw-bench` binaries).

use clustered_vliw_l0::machine::{AccessHint, L0Capacity, MachineConfig};
use clustered_vliw_l0::sched::CompileRequest;
use clustered_vliw_l0::workloads::mediabench_suite;
use vliw_bench::experiment::{SweepGrid, Variant};
use vliw_bench::Arch;

/// The normalized execution time (`Cell::normalized`: total cycles over
/// the unified-L1 baseline's) of the benchmark `name` under each of
/// `variants`, on the paper's machine.
fn normalized(name: &str, variants: impl IntoIterator<Item = Variant>) -> Vec<f64> {
    let spec = mediabench_suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark exists");
    let result = SweepGrid::new(name, MachineConfig::micro2003(), vec![spec])
        .with_variants(variants)
        .run();
    result.row(0).iter().map(|c| c.normalized).collect()
}

#[test]
fn g721_wins_big_with_eight_entry_buffers() {
    let norm = normalized("g721dec", [Variant::new(Arch::L0)])[0];
    assert!(
        norm < 0.85,
        "g721dec normalized {norm:.3} must show a clear win"
    );
}

#[test]
fn jpegdec_does_not_benefit() {
    // §5.2: jpegdec is the benchmark where L0 buffers do not pay off.
    let norm = normalized("jpegdec", [Variant::new(Arch::L0)])[0];
    assert!(
        norm > 0.95,
        "jpegdec normalized {norm:.3} should be ~1.0 or worse"
    );
}

#[test]
fn eight_entries_beat_two_entries() {
    // Figure 5 + in-text: 2-entry buffers give a smaller improvement.
    let n = normalized(
        "gsmdec",
        [8, 2].map(|e| Variant::new(Arch::L0).l0(L0Capacity::Bounded(e))),
    );
    let (r8, r2) = (n[0], n[1]);
    assert!(r8 <= r2, "8 entries ({r8:.3}) must not lose to 2 ({r2:.3})");
}

#[test]
fn multivliw_is_close_to_l0_and_interleaved_is_behind() {
    // Figure 7's ordering on a representative benchmark.
    let n = normalized(
        "g721enc",
        [Arch::L0, Arch::MultiVliw, Arch::Interleaved1].map(Variant::new),
    );
    let (n_l0, n_mv, n_i1) = (n[0], n[1], n[2]);
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
