//! Acceptance pin for the scheduler-backend axis: across the *full*
//! synthetic Mediabench suite, the exact backend never reports an II
//! below the MII or above the SMS heuristic for the same loop body, and
//! its optimality verdicts are internally consistent.
//!
//! Comparisons pin `UnrollPolicy::Never` so both backends schedule the
//! identical body (under `Auto` the driver may pick different unroll
//! factors per backend — better cycles per iteration, incomparable raw
//! IIs); the unrolled body is exercised explicitly.

use clustered_vliw_l0::machine::MachineConfig;
use vliw_sched::{Arch, BackendKind, CompileRequest, IiProof, L0Options, UnrollPolicy};
use vliw_workloads::mediabench_suite;

const ARCHES: [Arch; 3] = [Arch::Baseline, Arch::L0, Arch::Interleaved2];

#[test]
fn exact_ii_within_mii_and_sms_across_the_whole_suite() {
    let cfg = MachineConfig::micro2003();
    for spec in mediabench_suite() {
        for l in &spec.loops {
            for arch in ARCHES {
                let sms = CompileRequest::new(arch)
                    .unroll(UnrollPolicy::Never)
                    .compile_or_panic(l, &cfg);
                let exact = CompileRequest::new(arch)
                    .backend(BackendKind::Exact)
                    .unroll(UnrollPolicy::Never)
                    .compile_or_panic(l, &cfg);
                assert!(
                    exact.ii() >= exact.mii,
                    "{}/{} {arch}: exact II {} below MII {}",
                    spec.name,
                    l.name,
                    exact.ii(),
                    exact.mii
                );
                assert!(
                    exact.ii() <= sms.ii(),
                    "{}/{} {arch}: exact II {} above SMS II {}",
                    spec.name,
                    l.name,
                    exact.ii(),
                    sms.ii()
                );
                if sms.ii() == sms.mii {
                    assert_eq!(
                        exact.ii(),
                        sms.ii(),
                        "{}/{} {arch}: SMS already minimal but exact differs",
                        spec.name,
                        l.name
                    );
                }
                assert_ne!(
                    exact.ii_proof,
                    IiProof::Heuristic,
                    "{}/{} {arch}: exact always settles a proof status",
                    spec.name,
                    l.name
                );
            }
        }
    }
}

#[test]
fn default_backend_is_bit_exact_with_the_legacy_compile_path() {
    // The `CompileRequest` default must reproduce the legacy per-arch
    // compile path: the SMS backend with default L0 options.
    let cfg = MachineConfig::micro2003();
    for spec in mediabench_suite().into_iter().take(3) {
        for l in &spec.loops {
            for arch in ARCHES {
                let via_default = CompileRequest::new(arch).compile_or_panic(l, &cfg);
                let via_explicit = CompileRequest::new(arch)
                    .backend(BackendKind::Sms)
                    .opts(L0Options::default())
                    .compile_or_panic(l, &cfg);
                assert_eq!(via_default.ii(), via_explicit.ii());
                assert_eq!(via_default.placements, via_explicit.placements);
                assert_eq!(via_default.copies, via_explicit.copies);
            }
        }
    }
}
