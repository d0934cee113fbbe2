//! Service-layer bit-exactness: a symbolic template instantiated at a
//! concrete trip shape must equal direct compilation — for every loop in
//! the Mediabench suite, on every architecture, and at bounds the suite
//! never shipped. This is the correctness contract that lets the
//! compile service cache one artifact per loop *body* and serve every
//! client-specific bound from it.

use clustered_vliw_l0::ir::TripShape;
use clustered_vliw_l0::machine::MachineConfig;
use clustered_vliw_l0::sched::{Arch, CompileRequest};
use clustered_vliw_l0::workloads::mediabench_suite;

/// Compare via canonical JSON (`Schedule` carries no `PartialEq`).
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("schedules serialize")
}

#[test]
fn every_suite_loop_instantiates_bit_exactly_on_every_arch() {
    let cfg = MachineConfig::micro2003();
    let mut pairs = 0usize;
    for spec in mediabench_suite() {
        for loop_ in &spec.loops {
            for arch in Arch::ALL {
                let request = CompileRequest::new(arch);
                let direct = request.compile(loop_, &cfg).unwrap_or_else(|e| {
                    panic!(
                        "{}/{:?}: suite loops compile directly: {e:?}",
                        loop_.name, arch
                    )
                });
                let artifact = request.compile_symbolic(loop_, &cfg).unwrap_or_else(|e| {
                    panic!("{}/{:?}: template compiles: {e:?}", loop_.name, arch)
                });
                let inst = request
                    .instantiate(&artifact, TripShape::of(loop_))
                    .unwrap_or_else(|e| {
                        panic!("{}/{:?}: instantiation is legal: {e:?}", loop_.name, arch)
                    });
                assert_eq!(
                    json(&direct),
                    json(&inst),
                    "{}/{arch:?}: instantiated != direct",
                    loop_.name
                );
                pairs += 1;
            }
        }
    }
    // The suite is ~50 loops x 5 arches; make sure nothing was skipped.
    assert!(pairs >= 200, "only {pairs} (loop, arch) pairs compared");
}

#[test]
fn templates_serve_bounds_the_suite_never_shipped() {
    // One template per loop, instantiated at trips the original loop
    // never had — including trip 1 (below every unroll eligibility) —
    // must still match compiling the re-bounded loop from scratch.
    let cfg = MachineConfig::micro2003();
    let request = CompileRequest::new(Arch::L0);
    for spec in mediabench_suite() {
        for loop_ in &spec.loops {
            let artifact = request.compile_symbolic(loop_, &cfg).expect("template");
            for trip in [1u64, 7, 4096] {
                let mut variant = loop_.clone();
                variant.trip_count = trip;
                let direct = request.compile(&variant, &cfg).expect("direct");
                let inst = request
                    .instantiate(&artifact, TripShape::of(&variant))
                    .expect("instantiation");
                assert_eq!(
                    json(&direct),
                    json(&inst),
                    "{} @ trip {trip}: instantiated != direct",
                    loop_.name
                );
            }
        }
    }
}
