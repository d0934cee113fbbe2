//! The fast-forward state keys (DESIGN.md §14) on every memory model:
//! a key is invariant under a rigid time shift of the whole request
//! history, `advance_clock` realizes that shift, and two models whose
//! keys are equal answer the same future requests identically.

use vliw_machine::{
    AccessHint, ClusterId, InterconnectConfig, MachineConfig, MappingHint, MemHints, PrefetchHint,
};
use vliw_mem::{
    MemRequest, MemoryModel, MultiVliwMem, UnifiedL1, UnifiedWithL0, WordInterleavedMem,
};
use vliw_testutil::Rng;

type Build = fn(&MachineConfig) -> Box<dyn MemoryModel>;

const MODELS: [(&str, Build); 4] = [
    ("unified", |c| Box::new(UnifiedL1::new(c))),
    ("unified-l0", |c| Box::new(UnifiedWithL0::new(c))),
    ("multivliw", |c| Box::new(MultiVliwMem::new(c))),
    ("interleaved", |c| Box::new(WordInterleavedMem::new(c))),
];

/// The paper's flat machine, plus a contended crossbar and a mesh, both
/// with MSHRs, so bank-port, link and MSHR state all enter the keys.
fn machines() -> Vec<(&'static str, MachineConfig)> {
    let base = MachineConfig::micro2003();
    vec![
        ("flat", base.clone()),
        (
            "crossbar",
            base.with_interconnect(InterconnectConfig::crossbar(2, 1).with_mshr(4)),
        ),
        (
            "mesh",
            base.with_interconnect(InterconnectConfig::mesh(4, 1).with_mshr(4)),
        ),
    ]
}

/// `n` mixed requests from every cluster over a small working set (so
/// lines hit, miss, evict and merge), issued from `start` on with up to
/// 20 cycles of replay skew. Every request is at or after `start`.
fn stream(rng: &mut Rng, start: u64, n: usize) -> Vec<MemRequest> {
    let mut clock = start + 20;
    (0..n)
        .map(|_| {
            clock += rng.range(0, 3);
            let cluster = ClusterId::new(rng.range_usize(0, 4));
            let addr = rng.range(0, 4096) * 4;
            let cycle = clock - rng.range(0, 20);
            let hints = MemHints::new(rng.pick(&[AccessHint::ParAccess, AccessHint::SeqAccess]))
                .with_mapping(rng.pick(&[MappingHint::Linear, MappingHint::Interleaved]))
                .with_prefetch(rng.pick(&[PrefetchHint::None, PrefetchHint::Positive]));
            match rng.range(0, 8) {
                0 => MemRequest::store(cluster, addr, 4, hints, cycle),
                1 => MemRequest::prefetch(cluster, addr, 4, cycle),
                _ => MemRequest::load(cluster, addr, 4, hints, cycle),
            }
        })
        .collect()
}

fn key(m: &dyn MemoryModel, base: u64) -> Vec<u64> {
    let mut out = Vec::new();
    m.state_key(base, &mut out);
    out
}

#[test]
fn every_model_keys_a_rigid_time_shift_identically() {
    const SHIFT: u64 = 100_003;
    for (net, cfg) in machines() {
        for (name, build) in MODELS {
            let label = format!("{name}/{net}");
            let mut rng = Rng::new(7);
            let warm = stream(&mut rng, 0, 400);
            let base = warm.iter().map(|r| r.cycle).max().unwrap() + 1;
            let (mut a, mut b) = (build(&cfg), build(&cfg));
            for r in &warm {
                let later = MemRequest {
                    cycle: r.cycle + SHIFT,
                    ..*r
                };
                let (ra, rb) = (a.access(r), b.access(&later));
                assert_eq!(ra.ready_at + SHIFT, rb.ready_at, "{label}");
            }
            assert_ne!(key(a.as_ref(), base), key(build(&cfg).as_ref(), base));
            assert_eq!(
                key(a.as_ref(), base),
                key(b.as_ref(), base + SHIFT),
                "{label}: a shifted history must key identically"
            );
            a.advance_clock(SHIFT);
            assert_eq!(
                key(a.as_ref(), base + SHIFT),
                key(b.as_ref(), base + SHIFT),
                "{label}: advance_clock must realize the shift"
            );
            // Equal keys, equal futures: the same requests from here on
            // get the same replies and leave the models keyed equal.
            let more = stream(&mut rng, base + SHIFT, 400);
            for r in &more {
                assert_eq!(a.access(r), b.access(r), "{label}: {r:?}");
            }
            let end = more.iter().map(|r| r.cycle).max().unwrap() + 1;
            assert_eq!(key(a.as_ref(), end), key(b.as_ref(), end), "{label}");
        }
    }
}
