//! Property-based tests on the scheduler: every schedulable loop yields a
//! resource-legal schedule whose dependences are satisfied, on every
//! target architecture. Inputs come from `vliw-testutil`'s deterministic
//! generator (proptest is unavailable offline).

use vliw_ir::{DepKind, LoopBuilder, LoopNest};
use vliw_machine::MachineConfig;
use vliw_sched::{Arch, CompileRequest, Schedule};
use vliw_testutil::{cases, Rng};

const CASES: u64 = 96;

fn random_kernel(rng: &mut Rng) -> LoopNest {
    let taps = rng.range_usize(1, 4);
    let work = rng.range_usize(0, 6);
    let elem: u8 = rng.pick(&[1u8, 2, 4]);
    let trip = rng.range(16, 128);
    let kind = rng.pick(&["fir", "ew", "slp", "red", "stencil"]);
    let b = LoopBuilder::new(format!("{kind}-sched-prop")).trip_count(trip);
    let b = match kind {
        "fir" => b.fir(taps.max(1), elem),
        "ew" => b.elementwise(elem),
        "slp" => b.store_load_pair(4),
        "red" => b.reduction(elem.max(2)),
        _ => b.stencil3(elem),
    };
    b.int_overhead(work).build()
}

fn compile(l: &LoopNest, cfg: &MachineConfig, arch: Arch) -> Schedule {
    CompileRequest::new(arch)
        .compile(l, cfg)
        .expect("schedulable")
}

/// Checks every dependence edge of the scheduled loop:
/// `t(dst) + II·dist ≥ t(src) + latency(edge)` modulo cross-cluster copy
/// slack (copies add at least the bus latency).
fn dependences_satisfied(s: &Schedule, cfg: &MachineConfig) -> Result<(), String> {
    let ii = s.ii() as i64;
    let bus = cfg.buses.latency as i64;
    for e in &s.loop_.edges {
        if e.src == e.dst {
            continue;
        }
        let sp = s.placement(e.src);
        let dp = s.placement(e.dst);
        let lat = match e.kind {
            DepKind::Mem { .. } => 1,
            _ => sp.assumed_latency as i64,
        };
        let cross = sp.cluster != dp.cluster && !e.kind.is_mem();
        let needed = if cross { lat + bus } else { lat };
        let have = dp.t + ii * e.distance as i64 - sp.t;
        if have < needed {
            return Err(format!(
                "edge {}->{} d{}: have {have}, need {needed} (cross={cross})",
                e.src, e.dst, e.distance
            ));
        }
    }
    Ok(())
}

#[test]
fn base_schedules_are_resource_and_dependence_legal() {
    let cfg = MachineConfig::micro2003();
    cases(CASES, |case, rng| {
        let l = random_kernel(rng);
        let s = compile(&l, &cfg, Arch::Baseline);
        s.validate(&cfg)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        dependences_satisfied(&s, &cfg).unwrap_or_else(|e| panic!("case {case}: {e}"));
    });
}

#[test]
fn l0_schedules_are_resource_and_dependence_legal() {
    let cfg = MachineConfig::micro2003();
    cases(CASES, |case, rng| {
        let l = random_kernel(rng);
        let s = compile(&l, &cfg, Arch::L0);
        s.validate(&cfg)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        dependences_satisfied(&s, &cfg).unwrap_or_else(|e| panic!("case {case}: {e}"));
        // memory instructions carry hints consistent with their latency
        let l0_lat = cfg.l0.unwrap().latency;
        for p in &s.placements {
            let op = s.loop_.op(p.op);
            if op.is_load() && p.assumed_latency == l0_lat {
                assert!(
                    p.hints.access.uses_l0(),
                    "case {case} {}: L0 latency w/o L0 hint",
                    p.op
                );
            }
            if op.is_load() && p.assumed_latency != l0_lat {
                assert!(
                    !p.hints.access.uses_l0(),
                    "case {case} {}: L1 latency w/ L0 hint",
                    p.op
                );
            }
        }
    });
}

#[test]
fn distributed_targets_schedule_everything() {
    let cfg = MachineConfig::micro2003();
    cases(CASES, |case, rng| {
        let l = random_kernel(rng);
        for arch in [Arch::MultiVliw, Arch::Interleaved1, Arch::Interleaved2] {
            let s = compile(&l, &cfg, arch);
            s.validate(&cfg)
                .unwrap_or_else(|e| panic!("case {case} {arch}: {e}"));
        }
    });
}

#[test]
fn ii_is_at_least_the_memory_pressure_bound() {
    let cfg = MachineConfig::micro2003();
    cases(CASES, |case, rng| {
        let l = random_kernel(rng);
        let s = compile(&l, &cfg, Arch::L0);
        let mem_ops = s.loop_.mem_ops().count() + s.prefetches.len() + s.replicas.len();
        let bound = mem_ops.div_ceil(cfg.clusters * cfg.fus.mem) as u32;
        assert!(
            s.ii() >= bound,
            "case {case}: II {} below mem bound {bound}",
            s.ii()
        );
    });
}

#[test]
fn use_distances_cover_assumed_latencies() {
    let cfg = MachineConfig::micro2003();
    cases(CASES, |case, rng| {
        let l = random_kernel(rng);
        let s = compile(&l, &cfg, Arch::L0);
        for p in &s.placements {
            if let Some(du) = p.use_distance {
                assert!(
                    du >= p.assumed_latency,
                    "case {case} {}: use distance {du} < assumed latency {}",
                    p.op,
                    p.assumed_latency
                );
            }
        }
    });
}
