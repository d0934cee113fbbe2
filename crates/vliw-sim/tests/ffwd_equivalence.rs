//! The steady-state fast-forward's bit-exactness gate: batching whole
//! periods in closed form ([`simulate`]) must produce the *identical*
//! [`vliw_sim::SimResult`] a full replay ([`simulate_replay`]) produces
//! — for every architecture, across random loop nests on random
//! machines, the fuzz quick corpus, and the workloads behind all three
//! golden sweeps. Correctness never depends on detection *firing* (an
//! irregular stream simply replays), so these tests assert equality
//! everywhere and ffwd activity only on the workloads engineered to
//! settle.

use vliw_ir::LoopNest;
use vliw_machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_sched::{Arch, CompileRequest};
use vliw_sim::{simulate, simulate_replay};
use vliw_testutil::{cases, Rng};
use vliw_workloads::fuzz::{random_loop, random_machine};
use vliw_workloads::{kernels, mediabench_suite};

/// Simulates one compiled schedule with the fast-forward on and off and
/// asserts they are a single result. Returns the batched iteration count
/// of the fast-forwarded run so callers can additionally pin that
/// detection fired.
fn assert_ffwd_invisible(label: &str, l: &LoopNest, cfg: &MachineConfig, arch: Arch) -> u64 {
    let Ok(s) = CompileRequest::new(arch).compile(l, cfg) else {
        return 0; // infeasible on this machine; nothing to compare
    };
    let replayed = simulate_replay(&s);
    assert_eq!(
        replayed.ffwd.iters_batched, 0,
        "{label}/{arch}: ffwd off must replay everything"
    );
    let batched = simulate(&s);
    assert_eq!(
        replayed, batched,
        "{label}/{arch}: fast-forward diverged from the full replay"
    );
    batched.ffwd.iters_batched
}

#[test]
fn ffwd_toggle_is_invisible_on_random_cases() {
    // Random loop nests (incl. irregular streams that never settle) on
    // random machines across every topology and MSHR depth.
    cases(24, |case, rng| {
        let l = random_loop(rng);
        let cfg = random_machine(rng);
        for arch in Arch::ALL {
            assert_ffwd_invisible(&format!("case-{case}"), &l, &cfg, arch);
        }
    });
}

#[test]
fn ffwd_toggle_is_invisible_on_the_fuzz_quick_corpus() {
    // The exact loop/machine pairs of the fuzz quick corpus
    // (`FuzzConfig::quick()` draws seeds 0..4 through the same
    // generators), so a red fuzz run reproduces here by seed.
    for seed in 0..4u64 {
        let mut rng = Rng::new(seed);
        let l = random_loop(&mut rng);
        let cfg = random_machine(&mut rng);
        for arch in Arch::ALL {
            assert_ffwd_invisible(&format!("seed-{seed}"), &l, &cfg, arch);
        }
    }
}

/// The `sweep_clusters`/`sweep_pgo` machine at `n` clusters on the mesh
/// + MSHR network (co-scaled L1 geometry, 8-byte subblocks).
fn mesh_machine(n: usize) -> MachineConfig {
    let mut cfg = MachineConfig::micro2003()
        .with_interconnect(
            InterconnectConfig::mesh((n / 4).max(1), 1)
                .with_bank_interleave(8 * n)
                .with_mshr(4),
        )
        .with_l0_entries(L0Capacity::Bounded((32 / n).max(1)));
    cfg.clusters = n;
    cfg.l1.block_bytes = 8 * n;
    cfg.l1.size_bytes = 2048 * n;
    cfg.validate().expect("co-scaled mesh machine");
    cfg
}

/// The kernel trio behind the `sweep_clusters` and `sweep_pgo` goldens
/// (test-scale visit counts; the sweeps' higher counts only lengthen the
/// batched steady tail).
fn golden_kernels() -> Vec<LoopNest> {
    vec![
        kernels::adpcm_predictor("pred", 64, 8),
        kernels::media_stream("stream", 3, 6, 2, 256, 8, false),
        kernels::row_filter("fir6", 6, 160, 8),
    ]
}

#[test]
fn golden_cluster_sweep_kernels_are_ffwd_invariant_and_batch() {
    // The high-trip mesh columns the fast-forward was built for: the
    // toggle must be invisible *and* detection must actually fire —
    // a silently dead detector would pass every equality gate while the
    // sweeps quietly lose their speedup.
    for n in [4usize, 16] {
        let cfg = mesh_machine(n);
        for l in golden_kernels() {
            let mut batched = 0;
            for arch in Arch::ALL {
                batched += assert_ffwd_invisible(&format!("{n}-mesh"), &l, &cfg, arch);
            }
            assert!(
                batched > 0,
                "{n}-mesh/{}: fast-forward never fired on a steady stream kernel",
                l.name
            );
        }
    }
    // One 64-cluster spot check (the sweep's headline column) — a single
    // kernel × arch, because compiling the whole trio at 64 clusters
    // costs more wall-clock than the rest of this suite combined. The
    // full 64/128-cluster grid is equality-gated at sweep scale by the
    // golden reproduction check.
    let cfg = mesh_machine(64);
    let l = kernels::media_stream("stream", 3, 6, 2, 256, 8, false);
    let batched = assert_ffwd_invisible("64-mesh", &l, &cfg, Arch::L0);
    assert!(batched > 0, "64-mesh/stream: fast-forward never fired");
}

/// An 8-cluster L0 machine on `network`: 4-entry buffers, 64-byte L1
/// blocks and a 16 KiB L1.
fn eight_cluster_machine(network: InterconnectConfig) -> MachineConfig {
    let mut cfg = MachineConfig::micro2003().with_l0_entries(L0Capacity::Bounded(4));
    cfg.clusters = 8;
    cfg.interconnect = network;
    cfg.l1.block_bytes = 64;
    cfg.l1.size_bytes = 16 * 1024;
    cfg.validate().expect("8-cluster machine");
    cfg
}

#[test]
fn ffwd_fires_on_every_network() {
    // One network per interconnect arbitration path: the flat fast path,
    // the banked hierarchical network and the mesh NoC with MSHRs. The
    // stream kernels are engineered to settle on all three, so a network
    // that batches nothing has a dead detector there. The gate is per
    // network, so one dead network cannot hide behind the other two.
    let networks = [
        ("flat", InterconnectConfig::flat()),
        (
            "hier",
            InterconnectConfig::hierarchical(2, 1, 4).with_bank_interleave(64),
        ),
        (
            "mesh",
            InterconnectConfig::mesh(2, 1)
                .with_bank_interleave(64)
                .with_mshr(4),
        ),
    ];
    let loops = [
        kernels::adpcm_predictor("pred", 64, 8),
        kernels::media_stream("stream", 3, 6, 2, 128, 4, false),
        kernels::row_filter("fir6", 6, 96, 4),
    ];
    let mut dead = Vec::new();
    for (name, network) in networks {
        let cfg = eight_cluster_machine(network);
        let batched: u64 = loops
            .iter()
            .map(|l| assert_ffwd_invisible(name, l, &cfg, Arch::L0))
            .sum();
        if batched == 0 {
            dead.push(name);
        }
    }
    assert!(
        dead.is_empty(),
        "fast-forward never fired on the {dead:?} network(s)"
    );
}

#[test]
fn golden_backend_suite_is_ffwd_invariant() {
    // The synthetic Mediabench suite behind `sweep_backends`, on the
    // paper's 4-cluster flat machine the golden grid uses.
    let cfg = MachineConfig::micro2003();
    for spec in mediabench_suite() {
        for l in &spec.loops {
            for arch in [Arch::Baseline, Arch::L0] {
                assert_ffwd_invisible(&spec.name, l, &cfg, arch);
            }
        }
    }
}
