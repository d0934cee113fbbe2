//! The fixed-seed fuzz corpus: synthetic traffic patterns and random
//! loop nests, every scenario replayed under the workspace's property
//! gates.
//!
//! Two scenario families, both fully deterministic:
//!
//! * **Traffic** — every [`PatternSpec`](vliw_workloads::traffic::PatternSpec)
//!   preset × every corpus topology
//!   × every memory model.
//!   Gate: [`check_traffic`]'s reply-level invariants.
//! * **Loops** — seeded random loop nests on seeded random machines
//!   through the real compile→simulate path, every architecture.
//!   Gates: [`check_loop`]/[`check_normalization`] on the IR,
//!   [`check_schedule`] (which re-derives `Schedule::validate`, the L0
//!   budget, hint and coherence legality, and MII ≤ II),
//!   [`check_sim`]'s exact stall attribution, plus equality with the
//!   fast-forward-off replay ([`simulate_replay`]). Infeasible-II draws
//!   are skipped and counted; any other compile failure gates.
//!
//! A third, report-only section showcases the adversarial corpus's
//! point: the same loops on a contended 16-cluster mesh, compiled
//! contention-blind vs [`AssignmentPolicy::ContentionAware`] vs
//! profile-guided two-pass.

use serde::Serialize;
use vliw_machine::{InterconnectConfig, MachineConfig, Topology};
use vliw_mem::{MemoryModel, MultiVliwMem, UnifiedL1, UnifiedWithL0, WordInterleavedMem};
use vliw_sched::{AssignmentPolicy, CompileRequest, ScheduleError, VerifyLevel};
use vliw_sim::{simulate, simulate_replay};
use vliw_testutil::Rng;
use vliw_verify::{
    check_loop, check_normalization, check_schedule, check_sim, check_traffic, Violation,
};
use vliw_workloads::fuzz::{random_loop, random_machine};
use vliw_workloads::traffic::{presets, run_traffic};
use vliw_workloads::{BenchmarkSpec, TrafficSummary};

use crate::experiment::harvest_profile;
use crate::Arch;

/// A memory model the traffic scenarios drive: its report label and its
/// constructor.
pub type TrafficModel = (&'static str, fn(&MachineConfig) -> Box<dyn MemoryModel>);

/// Every memory model the traffic scenarios drive. Traffic runs against
/// a bare model, with no schedule, so it builds the models itself.
pub const TRAFFIC_MODELS: [TrafficModel; 4] = [
    ("unified", |cfg| Box::new(UnifiedL1::new(cfg))),
    ("unified-l0", |cfg| Box::new(UnifiedWithL0::new(cfg))),
    ("multivliw", |cfg| Box::new(MultiVliwMem::new(cfg))),
    ("interleaved", |cfg| Box::new(WordInterleavedMem::new(cfg))),
];

/// Corpus size knobs. The defaults are the CI corpus; [`FuzzConfig::quick`]
/// is the in-tree test corpus.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Requests per traffic pattern.
    pub traffic_reqs: usize,
    /// Random loop seeds (each runs on every architecture).
    pub loop_seeds: u64,
    /// Whether to run the contention/PGO showcase section.
    pub showcase: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            traffic_reqs: 256,
            loop_seeds: 100,
            showcase: true,
        }
    }
}

impl FuzzConfig {
    /// A small corpus for fast local runs and the in-tree tests.
    pub fn quick() -> Self {
        FuzzConfig {
            traffic_reqs: 64,
            loop_seeds: 4,
            showcase: false,
        }
    }

    /// Scenarios this configuration will run (the CI acceptance floor
    /// is 200 for the default corpus).
    pub fn scenario_count(&self) -> usize {
        presets().len() * corpus_machines().len() * TRAFFIC_MODELS.len()
            + self.loop_seeds as usize * Arch::ALL.len()
    }
}

/// The structured fuzz report (`--json`); also the determinism witness —
/// two runs of the same config must serialize identically.
#[derive(Debug, Serialize)]
pub struct FuzzReport {
    /// Total scenarios replayed.
    pub scenarios: usize,
    /// Traffic scenarios (pattern × topology × model).
    pub traffic_scenarios: usize,
    /// Loop scenarios (seed × arch).
    pub loop_scenarios: usize,
    /// Loop scenarios that compiled and simulated.
    pub compiled: usize,
    /// Loop scenarios skipped because no feasible II exists for the
    /// drawn (loop, machine, arch) triple.
    pub skipped_infeasible: usize,
    /// Per-pattern stall/contention breakdown, one row per traffic
    /// scenario, in corpus order.
    pub traffic: Vec<TrafficSummary>,
    /// Every property-gate violation (empty on a green run).
    pub violations: Vec<Violation>,
    /// Loop scenarios where the fast-forwarded simulation disagreed with
    /// the full replay (empty on a green run).
    pub oracle_mismatches: Vec<String>,
    /// Compile failures other than infeasible II (empty on a green run).
    pub compile_failures: Vec<String>,
    /// Contention-blind vs aware vs profile-guided on the contended
    /// mesh (report-only; not a gate).
    pub showcase: Vec<ShowcaseRow>,
}

impl FuzzReport {
    /// `true` when every gate passed.
    pub fn is_green(&self) -> bool {
        self.violations.is_empty()
            && self.oracle_mismatches.is_empty()
            && self.compile_failures.is_empty()
    }
}

/// One showcase comparison on the contended mesh.
#[derive(Debug, Serialize)]
pub struct ShowcaseRow {
    /// Corpus seed of the loop.
    pub seed: u64,
    /// Architecture compiled.
    pub arch: String,
    /// Total cycles, contention-blind assignment.
    pub blind_cycles: u64,
    /// Total cycles, contention-aware assignment.
    pub aware_cycles: u64,
    /// Total cycles, profile-guided two-pass (on top of aware).
    pub pgo_cycles: u64,
    /// `aware_cycles / blind_cycles`.
    pub aware_vs_blind: f64,
    /// `pgo_cycles / blind_cycles`.
    pub pgo_vs_blind: f64,
}

/// The fixed topology set every traffic pattern runs across: one
/// 8-cluster machine per topology, L1 geometry scaled as in the
/// cluster sweep.
pub fn corpus_machines() -> Vec<(&'static str, MachineConfig)> {
    let n = 8usize;
    let scaled = |ic: InterconnectConfig| {
        let mut cfg = MachineConfig::micro2003().with_interconnect(ic);
        cfg.clusters = n;
        cfg.l1.block_bytes = 8 * n;
        cfg.l1.size_bytes = 2048 * n;
        cfg
    };
    vec![
        ("flat", scaled(InterconnectConfig::flat())),
        (
            "crossbar",
            scaled(InterconnectConfig::crossbar(4, 1).with_mshr(4)),
        ),
        (
            "hierarchical",
            scaled(InterconnectConfig::hierarchical(4, 1, 2)),
        ),
        (
            "mesh",
            scaled(
                InterconnectConfig::mesh(2, 1)
                    .with_bank_interleave(8 * n)
                    .with_mshr(4),
            ),
        ),
    ]
}

/// `true` for the one compile failure the corpus tolerates: the drawn
/// loop has no feasible II on the drawn machine.
fn is_infeasible(e: &ScheduleError) -> bool {
    match e {
        ScheduleError::NoFeasibleIi { .. } => true,
        ScheduleError::InPass { error, .. } => is_infeasible(error),
        ScheduleError::BadConfig(_) => false,
    }
}

/// Runs the whole corpus. Deterministic: the same `config` produces a
/// byte-identical report.
pub fn run_corpus(config: &FuzzConfig) -> FuzzReport {
    let mut traffic = Vec::new();
    let mut violations = Vec::new();
    let mut oracle_mismatches = Vec::new();
    let mut compile_failures = Vec::new();
    let mut traffic_scenarios = 0usize;
    let mut loop_scenarios = 0usize;
    let mut compiled = 0usize;
    let mut skipped_infeasible = 0usize;

    // Part 1: traffic patterns × topologies × models.
    let machines = corpus_machines();
    for preset in presets() {
        let spec = preset.with_reqs(config.traffic_reqs);
        for (topo, cfg) in &machines {
            for (model, build) in TRAFFIC_MODELS {
                traffic_scenarios += 1;
                let label = format!("{}/{}/{}", spec.name, topo, model);
                let trace = run_traffic(&spec, cfg, build(cfg).as_mut());
                violations.extend(check_traffic(&label, cfg, Some(spec.kind), &trace));
                traffic.push(trace.summary(spec.name, topo, model));
            }
        }
    }

    // Part 2: random loops through the real compile→simulate path.
    for seed in 0..config.loop_seeds {
        let mut rng = Rng::new(seed);
        let l = random_loop(&mut rng);
        let cfg = random_machine(&mut rng);
        violations.extend(check_loop(&l));
        violations.extend(check_normalization(&l));
        for arch in Arch::ALL {
            loop_scenarios += 1;
            let label = format!("seed-{seed}/{}", arch.label());
            let request = CompileRequest::new(arch).verify(VerifyLevel::Full);
            let schedule = match request.compile(&l, &cfg) {
                Ok(s) => s,
                Err(e) if is_infeasible(&e) => {
                    skipped_infeasible += 1;
                    continue;
                }
                Err(e) => {
                    compile_failures.push(format!("{label}: {e}"));
                    continue;
                }
            };
            compiled += 1;
            violations.extend(check_schedule(&request, &schedule, &cfg));
            let result = simulate(&schedule);
            violations.extend(check_sim(&label, &result));
            if result != simulate_replay(&schedule) {
                oracle_mismatches.push(format!("{label}: fast-forward diverged from replay"));
            }
        }
    }

    // Part 3 (report-only): the adversarial showcase. Contended mesh,
    // 16 clusters: how much do contention-aware assignment and the
    // profile-guided second pass claw back over a blind compile?
    let mut showcase = Vec::new();
    if config.showcase {
        let n = 16usize;
        let mut mesh = MachineConfig::micro2003().with_interconnect(
            InterconnectConfig::mesh(4, 1)
                .with_bank_interleave(8 * n)
                .with_mshr(4),
        );
        mesh.clusters = n;
        mesh.l1.block_bytes = 8 * n;
        mesh.l1.size_bytes = 2048 * n;
        debug_assert_eq!(mesh.interconnect.topology, Topology::Mesh);

        for seed in 0..config.loop_seeds.min(8) {
            let mut rng = Rng::new(1000 + seed);
            let l = random_loop(&mut rng);
            let arch = Arch::L0;
            let blind = CompileRequest::new(arch).assignment(AssignmentPolicy::ContentionBlind);
            let aware = CompileRequest::new(arch).assignment(AssignmentPolicy::ContentionAware);
            let Ok(blind_s) = blind.compile(&l, &mesh) else {
                continue;
            };
            let Ok(aware_s) = aware.compile(&l, &mesh) else {
                continue;
            };
            let blind_cycles = simulate(&blind_s).total_cycles();
            let aware_cycles = simulate(&aware_s).total_cycles();
            // Profile-guided second pass: profile the aware compile,
            // recompile with the observed stalls and network load.
            let spec = BenchmarkSpec::from_kernel(l.clone());
            let profile = harvest_profile(&spec, &mesh, &aware, false);
            let pgo = aware.clone().profile_guided(profile);
            let Ok(pgo_s) = pgo.compile(&l, &mesh) else {
                continue;
            };
            let pgo_cycles = simulate(&pgo_s).total_cycles();
            let norm = |c: u64| c as f64 / blind_cycles.max(1) as f64;
            showcase.push(ShowcaseRow {
                seed: 1000 + seed,
                arch: arch.label().to_string(),
                blind_cycles,
                aware_cycles,
                pgo_cycles,
                aware_vs_blind: norm(aware_cycles),
                pgo_vs_blind: norm(pgo_cycles),
            });
        }
    }

    FuzzReport {
        scenarios: traffic_scenarios + loop_scenarios,
        traffic_scenarios,
        loop_scenarios,
        compiled,
        skipped_infeasible,
        traffic,
        violations,
        oracle_mismatches,
        compile_failures,
        showcase,
    }
}
