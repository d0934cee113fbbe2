//! Static-verification sweep: every layer of `vliw-verify` over the
//! full synthetic Mediabench suite × every architecture × both
//! scheduler backends, at `VerifyLevel::Full`, plus the determinism
//! lint over the workspace's serialization surfaces.
//!
//! This is the CI gate for the compile driver: the compiler
//! *constructs* schedules, this binary *re-derives* their legality from
//! first principles and exits nonzero the moment any invariant breaks —
//! IR well-formedness, dependence/resource/routing legality under the
//! II, L0 budget and hint rules, simulator stall accounting, and
//! unordered hash iteration on a serialization surface.
//!
//! `--json <path>` emits the structured report (compiles checked,
//! violations by invariant tag); `--quick` restricts the sweep to the
//! default backend for fast local runs.

use serde::Serialize;
use std::path::PathBuf;
use vliw_bench::experiment::{write_json, BinArgs};
use vliw_bench::Arch;
use vliw_machine::MachineConfig;
use vliw_sched::{merge_pass_stats, BackendKind, CompileRequest, PassStat, VerifyLevel};
use vliw_sim::simulate;
use vliw_verify::{
    check_loop, check_normalization, check_schedule, check_sim, lint_source, Violation,
    SERIALIZATION_SURFACES,
};
use vliw_workloads::mediabench_suite;

/// The structured verification report (`--json`).
#[derive(Debug, Serialize)]
struct VerifyReport {
    /// Compilations checked (suite loops × arch × backend).
    compiles: usize,
    /// Loops whose IR layer was checked.
    loops: usize,
    /// Serialization surfaces linted.
    surfaces: usize,
    /// Every violation, in sweep order (empty on a green run).
    violations: Vec<Violation>,
    /// Per-pass compile timing merged across the whole sweep.
    pass_stats: Vec<PassStat>,
}

fn main() {
    let args = BinArgs::parse();
    let full_backends = !args.has_flag("--quick");
    let cfg = MachineConfig::micro2003();
    let suite = mediabench_suite();

    let mut violations: Vec<Violation> = Vec::new();
    let mut pass_stats: Vec<PassStat> = Vec::new();
    let mut compiles = 0usize;
    let mut loops = 0usize;

    // Layer 1: IR well-formedness + symbolic-normalization idempotence,
    // once per loop (arch-independent).
    for spec in &suite {
        for l in &spec.loops {
            loops += 1;
            violations.extend(check_loop(l));
            violations.extend(check_normalization(l));
        }
    }

    // Layers 2+3: schedule legality and simulator accounting, for every
    // (loop, arch, backend). `VerifyLevel::Full` makes the driver's
    // own verify pass re-check everything in-band too — a violation
    // there is a compile *error*, which the harness treats as fatal.
    let backends: &[BackendKind] = if full_backends {
        &BackendKind::ALL
    } else {
        &[BackendKind::Sms]
    };
    for spec in &suite {
        for &arch in &Arch::ALL {
            for &backend in backends {
                let request = CompileRequest::new(arch)
                    .backend(backend)
                    .verify(VerifyLevel::Full);
                for l in &spec.loops {
                    compiles += 1;
                    let (schedule, stats) = request
                        .compile_with_stats(l, &cfg)
                        .unwrap_or_else(|e| panic!("{} ('{}'): {e}", arch.label(), l.name));
                    merge_pass_stats(&mut pass_stats, &stats);
                    violations.extend(check_schedule(&request, &schedule, &cfg));
                    let sim = simulate(&schedule);
                    violations.extend(check_sim(&schedule.loop_.name, &sim));
                }
            }
        }
    }

    // Layer 4: the determinism lint over the serialization surfaces.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rel in SERIALIZATION_SURFACES {
        let path = root.join(rel);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("surface {rel} unreadable: {e}"));
        violations.extend(lint_source(rel, &source));
    }

    let report = VerifyReport {
        compiles,
        loops,
        surfaces: SERIALIZATION_SURFACES.len(),
        violations,
        pass_stats,
    };

    println!(
        "verify: {} compiles over {} loops × {} arches × {} backends, {} surfaces linted",
        report.compiles,
        report.loops,
        Arch::ALL.len(),
        backends.len(),
        report.surfaces
    );
    for s in &report.pass_stats {
        println!(
            "  pass {:>18}: {:>5} calls, {:>8} µs",
            s.name, s.calls, s.micros
        );
    }
    if report.violations.is_empty() {
        println!("verify: OK — no invariant violations");
    } else {
        eprintln!("verify: {} violation(s):", report.violations.len());
        for v in &report.violations {
            eprintln!("  {v}");
        }
    }

    if let Some(path) = args.json_path() {
        write_json(&path, &report);
    }
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}
