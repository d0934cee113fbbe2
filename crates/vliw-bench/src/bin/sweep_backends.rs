//! Scheduler-backend comparison: SMS heuristic vs. the exact
//! branch-and-bound backend (ROADMAP "SMT scheduler backend"), over the
//! full synthetic Mediabench suite on the baseline and L0 architectures.
//!
//! Each cell records the dynamic-weighted achieved II, the MII floor and
//! the per-loop proof tallies, so the grid answers two questions at once:
//!
//! * how far off the provable minimum is the paper's heuristic
//!   (`avg_ii − avg_mii`, and whether the exact column closes the gap);
//! * whether a minimal II buys any wall-clock speedup once memory stalls
//!   are accounted (the `normalized` column).
//!
//! Raw IIs are comparable *per loop body*: when the exact backend improves
//! the unrolled candidate it can flip the driver's unroll choice, so a
//! column pair is read together with `avg_unroll`. The backend-level
//! invariant `MII ≤ exact II ≤ SMS II` (same body) is pinned by
//! `tests/backend_bounds.rs`.
//!
//! `--json <path>` emits the structured grid result (the golden grid in
//! `tests/golden/sweep_backends.json` gates CI via `bench-diff`).

use vliw_bench::experiment::{write_json, BinArgs, SweepGrid, Variant};
use vliw_bench::Arch;
use vliw_machine::MachineConfig;
use vliw_sched::BackendKind;
use vliw_workloads::mediabench_suite;

fn main() {
    let args = BinArgs::parse();

    let mut grid = SweepGrid::new(
        "sweep_backends",
        MachineConfig::micro2003(),
        mediabench_suite(),
    );
    for arch in [Arch::Baseline, Arch::L0] {
        for backend in BackendKind::ALL {
            let short = if arch == Arch::Baseline { "base" } else { "L0" };
            grid = grid.variant(
                Variant::new(arch)
                    .backend(backend)
                    .labeled(format!("{short} {backend}")),
            );
        }
    }
    let result = grid.run();

    println!("Scheduler backends: SMS vs. exact branch-and-bound (II and proof status)");
    println!(
        "{:>10} {:>11} {:>11} {:>8} {:>8} {:>7} {:>8} {:>17}",
        "benchmark", "variant", "normalized", "avg II", "avg MII", "gap", "unroll", "proofs o/t/h"
    );
    for cell in &result.cells {
        let proof = cell.proof;
        println!(
            "{:>10} {:>11} {:>11.3} {:>8.2} {:>8.2} {:>7.2} {:>8.2} {:>17}",
            cell.benchmark,
            cell.variant,
            cell.normalized,
            cell.avg_ii,
            cell.avg_mii,
            cell.avg_ii - cell.avg_mii,
            cell.avg_unroll,
            format!("{}/{}/{}", proof.optimal, proof.truncated, proof.heuristic),
        );
    }

    // Suite-level summary: how much II the exact search recovers per arch.
    println!();
    for (arch_label, sms_col, exact_col) in [("baseline", 0usize, 1usize), ("L0", 2, 3)] {
        let mut sms_gap = 0.0;
        let mut exact_gap = 0.0;
        for b in 0..result.benchmarks.len() {
            let sms = result.cell(b, sms_col);
            let exact = result.cell(b, exact_col);
            sms_gap += sms.avg_ii - sms.avg_mii;
            exact_gap += exact.avg_ii - exact.avg_mii;
        }
        let n = result.benchmarks.len() as f64;
        println!(
            "{arch_label}: mean II-over-MII gap {:.3} (sms) vs {:.3} (exact); \
             amean normalized {:.3} vs {:.3}",
            sms_gap / n,
            exact_gap / n,
            result.amean_normalized(sms_col),
            result.amean_normalized(exact_col),
        );
    }

    if let Some(path) = args.json_path() {
        write_json(&path, &result);
    }
}
