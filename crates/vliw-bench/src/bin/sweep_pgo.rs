//! Profile-guided recompilation study: the closed compile→simulate→
//! recompile loop (ROADMAP "feed *observed* per-link occupancy from a
//! profiling run back into placement").
//!
//! Three columns per cluster count, on the same co-scaled machine as
//! `sweep_clusters` (32-entry total L0 budget split N ways, 8-byte
//! subblocks, N/4 single-port banks):
//!
//! * **flat / flat pgo** — the paper's contention-free network, blind
//!   vs. two-pass profile-guided. With nothing routed, the observed
//!   placement costs are all zero, so PGO here isolates the
//!   `MarkPolicy::ProfileGuided` axis: L0 slots go to the refs the
//!   profiling run measured stalling. The acceptance bar is *zero
//!   regression* — hot-first marking must never lose to slack-first on
//!   an uncontended machine.
//! * **mesh mshr aware** — the PR 4 static reference: contention-aware
//!   placement by *static hop distance* on the mesh + MSHR network.
//! * **mesh mshr pgo** — the tentpole: compile blind, simulate on the
//!   mesh, harvest the [`Profile`](vliw_machine::Profile) (per-link
//!   stalls, per-bank queueing, per-op stall attribution) and recompile
//!   with `Observed` placement costs + hot-first marking. The
//!   acceptance bar is normalized time ≤ the static `aware` column on
//!   the contended 16/32-cluster cells.
//!
//! The profiling pass is memoized per `(benchmark, configuration, blind
//! request)` — `profiles_computed` in the artifact counts the distinct
//! passes. Golden-gated in CI (`tests/golden/sweep_pgo.json`, pinned by
//! `tests/pgo_loop.rs`).
//!
//! `--json <path>` emits the structured grid result.

use vliw_bench::experiment::{write_json, BinArgs, SweepGrid, Variant};
use vliw_bench::Arch;
use vliw_machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_sched::AssignmentPolicy;
use vliw_workloads::{kernels, BenchmarkSpec};

/// The cluster counts of the PGO curve (4 = the paper's machine; 16/32 =
/// the contended mesh cells the acceptance pins compare).
const CLUSTER_COUNTS: [usize; 3] = [4, 16, 32];

/// Total L0 entry budget split across clusters (the paper's 4 × 8).
const L0_ENTRY_BUDGET: usize = 32;

/// MSHRs per bank on the mesh axes (as in `sweep_clusters`).
const MSHRS_PER_BANK: usize = 4;

/// An L0 variant at `n` clusters with co-scaled geometry.
fn scaled(n: usize) -> Variant {
    Variant::new(Arch::L0)
        .clusters(n)
        .l0(L0Capacity::Bounded((L0_ENTRY_BUDGET / n).max(1)))
        .l1_block_bytes(8 * n)
        .l1_size_bytes(2 * 1024 * n)
}

/// The mesh NoC over the co-scaled banks (XY routing, single-flit links).
fn mesh_ic(n: usize) -> InterconnectConfig {
    InterconnectConfig::mesh((n / 4).max(1), 1)
        .with_bank_interleave(8 * n)
        .with_mshr(MSHRS_PER_BANK)
}

fn main() {
    let args = BinArgs::parse();
    let spec = BenchmarkSpec::from_kernels(
        "kernels",
        vec![
            kernels::adpcm_predictor("pred", 64, 30),
            kernels::media_stream("stream", 3, 6, 2, 256, 10, false),
            kernels::row_filter("fir6", 6, 160, 8),
        ],
    );

    let mut grid = SweepGrid::new("sweep_pgo", MachineConfig::micro2003(), vec![spec]);
    for &n in &CLUSTER_COUNTS {
        grid = grid
            .variant(scaled(n).labeled(format!("{n} flat")))
            .variant(scaled(n).profile_guided().labeled(format!("{n} flat pgo")))
            .variant(
                scaled(n)
                    .interconnect(mesh_ic(n))
                    .assignment(AssignmentPolicy::ContentionAware)
                    .labeled(format!("{n} mesh mshr aware")),
            )
            .variant(
                scaled(n)
                    .interconnect(mesh_ic(n))
                    .assignment(AssignmentPolicy::ContentionAware)
                    .profile_guided()
                    .labeled(format!("{n} mesh mshr pgo")),
            );
    }
    let result = grid.run();

    println!("Profile-guided recompilation (two-pass; pgo cells report the recompiled run):");
    println!(
        "{:>18} {:>9} {:>13} {:>11} {:>10} {:>10} {:>9} {:>7}",
        "variant",
        "L0/clstr",
        "total cyc",
        "normalized",
        "cont.stall",
        "link.stall",
        "ic queue",
        "merges"
    );
    for cell in &result.cells {
        println!(
            "{:>18} {:>9} {:>13} {:>11.3} {:>10} {:>10} {:>9} {:>7}",
            cell.variant,
            cell.l0_entries
                .map(|e| e.to_string().replace(" entries", ""))
                .unwrap_or_default(),
            cell.total_cycles,
            cell.normalized,
            cell.contention_stall_cycles,
            cell.link_stall_cycles,
            cell.mem.ic_queue_cycles,
            cell.mem.merges(),
        );
    }
    println!(
        "\nprofiling passes: {} (memoized across {} pgo cells)",
        result.profiles_computed,
        result
            .cells
            .iter()
            .filter(|c| c.variant.ends_with("pgo"))
            .count(),
    );

    if let Some(path) = args.json_path() {
        write_json(&path, &result);
    }
}
