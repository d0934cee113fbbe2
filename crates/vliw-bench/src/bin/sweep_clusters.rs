//! Cluster-count scaling study: the paper notes "all the proposed
//! techniques and mechanisms can be extended to an architecture with any
//! number of clusters", and its 4-cluster machine assumes a flat,
//! contention-free path to the unified L1. This bin stresses both claims
//! at once by sweeping N = 2…64 clusters (2…128 on the mesh axes, which
//! the steady-state fast-forward makes affordable) along five variant
//! axes:
//!
//! * **flat** — the paper's idealized network extrapolated as-is (the
//!   generality sweep the seed shipped, extended past 8 clusters);
//! * **hier** — a banked, port-limited two-level interconnect
//!   (N/4 banks × 1 port, 4-cluster tiles, 1-cycle hops) where bank
//!   contention, not raw latency, grows with the cluster count;
//! * **mesh** — a 2D mesh NoC over the same banks: XY routing, per-link
//!   occupancy (a hop stalls when its link is saturated), banks spread
//!   diagonally over the grid;
//! * **mesh mshr** — the mesh plus 4 MSHRs per bank, so secondary misses
//!   to an in-flight line merge instead of re-queueing a refill;
//! * **mesh mshr aware** — additionally turns on the contention-aware
//!   cluster-assignment pass (`CompileRequest::assignment`), which
//!   places memory ops near their home banks.
//!
//! Per-cluster resources co-scale with N so the study varies *scale*,
//! not total capacity: the L0 entry budget (32 subblocks, the paper's
//! 4 × 8) is split N ways, the L1 block grows as 8 B × N to keep 8-byte
//! subblocks, and the L1 itself grows as 2 KB × N. Contention stalls,
//! link stalls and MSHR merges are reported per cell and land in the
//! `BENCH_*.json` artifact, which CI diffs against a checked-in golden
//! grid with `bench-diff`.
//!
//! The table is followed by the grid's merged compile-pass ledger
//! (calls and wall-clock per pass, as `verify` prints it). `--json
//! <path>` emits the structured grid result.

use vliw_bench::experiment::{print_pass_ledger, write_json, BinArgs, SweepGrid, Variant};
use vliw_bench::Arch;
use vliw_machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_sched::AssignmentPolicy;
use vliw_workloads::{kernels, BenchmarkSpec};

/// The cluster counts of the scaling curve.
const CLUSTER_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// The mesh axes extend one octave further: the steady-state
/// fast-forward batches the post-warm-up visits in closed form, which is
/// what makes a 128-cluster NoC grid affordable inside the CI sweep
/// budget (the flat/hier axes stop at 64 — their scaling story is
/// complete well before that, see the module doc).
const MESH_CLUSTER_COUNTS: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// Total L0 entry budget split across clusters (the paper's 4 × 8).
const L0_ENTRY_BUDGET: usize = 32;

/// MSHRs per bank on the merging axes.
const MSHRS_PER_BANK: usize = 4;

/// An L0 variant at `n` clusters with co-scaled geometry.
fn scaled(n: usize) -> Variant {
    Variant::new(Arch::L0)
        .clusters(n)
        .l0(L0Capacity::Bounded((L0_ENTRY_BUDGET / n).max(1)))
        .l1_block_bytes(8 * n)
        .l1_size_bytes(2 * 1024 * n)
        .labeled(format!("{n} flat"))
}

/// The same machine behind a banked, port-limited hierarchical network.
fn contended(n: usize) -> Variant {
    scaled(n)
        .interconnect(
            InterconnectConfig::hierarchical((n / 4).max(1), 1, 4).with_bank_interleave(8 * n),
        )
        .labeled(format!("{n} hier"))
}

/// The mesh NoC over the same banks (XY routing, single-flit links).
fn mesh_ic(n: usize) -> InterconnectConfig {
    InterconnectConfig::mesh((n / 4).max(1), 1).with_bank_interleave(8 * n)
}

/// The same machine behind the mesh NoC.
fn mesh(n: usize) -> Variant {
    scaled(n)
        .interconnect(mesh_ic(n))
        .labeled(format!("{n} mesh"))
}

/// Mesh + MSHR miss merging at the banks.
fn mesh_mshr(n: usize) -> Variant {
    scaled(n)
        .interconnect(mesh_ic(n).with_mshr(MSHRS_PER_BANK))
        .labeled(format!("{n} mesh mshr"))
}

/// Mesh + MSHRs + the contention-aware cluster-assignment pass.
fn mesh_mshr_aware(n: usize) -> Variant {
    scaled(n)
        .interconnect(mesh_ic(n).with_mshr(MSHRS_PER_BANK))
        .assignment(AssignmentPolicy::ContentionAware)
        .labeled(format!("{n} mesh mshr aware"))
}

fn main() {
    let args = BinArgs::parse();
    // High-trip columns: visit counts are set so the periodic steady
    // state dominates the trip budget — the regime the fast-forward
    // collapses from O(visits × trip) replay to O(warm-up + period)
    // (DESIGN.md §14). The warm-up share (cold L1, transient queueing)
    // is a one-time cost no batching can remove.
    let spec = BenchmarkSpec::from_kernels(
        "kernels",
        vec![
            kernels::adpcm_predictor("pred", 64, 30),
            kernels::media_stream("stream", 3, 6, 2, 256, 120, false),
            kernels::row_filter("fir6", 6, 160, 120),
        ],
    );

    let grid = SweepGrid::new("sweep_clusters", MachineConfig::micro2003(), vec![spec])
        .with_variants(CLUSTER_COUNTS.iter().map(|&n| scaled(n)))
        .with_variants(CLUSTER_COUNTS.iter().map(|&n| contended(n)))
        .with_variants(MESH_CLUSTER_COUNTS.iter().map(|&n| mesh(n)))
        .with_variants(MESH_CLUSTER_COUNTS.iter().map(|&n| mesh_mshr(n)))
        .with_variants(MESH_CLUSTER_COUNTS.iter().map(|&n| mesh_mshr_aware(n)));
    let result = grid.run();

    println!("Cluster-count scaling (per-cluster L0 = 32-entry budget / N, subblock = 8B):");
    println!(
        "{:>18} {:>9} {:>13} {:>13} {:>11} {:>10} {:>10} {:>9} {:>7}",
        "variant",
        "L0/clstr",
        "baseline cyc",
        "L0 cyc",
        "normalized",
        "cont.stall",
        "link.stall",
        "ic queue",
        "merges"
    );
    for cell in &result.cells {
        println!(
            "{:>18} {:>9} {:>13} {:>13} {:>11.3} {:>10} {:>10} {:>9} {:>7}",
            cell.variant,
            cell.l0_entries
                .map(|e| e.to_string().replace(" entries", ""))
                .unwrap_or_default(),
            cell.baseline_total_cycles,
            cell.total_cycles,
            cell.normalized,
            cell.contention_stall_cycles,
            cell.link_stall_cycles,
            cell.mem.ic_queue_cycles,
            cell.mem.merges(),
        );
    }

    println!("Compile passes (merged over the grid; wall-clock, not gated):");
    print_pass_ledger(&result.pass_stats);

    if let Some(path) = args.json_path() {
        write_json(&path, &result);
    }
}
