//! Figure 5: normalized execution time (compute + stall) for 4-, 8-,
//! 16-entry and unbounded L0 buffers, normalized to the clustered
//! processor with a unified L1 and no L0 buffers.
//!
//! `--entries N` (N ≥ 1) runs a single extra sweep point (e.g. the
//! 2-entry configuration discussed in the text); any other value exits
//! with status 2. `--json <path>` emits the structured grid result.

use vliw_bench::experiment::{render_matrix, write_json, BinArgs, SweepGrid, Variant};
use vliw_bench::Arch;
use vliw_machine::{L0Capacity, MachineConfig};
use vliw_workloads::mediabench_suite;

fn main() {
    let args = BinArgs::parse();
    let extra: Option<usize> = args.number("--entries", 1);

    let capacities: Vec<L0Capacity> = match extra {
        Some(n) => vec![L0Capacity::Bounded(n)],
        None => vec![
            L0Capacity::Bounded(4),
            L0Capacity::Bounded(8),
            L0Capacity::Bounded(16),
            L0Capacity::Unbounded,
        ],
    };

    let grid = SweepGrid::new("fig5", MachineConfig::micro2003(), mediabench_suite())
        .with_variants(
            capacities
                .into_iter()
                .map(|cap| Variant::new(Arch::L0).l0(cap)),
        );
    let result = grid.run();

    println!("Figure 5: execution time normalized to unified L1 without L0 buffers");
    println!("(each cell: total | compute+stall split)");
    render_matrix(&result, 24, |cell| {
        format!(
            "{:>6.3} ({:>5.3}+{:>5.3})",
            cell.normalized, cell.normalized_compute, cell.normalized_stall
        )
    });

    if let Some(path) = args.json_path() {
        write_json(&path, &result);
    }
}
