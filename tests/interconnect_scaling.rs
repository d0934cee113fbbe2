//! Guards for the interconnect refactor:
//!
//! 1. **Flat-network equivalence** — with the default
//!    [`InterconnectConfig::flat`] (the zero-contention network), the
//!    refactored memory stack reproduces the pre-interconnect simulator
//!    *cycle-for-cycle*. The pins below are the exact totals the seed
//!    simulator produced for two benchmarks before the interconnect
//!    existed; any drift means the flat special case broke.
//! 2. **Contention at scale** — on a banked, port-limited hierarchical
//!    network at ≥16 clusters, contention stalls are nonzero and appear
//!    both in [`SimResult`]-level accounting and in the serialized grid
//!    cells (the `BENCH_*.json` scaling-curve format).
//! 3. **Mesh/MSHR acceptance pins** — against the checked-in golden
//!    `tests/golden/sweep_clusters.json`: at 16–64 clusters the mesh +
//!    MSHR axes reduce contention-stalls-per-miss vs. the hierarchical
//!    network, and the contention-aware assignment pass improves
//!    normalized time on at least one contended configuration.

use clustered_vliw_l0::machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_bench::experiment::{Cell, GridResult, SweepGrid, Variant};
use vliw_bench::Arch;
use vliw_sched::AssignmentPolicy;
use vliw_workloads::{kernels, mediabench_suite, BenchmarkSpec};

/// Exact seed-simulator totals for the 8-entry L0 configuration
/// (benchmark, total, compute, stall, baseline total), recorded from the
/// pre-interconnect `fig5` run.
const SEED_PINS: [(&str, u64, u64, u64, u64); 2] = [
    ("g721dec", 56_197, 54_327, 1_870, 72_686),
    ("jpegdec", 237_546, 91_459, 146_087, 235_419),
];

fn pinned_suite() -> Vec<BenchmarkSpec> {
    mediabench_suite()
        .into_iter()
        .filter(|s| SEED_PINS.iter().any(|(name, ..)| *name == s.name))
        .collect()
}

#[test]
fn flat_interconnect_is_cycle_exact_with_the_seed_simulator() {
    // Belt and braces: the default machine *is* the flat network, with
    // MSHRs off…
    let base = MachineConfig::micro2003();
    assert!(base.interconnect.is_flat());
    assert_eq!(base.interconnect.mshr_entries, 0);
    // …and an explicitly-set flat network is the identical configuration.
    assert_eq!(base, base.with_interconnect(InterconnectConfig::flat()));

    // Two columns: the default variant, and one with the MSHR and
    // contention-aware assignment knobs *explicitly* at their off
    // positions — both must land on the exact seed-simulator totals.
    let grid = SweepGrid::new("flat-equivalence", base, pinned_suite())
        .variant(Variant::new(Arch::L0).l0(L0Capacity::Bounded(8)))
        .variant(
            Variant::new(Arch::L0)
                .l0(L0Capacity::Bounded(8))
                .interconnect(InterconnectConfig::flat().with_mshr(0))
                .assignment(AssignmentPolicy::ContentionBlind)
                .labeled("knobs off"),
        );
    let result = grid.run();

    for (name, total, compute, stall, baseline) in SEED_PINS {
        let (idx, _) = result
            .benchmarks
            .iter()
            .enumerate()
            .find(|(_, b)| b.as_str() == name)
            .unwrap_or_else(|| panic!("suite has {name}"));
        for col in 0..2 {
            let cell = result.cell(idx, col);
            assert_eq!(cell.total_cycles, total, "{name}/{col} total drifted");
            assert_eq!(cell.compute_cycles, compute, "{name}/{col} compute drifted");
            assert_eq!(cell.stall_cycles, stall, "{name}/{col} stall drifted");
            assert_eq!(
                cell.baseline_total_cycles, baseline,
                "{name}/{col} baseline drifted"
            );
            assert_eq!(
                cell.contention_stall_cycles, 0,
                "flat network cannot have contention"
            );
            assert_eq!(cell.link_stall_cycles, 0, "flat network has no links");
            assert_eq!(cell.mem.merges(), 0, "MSHRs are off");
            assert_eq!(cell.mem.ic_requests, 0);
            assert_eq!(cell.mem.ic_queue_cycles, 0);
        }
    }
}

fn scaling_spec() -> BenchmarkSpec {
    BenchmarkSpec::from_kernels(
        "kernels",
        vec![
            kernels::adpcm_predictor("pred", 64, 4),
            kernels::media_stream("stream", 3, 6, 2, 128, 3, false),
            kernels::row_filter("fir6", 6, 96, 3),
        ],
    )
}

/// A 16-cluster machine variant mirroring `sweep_clusters`' co-scaled
/// geometry (8-byte subblocks, 32-entry total L0 budget).
fn sixteen_clusters(ic: Option<InterconnectConfig>) -> Variant {
    let mut v = Variant::new(Arch::L0)
        .clusters(16)
        .l0(L0Capacity::Bounded(2))
        .l1_block_bytes(128)
        .l1_size_bytes(32 * 1024);
    if let Some(ic) = ic {
        v = v.interconnect(ic);
    }
    v
}

#[test]
fn contended_sixteen_cluster_grid_reports_nonzero_contention() {
    let contended = InterconnectConfig::hierarchical(4, 1, 4).with_bank_interleave(128);
    let grid = SweepGrid::new(
        "scaling-contention",
        MachineConfig::micro2003(),
        vec![scaling_spec()],
    )
    .variant(sixteen_clusters(None).labeled("flat"))
    .variant(sixteen_clusters(Some(contended)).labeled("hier"));
    let result = grid.run();

    let flat = result.cell(0, 0);
    let hier = result.cell(0, 1);
    assert_eq!(flat.contention_stall_cycles, 0);
    assert_eq!(flat.mem.ic_queue_cycles, 0);
    assert!(
        hier.mem.ic_requests > 0,
        "16-cluster traffic must ride the network"
    );
    assert!(
        hier.mem.ic_queue_cycles > 0,
        "one port per bank must queue at 16 clusters"
    );
    assert!(
        hier.contention_stall_cycles > 0,
        "queueing must surface as pipeline stalls"
    );
    assert!(
        hier.contention_stall_cycles <= hier.stall_cycles,
        "attribution is a subset of total stalls"
    );

    // The contention counters survive the BENCH_*.json round trip the
    // scaling curve is published through.
    let json = serde_json::to_string_pretty(&result).unwrap();
    let back: GridResult = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back.cell(0, 1).contention_stall_cycles,
        hier.contention_stall_cycles
    );
    assert_eq!(
        back.cell(0, 1).mem.ic_queue_cycles,
        hier.mem.ic_queue_cycles
    );
}

#[test]
fn mesh_grid_reports_link_stalls_and_mshr_merges() {
    let mesh = InterconnectConfig::mesh(4, 1).with_bank_interleave(128);
    let grid = SweepGrid::new(
        "scaling-mesh",
        MachineConfig::micro2003(),
        vec![scaling_spec()],
    )
    .variant(sixteen_clusters(Some(mesh)).labeled("mesh"))
    .variant(sixteen_clusters(Some(mesh.with_mshr(4))).labeled("mesh mshr"));
    let result = grid.run();

    let plain = result.cell(0, 0);
    let mshr = result.cell(0, 1);
    assert!(plain.mem.ic_requests > 0);
    assert!(
        plain.link_stall_cycles > 0,
        "single-flit links must saturate at 16 clusters"
    );
    assert_eq!(plain.mem.merges(), 0, "no MSHRs on the plain mesh");
    assert!(mshr.mem.merges() > 0, "co-missing lines must merge");
    assert!(
        mshr.mem.ic_queue_cycles <= plain.mem.ic_queue_cycles,
        "merged refills cannot add port pressure"
    );
    assert!(
        plain.contention_stall_cycles + plain.link_stall_cycles <= plain.stall_cycles,
        "attribution shares stay a subset of total stalls"
    );

    // The new counters survive the BENCH_*.json round trip.
    let json = serde_json::to_string_pretty(&result).unwrap();
    let back: GridResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.cell(0, 0).link_stall_cycles, plain.link_stall_cycles);
    assert_eq!(back.cell(0, 1).mem.mshr_merges, mshr.mem.mshr_merges);
    assert_eq!(
        back.cell(0, 1).assignment,
        AssignmentPolicy::ContentionBlind
    );
}

// ---------------------------------------------------------------------
// Acceptance pins against the checked-in golden scaling curve
// ---------------------------------------------------------------------

fn golden() -> GridResult {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sweep_clusters.json"
    );
    let text = std::fs::read_to_string(path).expect("golden sweep_clusters.json is checked in");
    serde_json::from_str(&text).expect("golden parses as a GridResult")
}

fn golden_cell<'a>(g: &'a GridResult, variant: &str) -> &'a Cell {
    let vi = g
        .variants
        .iter()
        .position(|v| v == variant)
        .unwrap_or_else(|| panic!("golden has a '{variant}' column"));
    g.cell(0, vi)
}

/// `contention_stall_cycles` per miss that left the tag level — the
/// queueing cost the acceptance criterion compares across topologies.
/// (Link stalls are a *different* axis: the mesh trades a little link
/// occupancy for far less port queueing, so they are pinned separately
/// by [`golden_mshr_merging_fires_and_relieves_the_ports`].)
fn per_miss(cell: &Cell) -> f64 {
    cell.contention_per_miss()
}

#[test]
fn golden_mesh_mshr_beats_hierarchical_contention_per_miss_at_scale() {
    let g = golden();
    for n in [16, 32, 64] {
        let hier = golden_cell(&g, &format!("{n} hier"));
        let mesh_mshr = golden_cell(&g, &format!("{n} mesh mshr"));
        assert!(
            per_miss(mesh_mshr) < per_miss(hier),
            "{n} clusters: mesh+mshr {:.4} must beat hier {:.4} stalls/miss",
            per_miss(mesh_mshr),
            per_miss(hier)
        );
        // and the port-queueing share alone also drops
        assert!(
            mesh_mshr.contention_stall_cycles < hier.contention_stall_cycles,
            "{n} clusters: port contention {} !< {}",
            mesh_mshr.contention_stall_cycles,
            hier.contention_stall_cycles
        );
    }
}

#[test]
fn golden_mshr_merging_fires_and_relieves_the_ports() {
    let g = golden();
    for n in [8, 16, 32, 64] {
        let plain = golden_cell(&g, &format!("{n} mesh"));
        let mshr = golden_cell(&g, &format!("{n} mesh mshr"));
        assert_eq!(plain.mem.merges(), 0, "{n}: no MSHRs on the plain mesh");
        assert!(mshr.mem.merges() > 0, "{n}: merges must fire");
        assert!(
            mshr.mem.ic_queue_cycles <= plain.mem.ic_queue_cycles,
            "{n}: merging cannot add port queueing"
        );
    }
}

#[test]
fn golden_contention_aware_assignment_improves_a_contended_config() {
    let g = golden();
    // Every aware cell must carry its assignment tag, regardless of
    // which configuration ends up winning below.
    for n in [2, 4, 8, 16, 32, 64] {
        let aware = golden_cell(&g, &format!("{n} mesh mshr aware"));
        assert_eq!(aware.assignment, AssignmentPolicy::ContentionAware);
    }
    let improved = [8, 16, 32, 64].iter().any(|&n| {
        let blind = golden_cell(&g, &format!("{n} mesh mshr"));
        let aware = golden_cell(&g, &format!("{n} mesh mshr aware"));
        aware.normalized < blind.normalized
    });
    assert!(
        improved,
        "contention-aware placement must win on at least one contended config"
    );
}

#[test]
fn golden_flat_axis_stays_contention_free() {
    let g = golden();
    for n in [2, 4, 8, 16, 32, 64] {
        let flat = golden_cell(&g, &format!("{n} flat"));
        assert_eq!(flat.contention_stall_cycles, 0);
        assert_eq!(flat.link_stall_cycles, 0);
        assert_eq!(flat.mem.merges(), 0);
    }
}
