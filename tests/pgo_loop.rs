//! Acceptance pins for the profile-guided recompilation loop
//! (DESIGN.md §9): the two-pass engine, placement costs under a
//! profile, and the checked-in `tests/golden/sweep_pgo.json` grid.
//!
//! 1. **Golden pins** — against the checked-in golden: PGO never loses
//!    to static `ContentionAware` on the contended 16/32-cluster mesh
//!    cells (strictly winning at 32), and never regresses the
//!    uncontended flat cells (strictly winning at 32 via hot-first
//!    marking).
//! 2. **Determinism** — same seed ⇒ identical profile ⇒ identical
//!    recompile: the whole loop is reproducible, which is what lets a
//!    golden gate it at a 0-cell drift budget.
//! 3. **Two-pass guarantee** — a live grid shows the PGO cell never
//!    measures worse than its own profiling pass (the engine ships the
//!    better of the two compiles).

use clustered_vliw_l0::machine::{InterconnectConfig, L0Capacity, MachineConfig, Profile};
use vliw_bench::experiment::{harvest_profile, Cell, GridResult, SweepGrid, Variant};
use vliw_bench::Arch;
use vliw_sched::{AssignmentPolicy, CompileRequest, MarkPolicy};
use vliw_workloads::{kernels, BenchmarkSpec};

fn golden() -> GridResult {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep_pgo.json");
    let text = std::fs::read_to_string(path).expect("golden sweep_pgo.json is checked in");
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

#[test]
fn golden_pgo_matches_or_beats_static_aware_on_contended_mesh() {
    let g = golden();
    for n in [16, 32] {
        let aware = golden_cell(&g, &format!("{n} mesh mshr aware"));
        let pgo = golden_cell(&g, &format!("{n} mesh mshr pgo"));
        assert!(
            pgo.normalized <= aware.normalized,
            "{n} clusters: pgo {:.4} must not lose to static aware {:.4}",
            pgo.normalized,
            aware.normalized
        );
        assert!(
            pgo.total_cycles <= aware.total_cycles,
            "{n} clusters: raw cycles agree with the normalized ordering"
        );
    }
    // At 32 clusters the recompile wins outright (observed costs +
    // hot-first marking), not just by the keep-the-better guarantee.
    let aware = golden_cell(&g, "32 mesh mshr aware");
    let pgo = golden_cell(&g, "32 mesh mshr pgo");
    assert!(
        pgo.normalized < aware.normalized,
        "32 clusters: pgo {:.4} must strictly beat aware {:.4}",
        pgo.normalized,
        aware.normalized
    );
}

#[test]
fn golden_pgo_never_regresses_flat_topologies() {
    let g = golden();
    for n in [4, 16, 32] {
        let blind = golden_cell(&g, &format!("{n} flat"));
        let pgo = golden_cell(&g, &format!("{n} flat pgo"));
        assert!(
            pgo.total_cycles <= blind.total_cycles,
            "{n} clusters flat: pgo {} must not regress blind {}",
            pgo.total_cycles,
            blind.total_cycles
        );
        assert_eq!(
            pgo.contention_stall_cycles, 0,
            "flat cells stay contention-free"
        );
    }
    // The 32-cluster machine (1 L0 entry per cluster) is where slot
    // assignment matters most: hot-first marking wins big.
    let blind = golden_cell(&g, "32 flat");
    let pgo = golden_cell(&g, "32 flat pgo");
    assert!(
        pgo.normalized < blind.normalized,
        "32 flat: hot-first marking must strictly win ({:.4} vs {:.4})",
        pgo.normalized,
        blind.normalized
    );
}

#[test]
fn golden_pgo_cells_record_the_shipped_compile() {
    let g = golden();
    // Cells that shipped the recompile carry the profile-guided knobs…
    for v in ["32 mesh mshr pgo", "32 flat pgo", "4 flat pgo"] {
        let cell = golden_cell(&g, v);
        assert_eq!(
            cell.opts.mark,
            MarkPolicy::ProfileGuided,
            "{v} shipped the recompile"
        );
        assert_eq!(cell.assignment, AssignmentPolicy::ContentionAware);
    }
    // …while a cell whose profiling pass measured better ships *that*
    // compile and records its request honestly (the 16-cluster mesh is
    // the case the keep-the-better guarantee exists for).
    let kept = golden_cell(&g, "16 mesh mshr pgo");
    assert_eq!(kept.opts.mark, MarkPolicy::Selective);
    // The engine memoized one profiling pass per (benchmark, config,
    // request) — 6 pgo columns, 6 distinct machines.
    assert_eq!(g.profiles_computed, 6);
}

/// The contention-heavy spec the live (non-golden) tests run — smaller
/// trip counts than the sweep so the two-pass grid stays fast.
fn spec() -> BenchmarkSpec {
    BenchmarkSpec::from_kernels(
        "kernels",
        vec![
            kernels::adpcm_predictor("pred", 64, 4),
            kernels::media_stream("stream", 3, 6, 2, 128, 3, false),
            kernels::row_filter("fir6", 6, 96, 3),
        ],
    )
}

/// The co-scaled 16-cluster mesh+MSHR machine of the sweeps.
fn mesh16() -> Variant {
    Variant::new(Arch::L0)
        .clusters(16)
        .l0(L0Capacity::Bounded(2))
        .l1_block_bytes(128)
        .l1_size_bytes(32 * 1024)
        .interconnect(
            InterconnectConfig::mesh(4, 1)
                .with_bank_interleave(128)
                .with_mshr(4),
        )
        .assignment(AssignmentPolicy::ContentionAware)
}

#[test]
fn same_seed_produces_identical_profile_and_identical_recompile() {
    let spec = spec();
    let variant = mesh16();
    let cfg = variant.config(&MachineConfig::micro2003());
    let request = variant.request();

    // Same seed ⇒ identical profile…
    let p1 = harvest_profile(&spec, &cfg, &request, false);
    let p2 = harvest_profile(&spec, &cfg, &request, false);
    assert_eq!(p1, p2, "profiling is deterministic");
    assert!(
        p1.loops.iter().any(|l| l.stall_cycles > 0),
        "the contended machine must observe stalls to guide anything"
    );
    assert!(!p1.net.is_empty(), "mesh traffic must be observed");

    // …⇒ identical recompile, loop for loop.
    let pgo1 = request.clone().profile_guided(p1.clone());
    let pgo2 = request.clone().profile_guided(p2);
    for l in &spec.loops {
        let s1 = pgo1.compile_or_panic(l, &cfg);
        let s2 = pgo2.compile_or_panic(l, &cfg);
        assert_eq!(s1.ii(), s2.ii(), "{}", l.name);
        assert_eq!(s1.placements, s2.placements, "{}", l.name);
    }

    // The serialized artifact round-trips exactly (what the golden gate
    // relies on).
    let json = serde_json::to_string(&p1).unwrap();
    let back: Profile = serde_json::from_str(&json).unwrap();
    assert_eq!(back, p1);
}

#[test]
fn two_pass_cell_never_measures_worse_than_its_profiling_pass() {
    let grid = SweepGrid::new("pgo-live", MachineConfig::micro2003(), vec![spec()])
        .variant(mesh16().labeled("aware"))
        .variant(mesh16().profile_guided().labeled("pgo"));
    let result = grid.run();
    let aware = result.cell(0, 0);
    let pgo = result.cell(0, 1);
    assert!(
        pgo.total_cycles <= aware.total_cycles,
        "keep-the-better: pgo {} must not exceed its pass 1 {}",
        pgo.total_cycles,
        aware.total_cycles
    );
    assert_eq!(result.profiles_computed, 1, "one profiling pass");
    // And the whole two-pass grid is reproducible end to end.
    let again = grid.run();
    assert_eq!(again, result, "two-pass grids are deterministic");
}

#[test]
fn mismatched_profile_shape_is_rejected_not_misread() {
    // A profile's link node ids and bank indices are grid-relative, so
    // compiling a different machine shape with it must error instead of
    // silently aliasing them onto the wrong links/banks.
    let variant = mesh16();
    let cfg = variant.config(&MachineConfig::micro2003());
    let profile = harvest_profile(&spec(), &cfg, &variant.request(), false);
    let request = variant.request().profile_guided(profile);
    // Same shape compiles fine…
    assert!(request.compile(&spec().loops[0], &cfg).is_ok());
    // …a different cluster count does not…
    let mut wider = cfg.clone();
    wider.clusters = 32;
    wider.l1.block_bytes = 256;
    wider.l1.size_bytes = 64 * 1024;
    let err = request.compile(&spec().loops[0], &wider).unwrap_err();
    assert!(err.to_string().contains("profile was harvested"), "{err}");
    // …nor a different topology.
    let flat = variant
        .config(&MachineConfig::micro2003())
        .with_interconnect(InterconnectConfig::flat());
    let err = request.compile(&spec().loops[0], &flat).unwrap_err();
    assert!(err.to_string().contains("profile was harvested"), "{err}");
}

#[test]
fn compile_request_profile_round_trips_and_legacy_requests_still_load() {
    // A request carrying a real harvested profile survives serde.
    let variant = mesh16();
    let cfg = variant.config(&MachineConfig::micro2003());
    let profile = harvest_profile(&spec(), &cfg, &variant.request(), false);
    let request = variant.request().profile_guided(profile);
    let json = serde_json::to_string(&request).unwrap();
    let back: CompileRequest = serde_json::from_str(&json).unwrap();
    assert_eq!(back, request);

    // A pre-profile artifact (serialized before the field existed) omits
    // the `profile` key entirely and must load as `None` — compiling
    // bit-exactly with the static pipeline.
    let mut legacy = serde_json::to_string(&CompileRequest::new(Arch::L0)).unwrap();
    let key = ",\"profile\":null";
    let start = legacy.find(key).expect("key present");
    legacy.replace_range(start..start + key.len(), "");
    assert!(!legacy.contains("profile"), "{legacy}");
    let back: CompileRequest = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back, CompileRequest::new(Arch::L0));
    assert!(back.profile.is_none());
}
