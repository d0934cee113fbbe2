//! Grid execution: memoized baselines, parallel cells, structured output.

use crate::experiment::cell::ProofCounts;
use crate::experiment::{Cell, SweepGrid, Variant};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vliw_machine::{MachineConfig, Profile};
use vliw_sched::{
    apply_selective_flushing, base_loop_name, merge_pass_stats, Arch, CompileRequest, PassStat,
    Schedule,
};
use vliw_service::{ArtifactStore, KeyBuilder, StoreStats};
use vliw_sim::{simulate, SimResult};
use vliw_workloads::BenchmarkSpec;

/// How the engine walks the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One cell at a time, in row-major order.
    Serial,
    /// All cells concurrently via rayon. The simulator is deterministic
    /// and cells are independent, so the result is identical to
    /// [`ExecMode::Serial`] (guarded by tests).
    Parallel,
}

/// The executed grid: every cell plus the axes to index them by.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResult {
    /// Grid name (from [`SweepGrid::name`]).
    pub grid: String,
    /// Row labels, in declaration order.
    pub benchmarks: Vec<String>,
    /// Column labels, in declaration order.
    pub variants: Vec<String>,
    /// Cells in row-major order (`benchmark` major, `variant` minor).
    pub cells: Vec<Cell>,
    /// How many distinct baseline executions the memo table needed —
    /// one per `(benchmark, baseline configuration)`, not one per cell.
    pub baselines_computed: usize,
    /// How many distinct *profiling* executions the two-pass engine
    /// needed — one per `(benchmark, configuration, blind request)`, not
    /// one per profile-guided cell.
    pub profiles_computed: usize,
    /// Content-addressed job-memo telemetry: how the planning pass's
    /// artifact store deduplicated baseline and base-run executions
    /// across cells. Planning is deterministic, so this is part of
    /// [`GridResult`] equality.
    pub store: StoreStats,
    /// Per-pass compile timing, merged by pass name across every
    /// compilation the grid ran (baselines, base runs and profile-guided
    /// recompiles). The `micros` are wall time and vary run to run, so
    /// equality ignores this field.
    pub pass_stats: Vec<PassStat>,
}

/// Equality over everything but `pass_stats`, whose `micros` are
/// measured wall time that the serial-vs-parallel and round-trip guards
/// must not trip over.
impl PartialEq for GridResult {
    fn eq(&self, other: &Self) -> bool {
        let GridResult {
            grid,
            benchmarks,
            variants,
            cells,
            baselines_computed,
            profiles_computed,
            store,
            pass_stats: _,
        } = other;
        self.grid == *grid
            && self.benchmarks == *benchmarks
            && self.variants == *variants
            && self.cells == *cells
            && self.baselines_computed == *baselines_computed
            && self.profiles_computed == *profiles_computed
            && self.store == *store
    }
}

impl GridResult {
    /// The cell at `(benchmark index, variant index)`.
    pub fn cell(&self, bench: usize, variant: usize) -> &Cell {
        &self.cells[bench * self.variants.len() + variant]
    }

    /// One benchmark's row of cells.
    pub fn row(&self, bench: usize) -> &[Cell] {
        let w = self.variants.len();
        &self.cells[bench * w..(bench + 1) * w]
    }

    /// Iterates `(benchmark name, row of cells)` in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &[Cell])> {
        self.benchmarks
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), self.row(i)))
    }

    /// Arithmetic mean of one column's normalized execution times (the
    /// paper's AMEAN bar).
    pub fn amean_normalized(&self, variant: usize) -> f64 {
        let values: Vec<f64> = (0..self.benchmarks.len())
            .map(|b| self.cell(b, variant).normalized)
            .collect();
        crate::amean(&values)
    }
}

/// The merged execution of one benchmark's loops on one configuration.
#[derive(Clone)]
struct SpecRun {
    sim: SimResult,
    unroll_weighted: f64,
    ii_weighted: f64,
    mii_weighted: f64,
    weight: f64,
    flushes_removed: u64,
    proof: ProofCounts,
    /// What this run observed — per-loop stall attribution (rolled up to
    /// provenance origins) plus the network's per-link / per-bank load.
    profile: Profile,
    /// Per-pass compile timing, merged by name across this run's loops.
    pass_stats: Vec<PassStat>,
}

/// Compiles and simulates every loop of `spec` — the one place the
/// engine touches the compiler and the simulator.
fn run_spec(
    spec: &BenchmarkSpec,
    cfg: &MachineConfig,
    request: &CompileRequest,
    selective_flush: bool,
) -> SpecRun {
    let mut pass_stats: Vec<PassStat> = Vec::new();
    let mut schedules: Vec<Schedule> = spec
        .loops
        .iter()
        .map(|l| {
            // Same panic contract as `compile_or_panic`, but keeps the
            // driver's per-pass timing.
            let (s, stats) = request
                .compile_with_stats(l, cfg)
                .unwrap_or_else(|e| panic!("{} ('{}'): {e}", request.arch.label(), l.name));
            merge_pass_stats(&mut pass_stats, &stats);
            s
        })
        .collect();
    let flushes_removed = if selective_flush {
        apply_selective_flushing(&mut schedules) as u64
    } else {
        0
    };
    let mut run = SpecRun {
        sim: SimResult::default(),
        unroll_weighted: 0.0,
        ii_weighted: 0.0,
        mii_weighted: 0.0,
        weight: 0.0,
        flushes_removed,
        proof: ProofCounts::default(),
        profile: Profile::new(cfg.clusters, cfg.interconnect.topology),
        pass_stats,
    };
    for schedule in &schedules {
        let r = simulate(schedule);
        let w = r.total_cycles() as f64;
        run.unroll_weighted += schedule.loop_.unroll_factor as f64 * w;
        run.ii_weighted += f64::from(schedule.ii()) * w;
        run.mii_weighted += f64::from(schedule.mii) * w;
        run.weight += w;
        run.proof.record(schedule);
        harvest_loop(&mut run.profile, schedule, &r);
        run.sim.merge(&r);
    }
    run
}

/// Folds one loop's simulation into the run's profile: per-op stalls
/// rolled up to provenance origins (unroll-invariant) under the base
/// loop name (unroll-tag-invariant), plus the network observation.
fn harvest_loop(profile: &mut Profile, schedule: &Schedule, sim: &SimResult) {
    let name = base_loop_name(&schedule.loop_.name);
    if profile.loop_profile(name).is_none() {
        profile
            .loops
            .push(vliw_machine::LoopProfile::new(name.to_string()));
    }
    let lp = profile
        .loops
        .iter_mut()
        .find(|l| l.name == name)
        .expect("just inserted");
    for s in &sim.op_stalls {
        let origin = schedule.loop_.op(s.op).provenance().0 .0;
        // Only the *latency* share of the stall is charged to the op: a
        // contention stall indicts the network, not the scheduled use
        // distance, and marking a congestion victim into L0 does not
        // relieve the saturated port its misses still queue at.
        lp.add(origin, s.latency_cycles());
    }
    if let Some(net) = &sim.mem_stats.net {
        profile.net.merge(net);
    }
}

/// Compiles + simulates `spec` once with `request` (applying selective
/// inter-loop flushing when `selective_flush` is set, exactly as the
/// grid engine's memoized profiling pass does for a flushing variant)
/// and returns what the run observed — the profiling pass of the
/// two-pass (profile-guided) pipeline, exposed for tests and custom
/// drivers. Deterministic: the same inputs produce the identical
/// profile.
pub fn harvest_profile(
    spec: &BenchmarkSpec,
    cfg: &MachineConfig,
    request: &CompileRequest,
    selective_flush: bool,
) -> Profile {
    run_spec(spec, cfg, request, selective_flush).profile
}

/// A memoized baseline execution for one `(spec, configuration)`.
struct Baseline {
    /// Loop-portion cycles (sizes the scalar region of every variant).
    loops_total: u64,
    /// Loop + scalar cycles (the normalization denominator).
    total: u64,
    /// Per-pass compile timing of the baseline compilation.
    pass_stats: Vec<PassStat>,
}

fn compute_baseline(spec: &BenchmarkSpec, cfg: &MachineConfig) -> Baseline {
    let run = run_spec(spec, cfg, &CompileRequest::new(Arch::Baseline), false);
    let loops_total = run.sim.total_cycles();
    Baseline {
        loops_total,
        total: loops_total + spec.scalar_cycles_for(loops_total),
        pass_stats: run.pass_stats,
    }
}

/// Returns the cell plus the pass timing of any compilation this cell
/// ran *itself* (the profile-guided recompile); the shared baseline and
/// base-run timings are accounted once by [`run_grid`], not per cell.
fn run_cell(
    grid: &SweepGrid,
    bench: usize,
    variant: &Variant,
    baseline: &Baseline,
    base: &SpecRun,
) -> (Cell, Vec<PassStat>) {
    let spec = &grid.benchmarks[bench];
    let cfg = variant.config(&grid.base_cfg);
    // A profile-guided cell recompiles the variant's declared
    // (profile-blind) request with the profile its base run harvested —
    // observed placement costs + hot-first L0 marking — and ships
    // whichever of the two measured compiles is better (ties prefer the
    // recompile). Keeping the measured-better binary is the classic PGO
    // guarantee: the engine has both measurements in hand, so a
    // cold-model compile is never replaced by a worse profile-guided
    // one.
    let request = variant.request();
    let (run, request, own_stats) = if variant.profile_guided {
        let pgo = request.clone().profile_guided(base.profile.clone());
        let mut run2 = run_spec(spec, &cfg, &pgo, variant.selective_flush);
        // The recompile's cost is real whichever binary ships.
        let own_stats = std::mem::take(&mut run2.pass_stats);
        if run2.sim.total_cycles() <= base.sim.total_cycles() {
            (run2, pgo, own_stats)
        } else {
            (base.clone(), request, own_stats)
        }
    } else {
        (base.clone(), request, Vec::new())
    };
    let scalar = spec.scalar_cycles_for(baseline.loops_total);
    let total = run.sim.total_cycles() + scalar;
    let compute = run.sim.compute_cycles + scalar;
    let denom = baseline.total.max(1) as f64;
    let weight = run.weight.max(1.0);
    let cell = Cell {
        benchmark: spec.name.clone(),
        variant: variant.label.clone(),
        arch: variant.arch,
        clusters: cfg.clusters,
        l0_entries: if variant.arch.uses_l0() {
            cfg.l0.map(|l0| l0.entries)
        } else {
            None
        },
        total_cycles: total,
        compute_cycles: compute,
        stall_cycles: run.sim.stall_cycles,
        contention_stall_cycles: run.sim.contention_stall_cycles,
        link_stall_cycles: run.sim.link_stall_cycles,
        baseline_total_cycles: baseline.total,
        normalized: total as f64 / denom,
        normalized_compute: compute as f64 / denom,
        normalized_stall: run.sim.stall_cycles as f64 / denom,
        avg_unroll: run.unroll_weighted / weight,
        avg_ii: run.ii_weighted / weight,
        avg_mii: run.mii_weighted / weight,
        backend: request.backend,
        opts: request.opts,
        unroll_policy: request.unroll,
        assignment: request.assignment,
        proof: run.proof,
        flushes_removed: run.flushes_removed,
        mem: run.sim.mem_stats,
    };
    (cell, own_stats)
}

/// Runs every item through `f`, serially or on the rayon pool.
fn exec<T: Send, R: Send>(items: Vec<T>, mode: ExecMode, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    match mode {
        ExecMode::Serial => items.into_iter().map(f).collect(),
        ExecMode::Parallel => items.into_par_iter().map(f).collect(),
    }
}

/// Executes `grid`: memoizes one baseline per `(benchmark, baseline
/// configuration)`, then runs every cell.
///
/// # Panics
///
/// Panics when a variant configuration is invalid or a loop cannot be
/// scheduled (both harness bugs, not data-dependent conditions).
pub fn run_grid(grid: &SweepGrid, mode: ExecMode) -> GridResult {
    // Baselines depend only on the variant's *baseline* configuration
    // (cluster count etc. — never the L0 capacity), so a multi-column
    // sweep usually collapses to one baseline job per benchmark.
    // Every cell's *base run* — the declared request, compiled blind and
    // simulated — is memoized the same way, keyed by the full
    // (benchmark, configuration, request, flush) tuple: a plain column
    // and a PGO column of the same machine genuinely share one
    // simulation, which doubles as the PGO column's profiling pass.
    //
    // Both memos are content-addressed [`ArtifactStore`]s over the same
    // canonical-JSON keys the compile service uses, holding job tickets
    // (indices into the job vectors) rather than artifacts; unbounded,
    // since the plan is finite and every entry is needed.
    let spec_keys: Vec<KeyBuilder> = grid
        .benchmarks
        .iter()
        .map(|spec| KeyBuilder::new().field("benchmark", spec))
        .collect();
    let mut baseline_memo: ArtifactStore<usize> = ArtifactStore::new(None);
    let mut baseline_jobs: Vec<(usize, MachineConfig)> = Vec::new();
    let mut base_memo: ArtifactStore<usize> = ArtifactStore::new(None);
    let mut base_jobs: Vec<(usize, MachineConfig, CompileRequest, bool)> = Vec::new();
    let mut pgo_jobs: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut cell_jobs: Vec<(usize, usize, usize, usize)> = Vec::new();
    for (bi, _) in grid.benchmarks.iter().enumerate() {
        for (vi, variant) in grid.variants.iter().enumerate() {
            let bcfg = variant.config(&grid.base_cfg).without_l0();
            let bkey = spec_keys[bi]
                .clone()
                .field("machine", &bcfg)
                .field("kind", "baseline")
                .finish();
            let job = match baseline_memo.get(&bkey) {
                Some(&job) => job,
                None => {
                    baseline_jobs.push((bi, bcfg));
                    let job = baseline_jobs.len() - 1;
                    baseline_memo.insert(bkey, job);
                    job
                }
            };
            let cfg = variant.config(&grid.base_cfg);
            let request = variant.request();
            let key = spec_keys[bi]
                .clone()
                .field("machine", &cfg)
                .field("request", &request)
                .field("flush", &variant.selective_flush)
                .field("kind", "base-run")
                .finish();
            let base_job = match base_memo.get(&key) {
                Some(&job) => job,
                None => {
                    base_jobs.push((bi, cfg, request, variant.selective_flush));
                    let job = base_jobs.len() - 1;
                    base_memo.insert(key, job);
                    job
                }
            };
            if variant.profile_guided {
                pgo_jobs.insert(base_job);
            }
            cell_jobs.push((bi, vi, job, base_job));
        }
    }

    let store_stats = baseline_memo.stats().merged(&base_memo.stats());
    let baselines_computed = baseline_jobs.len();
    // The trajectory format reports how many of the memoized base runs
    // served as *profiling* passes (fed a recompile), not the total.
    let profiles_computed = pgo_jobs.len();
    let baselines: Vec<Baseline> = exec(baseline_jobs, mode, |(bi, cfg)| {
        compute_baseline(&grid.benchmarks[bi], &cfg)
    });
    let base_runs: Vec<SpecRun> = exec(base_jobs, mode, |(bi, cfg, request, flush)| {
        run_spec(&grid.benchmarks[bi], &cfg, &request, flush)
    });
    let (cells, cell_stats): (Vec<Cell>, Vec<Vec<PassStat>>) =
        exec(cell_jobs, mode, |(bi, vi, job, base_job)| {
            run_cell(
                grid,
                bi,
                &grid.variants[vi],
                &baselines[job],
                &base_runs[base_job],
            )
        })
        .into_iter()
        .unzip();

    // One merged ledger for the whole grid, in job order — deterministic
    // in calls (the micros are wall time) regardless of ExecMode,
    // because exec returns results in input order.
    let mut pass_stats: Vec<PassStat> = Vec::new();
    for b in &baselines {
        merge_pass_stats(&mut pass_stats, &b.pass_stats);
    }
    for r in &base_runs {
        merge_pass_stats(&mut pass_stats, &r.pass_stats);
    }
    for s in &cell_stats {
        merge_pass_stats(&mut pass_stats, s);
    }

    GridResult {
        grid: grid.name.clone(),
        benchmarks: grid.benchmarks.iter().map(|s| s.name.clone()).collect(),
        variants: grid.variants.iter().map(|v| v.label.clone()).collect(),
        cells,
        baselines_computed,
        profiles_computed,
        store: store_stats,
        pass_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::L0Capacity;
    use vliw_workloads::kernels;

    fn small_grid() -> SweepGrid {
        SweepGrid::new(
            "test",
            MachineConfig::micro2003(),
            vec![
                BenchmarkSpec::from_kernel(kernels::adpcm_predictor("pred", 64, 2)),
                BenchmarkSpec::from_kernel(kernels::row_filter("fir", 4, 64, 2)),
            ],
        )
        .variant(Variant::new(Arch::L0).l0(L0Capacity::Bounded(4)))
        .variant(Variant::new(Arch::L0).l0(L0Capacity::Bounded(8)))
    }

    #[test]
    fn two_by_two_grid_produces_four_cells() {
        let result = small_grid().run();
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.benchmarks, vec!["pred", "fir"]);
        assert_eq!(result.variants, vec!["4 entries", "8 entries"]);
        // Row-major order, indexable both ways.
        assert_eq!(result.cell(1, 0).benchmark, "fir");
        assert_eq!(result.cell(1, 0).variant, "4 entries");
        assert_eq!(result.row(0).len(), 2);
        for cell in &result.cells {
            assert!(cell.total_cycles > 0);
            assert!(cell.normalized > 0.0);
        }
    }

    #[test]
    fn baselines_are_memoized_per_spec_not_per_cell() {
        // Both variants share the baseline configuration (the L0 capacity
        // never reaches the baseline), so: one baseline per benchmark.
        let result = small_grid().run();
        assert_eq!(
            result.baselines_computed, 2,
            "one per spec, not one per cell"
        );
        // The content-addressed memo sees 2×2 lookups per memo (4 cells):
        // 4 baseline misses-or-hits + 4 base-run lookups, deduplicated to
        // 2 baseline jobs and 4 base-run jobs (the L0 capacity *is* part
        // of the base-run key).
        let stats = result.store;
        assert_eq!(stats.insertions, 2 + 4, "deduplicated job count");
        assert_eq!(stats.hits + stats.misses, 8, "one lookup per memo per cell");
        assert_eq!(stats.hits, 2, "the shared baselines");

        // A cluster-count override *does* change the baseline.
        let grid = SweepGrid::new(
            "clusters",
            MachineConfig::micro2003(),
            vec![BenchmarkSpec::from_kernel(kernels::adpcm_predictor(
                "pred", 64, 2,
            ))],
        )
        .variant(Variant::new(Arch::L0).clusters(2))
        .variant(Variant::new(Arch::L0).clusters(4));
        assert_eq!(grid.run().baselines_computed, 2, "one per cluster count");
    }

    #[test]
    fn grids_carry_merged_pass_timing() {
        let result = small_grid().run();
        let stats = &result.pass_stats;
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "check-profile",
            "lower",
            "schedule-flat",
            "select-unroll",
            "verify",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Every distinct compilation passes through `lower` once per
        // loop: 2 memoized baselines + 4 base runs, one loop each.
        let lower = stats.iter().find(|s| s.name == "lower").unwrap();
        assert_eq!(lower.calls, 6, "one lower per memoized compilation");
    }

    #[test]
    fn full_verification_leaves_results_bit_identical() {
        use vliw_sched::VerifyLevel;
        let plain = small_grid().run();
        let mut checked = small_grid();
        checked.variants = checked
            .variants
            .into_iter()
            .map(|v| v.verify(VerifyLevel::Full))
            .collect();
        // Verification only *checks* — re-deriving every schedule's
        // legality from first principles must not perturb a single cell.
        assert_eq!(checked.run(), plain);
    }

    #[test]
    fn parallel_and_serial_execution_produce_identical_cells() {
        let grid = small_grid();
        let serial = run_grid(&grid, ExecMode::Serial);
        let parallel = run_grid(&grid, ExecMode::Parallel);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn profiling_passes_are_memoized_per_config_and_request() {
        // Two PGO variants on the *same* machine + request share one
        // profiling pass; a different cluster count needs its own. The
        // two same-machine columns must also produce identical cells —
        // same profile in, same recompile out.
        let grid = SweepGrid::new(
            "pgo-memo",
            MachineConfig::micro2003(),
            vec![BenchmarkSpec::from_kernel(kernels::adpcm_predictor(
                "pred", 64, 2,
            ))],
        )
        .variant(Variant::new(Arch::L0).profile_guided().labeled("pgo a"))
        .variant(Variant::new(Arch::L0).profile_guided().labeled("pgo b"))
        .variant(
            Variant::new(Arch::L0)
                .clusters(2)
                .profile_guided()
                .labeled("pgo 2c"),
        )
        .variant(Variant::new(Arch::L0).labeled("plain"));
        let result = run_grid(&grid, ExecMode::Serial);
        assert_eq!(
            result.profiles_computed, 2,
            "two distinct (config, request) keys across three pgo columns"
        );
        let a = result.cell(0, 0);
        let b = result.cell(0, 1);
        assert_eq!(a.total_cycles, b.total_cycles, "shared pass, same cells");
        // PGO never ships a compile measured worse than the plain one.
        let plain = result.cell(0, 3);
        assert!(a.total_cycles <= plain.total_cycles);
        // And the parallel walk agrees with the serial one on two-pass
        // grids too.
        assert_eq!(run_grid(&grid, ExecMode::Parallel), result);
    }

    #[test]
    fn grid_result_round_trips_through_json() {
        let result = small_grid().run();
        let json = serde_json::to_string_pretty(&result).unwrap();
        let back: GridResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn cells_record_their_resolved_compile_request() {
        use vliw_sched::{BackendKind, UnrollPolicy};
        let grid = SweepGrid::new(
            "backends",
            MachineConfig::micro2003(),
            vec![BenchmarkSpec::from_kernel(kernels::adpcm_predictor(
                "pred", 64, 2,
            ))],
        )
        .variant(Variant::new(Arch::L0).backend(BackendKind::Sms))
        .variant(Variant::new(Arch::L0).backend(BackendKind::Exact));
        let result = grid.run();
        assert_eq!(result.variants, vec!["sms", "exact"]);
        let sms = result.cell(0, 0);
        let exact = result.cell(0, 1);
        assert_eq!(sms.backend, BackendKind::Sms);
        assert_eq!(exact.backend, BackendKind::Exact);
        assert_eq!(sms.unroll_policy, UnrollPolicy::Auto);
        for cell in [sms, exact] {
            assert!(
                cell.avg_mii > 0.0 && cell.avg_mii <= cell.avg_ii,
                "MII is the floor"
            );
            assert_eq!(cell.proof.total(), 1, "one loop compiled");
        }
        // The exact backend never tallies a bare heuristic verdict.
        assert_eq!(exact.proof.heuristic, 0);
    }

    #[test]
    fn normalization_is_against_the_matching_baseline() {
        let result = small_grid().run();
        for cell in &result.cells {
            let expected = cell.total_cycles as f64 / cell.baseline_total_cycles as f64;
            assert!((cell.normalized - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn selective_flush_variant_reports_removed_flushes() {
        // Four loops over disjoint data: the analysis can drop flushes.
        let mut loops = vec![
            kernels::media_stream("a", 2, 6, 2, 48, 8, false),
            kernels::row_filter("b", 4, 48, 8),
        ];
        for (i, l) in loops.iter_mut().enumerate() {
            for arr in &mut l.arrays {
                arr.base_addr += (i as u64) << 28;
            }
        }
        let grid = SweepGrid::new(
            "flush",
            MachineConfig::micro2003(),
            vec![BenchmarkSpec::from_kernels("region", loops)],
        )
        .variant(Variant::new(Arch::L0).labeled("always flush"))
        .variant(Variant::new(Arch::L0).selective_flush());
        let result = grid.run();
        assert_eq!(result.cell(0, 0).flushes_removed, 0);
        assert!(
            result.cell(0, 1).flushes_removed > 0,
            "disjoint loops allow removal"
        );
        assert!(
            result.cell(0, 1).total_cycles <= result.cell(0, 0).total_cycles,
            "removing flushes cannot slow the region down"
        );
    }
}
