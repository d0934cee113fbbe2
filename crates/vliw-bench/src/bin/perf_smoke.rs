//! Offline wall-clock smoke check for the event-driven simulator core.
//!
//! Runs a fixed mini-grid (three kernels × three variants spanning the
//! flat fast path, a banked hierarchical network and the mesh NoC — the
//! three arbitration paths of the interconnect) `--reps`
//! times and reports the per-rep and median wall-clock, drawn from the
//! [`GridResult::wall_ms`] / [`Cell::sim_micros`] telemetry the runs
//! now carry.
//!
//! The cycle counts are deterministic, so every rep's grid is
//! cell-for-cell identical; only the wall-clock telemetry varies. The
//! `--json <path>` artifact is an ordinary `BENCH_*.json` grid (the
//! median-wall rep's), so a series of CI artifacts feeds straight into
//! `bench-diff --trend` like any other sweep. Wall-clock itself stays
//! *non-gating*: shared runners make it too noisy to fail a build on,
//! the artifact trail is the deliverable.
//!
//! `--require-ffwd` adds the one check that *is* gating: the steady-
//! state fast-forward must have batched at least one iteration somewhere
//! on the mini-grid (the cells carry `ffwd_replayed`/`ffwd_batched`
//! telemetry). The stream kernels are engineered to settle, so a zero
//! here means the detector is dead — every equality suite would still
//! pass while the sweeps silently lose their speedup.
//!
//! `--service` switches to the compile-service smoke: the same three
//! kernels replayed through [`CompileService`] cold (uncached) and warm
//! (symbolic-keyed cache), `--reps` times, reporting median
//! compiles/sec for each and the warm/cold ratio. Like the simulator
//! smoke, it is wall-clock telemetry — CI runs it non-gating.
//!
//! [`GridResult::wall_ms`]: vliw_bench::experiment::GridResult::wall_ms
//! [`Cell::sim_micros`]: vliw_bench::experiment::Cell::sim_micros

use serde::Serialize;
use std::sync::Arc;
use vliw_bench::experiment::{
    materialize_mix, write_json, zipf_mix, BinArgs, GridResult, SweepGrid, Variant,
};
use vliw_bench::Arch;
use vliw_ir::LoopNest;
use vliw_machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_sched::CompileRequest;
use vliw_service::{CompileService, KeyMode, ServiceConfig, ServiceReport};
use vliw_workloads::{kernels, BenchmarkSpec};

/// Default repetition count; odd, so the median is a real observation.
const DEFAULT_REPS: usize = 5;

/// The fixed mini-grid: small enough for seconds-scale CI, wide enough
/// to touch every occupancy structure the memory models own.
fn grid() -> SweepGrid {
    let spec = BenchmarkSpec::from_kernels(
        "smoke",
        vec![
            kernels::adpcm_predictor("pred", 64, 8),
            kernels::media_stream("stream", 3, 6, 2, 128, 4, false),
            kernels::row_filter("fir6", 6, 96, 4),
        ],
    );
    let n = 8;
    let scaled = |label: &str| {
        Variant::new(Arch::L0)
            .clusters(n)
            .l0(L0Capacity::Bounded(4))
            .l1_block_bytes(8 * n)
            .l1_size_bytes(2 * 1024 * n)
            .labeled(label)
    };
    SweepGrid::new("perf_smoke", MachineConfig::micro2003(), vec![spec])
        .variant(scaled("flat"))
        .variant(
            scaled("hier").interconnect(
                InterconnectConfig::hierarchical(2, 1, 4).with_bank_interleave(8 * n),
            ),
        )
        .variant(
            scaled("mesh").interconnect(
                InterconnectConfig::mesh(2, 1)
                    .with_bank_interleave(8 * n)
                    .with_mshr(4),
            ),
        )
}

/// One rep: the grid's own wall-clock telemetry, plus the result for
/// the artifact.
fn rep() -> (u64, GridResult) {
    let result = grid().run();
    (result.wall_ms, result)
}

/// Requests per service-smoke rep (small: seconds-scale CI).
const SERVICE_REQUESTS: usize = 256;

/// The `--service` JSON artifact: the median rep's cold and warm
/// reports plus the ratio the tentpole exists for.
#[derive(Debug, Serialize)]
struct ServiceSmoke {
    reps: u64,
    requests: u64,
    cold: ServiceReport,
    warm: ServiceReport,
    warm_over_cold: f64,
}

/// Cold vs. warm compile-service throughput over the smoke kernels.
fn service_smoke(args: &BinArgs, reps: usize) {
    let pool: Vec<Arc<LoopNest>> = vec![
        Arc::new(kernels::adpcm_predictor("pred", 64, 8)),
        Arc::new(kernels::media_stream("stream", 3, 6, 2, 128, 4, false)),
        Arc::new(kernels::row_filter("fir6", 6, 96, 4)),
    ];
    let machine = Arc::new(MachineConfig::micro2003());
    let request = Arc::new(CompileRequest::new(Arch::L0));
    let mix = zipf_mix(pool.len(), SERVICE_REQUESTS, 1.1, 0x5e7_1ce);
    let pass = |caching: bool| -> ServiceReport {
        let config = ServiceConfig {
            caching,
            ..Default::default()
        };
        let stream = materialize_mix(&mix, &pool, &machine, &request, KeyMode::Symbolic);
        CompileService::new(config).replay(stream)
    };

    let mut runs: Vec<(ServiceReport, ServiceReport)> =
        (0..reps).map(|_| (pass(false), pass(true))).collect();
    runs.sort_by(|a, b| a.1.compiles_per_sec.total_cmp(&b.1.compiles_per_sec));
    let (cold, warm) = runs.swap_remove(reps / 2);
    let ratio = warm.compiles_per_sec / cold.compiles_per_sec;

    println!("perf smoke (service): {SERVICE_REQUESTS} requests x {reps} reps");
    println!(
        "  cold: {:>8.0} compiles/s   (p99 {} us)",
        cold.compiles_per_sec, cold.latency_p99_micros
    );
    println!(
        "  warm: {:>8.0} compiles/s   (p99 {} us, hit rate {:.3})",
        warm.compiles_per_sec, warm.latency_p99_micros, warm.hit_rate
    );
    println!("  warm/cold: {ratio:.1}x");

    if let Some(path) = args.json_path() {
        write_json(
            &path,
            &ServiceSmoke {
                reps: reps as u64,
                requests: SERVICE_REQUESTS as u64,
                cold,
                warm,
                warm_over_cold: ratio,
            },
        );
    }
}

fn main() {
    let args = BinArgs::parse();
    let reps: usize = args
        .value_of("--reps")
        .map(|v| v.parse().expect("--reps takes a positive integer"))
        .unwrap_or(DEFAULT_REPS)
        .max(1);
    if args.has_flag("--service") {
        return service_smoke(&args, reps);
    }

    let mut runs: Vec<(u64, GridResult)> = (0..reps).map(|_| rep()).collect();
    runs.sort_by_key(|(wall, _)| *wall);
    let (median_wall, median_run) = &runs[reps / 2];
    let sim_micros: u64 = median_run.cells.iter().map(|c| c.sim_micros).sum();

    println!("perf smoke: {} cells x {reps} reps", median_run.cells.len());
    println!(
        "  wall ms per rep (sorted): {:?}",
        runs.iter().map(|(w, _)| *w).collect::<Vec<_>>()
    );
    println!("  median wall: {median_wall} ms  (simulate_arch share: {sim_micros} us)");
    for cell in &median_run.cells {
        println!(
            "  {:>6}: normalized {:>6.3}  sim {:>6} us",
            cell.variant, cell.normalized, cell.sim_micros
        );
    }

    if let Some(path) = args.json_path() {
        write_json(&path, median_run);
    }

    if args.has_flag("--require-ffwd") {
        let (replayed, batched) = median_run.cells.iter().fold((0u64, 0u64), |(r, b), c| {
            (r + c.ffwd_replayed, b + c.ffwd_batched)
        });
        println!("  ffwd: {replayed} iterations replayed, {batched} batched");
        if batched == 0 {
            eprintln!(
                "perf smoke: --require-ffwd but the fast-forward never fired \
                 on the mini-grid ({replayed} iterations all replayed)"
            );
            std::process::exit(1);
        }
    }
}
