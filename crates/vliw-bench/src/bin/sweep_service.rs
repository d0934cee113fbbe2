//! Compile-as-a-service replay: the sharded worker pool + content-
//! addressed artifact cache under a Zipf-skewed request mix (ROADMAP
//! "Compile-as-a-service: batched, cached, symbolic").
//!
//! The mix models a kernel population compiled by many clients with
//! per-client loop bounds: loops drawn Zipf(1.1) over the full
//! Mediabench suite pool, trip counts uniform over
//! [`TRIP_MENU`](vliw_bench::experiment::TRIP_MENU). The *same* mix is
//! replayed through three service configurations:
//!
//! * **uncached** — every request compiled directly: the cold baseline.
//! * **exact** — artifacts addressed by the concrete IR: repeats hit,
//!   trip variants miss.
//! * **symbolic** — artifacts addressed by the trip-normalized IR
//!   ([`vliw_sched::symbolic`]): one template serves every bound, and
//!   instantiation replays only the unroll decision + legality checks.
//!
//! The replay happens twice. A *verification* trio first runs all three
//! configurations with the per-request result checksum on; the bin
//! *asserts* the three checksums agree — the service-level statement
//! that cached artifacts are bit-exact — and that the symbolic hit rate
//! strictly exceeds the exact one (both counters are deterministic).
//! It also asserts that each symbolic pass instantiated no more often
//! than the mix has distinct `(loop, trip)` draws — every repeat of a
//! draw is served from the template's instance memo. That count is
//! deterministic work, so it gates where wall-clock cannot.
//! Then a *throughput* trio re-runs with the checksum serialization off
//! (the serving configuration) and reports compiles/sec, hit rates,
//! queue depth and latency percentiles to `BENCH_service.json` via
//! `--json <path>`. `--requests <n>` scales the mix; `--strict` gates
//! the warm/cold ≥ 5x acceptance bar (wall-clock-based, so opt-in —
//! off on shared CI runners).

use serde::Serialize;
use std::collections::BTreeSet;
use std::sync::Arc;
use vliw_bench::experiment::{materialize_mix, write_json, zipf_mix, BinArgs};
use vliw_bench::Arch;
use vliw_ir::LoopNest;
use vliw_machine::MachineConfig;
use vliw_sched::CompileRequest;
use vliw_service::{CompileService, KeyMode, ServiceConfig, ServiceReport};
use vliw_workloads::mediabench_suite;

/// Default replay length — long enough that the ~52 template compiles
/// amortize and the warm passes measure the serve path, not the warmup.
const DEFAULT_REQUESTS: usize = 2048;

/// Zipf skew of the loop draw (s = 1.1: a hot head, a long tail).
const ZIPF_S: f64 = 1.1;

/// Mix seed (deterministic; shared by every pass).
const SEED: u64 = 0x5e7_1ce;

/// The whole artifact: the three passes plus the derived ratios the
/// acceptance criteria pin.
#[derive(Debug, Serialize)]
struct ServiceBench {
    requests: u64,
    pool_loops: u64,
    zipf_s: f64,
    /// Distinct `(loop, trip)` draws in the mix — the bound on each
    /// symbolic pass's `instantiations`.
    distinct_draws: u64,
    passes: Vec<ServiceReport>,
    /// Symbolic (warm-cache) throughput over uncached (cold) throughput.
    warm_over_cold: f64,
}

fn main() {
    let args = BinArgs::parse();
    let requests: usize = args.number("--requests", 1).unwrap_or(DEFAULT_REQUESTS);

    let pool: Vec<Arc<LoopNest>> = mediabench_suite()
        .into_iter()
        .flat_map(|spec| spec.loops)
        .map(Arc::new)
        .collect();
    let machine = Arc::new(MachineConfig::micro2003());
    let request = Arc::new(CompileRequest::new(Arch::L0));
    let mix = zipf_mix(pool.len(), requests, ZIPF_S, SEED);
    let distinct_draws = mix.iter().collect::<BTreeSet<_>>().len() as u64;

    let pass = |label: &str, mode: KeyMode, caching: bool, checksum: bool| -> ServiceReport {
        let config = ServiceConfig {
            key_mode: mode,
            caching,
            checksum,
            ..Default::default()
        };
        let stream = materialize_mix(&mix, &pool, &machine, &request, mode);
        let report = CompileService::new(config).replay(stream);
        assert_eq!(report.errors, 0, "{label}: every suite loop compiles");
        assert!(
            report.instantiations <= distinct_draws,
            "{label}: {} instantiations for {distinct_draws} distinct draws",
            report.instantiations
        );
        report
    };

    // Verification trio first, with the per-request result checksum on:
    // all three passes must have served bit-identical artifacts, or the
    // cache is wrong and the throughput numbers mean nothing.
    let verify_cold = pass("uncached", KeyMode::Symbolic, false, true);
    let verify_exact = pass("exact", KeyMode::Exact, true, true);
    let verify_symbolic = pass("symbolic", KeyMode::Symbolic, true, true);
    assert_eq!(
        verify_cold.checksum, verify_exact.checksum,
        "exact cache must be bit-exact"
    );
    assert_eq!(
        verify_cold.checksum, verify_symbolic.checksum,
        "symbolic instantiation must be bit-exact"
    );
    // The point of symbolic keys: trip variants alias onto one template.
    assert!(
        verify_symbolic.hit_rate > verify_exact.hit_rate,
        "symbolic hit rate {:.3} must beat exact {:.3}",
        verify_symbolic.hit_rate,
        verify_exact.hit_rate
    );
    println!(
        "verified: checksum {:#018x} identical across uncached/exact/symbolic",
        verify_cold.checksum.unwrap_or(0)
    );

    // Throughput passes with the checksum serialization off — the
    // serving configuration, now that the trio above pinned correctness.
    let cold = pass("uncached", KeyMode::Symbolic, false, false);
    let exact = pass("exact", KeyMode::Exact, true, false);
    let symbolic = pass("symbolic", KeyMode::Symbolic, true, false);

    let warm_over_cold = symbolic.compiles_per_sec / cold.compiles_per_sec;
    // The cache must never lose to direct compilation; the full 5x
    // acceptance bar is wall-clock-based, so it gates only under
    // `--strict` (run locally / on quiet machines, not on shared CI
    // runners where wall noise would flake the build).
    assert!(
        warm_over_cold > 1.0,
        "warm cache slower than cold compilation ({warm_over_cold:.2}x)"
    );
    if args.has_flag("--strict") {
        assert!(
            warm_over_cold >= 5.0,
            "strict: warm/cold {warm_over_cold:.1}x below the 5x bar"
        );
    }
    println!(
        "compile service: {requests} requests, {} pool loops, zipf s={ZIPF_S}",
        pool.len()
    );
    println!(
        "{:>9} {:>12} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "pass", "compiles/s", "hit rate", "misses", "evicted", "p50 us", "p99 us"
    );
    for report in [&cold, &exact, &symbolic] {
        println!(
            "{:>9} {:>12.0} {:>9.3} {:>8} {:>8} {:>9} {:>9}",
            report.mode,
            report.compiles_per_sec,
            report.hit_rate,
            report.store.misses,
            report.store.evictions,
            report.latency_p50_micros,
            report.latency_p99_micros,
        );
    }
    println!(
        "\nwarm/cold throughput: {warm_over_cold:.1}x  (queue depth max {}, backpressure waits {})",
        symbolic.queue.max_depth, symbolic.queue.backpressure_waits
    );
    println!(
        "symbolic instantiations: {} for {distinct_draws} distinct draws",
        symbolic.instantiations
    );

    if let Some(path) = args.json_path() {
        write_json(
            &path,
            &ServiceBench {
                requests: requests as u64,
                pool_loops: pool.len() as u64,
                zipf_s: ZIPF_S,
                distinct_draws,
                passes: vec![cold, exact, symbolic],
                warm_over_cold,
            },
        );
    }
}
