//! Scenario-fuzz gate: replays the fixed-seed corpus — synthetic
//! traffic patterns across every topology and memory model, plus
//! random loop nests through the real compile→simulate path — and
//! exits nonzero the moment any property gate fails: reply-level
//! traffic invariants, IR/schedule/simulator checks, or a divergence
//! between the fast-forwarded simulation and its full replay.
//!
//! The corpus is deterministic end to end (pattern seeds are pinned in
//! `presets()`, loop/machine seeds run 0..N), so a red run reproduces
//! locally with the same command. `--json <path>` emits the structured
//! report (per-pattern stall/contention breakdown, showcase rows,
//! violations); `--quick` shrinks the corpus for fast local runs.

use vliw_bench::experiment::{write_json, BinArgs};
use vliw_bench::fuzz::{run_corpus, FuzzConfig};

fn main() {
    let args = BinArgs::parse();
    let config = if args.has_flag("--quick") {
        FuzzConfig::quick()
    } else {
        FuzzConfig::default()
    };

    let report = run_corpus(&config);

    println!(
        "fuzz: {} scenarios ({} traffic, {} loop: {} compiled, {} infeasible-II skips)",
        report.scenarios,
        report.traffic_scenarios,
        report.loop_scenarios,
        report.compiled,
        report.skipped_infeasible
    );

    // Per-pattern breakdown, aggregated over topologies × models.
    let mut seen: Vec<&str> = Vec::new();
    for row in &report.traffic {
        if !seen.contains(&row.pattern.as_str()) {
            seen.push(&row.pattern);
        }
    }
    println!(
        "  {:<14} {:>9} {:>10} {:>10} {:>10} {:>8}",
        "pattern", "requests", "wait", "queue", "link", "merges"
    );
    for pattern in seen {
        let rows = report.traffic.iter().filter(|r| r.pattern == pattern);
        let (mut reqs, mut wait, mut queue, mut link, mut merges) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in rows {
            reqs += r.requests;
            wait += r.wait_cycles;
            queue += r.queue_cycles;
            link += r.link_stall_cycles;
            merges += r.mshr_merges;
        }
        println!("  {pattern:<14} {reqs:>9} {wait:>10} {queue:>10} {link:>10} {merges:>8}");
    }

    if !report.showcase.is_empty() {
        println!("  showcase (contended 16-cluster mesh, cycles normalized to contention-blind):");
        for row in &report.showcase {
            println!(
                "    seed {:>4} [{}]: blind {:>7}  aware {:.3}  pgo {:.3}",
                row.seed, row.arch, row.blind_cycles, row.aware_vs_blind, row.pgo_vs_blind
            );
        }
    }

    if report.is_green() {
        println!("fuzz: OK — every property gate passed");
    } else {
        eprintln!(
            "fuzz: {} violation(s), {} oracle mismatch(es), {} compile failure(s):",
            report.violations.len(),
            report.oracle_mismatches.len(),
            report.compile_failures.len()
        );
        for v in &report.violations {
            eprintln!("  {v}");
        }
        for m in &report.oracle_mismatches {
            eprintln!("  {m}");
        }
        for c in &report.compile_failures {
            eprintln!("  {c}");
        }
    }

    if let Some(path) = args.json_path() {
        write_json(&path, &report);
    }
    if !report.is_green() {
        std::process::exit(1);
    }
}
