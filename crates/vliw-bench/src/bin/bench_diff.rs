//! Compares `BENCH_*.json` grid runs (ROADMAP "Trajectory tooling").
//!
//! Two-run regression gate (the CI hook that turns a checked-in golden
//! grid into a scaling-curve gate — exits nonzero when any aligned cell
//! is more than `--threshold`, default 2 %, slower in *after*):
//!
//! ```text
//! bench-diff <before.json> <after.json> [--threshold 0.02] [--json <path>]
//! ```
//!
//! Multi-run trend view (N runs oldest-first; prints one sparkline and a
//! least-squares slope per cell — informational, always exits 0 when the
//! runs load):
//!
//! ```text
//! bench-diff --trend <run1.json> <run2.json> [<run3.json> ...] [--json <path>]
//! ```

use std::process::ExitCode;
use vliw_bench::experiment::{write_json, BinArgs, GridDiff, GridResult, GridTrend};

fn load(path: &str) -> GridResult {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not a grid result: {e:?}"))
}

fn run_trend(paths: &[&str], args: &BinArgs) -> ExitCode {
    if paths.len() < 2 {
        eprintln!("usage: bench-diff --trend <run1.json> <run2.json> [...] [--json <path>]");
        return ExitCode::from(2);
    }
    let runs: Vec<GridResult> = paths.iter().map(|p| load(p)).collect();
    let refs: Vec<&GridResult> = runs.iter().collect();
    let trend = GridTrend::collect(&refs);
    print!("{}", trend.render());
    if !trend.incomplete.is_empty() {
        eprintln!(
            "warning: {} cell(s) missing from at least one run",
            trend.incomplete.len()
        );
    }
    if let Some(path) = args.json_path() {
        write_json(&path, &trend);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = BinArgs::parse();
    let positional = args.positional_with(&["--trend"]);
    if args.has_flag("--trend") {
        return run_trend(&positional, &args);
    }
    let [before_path, after_path] = positional.as_slice() else {
        eprintln!(
            "usage: bench-diff <before.json> <after.json> [--threshold 0.02] [--json <path>]\n\
             \x20      bench-diff --trend <run1.json> <run2.json> [...] [--json <path>]"
        );
        return ExitCode::from(2);
    };
    let threshold: f64 = args.number("--threshold", 0.0).unwrap_or(0.02);

    let before = load(before_path);
    let after = load(after_path);
    let diff = GridDiff::compare(&before, &after);

    print!("{}", diff.render());
    if !diff.same_grid() {
        eprintln!(
            "warning: grids do not align ({} vs {}; {} cells only in before, {} only in after)",
            diff.before_grid,
            diff.after_grid,
            diff.only_in_before.len(),
            diff.only_in_after.len()
        );
    }

    if let Some(path) = args.json_path() {
        write_json(&path, &diff);
    }

    let regressions = diff.regressions(threshold);
    if regressions.is_empty() {
        println!(
            "OK: no cell more than {:.1}% slower (worst {:+.2}%)",
            threshold * 100.0,
            diff.worst_relative() * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "REGRESSION: {} cell(s) more than {:.1}% slower:",
            regressions.len(),
            threshold * 100.0
        );
        for r in regressions {
            eprintln!(
                "  {} / {}: {:.3} -> {:.3} ({:+.2}%)",
                r.benchmark,
                r.variant,
                r.before,
                r.after,
                r.relative * 100.0
            );
        }
        ExitCode::FAILURE
    }
}
