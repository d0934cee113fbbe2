//! Edge-case coverage for `GridDiff` and the `bench-diff` CLI, driven by
//! the two small synthetic `BENCH_*.json` fixtures under
//! `tests/fixtures/`:
//!
//! * `diff_before.json` — benchmarks `alpha` (normalized 1.00) and `beta`;
//! * `diff_after.json` — `alpha` exactly 25 % slower (a float-exact
//!   threshold boundary), `beta` removed, `gamma` added.
//!
//! It also pins that every checked-in `GridResult` — these fixtures and
//! the three CI goldens — is written in the current format.

use std::path::PathBuf;
use std::process::Command;
use vliw_bench::experiment::{GridDiff, GridResult, GridTrend};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load(name: &str) -> GridResult {
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"))
}

#[test]
fn checked_in_grid_results_reserialize_byte_identically() {
    // A field added to `GridResult` or `Cell` without regenerating these
    // artifacts fails here instead of leaving a stale golden beside it.
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for path in [
        golden.join("sweep_clusters.json"),
        golden.join("sweep_backends.json"),
        golden.join("sweep_pgo.json"),
        fixture("diff_before.json"),
        fixture("diff_after.json"),
    ] {
        let text = std::fs::read_to_string(&path).unwrap();
        let grid: GridResult =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let again = serde_json::to_string_pretty(&grid).unwrap() + "\n";
        assert!(
            again == text,
            "{} is not in the current format",
            path.display()
        );
    }
}

#[test]
fn added_and_removed_cells_are_reported_not_hidden() {
    let diff = GridDiff::compare(&load("diff_before.json"), &load("diff_after.json"));
    assert!(!diff.same_grid(), "shape mismatch must be surfaced");
    assert_eq!(
        diff.only_in_before,
        vec![("beta".to_string(), "v1".to_string())]
    );
    assert_eq!(
        diff.only_in_after,
        vec![("gamma".to_string(), "v1".to_string())]
    );
    assert_eq!(diff.cells.len(), 1, "only alpha aligns");
    let rendered = diff.render();
    assert!(rendered.contains("removed in after"), "{rendered}");
    assert!(rendered.contains("new in after"), "{rendered}");
}

#[test]
fn threshold_boundary_is_exclusive() {
    let diff = GridDiff::compare(&load("diff_before.json"), &load("diff_after.json"));
    let alpha = &diff.cells[0];
    assert_eq!(alpha.relative, 0.25, "fixture is float-exactly at 25 %");
    // `relative > threshold` is the contract: exactly-at-threshold passes.
    assert!(diff.regressions(0.25).is_empty());
    assert_eq!(diff.regressions(0.2499).len(), 1);
    assert_eq!(diff.regressions(0.0).len(), 1);
    assert_eq!(diff.worst_relative(), 0.25);
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(args)
        .output()
        .expect("bench-diff runs")
}

#[test]
fn cli_exit_code_contract() {
    let before = fixture("diff_before.json");
    let after = fixture("diff_after.json");
    let (before, after) = (before.to_str().unwrap(), after.to_str().unwrap());

    // 0: nothing above threshold (identical inputs).
    let ok = run_cli(&[before, before]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    // 0: the 25 % slowdown sits exactly at an explicit threshold
    // (`relative > threshold` is exclusive), and the shape mismatch is
    // warned about without failing the run.
    let at_threshold = run_cli(&[before, after, "--threshold", "0.25"]);
    assert_eq!(at_threshold.status.code(), Some(0), "{at_threshold:?}");
    let stderr = String::from_utf8_lossy(&at_threshold.stderr);
    assert!(stderr.contains("grids do not align"), "{stderr}");

    // 1: the same slowdown regresses under the default 2 % threshold.
    let regressed = run_cli(&[before, after]);
    assert_eq!(regressed.status.code(), Some(1), "{regressed:?}");
    let stderr = String::from_utf8_lossy(&regressed.stderr);
    assert!(stderr.contains("REGRESSION"), "{stderr}");
    assert!(stderr.contains("alpha"), "{stderr}");

    // 2: usage error without the two positional paths.
    let usage = run_cli(&[before]);
    assert_eq!(usage.status.code(), Some(2), "{usage:?}");
}

#[test]
fn cli_trend_mode_prints_sparklines_over_n_runs() {
    let before = fixture("diff_before.json");
    let after = fixture("diff_after.json");
    let (before, after) = (before.to_str().unwrap(), after.to_str().unwrap());

    // Three runs: before, before, after — alpha degrades on the last.
    let out = run_cli(&["--trend", before, before, after]);
    assert_eq!(out.status.code(), Some(0), "trend view is informational");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("slope/run"), "{stdout}");
    assert!(stdout.contains("alpha"), "{stdout}");
    assert!(stdout.contains('▁'), "sparkline rendered: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing from at least one run"),
        "beta has no full trajectory: {stderr}"
    );

    // Fewer than two runs is a usage error.
    let usage = run_cli(&["--trend", before]);
    assert_eq!(usage.status.code(), Some(2), "{usage:?}");

    // --json emits the structured trend.
    let dir = std::env::temp_dir().join("vliw-bench-trend-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("trend.json");
    let with_json = run_cli(&[
        "--trend",
        before,
        after,
        "--json",
        artifact.to_str().unwrap(),
    ]);
    assert_eq!(with_json.status.code(), Some(0));
    let text = std::fs::read_to_string(&artifact).unwrap();
    let trend: GridTrend = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(trend.grids.len(), 2);
    let alpha = trend
        .cells
        .iter()
        .find(|c| c.benchmark == "alpha")
        .expect("alpha aligns in every run");
    assert!(alpha.slope > 0.0, "alpha trends slower");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_writes_the_diff_artifact_on_request() {
    let dir = std::env::temp_dir().join("vliw-bench-diff-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("diff.json");
    let before = fixture("diff_before.json");
    let status = run_cli(&[
        before.to_str().unwrap(),
        before.to_str().unwrap(),
        "--json",
        out.to_str().unwrap(),
    ]);
    assert_eq!(status.status.code(), Some(0));
    let text = std::fs::read_to_string(&out).unwrap();
    let diff: GridDiff = serde_json::from_str(text.trim()).unwrap();
    assert!(diff.same_grid());
    assert_eq!(diff.cells.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}
