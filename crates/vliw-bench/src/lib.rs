//! Experiment harness: runs the synthetic Mediabench suite over the four
//! architectures and reproduces every table and figure of the paper.
//!
//! All artifacts are generated through the [`experiment`] engine: each
//! `--bin` target declares a [`experiment::SweepGrid`] (benchmarks ×
//! variants), the engine compiles and simulates every cell — baselines
//! memoized per `(spec, config)`, cells in parallel via rayon — and the
//! bin renders the resulting [`experiment::Cell`]s. Every bin accepts
//! `--json <path>` to emit the structured grid result.
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table 1 (benchmark stride statistics) |
//! | `table2` | Table 2 (machine configuration) |
//! | `fig5` | Figure 5 (execution time vs. L0 size, compute/stall split) |
//! | `fig6` | Figure 6 (mapping mix, L0 hit rate, unroll factors) |
//! | `fig7` | Figure 7 (L0 vs. MultiVLIW vs. word-interleaved) |
//! | `ablation_selective` | §5.2 in-text: selective vs. all-candidates marking |
//! | `ablation_prefetch` | §5.2 in-text: prefetch distance 2 |
//! | `ablation_coherence` | §4.1: NL0 / 1C / PSR comparison |
//! | `ablation_flush` | §4.1 future work: selective inter-loop flushing |
//! | `sweep_clusters` | scaling study: N = 2…64 clusters, flat vs. contended interconnect |
//! | `sweep_backends` | scheduler backends: SMS vs. exact branch-and-bound, II gap + proofs |
//! | `bench-diff` | compares two `BENCH_*.json` runs (CI regression gate) |
//! | `fuzz` | fixed-seed scenario fuzz corpus: traffic patterns + random loops under the property gates (CI gate) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fuzz;

use vliw_machine::MachineConfig;
use vliw_sched::{CompileRequest, L0Options};
use vliw_sim::{simulate_arch, SimResult};
use vliw_workloads::BenchmarkSpec;

pub use vliw_sched::Arch;

/// Runs every loop of `spec` on `arch`, returning the merged loop-portion
/// result (no scalar cycles).
///
/// # Panics
///
/// Panics when a loop cannot be scheduled — the suite's loops are all
/// schedulable by construction, so a failure is a harness bug.
pub fn run_loops(
    spec: &BenchmarkSpec,
    cfg: &MachineConfig,
    arch: Arch,
    opts: L0Options,
) -> SimResult {
    let mut merged = SimResult::default();
    for loop_ in &spec.loops {
        let schedule = CompileRequest::new(arch)
            .opts(opts)
            .compile_or_panic(loop_, cfg);
        merged.merge(&simulate_arch(&schedule, cfg, arch));
    }
    merged
}

/// A fully-accounted benchmark execution: loop portion + the scalar
/// (non-loop) cycles, which are identical across architectures.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Benchmark name.
    pub name: String,
    /// Loop-portion result.
    pub loops: SimResult,
    /// Scalar cycles added on top (same for every architecture).
    pub scalar_cycles: u64,
}

impl BenchRun {
    /// Total cycles including the scalar portion.
    pub fn total(&self) -> u64 {
        self.loops.total_cycles() + self.scalar_cycles
    }

    /// Compute cycles including the scalar portion.
    pub fn compute(&self) -> u64 {
        self.loops.compute_cycles + self.scalar_cycles
    }

    /// Stall cycles (scalar code never stalls).
    pub fn stall(&self) -> u64 {
        self.loops.stall_cycles
    }
}

/// Runs `spec` on `arch`, with the scalar portion sized from the
/// *baseline* loop cycles (so every architecture adds the same scalar
/// cycles, as in the paper).
pub fn run_benchmark(
    spec: &BenchmarkSpec,
    cfg: &MachineConfig,
    arch: Arch,
    opts: L0Options,
    baseline_loop_cycles: u64,
) -> BenchRun {
    let loops = run_loops(spec, cfg, arch, opts);
    BenchRun {
        name: spec.name.clone(),
        loops,
        scalar_cycles: spec.scalar_cycles_for(baseline_loop_cycles),
    }
}

/// Convenience: baseline loop cycles for `spec` (used to size scalar code
/// and to normalize).
pub fn baseline_run(spec: &BenchmarkSpec, cfg: &MachineConfig) -> BenchRun {
    let loops = run_loops(spec, cfg, Arch::Baseline, L0Options::default());
    let scalar = spec.scalar_cycles_for(loops.total_cycles());
    BenchRun {
        name: spec.name.clone(),
        loops,
        scalar_cycles: scalar,
    }
}

/// Arithmetic mean (the paper's AMEAN bars).
pub fn amean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Formats a ratio as the paper's normalized execution time.
pub fn fmt_norm(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_workloads::mediabench_suite;

    #[test]
    fn baseline_and_l0_run_one_benchmark() {
        let suite = mediabench_suite();
        let spec = &suite[1]; // g721dec
        let cfg = MachineConfig::micro2003();
        let base = baseline_run(spec, &cfg);
        let l0 = run_benchmark(
            spec,
            &cfg,
            Arch::L0,
            L0Options::default(),
            base.loops.total_cycles(),
        );
        assert!(base.total() > 0);
        assert!(l0.total() > 0);
        assert_eq!(base.scalar_cycles, l0.scalar_cycles, "same scalar region");
        // g721's memory recurrences make it a strong L0 winner
        assert!(
            (l0.total() as f64) < base.total() as f64,
            "L0 {} !< base {}",
            l0.total(),
            base.total()
        );
    }

    #[test]
    fn amean_is_arithmetic() {
        assert!((amean(&[0.8, 1.0, 1.2]) - 1.0).abs() < 1e-12);
        assert_eq!(amean(&[]), 0.0);
    }
}
