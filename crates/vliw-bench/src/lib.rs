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

pub use vliw_sched::Arch;

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

    #[test]
    fn amean_is_arithmetic() {
        assert!((amean(&[0.8, 1.0, 1.2]) - 1.0).abs() < 1e-12);
        assert_eq!(amean(&[]), 0.0);
    }
}
