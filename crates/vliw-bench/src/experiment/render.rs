//! The shared benchmark × variant table renderer and pass-ledger
//! printer.

use crate::experiment::{Cell, GridResult};
use vliw_sched::PassStat;

/// Prints a merged compile-pass ledger, one line per pass: calls and
/// wall-clock microseconds (telemetry, not gated).
pub fn print_pass_ledger(stats: &[PassStat]) {
    for s in stats {
        println!(
            "  pass {:>18}: {:>5} calls, {:>8} µs",
            s.name, s.calls, s.micros
        );
    }
}

/// Prints `result` as the paper-style matrix: one row per benchmark, one
/// column per variant, and a final AMEAN row over the normalized
/// execution times.
///
/// `fmt_cell` renders one cell body; cells are right-aligned to
/// `col_width`.
pub fn render_matrix(result: &GridResult, col_width: usize, fmt_cell: impl Fn(&Cell) -> String) {
    print!("{:<11}", "bench");
    for label in &result.variants {
        print!(" {label:>col_width$}");
    }
    println!();
    for (name, row) in result.rows() {
        print!("{name:<11}");
        for cell in row {
            print!(" {:>col_width$}", fmt_cell(cell));
        }
        println!();
    }
    print!("{:<11}", "AMEAN");
    for vi in 0..result.variants.len() {
        print!(
            " {:>col_width$}",
            crate::fmt_norm(result.amean_normalized(vi))
        );
    }
    println!();
}
