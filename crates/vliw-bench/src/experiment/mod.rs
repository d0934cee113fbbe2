//! The declarative experiment engine behind every figure/table bin.
//!
//! A bin declares a [`SweepGrid`] — benchmarks × [`Variant`]s (arch ×
//! L0 capacity × cluster count × [`L0Options`](vliw_sched::L0Options) ×
//! prefetch distance) — and the engine does the rest:
//!
//! * compiles and simulates every `(benchmark, variant)` pair into a
//!   structured, serializable [`Cell`];
//! * memoizes the baseline compile+run per `(benchmark, baseline
//!   configuration)`, so a 4-column sweep normalizes all columns against
//!   one baseline execution instead of four;
//! * executes cells in parallel with rayon (cells are independent; the
//!   simulator is deterministic, so parallel output is identical to
//!   serial — guarded by tests);
//! * renders benchmark × variant matrices ([`render`]) and writes the
//!   structured result as JSON ([`cli`], the `BENCH_*.json` trajectory
//!   format).
//!
//! ```
//! use vliw_bench::experiment::{SweepGrid, Variant};
//! use vliw_bench::Arch;
//! use vliw_machine::{L0Capacity, MachineConfig};
//! use vliw_workloads::{kernels, BenchmarkSpec};
//!
//! let grid = SweepGrid::new(
//!     "demo",
//!     MachineConfig::micro2003(),
//!     vec![BenchmarkSpec::from_kernel(kernels::adpcm_predictor("pred", 64, 4))],
//! )
//! .variant(Variant::new(Arch::L0).l0(L0Capacity::Bounded(8)));
//!
//! let result = grid.run();
//! assert_eq!(result.cells.len(), 1);
//! assert!(result.cells[0].normalized < 1.0, "the recurrence kernel wins");
//! ```

pub mod cell;
pub mod cli;
pub mod diff;
pub mod grid;
pub mod render;
pub mod run;
pub mod service;

pub use cell::{Cell, ProofCounts};
pub use cli::{write_json, BinArgs};
pub use diff::{sparkline, CellDelta, CellTrend, GridDiff, GridTrend};
pub use grid::{SweepGrid, Variant};
pub use render::{print_pass_ledger, render_matrix};
pub use run::{harvest_profile, ExecMode, GridResult};
pub use service::{materialize_mix, zipf_mix, MixDraw, TRIP_MENU};
