//! # clustered-vliw-l0
//!
//! A from-scratch reproduction of *"Flexible Compiler-Managed L0 Buffers
//! for Clustered VLIW Processors"* (Gibert, Sánchez, González — MICRO-36,
//! 2003).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`machine`] — the clustered VLIW machine model (Table 2).
//! * [`ir`] — loop IR, data-dependence graphs, stride analysis.
//! * [`mem`] — the memory hierarchies: flexible L0 buffers + unified L1,
//!   the MultiVLIW MSI distributed cache, and the word-interleaved cache
//!   with attraction buffers.
//! * [`sched`] — modulo scheduling: SMS ordering, the BASE clustered
//!   scheduler, and the paper's L0-aware scheduling algorithm.
//! * [`sim`] — the lock-step cycle simulator. A compiled schedule
//!   records its arch and machine, so [`sim::simulate`] takes the
//!   schedule alone.
//! * [`workloads`] — the synthetic Mediabench-like benchmark suite.
//! * [`service`] — compile-as-a-service: the sharded worker pool over a
//!   content-addressed artifact cache with symbolic trip-count keys.
//!
//! # Quickstart
//!
//! ```
//! use clustered_vliw_l0::prelude::*;
//!
//! // The paper's machine (Table 2), with 8-entry L0 buffers.
//! let cfg = MachineConfig::micro2003();
//!
//! // A simple element-wise kernel: a[i] = b[i] + C over 2-byte elements.
//! let loop_ = LoopBuilder::new("saxpy-like")
//!     .trip_count(1024)
//!     .elementwise(2)
//!     .build();
//!
//! // Compile it with the L0-aware modulo scheduler and run it.
//! let schedule = CompileRequest::new(Arch::L0)
//!     .compile(&loop_, &cfg)
//!     .expect("schedulable");
//! let result = simulate(&schedule);
//! assert!(result.total_cycles() > 0);
//! ```

pub use vliw_ir as ir;
pub use vliw_machine as machine;
pub use vliw_mem as mem;
pub use vliw_sched as sched;
pub use vliw_service as service;
pub use vliw_sim as sim;
pub use vliw_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use vliw_ir::{DataDepGraph, LoopBuilder, LoopNest};
    pub use vliw_machine::{
        AccessHint, L0Capacity, MachineConfig, MappingHint, MemHints, PrefetchHint,
    };
    pub use vliw_sched::{Arch, CompileRequest, L0Options, Schedule};
    pub use vliw_sim::{simulate, SimResult};
    pub use vliw_workloads::{mediabench_suite, BenchmarkSpec};
}
