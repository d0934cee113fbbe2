//! Cycle-level lock-step simulation of modulo-scheduled loops.
//!
//! The clusters run in lock-step: when one memory access arrives later
//! than the schedule assumed, the whole processor stalls for the
//! difference. Execution time therefore decomposes exactly as in the
//! paper's figures:
//!
//! * **compute time** — `(trip − 1)·II + SC·II` per loop visit, the
//!   schedule's own length (plus one cycle per visit for the
//!   `invalidate_buffer` word when the target flushes L0 on exit);
//! * **stall time** — cycles lost to "memory accesses that have been
//!   scheduled too close to their consumers" (§5.2): an access whose
//!   actual latency exceeds its scheduled use distance stalls the
//!   pipeline for the remainder. Stalls are attributed per static op
//!   ([`result::OpStall`]), and on a contended (non-flat) interconnect
//!   the share traceable to bank-port queueing is split out as
//!   [`SimResult::contention_stall_cycles`].
//!
//! # Entry points
//!
//! A [`Schedule`](vliw_sched::Schedule) records the arch and the
//! machine it was compiled for, so [`simulate`] takes the schedule alone
//! and runs it on that target's memory model
//! ([`MemoryModelKind::for_arch`]); [`simulate_replay`] is the same with
//! the fast-forward off.
//!
//! # Example
//!
//! ```
//! use vliw_ir::LoopBuilder;
//! use vliw_machine::MachineConfig;
//! use vliw_sched::{Arch, CompileRequest};
//! use vliw_sim::simulate;
//!
//! let cfg = MachineConfig::micro2003();
//! // in-place update: the load sits on the II-bounding memory recurrence
//! let l = LoopBuilder::new("slp").trip_count(512).store_load_pair(4).build();
//!
//! let base = CompileRequest::new(Arch::Baseline).compile(&l, &cfg).unwrap();
//! let with_l0 = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
//!
//! let r_base = simulate(&base);
//! let r_l0 = simulate(&with_l0);
//! assert!(r_l0.total_cycles() < r_base.total_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compat;
pub mod model;
pub mod result;
pub mod runner;

pub use compat::{simulate_arch, simulate_with, EngineKind};
pub use model::MemoryModelKind;
pub use result::{FfwdReason, FfwdStats, OpStall, SimResult};
pub use runner::{simulate, simulate_replay};
pub use vliw_sched::Arch;
