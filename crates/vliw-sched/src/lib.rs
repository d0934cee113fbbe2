//! Modulo scheduling for clustered VLIW processors with flexible
//! compiler-managed L0 buffers.
//!
//! This crate implements §4 of the paper:
//!
//! * [`mii`] — the minimum initiation interval: resource-constrained
//!   (ResMII) and recurrence-constrained (RecMII, from `vliw-ir`).
//! * [`sms`] — Swing-Modulo-Scheduling-style node ordering \[17\]: nodes are
//!   ordered so each is placed next to an already-ordered neighbour,
//!   most-critical (least slack) first.
//! * [`mrt`] — the modulo reservation table: per-cluster functional-unit
//!   slots and the shared inter-cluster buses.
//! * [`engine`] — the cluster-assignment + scheduling engine shared by all
//!   four target architectures (the BASE algorithm of \[22\] plus the
//!   paper's modifications).
//! * [`coherence`] — the intra-loop coherence solutions NL0 / 1C / PSR
//!   (§4.1) and the decision logic of step ➍.
//! * [`hints`] — step 4: access/mapping/prefetch hint assignment.
//! * [`cost`] — the unified placement-cost layer: [`StaticDistance`]
//!   (pure hop geometry, the bit-exact default) and [`Observed`] (a
//!   harvested [`Profile`](vliw_machine::Profile) weighs routes by
//!   measured link stalls and bank queueing) behind one
//!   [`PlacementCost`] trait.
//! * [`backend`] — the pluggable [`SchedulerBackend`] axis: [`SmsBackend`]
//!   (the paper's heuristic, default) and [`ExactBackend`] (branch-and-
//!   bound search for provably-minimal IIs, an offline SMT-solver
//!   stand-in).
//! * [`compile`] — the end-to-end drivers behind the [`CompileRequest`]
//!   builder, the only compile entry point, and the unroll-factor
//!   selection of step 1.
//! * [`passes`] — the explicit pass pipeline the drivers run on: a
//!   [`Pass`] trait, a [`PassManager`] with per-pass timing and failure
//!   attribution, and the [`VerifyLevel`] knob gating the static
//!   legality re-check.
//!
//! # Example
//!
//! ```
//! use vliw_ir::LoopBuilder;
//! use vliw_machine::MachineConfig;
//! use vliw_sched::{Arch, CompileRequest};
//!
//! let cfg = MachineConfig::micro2003();
//! let l = LoopBuilder::new("ew").trip_count(1024).elementwise(2).build();
//!
//! let base = CompileRequest::new(Arch::Baseline)
//!     .compile(&l, &cfg)
//!     .expect("schedulable");
//! let with_l0 = CompileRequest::new(Arch::L0)
//!     .compile(&l, &cfg)
//!     .expect("schedulable");
//!
//! // The L0 schedule uses the 1-cycle buffer latency for its loads, so
//! // its initiation interval can never be worse.
//! assert!(with_l0.ii() <= base.ii());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod backend;
pub mod coherence;
pub mod compile;
pub mod cost;
pub mod engine;
pub mod flush;
pub mod hints;
pub mod mii;
pub mod mrt;
pub mod passes;
pub mod render;
pub mod schedule;
pub mod sms;
pub mod symbolic;

pub use arch::Arch;
pub use backend::{BackendKind, ExactBackend, SchedulerBackend, SmsBackend};
pub use coherence::{CoherencePolicy, CoherenceSolution};
pub use compile::{CompileRequest, L0Options, MarkPolicy, UnrollPolicy};
pub use cost::{base_loop_name, Observed, PlacementCost, StaticDistance};
pub use engine::{AssignmentPolicy, ScheduleError};
pub use flush::{apply_selective_flushing, needs_flush_between};
pub use passes::{merge_pass_stats, Pass, PassCtx, PassManager, PassStat, VerifyLevel};
pub use schedule::{IiProof, Placement, PrefetchSlot, ReplicaSlot, Schedule};
pub use symbolic::SymbolicArtifact;
