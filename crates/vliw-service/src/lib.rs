//! Compile-as-a-service for the clustered-VLIW L0 compiler.
//!
//! The north-star treats [`CompileRequest`](vliw_sched::CompileRequest)
//! as a production API: millions of users, each with slightly different
//! loop bounds, served from one warm cache. This crate provides the
//! three layers that make that servable:
//!
//! * [`key`] — 128-bit content addresses over the canonical JSON of
//!   (normalized IR, machine, request); [`KeyMode`] picks whether trip
//!   counts are part of the address ([`KeyMode::Exact`]) or normalized
//!   out of it ([`KeyMode::Symbolic`], the multiplier — see
//!   [`vliw_sched::symbolic`]).
//! * [`store`] — the content-addressed [`ArtifactStore`]: LRU capacity,
//!   hit/miss/insertion/eviction telemetry ([`StoreStats`]) that rides
//!   along in experiment artifacts and service reports.
//! * [`service`] — the sharded [`CompileService`]: bounded per-shard
//!   channels with backpressure, one scoped worker thread and one
//!   private store per shard, latency percentiles and a commutative
//!   result checksum in the [`ServiceReport`].
//!
//! [`zipf`] supplies the deterministic skewed request mix the
//! `sweep_service` replay harness drives all of this with.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vliw_ir::LoopBuilder;
//! use vliw_machine::MachineConfig;
//! use vliw_sched::{Arch, CompileRequest};
//! use vliw_service::{CompileService, KeyMode, ServiceConfig, ServiceRequest};
//!
//! let machine = Arc::new(MachineConfig::micro2003());
//! let request = Arc::new(CompileRequest::new(Arch::L0));
//! // Four requests for the same loop body, differing only in bounds …
//! let base = LoopBuilder::new("ew").trip_count(1024).elementwise(2).build();
//! let stream: Vec<ServiceRequest> = [64u64, 256, 1024, 64]
//!     .iter()
//!     .map(|&t| {
//!         let mut l = base.clone();
//!         l.trip_count = t;
//!         ServiceRequest::new(Arc::new(l), machine.clone(), request.clone(), KeyMode::Symbolic)
//!     })
//!     .collect();
//! let report = CompileService::new(ServiceConfig::default()).replay(stream);
//! // … compile once, instantiate once per distinct bound: the repeat
//! // of 64 is served the memoized instance.
//! assert_eq!(report.store.misses, 1);
//! assert_eq!(report.store.hits, 3);
//! assert_eq!(report.instantiations, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod service;
pub mod store;
pub mod zipf;

pub use key::{compile_key, ArtifactKey, KeyBuilder, KeyMode};
pub use service::{
    CompileService, FailureRecord, QueueStats, ServiceConfig, ServiceReport, ServiceRequest,
};
pub use store::{ArtifactStore, StoreStats};
pub use zipf::Zipf;
