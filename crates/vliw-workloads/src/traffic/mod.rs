//! Synthetic traffic generation: declarative access patterns driving
//! the memory models directly, below the compiler.
//!
//! The benchmark suite exercises the memory hierarchy only through
//! *scheduled* code — polite, compiler-shaped request streams. This
//! module generates adversarial streams the scheduler would never emit
//! (hot-bank pile-ups, bursty arrivals, pointer chases) and replays
//! them against any [`MemoryModel`](vliw_mem::MemoryModel) on any
//! interconnect topology, so the contention, MSHR and occupancy-wheel
//! machinery faces traffic shaped by an adversary rather than by a
//! modulo scheduler. The systolic-style compute/memory mixes
//! follow the access shapes of hybrid systolic shared-L1 clusters
//! (Mazzola et al. — see PAPERS.md).
//!
//! * [`PatternSpec`] / [`PatternKind`] — the declarative pattern
//!   descriptions and their [`presets`].
//! * [`run_traffic`] — replays one spec against a model and captures
//!   the full request/reply trace for property checking.
//!
//! The corpus seeding rules and the property-gate list live in
//! DESIGN.md §13.

pub mod drive;
pub mod patterns;

pub use drive::{run_traffic, TrafficRun, TrafficSummary};
pub use patterns::{presets, PatternKind, PatternSpec};
