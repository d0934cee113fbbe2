//! Memory hierarchies for the clustered-VLIW L0-buffer study.
//!
//! Four memory systems, all behind the [`MemoryModel`] trait:
//!
//! * [`UnifiedL1`] — the baseline: a centralized L1 data cache, 6-cycle
//!   latency, no L0 buffers (the normalization baseline of Figures 5/7).
//! * [`UnifiedWithL0`] — the paper's proposal: the same unified L1 plus a
//!   small, flexible, compiler-managed L0 buffer per cluster (§3).
//! * [`MultiVliwMem`] — the MultiVLIW baseline \[23\]: L1 distributed among
//!   clusters, kept coherent with a snoop-based MSI protocol.
//! * [`WordInterleavedMem`] — the word-interleaved distributed cache \[10\]
//!   with per-cluster attraction buffers.
//!
//! The models are *timing* models: each access returns the cycle the value
//! is available, and the models track the statistics the paper reports
//! (L0 hit rates, linear vs. interleaved subblock mix, local/remote access
//! counts, ...).
//!
//! All four models route refill/snoop/remote traffic through a shared
//! [`Interconnect`] (per-bank request queues, port-limited grants,
//! distance-dependent hop latency — see DESIGN.md §6). The default
//! [`InterconnectConfig`](vliw_machine::InterconnectConfig) is the
//! paper's flat, contention-free network, under which every route is a
//! zero-cost no-op and the models are bit-exact with their
//! pre-interconnect behaviour; banked topologies add queueing that the
//! simulator surfaces as contention stalls.
//!
//! # Example
//!
//! ```
//! use vliw_machine::{AccessHint, MachineConfig, MappingHint, MemHints, ClusterId};
//! use vliw_mem::{MemRequest, MemoryModel, ReqKind, UnifiedWithL0};
//!
//! let cfg = MachineConfig::micro2003();
//! let mut mem = UnifiedWithL0::new(&cfg);
//! let hints = MemHints::new(AccessHint::ParAccess).with_mapping(MappingHint::Linear);
//!
//! // First touch allocates the subblock: pays the L1 latency.
//! let miss = mem.access(&MemRequest::load(ClusterId::new(0), 0x1000, 4, hints, 0));
//! // Second touch hits in the L0 buffer: 1 cycle.
//! let hit = mem.access(&MemRequest::load(ClusterId::new(0), 0x1004, 4, hints, 100));
//! assert!(miss.ready_at - 0 > hit.ready_at - 100);
//! assert_eq!(hit.ready_at - 100, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod digest;
pub mod interconnect;
pub mod interleaved;
pub mod l0;
pub mod mshr;
pub mod multivliw;
pub mod request;
pub mod stats;
pub mod unified;
pub mod wheel;

pub use cache::SetAssocCache;
pub use interconnect::{Interconnect, Route, Traverse};
pub use interleaved::WordInterleavedMem;
pub use l0::{L0Buffer, L0LookupResult};
pub use mshr::MshrFile;
pub use multivliw::MultiVliwMem;
pub use request::{MemReply, MemRequest, ReqKind, ServicedBy};
pub use stats::MemStats;
pub use unified::{UnifiedL1, UnifiedWithL0};
pub use wheel::SlotWheel;

use vliw_machine::ClusterId;

/// How far behind the current drain cycle arbitration/MSHR state is kept
/// alive. The simulator replays overlapped loop iterations slightly out
/// of global cycle order, so [`MshrFile::retire`](mshr::MshrFile::retire)
/// and the interconnect's [`SlotWheel`]s judge staleness against the same
/// generous window — one constant so the structures can never disagree
/// about what "too old to matter" means.
pub const REPLAY_HORIZON: u64 = 4096;

/// A cycle-level memory system.
///
/// The simulator issues one request per dynamic memory operation and uses
/// the returned [`MemReply::ready_at`] to account stalls. Models are
/// deterministic: the same request sequence produces the same timings.
pub trait MemoryModel {
    /// Performs one access and returns when its value is available.
    fn access(&mut self, req: &MemRequest) -> MemReply;

    /// Executes an `invalidate_buffer` instruction in `cluster` (discards
    /// every entry of its L0-like structure). No-op for models without
    /// per-cluster buffers.
    fn invalidate_buffers(&mut self, _cluster: ClusterId, _cycle: u64) {}

    /// Retires MSHR state that can no longer influence any replayed
    /// request (everything more than [`REPLAY_HORIZON`] cycles before
    /// `cycle`). The runner drives it sparsely, about once per
    /// [`REPLAY_HORIZON`] cycles; retirement is timing-invisible, so the
    /// cadence does not affect results. Models without prunable state
    /// ignore it.
    fn retire(&mut self, _cycle: u64) {}

    /// Statistics accumulated so far.
    fn stats(&self) -> &MemStats;

    /// Snapshot of the per-link / per-bank load the model's interconnect
    /// has observed so far — the network half of a profiling artifact.
    /// `None` for models without a routed network (including every flat
    /// configuration, where nothing is ever routed).
    fn network_load(&self) -> Option<vliw_machine::NetLoad> {
        None
    }

    /// Appends to `out` an exact, translation-invariant encoding of
    /// every piece of state that can influence the timing of a *future*
    /// request: buffer/cache contents (addresses absolute, LRU
    /// timestamps as ranks), interconnect occupancies and MSHR flight
    /// windows expressed relative to `base_cycle`. The words are the
    /// state, not a hash of it: two instants whose keys (for their
    /// respective bases) are equal behave identically for identical
    /// subsequent request streams shifted by the base difference, so
    /// one recurrence is proof of a steady period (DESIGN.md §14).
    ///
    /// `base_cycle` is a promise by the caller that every future request
    /// is at or after it; state that no such request can observe (a
    /// landed fill's ready time, a slot behind `base_cycle`) is encoded
    /// as dead. Monotonic observables that arbitration never consults
    /// (statistics counters, link/bank load profiles) are excluded — the
    /// runner batches those separately in closed form.
    ///
    /// Required, with [`advance_clock`](MemoryModel::advance_clock): the
    /// runner's steady-state fast-forward trusts both on every model. A
    /// stateless model writes nothing.
    fn state_key(&self, base_cycle: u64, out: &mut Vec<u64>);

    /// Shifts every clock-bearing piece of model state forward by
    /// `delta` cycles, realizing the translation that
    /// [`state_key`](MemoryModel::state_key) promises is invisible:
    /// after `advance_clock(d)`, requests at `cycle + d` behave exactly
    /// as requests at `cycle` would have before, and the key relative to
    /// `base + d` equals the key relative to `base` before.
    fn advance_clock(&mut self, delta: u64);
}
