//! The arch→memory-model dispatch point: a declarative memory-model kind
//! plus its factory.
//!
//! Every caller simulates through [`simulate_arch`], and anything that
//! needs a fresh model (e.g. a custom experiment) goes through
//! [`MemoryModelKind::build`].

use crate::result::SimResult;
use crate::runner::simulate;
use serde::{Deserialize, Serialize};
use vliw_machine::MachineConfig;
use vliw_mem::{MemoryModel, MultiVliwMem, UnifiedL1, UnifiedWithL0, WordInterleavedMem};
use vliw_sched::{Arch, Schedule};

/// The memory hierarchy a simulation runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryModelKind {
    /// Centralized unified L1, no L0 buffers.
    Unified,
    /// Unified L1 + per-cluster flexible L0 buffers.
    UnifiedL0,
    /// Distributed L1 banks kept coherent with snoop MSI.
    MultiVliw,
    /// Word-interleaved distributed cache with attraction buffers.
    WordInterleaved,
}

impl MemoryModelKind {
    /// The memory model a target architecture simulates against.
    pub fn for_arch(arch: Arch) -> Self {
        match arch {
            Arch::Baseline => MemoryModelKind::Unified,
            Arch::L0 => MemoryModelKind::UnifiedL0,
            Arch::MultiVliw => MemoryModelKind::MultiVliw,
            Arch::Interleaved1 | Arch::Interleaved2 => MemoryModelKind::WordInterleaved,
        }
    }

    /// Builds a fresh model for one simulation.
    ///
    /// # Panics
    ///
    /// Panics for [`MemoryModelKind::UnifiedL0`] when `cfg` has no L0
    /// configuration.
    pub fn build(&self, cfg: &MachineConfig) -> Box<dyn MemoryModel> {
        match self {
            MemoryModelKind::Unified => Box::new(UnifiedL1::new(cfg)),
            MemoryModelKind::UnifiedL0 => Box::new(UnifiedWithL0::new(cfg)),
            MemoryModelKind::MultiVliw => Box::new(MultiVliwMem::new(cfg)),
            MemoryModelKind::WordInterleaved => Box::new(WordInterleavedMem::new(cfg)),
        }
    }
}

/// Simulates `schedule` on `arch`'s memory hierarchy — the single
/// arch→simulator entry point.
///
/// # Panics
///
/// Panics for [`Arch::L0`] when `cfg` has no L0 configuration.
pub fn simulate_arch(schedule: &Schedule, cfg: &MachineConfig, arch: Arch) -> SimResult {
    let mut model = MemoryModelKind::for_arch(arch).build(cfg);
    simulate(schedule, cfg, model.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;
    use vliw_sched::CompileRequest;

    #[test]
    fn kind_mapping_covers_every_arch() {
        assert_eq!(
            MemoryModelKind::for_arch(Arch::Baseline),
            MemoryModelKind::Unified
        );
        assert_eq!(
            MemoryModelKind::for_arch(Arch::L0),
            MemoryModelKind::UnifiedL0
        );
        assert_eq!(
            MemoryModelKind::for_arch(Arch::MultiVliw),
            MemoryModelKind::MultiVliw
        );
        assert_eq!(
            MemoryModelKind::for_arch(Arch::Interleaved1),
            MemoryModelKind::WordInterleaved
        );
        assert_eq!(
            MemoryModelKind::for_arch(Arch::Interleaved2),
            MemoryModelKind::WordInterleaved
        );
    }

    #[test]
    fn factory_builds_fresh_models() {
        let cfg = MachineConfig::micro2003();
        for kind in [
            MemoryModelKind::Unified,
            MemoryModelKind::UnifiedL0,
            MemoryModelKind::MultiVliw,
            MemoryModelKind::WordInterleaved,
        ] {
            let model = kind.build(&cfg);
            assert_eq!(model.stats().accesses, 0, "{kind:?} must start fresh");
        }
    }

    #[test]
    fn simulate_arch_matches_explicit_model() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let s = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
        let via_arch = simulate_arch(&s, &cfg, Arch::L0);
        let mut model = MemoryModelKind::UnifiedL0.build(&cfg);
        let via_model = simulate(&s, &cfg, model.as_mut());
        assert_eq!(via_arch, via_model);
    }
}
