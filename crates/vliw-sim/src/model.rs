//! The arch→memory-model dispatch point: a declarative memory-model kind
//! plus its factory.
//!
//! [`simulate`](crate::simulate) builds the model of a schedule's own
//! arch ([`MemoryModelKind::for_arch`]) on the schedule's own machine, so
//! the factory is private to the crate: no caller can pair a schedule
//! with another model.

use serde::{Deserialize, Serialize};
use vliw_machine::MachineConfig;
use vliw_mem::{MemoryModel, MultiVliwMem, UnifiedL1, UnifiedWithL0, WordInterleavedMem};
use vliw_sched::Arch;

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
    /// configuration — which no compiled L0 schedule's machine lacks.
    pub(crate) fn build(&self, cfg: &MachineConfig) -> Box<dyn MemoryModel> {
        match self {
            MemoryModelKind::Unified => Box::new(UnifiedL1::new(cfg)),
            MemoryModelKind::UnifiedL0 => Box::new(UnifiedWithL0::new(cfg)),
            MemoryModelKind::MultiVliw => Box::new(MultiVliwMem::new(cfg)),
            MemoryModelKind::WordInterleaved => Box::new(WordInterleavedMem::new(cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, simulate, simulate_replay};
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
    fn simulate_runs_every_schedule_on_its_own_model() {
        // Each arch's schedule runs on `for_arch(s.arch())` built on
        // `s.machine()`: no public form runs, say, an L0 schedule on the
        // unified or the interleaved model.
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        for arch in Arch::ALL {
            let s = CompileRequest::new(arch).compile(&l, &cfg).unwrap();
            assert_eq!(s.arch(), arch);
            let own = || MemoryModelKind::for_arch(s.arch()).build(s.machine());
            assert_eq!(simulate(&s), run(&s, own().as_mut(), true), "{arch}");
            assert_eq!(
                simulate_replay(&s),
                run(&s, own().as_mut(), false),
                "{arch}"
            );
        }
    }
}
