//! The target-architecture axis shared by the compiler, the simulator and
//! the experiment engine.
//!
//! It lives next to the compilation drivers so every layer shares one
//! definition. An arch is stated once, in a
//! [`CompileRequest`](crate::CompileRequest); the compile driver records
//! it in every [`Schedule`](crate::Schedule) it hands out
//! ([`Schedule::arch`](crate::Schedule::arch)), and the simulator reads
//! it from there to pick the memory model (`vliw_sim::MemoryModelKind`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which memory architecture a compilation / simulation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Unified L1, no L0 buffers (the normalization baseline).
    Baseline,
    /// Unified L1 + flexible compiler-managed L0 buffers.
    L0,
    /// MultiVLIW: distributed L1, MSI snoop coherence.
    MultiVliw,
    /// Word-interleaved cache, placement-blind scheduling.
    Interleaved1,
    /// Word-interleaved cache, owner-aware scheduling.
    Interleaved2,
}

impl Arch {
    /// Every architecture, in the order the paper's figures present them.
    pub const ALL: [Arch; 5] = [
        Arch::Baseline,
        Arch::L0,
        Arch::MultiVliw,
        Arch::Interleaved1,
        Arch::Interleaved2,
    ];

    /// Display name used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::L0 => "L0 buffers",
            Arch::MultiVliw => "MultiVLIW",
            Arch::Interleaved1 => "Interleaved 1",
            Arch::Interleaved2 => "Interleaved 2",
        }
    }

    /// `true` when this architecture schedules against the L0 buffers (and
    /// therefore needs an L0-configured machine).
    pub fn uses_l0(self) -> bool {
        matches!(self, Arch::L0)
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Arch::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), Arch::ALL.len());
    }
}
