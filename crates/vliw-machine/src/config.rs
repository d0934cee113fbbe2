//! Machine configuration (Table 2 of the paper) plus the parameters of the
//! two distributed-cache baselines of §5.3.

use crate::ids::ClusterId;
use crate::interconnect::InterconnectConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of functional unit inside a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuKind {
    /// Integer ALU (also executes branches and address arithmetic).
    Int,
    /// Memory unit: loads, stores, prefetches, buffer invalidations.
    Mem,
    /// Floating-point unit.
    Fp,
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::Int => "INT",
            FuKind::Mem => "MEM",
            FuKind::Fp => "FP",
        };
        f.write_str(s)
    }
}

/// Number of functional units of each kind inside one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuMix {
    /// Integer units per cluster.
    pub int: usize,
    /// Memory units per cluster.
    pub mem: usize,
    /// Floating-point units per cluster.
    pub fp: usize,
}

impl FuMix {
    /// The paper's mix: 1 integer + 1 memory + 1 FP unit per cluster.
    pub fn micro2003() -> Self {
        FuMix {
            int: 1,
            mem: 1,
            fp: 1,
        }
    }

    /// Units of a given kind.
    pub fn of(&self, kind: FuKind) -> usize {
        match kind {
            FuKind::Int => self.int,
            FuKind::Mem => self.mem,
            FuKind::Fp => self.fp,
        }
    }

    /// Total units per cluster.
    pub fn total(&self) -> usize {
        self.int + self.mem + self.fp
    }
}

impl Default for FuMix {
    fn default() -> Self {
        FuMix::micro2003()
    }
}

/// Inter-cluster register-to-register communication buses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BusConfig {
    /// Number of buses shared by all clusters.
    pub count: usize,
    /// Latency, in cycles, of one register transfer.
    pub latency: u32,
}

impl BusConfig {
    /// The paper's configuration: 4 buses with 2-cycle latency.
    pub fn micro2003() -> Self {
        BusConfig {
            count: 4,
            latency: 2,
        }
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::micro2003()
    }
}

/// Capacity of one L0 buffer, in subblock entries.
///
/// `Unbounded` models the limit study of Figure 5 ("unbounded entries").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum L0Capacity {
    /// A buffer with exactly this many subblock entries (LRU replacement).
    Bounded(usize),
    /// An infinite buffer: nothing is ever evicted.
    Unbounded,
}

impl L0Capacity {
    /// Entry count, or `None` when unbounded.
    pub fn entries(self) -> Option<usize> {
        match self {
            L0Capacity::Bounded(n) => Some(n),
            L0Capacity::Unbounded => None,
        }
    }

    /// `true` if `used` entries fill a buffer of this capacity.
    pub fn is_full(self, used: usize) -> bool {
        match self {
            L0Capacity::Bounded(n) => used >= n,
            L0Capacity::Unbounded => false,
        }
    }
}

impl fmt::Display for L0Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            L0Capacity::Bounded(n) => write!(f, "{n} entries"),
            L0Capacity::Unbounded => f.write_str("unbounded entries"),
        }
    }
}

/// Configuration of the per-cluster flexible L0 buffers (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct L0Config {
    /// Entries per buffer. The paper sweeps 2/4/8/16/unbounded; 8 is the
    /// headline configuration.
    pub entries: L0Capacity,
    /// Hit latency in cycles (1 in the paper).
    pub latency: u32,
    /// Read/write ports per buffer (2 in the paper). The port count bounds
    /// how many same-cycle accesses one buffer can absorb; the scheduler
    /// respects it through the modulo reservation table.
    pub ports: usize,
    /// Extra cycles paid by interleaved mappings for the shift/shuffle
    /// logic between L1 and the buffers (1 in the paper).
    pub interleave_penalty: u32,
    /// How many subblocks ahead the automatic prefetch hints run.
    ///
    /// The paper's hints prefetch the next/previous subblock (distance 1);
    /// §5.2 reports that distance 2 recovers 12% on epicdec and 4% on
    /// rasta, which the `ablation_prefetch` bench reproduces.
    pub prefetch_distance: usize,
}

impl L0Config {
    /// The paper's L0 configuration with the given number of entries:
    /// 1-cycle latency, 2 ports, 1-cycle interleave penalty, prefetch
    /// distance 1.
    pub fn micro2003(entries: L0Capacity) -> Self {
        L0Config {
            entries,
            latency: 1,
            ports: 2,
            interleave_penalty: 1,
            prefetch_distance: 1,
        }
    }
}

impl Default for L0Config {
    fn default() -> Self {
        L0Config::micro2003(L0Capacity::Bounded(8))
    }
}

/// Configuration of the unified L1 data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct L1Config {
    /// Total capacity in bytes (8 KB in the paper).
    pub size_bytes: usize,
    /// Block (line) size in bytes (32 in the paper).
    pub block_bytes: usize,
    /// Set associativity (2-way in the paper).
    pub associativity: usize,
    /// Hit latency in cycles: 2 for communicating the request + 2 access +
    /// 2 for the reply = 6 in the paper.
    pub latency: u32,
}

impl L1Config {
    /// The paper's L1: 8 KB, 2-way, 32-byte blocks, 6-cycle latency.
    pub fn micro2003() -> Self {
        L1Config {
            size_bytes: 8 * 1024,
            block_bytes: 32,
            associativity: 2,
            latency: 6,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.block_bytes * self.associativity)
    }
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config::micro2003()
    }
}

/// Latency parameters of the MultiVLIW baseline (§5.3, ref. \[23\]): the L1
/// is distributed among clusters and kept coherent with a snoop-based MSI
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MultiVliwConfig {
    /// Bytes of L1 bank per cluster (total capacity matches the unified
    /// L1: 8 KB / 4 clusters = 2 KB each).
    pub bank_bytes: usize,
    /// Block size of a bank (same 32-byte blocks).
    pub block_bytes: usize,
    /// Associativity of each bank.
    pub associativity: usize,
    /// Latency of a hit in the local bank.
    pub local_latency: u32,
    /// Latency of a cache-to-cache transfer from a remote bank that holds
    /// the line (snoop hit).
    pub remote_latency: u32,
    /// Latency of a miss served by L2.
    pub l2_latency: u32,
}

impl MultiVliwConfig {
    /// Default MultiVLIW parameters; see DESIGN.md §5 for the rationale.
    pub fn micro2003() -> Self {
        MultiVliwConfig {
            bank_bytes: 2 * 1024,
            block_bytes: 32,
            associativity: 2,
            local_latency: 2,
            remote_latency: 6,
            l2_latency: 10,
        }
    }
}

impl Default for MultiVliwConfig {
    fn default() -> Self {
        MultiVliwConfig::micro2003()
    }
}

/// Latency parameters of the word-interleaved distributed cache baseline
/// (§5.3, ref. \[10\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WordInterleavedConfig {
    /// Interleaving granularity in bytes (one 4-byte word).
    pub word_bytes: usize,
    /// Bytes of cache bank per cluster.
    pub bank_bytes: usize,
    /// Block size of a bank.
    pub block_bytes: usize,
    /// Associativity of each bank.
    pub associativity: usize,
    /// Latency of an access to the local bank (the word maps here).
    pub local_latency: u32,
    /// Latency of an access to a remote bank (word statically mapped in
    /// another cluster): local request + bus + remote bank + bus back.
    pub remote_latency: u32,
    /// Latency of a miss served by L2.
    pub l2_latency: u32,
    /// Entries in each attraction buffer (small per-cluster buffer caching
    /// remotely-mapped words; 8 in the paper's comparison).
    pub attraction_entries: usize,
    /// Attraction buffer hit latency.
    pub attraction_latency: u32,
}

impl WordInterleavedConfig {
    /// Default word-interleaved parameters; see DESIGN.md §5.
    pub fn micro2003() -> Self {
        WordInterleavedConfig {
            word_bytes: 4,
            bank_bytes: 2 * 1024,
            block_bytes: 32,
            associativity: 2,
            local_latency: 2,
            remote_latency: 6,
            l2_latency: 10,
            attraction_entries: 8,
            attraction_latency: 1,
        }
    }

    /// The cluster that statically owns `addr` under word interleaving.
    pub fn owner_of(&self, addr: u64, n_clusters: usize) -> ClusterId {
        ClusterId::new(((addr as usize) / self.word_bytes) % n_clusters)
    }
}

impl Default for WordInterleavedConfig {
    fn default() -> Self {
        WordInterleavedConfig::micro2003()
    }
}

/// Full machine configuration.
///
/// Use [`MachineConfig::micro2003`] for the paper's Table 2 machine and the
/// `with_*`/`without_*` helpers to derive the experiment variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of clusters (4 in the paper); they run in lock-step.
    pub clusters: usize,
    /// Functional units per cluster.
    pub fus: FuMix,
    /// Architected registers per cluster's local register file. The paper
    /// does not pin this down; 64 keeps register pressure from dominating
    /// while still letting MaxLive force II increases on the largest
    /// unrolled loops.
    pub regs_per_cluster: usize,
    /// Inter-cluster register-to-register buses.
    pub buses: BusConfig,
    /// Per-cluster flexible L0 buffers; `None` reproduces the baseline
    /// clustered processor with only the unified L1.
    pub l0: Option<L0Config>,
    /// Unified L1 data cache.
    pub l1: L1Config,
    /// L2 latency in cycles; the paper's L2 always hits.
    pub l2_latency: u32,
    /// Cluster ↔ memory-bank interconnect. [`InterconnectConfig::flat`]
    /// reproduces the paper's contention-free machine bit-exactly.
    pub interconnect: InterconnectConfig,
}

impl MachineConfig {
    /// The exact configuration of Table 2, with 8-entry L0 buffers.
    pub fn micro2003() -> Self {
        MachineConfig {
            clusters: 4,
            fus: FuMix::micro2003(),
            regs_per_cluster: 64,
            buses: BusConfig::micro2003(),
            l0: Some(L0Config::default()),
            l1: L1Config::micro2003(),
            l2_latency: 10,
            interconnect: InterconnectConfig::flat(),
        }
    }

    /// Same machine with a different cluster ↔ bank interconnect.
    pub fn with_interconnect(&self, interconnect: InterconnectConfig) -> Self {
        MachineConfig {
            interconnect,
            ..self.clone()
        }
    }

    /// Same machine without L0 buffers (the normalization baseline of
    /// Figures 5 and 7).
    pub fn without_l0(&self) -> Self {
        MachineConfig {
            l0: None,
            ..self.clone()
        }
    }

    /// Same machine with L0 buffers of the given capacity.
    pub fn with_l0_entries(&self, entries: L0Capacity) -> Self {
        let l0 = match self.l0 {
            Some(cfg) => L0Config { entries, ..cfg },
            None => L0Config::micro2003(entries),
        };
        MachineConfig {
            l0: Some(l0),
            ..self.clone()
        }
    }

    /// Same machine with the given automatic-prefetch distance.
    pub fn with_prefetch_distance(&self, distance: usize) -> Self {
        let mut cfg = self.clone();
        if let Some(l0) = &mut cfg.l0 {
            l0.prefetch_distance = distance;
        }
        cfg
    }

    /// Size of an L0 subblock: the L1 block size divided by the number of
    /// clusters (32 B / 4 = 8 B in the paper).
    pub fn subblock_bytes(&self) -> usize {
        self.l1.block_bytes / self.clusters
    }

    /// Number of subblocks per L1 block (= number of clusters).
    pub fn subblocks_per_block(&self) -> usize {
        self.clusters
    }

    /// Latency assumed by the compiler for an instruction scheduled *with
    /// the L0 latency*.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no L0 buffers.
    pub fn l0_latency(&self) -> u32 {
        self.l0.expect("machine has no L0 buffers").latency
    }

    /// Latency assumed by the compiler for an instruction scheduled *with
    /// the L1 latency*.
    pub fn l1_latency(&self) -> u32 {
        self.l1.latency
    }

    /// Validates internal consistency (cluster count divides the L1 block,
    /// nonzero resources, ...).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 {
            return Err("machine must have at least one cluster".into());
        }
        let l1 = &self.l1;
        if l1.size_bytes == 0 || l1.block_bytes == 0 || l1.associativity == 0 {
            return Err(format!(
                "L1 geometry must be nonzero (size {} B, block {} B, {}-way)",
                l1.size_bytes, l1.block_bytes, l1.associativity
            ));
        }
        if !l1.block_bytes.is_multiple_of(self.clusters) {
            return Err(format!(
                "L1 block size {} is not divisible by {} clusters",
                l1.block_bytes, self.clusters
            ));
        }
        match l1.block_bytes.checked_mul(l1.associativity) {
            Some(set_bytes) if l1.size_bytes.is_multiple_of(set_bytes) => {}
            _ => return Err("L1 size must be a whole number of sets".into()),
        }
        if self.fus.total() == 0 {
            return Err("clusters must have at least one functional unit".into());
        }
        if let Some(l0) = &self.l0 {
            if l0.ports == 0 {
                return Err("L0 buffers must have at least one port".into());
            }
            if let L0Capacity::Bounded(0) = l0.entries {
                return Err("bounded L0 buffers must have at least one entry".into());
            }
        }
        if self.regs_per_cluster == 0 {
            return Err("clusters must have registers".into());
        }
        self.interconnect.validate()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::micro2003()
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Number of Clusters      {} clusters working in lock-step mode",
            self.clusters
        )?;
        writeln!(
            f,
            "Functional Units        ({} integer + {} memory + {} FP) per cluster",
            self.fus.int, self.fus.mem, self.fus.fp
        )?;
        match &self.l0 {
            Some(l0) => writeln!(
                f,
                "L0 Buffers              {} cycle latency + fully associative + {}-byte subblocks + {} read/write ports + {}",
                l0.latency,
                self.subblock_bytes(),
                l0.ports,
                l0.entries
            )?,
            None => writeln!(f, "L0 Buffers              none")?,
        }
        writeln!(
            f,
            "L1 Cache                {} cycles latency, {}-way set-associative {}KB size, {}-byte blocks, {} extra cycle for shift/interleave",
            self.l1.latency,
            self.l1.associativity,
            self.l1.size_bytes / 1024,
            self.l1.block_bytes,
            self.l0.map(|l| l.interleave_penalty).unwrap_or(0)
        )?;
        writeln!(
            f,
            "L2 Cache                {} cycle latency, always hits",
            self.l2_latency
        )?;
        writeln!(
            f,
            "Comm. Buses             {} buses with {}-cycle latency",
            self.buses.count, self.buses.latency
        )?;
        write!(f, "Interconnect            {}", self.interconnect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameters() {
        let cfg = MachineConfig::micro2003();
        assert_eq!(cfg.clusters, 4);
        assert_eq!(
            cfg.fus,
            FuMix {
                int: 1,
                mem: 1,
                fp: 1
            }
        );
        assert_eq!(
            cfg.buses,
            BusConfig {
                count: 4,
                latency: 2
            }
        );
        let l0 = cfg.l0.unwrap();
        assert_eq!(l0.latency, 1);
        assert_eq!(l0.ports, 2);
        assert_eq!(l0.entries, L0Capacity::Bounded(8));
        assert_eq!(cfg.l1.latency, 6);
        assert_eq!(cfg.l1.size_bytes, 8192);
        assert_eq!(cfg.l1.block_bytes, 32);
        assert_eq!(cfg.l1.associativity, 2);
        assert_eq!(cfg.l2_latency, 10);
        assert_eq!(cfg.subblock_bytes(), 8);
        cfg.validate().unwrap();
    }

    #[test]
    fn l1_set_count() {
        let l1 = L1Config::micro2003();
        assert_eq!(l1.sets(), 8192 / (32 * 2));
    }

    #[test]
    fn without_l0_strips_buffers() {
        let cfg = MachineConfig::micro2003().without_l0();
        assert!(cfg.l0.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn with_l0_entries_reinstates_buffers() {
        let cfg = MachineConfig::micro2003().without_l0();
        let cfg = cfg.with_l0_entries(L0Capacity::Bounded(4));
        assert_eq!(cfg.l0.unwrap().entries, L0Capacity::Bounded(4));
    }

    #[test]
    fn capacity_fullness() {
        assert!(L0Capacity::Bounded(2).is_full(2));
        assert!(!L0Capacity::Bounded(2).is_full(1));
        assert!(!L0Capacity::Unbounded.is_full(usize::MAX));
    }

    #[test]
    fn validation_rejects_indivisible_blocks() {
        let mut cfg = MachineConfig::micro2003();
        cfg.clusters = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_or_overflowing_l1_geometry() {
        // Each of these used to pass `validate` (`0 % 0`-free checks, or
        // a wrapping `block × assoc`) and then panic in the cache
        // constructor at simulate time.
        let with_l1 = |size_bytes, block_bytes, associativity| {
            let mut cfg = MachineConfig::micro2003();
            cfg.l1 = L1Config {
                size_bytes,
                block_bytes,
                associativity,
                ..cfg.l1
            };
            cfg.validate()
        };
        assert!(with_l1(0, 0, 2).is_err(), "zero block, zero size");
        assert!(with_l1(0, 32, 0).is_err(), "zero ways, zero size");
        assert!(with_l1(0, 32, 2).is_err(), "zero size");
        assert!(with_l1(8192, 0, 2).is_err(), "zero block");
        assert!(with_l1(8192, 32, 0).is_err(), "zero ways");
        let wraps = (usize::MAX / 32) + 2;
        assert!(with_l1(8192, 32, wraps).is_err(), "block × ways overflows");
        assert!(with_l1(8192, 32, 2).is_ok());
        assert!(with_l1(32, 32, 1).is_ok(), "one single-line set");
    }

    #[test]
    fn validation_rejects_zero_entry_buffers() {
        let cfg = MachineConfig::micro2003().with_l0_entries(L0Capacity::Bounded(0));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn word_interleaved_owner_rotates_by_word() {
        let wi = WordInterleavedConfig::micro2003();
        assert_eq!(wi.owner_of(0, 4).index(), 0);
        assert_eq!(wi.owner_of(4, 4).index(), 1);
        assert_eq!(wi.owner_of(8, 4).index(), 2);
        assert_eq!(wi.owner_of(12, 4).index(), 3);
        assert_eq!(wi.owner_of(16, 4).index(), 0);
        // intra-word bytes map to the same owner
        assert_eq!(wi.owner_of(3, 4).index(), 0);
    }

    #[test]
    fn display_contains_key_parameters() {
        let s = MachineConfig::micro2003().to_string();
        assert!(s.contains("4 clusters"));
        assert!(s.contains("8-byte subblocks"));
        assert!(s.contains("8KB"));
    }

    #[test]
    fn default_interconnect_is_flat_and_overridable() {
        let cfg = MachineConfig::micro2003();
        assert!(
            cfg.interconnect.is_flat(),
            "paper machine is contention-free"
        );
        let scaled = cfg.with_interconnect(InterconnectConfig::crossbar(4, 2));
        assert!(!scaled.interconnect.is_flat());
        scaled.validate().unwrap();
        assert_ne!(cfg, scaled, "interconnect participates in config identity");
    }

    #[test]
    fn validation_rejects_bad_interconnects() {
        let cfg = MachineConfig::micro2003().with_interconnect(InterconnectConfig::crossbar(4, 0));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn prefetch_distance_override() {
        let cfg = MachineConfig::micro2003().with_prefetch_distance(2);
        assert_eq!(cfg.l0.unwrap().prefetch_distance, 2);
    }
}
