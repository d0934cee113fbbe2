//! The structured result of one `(benchmark, variant)` execution.

use serde::{Deserialize, Serialize};
use vliw_machine::L0Capacity;
use vliw_mem::MemStats;
use vliw_sched::{Arch, AssignmentPolicy, BackendKind, IiProof, L0Options, Schedule, UnrollPolicy};

/// Per-cell tallies of the scheduler's II proof statuses, one count per
/// compiled loop (see [`IiProof`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProofCounts {
    /// Loops whose II is provably minimal under the backend's model.
    pub optimal: u64,
    /// Loops whose proof search ran out of node budget.
    pub truncated: u64,
    /// Loops scheduled heuristically with no optimality claim.
    pub heuristic: u64,
}

impl ProofCounts {
    /// Tallies one loop's schedule.
    pub fn record(&mut self, schedule: &Schedule) {
        match schedule.ii_proof {
            IiProof::Optimal => self.optimal += 1,
            IiProof::Truncated => self.truncated += 1,
            IiProof::Heuristic => self.heuristic += 1,
        }
    }

    /// Total loops tallied.
    pub fn total(&self) -> u64 {
        self.optimal + self.truncated + self.heuristic
    }

    /// `true` when every tallied loop carries an optimality proof.
    pub fn all_optimal(&self) -> bool {
        self.total() > 0 && self.optimal == self.total()
    }
}

/// One cell of an experiment grid, fully accounted and normalized.
///
/// Cells are the `BENCH_*.json` trajectory format: serializable,
/// comparable across runs, and sufficient to re-render any of the paper's
/// figures without re-simulating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Benchmark (row) name.
    pub benchmark: String,
    /// Variant (column) label.
    pub variant: String,
    /// Architecture the cell ran on.
    pub arch: Arch,
    /// Cluster count of the machine the cell ran on.
    pub clusters: usize,
    /// L0 capacity of the machine (`None` for machines without L0).
    pub l0_entries: Option<L0Capacity>,
    /// Total cycles (loop portion + scalar portion).
    pub total_cycles: u64,
    /// Compute cycles (schedule length + scalar portion).
    pub compute_cycles: u64,
    /// Stall cycles (loop portion only; scalar code never stalls).
    pub stall_cycles: u64,
    /// Of `stall_cycles`, the cycles traceable to interconnect port
    /// queueing (always 0 on the paper's flat network — nonzero cells are
    /// the cluster-scaling study's contention signal).
    pub contention_stall_cycles: u64,
    /// Of `stall_cycles`, the cycles traceable to saturated mesh links —
    /// disjoint from `contention_stall_cycles` (0 off the mesh).
    pub link_stall_cycles: u64,
    /// Total cycles of the memoized baseline this cell normalizes to.
    pub baseline_total_cycles: u64,
    /// `total_cycles / baseline_total_cycles` — the paper's normalized
    /// execution time.
    pub normalized: f64,
    /// Compute share of the normalized bar.
    pub normalized_compute: f64,
    /// Stall share of the normalized bar.
    pub normalized_stall: f64,
    /// Dynamic-weighted average unroll factor across the benchmark's
    /// loops (Figure 6's right axis).
    pub avg_unroll: f64,
    /// Dynamic-weighted average initiation interval across the
    /// benchmark's loops.
    pub avg_ii: f64,
    /// Dynamic-weighted average MII across the benchmark's loops — the
    /// floor `avg_ii` is measured against.
    pub avg_mii: f64,
    /// Scheduler backend that compiled the cell.
    pub backend: BackendKind,
    /// Resolved L0 compile options.
    pub opts: L0Options,
    /// Unroll-selection policy the cell compiled under.
    pub unroll_policy: UnrollPolicy,
    /// Cluster-assignment policy the cell compiled under.
    pub assignment: AssignmentPolicy,
    /// Per-loop II proof tallies.
    pub proof: ProofCounts,
    /// `invalidate_buffer` executions removed by selective inter-loop
    /// flushing (0 unless the variant enables it).
    pub flushes_removed: u64,
    /// Merged memory-system counters of the loop portion.
    pub mem: MemStats,
}

impl Cell {
    /// L0 hit rate of the loop portion, in [0, 1].
    pub fn l0_hit_rate(&self) -> f64 {
        self.mem.l0_hit_rate()
    }

    /// Fraction of L0-mapped subblocks with interleaved mapping.
    pub fn interleaved_ratio(&self) -> f64 {
        self.mem.interleaved_ratio()
    }

    /// Port-queueing contention stalls per *miss event* — the per-miss
    /// queueing cost the mesh/MSHR acceptance pins compare across
    /// topologies. The denominator sums the L0- and L1-level miss
    /// counters, so one access that misses both levels contributes two
    /// events. Note the denominator is not fully network-independent
    /// (the hint layer's mapping demotions branch on topology, which can
    /// shift the miss mix), so the acceptance pins always pair this
    /// ratio with the raw `contention_stall_cycles` ordering rather
    /// than relying on it alone. (Link stalls are a separate axis: the
    /// mesh trades a little link occupancy for far less port queueing,
    /// and [`Cell::link_stall_cycles`] reports them on their own.) 0 when
    /// nothing missed.
    pub fn contention_per_miss(&self) -> f64 {
        let misses = self.mem.l0_misses + self.mem.l1_misses;
        if misses == 0 {
            0.0
        } else {
            self.contention_stall_cycles as f64 / misses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cell {
        Cell {
            benchmark: "g721dec".to_string(),
            variant: "8 entries".to_string(),
            arch: Arch::L0,
            clusters: 4,
            l0_entries: Some(L0Capacity::Bounded(8)),
            total_cycles: 840,
            compute_cycles: 800,
            stall_cycles: 40,
            contention_stall_cycles: 4,
            link_stall_cycles: 2,
            baseline_total_cycles: 1000,
            normalized: 0.84,
            normalized_compute: 0.8,
            normalized_stall: 0.04,
            avg_unroll: 2.5,
            avg_ii: 3.25,
            avg_mii: 3.0,
            backend: BackendKind::Sms,
            opts: L0Options::default(),
            unroll_policy: UnrollPolicy::Auto,
            assignment: AssignmentPolicy::ContentionBlind,
            proof: ProofCounts {
                optimal: 2,
                truncated: 0,
                heuristic: 1,
            },
            flushes_removed: 0,
            mem: MemStats {
                accesses: 10,
                l0_hits: 9,
                l0_misses: 1,
                ..Default::default()
            },
        }
    }

    #[test]
    fn json_round_trips_through_serde() {
        let cell = sample();
        let json = serde_json::to_string_pretty(&cell).unwrap();
        let back: Cell = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cell);
    }

    #[test]
    fn json_is_self_describing() {
        let json = serde_json::to_string(&sample()).unwrap();
        for key in [
            "\"benchmark\"",
            "\"normalized\"",
            "\"l0_entries\"",
            "\"contention_stall_cycles\"",
            "\"mem\"",
            "\"backend\"",
            "\"opts\"",
            "\"avg_mii\"",
            "\"proof\"",
            "\"unroll_policy\"",
            "\"assignment\"",
            "\"link_stall_cycles\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn proof_counts_tally_consistently() {
        let p = ProofCounts {
            optimal: 3,
            truncated: 1,
            heuristic: 0,
        };
        assert_eq!(p.total(), 4);
        assert!(!p.all_optimal());
        let q = ProofCounts {
            optimal: 2,
            ..Default::default()
        };
        assert!(q.all_optimal());
        assert!(
            !ProofCounts::default().all_optimal(),
            "vacuous is not proof"
        );
    }

    #[test]
    fn derived_rates_come_from_mem_stats() {
        let cell = sample();
        assert!((cell.l0_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(cell.interleaved_ratio(), 0.0);
    }
}
