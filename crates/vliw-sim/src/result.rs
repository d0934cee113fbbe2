//! Simulation results and aggregation helpers.

use serde::{Deserialize, Serialize};
use vliw_ir::OpId;
use vliw_mem::MemStats;

/// Stall cycles attributed to one static operation of the simulated loop
/// (diagnostics: which load is scheduled too close to its consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStall {
    /// The memory operation whose reply arrived late.
    pub op: OpId,
    /// Total pipeline stall cycles this operation caused.
    pub stall_cycles: u64,
    /// Of [`OpStall::stall_cycles`], the share traceable to network
    /// contention (bank-port queueing + link saturation). The remainder
    /// is a pure latency shortfall — the share an L0 slot can fix, which
    /// is what profile-guided marking weighs
    /// ([`OpStall::latency_cycles`]).
    pub network_cycles: u64,
}

impl OpStall {
    /// The non-contention share of the stall: the reply was simply
    /// scheduled too close to its consumer for the latency it hit.
    pub fn latency_cycles(&self) -> u64 {
        self.stall_cycles.saturating_sub(self.network_cycles)
    }
}

/// Why the steady-state fast-forward did or did not batch a run
/// (DESIGN.md §14). A pure function of the schedule, the machine, the
/// model and the knob, so it is as deterministic as the cycles.
///
/// The variants are ordered from "batched" to "never tried": a run that
/// did not batch reports the variant closest to [`FfwdReason::Fired`]
/// that any of its detectors reached, and [`SimResult::merge`] keeps the
/// greatest reason of its parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FfwdReason {
    /// At least one period was batched. Also the reason of an empty
    /// result, so it is the identity of [`SimResult::merge`].
    #[default]
    Fired,
    /// A period was confirmed, but less than one whole period of the
    /// visit (iteration level) or of the run (visit level) was left to
    /// batch.
    WindowExhausted,
    /// Boundary digests recurred, but the per-period counter deltas
    /// around them differed.
    DeltasMismatched,
    /// Boundary digests were compared, and none recurred at a legal
    /// period.
    DigestNeverMatched,
    /// Neither detector could compare two periods: fewer than 3 visits,
    /// and no more than two iteration strides per visit.
    TooFewVisits,
    /// Neither detector could run: fewer than 3 visits, and no
    /// iteration stride (an irregular address stream, or an alignment
    /// too long for the iteration window).
    NoStride,
    /// Fast-forward was off ([`simulate_replay`](crate::simulate_replay)).
    Off,
}

/// Steady-state fast-forward telemetry: how much of the run was replayed
/// request-by-request vs accounted in closed form, and why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FfwdStats {
    /// Dynamic loop iterations actually replayed.
    pub iters_replayed: u64,
    /// Dynamic loop iterations batched by the periodic-state
    /// fast-forward (never replayed; their cycles and counters were
    /// multiplied in).
    pub iters_batched: u64,
    /// Why the run was (or was not) batched.
    pub reason: FfwdReason,
}

/// The outcome of simulating one loop (or an aggregate of several).
///
/// Equality deliberately ignores [`SimResult::ffwd`]: that field records
/// *how* the result was computed (replayed vs batched), not what the
/// result is — a fast-forwarded run and a full replay of the same loop
/// are the same outcome, and the equivalence suites compare them with
/// `==`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimResult {
    /// Cycles the schedule itself takes (no stalls).
    pub compute_cycles: u64,
    /// Cycles lost to memory accesses arriving later than scheduled.
    pub stall_cycles: u64,
    /// Of [`SimResult::stall_cycles`], the cycles traceable to
    /// interconnect port queueing (0 on the paper's flat network).
    pub contention_stall_cycles: u64,
    /// Of [`SimResult::stall_cycles`], the cycles traceable to saturated
    /// mesh links (0 off the mesh; disjoint from
    /// [`SimResult::contention_stall_cycles`], so the two sum to at most
    /// `stall_cycles`).
    pub link_stall_cycles: u64,
    /// Per-op stall attribution, sorted by op id; ops that never stalled
    /// are omitted. Aggregated results merge entry-wise.
    pub op_stalls: Vec<OpStall>,
    /// Memory-system counters.
    pub mem_stats: MemStats,
    /// Fast-forward telemetry (excluded from equality).
    pub ffwd: FfwdStats,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field without deciding
        // whether it participates in equality becomes a compile error.
        let SimResult {
            compute_cycles,
            stall_cycles,
            contention_stall_cycles,
            link_stall_cycles,
            op_stalls,
            mem_stats,
            ffwd: _,
        } = other;
        self.compute_cycles == *compute_cycles
            && self.stall_cycles == *stall_cycles
            && self.contention_stall_cycles == *contention_stall_cycles
            && self.link_stall_cycles == *link_stall_cycles
            && self.op_stalls == *op_stalls
            && self.mem_stats == *mem_stats
    }
}

impl SimResult {
    /// Total execution cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.stall_cycles
    }

    /// Fraction of execution spent stalled, in [0, 1].
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / total as f64
        }
    }

    /// Execution time normalized to a baseline (the paper's figures
    /// normalize to the clustered processor with a unified L1 and no L0
    /// buffers).
    pub fn normalized_to(&self, baseline: &SimResult) -> f64 {
        let b = baseline.total_cycles();
        if b == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / b as f64
        }
    }

    /// Accumulates another result (weighted benchmark aggregation).
    ///
    /// `op_stalls` merge by op id — meaningful when aggregating runs of
    /// the *same* loop; across different loops the ids are per-loop and
    /// the merged attribution is only a coarse histogram.
    pub fn merge(&mut self, other: &SimResult) {
        self.compute_cycles += other.compute_cycles;
        self.stall_cycles += other.stall_cycles;
        self.contention_stall_cycles += other.contention_stall_cycles;
        self.link_stall_cycles += other.link_stall_cycles;
        for s in &other.op_stalls {
            self.add_op_stall(s.op, s.stall_cycles, s.network_cycles);
        }
        self.mem_stats.merge(&other.mem_stats);
        self.ffwd.iters_replayed += other.ffwd.iters_replayed;
        self.ffwd.iters_batched += other.ffwd.iters_batched;
        self.ffwd.reason = self.ffwd.reason.max(other.ffwd.reason);
    }

    /// Adds `cycles` of stall attributed to `op` (of which `network`
    /// cycles are contention), keeping the list sorted.
    pub fn add_op_stall(&mut self, op: OpId, cycles: u64, network: u64) {
        if cycles == 0 {
            return;
        }
        match self.op_stalls.binary_search_by_key(&op, |s| s.op) {
            Ok(i) => {
                self.op_stalls[i].stall_cycles += cycles;
                self.op_stalls[i].network_cycles += network;
            }
            Err(i) => self.op_stalls.insert(
                i,
                OpStall {
                    op,
                    stall_cycles: cycles,
                    network_cycles: network,
                },
            ),
        }
    }

    /// The heaviest stall contributors, most expensive first (at most
    /// `n` entries).
    pub fn top_stall_ops(&self, n: usize) -> Vec<OpStall> {
        let mut sorted = self.op_stalls.clone();
        sorted.sort_by_key(|s| std::cmp::Reverse(s.stall_cycles));
        sorted.truncate(n);
        sorted
    }

    /// Adds pure compute cycles (the non-loop scalar code fraction, which
    /// is identical across the compared architectures).
    pub fn add_scalar_cycles(&mut self, cycles: u64) {
        self.compute_cycles += cycles;
    }

    /// Secondary misses the bank MSHRs merged into in-flight refills
    /// (0 when MSHRs are disabled).
    pub fn mshr_merged(&self) -> u64 {
        self.mem_stats.merges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let r = SimResult {
            compute_cycles: 80,
            stall_cycles: 20,
            ..Default::default()
        };
        assert_eq!(r.total_cycles(), 100);
        assert!((r.stall_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let a = SimResult {
            compute_cycles: 84,
            stall_cycles: 0,
            ..Default::default()
        };
        let b = SimResult {
            compute_cycles: 100,
            stall_cycles: 0,
            ..Default::default()
        };
        assert!((a.normalized_to(&b) - 0.84).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimResult {
            compute_cycles: 10,
            stall_cycles: 1,
            contention_stall_cycles: 1,
            ..Default::default()
        };
        a.merge(&SimResult {
            compute_cycles: 5,
            stall_cycles: 2,
            contention_stall_cycles: 2,
            ..Default::default()
        });
        assert_eq!(a.compute_cycles, 15);
        assert_eq!(a.stall_cycles, 3);
        assert_eq!(a.contention_stall_cycles, 3);
    }

    #[test]
    fn op_stall_attribution_merges_by_op() {
        let mut a = SimResult::default();
        a.add_op_stall(OpId(3), 5, 1);
        a.add_op_stall(OpId(1), 2, 0);
        a.add_op_stall(OpId(3), 1, 1);
        a.add_op_stall(OpId(2), 0, 0); // zero-cycle stalls are not recorded
        assert_eq!(
            a.op_stalls,
            vec![
                OpStall {
                    op: OpId(1),
                    stall_cycles: 2,
                    network_cycles: 0
                },
                OpStall {
                    op: OpId(3),
                    stall_cycles: 6,
                    network_cycles: 2
                },
            ],
            "sorted by op id"
        );
        assert_eq!(a.op_stalls[1].latency_cycles(), 4);

        let mut b = SimResult::default();
        b.add_op_stall(OpId(1), 10, 3);
        b.merge(&a);
        assert_eq!(b.op_stalls[0].stall_cycles, 12);
        assert_eq!(b.op_stalls[0].network_cycles, 3);
        assert_eq!(
            b.top_stall_ops(1),
            vec![OpStall {
                op: OpId(1),
                stall_cycles: 12,
                network_cycles: 3
            }]
        );
    }

    #[test]
    fn equality_ignores_ffwd_telemetry() {
        let a = SimResult {
            compute_cycles: 10,
            ..Default::default()
        };
        let mut b = a.clone();
        b.ffwd.iters_batched = 99;
        b.ffwd.iters_replayed = 1;
        b.ffwd.reason = FfwdReason::DigestNeverMatched;
        assert_eq!(a, b, "telemetry must not break result equality");
        b.compute_cycles = 11;
        assert_ne!(a, b);
    }

    #[test]
    fn merge_keeps_the_reason_furthest_from_firing() {
        let with = |reason| SimResult {
            ffwd: FfwdStats {
                reason,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut a = SimResult::default();
        a.merge(&with(FfwdReason::Fired));
        assert_eq!(a.ffwd.reason, FfwdReason::Fired);
        a.merge(&with(FfwdReason::DigestNeverMatched));
        a.merge(&with(FfwdReason::WindowExhausted));
        assert_eq!(a.ffwd.reason, FfwdReason::DigestNeverMatched);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let a = SimResult::default();
        assert_eq!(a.normalized_to(&a), 0.0);
        assert_eq!(a.stall_fraction(), 0.0);
    }
}
