//! Replaying a pattern against a memory model and summarizing the run.

use serde::Serialize;
use vliw_machine::{MachineConfig, NetLoad};
use vliw_mem::{MemReply, MemRequest, MemStats, MemoryModel, ReqKind};

use super::patterns::{chain_salt, chain_step, PatternKind, PatternSpec};
use vliw_machine::{ClusterId, MemHints};

/// The full trace of one pattern replay: every request, every reply,
/// and the model's final statistics. `PartialEq` compares down to the
/// last reply field, so two runs of the same spec are checkably
/// identical.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRun {
    /// The generated stream, in issue order.
    pub requests: Vec<MemRequest>,
    /// One reply per request, same order.
    pub replies: Vec<MemReply>,
    /// The model's counters after the last access.
    pub stats: MemStats,
    /// The network's per-link / per-bank load (`None` off a routed
    /// network).
    pub net: Option<NetLoad>,
}

impl TrafficRun {
    /// Total cycles requests waited beyond their issue cycle.
    pub fn wait_cycles(&self) -> u64 {
        self.requests
            .iter()
            .zip(&self.replies)
            .map(|(rq, rp)| rp.ready_at.saturating_sub(rq.cycle))
            .sum()
    }

    /// Total cycles spent queued behind bank ports.
    pub fn queue_cycles(&self) -> u64 {
        self.replies.iter().map(|r| r.queue_cycles).sum()
    }

    /// Total cycles spent stalled at saturated mesh links.
    pub fn link_stall_cycles(&self) -> u64 {
        self.replies.iter().map(|r| r.link_stalls).sum()
    }

    /// FNV-1a digest over every reply — a compact determinism witness
    /// for the fuzz report (two corpus runs must produce identical
    /// digests).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for r in &self.replies {
            mix(r.ready_at);
            mix(r.queue_cycles);
            mix(r.link_stalls);
            mix(u64::from(r.mshr_merged) << 8 | r.serviced_by as u64);
        }
        h
    }

    /// Rolls the run up into one serializable breakdown row.
    pub fn summary(&self, pattern: &str, topology: &str, model: &str) -> TrafficSummary {
        let loads = self
            .requests
            .iter()
            .filter(|r| r.kind == ReqKind::Load)
            .count() as u64;
        let stores = self
            .requests
            .iter()
            .filter(|r| r.kind == ReqKind::Store)
            .count() as u64;
        TrafficSummary {
            pattern: pattern.to_string(),
            topology: topology.to_string(),
            model: model.to_string(),
            requests: self.requests.len() as u64,
            loads,
            stores,
            wait_cycles: self.wait_cycles(),
            queue_cycles: self.queue_cycles(),
            link_stall_cycles: self.link_stall_cycles(),
            mshr_merges: self.stats.merges(),
            l0_hit_rate: self.stats.l0_hit_rate(),
            digest: self.digest(),
        }
    }
}

/// One row of the fuzz report's per-pattern stall/contention breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficSummary {
    /// Pattern preset name.
    pub pattern: String,
    /// Interconnect topology label.
    pub topology: String,
    /// Memory-model label.
    pub model: String,
    /// Requests replayed.
    pub requests: u64,
    /// Loads among them.
    pub loads: u64,
    /// Stores among them.
    pub stores: u64,
    /// Cycles waited beyond issue, summed over requests.
    pub wait_cycles: u64,
    /// Bank-port queueing share of the wait.
    pub queue_cycles: u64,
    /// Mesh link-stall share of the wait.
    pub link_stall_cycles: u64,
    /// MSHR secondary-miss merges.
    pub mshr_merges: u64,
    /// The model's L0/attraction hit rate over the run.
    pub l0_hit_rate: f64,
    /// FNV-1a digest of every reply (determinism witness).
    pub digest: u64,
}

/// Replays `spec`'s stream against `model` and captures the trace.
///
/// Retirement is driven from the stream's own clock (the running
/// maximum issue cycle). Retirement is timing-invisible, so this cadence
/// yields the same replies as the simulator's sparser one.
pub fn run_traffic(
    spec: &PatternSpec,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
) -> TrafficRun {
    if let PatternKind::DependentChain { span_bytes } = spec.kind {
        return run_chain(spec, cfg, model, span_bytes);
    }
    let requests = spec.requests(cfg);
    let mut replies = Vec::with_capacity(requests.len());
    let mut frontier = 0u64;
    for req in &requests {
        if req.cycle > frontier {
            frontier = req.cycle;
            model.retire(frontier);
        }
        replies.push(model.access(req));
    }
    TrafficRun {
        stats: model.stats().clone(),
        net: model.network_load(),
        requests,
        replies,
    }
}

/// The closed-loop drive for [`PatternKind::DependentChain`]: replies
/// feed the requests. Each cluster serially chases a private hash
/// chain — the next address is [`chain_step`] of the current one (the
/// "pointer value" stored there), and the next hop issues the cycle
/// after the previous reply arrived. Hops are interleaved globally in
/// issue-cycle order (ties by cluster index), so the stream stays
/// nondecreasing — the same retire cadence contract the open-loop
/// patterns obey — and the whole trace remains a deterministic function
/// of (spec, machine, model), even though the stream is fed by the
/// model's own timing. Chain hops are always loads (`store_pct`
/// does not apply — a store carries no pointer to follow).
fn run_chain(
    spec: &PatternSpec,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
    span_bytes: u64,
) -> TrafficRun {
    let n = cfg.clusters.max(1);
    let eb = u64::from(spec.elem_bytes.max(1));
    let slots = (span_bytes.max(eb) / eb).max(1);
    // Per-cluster chase state, seeded exactly like the heads that
    // `PatternSpec::requests` reports.
    let mut addr: Vec<u64> = (0..n)
        .map(|c| chain_step(spec.seed, chain_salt(c)) % slots * eb)
        .collect();
    let mut next_issue = vec![0u64; n];

    let mut requests = Vec::with_capacity(spec.reqs);
    let mut replies = Vec::with_capacity(spec.reqs);
    let mut frontier = 0u64;
    for _ in 0..spec.reqs {
        // The earliest-ready cluster issues its next hop; every
        // cluster's next issue is ≥ the cycle of its last reply, so the
        // global minimum never runs backwards.
        let c = (0..n).min_by_key(|&c| (next_issue[c], c)).unwrap_or(0);
        let cycle = next_issue[c];
        if cycle > frontier {
            frontier = cycle;
            model.retire(frontier);
        }
        let req = MemRequest::load(
            ClusterId::new(c),
            addr[c],
            spec.elem_bytes.max(1),
            MemHints::no_access(),
            cycle,
        );
        let rep = model.access(&req);
        // The reply carries the pointer: follow it, one cycle after it
        // lands.
        addr[c] = chain_step(addr[c], chain_salt(c)) % slots * eb;
        next_issue[c] = rep.ready_at + 1;
        requests.push(req);
        replies.push(rep);
    }
    TrafficRun {
        stats: model.stats().clone(),
        net: model.network_load(),
        requests,
        replies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::presets;
    use vliw_mem::{UnifiedL1, UnifiedWithL0};

    #[test]
    fn every_preset_replays_on_a_model() {
        let cfg = MachineConfig::micro2003();
        for spec in presets() {
            let spec = spec.with_reqs(64);
            let mut model = UnifiedWithL0::new(&cfg);
            let run = run_traffic(&spec, &cfg, &mut model);
            assert_eq!(run.replies.len(), 64, "'{}'", spec.name);
            let issued = run
                .requests
                .iter()
                .filter(|r| matches!(r.kind, ReqKind::Load | ReqKind::Store))
                .count() as u64;
            assert_eq!(run.stats.accesses, issued, "'{}'", spec.name);
        }
    }

    #[test]
    fn dependent_chain_is_reply_fed() {
        let cfg = MachineConfig::micro2003();
        let spec = presets()
            .into_iter()
            .find(|s| matches!(s.kind, PatternKind::DependentChain { .. }))
            .expect("dependent-chain preset")
            .with_reqs(96);
        let mut model = UnifiedWithL0::new(&cfg);
        let run = run_traffic(&spec, &cfg, &mut model);
        assert_eq!(run.requests.len(), 96);
        // Serial chase per cluster: every hop after the first issues
        // exactly one cycle after that cluster's previous reply landed.
        let mut last_ready = std::collections::HashMap::new();
        for (req, rep) in run.requests.iter().zip(&run.replies) {
            assert_eq!(req.kind, ReqKind::Load, "chain hops are loads");
            if let Some(prev) = last_ready.get(&req.cluster.index()) {
                assert_eq!(req.cycle, prev + 1, "hop broke the reply-fed cadence");
            }
            last_ready.insert(req.cluster.index(), rep.ready_at);
        }
        // The interleaved stream still obeys the nondecreasing
        // issue-cycle contract.
        for w in run.requests.windows(2) {
            assert!(w[1].cycle >= w[0].cycle, "issue cycles ran backwards");
        }
        // And the chain heads match what `requests()` advertises.
        let heads = spec.requests(&cfg);
        for head in &heads {
            let first = run
                .requests
                .iter()
                .find(|r| r.cluster == head.cluster)
                .unwrap();
            assert_eq!(first.addr, head.addr, "drive diverged from the spec's head");
        }
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let cfg = MachineConfig::micro2003();
        let spec = presets().remove(0).with_reqs(32);
        let mut m1 = UnifiedL1::new(&cfg);
        let mut m2 = UnifiedL1::new(&cfg);
        let a = run_traffic(&spec, &cfg, &mut m1);
        let b = run_traffic(&spec, &cfg, &mut m2);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let mut m3 = UnifiedWithL0::new(&cfg);
        let c = run_traffic(&spec, &cfg, &mut m3);
        assert_ne!(
            a.digest(),
            c.digest(),
            "different models should time differently"
        );
    }
}
