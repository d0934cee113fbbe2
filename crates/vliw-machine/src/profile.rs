//! The serializable `Profile` artifact of a profiling run — the feedback
//! half of the profile-guided recompilation loop (DESIGN.md §9).
//!
//! A profiling pass compiles a workload *blind* (no profile), simulates
//! it, and harvests three observations the static cost model can only
//! guess at:
//!
//! * **per-directed-link occupancy** ([`LinkLoad`]) — how often each mesh
//!   link forwarded a flit and how many cycles flits stalled at it;
//! * **per-bank port pressure** ([`BankLoad`]) — how many requests each
//!   bank granted and how long they queued for a port;
//! * **per-loop stall attribution** ([`LoopProfile`]) — the simulator's
//!   per-op stall cycles rolled up to each op's *provenance origin*, so
//!   the numbers stay meaningful when the recompile picks a different
//!   unroll factor.
//!
//! The artifact is deliberately architecture-level (cluster count +
//! topology + integer counters, no floating point), so the same seed
//! produces the identical profile byte-for-byte and the recompile is
//! deterministic. The scheduler consumes it through the placement-cost
//! functions of `vliw-sched`'s `cost` module.

use crate::interconnect::Topology;
use serde::{Deserialize, Serialize};

/// Cumulative load observed on one *directed* network link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkLoad {
    /// Source mesh node.
    pub from: u32,
    /// Destination mesh node (`from == to` is the ejection self-link).
    pub to: u32,
    /// Flits forwarded over the link.
    pub traversals: u64,
    /// Cycles flits spent stalled waiting for the link.
    pub stall_cycles: u64,
}

/// Cumulative pressure observed at one bank's ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankLoad {
    /// Bank index.
    pub bank: u32,
    /// Port grants issued by the bank.
    pub requests: u64,
    /// Cycles requests spent queued before their grant.
    pub queue_cycles: u64,
}

/// The network-level observation of one run: links + banks, keyed and
/// sorted so merging and comparing are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NetLoad {
    /// Per-directed-link loads, sorted by `(from, to)`.
    pub links: Vec<LinkLoad>,
    /// Per-bank loads, sorted by `bank`.
    pub banks: Vec<BankLoad>,
}

impl NetLoad {
    /// `true` when nothing was routed (the flat network, or a run with no
    /// memory traffic).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.banks.is_empty()
    }

    /// The recorded load of the directed link `from → to`, if any.
    pub fn link(&self, from: u32, to: u32) -> Option<&LinkLoad> {
        self.links
            .binary_search_by_key(&(from, to), |l| (l.from, l.to))
            .ok()
            .map(|i| &self.links[i])
    }

    /// The recorded load of `bank`, if any.
    pub fn bank(&self, bank: u32) -> Option<&BankLoad> {
        self.banks
            .binary_search_by_key(&bank, |b| b.bank)
            .ok()
            .map(|i| &self.banks[i])
    }

    /// The per-link/per-bank growth between an `earlier` snapshot of the
    /// same run and this one. Counters are monotonic, so entries only
    /// ever grow or appear; an entry absent from `earlier` contributes
    /// its full value. Entries whose counters did not move are omitted,
    /// matching the "only non-zero loads" convention of the snapshots
    /// themselves.
    pub fn delta_since(&self, earlier: &NetLoad) -> NetLoad {
        let mut out = NetLoad::default();
        for l in &self.links {
            let (t0, s0) = earlier
                .link(l.from, l.to)
                .map_or((0, 0), |e| (e.traversals, e.stall_cycles));
            if l.traversals != t0 || l.stall_cycles != s0 {
                out.links.push(LinkLoad {
                    from: l.from,
                    to: l.to,
                    traversals: l.traversals - t0,
                    stall_cycles: l.stall_cycles - s0,
                });
            }
        }
        for b in &self.banks {
            let (r0, q0) = earlier
                .bank(b.bank)
                .map_or((0, 0), |e| (e.requests, e.queue_cycles));
            if b.requests != r0 || b.queue_cycles != q0 {
                out.banks.push(BankLoad {
                    bank: b.bank,
                    requests: b.requests - r0,
                    queue_cycles: b.queue_cycles - q0,
                });
            }
        }
        out
    }

    /// Accumulates `k` copies of another observation in one pass — the
    /// closed-form counterpart of calling [`NetLoad::merge`] `k` times.
    pub fn merge_scaled(&mut self, other: &NetLoad, k: u64) {
        if k == 0 {
            return;
        }
        for l in &other.links {
            match self
                .links
                .binary_search_by_key(&(l.from, l.to), |x| (x.from, x.to))
            {
                Ok(i) => {
                    self.links[i].traversals += k * l.traversals;
                    self.links[i].stall_cycles += k * l.stall_cycles;
                }
                Err(i) => self.links.insert(
                    i,
                    LinkLoad {
                        from: l.from,
                        to: l.to,
                        traversals: k * l.traversals,
                        stall_cycles: k * l.stall_cycles,
                    },
                ),
            }
        }
        for b in &other.banks {
            match self.banks.binary_search_by_key(&b.bank, |x| x.bank) {
                Ok(i) => {
                    self.banks[i].requests += k * b.requests;
                    self.banks[i].queue_cycles += k * b.queue_cycles;
                }
                Err(i) => self.banks.insert(
                    i,
                    BankLoad {
                        bank: b.bank,
                        requests: k * b.requests,
                        queue_cycles: k * b.queue_cycles,
                    },
                ),
            }
        }
    }

    /// Accumulates another observation (summing counters per link/bank).
    pub fn merge(&mut self, other: &NetLoad) {
        for l in &other.links {
            match self
                .links
                .binary_search_by_key(&(l.from, l.to), |x| (x.from, x.to))
            {
                Ok(i) => {
                    self.links[i].traversals += l.traversals;
                    self.links[i].stall_cycles += l.stall_cycles;
                }
                Err(i) => self.links.insert(i, *l),
            }
        }
        for b in &other.banks {
            match self.banks.binary_search_by_key(&b.bank, |x| x.bank) {
                Ok(i) => {
                    self.banks[i].requests += b.requests;
                    self.banks[i].queue_cycles += b.queue_cycles;
                }
                Err(i) => self.banks.insert(i, *b),
            }
        }
    }
}

/// Observed stall cycles attributed to one (provenance-origin) op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpStallLoad {
    /// Index of the op in the *original* (pre-unroll) loop body.
    pub op: u32,
    /// Pipeline stall cycles the op's dynamic instances caused.
    pub stall_cycles: u64,
}

/// One loop body's stall attribution, rolled up per provenance origin.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopProfile {
    /// The loop's name (stable across compilation passes).
    pub name: String,
    /// Total stall cycles the loop's simulation accumulated.
    pub stall_cycles: u64,
    /// Per-origin-op attribution, sorted by op index; ops that never
    /// stalled are omitted.
    pub op_stalls: Vec<OpStallLoad>,
}

impl LoopProfile {
    /// A fresh, stall-free profile for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        LoopProfile {
            name: name.into(),
            stall_cycles: 0,
            op_stalls: Vec::new(),
        }
    }

    /// Adds `cycles` of stall attributed to origin op `op`.
    pub fn add(&mut self, op: u32, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stall_cycles += cycles;
        match self.op_stalls.binary_search_by_key(&op, |s| s.op) {
            Ok(i) => self.op_stalls[i].stall_cycles += cycles,
            Err(i) => self.op_stalls.insert(
                i,
                OpStallLoad {
                    op,
                    stall_cycles: cycles,
                },
            ),
        }
    }

    /// Stall cycles attributed to origin op `op` (0 if it never stalled).
    pub fn stalls_of(&self, op: u32) -> u64 {
        self.op_stalls
            .binary_search_by_key(&op, |s| s.op)
            .ok()
            .map(|i| self.op_stalls[i].stall_cycles)
            .unwrap_or(0)
    }
}

/// A complete profiling-run artifact: what one compile→simulate pass
/// observed about the machine, serializable alongside the `BENCH_*.json`
/// trajectory format and consumable by the scheduler's placement-cost
/// functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Profile {
    /// Cluster count of the profiled machine (sanity check: a profile is
    /// only meaningful for the machine shape that produced it).
    pub clusters: usize,
    /// Topology of the profiled machine's interconnect.
    pub topology: Topology,
    /// Network-level observation (empty on the flat network).
    pub net: NetLoad,
    /// Per-loop stall attributions, in harvest order.
    pub loops: Vec<LoopProfile>,
}

impl Profile {
    /// Fixed-point scale for congestion penalties: `SCALE` cost units
    /// correspond to one network hop, so fractional per-traversal stall
    /// rates stay integer (and therefore deterministic and hashable).
    pub const SCALE: u64 = 8;

    /// An empty profile for a machine shape.
    pub fn new(clusters: usize, topology: Topology) -> Self {
        Profile {
            clusters,
            topology,
            net: NetLoad::default(),
            loops: Vec::new(),
        }
    }

    /// The profile of loop `name`, if it was harvested.
    pub fn loop_profile(&self, name: &str) -> Option<&LoopProfile> {
        self.loops.iter().find(|l| l.name == name)
    }

    /// Observed stall cycles of origin op `op` in loop `name` (0 when the
    /// loop or the op never stalled — the cold default).
    pub fn stall_weight(&self, name: &str, op: u32) -> u64 {
        self.loop_profile(name).map_or(0, |l| l.stalls_of(op))
    }

    /// Congestion penalty of the directed link `from → to`, in
    /// [`Profile::SCALE`]-ths of a hop: the observed mean stall cycles per
    /// traversal, scaled. 0 for links that never stalled (or never saw
    /// traffic).
    pub fn link_penalty(&self, from: u32, to: u32) -> u64 {
        self.net
            .link(from, to)
            .map_or(0, |l| Self::SCALE * l.stall_cycles / l.traversals.max(1))
    }

    /// Queueing penalty of `bank`, in [`Profile::SCALE`]-ths of a hop:
    /// the observed mean port-queue cycles per granted request, scaled.
    pub fn bank_penalty(&self, bank: u32) -> u64 {
        self.net
            .bank(bank)
            .map_or(0, |b| Self::SCALE * b.queue_cycles / b.requests.max(1))
    }

    /// Merges another run's observations into this profile (the harvest
    /// loop folds one profile per simulated loop body into the workload's
    /// artifact).
    pub fn merge(&mut self, other: &Profile) {
        self.net.merge(&other.net);
        for l in &other.loops {
            match self.loops.iter_mut().find(|x| x.name == l.name) {
                Some(mine) => {
                    mine.stall_cycles += l.stall_cycles;
                    for s in &l.op_stalls {
                        // route through `add` minus the total double-count
                        match mine.op_stalls.binary_search_by_key(&s.op, |x| x.op) {
                            Ok(i) => mine.op_stalls[i].stall_cycles += s.stall_cycles,
                            Err(i) => mine.op_stalls.insert(i, *s),
                        }
                    }
                }
                None => self.loops.push(l.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_load_merges_by_key() {
        let mut a = NetLoad {
            links: vec![LinkLoad {
                from: 0,
                to: 1,
                traversals: 10,
                stall_cycles: 2,
            }],
            banks: vec![BankLoad {
                bank: 0,
                requests: 5,
                queue_cycles: 1,
            }],
        };
        let b = NetLoad {
            links: vec![
                LinkLoad {
                    from: 0,
                    to: 1,
                    traversals: 3,
                    stall_cycles: 1,
                },
                LinkLoad {
                    from: 1,
                    to: 2,
                    traversals: 7,
                    stall_cycles: 0,
                },
            ],
            banks: vec![BankLoad {
                bank: 2,
                requests: 4,
                queue_cycles: 9,
            }],
        };
        a.merge(&b);
        assert_eq!(a.link(0, 1).unwrap().traversals, 13);
        assert_eq!(a.link(0, 1).unwrap().stall_cycles, 3);
        assert_eq!(a.link(1, 2).unwrap().traversals, 7);
        assert_eq!(a.bank(0).unwrap().requests, 5);
        assert_eq!(a.bank(2).unwrap().queue_cycles, 9);
        assert!(a.link(5, 6).is_none());
        // merged lists stay sorted (binary-search invariant)
        assert!(a
            .links
            .windows(2)
            .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
    }

    #[test]
    fn delta_and_scaled_merge_are_closed_form_merge() {
        // later = earlier + d  =>  earlier + k*d == earlier merged with d, k times
        let earlier = NetLoad {
            links: vec![LinkLoad {
                from: 0,
                to: 1,
                traversals: 10,
                stall_cycles: 2,
            }],
            banks: vec![BankLoad {
                bank: 0,
                requests: 5,
                queue_cycles: 1,
            }],
        };
        let mut later = earlier.clone();
        later.merge(&NetLoad {
            links: vec![LinkLoad {
                from: 1,
                to: 2,
                traversals: 4,
                stall_cycles: 1,
            }],
            banks: vec![BankLoad {
                bank: 0,
                requests: 2,
                queue_cycles: 0,
            }],
        });
        let d = later.delta_since(&earlier);
        assert_eq!(d.link(1, 2).unwrap().traversals, 4);
        assert_eq!(d.bank(0).unwrap().requests, 2);
        assert!(d.link(0, 1).is_none(), "unmoved entries are omitted");

        let mut scaled = later.clone();
        scaled.merge_scaled(&d, 3);
        let mut repeated = later.clone();
        for _ in 0..3 {
            repeated.merge(&d);
        }
        assert_eq!(scaled, repeated);
    }

    #[test]
    fn loop_profile_rolls_up_per_origin_op() {
        let mut l = LoopProfile::new("fir");
        l.add(3, 10);
        l.add(1, 4);
        l.add(3, 2);
        l.add(7, 0); // zero stalls are not recorded
        assert_eq!(l.stall_cycles, 16);
        assert_eq!(l.stalls_of(3), 12);
        assert_eq!(l.stalls_of(1), 4);
        assert_eq!(l.stalls_of(7), 0);
        assert_eq!(l.op_stalls.len(), 2, "sorted, deduped");
    }

    #[test]
    fn penalties_are_scaled_means() {
        let mut p = Profile::new(16, Topology::Mesh);
        p.net.links.push(LinkLoad {
            from: 0,
            to: 1,
            traversals: 4,
            stall_cycles: 6,
        });
        p.net.banks.push(BankLoad {
            bank: 1,
            requests: 8,
            queue_cycles: 8,
        });
        // 6 stalls / 4 traversals = 1.5 cycles -> 12 scale units
        assert_eq!(p.link_penalty(0, 1), 12);
        // 8 queue / 8 requests = 1 cycle -> 8 scale units
        assert_eq!(p.bank_penalty(1), 8);
        // unknown keys cost nothing
        assert_eq!(p.link_penalty(9, 9), 0);
        assert_eq!(p.bank_penalty(9), 0);
    }

    #[test]
    fn stall_weight_defaults_to_cold() {
        let mut p = Profile::new(4, Topology::Flat);
        let mut l = LoopProfile::new("pred");
        l.add(2, 40);
        p.loops.push(l);
        assert_eq!(p.stall_weight("pred", 2), 40);
        assert_eq!(p.stall_weight("pred", 0), 0);
        assert_eq!(p.stall_weight("unknown", 2), 0);
    }

    #[test]
    fn profile_round_trips_through_serde() {
        let mut p = Profile::new(16, Topology::Mesh);
        p.net.links.push(LinkLoad {
            from: 2,
            to: 3,
            traversals: 100,
            stall_cycles: 17,
        });
        p.net.banks.push(BankLoad {
            bank: 0,
            requests: 64,
            queue_cycles: 12,
        });
        let mut l = LoopProfile::new("stream");
        l.add(0, 9);
        p.loops.push(l);
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: Profile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn profile_merge_accumulates_loops_and_net() {
        let mut a = Profile::new(16, Topology::Mesh);
        let mut la = LoopProfile::new("fir");
        la.add(1, 5);
        a.loops.push(la);
        let mut b = Profile::new(16, Topology::Mesh);
        let mut lb = LoopProfile::new("fir");
        lb.add(1, 3);
        lb.add(2, 2);
        b.loops.push(lb);
        b.loops.push(LoopProfile::new("cold"));
        b.net.banks.push(BankLoad {
            bank: 0,
            requests: 1,
            queue_cycles: 1,
        });
        a.merge(&b);
        assert_eq!(a.stall_weight("fir", 1), 8);
        assert_eq!(a.stall_weight("fir", 2), 2);
        assert_eq!(a.loops.len(), 2);
        assert_eq!(a.net.bank(0).unwrap().requests, 1);
        let fir = a.loop_profile("fir").unwrap();
        assert_eq!(fir.stall_cycles, 10);
    }
}
