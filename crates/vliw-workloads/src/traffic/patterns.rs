//! Declarative traffic patterns and their preset corpus.

use vliw_machine::{AccessHint, ClusterId, MachineConfig, MappingHint, MemHints, PrefetchHint};
use vliw_mem::MemRequest;
use vliw_testutil::Rng;

/// The shape of one synthetic request stream.
///
/// Every variant is parameterized so a preset can be sharpened (wider
/// strides, hotter banks) without new code. Address layout is derived
/// from the [`MachineConfig`] the stream is generated for, so a
/// hot-bank pattern really does land on the configured bank interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Per-cluster streaming walks with a fixed element stride — the
    /// polite end of the spectrum, and the shape the L0 mapping hints
    /// were designed for.
    Strided {
        /// Elements between consecutive accesses of one stream.
        stride_elems: u64,
        /// Independent streams each cluster advances round-robin.
        streams_per_cluster: usize,
    },
    /// Serial dependent loads at pseudo-random addresses — no spatial
    /// locality, no hint help, one outstanding access per cluster.
    PointerChase {
        /// Size of the region the chase wanders over.
        span_bytes: u64,
    },
    /// The closed-loop pointer chase: each cluster walks a private hash
    /// chain where the *reply feeds the next request* — the next address
    /// is the "pointer value" stored at the current one
    /// (`chain_step` of the address, memory contents being fixed), and
    /// the next hop issues the cycle after the previous reply arrived.
    /// Unlike [`PatternKind::PointerChase`]'s fixed cadence, the issue
    /// rate here is set by the model's own latency, so a slower network
    /// is probed *less* often — the self-throttling shape real linked
    /// lists produce. Addresses past the chain heads depend on replies,
    /// so [`PatternSpec::requests`] emits only the per-cluster heads and
    /// [`super::run_traffic`] drives the rest of the loop.
    DependentChain {
        /// Size of the region the chains wander over.
        span_bytes: u64,
    },
    /// Tiled 3-point stencil sweeps whose tile boundaries overlap by a
    /// halo, so neighbouring clusters touch shared rows (coherence and
    /// attraction-buffer traffic on the distributed models).
    StencilHalo {
        /// Elements per cluster tile.
        tile: u64,
        /// Elements of overlap between adjacent tiles.
        halo: u64,
    },
    /// Every cluster hammers addresses that map into a handful of
    /// banks — the port-contention adversary (degenerates to a small
    /// working set on the flat network, which has no banks).
    HotBank {
        /// How many distinct banks the pattern is allowed to touch.
        hot_banks: usize,
    },
    /// Synchronized bursts from every cluster followed by idle gaps —
    /// the arrival shape that stresses queue build-up and drain.
    Bursty {
        /// Requests per cluster per burst.
        burst: usize,
        /// Idle cycles between burst fronts.
        gap_cycles: u64,
    },
    /// A systolic-style compute/memory mix: streamed operand loads with
    /// interleaved mapping on a fixed beat, a drain store every other
    /// beat, and compute gaps between beats (with ±2 cycles of issue
    /// jitter, the replay skew of an overlapped pipeline).
    Systolic {
        /// Compute cycles between memory beats.
        compute_gap: u64,
    },
}

/// One declarative traffic scenario: a [`PatternKind`] plus the knobs
/// shared by every pattern (request count, element size, store mix,
/// seed). Request generation is a pure function of the spec and the
/// machine configuration — same spec, same machine, same stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternSpec {
    /// Stable preset name (keys the fuzz report's breakdown rows).
    pub name: &'static str,
    /// The access shape.
    pub kind: PatternKind,
    /// Total requests to generate.
    pub reqs: usize,
    /// Access size in bytes.
    pub elem_bytes: u8,
    /// Percentage of accesses that are stores, where the pattern does
    /// not fix the mix itself (the stencil's 3-loads-1-store does).
    pub store_pct: u8,
    /// PRNG seed for the pattern's random choices.
    pub seed: u64,
}

/// The dependent chain's fixed "memory contents": the pointer value
/// stored at `addr` on the chain salted with `salt` (a splitmix64
/// finalizer, so the walk is a hash chain with no short cycles). Pure
/// function of the address — timing decides *when* the next hop issues,
/// never *where* it goes.
pub(crate) fn chain_step(addr: u64, salt: u64) -> u64 {
    let mut z = addr.wrapping_add(salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-cluster chain salt: keeps each cluster on a private list so
/// the chains never merge onto one shared walk.
pub(crate) fn chain_salt(cluster: usize) -> u64 {
    (cluster as u64 + 1) << 40
}

impl PatternSpec {
    /// A spec with the default knobs (256 requests, 4-byte elements,
    /// loads only, seed 1).
    pub fn new(name: &'static str, kind: PatternKind) -> Self {
        PatternSpec {
            name,
            kind,
            reqs: 256,
            elem_bytes: 4,
            store_pct: 0,
            seed: 1,
        }
    }

    /// Same pattern with a different request count.
    pub fn with_reqs(mut self, reqs: usize) -> Self {
        self.reqs = reqs;
        self
    }

    /// Same pattern with a different store percentage.
    pub fn with_store_pct(mut self, pct: u8) -> Self {
        self.store_pct = pct;
        self
    }

    /// Same pattern with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the request stream for `cfg`'s machine.
    ///
    /// Issue cycles are nondecreasing except for the systolic jitter,
    /// which stays far inside the replay horizon, so every reservation
    /// a later request can collide with is still observable.
    pub fn requests(&self, cfg: &MachineConfig) -> Vec<MemRequest> {
        let mut rng = Rng::new(self.seed);
        let n = cfg.clusters.max(1);
        let eb = u64::from(self.elem_bytes.max(1));
        let size = self.elem_bytes.max(1);
        let mut out = Vec::with_capacity(self.reqs);

        let push = |out: &mut Vec<MemRequest>,
                    rng: &mut Rng,
                    cluster: usize,
                    addr: u64,
                    hints: MemHints,
                    cycle: u64| {
            let cl = ClusterId::new(cluster);
            if rng.range(0, 100) < u64::from(self.store_pct) {
                out.push(MemRequest::store(cl, addr, size, hints, cycle));
            } else {
                out.push(MemRequest::load(cl, addr, size, hints, cycle));
            }
        };

        match self.kind {
            PatternKind::Strided {
                stride_elems,
                streams_per_cluster,
            } => {
                let streams = streams_per_cluster.max(1);
                let region = 1u64 << 16;
                let mut idx = vec![0u64; n * streams];
                let hints = MemHints::new(AccessHint::ParAccess)
                    .with_mapping(MappingHint::Linear)
                    .with_prefetch(PrefetchHint::Positive);
                for i in 0..self.reqs {
                    let c = i % n;
                    let s = (i / n) % streams;
                    let k = &mut idx[c * streams + s];
                    let base = ((c * streams + s) as u64) * region;
                    let addr = base + (*k * stride_elems.max(1) * eb) % region;
                    *k += 1;
                    push(&mut out, &mut rng, c, addr, hints, (i / n) as u64);
                }
            }
            PatternKind::PointerChase { span_bytes } => {
                let span = span_bytes.max(eb);
                for i in 0..self.reqs {
                    let c = i % n;
                    // Dependent-load cadence: the next hop can only
                    // issue once the previous pointer arrived.
                    let cycle = (i / n) as u64 * 6;
                    let addr = rng.range(0, span / eb) * eb;
                    let cl = ClusterId::new(c);
                    out.push(MemRequest::load(
                        cl,
                        addr,
                        size,
                        MemHints::no_access(),
                        cycle,
                    ));
                }
            }
            PatternKind::DependentChain { span_bytes } => {
                // Only the chain heads are knowable up front — every
                // later hop's address is the pointer loaded by the
                // previous reply, so `run_traffic` generates the rest of
                // the stream closed-loop against the model.
                let slots = (span_bytes.max(eb) / eb).max(1);
                for c in 0..n.min(self.reqs) {
                    let head = chain_step(self.seed, chain_salt(c)) % slots * eb;
                    out.push(MemRequest::load(
                        ClusterId::new(c),
                        head,
                        size,
                        MemHints::no_access(),
                        0,
                    ));
                }
            }
            PatternKind::StencilHalo { tile, halo } => {
                let tile = tile.max(2);
                let owned = tile.saturating_sub(halo).max(1);
                let out_base = 1u64 << 20;
                let load_hints = MemHints::new(AccessHint::SeqAccess)
                    .with_mapping(MappingHint::Linear)
                    .with_prefetch(PrefetchHint::Positive);
                let mut point = vec![0u64; n];
                let mut i = 0usize;
                while out.len() < self.reqs {
                    let c = (i / 4) % n;
                    let cl = ClusterId::new(c);
                    let cycle = (i / (4 * n)) as u64 * 2;
                    let p = point[c];
                    if i % 4 < 3 {
                        // The 3-point read of point p: tiles start every
                        // `owned` elements, so the top `halo` elements
                        // are shared with the next cluster's tile.
                        let x = (p + (i % 4) as u64) % tile;
                        let addr = (c as u64 * owned + x) * eb;
                        out.push(MemRequest::load(cl, addr, size, load_hints, cycle));
                    } else {
                        let addr = out_base + (c as u64 * owned + p % owned) * eb;
                        let hints = MemHints::new(AccessHint::ParAccess);
                        out.push(MemRequest::store(cl, addr, size, hints, cycle));
                        point[c] += 1;
                    }
                    i += 1;
                }
            }
            PatternKind::HotBank { hot_banks } => {
                let ic = &cfg.interconnect;
                let banks = ic.banks.max(1) as u64;
                let hot = (hot_banks as u64).clamp(1, banks);
                let interleave = (ic.bank_interleave_bytes as u64).max(eb);
                for i in 0..self.reqs {
                    let c = i % n;
                    // Rows repeat the full bank rotation, so picking a
                    // fixed bank offset within a row pins the bank.
                    let row = rng.range(0, 64);
                    let bank = rng.range(0, hot);
                    let off = rng.range(0, (interleave / eb).max(1)) * eb;
                    let addr = row * banks * interleave + bank * interleave + off;
                    push(
                        &mut out,
                        &mut rng,
                        c,
                        addr,
                        MemHints::no_access(),
                        (i / n) as u64,
                    );
                }
            }
            PatternKind::Bursty { burst, gap_cycles } => {
                let span = 1u64 << 14;
                let per_front = burst.max(1) * n;
                for i in 0..self.reqs {
                    let front = (i / per_front) as u64;
                    let c = i % n;
                    let cycle = front * gap_cycles.max(1);
                    let addr = rng.range(0, span / eb) * eb;
                    push(&mut out, &mut rng, c, addr, MemHints::no_access(), cycle);
                }
            }
            PatternKind::Systolic { compute_gap } => {
                let operand_hints = MemHints::new(AccessHint::ParAccess)
                    .with_mapping(MappingHint::Interleaved)
                    .with_prefetch(PrefetchHint::Positive);
                let drain_base = 1u64 << 21;
                let mut streamed = vec![0u64; n];
                for i in 0..self.reqs {
                    let c = i % n;
                    let cl = ClusterId::new(c);
                    let beat = (i / n) as u64;
                    let cycle = beat * compute_gap.max(1) + rng.range(0, 3);
                    if beat % 2 == 1 && rng.range(0, 100) < u64::from(self.store_pct) {
                        let addr = drain_base + ((c as u64) << 12) + (beat % 512) * eb;
                        let hints = MemHints::new(AccessHint::ParAccess);
                        out.push(MemRequest::store(cl, addr, size, hints, cycle));
                    } else {
                        let k = streamed[c];
                        streamed[c] += 1;
                        let addr = ((c as u64) << 14) + (k % 1024) * eb;
                        out.push(MemRequest::load(cl, addr, size, operand_hints, cycle));
                    }
                }
            }
        }
        out
    }
}

/// The fixed preset corpus: one spec per adversarial shape, seeds
/// pinned so every run replays the identical streams.
pub fn presets() -> Vec<PatternSpec> {
    vec![
        PatternSpec::new(
            "unit-stride",
            PatternKind::Strided {
                stride_elems: 1,
                streams_per_cluster: 2,
            },
        )
        .with_store_pct(25)
        .with_seed(101),
        PatternSpec::new(
            "strided-8",
            PatternKind::Strided {
                stride_elems: 8,
                streams_per_cluster: 1,
            },
        )
        .with_seed(102),
        PatternSpec::new(
            "pointer-chase",
            PatternKind::PointerChase {
                span_bytes: 1 << 16,
            },
        )
        .with_seed(103),
        PatternSpec::new(
            "stencil-halo",
            PatternKind::StencilHalo { tile: 256, halo: 8 },
        )
        .with_seed(104),
        PatternSpec::new(
            "dependent-chain",
            PatternKind::DependentChain {
                span_bytes: 1 << 16,
            },
        )
        .with_seed(109),
        PatternSpec::new("hot-bank", PatternKind::HotBank { hot_banks: 1 })
            .with_store_pct(30)
            .with_seed(105),
        PatternSpec::new("hot-bank-pair", PatternKind::HotBank { hot_banks: 2 })
            .with_store_pct(10)
            .with_seed(106),
        PatternSpec::new(
            "bursty",
            PatternKind::Bursty {
                burst: 4,
                gap_cycles: 32,
            },
        )
        .with_store_pct(40)
        .with_seed(107),
        PatternSpec::new("systolic-mix", PatternKind::Systolic { compute_gap: 4 })
            .with_store_pct(60)
            .with_seed(108),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::InterconnectConfig;
    use vliw_mem::ReqKind;

    fn machine() -> MachineConfig {
        let mut cfg =
            MachineConfig::micro2003().with_interconnect(InterconnectConfig::crossbar(4, 1));
        cfg.clusters = 8;
        cfg
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let cfg = machine();
        for spec in presets() {
            let spec = spec.with_reqs(100);
            let a = spec.requests(&cfg);
            let b = spec.requests(&cfg);
            assert_eq!(a, b, "'{}' must replay identically", spec.name);
            // The dependent chain is closed-loop: `requests()` can only
            // emit the per-cluster heads, the drive makes up the rest.
            let expected = match spec.kind {
                PatternKind::DependentChain { .. } => cfg.clusters.min(100),
                _ => 100,
            };
            assert_eq!(a.len(), expected, "'{}' ignores the reqs knob", spec.name);
        }
    }

    #[test]
    fn strided_streams_really_stride() {
        let cfg = machine();
        let spec = PatternSpec::new(
            "s",
            PatternKind::Strided {
                stride_elems: 8,
                streams_per_cluster: 1,
            },
        )
        .with_reqs(64);
        let reqs = spec.requests(&cfg);
        // Cluster 0's stream: every n-th request, stride 8 elements.
        let c0: Vec<u64> = reqs
            .iter()
            .filter(|r| r.cluster.index() == 0)
            .map(|r| r.addr)
            .collect();
        assert!(c0.len() >= 4);
        for w in c0.windows(2) {
            assert_eq!(w[1] - w[0], 8 * 4, "stride broken: {w:?}");
        }
    }

    #[test]
    fn hot_bank_pattern_stays_on_its_banks() {
        let cfg = machine();
        let spec = PatternSpec::new("h", PatternKind::HotBank { hot_banks: 2 }).with_reqs(200);
        let banks: std::collections::BTreeSet<usize> = spec
            .requests(&cfg)
            .iter()
            .map(|r| cfg.interconnect.bank_of(r.addr))
            .collect();
        assert!(
            banks.len() <= 2,
            "hot-bank adversary leaked onto banks {banks:?}"
        );
    }

    #[test]
    fn dependent_chain_heads_are_private_and_in_span() {
        let cfg = machine();
        let spec = PatternSpec::new(
            "dc",
            PatternKind::DependentChain {
                span_bytes: 1 << 12,
            },
        )
        .with_reqs(64);
        let heads = spec.requests(&cfg);
        assert_eq!(heads.len(), cfg.clusters, "one chain head per cluster");
        let addrs: std::collections::BTreeSet<u64> = heads.iter().map(|r| r.addr).collect();
        assert_eq!(addrs.len(), heads.len(), "chains must start apart");
        for r in &heads {
            assert!(r.addr < 1 << 12, "head {:#x} escaped the span", r.addr);
            assert_eq!(r.addr % 4, 0, "head {:#x} misaligned", r.addr);
            assert_eq!(r.kind, ReqKind::Load, "a chain hop is always a load");
        }
    }

    #[test]
    fn store_pct_controls_the_mix() {
        let cfg = machine();
        let all_loads = PatternSpec::new("l", PatternKind::HotBank { hot_banks: 1 })
            .with_reqs(100)
            .requests(&cfg);
        assert!(all_loads.iter().all(|r| r.kind == ReqKind::Load));
        let mixed = PatternSpec::new("m", PatternKind::HotBank { hot_banks: 1 })
            .with_reqs(400)
            .with_store_pct(50)
            .requests(&cfg);
        let stores = mixed.iter().filter(|r| r.kind == ReqKind::Store).count();
        assert!(
            (100..300).contains(&stores),
            "store_pct 50 produced {stores}/400 stores"
        );
    }

    #[test]
    fn stencil_halo_rows_are_shared_between_neighbours() {
        let cfg = machine();
        let spec =
            PatternSpec::new("st", PatternKind::StencilHalo { tile: 64, halo: 8 }).with_reqs(2048);
        let reqs = spec.requests(&cfg);
        let touched = |c: usize| -> std::collections::BTreeSet<u64> {
            reqs.iter()
                .filter(|r| r.cluster.index() == c && r.kind == ReqKind::Load)
                .map(|r| r.addr)
                .collect()
        };
        let shared: Vec<u64> = touched(0).intersection(&touched(1)).copied().collect();
        assert!(
            !shared.is_empty(),
            "no halo sharing between clusters 0 and 1"
        );
    }
}
