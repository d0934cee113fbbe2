//! Content-addressed artifact keys.
//!
//! A key is a 128-bit digest over the canonical JSON serialization of
//! every compile input: the (possibly trip-normalized) loop IR, the
//! machine configuration and the [`CompileRequest`] — which embeds the
//! profile, so profile-guided and static compiles of the same loop get
//! distinct keys. JSON is the digest domain because the workspace's
//! serializer is deterministic (struct fields in declaration order,
//! shortest-round-trip floats), whereas `std`'s `Hash` is not stable
//! across `HashMap` orderings or process runs.
//!
//! The digest is two independent FNV-1a 64 streams. FNV is not
//! cryptographic, but 128 bits over distinct seeds makes accidental
//! collisions across a cache of any feasible size vanishingly unlikely,
//! and key derivation sits on the service's producer path — cheap
//! matters more than adversarial collision resistance for an internal
//! artifact cache.

use serde::{Deserialize, Serialize};
use vliw_ir::{normalize_trips, LoopNest, TripShape};
use vliw_machine::MachineConfig;
use vliw_sched::CompileRequest;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Seed of the second stream; any constant distinct from
/// [`FNV_OFFSET`] decorrelates the two halves.
const FNV_OFFSET_2: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// A 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArtifactKey {
    /// First FNV-1a stream.
    pub hi: u64,
    /// Second FNV-1a stream (independent seed).
    pub lo: u64,
}

impl ArtifactKey {
    /// The shard a key routes to in an `n`-shard service.
    pub fn shard(&self, n: usize) -> usize {
        (self.hi % n.max(1) as u64) as usize
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Incremental key derivation over labeled serializable fields.
///
/// ```
/// use vliw_service::KeyBuilder;
/// let a = KeyBuilder::new().field("x", &1u32).finish();
/// let b = KeyBuilder::new().field("x", &2u32).finish();
/// assert_ne!(a, b);
/// // Same fields, same key — derivation is deterministic.
/// assert_eq!(a, KeyBuilder::new().field("x", &1u32).finish());
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    hi: u64,
    lo: u64,
}

impl Default for KeyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyBuilder {
    /// A builder with both streams at their seeds.
    pub fn new() -> Self {
        KeyBuilder {
            hi: FNV_OFFSET,
            lo: FNV_OFFSET_2,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hi = (self.hi ^ b as u64).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one labeled field. The label (with separators) keeps
    /// adjacent fields from aliasing under concatenation.
    #[must_use]
    pub fn field<T: Serialize + ?Sized>(mut self, label: &str, value: &T) -> Self {
        self.absorb(label.as_bytes());
        self.absorb(b"=");
        let json = serde_json::to_string(value).expect("compile inputs serialize");
        self.absorb(json.as_bytes());
        self.absorb(b";");
        self
    }

    /// The finished 128-bit key.
    pub fn finish(self) -> ArtifactKey {
        ArtifactKey {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

/// How a compile request is content-addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KeyMode {
    /// The loop is hashed as-is: requests differing only in trip count
    /// get distinct keys (and therefore distinct artifacts).
    Exact,
    /// The loop is trip-normalized before hashing
    /// ([`vliw_ir::normalize_trips`]): requests differing only in trip
    /// count share one key, and the artifact is instantiated once per
    /// distinct trip shape.
    Symbolic,
}

/// Derives the content address of one compile, plus the [`TripShape`]
/// symbolic instantiation needs (extracted either way; exact-mode
/// callers simply ignore it).
pub fn compile_key(
    loop_: &LoopNest,
    cfg: &MachineConfig,
    request: &CompileRequest,
    mode: KeyMode,
) -> (ArtifactKey, TripShape) {
    let shape = TripShape::of(loop_);
    let builder = KeyBuilder::new();
    let builder = match mode {
        KeyMode::Exact => builder.field("ir", loop_),
        KeyMode::Symbolic => {
            let (template, _) = normalize_trips(loop_);
            builder.field("ir", &template)
        }
    };
    let key = builder
        .field("machine", cfg)
        .field("request", request)
        .finish();
    (key, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;
    use vliw_sched::Arch;

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    #[test]
    fn symbolic_keys_are_trip_invariant_exact_keys_are_not() {
        let req = CompileRequest::new(Arch::L0);
        let a = LoopBuilder::new("k").trip_count(64).elementwise(2).build();
        let mut b = a.clone();
        b.trip_count = 4096;
        let (ea, _) = compile_key(&a, &cfg(), &req, KeyMode::Exact);
        let (eb, _) = compile_key(&b, &cfg(), &req, KeyMode::Exact);
        assert_ne!(ea, eb, "exact keys must see the trip count");
        let (sa, shape_a) = compile_key(&a, &cfg(), &req, KeyMode::Symbolic);
        let (sb, shape_b) = compile_key(&b, &cfg(), &req, KeyMode::Symbolic);
        assert_eq!(sa, sb, "symbolic keys must not see the trip count");
        assert_eq!(shape_a.trip_count, 64);
        assert_eq!(shape_b.trip_count, 4096);
    }

    #[test]
    fn every_input_axis_separates_keys() {
        let req = CompileRequest::new(Arch::L0);
        let l = LoopBuilder::new("k").trip_count(64).elementwise(2).build();
        let (base, _) = compile_key(&l, &cfg(), &req, KeyMode::Symbolic);

        let mut other_loop = l.clone();
        other_loop.name = "k2".into();
        let (k_loop, _) = compile_key(&other_loop, &cfg(), &req, KeyMode::Symbolic);
        assert_ne!(base, k_loop);

        let other_cfg = cfg().without_l0();
        let (k_cfg, _) = compile_key(&l, &other_cfg, &req, KeyMode::Symbolic);
        assert_ne!(base, k_cfg);

        let other_req = CompileRequest::new(Arch::Baseline);
        let (k_req, _) = compile_key(&l, &cfg(), &other_req, KeyMode::Symbolic);
        assert_ne!(base, k_req);
    }

    #[test]
    fn derivation_is_deterministic_across_calls() {
        let req = CompileRequest::new(Arch::L0);
        let l = LoopBuilder::new("k").trip_count(64).elementwise(2).build();
        let (a, _) = compile_key(&l, &cfg(), &req, KeyMode::Symbolic);
        let (b, _) = compile_key(&l, &cfg(), &req, KeyMode::Symbolic);
        assert_eq!(a, b);
    }

    #[test]
    fn field_labels_prevent_concatenation_aliasing() {
        let a = KeyBuilder::new().field("ab", "c").finish();
        let b = KeyBuilder::new().field("a", "bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let k = KeyBuilder::new().field("x", &7u64).finish();
        for n in 1..9 {
            assert!(k.shard(n) < n);
            assert_eq!(k.shard(n), k.shard(n));
        }
        assert_eq!(k.shard(0), 0, "degenerate shard count clamps");
    }
}
