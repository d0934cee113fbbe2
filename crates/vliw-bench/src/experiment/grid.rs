//! Declarative sweep definitions: what to run, not how to run it.

use vliw_machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_sched::{
    Arch, AssignmentPolicy, BackendKind, CompileRequest, L0Options, UnrollPolicy, VerifyLevel,
};
use vliw_workloads::BenchmarkSpec;

/// One experiment variant — a column of a figure or table.
///
/// A variant owns every knob that distinguishes one column from another:
/// the target architecture, overrides of the machine configuration (L0
/// capacity, cluster count, prefetch distance) and the L0 compiler
/// options. Built with a fluent API:
///
/// ```
/// use vliw_bench::experiment::Variant;
/// use vliw_bench::Arch;
/// use vliw_machine::L0Capacity;
///
/// let v = Variant::new(Arch::L0).l0(L0Capacity::Bounded(4));
/// assert_eq!(v.label, "4 entries", "the label tracks the latest knob");
/// assert_eq!(v.clusters(8).label, "8 clusters");
/// ```
#[derive(Debug, Clone)]
pub struct Variant {
    /// Column label in rendered tables (defaults to the arch label, and is
    /// refreshed by the knob setters unless set explicitly).
    pub label: String,
    /// Target architecture.
    pub arch: Arch,
    /// L0 capacity override (`None` keeps the grid's base configuration).
    pub l0: Option<L0Capacity>,
    /// Cluster-count override.
    pub clusters: Option<usize>,
    /// Automatic-prefetch distance override.
    pub prefetch_distance: Option<usize>,
    /// Cluster ↔ bank interconnect override.
    pub interconnect: Option<InterconnectConfig>,
    /// L1 block-size override in bytes (cluster-scaling sweeps keep the
    /// subblock geometry sane by co-scaling the block with the cluster
    /// count).
    pub l1_block_bytes: Option<usize>,
    /// L1 capacity override in bytes.
    pub l1_size_bytes: Option<usize>,
    /// L0 compiler options (ablation knobs).
    pub opts: L0Options,
    /// Scheduler backend (the SMS-vs-exact axis).
    pub backend: BackendKind,
    /// Cluster-assignment policy (the contention-aware placement axis).
    pub assignment: AssignmentPolicy,
    /// Unroll-factor selection policy.
    pub unroll: UnrollPolicy,
    /// Apply selective inter-loop flushing across the benchmark's loops
    /// after compilation (§4.1 future work).
    pub selective_flush: bool,
    /// Two-pass profile-guided execution: compile blind (this variant's
    /// request as declared), simulate, then recompile with the harvested
    /// [`Profile`](vliw_machine::Profile) — observed placement costs plus
    /// hot-first L0 marking — and report the second pass. The profiling
    /// pass is memoized per `(benchmark, configuration, blind request)`.
    pub profile_guided: bool,
    /// Verification level threaded into every compile this variant
    /// issues (default `Debug`). Grids run by CI set `Full` so every
    /// schedule is re-checked from first principles by the compile
    /// driver's `verify` pass.
    pub verify: VerifyLevel,
    /// `true` while the label tracks the latest knob automatically.
    auto_label: bool,
}

impl Variant {
    /// A variant of `arch` with the grid's base configuration.
    pub fn new(arch: Arch) -> Self {
        Variant {
            label: arch.label().to_string(),
            arch,
            l0: None,
            clusters: None,
            prefetch_distance: None,
            interconnect: None,
            l1_block_bytes: None,
            l1_size_bytes: None,
            opts: L0Options::default(),
            backend: BackendKind::default(),
            assignment: AssignmentPolicy::default(),
            unroll: UnrollPolicy::default(),
            selective_flush: false,
            profile_guided: false,
            verify: VerifyLevel::default(),
            auto_label: true,
        }
    }

    /// Sets an explicit column label (disables automatic labelling).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self.auto_label = false;
        self
    }

    fn auto_label(mut self, label: String) -> Self {
        if self.auto_label {
            self.label = label;
        }
        self
    }

    /// Overrides the L0 buffer capacity.
    pub fn l0(mut self, capacity: L0Capacity) -> Self {
        self.l0 = Some(capacity);
        self.auto_label(capacity.to_string())
    }

    /// Overrides the cluster count.
    pub fn clusters(mut self, n: usize) -> Self {
        self.clusters = Some(n);
        self.auto_label(format!("{n} clusters"))
    }

    /// Overrides the automatic-prefetch distance.
    pub fn prefetch_distance(mut self, distance: usize) -> Self {
        self.prefetch_distance = Some(distance);
        self.auto_label(format!("dist {distance}"))
    }

    /// Overrides the cluster ↔ bank interconnect.
    pub fn interconnect(mut self, ic: InterconnectConfig) -> Self {
        let label = ic.topology.to_string();
        self.interconnect = Some(ic);
        self.auto_label(label)
    }

    /// Overrides the L1 block size (bytes).
    pub fn l1_block_bytes(mut self, bytes: usize) -> Self {
        self.l1_block_bytes = Some(bytes);
        self
    }

    /// Overrides the L1 capacity (bytes).
    pub fn l1_size_bytes(mut self, bytes: usize) -> Self {
        self.l1_size_bytes = Some(bytes);
        self
    }

    /// Sets the L0 compiler options.
    pub fn opts(mut self, opts: L0Options) -> Self {
        self.opts = opts;
        self
    }

    /// Selects the scheduler backend (the SMS-vs-exact axis).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self.auto_label(backend.label().to_string())
    }

    /// Selects the cluster-assignment policy.
    pub fn assignment(mut self, assignment: AssignmentPolicy) -> Self {
        self.assignment = assignment;
        let label = match assignment {
            AssignmentPolicy::ContentionBlind => "blind",
            AssignmentPolicy::ContentionAware => "aware",
        };
        self.auto_label(label.to_string())
    }

    /// Sets the unroll-factor selection policy.
    pub fn unroll(mut self, unroll: UnrollPolicy) -> Self {
        self.unroll = unroll;
        self
    }

    /// The fully-resolved compile request this variant schedules with —
    /// recorded verbatim in every [`Cell`](crate::experiment::Cell).
    pub fn request(&self) -> CompileRequest {
        CompileRequest::new(self.arch)
            .backend(self.backend)
            .opts(self.opts)
            .unroll(self.unroll)
            .assignment(self.assignment)
            .verify(self.verify)
    }

    /// Sets the verification level for every compile this variant issues.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Enables selective inter-loop flushing.
    pub fn selective_flush(mut self) -> Self {
        self.selective_flush = true;
        self.auto_label("selective flush".to_string())
    }

    /// Enables two-pass profile-guided execution (compile blind →
    /// simulate → recompile with the harvested profile; the cell reports
    /// the recompiled run).
    pub fn profile_guided(mut self) -> Self {
        self.profile_guided = true;
        self.auto_label("pgo".to_string())
    }

    /// The machine configuration this variant runs on.
    ///
    /// # Panics
    ///
    /// Panics when the overrides produce an invalid machine (e.g. a
    /// cluster count that does not divide the L1 block size).
    pub fn config(&self, base: &MachineConfig) -> MachineConfig {
        let mut cfg = base.clone();
        if let Some(n) = self.clusters {
            cfg.clusters = n;
        }
        if let Some(capacity) = self.l0 {
            cfg = cfg.with_l0_entries(capacity);
        }
        if let Some(d) = self.prefetch_distance {
            cfg = cfg.with_prefetch_distance(d);
        }
        if let Some(ic) = self.interconnect {
            cfg.interconnect = ic;
        }
        if let Some(bytes) = self.l1_block_bytes {
            cfg.l1.block_bytes = bytes;
        }
        if let Some(bytes) = self.l1_size_bytes {
            cfg.l1.size_bytes = bytes;
        }
        cfg.validate()
            .unwrap_or_else(|e| panic!("variant '{}': {e}", self.label));
        cfg
    }
}

/// A declarative experiment grid: every benchmark × every variant.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Grid name (used in rendered output and the JSON artifact).
    pub name: String,
    /// Machine configuration variants derive from.
    pub base_cfg: MachineConfig,
    /// Row axis.
    pub benchmarks: Vec<BenchmarkSpec>,
    /// Column axis.
    pub variants: Vec<Variant>,
}

impl SweepGrid {
    /// A grid over `benchmarks` with no variants yet.
    pub fn new(
        name: impl Into<String>,
        base_cfg: MachineConfig,
        benchmarks: Vec<BenchmarkSpec>,
    ) -> Self {
        SweepGrid {
            name: name.into(),
            base_cfg,
            benchmarks,
            variants: Vec::new(),
        }
    }

    /// Adds one column.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variants.push(variant);
        self
    }

    /// Adds several columns.
    pub fn with_variants(mut self, variants: impl IntoIterator<Item = Variant>) -> Self {
        self.variants.extend(variants);
        self
    }

    /// Runs the grid in parallel (see [`crate::experiment::run`]).
    pub fn run(&self) -> crate::experiment::GridResult {
        crate::experiment::run::run_grid(self, crate::experiment::ExecMode::Parallel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_track_the_latest_knob() {
        assert_eq!(Variant::new(Arch::MultiVliw).label, "MultiVLIW");
        assert_eq!(
            Variant::new(Arch::L0).l0(L0Capacity::Unbounded).label,
            "unbounded entries"
        );
        assert_eq!(Variant::new(Arch::L0).clusters(2).label, "2 clusters");
        assert_eq!(
            Variant::new(Arch::L0).backend(BackendKind::Exact).label,
            "exact"
        );
        assert_eq!(
            Variant::new(Arch::L0)
                .labeled("all-candidates")
                .l0(L0Capacity::Bounded(4))
                .label,
            "all-candidates",
            "explicit labels win over knob labels"
        );
    }

    #[test]
    fn variant_verify_level_reaches_the_request() {
        let v = Variant::new(Arch::L0);
        assert_eq!(
            v.request().verify,
            VerifyLevel::Debug,
            "unset keeps the request default"
        );
        let full = v.verify(VerifyLevel::Full);
        assert_eq!(full.request().verify, VerifyLevel::Full);
        assert_eq!(
            full.label, "L0 buffers",
            "verification is not a column axis"
        );
    }

    #[test]
    fn variant_config_applies_overrides() {
        let base = MachineConfig::micro2003();
        let cfg = Variant::new(Arch::L0)
            .l0(L0Capacity::Bounded(2))
            .clusters(8)
            .prefetch_distance(2)
            .config(&base);
        assert_eq!(cfg.clusters, 8);
        assert_eq!(cfg.l0.unwrap().entries, L0Capacity::Bounded(2));
        assert_eq!(cfg.l0.unwrap().prefetch_distance, 2);
    }

    #[test]
    fn variant_interconnect_and_l1_geometry_overrides() {
        let base = MachineConfig::micro2003();
        let v = Variant::new(Arch::L0)
            .clusters(16)
            .interconnect(InterconnectConfig::hierarchical(4, 2, 4))
            .l1_block_bytes(128)
            .l1_size_bytes(32 * 1024);
        assert_eq!(v.label, "hierarchical", "label tracks the latest knob");
        let cfg = v.config(&base);
        assert_eq!(cfg.clusters, 16);
        assert!(!cfg.interconnect.is_flat());
        assert_eq!(cfg.l1.block_bytes, 128);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(
            cfg.subblock_bytes(),
            8,
            "co-scaled geometry keeps 8B subblocks"
        );
    }

    #[test]
    fn variant_request_carries_every_compile_knob() {
        use vliw_sched::{CoherencePolicy, MarkPolicy};
        let v = Variant::new(Arch::L0)
            .backend(BackendKind::Exact)
            .unroll(UnrollPolicy::Never)
            .opts(L0Options {
                mark: MarkPolicy::AllCandidates,
                policy: CoherencePolicy::Force1c,
                specialize: false,
            });
        let r = v.request();
        assert_eq!(r.arch, Arch::L0);
        assert_eq!(r.backend, BackendKind::Exact);
        assert_eq!(r.unroll, UnrollPolicy::Never);
        assert_eq!(r.opts.mark, MarkPolicy::AllCandidates);
        assert_eq!(r.opts.policy, CoherencePolicy::Force1c);
        assert!(!r.opts.specialize);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn invalid_cluster_override_panics() {
        Variant::new(Arch::L0)
            .clusters(3)
            .config(&MachineConfig::micro2003());
    }
}
