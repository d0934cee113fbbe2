//! `paper_suite`: an op is one (loop, target) pair, compiled with
//! `CompileRequest::compile_with_stats` and simulated with
//! `simulate_arch`.
//!
//! Each op's output is checked right after it, outside the timed window:
//! `check_schedule` and `check_sim` on every pass, and from the second
//! pass on, equality with the first pass's schedule and simulation. The
//! gate then re-simulates every first-pass schedule with fast-forward off
//! (`simulate_with(.., EngineKind::Event, false)`), which must give the
//! same `SimResult`.

use crate::metrics::{median, percentile, stem_s, Metrics, Stems};
use crate::trace::Tracer;
use crate::{PassOutcome, SetupTimes, Workload};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;
use vliw_ir::LoopNest;
use vliw_machine::{L0Capacity, MachineConfig};
use vliw_sched::{merge_pass_stats, Arch, CompileRequest, PassStat, Schedule};
use vliw_sim::{simulate_arch, simulate_with, EngineKind, MemoryModelKind, SimResult};
use vliw_verify::{check_schedule, check_sim};
use vliw_workloads::{mediabench_suite, BenchmarkSpec};

/// The compiler passes whose time is reported (`sched.pass.<name>_s`).
const PASSES: [&str; 7] = [
    "check-profile",
    "lower",
    "schedule-flat",
    "schedule-unrolled",
    "select-unroll",
    "finish-l0",
    "verify",
];

/// One compile+simulate target: machine, request, and the span stem of
/// the memory model it simulates against.
struct Target {
    cfg: MachineConfig,
    request: CompileRequest,
    model: &'static str,
}

impl Target {
    fn new(cfg: MachineConfig, request: CompileRequest) -> Self {
        let model = match MemoryModelKind::for_arch(request.arch) {
            MemoryModelKind::Unified => "sim.unified",
            MemoryModelKind::UnifiedL0 => "sim.unified-l0",
            MemoryModelKind::MultiVliw => "sim.multivliw",
            MemoryModelKind::WordInterleaved => "sim.interleaved",
        };
        Target {
            cfg,
            request,
            model,
        }
    }
}

/// A first-pass output that passed its checks.
struct Checked {
    schedule: Schedule,
    sim: SimResult,
}

/// Figure 5's normalization inputs: each benchmark's scalar share and
/// loop range, and which targets are the baseline and 8-entry L0.
struct Figure5 {
    benches: Vec<(BenchmarkSpec, Range<usize>)>,
    baseline: usize,
    l0_8: usize,
}

pub struct CompileSim {
    loops: Vec<LoopNest>,
    targets: Vec<Target>,
    fig5: Figure5,
    /// First-pass outputs in op order (`None` where the op failed).
    reference: Vec<Option<Checked>>,
    violations: u64,
    /// Compiler pass timing of each traced pass.
    traced_pass_stats: Vec<Vec<PassStat>>,
}

/// 52 suite loops × 9 targets: the five architectures on the paper's
/// machine, plus L0 buffers of 2, 4, 16 and unbounded entries.
pub fn paper_suite() -> (Box<dyn Workload>, SetupTimes) {
    let t0 = Instant::now();
    let suite = mediabench_suite();
    let gen_s = t0.elapsed().as_secs_f64();

    let base = MachineConfig::micro2003();
    let mut targets: Vec<Target> = Arch::ALL
        .iter()
        .map(|&arch| Target::new(base.clone(), CompileRequest::new(arch)))
        .collect();
    for cap in [
        L0Capacity::Bounded(2),
        L0Capacity::Bounded(4),
        L0Capacity::Bounded(16),
        L0Capacity::Unbounded,
    ] {
        targets.push(Target::new(
            base.with_l0_entries(cap),
            CompileRequest::new(Arch::L0),
        ));
    }
    let index = |arch: Arch| Arch::ALL.iter().position(|&a| a == arch).expect("in ALL");
    let mut loops = Vec::new();
    let mut benches = Vec::new();
    for spec in suite {
        let range = loops.len()..loops.len() + spec.loops.len();
        loops.extend(spec.loops.iter().cloned());
        benches.push((spec, range));
    }
    let fig5 = Figure5 {
        benches,
        baseline: index(Arch::Baseline),
        l0_8: index(Arch::L0),
    };
    let w = CompileSim::new(loops, targets, fig5);
    (Box::new(w), SetupTimes { gen_s, key_s: 0.0 })
}

impl CompileSim {
    fn new(loops: Vec<LoopNest>, targets: Vec<Target>, fig5: Figure5) -> Self {
        CompileSim {
            loops,
            targets,
            fig5,
            reference: Vec::new(),
            violations: 0,
            traced_pass_stats: Vec::new(),
        }
    }

    fn op_count(&self) -> usize {
        self.loops.len() * self.targets.len()
    }

    fn reference(&self, li: usize, ti: usize) -> Option<&Checked> {
        self.reference[li * self.targets.len() + ti].as_ref()
    }

    /// Figure 5's AMEAN: L0 (8 entries) over baseline, scalar code
    /// included, as `Cell::normalized` computes it.
    fn norm_time_l0(&self) -> f64 {
        let f = &self.fig5;
        let cycles = |range: &Range<usize>, ti: usize| -> u64 {
            range
                .clone()
                .filter_map(|li| self.reference(li, ti))
                .map(|c| c.sim.total_cycles())
                .sum()
        };
        let norms: Vec<f64> = f
            .benches
            .iter()
            .map(|(spec, range)| {
                let base = cycles(range, f.baseline);
                let scalar = spec.scalar_cycles_for(base);
                (cycles(range, f.l0_8) + scalar) as f64 / (base + scalar).max(1) as f64
            })
            .collect();
        norms.iter().sum::<f64>() / norms.len() as f64
    }
}

impl Workload for CompileSim {
    fn ops_per_pass(&self) -> u64 {
        self.op_count() as u64
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let first = self.reference.is_empty();
        let mut timed_s = 0.0;
        let mut failed = 0;
        let mut pass_stats = Vec::new();
        for (li, l) in self.loops.iter().enumerate() {
            for (ti, t) in self.targets.iter().enumerate() {
                tr.next_op();
                let t0 = Instant::now();
                let op = tr.begin("harness.op", "");
                let span = tr.begin("sched.compile", "");
                let compiled = t.request.compile_with_stats(black_box(l), &t.cfg);
                tr.end(span);
                let out = compiled.map(|(schedule, stats)| {
                    let span = tr.begin("sim.simulate", t.model);
                    let sim = black_box(simulate_arch(&schedule, &t.cfg, t.request.arch));
                    tr.end(span);
                    (schedule, stats, sim)
                });
                tr.end(op);
                timed_s += t0.elapsed().as_secs_f64();

                let span = tr.begin("verify.check", "");
                let checked = out.ok().and_then(|(schedule, stats, sim)| {
                    merge_pass_stats(&mut pass_stats, &stats);
                    let violations = check_schedule(&t.request, &schedule, &t.cfg).len()
                        + check_sim(&l.name, &sim).len();
                    if first {
                        self.violations += violations as u64;
                    }
                    let same = match self.reference.get(li * self.targets.len() + ti) {
                        None => true,
                        Some(Some(r)) => {
                            r.sim == sim
                                && r.schedule.ii() == schedule.ii()
                                && r.schedule.placements == schedule.placements
                        }
                        Some(None) => false,
                    };
                    (violations == 0 && same).then_some(Checked { schedule, sim })
                });
                tr.end(span);
                if checked.is_none() {
                    failed += 1;
                }
                if first {
                    self.reference.push(checked);
                }
            }
        }
        if tr.is_on() {
            self.traced_pass_stats.push(pass_stats);
        }
        PassOutcome { timed_s, failed }
    }

    fn gate(&mut self, tr: &mut Tracer) -> u64 {
        let mut failed = 0;
        for (i, r) in self.reference.iter().enumerate() {
            let Some(r) = r else { continue };
            let t = &self.targets[i % self.targets.len()];
            let span = tr.begin("verify.oracle", "");
            let mut model = MemoryModelKind::for_arch(t.request.arch)
                .build_with_engine(&t.cfg, EngineKind::Event);
            let oracle = simulate_with(
                &r.schedule,
                &t.cfg,
                model.as_mut(),
                EngineKind::Event,
                false,
            );
            tr.end(span);
            if oracle != r.sim {
                failed += 1;
            }
        }
        failed
    }

    fn cycles(&self) -> u64 {
        self.reference
            .iter()
            .flatten()
            .map(|c| c.sim.total_cycles())
            .sum()
    }

    fn layer_metrics(&self, tr: &Tracer, passes: &[&Stems], m: &mut Metrics) {
        let checked: Vec<&Checked> = self.reference.iter().flatten().collect();
        let n = checked.len().max(1) as f64;

        m.put("sched.compile_s", stem_s(passes, "sched.compile"));
        m.put("sched.compile_calls", self.op_count() as f64);
        let compile_ms: Vec<f64> = tr
            .durations("sched.compile")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        m.put("sched.compile_p50_ms", median(&compile_ms));
        m.put("sched.compile_p99_ms", percentile(&compile_ms, 99.0));
        for name in PASSES {
            let per_pass: Vec<f64> = self
                .traced_pass_stats
                .iter()
                .map(|stats| {
                    stats
                        .iter()
                        .find(|s| s.name == name)
                        .map_or(0.0, |s| s.micros as f64 * 1e-6)
                })
                .collect();
            m.put(&format!("sched.pass.{name}_s"), median(&per_pass));
        }
        let slack: u64 = checked
            .iter()
            .map(|c| u64::from(c.schedule.ii() - c.schedule.mii))
            .sum();
        m.put("sched.ii_over_mii", slack as f64 / n);

        let simulate_s = stem_s(passes, "sim.simulate");
        m.put("sim.simulate_s", simulate_s);
        for stem in [
            "sim.unified",
            "sim.unified-l0",
            "sim.multivliw",
            "sim.interleaved",
        ] {
            m.put(&format!("{stem}_s"), stem_s(passes, stem));
        }
        let replayed: u64 = checked.iter().map(|c| c.sim.ffwd.iters_replayed).sum();
        let batched: u64 = checked.iter().map(|c| c.sim.ffwd.iters_batched).sum();
        m.put(
            "sim.ffwd_batched_frac",
            batched as f64 / (batched + replayed).max(1) as f64,
        );
        m.put(
            "sim.ns_per_replayed_iter",
            simulate_s * 1e9 / replayed.max(1) as f64,
        );
        m.put("sim.norm_time_l0", self.norm_time_l0());

        // Deterministic counters of one pass's outputs. The paper's
        // machine has a flat network, so every network counter reads 0
        // unless a change brings queueing or link contention to it.
        let sum = |f: fn(&SimResult) -> u64| -> f64 {
            checked.iter().map(|c| f(&c.sim)).sum::<u64>() as f64
        };
        m.put(
            "sim.contention_stall_cycles",
            sum(|s| s.contention_stall_cycles),
        );
        m.put("sim.link_stall_cycles", sum(|s| s.link_stall_cycles));
        let l0_hits = sum(|s| s.mem_stats.l0_hits);
        let l0_misses = sum(|s| s.mem_stats.l0_misses);
        m.put("mem.l0_hit_rate", l0_hits / (l0_hits + l0_misses).max(1.0));
        m.put("mem.queue_cycles", sum(|s| s.mem_stats.ic_queue_cycles));
        m.put(
            "mem.link_stall_cycles",
            sum(|s| s.mem_stats.ic_link_stall_cycles.unwrap_or(0)),
        );
        m.put(
            "mem.mshr_merges",
            sum(|s| s.mem_stats.mshr_merges.unwrap_or(0)),
        );

        m.put("verify.check_s", stem_s(passes, "verify.check"));
        m.put("verify.violations", self.violations as f64);
        m.put("harness.self_s", stem_s(passes, "harness"));
    }
}
