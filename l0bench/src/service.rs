//! `service_zipf`: a Zipf(1.1) mix over the 52 suite loops × the trip
//! menu, replayed through `CompileService::replay` with symbolic keys,
//! caching and one worker. An op is one service request.
//!
//! The mix is one fixed Zipf sample whose order the workload seed
//! shuffles: every seed serves the same requests (so hit counts and
//! served cycles do not move with the seed), in a different order.
//!
//! `replay` takes a whole batch and keeps the bounded queue full, so the
//! load is closed-loop with a window of `queue_capacity` requests.
//! Set-up builds the suite, the mix and the keyed request stream
//! (`materialize_mix`); every pass replays a copy of that stream. Each
//! pass must serve every request with the first pass's hit and miss
//! counts. The gate replays the stream once more with the result
//! checksum on, which must equal the uncached checksum of the same
//! stream.

use crate::metrics::{median, stem_s, Metrics, Stems};
use crate::trace::Tracer;
use crate::{PassOutcome, SetupTimes, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use vliw_bench::experiment::{materialize_mix, zipf_mix, MixDraw};
use vliw_ir::LoopNest;
use vliw_machine::MachineConfig;
use vliw_sched::{Arch, CompileRequest};
use vliw_service::{CompileService, KeyMode, ServiceConfig, ServiceReport, ServiceRequest};
use vliw_workloads::mediabench_suite;

/// Requests per pass. Every request holds its own trip-shaped loop
/// clone, so this bounds peak memory.
const REQUESTS: usize = 20_000;

/// Zipf skew of the loop draw.
const ZIPF_S: f64 = 1.1;

/// Seed of the Zipf sample itself (the `sweep_service` mix seed).
const SAMPLE_SEED: u64 = 0x5e7_1ce;

/// Fisher–Yates shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

pub struct Service {
    mix: Vec<MixDraw>,
    stream: Vec<ServiceRequest>,
    config: ServiceConfig,
    /// First pass's (hits, misses).
    reference: Option<(u64, u64)>,
    /// Reports of the traced passes.
    traced: Vec<ServiceReport>,
    /// Stall-free cycles of the served schedules (set by the gate).
    cycles: u64,
}

pub fn setup(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
    let t0 = Instant::now();
    let pool: Vec<Arc<LoopNest>> = mediabench_suite()
        .into_iter()
        .flat_map(|spec| spec.loops)
        .map(Arc::new)
        .collect();
    let mut mix = zipf_mix(pool.len(), REQUESTS, ZIPF_S, SAMPLE_SEED);
    shuffle(&mut mix, seed);
    let gen_s = t0.elapsed().as_secs_f64();

    let machine = Arc::new(MachineConfig::micro2003());
    let request = Arc::new(CompileRequest::new(Arch::L0));
    let t0 = Instant::now();
    let stream = materialize_mix(&mix, &pool, &machine, &request, KeyMode::Symbolic);
    let key_s = t0.elapsed().as_secs_f64();

    let w = Service {
        mix,
        stream,
        config: ServiceConfig {
            workers: 1,
            key_mode: KeyMode::Symbolic,
            caching: true,
            checksum: false,
            ..Default::default()
        },
        reference: None,
        traced: Vec::new(),
        cycles: 0,
    };
    (Box::new(w), SetupTimes { gen_s, key_s })
}

impl Service {
    fn replay(&self, stream: Vec<ServiceRequest>, caching: bool, checksum: bool) -> ServiceReport {
        let config = ServiceConfig {
            caching,
            checksum,
            ..self.config
        };
        CompileService::new(config).replay(stream)
    }
}

impl Workload for Service {
    fn ops_per_pass(&self) -> u64 {
        self.stream.len() as u64
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let stream = self.stream.clone();
        tr.next_op();
        let t0 = Instant::now();
        let span = tr.begin("service.replay", "");
        let report = CompileService::new(self.config).replay(stream);
        tr.end(span);
        let timed_s = t0.elapsed().as_secs_f64();

        let span = tr.begin("verify.check", "");
        let counts = (report.store.hits, report.store.misses);
        let reference = *self.reference.get_or_insert(counts);
        let failed = if report.served + report.errors != self.ops_per_pass() || counts != reference
        {
            self.ops_per_pass()
        } else {
            report.errors
        };
        tr.end(span);
        if tr.is_on() {
            self.traced.push(report);
        }
        PassOutcome { timed_s, failed }
    }

    fn gate(&mut self, tr: &mut Tracer) -> u64 {
        // Uncached reference: compiling is deterministic, so the uncached
        // checksum of the whole stream is each distinct request's digest
        // (a one-request uncached replay) weighted by its request count.
        let mut first: BTreeMap<MixDraw, (usize, u64)> = BTreeMap::new();
        for (i, &draw) in self.mix.iter().enumerate() {
            first.entry(draw).or_insert((i, 0)).1 += 1;
        }
        let span = tr.begin("verify.oracle", "");
        let cached = self.replay(self.stream.clone(), true, true);
        let mut reference = 0u64;
        let mut failed = 0;
        self.cycles = 0;
        for &(i, count) in first.values() {
            let uncached = self.replay(vec![self.stream[i].clone()], false, true);
            reference = reference.wrapping_add(count.wrapping_mul(uncached.checksum.unwrap_or(0)));
            // The checksum proves the served schedules equal direct
            // compiles, so their stall-free cycles come from one.
            let req = &self.stream[i];
            match req.request.compile(&req.loop_, &req.machine) {
                Ok(s) => self.cycles += count * s.compute_cycles_per_visit() * req.loop_.visits,
                Err(_) => failed += count,
            }
        }
        tr.end(span);
        if cached.checksum != Some(reference) || cached.errors != 0 {
            failed = self.ops_per_pass();
        }
        failed
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn layer_metrics(&self, _tr: &Tracer, passes: &[&Stems], m: &mut Metrics) {
        m.put("service.replay_s", stem_s(passes, "service.replay"));
        let (hits, misses) = self.reference.unwrap_or_default();
        m.put("service.hits", hits as f64);
        m.put("service.misses", misses as f64);
        m.put(
            "service.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let med = |f: fn(&ServiceReport) -> u64| {
            median(&self.traced.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        m.put(
            "service.backpressure_waits",
            med(|r| r.queue.backpressure_waits),
        );
        m.put("service.max_depth", med(|r| r.queue.max_depth));
        m.put(
            "service.latency_p50_ms",
            med(|r| r.latency_p50_micros) * 1e-3,
        );
        m.put(
            "service.latency_p99_ms",
            med(|r| r.latency_p99_micros) * 1e-3,
        );
        m.put("verify.check_s", stem_s(passes, "verify.check"));
    }
}
