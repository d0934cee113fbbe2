//! The sharded compile service: bounded per-shard queues, one worker
//! per shard, per-shard private artifact stores.
//!
//! Requests are routed by content key ([`ArtifactKey::shard`]), so all
//! requests for one artifact land on one shard — each shard's
//! [`ArtifactStore`] is single-owner (no locks on the serve path) and
//! its hit/miss sequence is a deterministic function of the request
//! stream. Queues are bounded: a full shard queue blocks the producer
//! (backpressure), and both the block count and the high-water queue
//! depth are reported, so saturation is visible in the artifact rather
//! than silently absorbed.
//!
//! Everything timing-based in a [`ServiceReport`] (wall clock,
//! latency percentiles, queue depths) is telemetry and varies run to
//! run; everything content-based (served count, hit/miss counters,
//! the result checksum) is deterministic. The checksum is a
//! commutative sum over served schedules, so it is invariant under
//! worker count, key mode and cache capacity — cold, exact-keyed and
//! symbolic-keyed replays of the same stream must all report the same
//! checksum, which is the service-level statement of "the cache serves
//! bit-exact artifacts".

use crate::key::{compile_key, ArtifactKey, KeyBuilder, KeyMode};
use crate::store::{ArtifactStore, StoreStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use vliw_ir::{LoopNest, TripShape};
use vliw_machine::MachineConfig;
use vliw_sched::{CompileRequest, Schedule, ScheduleError, SymbolicArtifact};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Worker threads (= shards; each owns a private store).
    pub workers: usize,
    /// Bounded depth of each shard's request queue.
    pub queue_capacity: usize,
    /// Per-shard artifact store capacity (`None` = unbounded).
    pub store_capacity: Option<usize>,
    /// How artifacts are content-addressed.
    pub key_mode: KeyMode,
    /// `false` compiles every request directly — the cold baseline the
    /// warm throughput ratio is measured against.
    pub caching: bool,
    /// Fold every served schedule into a commutative checksum
    /// (serialization cost per request; enable on verification passes).
    pub checksum: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            store_capacity: None,
            key_mode: KeyMode::Symbolic,
            caching: true,
            checksum: false,
        }
    }
}

/// One compile request in flight: shared inputs plus the precomputed
/// content key and trip shape.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The loop to compile.
    pub loop_: Arc<LoopNest>,
    /// Target machine.
    pub machine: Arc<MachineConfig>,
    /// Compilation knobs (backend, marking, unrolling, profile …).
    pub request: Arc<CompileRequest>,
    /// Content address under the service's [`KeyMode`].
    pub key: ArtifactKey,
    /// The concrete trip shape symbolic instantiation restores.
    pub shape: TripShape,
}

impl ServiceRequest {
    /// Derives the key for `mode` and packages the request.
    pub fn new(
        loop_: Arc<LoopNest>,
        machine: Arc<MachineConfig>,
        request: Arc<CompileRequest>,
        mode: KeyMode,
    ) -> Self {
        let (key, shape) = compile_key(&loop_, &machine, &request, mode);
        ServiceRequest {
            loop_,
            machine,
            request,
            key,
            shape,
        }
    }

    /// A trip-count variant of this request that reuses the precomputed
    /// key — valid only under [`KeyMode::Symbolic`], where the key is
    /// trip-invariant by construction. (Under [`KeyMode::Exact`] the
    /// trips are part of the key, so variants must go through
    /// [`ServiceRequest::new`].)
    #[must_use]
    pub fn with_shape(&self, shape: TripShape) -> Self {
        let mut loop_ = (*self.loop_).clone();
        shape.apply(&mut loop_);
        ServiceRequest {
            loop_: Arc::new(loop_),
            machine: Arc::clone(&self.machine),
            request: Arc::clone(&self.request),
            key: self.key,
            shape,
        }
    }
}

/// Queue telemetry for one shard (or the merge across shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Deepest any shard queue got.
    pub max_depth: u64,
    /// Producer blocks on a full shard queue.
    pub backpressure_waits: u64,
}

impl QueueStats {
    /// Merge across shards: depths take the max, waits sum.
    #[must_use]
    pub fn merged(&self, other: &QueueStats) -> QueueStats {
        QueueStats {
            max_depth: self.max_depth.max(other.max_depth),
            backpressure_waits: self.backpressure_waits + other.backpressure_waits,
        }
    }
}

/// One failed compile, fully attributable: which artifact, which
/// compiler pass rejected it, and the error text. Without this a
/// shard-side failure was a bare `errors += 1` — invisible in
/// telemetry once the shard thread exited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Content address of the request that failed.
    pub key: ArtifactKey,
    /// Name of the pipeline pass that rejected it, when the error
    /// carries one (see `ScheduleError::pass_name`).
    pub pass: Option<String>,
    /// The scheduler's error, rendered.
    pub error: String,
}

/// What a replay reports: throughput, cache behaviour, queue health
/// and latency percentiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Human-readable pass description ("uncached", "exact", "symbolic").
    pub mode: String,
    /// Worker/shard count the pass ran with.
    pub workers: u64,
    /// Requests replayed.
    pub requests: u64,
    /// Requests served successfully.
    pub served: u64,
    /// Requests that failed to compile.
    pub errors: u64,
    /// End-to-end replay wall clock (telemetry; varies run to run).
    pub wall_micros: u64,
    /// Served requests per second of wall clock.
    pub compiles_per_sec: f64,
    /// Merged per-shard store counters.
    pub store: StoreStats,
    /// Cache hit fraction (0 for uncached passes).
    pub hit_rate: f64,
    /// Merged queue telemetry.
    pub queue: QueueStats,
    /// Median enqueue→served latency in microseconds.
    pub latency_p50_micros: u64,
    /// 99th-percentile enqueue→served latency in microseconds.
    pub latency_p99_micros: u64,
    /// Commutative checksum over served schedules (when enabled) —
    /// equal across passes iff every pass served identical artifacts.
    pub checksum: Option<u64>,
    /// Every failed compile, attributed to its artifact key and failing
    /// pass, in deterministic (key, error) order.
    pub failures: Vec<FailureRecord>,
}

/// What a shard caches: the direct schedule under exact keys, the
/// trip-independent template under symbolic keys (boxed — the template
/// holds two full candidate schedules, and store entries move through
/// the LRU index).
enum CachedArtifact {
    Exact(Box<Schedule>),
    Symbolic(Box<SymbolicArtifact>),
}

struct Job {
    req: ServiceRequest,
    enqueued: Instant,
}

struct QueueState<T> {
    q: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded MPSC queue: `push` blocks while full (counting the
/// blocks), `pop` blocks while empty, `close` drains and wakes.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, item: T) {
        let mut state = self.state.lock().unwrap();
        while state.q.len() >= self.capacity && !state.closed {
            state.stats.backpressure_waits += 1;
            state = self.not_full.wait(state).unwrap();
        }
        state.q.push_back(item);
        state.stats.max_depth = state.stats.max_depth.max(state.q.len() as u64);
        drop(state);
        self.not_empty.notify_one();
    }

    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.q.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn stats(&self) -> QueueStats {
        self.state.lock().unwrap().stats
    }
}

struct ShardOutcome {
    store: StoreStats,
    latencies: Vec<u64>,
    served: u64,
    errors: u64,
    failures: Vec<FailureRecord>,
    checksum: u64,
}

/// Serve one request against a shard's private store.
fn serve(
    store: &mut ArtifactStore<CachedArtifact>,
    config: &ServiceConfig,
    req: &ServiceRequest,
) -> Result<Schedule, ScheduleError> {
    if !config.caching {
        return req.request.compile(&req.loop_, &req.machine);
    }
    match config.key_mode {
        KeyMode::Exact => {
            if let Some(CachedArtifact::Exact(s)) = store.get(&req.key) {
                return Ok((**s).clone());
            }
            let s = req.request.compile(&req.loop_, &req.machine)?;
            let bytes = json_bytes(&s);
            store.insert(req.key, CachedArtifact::Exact(Box::new(s.clone())), bytes);
            Ok(s)
        }
        KeyMode::Symbolic => {
            if let Some(CachedArtifact::Symbolic(a)) = store.get(&req.key) {
                return req.request.instantiate(a, req.shape, &req.machine);
            }
            let a = req.request.compile_symbolic(&req.loop_, &req.machine)?;
            let s = req.request.instantiate(&a, req.shape, &req.machine)?;
            let bytes = json_bytes(&a);
            store.insert(req.key, CachedArtifact::Symbolic(Box::new(a)), bytes);
            Ok(s)
        }
    }
}

fn json_bytes<T: Serialize>(value: &T) -> u64 {
    serde_json::to_string(value)
        .map(|s| s.len() as u64)
        .unwrap_or(0)
}

/// Content digest of one served schedule, folded commutatively into the
/// pass checksum.
fn schedule_digest(s: &Schedule) -> u64 {
    KeyBuilder::new().field("schedule", s).finish().hi
}

fn run_shard(queue: &BoundedQueue<Job>, config: &ServiceConfig) -> ShardOutcome {
    let mut store: ArtifactStore<CachedArtifact> = ArtifactStore::new(config.store_capacity);
    let mut outcome = ShardOutcome {
        store: StoreStats::default(),
        latencies: Vec::new(),
        served: 0,
        errors: 0,
        failures: Vec::new(),
        checksum: 0,
    };
    while let Some(job) = queue.pop() {
        match serve(&mut store, config, &job.req) {
            Ok(s) => {
                outcome.served += 1;
                if config.checksum {
                    outcome.checksum = outcome.checksum.wrapping_add(schedule_digest(&s));
                }
            }
            Err(e) => {
                outcome.errors += 1;
                outcome.failures.push(FailureRecord {
                    key: job.req.key,
                    pass: e.pass_name().map(str::to_string),
                    error: e.to_string(),
                });
            }
        }
        outcome
            .latencies
            .push(job.enqueued.elapsed().as_micros() as u64);
    }
    outcome.store = store.stats();
    outcome
}

/// The service itself: holds a [`ServiceConfig`], replays request
/// streams.
#[derive(Debug, Clone, Default)]
pub struct CompileService {
    config: ServiceConfig,
}

impl CompileService {
    /// A service with the given tuning.
    pub fn new(config: ServiceConfig) -> Self {
        CompileService { config }
    }

    /// Replays `requests` through the sharded worker pool and reports.
    ///
    /// The calling thread is the producer: it routes each request to
    /// its key's shard, blocking when that shard's queue is full.
    pub fn replay(&self, requests: Vec<ServiceRequest>) -> ServiceReport {
        let config = &self.config;
        let workers = config.workers.max(1);
        let total = requests.len() as u64;
        let queues: Vec<BoundedQueue<Job>> = (0..workers)
            .map(|_| BoundedQueue::new(config.queue_capacity))
            .collect();
        let outcomes: Vec<Mutex<Option<ShardOutcome>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();

        let start = Instant::now();
        rayon::scope(|s| {
            for (queue, slot) in queues.iter().zip(&outcomes) {
                s.spawn(move || {
                    *slot.lock().unwrap() = Some(run_shard(queue, config));
                });
            }
            for req in requests {
                let shard = req.key.shard(workers);
                queues[shard].push(Job {
                    req,
                    enqueued: Instant::now(),
                });
            }
            for queue in &queues {
                queue.close();
            }
        });
        let wall_micros = (start.elapsed().as_micros() as u64).max(1);

        let queue_stats = queues
            .iter()
            .map(|q| q.stats())
            .fold(QueueStats::default(), |acc, s| acc.merged(&s));
        let mut store = StoreStats::default();
        let mut latencies = Vec::new();
        let mut served = 0;
        let mut errors = 0;
        let mut failures = Vec::new();
        let mut checksum = 0u64;
        for slot in &outcomes {
            let outcome = slot
                .lock()
                .unwrap()
                .take()
                .expect("every shard reports an outcome");
            store = store.merged(&outcome.store);
            latencies.extend(outcome.latencies);
            served += outcome.served;
            errors += outcome.errors;
            failures.extend(outcome.failures);
            checksum = checksum.wrapping_add(outcome.checksum);
        }
        // Shard completion order is scheduling noise; key order is not.
        failures.sort_by(|a, b| (a.key, &a.error).cmp(&(b.key, &b.error)));
        latencies.sort_unstable();

        ServiceReport {
            mode: if !config.caching {
                "uncached".into()
            } else {
                match config.key_mode {
                    KeyMode::Exact => "exact".into(),
                    KeyMode::Symbolic => "symbolic".into(),
                }
            },
            workers: workers as u64,
            requests: total,
            served,
            errors,
            wall_micros,
            compiles_per_sec: served as f64 / (wall_micros as f64 / 1_000_000.0),
            store,
            hit_rate: store.hit_rate(),
            queue: queue_stats,
            latency_p50_micros: percentile(&latencies, 50),
            latency_p99_micros: percentile(&latencies, 99),
            checksum: config.checksum.then_some(checksum),
            failures,
        }
    }
}

/// Ceiling nearest-rank percentile over an ascending-sorted sample:
/// the smallest value with at least `p`% of the sample at or below it
/// (0-based index `⌈len·p/100⌉ − 1`). The floor form
/// `(len−1)·p/100` underreports the tail on small samples — p99 of
/// 10 observations must be the maximum, not the 9th value.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;
    use vliw_sched::Arch;

    /// Trip-count variants of one loop body — the traffic shape the
    /// symbolic layer exists for. (Rebuilding through `LoopBuilder`
    /// per trip would also scale the array footprints, which is a
    /// *different body*, not a different bound.)
    fn requests(trips: &[u64], mode: KeyMode) -> Vec<ServiceRequest> {
        let machine = Arc::new(MachineConfig::micro2003());
        let request = Arc::new(CompileRequest::new(Arch::L0));
        let base = LoopBuilder::new("ew")
            .trip_count(1024)
            .elementwise(2)
            .build();
        trips
            .iter()
            .map(|&t| {
                let mut l = base.clone();
                l.trip_count = t;
                ServiceRequest::new(
                    Arc::new(l),
                    Arc::clone(&machine),
                    Arc::clone(&request),
                    mode,
                )
            })
            .collect()
    }

    fn config(mode: KeyMode, caching: bool) -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            key_mode: mode,
            caching,
            checksum: true,
            ..Default::default()
        }
    }

    #[test]
    fn percentile_is_ceiling_nearest_rank() {
        // Hand-computed: 10 samples 10..=100. p99 must be the maximum —
        // the floor form `(len-1)*p/100` lands on index 8 (value 90).
        let ten: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(percentile(&ten, 50), 50);
        assert_eq!(percentile(&ten, 90), 90);
        assert_eq!(percentile(&ten, 99), 100, "p99 of 10 samples is the max");
        assert_eq!(percentile(&ten, 100), 100);

        // Odd-length median and tail behaviour around rank boundaries.
        let five = [1u64, 2, 3, 4, 5];
        assert_eq!(percentile(&five, 50), 3);
        assert_eq!(percentile(&five, 20), 1, "p20 of 5 is exactly rank 1");
        assert_eq!(percentile(&five, 21), 2, "just past a boundary rounds up");
        assert_eq!(percentile(&five, 99), 5);

        // Degenerate samples.
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&five, 0), 1, "p0 clamps to the minimum");
    }

    #[test]
    fn symbolic_mode_hits_across_trip_variants() {
        let trips = [16u64, 64, 256, 1024, 16, 64, 4096, 16];
        let report = CompileService::new(config(KeyMode::Symbolic, true))
            .replay(requests(&trips, KeyMode::Symbolic));
        assert_eq!(report.served, trips.len() as u64);
        assert_eq!(report.errors, 0);
        // One template: everything after the first request hits.
        assert_eq!(report.store.misses, 1);
        assert_eq!(report.store.hits, trips.len() as u64 - 1);
        assert_eq!(report.store.insertions, 1);
    }

    #[test]
    fn exact_mode_only_hits_identical_trips() {
        let trips = [16u64, 64, 256, 1024, 16, 64, 4096, 16];
        let report = CompileService::new(config(KeyMode::Exact, true))
            .replay(requests(&trips, KeyMode::Exact));
        // Five distinct trip counts -> five misses; three repeats hit.
        assert_eq!(report.store.misses, 5);
        assert_eq!(report.store.hits, 3);
    }

    #[test]
    fn all_modes_serve_identical_artifacts() {
        let trips = [16u64, 64, 256, 1024, 16, 64, 4096, 16];
        let cold = CompileService::new(config(KeyMode::Symbolic, false))
            .replay(requests(&trips, KeyMode::Symbolic));
        let exact = CompileService::new(config(KeyMode::Exact, true))
            .replay(requests(&trips, KeyMode::Exact));
        let symbolic = CompileService::new(config(KeyMode::Symbolic, true))
            .replay(requests(&trips, KeyMode::Symbolic));
        assert_eq!(cold.checksum, exact.checksum);
        assert_eq!(cold.checksum, symbolic.checksum);
        assert!(cold.checksum.is_some());
    }

    #[test]
    fn uncached_pass_reports_no_store_traffic() {
        let report = CompileService::new(config(KeyMode::Symbolic, false))
            .replay(requests(&[8, 8, 8], KeyMode::Symbolic));
        assert_eq!(report.store.hits + report.store.misses, 0);
        assert_eq!(report.hit_rate, 0.0);
        assert_eq!(report.mode, "uncached");
        assert_eq!(report.served, 3);
    }

    #[test]
    fn backpressure_engages_on_tiny_queues() {
        // One worker, capacity-1 queue, many requests: the producer
        // must block at least once while the worker compiles.
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            checksum: false,
            ..Default::default()
        };
        let trips: Vec<u64> = (1..=24).map(|i| i * 8).collect();
        let report = CompileService::new(cfg).replay(requests(&trips, KeyMode::Symbolic));
        assert_eq!(report.served, 24);
        assert!(report.queue.max_depth >= 1);
        assert!(report.queue.backpressure_waits >= 1);
    }

    #[test]
    fn lru_capacity_forces_evictions_in_service() {
        let cfg = ServiceConfig {
            workers: 1,
            store_capacity: Some(2),
            key_mode: KeyMode::Exact,
            checksum: false,
            ..Default::default()
        };
        // Six distinct artifacts cycled twice through a 2-entry store:
        // every round-trip re-misses.
        let trips: Vec<u64> = (1..=6).chain(1..=6).map(|i| i * 16).collect();
        let report = CompileService::new(cfg).replay(requests(&trips, KeyMode::Exact));
        assert!(report.store.evictions > 0);
        assert_eq!(
            report.store.misses, 12,
            "2-entry LRU cannot hold 6 artifacts"
        );
    }

    #[test]
    fn failures_are_attributed_to_key_and_pass() {
        // An L0 request against a machine without L0 buffers fails in
        // the `lower` pass; the report must say so, per artifact key.
        let machine = Arc::new(MachineConfig::micro2003().without_l0());
        let request = Arc::new(CompileRequest::new(Arch::L0));
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let reqs: Vec<ServiceRequest> = (0..3)
            .map(|_| {
                ServiceRequest::new(
                    Arc::new(l.clone()),
                    Arc::clone(&machine),
                    Arc::clone(&request),
                    KeyMode::Exact,
                )
            })
            .collect();
        let expected_key = reqs[0].key;
        let report = CompileService::new(config(KeyMode::Exact, false)).replay(reqs);
        assert_eq!(report.served, 0);
        assert_eq!(report.errors, 3);
        assert_eq!(report.failures.len(), 3);
        for f in &report.failures {
            assert_eq!(f.key, expected_key);
            assert_eq!(f.pass.as_deref(), Some("lower"), "failing pass is named");
            assert!(f.error.contains("L0 configuration"), "{}", f.error);
        }
    }

    #[test]
    fn successful_replays_report_empty_failures() {
        let report = CompileService::new(config(KeyMode::Symbolic, true))
            .replay(requests(&[16, 64], KeyMode::Symbolic));
        assert_eq!(report.errors, 0);
        assert!(report.failures.is_empty());
    }
}
