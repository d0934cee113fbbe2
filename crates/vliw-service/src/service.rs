//! The sharded compile service: bounded per-shard queues, one worker
//! per shard, per-shard private artifact stores.
//!
//! Requests are routed by content key ([`ArtifactKey::shard`]), so all
//! requests for one artifact land on one shard — each shard's
//! [`ArtifactStore`] is single-owner (no locks on the serve path) and
//! its hit/miss sequence is a deterministic function of the request
//! stream. Each shard's queue is a bounded `std::sync::mpsc`
//! `sync_channel` drained by one `std::thread::scope` worker; the
//! calling thread is the producer and hangs up once the stream is
//! routed, which ends the workers. A full queue blocks the producer
//! (backpressure), and both the block count and the high-water queue
//! depth are reported, so saturation is visible in the artifact rather
//! than silently absorbed. A compiler panic fails its request only:
//! every compile and instantiation runs behind one panic boundary.
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
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::Arc;
use std::thread;
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
    /// (serialization cost per stored or freshly compiled schedule;
    /// enable on verification passes).
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

/// Queue telemetry of one replay, across its shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Deepest any shard queue got, as seen by the producer after each
    /// send (at most the queue capacity).
    pub max_depth: u64,
    /// Sends that found their shard's queue full and blocked.
    pub backpressure_waits: u64,
}

/// One failed compile, fully attributable: which artifact, which
/// compiler pass rejected it, and the error text. Without this a
/// shard-side failure was a bare `errors += 1` — invisible in
/// telemetry once the shard thread exited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Content address of the request that failed.
    pub key: ArtifactKey,
    /// Name of the compile pass that rejected it, when the error
    /// carries one (see `ScheduleError::pass_name`); `None` when the
    /// compiler panicked.
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
    /// `CompileRequest::instantiate` calls: at most one per distinct
    /// (template, trip shape) while the template's instance memo holds,
    /// plus one per request whose instantiation failed. A deterministic
    /// work count (0 outside symbolic caching).
    pub instantiations: u64,
    /// End-to-end replay wall clock (telemetry; varies run to run).
    pub wall_micros: u64,
    /// Served requests per second of wall clock.
    pub compiles_per_sec: f64,
    /// Merged per-shard store counters.
    pub store: StoreStats,
    /// Cache hit fraction (0 for uncached passes).
    pub hit_rate: f64,
    /// Queue telemetry across shards.
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

/// What a shard caches: the shared direct schedule under exact keys,
/// the trip-independent template with its instance memo under symbolic
/// keys (boxed — the template holds two full candidate schedules, and
/// store entries move through the LRU index), or the failure of the
/// key's compile, so a repeat of a failing key is answered without
/// compiling again. A hit on a schedule — an exact entry or a memoized
/// instance — hands out an `Arc::clone` of the stored object.
enum CachedArtifact {
    Exact(Served),
    Symbolic(Box<Template>),
    Failed(FailureRecord),
}

/// A schedule as the service hands it out: shared by every request it
/// answers, with its checksum digest taken once when the pass
/// checksums.
#[derive(Clone)]
struct Served {
    #[allow(dead_code, reason = "what a client receives; a replay only counts it")]
    schedule: Arc<Schedule>,
    digest: Option<u64>,
}

impl Served {
    fn new(schedule: Schedule, checksum: bool) -> Self {
        Served {
            digest: checksum.then(|| schedule_digest(&schedule)),
            schedule: Arc::new(schedule),
        }
    }
}

/// A symbolic store entry: the template plus the schedules it has been
/// instantiated to, by trip shape. The memo lives and is evicted with
/// its template; under a bounded store it holds at most
/// `store_capacity` instances and starts over before it would exceed
/// that.
struct Template {
    artifact: SymbolicArtifact,
    instances: HashMap<TripShape, Served>,
}

impl Template {
    /// The instance of this template for `req`'s trip shape. Only a
    /// successful instantiation is memoized: a failure concerns one
    /// request and is reported again for the next.
    fn instance(
        &mut self,
        req: &ServiceRequest,
        config: &ServiceConfig,
        instantiations: &mut u64,
    ) -> Result<Served, FailureRecord> {
        if let Some(served) = self.instances.get(&req.shape) {
            return Ok(served.clone());
        }
        *instantiations += 1;
        let schedule = guarded(req.key, || {
            req.request.instantiate(&self.artifact, req.shape)
        })?;
        let served = Served::new(schedule, config.checksum);
        if let Some(cap) = config.store_capacity {
            if self.instances.len() >= cap.max(1) {
                self.instances.clear();
            }
        }
        self.instances.insert(req.shape, served.clone());
        Ok(served)
    }
}

struct Job {
    req: ServiceRequest,
    enqueued: Instant,
}

#[derive(Default)]
struct ShardOutcome {
    store: StoreStats,
    latencies: Vec<u64>,
    served: u64,
    instantiations: u64,
    failures: Vec<FailureRecord>,
    checksum: u64,
}

/// Runs one compiler step of serving `key` (a compile or an
/// instantiation), turning an error or a panic into the key's
/// [`FailureRecord`]. This is the service's one panic boundary: a
/// compiler panic fails its request only, and the shard's store stays
/// usable because `serve` touches it only before and after a step.
fn guarded<T>(
    key: ArtifactKey,
    compile: impl FnOnce() -> Result<T, ScheduleError>,
) -> Result<T, FailureRecord> {
    let (pass, error) = match panic::catch_unwind(AssertUnwindSafe(compile)) {
        Ok(Ok(compiled)) => return Ok(compiled),
        Ok(Err(e)) => (e.pass_name().map(str::to_string), e.to_string()),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            (None, format!("compiler panicked: {message}"))
        }
    };
    Err(FailureRecord { key, pass, error })
}

/// Serve one request against a shard's private store, counting
/// `instantiate` calls into `instantiations`. A failed compile is
/// stored under the key like an artifact, so repeats fail from the
/// store; a failed instantiation concerns one trip shape and is not.
fn serve(
    store: &mut ArtifactStore<CachedArtifact>,
    config: &ServiceConfig,
    req: &ServiceRequest,
    instantiations: &mut u64,
) -> Result<Served, FailureRecord> {
    let key = req.key;
    let compile = || req.request.compile(&req.loop_, &req.machine);
    if !config.caching {
        return guarded(key, compile).map(|s| Served::new(s, config.checksum));
    }
    match (config.key_mode, store.get_mut(&key)) {
        (_, Some(CachedArtifact::Failed(f))) => Err(f.clone()),
        (KeyMode::Exact, Some(CachedArtifact::Exact(s))) => Ok(s.clone()),
        (KeyMode::Symbolic, Some(CachedArtifact::Symbolic(t))) => {
            t.instance(req, config, instantiations)
        }
        (KeyMode::Exact, _) => {
            let served = guarded(key, compile).map(|s| Served::new(s, config.checksum));
            let entry = match &served {
                Ok(s) => CachedArtifact::Exact(s.clone()),
                Err(f) => CachedArtifact::Failed(f.clone()),
            };
            store.insert(key, entry);
            served
        }
        (KeyMode::Symbolic, _) => {
            let artifact = guarded(key, || {
                req.request.compile_symbolic(&req.loop_, &req.machine)
            })
            .inspect_err(|f| {
                store.insert(key, CachedArtifact::Failed(f.clone()));
            })?;
            let mut template = Box::new(Template {
                artifact,
                instances: HashMap::new(),
            });
            let served = template.instance(req, config, instantiations);
            store.insert(key, CachedArtifact::Symbolic(template));
            served
        }
    }
}

/// Content digest of one served schedule, folded commutatively into the
/// pass checksum. Taken once per stored or freshly compiled schedule.
fn schedule_digest(s: &Schedule) -> u64 {
    KeyBuilder::new().field("schedule", s).finish().hi
}

/// Drains one shard's queue until the producer hangs up, counting each
/// job into `taken` as it leaves the queue.
fn run_shard(jobs: Receiver<Job>, taken: &AtomicU64, config: &ServiceConfig) -> ShardOutcome {
    let mut store: ArtifactStore<CachedArtifact> = ArtifactStore::new(config.store_capacity);
    let mut outcome = ShardOutcome::default();
    for job in jobs {
        taken.fetch_add(1, Ordering::Relaxed);
        match serve(&mut store, config, &job.req, &mut outcome.instantiations) {
            Ok(s) => {
                outcome.served += 1;
                if let Some(digest) = s.digest {
                    outcome.checksum = outcome.checksum.wrapping_add(digest);
                }
            }
            Err(failure) => outcome.failures.push(failure),
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
    /// its key's shard, blocking when that shard's queue is full. A
    /// panic outside the compiler (a service bug) is re-raised here.
    pub fn replay(&self, requests: Vec<ServiceRequest>) -> ServiceReport {
        let config = &self.config;
        let workers = config.workers.max(1);
        let total = requests.len() as u64;
        let capacity = config.queue_capacity.max(1);
        let taken: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let mut queue = QueueStats::default();

        let start = Instant::now();
        let outcomes: Vec<ShardOutcome> = thread::scope(|s| {
            let (senders, shards): (Vec<_>, Vec<_>) = taken
                .iter()
                .map(|taken| {
                    let (tx, rx) = mpsc::sync_channel(capacity);
                    (tx, s.spawn(move || run_shard(rx, taken, config)))
                })
                .unzip();
            let mut pushed = vec![0u64; workers];
            for req in requests {
                let shard = req.key.shard(workers);
                let job = Job {
                    req,
                    enqueued: Instant::now(),
                };
                let sent = match senders[shard].try_send(job) {
                    Err(TrySendError::Full(job)) => {
                        queue.backpressure_waits += 1;
                        senders[shard].send(job).is_ok()
                    }
                    sent => sent.is_ok(),
                };
                // Only a panicked shard hangs up; its join re-raises it.
                if !sent {
                    break;
                }
                pushed[shard] += 1;
                // Clamped: a job is counted taken just after it leaves.
                let depth = pushed[shard] - taken[shard].load(Ordering::Relaxed);
                queue.max_depth = queue.max_depth.max(depth.min(capacity as u64));
            }
            drop(senders);
            shards
                .into_iter()
                .map(|shard| shard.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        });
        let wall_micros = (start.elapsed().as_micros() as u64).max(1);

        let mut store = StoreStats::default();
        let mut latencies = Vec::new();
        let mut served = 0;
        let mut instantiations = 0;
        let mut failures = Vec::new();
        let mut checksum = 0u64;
        for outcome in outcomes {
            store = store.merged(&outcome.store);
            latencies.extend(outcome.latencies);
            served += outcome.served;
            instantiations += outcome.instantiations;
            failures.extend(outcome.failures);
            checksum = checksum.wrapping_add(outcome.checksum);
        }
        // Which shard serves a key depends on the worker count; key
        // order does not.
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
            errors: failures.len() as u64,
            instantiations,
            wall_micros,
            compiles_per_sec: served as f64 / (wall_micros as f64 / 1_000_000.0),
            store,
            hit_rate: store.hit_rate(),
            queue,
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
    use std::collections::HashSet;
    use vliw_ir::{DepEdge, DepKind, LoopBuilder, OpId};
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
        // Five distinct trip shapes, each instantiated once.
        assert_eq!(report.instantiations, 5);
    }

    #[test]
    fn exact_mode_only_hits_identical_trips() {
        let trips = [16u64, 64, 256, 1024, 16, 64, 4096, 16];
        let report = CompileService::new(config(KeyMode::Exact, true))
            .replay(requests(&trips, KeyMode::Exact));
        // Five distinct trip counts -> five misses; three repeats hit.
        assert_eq!(report.store.misses, 5);
        assert_eq!(report.store.hits, 3);
        assert_eq!(report.instantiations, 0);
    }

    /// Serves `reqs` in order against one fresh shard store, returning
    /// the store and the `instantiate` count with the results.
    fn serve_in_order(
        cfg: &ServiceConfig,
        reqs: &[ServiceRequest],
        store: &mut ArtifactStore<CachedArtifact>,
    ) -> (Vec<Result<Served, FailureRecord>>, u64) {
        let mut instantiations = 0;
        let served = reqs
            .iter()
            .map(|r| serve(store, cfg, r, &mut instantiations))
            .collect();
        (served, instantiations)
    }

    #[test]
    fn repeated_requests_share_one_schedule() {
        for mode in [KeyMode::Exact, KeyMode::Symbolic] {
            let cfg = config(mode, true);
            let mut store = ArtifactStore::new(None);
            let (served, instantiations) =
                serve_in_order(&cfg, &requests(&[64, 256, 64], mode), &mut store);
            let s: Vec<Served> = served.into_iter().map(|r| r.expect("serves")).collect();
            assert!(Arc::ptr_eq(&s[0].schedule, &s[2].schedule), "{mode:?}");
            assert!(!Arc::ptr_eq(&s[0].schedule, &s[1].schedule), "{mode:?}");
            assert!(s[0].digest.is_some() && s[0].digest == s[2].digest);
            let expected = if mode == KeyMode::Symbolic { 2 } else { 0 };
            assert_eq!(instantiations, expected, "{mode:?}");
        }
    }

    #[test]
    fn a_bounded_store_bounds_each_instance_memo() {
        let cfg = ServiceConfig {
            store_capacity: Some(2),
            ..config(KeyMode::Symbolic, true)
        };
        let trips = [16u64, 32, 64, 128, 256, 1024, 16, 4096, 64, 32];
        let mut store = ArtifactStore::new(cfg.store_capacity);
        let mut instantiations = 0;
        for req in requests(&trips, KeyMode::Symbolic) {
            serve(&mut store, &cfg, &req, &mut instantiations).expect("serves");
            let Some(CachedArtifact::Symbolic(t)) = store.peek(&req.key) else {
                panic!("the template is stored");
            };
            assert!(t.instances.len() <= 2, "{} instances", t.instances.len());
        }
        let cold = CompileService::new(config(KeyMode::Symbolic, false))
            .replay(requests(&trips, KeyMode::Symbolic));
        let bounded = CompileService::new(cfg).replay(requests(&trips, KeyMode::Symbolic));
        assert!(cold.checksum.is_some());
        assert_eq!(bounded.checksum, cold.checksum);
    }

    #[test]
    fn failed_instantiations_are_not_memoized() {
        let cfg = config(KeyMode::Symbolic, true);
        let reqs = requests(&[64, 64], KeyMode::Symbolic);
        let req = &reqs[0];
        let mut artifact = req
            .request
            .compile_symbolic(&req.loop_, &req.machine)
            .expect("template compiles");
        // A template altered after it was compiled: no candidate meets
        // its MII, so every instantiation fails the legality re-check.
        artifact.flat.mii = artifact.flat.ii() + 1;
        if let Some(u) = &mut artifact.unrolled {
            u.mii = u.ii() + 1;
        }
        let template = Template {
            artifact,
            instances: HashMap::new(),
        };
        let mut store = ArtifactStore::new(None);
        store.insert(req.key, CachedArtifact::Symbolic(Box::new(template)));
        let (served, instantiations) = serve_in_order(&cfg, &reqs, &mut store);
        for r in served {
            let f = r.err().expect("instantiation fails");
            assert!(f.error.contains("below MII"), "{}", f.error);
        }
        assert_eq!(instantiations, 2, "each request instantiates again");
        let Some(CachedArtifact::Symbolic(t)) = store.peek(&req.key) else {
            panic!("the template stays stored");
        };
        assert!(t.instances.is_empty());
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
        assert!(report.queue.max_depth <= cfg.queue_capacity as u64);
        assert!(report.queue.backpressure_waits >= 1);
    }

    #[test]
    fn reports_are_invariant_under_worker_count() {
        // Several bodies spread the keys over the shards; every request
        // against the machine without L0 buffers fails.
        let machine = MachineConfig::micro2003();
        let machines = [machine.without_l0(), machine].map(Arc::new);
        let request = Arc::new(CompileRequest::new(Arch::L0));
        let bodies = [
            LoopBuilder::new("ew").elementwise(2).build(),
            LoopBuilder::new("red").reduction(4).build(),
            LoopBuilder::new("st").stencil3(2).build(),
        ];
        let mut reqs = Vec::new();
        for trip in [16u64, 64, 256, 16, 1024] {
            for body in &bodies {
                for machine in &machines {
                    let mut l = body.clone();
                    l.trip_count = trip;
                    let (m, r) = (Arc::clone(machine), Arc::clone(&request));
                    reqs.push(ServiceRequest::new(Arc::new(l), m, r, KeyMode::Symbolic));
                }
            }
        }
        let shards: HashSet<usize> = reqs.iter().map(|r| r.key.shard(4)).collect();
        assert!(shards.len() > 1, "the keys spread over the shards");
        let outcome = |workers| {
            let cfg = ServiceConfig {
                workers,
                queue_capacity: 1,
                ..config(KeyMode::Symbolic, true)
            };
            let r = CompileService::new(cfg).replay(reqs.clone());
            let counts = (r.served, r.errors, r.instantiations, r.checksum);
            let store = (r.store.hits, r.store.misses, r.store.insertions);
            (counts, store, r.failures)
        };
        let one = outcome(1);
        let (served, errors, ..) = one.0;
        assert!(served > 0 && errors > 0, "the mix serves and fails");
        assert_eq!(outcome(2), one);
        assert_eq!(outcome(4), one);
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
    fn exact_keys_store_failed_compiles() {
        let machine = Arc::new(MachineConfig::micro2003().without_l0());
        let request = Arc::new(CompileRequest::new(Arch::L0));
        let l = Arc::new(LoopBuilder::new("ew").trip_count(64).elementwise(2).build());
        let reqs: Vec<ServiceRequest> = (0..3)
            .map(|_| {
                ServiceRequest::new(
                    Arc::clone(&l),
                    Arc::clone(&machine),
                    Arc::clone(&request),
                    KeyMode::Exact,
                )
            })
            .collect();
        let report = CompileService::new(config(KeyMode::Exact, true)).replay(reqs);
        assert_eq!(report.errors, 3);
        assert_eq!((report.store.misses, report.store.hits), (1, 2));
        assert!(report.failures.iter().all(|f| f == &report.failures[0]));
    }

    #[test]
    fn a_panicking_compile_fails_its_request_without_hanging_the_replay() {
        // A dangling dependence edge panics inside the compiler. With one
        // worker behind a capacity-1 queue, a dead shard would leave the
        // producer blocked on the full queue forever.
        let mut l = LoopBuilder::new("dangling")
            .trip_count(64)
            .elementwise(2)
            .build();
        l.edges.push(DepEdge {
            src: OpId(999),
            dst: OpId(0),
            kind: DepKind::Reg,
            distance: 0,
        });
        let machine = Arc::new(MachineConfig::micro2003());
        let request = Arc::new(CompileRequest::new(Arch::L0));
        let reqs: Vec<ServiceRequest> = (0..5)
            .map(|_| {
                ServiceRequest::new(
                    Arc::new(l.clone()),
                    Arc::clone(&machine),
                    Arc::clone(&request),
                    KeyMode::Symbolic,
                )
            })
            .collect();
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..Default::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let replay = std::thread::spawn(move || {
            let _ = tx.send(CompileService::new(cfg).replay(reqs));
        });
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("replay returns instead of hanging");
        replay.join().expect("replay thread exits cleanly");
        assert_eq!(report.served, 0);
        assert_eq!(report.errors, 5);
        assert_eq!(report.failures.len(), 5);
        for f in &report.failures {
            assert_eq!(f.pass, None, "a panic names no pass");
            assert!(f.error.starts_with("compiler panicked: "), "{}", f.error);
            assert_eq!(f, &report.failures[0], "repeats fail from the store");
        }
        // The key compiles once; its four repeats are answered by the
        // stored failure.
        assert_eq!(report.store.misses, 1);
        assert_eq!(report.store.hits, 4);
    }

    #[test]
    fn successful_replays_report_empty_failures() {
        let report = CompileService::new(config(KeyMode::Symbolic, true))
            .replay(requests(&[16, 64], KeyMode::Symbolic));
        assert_eq!(report.errors, 0);
        assert!(report.failures.is_empty());
    }
}
