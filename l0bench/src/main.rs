//! Benchmark of the clustered-VLIW L0 stack: one workload per process,
//! every layer driven from this thread through the crates' public entry
//! points, every output checked, every metric printed by name and unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path l0bench/Cargo.toml -- \
//!     --workload paper_suite --seed 1 --seconds 55 --trace 0
//! ```
//!
//! A run builds its inputs, then repeats whole passes over them until
//! `--seconds` have elapsed (`wall_s` is the timed phase per pass,
//! `ops_per_s` its throughput), checking each op's output outside the
//! timed window and rebuilding the inputs between passes (`setup_s` is
//! the mean build), and finally runs the workload's oracle gate. The last line of stdout is one JSON object:
//! `correct`, `attempted`, `failed` and the metrics — the end-to-end set
//! with `--trace 0`, the per-layer set with `--trace 1`. A traced run
//! alternates traced and untraced passes, so it also reports the tracing
//! overhead, and writes its spans to
//! `l0bench/traces/<workload>-<seed>.jsonl`.

mod compile_sim;
mod metrics;
mod service;
mod trace;

use metrics::{mean, Metrics};
use std::time::Instant;
use trace::Tracer;

/// Between passes the inputs are rebuilt (and dropped) until at least
/// this many seconds have passed, so set-up is timed across the whole
/// run, under the same mix of host speeds as the passes.
const SETUP_SLICE_S: f64 = 0.01;

/// Passes every run makes even when `--seconds` is shorter (a traced run
/// needs at least two traced and two untraced passes).
const MIN_PASSES: usize = 4;

/// One pass's measured outcome.
pub struct PassOutcome {
    /// Seconds inside the timed layer calls.
    pub timed_s: f64,
    /// Ops whose output failed a check.
    pub failed: u64,
}

/// Set-up time split by the layer that did the work.
pub struct SetupTimes {
    /// Suite and Zipf-mix generation (`vliw-workloads`).
    pub gen_s: f64,
    /// Service key hashing (`materialize_mix`, `vliw-service`).
    pub key_s: f64,
}

/// What each workload implements; the harness owns timing and output.
pub trait Workload {
    /// Ops in one pass (the unit of `ops_per_s`).
    fn ops_per_pass(&self) -> u64;
    /// Runs one pass: the timed layer calls, each followed by its
    /// untimed output check.
    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome;
    /// After the timed phase: the untimed oracle gate over the checked
    /// first-pass outputs. Returns the ops that failed it.
    fn gate(&mut self, tr: &mut Tracer) -> u64;
    /// Deterministic cycle total of one pass's outputs.
    fn cycles(&self) -> u64;
    /// Per-layer metrics from the traced passes' spans (`passes`: self
    /// seconds by stem, one map per traced pass) and the workload's own
    /// counters.
    fn layer_metrics(&self, tr: &Tracer, passes: &[&metrics::Stems], m: &mut Metrics);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds a workload's inputs from the seed (the timed phase uses nothing
/// else).
fn setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    Ok(match name {
        "paper_suite" => compile_sim::paper_suite(),
        "service_zipf" => service::setup(seed),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Seconds of every input build of a run: in total and by layer.
#[derive(Default)]
struct SetupSamples {
    total_s: Vec<f64>,
    gen_s: Vec<f64>,
    key_s: Vec<f64>,
}

impl SetupSamples {
    /// Builds the inputs once, timed.
    fn build(&mut self, args: &Args) -> Box<dyn Workload> {
        let t0 = Instant::now();
        let (w, times) = setup(&args.workload, args.seed).unwrap_or_else(|e| {
            eprintln!("l0bench: {e}");
            std::process::exit(2);
        });
        self.total_s.push(t0.elapsed().as_secs_f64());
        self.gen_s.push(times.gen_s);
        self.key_s.push(times.key_s);
        w
    }
}

/// Peak resident set of this process so far in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("l0bench: {e}");
        std::process::exit(2);
    });

    // Set-up: build every input the timed phase uses.
    let mut builds = SetupSamples::default();
    let mut w = builds.build(&args);

    // Timed phase: whole passes until the time is up. A traced run
    // traces every other pass, so traced and untraced passes see the
    // same machine state and their difference is the tracing overhead.
    let mut tr = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut pass = 0u32;
    while (pass as usize) < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let on = args.trace && pass % 2 == 1;
        tr.start_pass(pass, on);
        let out = w.pass(&mut tr);
        failed += out.failed;
        if on { &mut traced } else { &mut untraced }.push(out.timed_s);
        pass += 1;
        let slice = Instant::now();
        while slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
            drop(builds.build(&args));
        }
    }
    let peak_rss = peak_rss_mb();
    let timed_phase_s = start.elapsed().as_secs_f64();
    tr.start_pass(pass, args.trace);
    let attempted = w.ops_per_pass() * u64::from(pass);
    let gate_start = Instant::now();
    failed = (failed + w.gate(&mut tr)).min(attempted);
    let gate_s = gate_start.elapsed().as_secs_f64();

    let mut m = Metrics::default();
    if args.trace {
        let by_pass = tr.self_time_by_pass();
        let traced_passes: Vec<&metrics::Stems> = (0..pass)
            .filter(|p| p % 2 == 1)
            .filter_map(|p| by_pass.get(&p))
            .collect();
        m.put("workloads.gen_s", mean(&builds.gen_s));
        m.put("service.key_s", mean(&builds.key_s));
        m.put("trace.overhead_s", mean(&traced) - mean(&untraced));
        w.layer_metrics(&tr, &traced_passes, &mut m);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("l0bench: cannot write {}: {e}", path.display());
        }
        m.finish_per_layer();
    } else {
        // Pass and build times are bimodal on a shared VM (the host flips
        // between speed states for seconds at a time), and a median jumps
        // between the modes as their shares move; the mean moves
        // smoothly, so `wall_s` is the timed phase per pass, `ops_per_s`
        // its throughput and `setup_s` the mean build.
        m.put("setup_s", mean(&builds.total_s));
        m.put("wall_s", mean(&untraced));
        m.put("ops_per_s", w.ops_per_pass() as f64 / mean(&untraced));
        m.put("peak_rss_mb", peak_rss);
        m.put("ok_frac", 1.0 - failed as f64 / attempted as f64);
        m.put("cycles", w.cycles() as f64);
        m.finish_end_to_end();
    }
    eprintln!(
        "l0bench: {} seed {}: {attempted} ops, {failed} failed; set-up {} x {:.6} s (mean), \
         passes {timed_phase_s:.2} s (untraced {untraced:.3?}, traced {traced:.3?}), gate {gate_s:.2} s",
        args.workload,
        args.seed,
        builds.total_s.len(),
        mean(&builds.total_s),
    );
    println!("{}", m.to_json(failed == 0, attempted, failed));
}
