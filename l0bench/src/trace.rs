//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around each call into a
//! layer (crate); nothing inside the program is instrumented. Every span
//! names its layer call (`"sched.compile"`), an optional metric stem it
//! also counts towards (`"sim.unified-l0"`), the pass and op it belongs
//! to, and its parent span. Spans of one op share the op id. With tracing
//! off, `begin`/`end` record nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sched.compile`.
    pub name: &'static str,
    /// Extra metric stem this span's time also counts towards (`""` for
    /// none), e.g. the memory model a simulation ran against.
    pub tag: &'static str,
    /// Timed pass the span belongs to.
    pub pass: u32,
    /// Op the span belongs to (shared by every span of one op).
    pub op: u32,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the span name up to its first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle for an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<u32>);

/// The recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            pass: 0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts pass `pass`, recording its spans when `on`.
    pub fn start_pass(&mut self, pass: u32, on: bool) {
        self.pass = pass;
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Moves on to the next op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str, tag: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            tag,
            pass: self.pass,
            op: self.op,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Per traced pass: seconds of *self* time (duration minus the part
    /// its child spans cover) summed by metric stem — the span name,
    /// its layer, and its tag.
    pub fn self_time_by_pass(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let secs = s.dur_ns().saturating_sub(child) as f64 * 1e-9;
            let pass = out.entry(s.pass).or_default();
            for stem in [s.name, s.layer(), s.tag] {
                if !stem.is_empty() {
                    *pass.entry(stem).or_default() += secs;
                }
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"op\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.pass, s.op, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
