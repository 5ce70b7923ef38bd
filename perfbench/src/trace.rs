//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, summarised into per-layer metrics and
//! written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. `op` is shared by every span of one op; `parent`
/// indexes the enclosing span in the same [`Tracer`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.elaborate`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// across the tracers of concurrent threads).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new op: later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let idx = self
            .open
            .pop()
            .expect("Tracer::exit without a matching enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        Duration::from_nanos(span.dur_ns())
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The innermost open span, if any.
    pub fn open_span(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Records a span measured elsewhere (e.g. by the server) under
    /// `parent`, returning its index.
    pub fn record_remote(
        &mut self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child spans), ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e6
    }
}

/// Sums every span by name, with self times.
pub fn summarise(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.dur_ns();
        }
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.dur_ns();
        t.self_ns += span.dur_ns().saturating_sub(children);
    }
    out
}

/// Writes `spans` as JSON lines (`id` is the span's index) to `path`,
/// creating its directory.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{id},"op":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Concatenates the spans of several tracers, re-basing parent indices and
/// giving each tracer's ops a disjoint id range.
pub fn merge(tracers: &[Tracer]) -> Vec<Span> {
    let mut out = Vec::new();
    let mut op_base = 0;
    for t in tracers {
        let base = out.len();
        out.extend(t.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            op: s.op + op_base,
            ..s.clone()
        }));
        op_base += t.op;
    }
    out
}
