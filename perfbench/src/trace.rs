//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds its name (`layer.call`), start and end (ns since the
//! tracer started), its parent span, and the id of the group or request
//! it belongs to. Spans stay in memory until the run ends and are then
//! written as hand-written JSON. Self time — a span's duration minus the
//! part its children cover — is derived from the spans alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: usize,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's own duration, ns (for percentiles).
    pub durs_ns: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `group`.
    pub fn set_group(&mut self, group: usize) {
        self.group = group;
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// matching [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            group: self.group,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times one leaf call.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = call();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time from the first span's start to the last span's end.
    pub fn covered_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        end - start
    }

    /// Count, total, self time and durations per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.dur_ns();
            entry.self_ns += span.dur_ns().saturating_sub(children);
            entry.durs_ns.push(span.dur_ns() as f64);
        }
        totals
    }

    /// Self time per layer (the span name up to its first `.`), leaving
    /// out the spans named in `skip`.
    pub fn layer_self_ns(&self, skip: &[&str]) -> BTreeMap<String, u64> {
        let mut layers = BTreeMap::new();
        for (name, t) in self.totals() {
            if skip.contains(&name) {
                continue;
            }
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *layers.entry(layer).or_insert(0) += t.self_ns;
        }
        layers
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, s.group
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Host cost of recording one span (enter + exit), ns, measured on a
/// scratch tracer — the numerator of `trace.overhead_frac`.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut scratch = Tracer::new();
    scratch.spans.reserve(PAIRS);
    let t = Instant::now();
    for _ in 0..PAIRS {
        scratch.enter("calibrate");
        scratch.exit();
    }
    std::hint::black_box(&scratch.spans);
    t.elapsed().as_nanos() as f64 / PAIRS as f64
}
