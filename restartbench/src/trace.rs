//! Benchmark-side spans for the traced run.
//!
//! Every call the benchmark makes into a layer's public functions can be
//! wrapped in a span: name, start, end, parent span and request id. Spans
//! stay in memory and are written out once, when the run ends. A disabled
//! [`Trace`] records nothing and never reads the clock, so untraced runs
//! pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified call name, e.g. `leaf.start`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or restart cycle) the span belongs to.
    pub request: u64,
}

/// Handle returned by [`Trace::begin`]; pass it to [`Trace::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    on: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Trace {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Trace {
        Trace {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Self::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
                self.open.remove(pos);
            }
        }
    }

    /// Record a span whose start and end the caller measured itself (an
    /// open-loop request timed from its intended send).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Move another thread's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per span name (duration minus what direct children cover),
    /// summed, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        let id = t.begin("leaf.start", 1);
        t.end(id);
        t.record("leaf.query", 1, Instant::now(), Instant::now());
        assert!(t.durations_ms("leaf.start").is_empty());
    }

    #[test]
    fn nesting_and_self_time() {
        let mut t = Trace::new(true, Instant::now());
        let outer = t.begin("cycle", 7);
        let inner = t.begin("leaf.start", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 7);
        let own = t.self_ms();
        assert!(own["leaf.start"] >= 2.0);
        assert!(own["cycle"] < own["leaf.start"]);

        let mut other = Trace::new(true, t.epoch);
        let a = other.begin("cluster.query", 9);
        let b = other.begin("cluster.leg", 9);
        other.end(b);
        other.end(a);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, Some(2));
    }
}
