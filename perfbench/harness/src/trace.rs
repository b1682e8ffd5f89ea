//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness around each call into a layer's
//! public functions: name, start, end, the enclosing span, and counts
//! attached at the same boundary. Nothing is written while a run is
//! measured; [`Tracer::write_jsonl`] dumps every span once the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    counts: Vec<(&'static str, u64)>,
}

/// Records spans for one workload. Spans nest through an explicit stack:
/// the span open when another is entered becomes its parent.
pub struct Tracer {
    workload: &'static str,
    pass: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A recorder for pass `pass` of `workload`; the pass number tags every
    /// span written, since one trace file collects several passes.
    pub fn new(workload: &'static str, pass: u32) -> Tracer {
        Tracer {
            workload,
            pass,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            counts: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Close `id` under a name chosen only once the call returned (a watch
    /// `observe` is a fold or an advance depending on its result).
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
        self.exit(id);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attach a count to span `id`.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: u64) {
        self.spans[id as usize].counts.push((name, value));
    }

    /// Duration of span `id`, in seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time per span name, in seconds, over the spans nested under
    /// `root` (the root itself included): each span's duration minus the
    /// part its direct children cover. Children never overlap, because the
    /// harness drives every layer from one thread.
    pub fn self_seconds(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let first = root as usize;
        let root_end = self.spans[first].end_ns;
        let mut child_ns = vec![0u64; self.spans.len() - first];
        let mut last = first;
        for (i, s) in self.spans.iter().enumerate().skip(first + 1) {
            if s.start_ns > root_end {
                break;
            }
            last = i;
            if s.parent != NO_PARENT && s.parent as usize >= first {
                child_ns[s.parent as usize - first] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans[first..=last].iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Append every span to `path`, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"workload\":\"{}\",\"pass\":{},\"id\":{id},\"parent\":",
                self.workload, self.pass
            )?;
            if s.parent == NO_PARENT {
                write!(out, "null")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            write!(
                out,
                ",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.name, s.start_ns, s.end_ns
            )?;
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}\"{k}\":{v}")?;
            }
            writeln!(out, "}}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new("test", 0);
        let root = t.enter("root");
        let a = t.enter("a");
        let b = t.enter("b");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let self_s = t.self_seconds(root);
        let total = (t.spans[root as usize].end_ns - t.spans[root as usize].start_ns) as f64 / 1e9;
        let sum: f64 = self_s.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the root");
        assert!(self_s["b"] >= 0.005);
        assert!(self_s["a"] < self_s["b"]);
    }
}
