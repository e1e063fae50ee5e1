//! Spans recorded from outside the program, around each call into a
//! layer's public functions. Spans stay in memory and are written out
//! when the benchmark ends; a disabled tracer records nothing.

use std::io::Write as _;
use std::time::Instant;

/// One closed span: a named interval and the span open around it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (spans already open still close).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any still open inside it).
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Self time of every span called `name`, in milliseconds: its
    /// duration minus what its child spans cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit(outer);
        let outer_self = t.self_ms("outer")[0];
        let inner = t.self_ms("inner")[0];
        assert!(inner >= 20.0);
        assert!(
            outer_self < inner,
            "outer self {outer_self} vs inner {inner}"
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.self_ms("x").is_empty());
    }
}
