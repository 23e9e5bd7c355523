//! Harness-side spans around calls into each layer's public API.
//!
//! The program under test is not edited to trace it: every span here is
//! opened and closed by the harness, outside the call it brackets. Spans are
//! kept in memory and written as a chrome-trace file when the run ends.

use crate::json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Span recorder. Disabled (the untraced run), `span` only calls its body.
pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Self {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `body` inside a span called `name`, child of whatever span is
    /// open. The body gets the tracer back so it can open children.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = body(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per span name, in first-seen order: `(name, spans, total ns, self
    /// ns)`. A span's self time is its duration minus what its child spans
    /// cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(*c);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Write every span as a chrome-trace complete event (`chrome://tracing`,
    /// ui.perfetto.dev). `args` carries the span's index, its parent and the
    /// workload, so one request's spans can be followed by identifier.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n{{\"name\":{},\"cat\":\"harness\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"id\":{i},\"parent\":{},\"workload\":{}}}}}",
                json::string(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number((s.end_ns - s.start_ns) as f64 / 1e3),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::string(&self.workload),
            )?;
        }
        writeln!(w, "\n]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true, "unit");
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let outer = spans[0].end_ns - spans[0].start_ns;
        let summary = tr.summary();
        assert_eq!(summary.len(), 2);
        let (name, count, total, own) = summary[1];
        assert_eq!((name, count), ("inner", 2));
        assert!(total >= 2_000_000 && own == total);
        assert_eq!(summary[0], ("outer", 1, outer, outer - total));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, "unit");
        assert_eq!(tr.span("x", |_| 5), 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut tr = Tracer::new(true, "w\"l");
        tr.span("a", |tr| tr.span("b", |_| ()));
        let path = crate::scratch_dir("trace-test").join("trace.json");
        tr.write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        let v = json::Value::parse(&text).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("w\"l"));
    }
}
