//! In-memory spans for the traced replay.
//!
//! A span records its name, start, end, parent span and operation id.
//! Spans stay in memory until the replay ends and are then written out
//! as JSONL. A disabled tracer reads no clock and records nothing, so
//! the untraced replay runs the same calls without the tracing cost.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (empty when tracing is off).
#[must_use]
#[derive(Debug)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the time their children cover).
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span; spans close innermost first.
    pub fn close(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            let end = self.now_ns();
            self.spans[index].end_ns = end;
            let top = self.open.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, op);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Totals per span name, in first-seen order. Children of one span
    /// run one after another on one thread, so the time they cover is
    /// the sum of their durations.
    pub fn totals(&self) -> Vec<NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut out: Vec<NameTotals> = Vec::new();
        for (span, child_ns) in self.spans.iter().zip(&covered) {
            let pos = match out.iter().position(|t| t.name == span.name) {
                Some(pos) => pos,
                None => {
                    out.push(NameTotals {
                        name: span.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.len() - 1
                }
            };
            let t = &mut out[pos];
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(*child_ns);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 8);
        let root = t.open("op", 0);
        t.time("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let totals = t.totals();
        let op = totals.iter().find(|x| x.name == "op").expect("op span");
        let child = totals
            .iter()
            .find(|x| x.name == "child")
            .expect("child span");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(op.self_ns, op.total_ns - child.total_ns);
        assert!(child.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let span = t.open("op", 0);
        assert_eq!(t.time("child", 0, || 7), 7);
        t.close(span);
        assert!(t.spans().is_empty());
    }
}
