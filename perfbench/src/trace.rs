//! Benchmark-side spans: one around every public call the benchmark makes
//! into a layer, kept in memory and written out as JSON lines when the run
//! ends. Single-threaded, like the benchmark's one client thread.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Operation the span belongs to: a call, job or simulation number.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Spans {
    origin: Instant,
    enabled: Cell<bool>,
    next_id: Cell<u64>,
    open: RefCell<Vec<u64>>,
    done: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            enabled: Cell::new(false),
            next_id: Cell::new(0),
            open: RefCell::new(Vec::new()),
            done: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Run `f` inside a span named `name`; a no-op wrapper while disabled.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.open.borrow_mut().pop();
        self.done.borrow_mut().push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    pub fn len(&self) -> usize {
        self.done.borrow().len()
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.done
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Write every span as one JSON object per line, after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.done.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_disabled_spans_nothing() {
        let spans = Spans::new();
        spans.span("off", 0, || ());
        spans.set_enabled(true);
        spans.span("outer", 7, || spans.span("inner", 7, || ()));
        let done = spans.done.borrow();
        assert_eq!(done.len(), 2);
        let (inner, outer) = (done[0], done[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
