//! In-memory spans for the traced run.
//!
//! Spans are recorded by the harness around its calls into each layer
//! (`run → round → session → event → journal | ingest | advance →
//! forecast.* | sink`); the program under test is not instrumented. A span's
//! self time is its duration minus the part its child spans cover. All spans
//! are folded into per-name totals as they close; the first [`SPAN_CAP`] are
//! also kept whole and written to `out/trace-<workload>.json` when the run ends (a full
//! `churn-batched` round would otherwise be about a million spans).

use crate::json::escape;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// How many spans are kept whole for the trace file.
pub const SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// 1-based; 0 means "no parent".
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: &'static str,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name totals over every span of that name, kept or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: Vec<(&'static str, NameTotals)>,
    next_id: u32,
}

/// The span recorder. Single-threaded: the harness loop and the sink and
/// forecast adapters it hands to a session all share one `&Tracer`.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(SPAN_CAP),
                stack: Vec::with_capacity(8),
                totals: Vec::new(),
                next_id: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&self, name: &'static str) {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.next_id += 1;
        let id = inner.next_id;
        let parent = inner.stack.last().map_or(0, |open| open.id);
        if inner.spans.len() < SPAN_CAP {
            inner.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
        }
        inner.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&self) -> u64 {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let open = inner.stack.pop().expect("exit without a matching enter");
        let duration = end_ns - open.start_ns;
        if let Some(span) = inner.spans.get_mut(open.id as usize - 1) {
            span.end_ns = end_ns;
        }
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += duration;
        }
        let position = inner.totals.iter().position(|(n, _)| *n == open.name);
        let slot = match position {
            Some(i) => &mut inner.totals[i].1,
            None => {
                inner.totals.push((open.name, NameTotals::default()));
                &mut inner.totals.last_mut().expect("just pushed").1
            }
        };
        slot.count += 1;
        slot.total_ns += duration;
        slot.self_ns += duration.saturating_sub(open.child_ns);
        duration
    }

    /// Totals of every span named `name` so far.
    pub fn totals(&self, name: &str) -> NameTotals {
        self.inner
            .borrow()
            .totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// All per-name totals, in first-seen order.
    pub fn all_totals(&self) -> Vec<(&'static str, NameTotals)> {
        self.inner.borrow().totals.clone()
    }

    /// Spans opened so far (kept or not).
    pub fn span_count(&self) -> u64 {
        u64::from(self.inner.borrow().next_id)
    }

    /// Writes the kept spans and the per-name self times as one JSON
    /// document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{}\",\"spans_recorded\":{},\"spans_kept\":{},\"self_times\":[",
            escape(workload),
            inner.next_id,
            inner.spans.len()
        )?;
        for (i, (name, t)) in inner.totals.iter().enumerate() {
            write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                escape(name),
                t.count,
                t.total_ns,
                t.self_ns
            )?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, span) in inner.spans.iter().enumerate() {
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                escape(span.name),
                i + 1,
                span.parent,
                span.start_ns,
                span.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.enter("outer");
        tracer.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.exit();
        tracer.enter("inner");
        tracer.exit();
        tracer.exit();
        let outer = tracer.totals("outer");
        let inner = tracer.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(tracer.span_count(), 3);
    }
}
