//! Spans of the traced run, kept in memory and written at the end as
//! Chrome trace-event JSON (loadable in Perfetto).
//!
//! Every span has a name (`<layer>.<call>`), a start, an end, a parent
//! and a correlation id: the spans of one lookup batch or one route
//! update share the id of their root span. They are written as async
//! begin/end pairs keyed by `(category, id)`, so the spans of one batch
//! nest on one track however many batches overlap in time.

use std::io::Write;
use std::time::Instant;

use crate::metrics::json_str;

/// What a span's id correlates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Setup,
    Batch,
    Update,
    Probe,
}

impl Kind {
    fn category(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Batch => "batch",
            Kind::Update => "update",
            Kind::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    kind: Kind,
    id: u64,
    /// 1-based index of the parent span, 0 for a root.
    parent: u32,
    start: Instant,
    end: Instant,
}

/// An append-only span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// A recorded span's handle, for use as a parent (0 = no parent).
pub type SpanRef = u32;

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a finished span and return its handle.
    pub fn record(
        &mut self,
        name: &'static str,
        kind: Kind,
        id: u64,
        parent: SpanRef,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        self.spans.push(Span {
            name,
            kind,
            id,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() as SpanRef
    }

    /// Move a recorded span's end, for a root whose last child is only
    /// known after the run (an update's adoption).
    pub fn set_end(&mut self, span: SpanRef, end: Instant) {
        if let Some(s) = span
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end = end.max(s.start);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the Chrome trace-event JSON. Each span tree is written
    /// depth-first (a parent's begin, its children in start order, its
    /// end), which is a valid nesting even where timestamps tie; children
    /// are clamped into their parent's interval.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3;
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len() + 1];
        for (i, s) in self.spans.iter().enumerate() {
            children[s.parent as usize].push(i as u32 + 1);
        }
        for c in &mut children {
            c.sort_by_key(|&i| self.spans[i as usize - 1].start);
        }
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        let mut first = true;
        // (span handle, clamp interval, whether its begin was written)
        let mut stack: Vec<(u32, Instant, Instant, bool)> = Vec::new();
        for &root in children[0].iter().rev() {
            let s = &self.spans[root as usize - 1];
            stack.push((root, s.start, s.end, false));
        }
        while let Some((h, lo, hi, opened)) = stack.pop() {
            let s = &self.spans[h as usize - 1];
            let (start, end) = (s.start.clamp(lo, hi), s.end.clamp(lo, hi));
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                out,
                "{sep}{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"{}\", \"id\": {}, \"ts\": {:.3}, \"pid\": 1, \"tid\": 1",
                json_str(s.name),
                s.kind.category(),
                if opened { "e" } else { "b" },
                s.id,
                us(if opened { end } else { start }),
            )?;
            if opened {
                write!(out, "}}")?;
                continue;
            }
            let layer = s.name.split_once('.').map_or(s.name, |(l, _)| l);
            write!(
                out,
                ", \"args\": {{\"layer\": {}, \"span\": {h}, \"parent\": {}}}}}",
                json_str(layer),
                s.parent
            )?;
            stack.push((h, lo, hi, true));
            for &c in children[h as usize].iter().rev() {
                stack.push((c, start, end, false));
            }
        }
        writeln!(out, "\n]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn chrome_json_pairs_every_span_and_keeps_parents() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut s = Spans::new(t0);
        let root = s.record("bench.batch", Kind::Batch, 7, 0, at(0), at(10));
        s.record("queue.submit", Kind::Batch, 7, root, at(0), at(2));
        s.record("engine.serve", Kind::Batch, 7, root, at(2), at(10));
        let mut buf = Vec::new();
        s.write_chrome(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"ph\": \"b\"").count(), 3);
        assert_eq!(text.matches("\"ph\": \"e\"").count(), 3);
        assert!(text.contains("\"parent\": 1"));
        // The root opens first and closes last, its children between.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("bench.batch") && lines[1].contains("\"b\""));
        assert!(lines[2].contains("queue.submit") && lines[3].contains("queue.submit"));
        assert!(lines[6].contains("bench.batch") && lines[6].contains("\"e\""));
        assert!(text.trim_end().ends_with("]}"));
    }
}
