//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side, around its calls into
//! each layer's public functions: name, start, end, parent span and batch
//! id, plus the calling thread's CPU time across the span. They stay in a
//! preallocated vector until the run ends and are then written out as
//! JSON lines. A layer's self time is its span minus the part its child
//! spans cover.

use crate::clock;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer and operation, e.g. `learner.infer`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Calling-thread CPU time spent inside the span.
    pub cpu_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The batch the span belongs to.
    pub batch: u64,
}

impl Span {
    /// Wall duration in microseconds.
    pub fn wall_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// Calling-thread CPU time in microseconds.
    pub fn cpu_us(&self) -> f64 {
        self.cpu_ns as f64 / 1e3
    }
}

/// A started span: pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    name: &'static str,
    start: Instant,
    cpu: Duration,
    parent: Option<usize>,
    batch: u64,
}

/// The recorder. Spans beyond the preallocated capacity are counted but
/// not kept, so a long run never reallocates mid-measurement.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder holding up to `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(capacity), dropped: 0 }
    }

    /// Opens a span. `parent` is the slot [`Self::reserve`] returned for
    /// the enclosing span, which must end after this one.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, batch: u64) -> Open {
        Open { name, start: Instant::now(), cpu: clock::thread_cpu(), parent, batch }
    }

    /// Reserves the slot of a parent span before its children run; fill it
    /// with [`Self::close_reserved`].
    pub fn reserve(&mut self, open: &Open) -> Option<usize> {
        self.push(Span {
            name: open.name,
            start_ns: self.ns(open.start),
            end_ns: self.ns(open.start),
            cpu_ns: 0,
            parent: open.parent,
            batch: open.batch,
        })
    }

    /// Closes a span whose slot [`Self::reserve`] handed out.
    pub fn close_reserved(&mut self, slot: Option<usize>, open: Open) -> Span {
        let span = self.finish(open);
        if let Some(index) = slot {
            self.spans[index] = span;
        }
        span
    }

    /// Closes a span and records it.
    pub fn end(&mut self, open: Open) -> Span {
        let span = self.finish(open);
        self.push(span);
        span
    }

    fn finish(&self, open: Open) -> Span {
        let end = Instant::now();
        let cpu = clock::thread_cpu().saturating_sub(open.cpu);
        Span {
            name: open.name,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
            cpu_ns: cpu.as_nanos() as u64,
            parent: open.parent,
            batch: open.batch,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the preallocated capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Wall self time of every span named `name`, in microseconds: its
    /// duration minus the union of its children's intervals.
    pub fn self_wall_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(span, _)| span.name == name)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                span.name, span.start_ns, span.end_ns, span.cpu_ns, span.batch
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new(8);
        let parent =
            Span { name: "p", start_ns: 0, end_ns: 100, cpu_ns: 0, parent: None, batch: 0 };
        let index = tracer.push(parent);
        for (start, end) in [(10, 30), (20, 40), (60, 70)] {
            tracer.push(Span {
                name: "c",
                start_ns: start,
                end_ns: end,
                cpu_ns: 0,
                parent: index,
                batch: 0,
            });
        }
        assert_eq!(tracer.self_wall_us("p"), vec![0.06]);
        assert_eq!(tracer.self_wall_us("c"), vec![0.02, 0.02, 0.01]);
    }

    #[test]
    fn spans_past_capacity_are_counted_not_kept() {
        let mut tracer = Tracer::new(1);
        let open = tracer.begin("a", None, 0);
        tracer.end(open);
        let open = tracer.begin("b", None, 1);
        tracer.end(open);
        assert_eq!(tracer.reserve(&tracer.begin("c", None, 2)), None);
        assert_eq!((tracer.spans().len(), tracer.dropped()), (1, 2));
        assert_eq!(tracer.spans()[0].name, "a");
    }
}
